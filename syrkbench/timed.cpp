// The untraced run: set-up time, then a closed loop for the requested
// seconds through the public entry points only — core::Session + core::syrk
// for the direct workloads, SyrkService::submit/wait for service_mix. Every
// result is compared with the oracle between requests, with the clock
// paused.
#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <type_traits>

#include "bench.hpp"
#include "service/service.hpp"

namespace syrkbench {

namespace {

using parsyrk::comm::WorkerPool;
using parsyrk::core::Session;
using parsyrk::service::ServiceOptions;
using parsyrk::service::SyrkService;
using parsyrk::service::SyrkTicket;

/// Set-up is repeated on a fresh worker pool each time, so every repetition
/// pays the worker lease, the first plan, arena growth and first-touch page
/// faults; the reported figure is the median. The first set-up is the one
/// the timed window then runs on; the others follow the window.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 201;
constexpr double kSetupBudgetSeconds = 1.0;

/// A pool and the session or service leasing from it. The pool is declared
/// first so the session or service is destroyed before it.
template <class Front>
struct Rig {
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<Front> front;

  void reset() {
    front.reset();
    pool.reset();
  }
};

/// Builds a fresh rig and runs the first, untimed request on it; returns
/// the seconds that took.
template <class Front>
double setup_once(const Workload& w, Rig<Front>& rig, Tally& tally) {
  rig.reset();
  const auto t0 = Clock::now();
  rig.pool = std::make_unique<WorkerPool>();
  try {
    parsyrk::core::SyrkRun run;
    if constexpr (std::is_same_v<Front, Session>) {
      rig.front = std::make_unique<Session>(kProcs, *rig.pool);
      run = parsyrk::core::syrk(*rig.front, w.request(0));
    } else {
      ServiceOptions opts;
      opts.procs = kProcs;
      opts.pool = rig.pool.get();
      rig.front = std::make_unique<SyrkService>(opts);
      run = rig.front->syrk(w.request(0)).run;
    }
    const double seconds = seconds_between(t0, Clock::now());
    tally.check(run.c, w.input(0));
    return seconds;
  } catch (const std::exception&) {
    tally.fail();
    return 0.0;
  }
}

/// Seconds since construction, less the oracle time `tally` accrued since:
/// the window clock stops while results are compared with the oracle.
class WindowClock {
 public:
  explicit WindowClock(const Tally& tally)
      : tally_(tally), start_(Clock::now()), checked_(tally.check_seconds) {}
  double now() const {
    return seconds_between(start_, Clock::now()) -
           (tally_.check_seconds - checked_);
  }

 private:
  const Tally& tally_;
  Clock::time_point start_;
  double checked_;
};

/// Completions of the timed window, timed on a WindowClock.
///
/// Every timing metric is computed on each of a number of consecutive slices
/// of the completions, and the run reports the better quartile over the
/// slices: the lower quartile of a latency, the upper quartile of a rate.
/// Interference from outside the process (CPU steal by other tenants of the
/// host) only ever slows a slice, so a run's figure moves only when it
/// covers three quarters of the window. On 20-second runs this halved the
/// run-to-run spread of the median latency on square_1d and tall_2d against
/// a median over the slices.
struct Window {
  /// The median and the rates use up to kSlices slices of at least
  /// kSliceRequests completions.
  static constexpr std::size_t kSlices = 15;
  static constexpr std::size_t kSliceRequests = 4;
  /// The tail uses slices of kTailSliceRequests completions, which reach p90
  /// with ten requests beyond it, when the window holds kTailSlices of them.
  /// A shorter window is cut into kTailSlices slices of at least
  /// kShortTailSliceRequests (p75 with ten beyond), or into fewer of that
  /// size, or one. A p99 over 1000-request slices moved twice as much between
  /// runs as the p90 (0.09 against 0.06 on small_1d), and a p90 over
  /// square_1d's five 100-request slices more than a p75 over ten (0.13
  /// against 0.09): the higher the percentile and the fewer the slices, the
  /// more the tail counts the host's descheduling hiccups.
  static constexpr std::size_t kTailSliceRequests = 100;
  static constexpr std::size_t kTailSlices = 10;
  static constexpr std::size_t kShortTailSliceRequests = 40;

  struct Completion {
    double at;       // window clock at completion
    double latency;  // seconds
    double macs;     // useful multiply-adds
  };

  /// Completions the window makes room for before it opens. The buffer is
  /// written once then, so its pages add a constant to peak_rss_mb instead
  /// of growing with the completion count in doubling steps, which made
  /// service_mix's peak (~20 MB) spread 0.18 between runs.
  static constexpr std::size_t kReserved = std::size_t{1} << 19;

  explicit Window(const Workload& w) : ratio(w) {
    done.resize(kReserved);
    done.clear();
  }

  void complete(double at, double latency, double macs) {
    done.push_back({at, latency, macs});
  }

  std::size_t slices() const {
    return std::clamp<std::size_t>(done.size() / kSliceRequests, 1, kSlices);
  }
  std::size_t tail_slices() const {
    const std::size_t n = done.size();
    return std::max({n / kTailSliceRequests,
                     std::min(kTailSlices, n / kShortTailSliceRequests),
                     std::size_t{1}});
  }

  /// Quantile `q`, over `k` slices, of fn(first, last) for each slice
  /// [first, last).
  template <class Fn>
  double over_slices(std::size_t k, double q, Fn fn) const {
    std::vector<double> values;
    for (std::size_t j = 0; j < k && !done.empty(); ++j) {
      values.push_back(fn(j * done.size() / k, (j + 1) * done.size() / k));
    }
    return quantile(std::move(values), q);
  }

  /// The lower quartile over `k` slices of each slice's latency quantile q.
  double latency_quantile(std::size_t k, double q) const {
    return over_slices(k, 0.25, [&](std::size_t lo, std::size_t hi) {
      std::vector<double> v;
      for (std::size_t i = lo; i < hi; ++i) v.push_back(done[i].latency);
      return quantile(std::move(v), q);
    });
  }

  /// Completions (or multiply-adds, with `macs`) per window second: the upper
  /// quartile over the slices.
  double rate(bool macs) const {
    return over_slices(slices(), 0.75, [&](std::size_t lo, std::size_t hi) {
      const double t0 = lo == 0 ? 0.0 : done[lo - 1].at;
      double work = 0.0;
      for (std::size_t i = lo; i < hi; ++i) work += macs ? done[i].macs : 1.0;
      return work / std::max(done[hi - 1].at - t0, 1e-9);
    });
  }

  std::vector<Completion> done;
  double seconds = 0.0;
  WordsRatio ratio;
};

void direct_loop(const Workload& w, double seconds, Session& session,
                 Tally& tally, Window& win) {
  const WindowClock clock(tally);
  for (std::size_t i = 1;; ++i) {
    if (clock.now() >= seconds) break;
    const auto t0 = Clock::now();
    parsyrk::core::SyrkRun run;
    try {
      run = parsyrk::core::syrk(session, w.request(i));
    } catch (const std::exception&) {
      tally.fail();
      continue;
    }
    win.complete(clock.now(), seconds_between(t0, Clock::now()),
                 useful_macs(w.input(i).a));
    win.ratio.add(i, run);
    tally.check(run.c, w.input(i));
  }
  win.seconds = clock.now();
}

/// Closed loop of one submitter keeping w.window tickets in flight and
/// waiting on the oldest. Requests still in flight when the window closes
/// are drained and checked but not counted as completed in it.
void service_loop(const Workload& w, double seconds, SyrkService& svc,
                  Tally& tally, Window& win, bool& protocol_ok) {
  struct InFlight {
    SyrkTicket ticket;
    std::size_t index;
  };
  std::deque<InFlight> inflight;
  std::vector<std::uint64_t> seqs(Window::kReserved);  // see kReserved
  seqs.clear();
  std::size_t next = 1;
  const WindowClock clock(tally);
  bool open = true;
  while (true) {
    if (open && clock.now() >= seconds) {
      open = false;
      win.seconds = clock.now();
    }
    while (open && static_cast<int>(inflight.size()) < w.window) {
      inflight.push_back({svc.submit(w.request(next)), next});
      ++next;
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    try {
      const parsyrk::service::SyrkResult& r = f.ticket.wait();
      seqs.push_back(r.completion_seq);
      win.ratio.add(f.index, r.run);
      if (open) {
        win.complete(clock.now(), r.latency.total_seconds,
                     useful_macs(w.input(f.index).a));
      }
      tally.check(r.run.c, w.input(f.index));
    } catch (const std::exception&) {
      tally.fail();
    }
  }
  std::sort(seqs.begin(), seqs.end());
  if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
    protocol_ok = false;
  }
}

template <class Front>
void run_front(const Workload& w, double seconds, Report& out) {
  Tally tally;
  Rig<Front> rig;
  std::vector<double> setups{setup_once(w, rig, tally)};
  Window win(w);
  if constexpr (std::is_same_v<Front, Session>) {
    direct_loop(w, seconds, *rig.front, tally, win);
  } else {
    service_loop(w, seconds, *rig.front, tally, win, out.protocol_ok);
  }
  // Peak memory of the timed window, before the set-up repetitions below
  // leave freed buffers in the allocator's per-thread arenas.
  const double peak_mb = peak_rss_mb();
  const auto start = Clock::now();
  while (static_cast<int>(setups.size()) < kMaxSetups &&
         (static_cast<int>(setups.size()) < kMinSetups ||
          seconds_between(start, Clock::now()) < kSetupBudgetSeconds)) {
    setups.push_back(setup_once(w, rig, tally));
  }
  rig.reset();
  const double setup = median(setups);

  const std::size_t tail_slices = win.tail_slices();
  const std::size_t tail_slice_requests = win.done.size() / tail_slices;
  const double tail_pct = tail_percentile(tail_slice_requests);
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.metric("latency_p50_us",
             win.latency_quantile(win.slices(), 0.5) * 1e6,
             "us");
  out.metric("latency_tail_us",
             win.latency_quantile(tail_slices, tail_pct / 100.0) * 1e6, "us");
  out.metric("requests_per_s", win.rate(false), "1/s");
  out.metric("gmacs", win.rate(true) / 1e9, "GMAC/s");
  out.metric("setup_s", setup, "s");
  out.metric("peak_rss_mb", peak_mb, "MB");
  out.metric("success_frac",
             1.0 - static_cast<double>(tally.failed) /
                       static_cast<double>(std::max<std::uint64_t>(
                           tally.attempted, 1)),
             "ratio");
  out.metric("comm_words_ratio", win.ratio.value(), "ratio");
  out.note("latency_tail_percentile", std::to_string(tail_pct));
  out.note("latency_tail_slices", std::to_string(tail_slices));
  out.note("latency_tail_slice_requests", std::to_string(tail_slice_requests));
  out.note("latency_samples", std::to_string(win.done.size()));
  out.note("failed_frac",
           std::to_string(static_cast<double>(tally.failed) /
                          static_cast<double>(
                              std::max<std::uint64_t>(tally.attempted, 1))));
  out.note("oracle_check_s", std::to_string(tally.check_seconds));
  out.note("window_s", std::to_string(win.seconds));
}

}  // namespace

void run_timed(const Workload& w, double seconds, Report& out) {
  if (w.service) {
    run_front<SyrkService>(w, seconds, out);
  } else {
    run_front<Session>(w, seconds, out);
  }
}

}  // namespace syrkbench
