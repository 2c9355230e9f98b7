// The traced run. It replays each workload's phases by calling every
// layer's public functions from the benchmark, with a span around each call:
//
//   core.planner  resolve_plan_report on the request;
//   simmpi        an empty World::run on world_for(plan) (dispatch), and one
//                 World::run of the plan's dominant collective at the real
//                 run's per-rank sizes (1D reduce_scatter of the packed
//                 triangle, 2D all_to_all_v of the row-block chunks);
//   matrix        syrk_lower / gemm_nt at the plan's per-rank block shapes,
//                 every rank concurrently in one World::run;
//   core          allocate + zero + symmetrize_from_lower of the n1×n1
//                 result (plus truncate_result when the plan pads), and the
//                 real core::syrk call the layers are set against;
//   service       SyrkService submit/wait of the workload's requests.
//
// Spans stay in memory and are written as JSON lines when the run ends.
// Nothing in the library is instrumented; tracing, verification and audits
// stay off except in the phase that measures their cost.
#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "distribution/block1d.hpp"
#include "distribution/triangle_block.hpp"
#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "service/service.hpp"

namespace syrkbench {

namespace {

using parsyrk::Matrix;
using parsyrk::comm::Comm;
using parsyrk::comm::World;
using parsyrk::core::Algorithm;
using parsyrk::core::Plan;
using parsyrk::core::Session;
using parsyrk::core::SyrkRequest;
using parsyrk::core::SyrkRun;

/// In-memory span recorder. Only the client thread opens and closes spans;
/// per-rank timings measured on worker threads are added after their
/// World::run has returned.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  /// An open span. `id` is -1 once the log is full; the span is then still
  /// timed, only not recorded.
  struct Handle {
    int id;
    double start;
  };

  Handle open(const char* layer, std::uint64_t request, int parent = -1) {
    const double t = now();
    return {add(layer, t, -1.0, parent, request), t};
  }
  /// Closes the span and returns its duration in seconds.
  double close(Handle h) {
    const double t = now();
    if (h.id >= 0) spans_[static_cast<std::size_t>(h.id)].end = t;
    return t - h.start;
  }
  int add(const char* layer, double start, double end, int parent,
          std::uint64_t request) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({layer, start, end, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  std::uint64_t dropped() const { return dropped_; }

  void write(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\":" << i << ",\"layer\":\"" << s.layer
        << "\",\"start_us\":" << s.start * 1e6
        << ",\"end_us\":" << s.end * 1e6 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  struct Span {
    const char* layer;
    double start;
    double end;
    int parent;
    std::uint64_t request;
  };
  double now() const { return since_epoch(Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Runs `body` on the plan's ranks of `world` the way core::syrk does: on
/// the whole world when the plan fills it, else on an active-ranks split.
void run_on_plan(World& world, const Plan& plan,
                 const std::function<void(Comm&)>& body) {
  const int active = static_cast<int>(plan.logical_ranks());
  if (active == world.size()) {
    world.run(body);
    return;
  }
  world.run([&](Comm& wc) {
    const bool on = wc.rank() < active;
    Comm sub = wc.split(on ? 0 : 1, wc.rank());
    if (on) body(sub);
  });
}

/// Bytes every rank of `world` has packed so far (pack_bytes is per thread).
std::uint64_t world_pack_bytes(World& world) {
  std::vector<std::uint64_t> per(static_cast<std::size_t>(world.size()), 0);
  world.run([&](Comm& c) {
    per[static_cast<std::size_t>(c.rank())] = parsyrk::kern::pack_bytes();
  });
  std::uint64_t sum = 0;
  for (std::uint64_t b : per) sum += b;
  return sum;
}

/// One request's plan, replayed layer by layer on a session. Buffers for the
/// collective and the kernels are built once, outside every timed call.
class PlanReplay {
 public:
  PlanReplay(Session& session, SyrkRequest req)
      : session_(session), req_(std::move(req)) {
    const Matrix& a = *req_.a;
    plan_ = parsyrk::core::resolve_plan(session_, req_);
    world_ = &session_.world_for(plan_);
    n1_ = a.rows();
    exec_n1_ = plan_.exec_n1(n1_);
    exec_a_ = &a;
    if (exec_n1_ != n1_) {
      a_pad_ = parsyrk::core::internal::pad_rows(a, exec_n1_);
      exec_a_ = &a_pad_;
    }
    const int ranks = static_cast<int>(plan_.logical_ranks());
    rank_start_.resize(static_cast<std::size_t>(ranks));
    rank_end_.resize(static_cast<std::size_t>(ranks));
    if (plan_.algorithm == Algorithm::kOneD) {
      prepare_1d(ranks);
    } else if (plan_.algorithm == Algorithm::kTwoD) {
      prepare_2d(ranks);
    } else {
      throw std::runtime_error("the layer replay covers 1D and 2D plans only");
    }
  }

  // The collective and kernel callables capture `this`.
  PlanReplay(const PlanReplay&) = delete;
  PlanReplay& operator=(const PlanReplay&) = delete;

  World& world() { return *world_; }
  double kernel_macs() const { return kernel_macs_; }

  void resolve() { (void)parsyrk::core::resolve_plan_report(session_, req_); }
  void dispatch() { run_on_plan(*world_, plan_, [](Comm&) {}); }
  void collective() { run_on_plan(*world_, plan_, collective_); }
  /// Runs the kernels; returns the busiest rank's kernel seconds.
  double kernels(SpanLog& log, int parent, std::uint64_t request) {
    run_on_plan(*world_, plan_, [this](Comm& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      rank_start_[r] = Clock::now();
      kernel_(c);
      rank_end_[r] = Clock::now();
    });
    double busiest = 0.0;
    for (std::size_t r = 0; r < rank_start_.size(); ++r) {
      log.add("matrix.kernel.rank", log.since_epoch(rank_start_[r]),
              log.since_epoch(rank_end_[r]), parent, request);
      busiest = std::max(busiest, seconds_between(rank_start_[r],
                                                  rank_end_[r]));
    }
    return busiest;
  }
  void assembly() {
    Matrix c(exec_n1_, exec_n1_);
    parsyrk::symmetrize_from_lower(c);
    if (exec_n1_ != n1_) {
      c = parsyrk::core::internal::truncate_result(std::move(c), n1_);
    }
  }
  SyrkRun call() { return parsyrk::core::syrk(session_, req_); }

 private:
  /// Alg. 1: every rank reduce-scatters the packed n1(n1+1)/2 triangle and
  /// runs syrk_lower on its column block of A into a full n1×n1 buffer.
  void prepare_1d(int p) {
    const std::size_t total = exec_n1_ * (exec_n1_ + 1) / 2;
    const std::size_t n2 = exec_a_->cols();
    std::vector<std::size_t> sizes(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      sizes[static_cast<std::size_t>(q)] =
          parsyrk::dist::chunk_size(total, p, q);
    }
    packed_.assign(static_cast<std::size_t>(p),
                   std::vector<double>(total, 1.0));
    collective_ = [this, sizes](Comm& c) {
      (void)c.reduce_scatter(packed_[static_cast<std::size_t>(c.rank())],
                             sizes);
    };
    for (int r = 0; r < p; ++r) cbar_.emplace_back(exec_n1_, exec_n1_);
    kernel_ = [this, n2, p](Comm& c) {
      const int r = c.rank();
      const std::size_t c0 = parsyrk::dist::chunk_begin(n2, p, r);
      const std::size_t cw = parsyrk::dist::chunk_size(n2, p, r);
      if (cw > 0) {
        parsyrk::syrk_lower(exec_a_->block(0, c0, exec_n1_, cw),
                            cbar_[static_cast<std::size_t>(r)].view());
      }
    };
    kernel_macs_ = static_cast<double>(total) * static_cast<double>(n2);
  }

  /// Alg. 2: every rank sends its chunk of each row block in R_k to the other
  /// members of Q_i (one all_to_all_v), then runs gemm_nt per owned
  /// off-diagonal block pair and syrk_lower on its diagonal block.
  void prepare_2d(int p) {
    const parsyrk::dist::TriangleBlockDistribution d(plan_.c);
    const std::uint64_t c = d.c();
    const std::size_t n2 = exec_a_->cols();
    const std::size_t nb = exec_n1_ / d.num_block_rows();
    const std::size_t flat = nb * n2;
    const int parts = static_cast<int>(c + 1);
    sendbuf_.assign(static_cast<std::size_t>(p),
                    std::vector<std::vector<double>>(
                        static_cast<std::size_t>(p)));
    owned_.resize(static_cast<std::size_t>(p));
    out_.resize(static_cast<std::size_t>(p));
    const auto nbd = static_cast<double>(nb);
    for (int k = 0; k < p; ++k) {
      const auto uk = static_cast<std::uint64_t>(k);
      for (std::uint64_t i : d.row_block_set(uk)) {
        const int q = static_cast<int>(d.chunk_index(i, uk));
        const std::size_t words = parsyrk::dist::chunk_size(flat, parts, q);
        for (std::uint64_t k2 : d.processor_set(i)) {
          if (k2 != uk) sendbuf_[uk][k2].assign(words, 1.0);
        }
      }
      auto& owned = owned_[uk];
      for (const auto& [bi, bj] : d.owned_pairs(uk)) {
        owned.push_back({bi, bj, false});
        kernel_macs_ += nbd * nbd * static_cast<double>(n2);
      }
      if (auto diag = d.diagonal_block(uk)) {
        owned.push_back({*diag, *diag, true});
        kernel_macs_ += nbd * (nbd + 1) / 2 * static_cast<double>(n2);
      }
      for (std::size_t t = 0; t < owned.size(); ++t) {
        out_[uk].emplace_back(nb, nb);
      }
    }
    collective_ = [this](Comm& comm) {
      (void)comm.all_to_all_v(sendbuf_[static_cast<std::size_t>(comm.rank())]);
    };
    kernel_ = [this, nb, n2](Comm& comm) {
      const auto k = static_cast<std::size_t>(comm.rank());
      for (std::size_t t = 0; t < owned_[k].size(); ++t) {
        const Owned& o = owned_[k][t];
        const auto bi = exec_a_->block(o.i * nb, 0, nb, n2);
        if (o.diagonal) {
          parsyrk::syrk_lower(bi, out_[k][t].view());
        } else {
          parsyrk::gemm_nt(bi, exec_a_->block(o.j * nb, 0, nb, n2),
                           out_[k][t].view());
        }
      }
    };
  }

  struct Owned {
    std::uint64_t i;
    std::uint64_t j;
    bool diagonal;
  };

  Session& session_;
  SyrkRequest req_;
  Plan plan_;
  World* world_ = nullptr;
  std::size_t n1_ = 0;
  std::size_t exec_n1_ = 0;
  const Matrix* exec_a_ = nullptr;
  Matrix a_pad_;
  std::function<void(Comm&)> collective_;
  std::function<void(Comm&)> kernel_;
  double kernel_macs_ = 0.0;
  std::vector<Clock::time_point> rank_start_;
  std::vector<Clock::time_point> rank_end_;
  // 1D buffers.
  std::vector<std::vector<double>> packed_;
  std::vector<Matrix> cbar_;
  // 2D buffers.
  std::vector<std::vector<std::vector<double>>> sendbuf_;
  std::vector<std::vector<Owned>> owned_;
  std::vector<std::vector<Matrix>> out_;
};

/// Per-layer figures of one request class (one stream entry shape and cap).
/// Times are medians over the replay rounds, in seconds.
struct LayerFigures {
  double resolve = 0.0;
  double dispatch = 0.0;
  double collective = 0.0;  // net of dispatch
  double kernel = 0.0;      // busiest rank, measured inside the job
  double kernel_macs = 0.0;
  double assembly = 0.0;
  double call_traced = 0.0;  // the real core::syrk call inside a span
  double call_plain = 0.0;   // the same call timed without a span
  double words_max = 0.0;
  double messages_max = 0.0;
  double pack_bytes = 0.0;
};

constexpr int kMinRounds = 3;

LayerFigures replay_class(Session& session, const Workload& w,
                          std::size_t stream_index, double budget,
                          SpanLog& log, Tally& tally,
                          std::uint64_t& request_id) {
  const Input& in = w.input(stream_index);
  PlanReplay rp(session, w.request(stream_index));
  LayerFigures f;
  f.kernel_macs = rp.kernel_macs();

  {  // Counts: ledger words/messages and pack bytes of one real call.
    const std::uint64_t before = world_pack_bytes(rp.world());
    SyrkRun run = rp.call();
    f.pack_bytes = static_cast<double>(world_pack_bytes(rp.world()) - before);
    f.words_max = static_cast<double>(run.total.max.words_sent);
    f.messages_max = static_cast<double>(run.total.max.msgs_sent);
    tally.check(run.c, in);
  }

  std::vector<double> resolve, dispatch, collective, kernel, assembly, traced,
      plain;
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_between(start, Clock::now()) < budget;
       ++round) {
    const std::uint64_t id = request_id++;
    const SpanLog::Handle root = log.open("request", id);
    SpanLog::Handle s = log.open("core.planner", id, root.id);
    rp.resolve();
    resolve.push_back(log.close(s));
    s = log.open("simmpi.dispatch", id, root.id);
    rp.dispatch();
    dispatch.push_back(log.close(s));
    s = log.open("simmpi.collective", id, root.id);
    rp.collective();
    collective.push_back(log.close(s));
    s = log.open("matrix.kernel", id, root.id);
    kernel.push_back(rp.kernels(log, s.id, id));
    log.close(s);
    s = log.open("core.assembly", id, root.id);
    rp.assembly();
    assembly.push_back(log.close(s));

    // The real call, once inside a span and once timed by the clock alone;
    // the order alternates so drift does not favour either.
    for (int leg = 0; leg < 2; ++leg) {
      const bool spanned = (leg + round) % 2 == 0;
      SyrkRun run;
      if (spanned) {
        s = log.open("core.syrk", id, root.id);
        run = rp.call();
        traced.push_back(log.close(s));
      } else {
        const auto t0 = Clock::now();
        run = rp.call();
        plain.push_back(seconds_between(t0, Clock::now()));
      }
      tally.check(run.c, in);
    }
    log.close(root);
  }
  f.resolve = median(resolve);
  f.dispatch = median(dispatch);
  f.collective = median(collective) - f.dispatch;
  f.kernel = median(kernel);
  f.assembly = median(assembly);
  f.call_traced = median(traced);
  f.call_plain = median(plain);
  return f;
}

void replay_layers(const Workload& w, double budget, SpanLog& log,
                   Tally& tally, Report& out) {
  Session session(kProcs);
  const auto classes = request_classes(w);
  LayerFigures sum;
  double weights = 0.0;
  std::uint64_t request_id = 0;
  for (const auto& [index, weight] : classes) {
    const LayerFigures f =
        replay_class(session, w, index, budget / static_cast<double>(
                                                     classes.size()),
                     log, tally, request_id);
    weights += weight;
    sum.resolve += weight * f.resolve;
    sum.dispatch += weight * f.dispatch;
    sum.collective += weight * f.collective;
    sum.kernel += weight * f.kernel;
    sum.kernel_macs += weight * f.kernel_macs;
    sum.assembly += weight * f.assembly;
    sum.call_traced += weight * f.call_traced;
    sum.call_plain += weight * f.call_plain;
    sum.words_max += weight * f.words_max;
    sum.messages_max += weight * f.messages_max;
    sum.pack_bytes += weight * f.pack_bytes;
  }
  auto us = [&](double seconds) { return seconds / weights * 1e6; };
  const double layers = sum.resolve + sum.dispatch + sum.collective +
                        sum.kernel + sum.assembly;
  out.metric("planner.resolve_us", us(sum.resolve), "us");
  out.metric("simmpi.dispatch_us", us(sum.dispatch), "us");
  out.metric("simmpi.collective_us", us(sum.collective), "us");
  out.metric("simmpi.words_max", sum.words_max / weights, "count");
  out.metric("simmpi.messages_max", sum.messages_max / weights, "count");
  out.metric("matrix.kernel_us", us(sum.kernel), "us");
  out.metric("matrix.kernel_gmacs",
             sum.kernel > 0 ? sum.kernel_macs / sum.kernel / 1e9 : 0.0,
             "GMAC/s");
  out.metric("matrix.pack_bytes", sum.pack_bytes / weights, "bytes");
  out.metric("core.assembly_us", us(sum.assembly), "us");
  out.metric("core.syrk_us", us(sum.call_traced), "us");
  out.metric("core.unattributed_us", us(sum.call_traced - layers), "us");
  out.metric("bench.trace_overhead_frac",
             sum.call_plain > 0 ? sum.call_traced / sum.call_plain - 1.0 : 0.0,
             "ratio");
  out.note("request_classes", std::to_string(classes.size()));
}

/// Program-side opt-in costs: the workload's requests with with_trace() and
/// with_verify(), each on its own session (both switches stay on for the
/// world once set), interleaved with plain calls.
void opt_in_costs(const Workload& w, double budget, SpanLog& log,
                  Tally& tally, Report& out) {
  Session plain_s(kProcs);
  Session trace_s(kProcs);
  Session verify_s(kProcs);
  std::vector<double> plain, traced, verified;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < kMinRounds || seconds_between(start, Clock::now()) < budget; ++i) {
    for (int leg = 0; leg < 3; ++leg) {
      const int which = static_cast<int>((leg + i) % 3);
      SyrkRequest req = w.request(i);
      Session* s = &plain_s;
      std::vector<double>* into = &plain;
      const char* layer = "core.syrk";
      if (which == 1) {
        req.with_trace();
        s = &trace_s;
        into = &traced;
        layer = "trace.with_trace";
      } else if (which == 2) {
        req.with_verify();
        s = &verify_s;
        into = &verified;
        layer = "verify.with_verify";
      }
      const SpanLog::Handle span = log.open(layer, i);
      SyrkRun run = parsyrk::core::syrk(*s, req);
      into->push_back(log.close(span));
      tally.check(run.c, w.input(i));
    }
  }
  const double base = median(plain);
  out.metric("trace.with_trace_us", median(traced) * 1e6, "us");
  out.metric("trace.with_trace_iqr_us", iqr(traced) * 1e6, "us");
  out.metric("trace.with_trace_overhead_frac",
             base > 0 ? median(traced) / base - 1.0 : 0.0, "ratio");
  out.metric("verify.with_verify_us", median(verified) * 1e6, "us");
  out.metric("verify.with_verify_iqr_us", iqr(verified) * 1e6, "us");
  out.metric("verify.with_verify_overhead_frac",
             base > 0 ? median(verified) / base - 1.0 : 0.0, "ratio");
}

/// The workload's requests through SyrkService: one submitter keeping
/// w.window tickets in flight. Service figures are deltas over the window.
void service_pass(const Workload& w, double budget, SpanLog& log,
                  Tally& tally, Report& out) {
  parsyrk::comm::WorkerPool pool;
  parsyrk::service::ServiceOptions opts;
  opts.procs = kProcs;
  opts.pool = &pool;
  parsyrk::service::SyrkService svc(opts);
  tally.check(svc.syrk(w.request(0)).run.c, w.input(0));
  const parsyrk::service::ServiceStats s0 = svc.stats();

  struct InFlight {
    parsyrk::service::SyrkTicket ticket;
    std::size_t index;
    SpanLog::Handle span;
  };
  std::deque<InFlight> inflight;
  std::vector<double> queue, exec;
  std::size_t next = 1;
  const auto start = Clock::now();
  while (true) {
    const bool open = seconds_between(start, Clock::now()) < budget ||
                      next < 1 + kMinRounds;
    while (open && static_cast<int>(inflight.size()) < w.window) {
      const SpanLog::Handle span = log.open("service.request", next);
      const SpanLog::Handle submit =
          log.open("service.submit", next, span.id);
      inflight.push_back({svc.submit(w.request(next)), next, span});
      log.close(submit);
      ++next;
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const SpanLog::Handle wait = log.open("service.wait", f.index, f.span.id);
    const parsyrk::service::SyrkResult* r = nullptr;
    try {
      r = &f.ticket.wait();
    } catch (const std::exception&) {
      tally.fail();
    }
    log.close(wait);
    log.close(f.span);
    if (r != nullptr) {
      queue.push_back(r->latency.queue_seconds);
      exec.push_back(r->latency.service_seconds);
      tally.check(r->run.c, w.input(f.index));
    }
  }
  const double pass_seconds = seconds_between(start, Clock::now());
  const parsyrk::service::ServiceStats s1 = svc.stats();
  const double jobs =
      static_cast<double>(std::max<std::uint64_t>(s1.completed - s0.completed, 1));
  const double hits =
      static_cast<double>(s1.plan_cache.hits - s0.plan_cache.hits);
  const double misses =
      static_cast<double>(s1.plan_cache.misses - s0.plan_cache.misses);
  out.metric("service.queue_us_p50", median(queue) * 1e6, "us");
  out.metric("service.exec_us_p50", median(exec) * 1e6, "us");
  // Idle rank-seconds between a rank freeing (or the job arriving) and the
  // next streamed dispatch, as a share of the pass's rank-seconds. Solo
  // jobs (folded plans) record no gap.
  out.metric("service.sched_gap_share",
             (s1.scheduler_gap_seconds - s0.scheduler_gap_seconds) /
                 (kProcs * std::max(pass_seconds, 1e-9)),
             "ratio");
  out.metric("service.batched_share",
             static_cast<double>(s1.batched_jobs - s0.batched_jobs) / jobs,
             "ratio");
  out.metric("service.interleaved_share",
             static_cast<double>(s1.interleaved_jobs - s0.interleaved_jobs) /
                 jobs,
             "ratio");
  out.metric("service.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

}  // namespace

void run_traced(const Workload& w, double seconds,
                const std::string& spans_path, Report& out) {
  // Shares of the run: the service pass is the main phase of the service
  // workload and a side phase of the direct ones.
  const double replay_share = w.service ? 0.35 : 0.5;
  const double opt_in_share = w.service ? 0.15 : 0.25;
  SpanLog log;
  Tally tally;
  replay_layers(w, seconds * replay_share, log, tally, out);
  opt_in_costs(w, seconds * opt_in_share, log, tally, out);
  service_pass(w, seconds * (1.0 - replay_share - opt_in_share), log, tally,
               out);
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.note("spans_dropped", std::to_string(log.dropped()));
  if (!spans_path.empty()) log.write(spans_path);
}

}  // namespace syrkbench
