// Service throughput snapshot: replays a mixed small/medium SYRK workload
// through service::SyrkService and, as the baseline, through a serial loop
// of core::syrk calls on a plain Session, then reports requests/sec, p50/p99
// latency (modeled and measured), and the plan cache's hit/miss counters
// against the number of enumerator runs. Emits the machine-readable
// snapshot committed as BENCH_SERVICE.json.
//
//   service_throughput [--out FILE] [--jobs N] [--procs P]
//       runs the workload and writes the JSON snapshot (stdout if no
//       --out).
//
//   service_throughput --smoke [--factor F] [--straggler-factor G]
//       cheap perf gate for ctest: asserts the service beats the serial
//       loop by at least F (default 1.3) on the dispatch-dominated
//       workload and by at least G (default 4.2) on the straggler mix
//       below, AND that every service job's result matrix and ledger
//       counters are bitwise-identical to the serial loop's run of the same
//       request. Exits nonzero otherwise.
//
// The serial loop is the knob-free baseline: the same requests, one by one,
// through core::syrk on a session with the service's plan options. It is
// also the bitwise reference, so each gate's denominator is timed on the
// very runs the equivalence check compares against (best of 3, loop only).
//
// The straggler mix is the scenario the streaming scheduler exists for:
// one large pipelined 3D job submitted ahead of many small 1D jobs. The
// scheduler keeps cycling smalls through the ranks the straggler leaves
// free (interleaving on nonblocking range handles), so its makespan
// approaches the straggler's own runtime, while the serial loop pays for
// every job back to back.
//
// Why the service wins even on this simulated runtime: every core::syrk
// call pays one condition-variable dispatch handoff to the session's parked
// worker threads and idles the ranks its plan does not use. The service
// overlaps jobs on disjoint rank subsets, so their handoffs and compute
// overlap too. The jobs themselves are tiny, so the handoff dominates —
// the same regime a real service is in when flooded with small requests.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/session.hpp"
#include "matrix/random.hpp"
#include "service/service.hpp"

namespace {

using namespace parsyrk;
using Clock = std::chrono::steady_clock;

struct Shape {
  std::uint64_t n1, n2, cap;
};

/// The replayed mixed workload: distinct shapes × rank caps chosen so the
/// planner (folding disabled) yields unfolded 1D plans at 2/3/4/6 ranks —
/// jobs that fit 2–6 side by side on 12 ranks.
std::vector<Shape> workload_shapes() {
  return {
      {16, 64, 2}, {24, 96, 3}, {32, 64, 4},
      {48, 96, 6}, {16, 96, 3}, {24, 64, 4},
  };
}

service::ServiceOptions service_options(int procs) {
  service::ServiceOptions opts;
  opts.procs = procs;
  // Folded plans run solo; keep the whole workload packable.
  opts.plan_options.allow_folding = false;
  // Generous in-flight budget: let rank capacity, not modeled cost, limit
  // packing (the workload's jobs are communication-tiny).
  opts.admission.modeled_seconds_per_round = 10.0;
  opts.admission.max_jobs_per_round = 16;
  return opts;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.data() + i * x.ld(), y.data() + i * y.ld(),
                    x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct ServiceRun {
  double seconds = 0.0;
  std::vector<service::SyrkResult> results;
  service::ServiceStats stats;
};

/// Submits the whole workload asynchronously, waits for every ticket, and
/// returns wall time + per-request results.
ServiceRun run_service(const std::vector<Shape>& shapes,
                       const std::vector<Matrix>& inputs, int procs) {
  service::SyrkService svc(service_options(procs));
  ServiceRun out;
  const auto t0 = Clock::now();
  std::vector<service::SyrkTicket> tickets;
  tickets.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const Shape& s = shapes[j % shapes.size()];
    tickets.push_back(
        svc.submit(core::SyrkRequest(inputs[j]).on_procs(s.cap)));
  }
  out.results.reserve(tickets.size());
  for (auto& t : tickets) out.results.push_back(t.wait());
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.stats = svc.stats();
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> totals(const ServiceRun& m) {
  std::vector<double> v;
  v.reserve(m.results.size());
  for (const auto& r : m.results) v.push_back(r.latency.total_seconds);
  return v;
}

/// The serial baseline: `n` requests run one by one through core::syrk on a
/// plain session with the service's plan options. Best of 3 by wall time of
/// the request loop (session construction excluded, as the service runs
/// exclude service construction); its runs are the bitwise references.
struct SerialRun {
  double seconds = 1e30;
  std::vector<core::SyrkRun> refs;
};

template <class MakeRequest>
SerialRun serial_loop(int procs, std::size_t n, MakeRequest make_request) {
  SerialRun best;
  for (int rep = 0; rep < 3; ++rep) {
    core::Session session(procs);
    core::PlanSearchOptions plan_options;
    plan_options.allow_folding = false;
    session.set_plan_options(plan_options);
    SerialRun run;
    run.refs.reserve(n);
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < n; ++j) {
      run.refs.push_back(core::syrk(session, make_request(j)));
    }
    run.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (run.seconds < best.seconds) best = std::move(run);
  }
  return best;
}

/// Counts batched-vs-solo mismatches (result bits or ledger counters).
int equivalence_failures(const ServiceRun& batched,
                         const std::vector<core::SyrkRun>& refs) {
  int failures = 0;
  for (std::size_t j = 0; j < batched.results.size(); ++j) {
    const auto& run = batched.results[j].run;
    const auto& ref = refs[j];
    const bool ok = bitwise_equal(run.c, ref.c) &&
                    run.total.total == ref.total.total &&
                    run.total.max == ref.total.max &&
                    run.gather_a.total == ref.gather_a.total &&
                    run.reduce_c.total == ref.reduce_c.total;
    if (!ok) {
      ++failures;
      std::cerr << "equivalence failure at request " << j << "\n";
    }
  }
  return failures;
}

/// Measures the enumeration cost a cache hit skips: wall time of a cold
/// enumerate_syrk_plans call vs a warm PlanCache::resolve of the same key.
struct CacheTiming {
  double enumerate_us = 0.0;
  double hit_us = 0.0;
};

CacheTiming measure_cache_timing(const Shape& s) {
  core::PlanSearchOptions opts;
  opts.allow_folding = false;
  CacheTiming out;
  const int reps = 1000;
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      core::enumerate_syrk_plans(s.n1, s.n2, s.cap, opts);
    }
    out.enumerate_us =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e6 / reps;
  }
  {
    service::PlanCache cache;
    cache.resolve(s.n1, s.n2, s.cap, opts);  // prime: the one miss
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) cache.resolve(s.n1, s.n2, s.cap, opts);
    out.hit_us =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e6 / reps;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Straggler mix: one large 3D job + many small 1D jobs
// ---------------------------------------------------------------------------

struct StragglerMix {
  int procs = 16;       // 3D straggler on 12 ranks leaves a 4-rank side lane
  int smalls = 24;      // small 1D jobs riding behind the straggler
  std::uint64_t big_n1 = 96, big_n2 = 64;    // use_3d(2, 2): 12 ranks
  std::uint64_t small_n1 = 16, small_n2 = 32;  // 1D at 2 ranks
};

std::vector<Matrix> straggler_inputs(const StragglerMix& mix) {
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(mix.smalls) + 1);
  inputs.push_back(random_matrix(mix.big_n1, mix.big_n2, 7100));
  for (int j = 0; j < mix.smalls; ++j) {
    inputs.push_back(random_matrix(mix.small_n1, mix.small_n2,
                                   7200 + static_cast<std::uint64_t>(j)));
  }
  return inputs;
}

core::SyrkRequest straggler_request(const StragglerMix& mix,
                                    const std::vector<Matrix>& inputs,
                                    std::size_t j) {
  if (j == 0) {
    // The straggler: pipelined 3D, its all-gather phase chunked through
    // the segmented nonblocking path.
    return core::SyrkRequest(inputs[0]).use_3d(2, 2).with_pipeline(4);
  }
  return core::SyrkRequest(inputs[j]).use_1d(2);
}

ServiceRun run_straggler_mix(const StragglerMix& mix,
                             const std::vector<Matrix>& inputs) {
  service::SyrkService svc(service_options(mix.procs));
  ServiceRun out;
  const auto t0 = Clock::now();
  std::vector<service::SyrkTicket> tickets;
  tickets.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    tickets.push_back(svc.submit(straggler_request(mix, inputs, j)));
  }
  out.results.reserve(tickets.size());
  for (auto& t : tickets) out.results.push_back(t.wait());
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.stats = svc.stats();
  return out;
}

int run_bench(int jobs, int procs, const std::string& out_path, bool smoke,
              double factor, double straggler_factor) {
  const auto shapes = workload_shapes();
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    const Shape& s = shapes[static_cast<std::size_t>(j) % shapes.size()];
    inputs.push_back(
        random_matrix(s.n1, s.n2, 900 + static_cast<std::uint64_t>(j)));
  }

  // Warm the shared pool once so no timed run pays thread creation.
  run_service(shapes, inputs, procs);

  // Best-of-3: the workload is dispatch-dominated, so a single
  // descheduling blip would otherwise dominate the ratio.
  ServiceRun batched;
  double best_batched = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    auto b = run_service(shapes, inputs, procs);
    if (b.seconds < best_batched) {
      best_batched = b.seconds;
      batched = std::move(b);
    }
  }
  const SerialRun serial = serial_loop(
      procs, inputs.size(), [&](std::size_t j) {
        return core::SyrkRequest(inputs[j]).on_procs(
            shapes[j % shapes.size()].cap);
      });
  const int eq_failures = equivalence_failures(batched, serial.refs);

  // Straggler mix: streaming makespan vs the serial loop, best-of-3 each.
  const StragglerMix mix;
  const auto mix_inputs = straggler_inputs(mix);
  run_straggler_mix(mix, mix_inputs);  // warm
  ServiceRun mix_stream;
  double best_stream = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    auto s = run_straggler_mix(mix, mix_inputs);
    if (s.seconds < best_stream) {
      best_stream = s.seconds;
      mix_stream = std::move(s);
    }
  }
  const SerialRun mix_serial =
      serial_loop(mix.procs, mix_inputs.size(), [&](std::size_t j) {
        return straggler_request(mix, mix_inputs, j);
      });
  const double mix_speedup = mix_serial.seconds / mix_stream.seconds;
  const int mix_eq_failures =
      equivalence_failures(mix_stream, mix_serial.refs);

  const double n = static_cast<double>(jobs);
  const double rps_serial = n / serial.seconds;
  const double rps_batched = n / batched.seconds;
  const double speedup = serial.seconds / batched.seconds;
  // Timed on the workload's largest rank cap — the widest candidate
  // lattice, i.e. the most representative enumeration cost a hit skips.
  const auto cache_timing = measure_cache_timing(shapes[3]);

  std::vector<double> modeled;
  modeled.reserve(batched.results.size());
  for (const auto& r : batched.results) {
    modeled.push_back(r.latency.modeled_seconds);
  }

  std::cout << "service throughput (" << jobs << " requests, " << procs
            << "-rank service):\n"
            << "  serial loop: " << serial.seconds * 1e3 << " ms ("
            << rps_serial << " req/s)\n"
            << "  service:     " << batched.seconds * 1e3 << " ms ("
            << rps_batched << " req/s, " << batched.stats.dispatches
            << " dispatches, " << batched.stats.interleaved_jobs
            << " interleaved)\n"
            << "  speedup:     " << speedup << "x\n"
            << "  plan cache: " << batched.stats.plan_cache.hits << " hits, "
            << batched.stats.plan_cache.misses
            << " misses (enumerator runs) for " << shapes.size()
            << " distinct shapes\n"
            << "  cache-hit resolve " << cache_timing.hit_us
            << " us vs enumeration " << cache_timing.enumerate_us << " us\n"
            << "  batched-vs-solo equivalence failures: " << eq_failures
            << "\n"
            << "straggler mix (1 pipelined 3D straggler + " << mix.smalls
            << " small 1D jobs, " << mix.procs << "-rank service):\n"
            << "  serial loop:   " << mix_serial.seconds * 1e3 << " ms\n"
            << "  streaming:     " << mix_stream.seconds * 1e3 << " ms ("
            << mix_stream.stats.interleaved_jobs << " interleaved jobs, gap "
            << mix_stream.stats.scheduler_gap_seconds * 1e3 << " rank-ms)\n"
            << "  speedup:       " << mix_speedup << "x\n"
            << "  streamed-vs-solo equivalence failures: " << mix_eq_failures
            << "\n";

  bool ok = eq_failures == 0 && mix_eq_failures == 0;
  // The cache must have enumerated once per distinct shape, no more.
  if (batched.stats.plan_cache.misses != shapes.size()) {
    std::cerr << "FAIL: expected " << shapes.size()
              << " enumerator runs (one per distinct shape), measured "
              << batched.stats.plan_cache.misses << "\n";
    ok = false;
  }
  if (cache_timing.hit_us >= cache_timing.enumerate_us) {
    std::cerr << "FAIL: cache hit (" << cache_timing.hit_us
              << " us) not cheaper than enumeration ("
              << cache_timing.enumerate_us << " us)\n";
    ok = false;
  }
  if (smoke) {
    if (speedup < factor) {
      std::cerr << "FAIL: service speedup over the serial loop " << speedup
                << "x < " << factor << "x\n";
      ok = false;
    }
    if (mix_speedup < straggler_factor) {
      std::cerr << "FAIL: straggler-mix speedup over the serial loop "
                << mix_speedup << "x < " << straggler_factor << "x\n";
      ok = false;
    }
    std::cout << (ok ? "OK\n" : "") << std::flush;
    return ok ? 0 : 1;
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"workload\": {\"requests\": " << jobs
     << ", \"distinct_shapes\": " << shapes.size()
     << ", \"service_ranks\": " << procs << "},\n";
  os << "  \"serial_loop\": {\"seconds\": " << serial.seconds
     << ", \"requests_per_sec\": " << rps_serial << "},\n";
  os << "  \"batched\": {\"seconds\": " << batched.seconds
     << ", \"requests_per_sec\": " << rps_batched
     << ", \"dispatches\": " << batched.stats.dispatches
     << ", \"interleaved_jobs\": " << batched.stats.interleaved_jobs
     << ", \"batched_jobs\": " << batched.stats.batched_jobs << "},\n";
  os << "  \"speedup\": " << speedup << ",\n";
  os << "  \"latency_seconds\": {\"modeled_p50\": "
     << percentile(modeled, 0.50)
     << ", \"modeled_p99\": " << percentile(modeled, 0.99)
     << ", \"batched_total_p50\": " << percentile(totals(batched), 0.50)
     << ", \"batched_total_p99\": " << percentile(totals(batched), 0.99)
     << "},\n";
  os << "  \"plan_cache\": {\"hits\": " << batched.stats.plan_cache.hits
     << ", \"misses\": " << batched.stats.plan_cache.misses
     << ", \"hit_resolve_us\": " << cache_timing.hit_us
     << ", \"enumerate_us\": " << cache_timing.enumerate_us << "},\n";
  os << "  \"batched_vs_solo_equivalence_failures\": " << eq_failures
     << ",\n";
  os << "  \"straggler_mix\": {\"smalls\": " << mix.smalls
     << ", \"service_ranks\": " << mix.procs
     << ", \"serial_loop_seconds\": " << mix_serial.seconds
     << ", \"streaming_seconds\": " << mix_stream.seconds
     << ", \"streaming_dispatches\": " << mix_stream.stats.dispatches
     << ", \"interleaved_jobs\": " << mix_stream.stats.interleaved_jobs
     << ", \"scheduler_gap_seconds\": "
     << mix_stream.stats.scheduler_gap_seconds
     << ", \"speedup\": " << mix_speedup
     << ", \"streamed_vs_solo_equivalence_failures\": " << mix_eq_failures
     << "}\n";
  os << "}\n";

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream f(out_path);
    f << os.str();
    if (!f) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  int jobs = 48;
  int procs = 12;
  bool smoke = false;
  double factor = 1.3;
  double straggler_factor = 4.2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg == "--procs" && i + 1 < argc) {
      procs = std::atoi(argv[++i]);
    } else if (arg == "--factor" && i + 1 < argc) {
      factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--straggler-factor" && i + 1 < argc) {
      straggler_factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: service_throughput [--out FILE] [--jobs N] "
                   "[--procs P] [--smoke [--factor F] "
                   "[--straggler-factor G]]\n";
      return 2;
    }
  }
  return run_bench(jobs, procs, out, smoke, factor, straggler_factor);
}
