// Shared declarations of the SYRK benchmark program (see NOTE.md).
//
// main.cpp parses the command line and prints the result; workloads.cpp
// turns a workload name and a seed into inputs, oracle results and a request
// stream; timed.cpp measures the end-to-end metrics with tracing off;
// replay.cpp is the traced run that times each layer through its public
// functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "matrix/matrix.hpp"

namespace syrkbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Ranks of every session and service the benchmark builds (this machine's
/// core count when the benchmark was defined).
inline constexpr int kProcs = 4;

// ---- statistics (stats.cpp) ----

/// Linearly interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Distance between the first and the third quartile.
double iqr(const std::vector<double>& v);

/// The highest percentile of the ladder p50, p75, p90 that leaves at least
/// ten of `n` samples beyond it (p50 below 40 samples).
double tail_percentile(std::size_t n);

// ---- result of one run ----

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Annotations printed beside the metrics: key -> JSON value.
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks beyond the per-request oracle (ticket completion order).
  bool protocol_ok = true;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json_value) {
    notes.emplace_back(std::move(key), std::move(json_value));
  }
};

// ---- workloads (workloads.cpp) ----

struct Input {
  parsyrk::Matrix a;
  parsyrk::Matrix ref;  // syrk_reference(a), the oracle
};

struct RequestSpec {
  std::uint32_t input = 0;
  std::uint32_t cap = 0;  // planner processor cap; 0 = the whole session
};

struct Workload {
  std::string name;
  bool service = false;  // driven through SyrkService, else core::syrk
  int window = 1;        // tickets a service client keeps in flight
  std::vector<Input> inputs;
  std::vector<RequestSpec> stream;  // request i is stream[i % size]

  const RequestSpec& spec(std::size_t i) const {
    return stream[i % stream.size()];
  }
  const Input& input(std::size_t i) const { return inputs[spec(i).input]; }
  parsyrk::core::SyrkRequest request(std::size_t i) const;
};

std::vector<std::string> workload_names();
/// Builds the named workload's inputs, oracles and request stream from
/// `seed`. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Whether `c` equals the input's oracle within rounding (NaN fails).
bool matches_reference(const parsyrk::Matrix& c, const Input& in);

/// Requests attempted and failed in a run. Every result goes through
/// check(); a request that threw goes through fail().
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double check_seconds = 0.0;  // time spent comparing with the oracle

  void check(const parsyrk::Matrix& c, const Input& in) {
    const auto t0 = Clock::now();
    ++attempted;
    if (!matches_reference(c, in)) ++failed;
    check_seconds += seconds_between(t0, Clock::now());
  }
  void fail() {
    ++attempted;
    ++failed;
  }
};

/// Useful multiply-adds n1²·n2/2 of one SYRK of `a`.
double useful_macs(const parsyrk::Matrix& a);

/// A request class: the input's shape and the processor cap.
using ClassKey = std::pair<std::uint64_t, std::uint32_t>;
ClassKey class_of(const Workload& w, std::size_t i);

/// Requests of the stream prefix that weights the request classes.
inline constexpr std::size_t kClassPrefix = 256;

/// One stream index per request class, with the number of times the class
/// occurs among the first kClassPrefix requests, in a fixed order.
std::vector<std::pair<std::size_t, double>> request_classes(const Workload& w);

/// Busiest-rank words over the Theorem 1 bound, per request class weighted
/// as in request_classes(); classes that run on one rank are left out. Each
/// class's figures come from its first completed request, so the ratio is a
/// count that repeats exactly for one seed however many requests complete.
class WordsRatio {
 public:
  explicit WordsRatio(const Workload& w) : w_(w) {}
  void add(std::size_t i, const parsyrk::core::SyrkRun& run);
  double value() const;

 private:
  struct Figures {
    double words = 0.0;
    double bound = 0.0;
    bool multi_rank = false;
  };
  const Workload& w_;
  std::map<ClassKey, Figures> classes_;
};

/// Peak resident set of the process (getrusage), in MB.
double peak_rss_mb();

// ---- the two kinds of run ----

/// End-to-end metrics with tracing off (timed.cpp).
void run_timed(const Workload& w, double seconds, Report& out);
/// Per-layer metrics from the traced replay (replay.cpp); spans are written
/// to `spans_path` when the run ends.
void run_traced(const Workload& w, double seconds,
                const std::string& spans_path, Report& out);

}  // namespace syrkbench
