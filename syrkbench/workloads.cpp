#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "support/rng.hpp"

namespace syrkbench {

namespace {

using parsyrk::Matrix;

/// Requests in one pass of a stream; longer runs cycle through it.
constexpr std::size_t kStreamLength = 4096;

/// Direct workloads cycle through a small pool of same-shape inputs.
Workload direct(std::string name, std::size_t n1, std::size_t n2,
                std::size_t pool, parsyrk::Rng& rng) {
  Workload w;
  w.name = std::move(name);
  for (std::size_t i = 0; i < pool; ++i) {
    w.inputs.push_back({parsyrk::random_matrix(n1, n2, rng.next_u64()), {}});
    w.stream.push_back({static_cast<std::uint32_t>(i), 0});
  }
  return w;
}

/// One submitter's seeded stream of four small shapes under processor caps
/// 1–4.
///
/// There is no long straggler: a 512x256 cap-4 request every 40th took about
/// two thirds of the service's time, so the workload timed that one dense
/// 4-rank kernel (square_1d's layer) and its run-to-run spread, set by CPU
/// steal during those kernels, was 0.2 on the request rate and 0.3 on the
/// tail. Requests capped at 4 ranks can still plan onto the whole world.
Workload service_mix(parsyrk::Rng& rng) {
  static constexpr std::size_t kShapes[][2] = {
      {64, 64}, {48, 96}, {96, 48}, {32, 128}};
  constexpr std::uint32_t kPerShape = 4;
  Workload w;
  w.name = "service_mix";
  w.service = true;
  w.window = 8;
  for (const auto& shape : kShapes) {
    for (std::uint32_t j = 0; j < kPerShape; ++j) {
      w.inputs.push_back(
          {parsyrk::random_matrix(shape[0], shape[1], rng.next_u64()), {}});
    }
  }
  // Each block of 16 requests holds every (shape, cap) class once, in a
  // seeded order and on a seeded one of the shape's inputs, so every seed
  // sends the same mix and comm_words_ratio is one count for all seeds.
  constexpr auto kClasses =
      static_cast<std::uint32_t>(std::size(kShapes) * kProcs);
  std::vector<std::uint32_t> block(kClasses);
  while (w.stream.size() < kStreamLength) {
    for (std::uint32_t c = 0; c < kClasses; ++c) block[c] = c;
    for (std::uint32_t c = kClasses - 1; c > 0; --c) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, c));
      std::swap(block[c], block[k]);
    }
    for (const std::uint32_t c : block) {
      const std::uint32_t shape = c / kProcs;
      const auto j =
          static_cast<std::uint32_t>(rng.uniform_int(0, kPerShape - 1));
      w.stream.push_back({shape * kPerShape + j, c % kProcs + 1});
    }
  }
  return w;
}

}  // namespace

parsyrk::core::SyrkRequest Workload::request(std::size_t i) const {
  parsyrk::core::SyrkRequest req(input(i).a);
  if (spec(i).cap != 0) req.on_procs(spec(i).cap);
  return req;
}

std::vector<std::string> workload_names() {
  return {"small_1d", "square_1d", "tall_2d", "service_mix"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  parsyrk::Rng rng(seed);
  Workload w;
  if (name == "small_1d") {
    w = direct(name, 64, 64, 8, rng);
  } else if (name == "square_1d") {
    w = direct(name, 1024, 1024, 2, rng);
  } else if (name == "tall_2d") {
    w = direct(name, 4096, 64, 1, rng);
  } else if (name == "service_mix") {
    w = service_mix(rng);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (Input& in : w.inputs) in.ref = parsyrk::syrk_reference(in.a.view());
  return w;
}

bool matches_reference(const Matrix& c, const Input& in) {
  if (c.rows() != in.ref.rows() || c.cols() != in.ref.cols()) return false;
  // Summation order differs between the oracle and the parallel algorithms;
  // a wrong entry is off by O(1), rounding by far less than this.
  const double tol = 1e-9 * static_cast<double>(in.a.cols());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      if (!(std::abs(c(i, j) - in.ref(i, j)) <= tol)) return false;
    }
  }
  return true;
}

double useful_macs(const Matrix& a) {
  const auto n1 = static_cast<double>(a.rows());
  return n1 * n1 * static_cast<double>(a.cols()) / 2.0;
}

ClassKey class_of(const Workload& w, std::size_t i) {
  const Matrix& a = w.input(i).a;
  return {(static_cast<std::uint64_t>(a.rows()) << 32) | a.cols(),
          w.spec(i).cap};
}

std::vector<std::pair<std::size_t, double>> request_classes(const Workload& w) {
  std::map<ClassKey, std::pair<std::size_t, double>> classes;
  const std::size_t n = std::min(w.stream.size(), kClassPrefix);
  for (std::size_t i = 0; i < n; ++i) {
    classes.try_emplace(class_of(w, i), i, 0.0).first->second.second += 1.0;
  }
  std::vector<std::pair<std::size_t, double>> out;
  for (const auto& entry : classes) out.push_back(entry.second);
  return out;
}

void WordsRatio::add(std::size_t i, const parsyrk::core::SyrkRun& run) {
  auto [it, fresh] = classes_.try_emplace(class_of(w_, i));
  if (!fresh) return;
  it->second = {static_cast<double>(run.total.critical_path_words()),
                run.bound.communicated, run.plan.procs > 1};
}

double WordsRatio::value() const {
  double words = 0.0;
  double bound = 0.0;
  for (const auto& [index, weight] : request_classes(w_)) {
    const auto it = classes_.find(class_of(w_, index));
    if (it == classes_.end() || !it->second.multi_rank) continue;
    words += weight * it->second.words;
    bound += weight * it->second.bound;
  }
  return bound > 0 ? words / bound : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace syrkbench
