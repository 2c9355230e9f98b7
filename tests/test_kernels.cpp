// Packed micro-kernel engine tests: every engine kernel against its naive
// oracle over adversarial shapes (empty, single row, one lane short of /
// past a micro-tile, non-tile-multiples, strided views), strict-upper
// preservation for the triangular kernels, every compiled-in micro-kernel
// against a naive tile, and the arena reuse guarantees the worker pool
// relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "matrix/arena.hpp"
#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "matrix/random.hpp"
#include "matrix/ukernel.hpp"
#include "simmpi/worker_pool.hpp"

namespace parsyrk {
namespace kern {
// Names parametrised test cases by kernel instead of by pointer bytes.
void PrintTo(const Ukernel& uk, std::ostream* os) { *os << uk.name; }
}  // namespace kern

namespace {

using kern::kMR;
using kern::kNR;

constexpr double kTol = 1e-11;

// Shapes around every blocking boundary: micro-tile (8), kMC (512) is too
// slow to sweep, but kKC boundaries are covered by the k values.
const std::vector<std::size_t> kEdgeDims = {0, 1, kMR - 1, kMR, kMR + 1,
                                            17, 64, 100};
const std::vector<std::size_t> kEdgeK = {0, 1, kMR - 1, kMR + 1, 40, 257};

/// Sentinel matrix whose strict upper triangle must survive a lower-only
/// kernel untouched.
Matrix upper_sentinel(std::size_t n) {
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) c(i, j) = 1e100 + double(i * n + j);
  }
  return c;
}

void expect_upper_untouched(const Matrix& c) {
  const std::size_t n = c.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_DOUBLE_EQ(c(i, j), 1e100 + double(i * n + j))
          << "strict upper (" << i << "," << j << ") was written";
    }
  }
}

TEST(PackedGemmNt, MatchesNaiveOnEdgeShapes) {
  for (std::size_t m : kEdgeDims) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, kMR - 1, kMR + 1,
                          std::size_t{33}}) {
      for (std::size_t k : kEdgeK) {
        Matrix a = random_matrix(m, k, 1000 + m + n + k);
        Matrix b = random_matrix(n, k, 2000 + m + n + k);
        Matrix got(m, n), want(m, n);
        gemm_nt(a.view(), b.view(), got.view());
        gemm_nt_naive(a.view(), b.view(), want.view());
        ASSERT_LT(max_abs_diff(got.view(), want.view()), kTol)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(PackedGemmNt, AccumulatesIntoExistingC) {
  Matrix a = random_matrix(20, 13, 7);
  Matrix b = random_matrix(11, 13, 8);
  Matrix got = random_matrix(20, 11, 9);
  Matrix want = got;  // logical copy
  gemm_nt(a.view(), b.view(), got.view());
  gemm_nt_naive(a.view(), b.view(), want.view());
  EXPECT_LT(max_abs_diff(got.view(), want.view()), kTol);
}

TEST(PackedGemmNt, WorksOnStridedBlockViews) {
  // Operand and result views carved out of larger matrices: ld > cols on
  // every operand.
  Matrix big_a = random_matrix(40, 50, 11);
  Matrix big_b = random_matrix(30, 50, 12);
  Matrix big_c(45, 45), big_c_want(45, 45);
  auto a = big_a.view().block(3, 5, 21, 19);
  auto b = big_b.view().block(2, 5, 10, 19);
  gemm_nt(a, b, big_c.block(1, 2, 21, 10));
  gemm_nt_naive(a, b, big_c_want.block(1, 2, 21, 10));
  EXPECT_LT(max_abs_diff(big_c.view(), big_c_want.view()), kTol);
}

TEST(PackedSyrkLower, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t k : kEdgeK) {
      Matrix a = random_matrix(n, k, 3000 + n + k);
      Matrix got(n, n), want(n, n);
      syrk_lower(a.view(), got.view());
      syrk_lower_naive(a.view(), want.view());
      ASSERT_LT(max_abs_diff_lower(got.view(), want.view()), kTol)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PackedSyrkLower, PreservesStrictUpperTriangle) {
  for (std::size_t n : {kMR - 1, kMR + 1, std::size_t{65}}) {
    Matrix a = random_matrix(n, 33, 41);
    Matrix c = upper_sentinel(n);
    syrk_lower(a.view(), c.view());
    expect_upper_untouched(c);
  }
}

TEST(PackedSyr2kLower, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t k : kEdgeK) {
      Matrix a = random_matrix(n, k, 4000 + n + k);
      Matrix b = random_matrix(n, k, 5000 + n + k);
      Matrix got(n, n), want(n, n);
      syr2k_lower(a.view(), b.view(), got.view());
      syr2k_lower_naive(a.view(), b.view(), want.view());
      ASSERT_LT(max_abs_diff_lower(got.view(), want.view()), kTol)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PackedSyr2kLower, PreservesStrictUpperTriangle) {
  Matrix a = random_matrix(43, 19, 42);
  Matrix b = random_matrix(43, 19, 43);
  Matrix c = upper_sentinel(43);
  syr2k_lower(a.view(), b.view(), c.view());
  expect_upper_untouched(c);
}

TEST(PackedSymmLowerLeft, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t m : {std::size_t{0}, std::size_t{1}, kNR - 1, kNR + 1,
                          std::size_t{29}}) {
      Matrix s = random_matrix(n, n, 6000 + n + m);
      Matrix b = random_matrix(n, m, 7000 + n + m);
      Matrix got(n, m), want(n, m);
      symm_lower_left(s.view(), b.view(), got.view());
      symm_lower_left_naive(s.view(), b.view(), want.view());
      ASSERT_LT(max_abs_diff(got.view(), want.view()), kTol)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(PackedSymmLowerLeft, NeverReadsStrictUpperOfS) {
  // Poison the strict upper triangle: the result must be unaffected because
  // pack_rows_symm reflects across the diagonal instead of reading it.
  const std::size_t n = 37, m = 21;
  Matrix s = random_matrix(n, n, 51);
  Matrix poisoned = s;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) poisoned(i, j) = 1e300;
  }
  Matrix b = random_matrix(n, m, 52);
  Matrix got(n, m), want(n, m);
  symm_lower_left(poisoned.view(), b.view(), got.view());
  symm_lower_left_naive(s.view(), b.view(), want.view());
  EXPECT_LT(max_abs_diff(got.view(), want.view()), kTol);
}

/// Naive reference for one micro-tile: acc0 + Apanel · Bpanelᵀ, plus the
/// magnitude sum |acc0| + Σ|a·b| per entry that scales the rounding bound.
void naive_tile(std::size_t kc, const std::vector<double>& a,
                const std::vector<double>& b, const double* acc0,
                double* want, double* scale) {
  for (std::size_t i = 0; i < kMR; ++i) {
    for (std::size_t j = 0; j < kNR; ++j) {
      double sum = acc0[i * kNR + j];
      double mag = std::abs(sum);
      for (std::size_t k = 0; k < kc; ++k) {
        sum += a[k * kMR + i] * b[k * kNR + j];
        mag += std::abs(a[k * kMR + i] * b[k * kNR + j]);
      }
      want[i * kNR + j] = sum;
      scale[i * kNR + j] = mag;
    }
  }
}

std::vector<double> random_panel(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

// Every kernel compiled in and executable here, not only the active one:
// the engine only ever calls the front of the list, so the others would
// otherwise go untested on a wide host.
class EveryUkernel : public ::testing::TestWithParam<kern::Ukernel> {};

TEST_P(EveryUkernel, MatchesNaiveOnRandomPanels) {
  for (bool accumulate : {false, true}) {
    for (std::size_t kc : {0, 1, 7, 256, 300}) {
      const auto a = random_panel(kMR * kc, 99 + kc);
      const auto b = random_panel(kNR * kc, 199 + kc);
      // Non-zero starting tiles are what SYR2K's chained products see.
      std::vector<double> acc0(kMR * kNR, 0.0);
      if (accumulate) acc0 = random_panel(kMR * kNR, 7 + kc);
      alignas(kMatrixAlignment) double got[kMR * kNR];
      std::copy(acc0.begin(), acc0.end(), got);
      GetParam().fn(kc, a.data(), b.data(), got);
      double want[kMR * kNR], scale[kMR * kNR];
      naive_tile(kc, a, b, acc0.data(), want, scale);
      for (std::size_t e = 0; e < kMR * kNR; ++e) {
        ASSERT_LE(std::abs(got[e] - want[e]), 1e-12 * scale[e])
            << GetParam().name << " kc=" << kc << " accumulate=" << accumulate
            << " entry " << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Supported, EveryUkernel, ::testing::ValuesIn(kern::supported_ukernels()),
    [](const ::testing::TestParamInfo<kern::Ukernel>& info) {
      return std::string(info.param.name);
    });

TEST(Ukernel, GenericAgreesWithActive) {
  // On an ISA-dispatched host this cross-checks the intrinsic kernel against
  // the portable body; on a baseline host both sides are the same function.
  const std::size_t kc = 57;
  const auto a = random_panel(kMR * kc, 99);
  const auto b = random_panel(kNR * kc, 98);
  alignas(kMatrixAlignment) double got[kMR * kNR] = {};
  alignas(kMatrixAlignment) double ref[kMR * kNR] = {};
  kern::active_ukernel().fn(kc, a.data(), b.data(), got);
  kern::supported_ukernels().back().fn(kc, a.data(), b.data(), ref);
  for (std::size_t e = 0; e < kMR * kNR; ++e) {
    ASSERT_NEAR(got[e], ref[e], 1e-12) << "entry " << e;
  }
}

TEST(Ukernel, ActiveIsWidestSupported) {
  const auto list = kern::supported_ukernels();
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(&kern::active_ukernel(), &list.front());
  EXPECT_STREQ(list.back().name, "generic");
#if defined(__x86_64__) || defined(__i386__)
  // Guards the default build against silently falling back to generic.
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_STREQ(kern::active_ukernel().name, "avx512");
  }
#endif
}

TEST(PackBytes, CountsPanelTraffic) {
  kern::reset_pack_bytes();
  Matrix a = random_matrix(64, 64, 13);
  Matrix c(64, 64);
  syrk_lower(a.view(), c.view());
  // One 64-row panel packed once (symmetric reuse): 64*64 doubles.
  EXPECT_EQ(kern::pack_bytes(), 64u * 64u * sizeof(double));
  kern::reset_pack_bytes();
  Matrix b = random_matrix(64, 64, 14);
  syr2k_lower(a.view(), b.view(), c.view());
  // SYR2K packs both operands: twice the SYRK traffic.
  EXPECT_EQ(kern::pack_bytes(), 2u * 64u * 64u * sizeof(double));
}

TEST(KernelArena, WarmRepeatDoesNotReallocate) {
  kern::KernelArena arena;
  double* p1 = arena.buffer(kern::KernelArena::kSlotPackA, 1024);
  const auto grows_after_first = arena.grow_count();
  EXPECT_GE(grows_after_first, 1u);
  // Same-or-smaller requests are served from the existing buffer.
  double* p2 = arena.buffer(kern::KernelArena::kSlotPackA, 1024);
  double* p3 = arena.buffer(kern::KernelArena::kSlotPackA, 100);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, p3);
  EXPECT_EQ(arena.grow_count(), grows_after_first);
  // A bigger request grows once.
  arena.buffer(kern::KernelArena::kSlotPackA, 4096);
  EXPECT_EQ(arena.grow_count(), grows_after_first + 1);
  EXPECT_GE(arena.doubles_reserved(), 4096u);
}

TEST(KernelArena, BuffersAreAligned) {
  kern::KernelArena arena;
  for (int slot : {kern::KernelArena::kSlotPackA,
                   kern::KernelArena::kSlotPackB}) {
    double* p = arena.buffer(slot, 333);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kMatrixAlignment, 0u);
  }
}

TEST(KernelArena, PoolWorkersReuseArenasAcrossWarmJobs) {
  comm::WorkerPool pool;
  Matrix a = random_matrix(96, 96, 77);
  auto job = [&] {
    Matrix c(96, 96);
    syrk_lower(a.view(), c.view());
  };
  auto lease = pool.acquire(2);
  lease.dispatch(0, job);
  lease.dispatch(1, job);
  lease.wait();
  const auto grows_cold = pool.arena_grow_count();
  EXPECT_GE(grows_cold, 2u);  // each worker grew its pack slot once
  EXPECT_GT(pool.arena_doubles_reserved(), 0u);
  for (int round = 0; round < 3; ++round) {
    lease.dispatch(0, job);
    lease.dispatch(1, job);
    lease.wait();
  }
  // Warm same-shape jobs never touch the allocator.
  EXPECT_EQ(pool.arena_grow_count(), grows_cold);
}

}  // namespace
}  // namespace parsyrk
