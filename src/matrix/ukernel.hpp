// Register-blocked micro-kernel with runtime ISA dispatch.
//
// The local-kernel engine (kernels.cpp) tiles every dense kernel down to
// kMR x kNR accumulator tiles fed from packed panels (pack.hpp) and calls
// one micro-kernel in the innermost position. ukernel.cpp compiles up to
// three implementations of it into every build, each under its own
// per-function target attribute, so no translation unit needs -march flags:
//
//   * avx512  — 8 zmm accumulator rows, target("avx512f");
//   * avx2    — two 4x8 passes in ymm registers, target("avx2,fma");
//   * generic — the portable body under the baseline ISA.
//
// The intrinsic kernels exist on x86 only. Selection happens once per
// process from __builtin_cpu_supports: the widest kernel the running CPU
// can execute becomes active_ukernel(), so the same binary runs AVX-512 on
// an AVX-512 host and the generic body on a baseline x86-64 host.
#pragma once

#include <cstddef>
#include <span>

namespace parsyrk::kern {

/// Micro-tile rows. Equal to kNR so a symmetric pack (SYRK/SYR2K) serves as
/// both the left and the right operand panel.
inline constexpr std::size_t kMR = 8;
/// Micro-tile columns.
inline constexpr std::size_t kNR = 8;
/// k-dimension cache block (doubles): one kMR/kNR strip pair stays in L1.
inline constexpr std::size_t kKC = 256;
/// m-dimension cache block: the left-operand pack (kMC x kKC) stays in L2.
inline constexpr std::size_t kMC = 512;

/// C tile (kMR x kNR, row-major accumulator) += Apanel · Bpanelᵀ over kc
/// packed k-steps. Panels are packed strips (pack.hpp).
using MicroKernelFn = void (*)(std::size_t kc, const double* a,
                               const double* b, double* acc);

struct Ukernel {
  MicroKernelFn fn;
  const char* name;  // "avx512", "avx2" or "generic"
};

/// Every micro-kernel in this binary that the running CPU can execute,
/// widest first; "generic" is always present and always last.
std::span<const Ukernel> supported_ukernels();

/// The micro-kernel the engine uses: supported_ukernels().front().
const Ukernel& active_ukernel();

}  // namespace parsyrk::kern
