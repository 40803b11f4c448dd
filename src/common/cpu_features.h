// Runtime CPU-feature detection and kernel-dispatch selection for the
// explicit-SIMD kernel layer (src/vm/kernels.h).
//
// The engine ships two implementations of every hot fold loop — portable
// scalar and AVX2 intrinsics — built into the same binary (the AVX2 bodies
// carry per-function target attributes, so no global -mavx2 is needed and
// the binary still runs on pre-AVX2 machines). Which table executes is a
// process-wide runtime decision:
//
//   1. SetKernelDispatch() override, if a test/tool installed one;
//   2. else SGL_FORCE_SCALAR=1 in the environment pins scalar;
//   3. else AVX2 when the CPU reports it, scalar otherwise.
//
// Both tables are bit-identical per lane (see src/vm/README.md), so the
// dispatch choice can never change world checksums — only tick time.

#ifndef SGL_COMMON_CPU_FEATURES_H_
#define SGL_COMMON_CPU_FEATURES_H_

#include <cstdint>

// Whether the AVX2 kernel table is compiled into this binary at all
// (x86-64 with a GCC-compatible compiler). Selection still happens at run
// time; on other targets only the scalar table exists.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SGL_KERNELS_AVX2 1
#else
#define SGL_KERNELS_AVX2 0
#endif

namespace sgl {

/// Which kernel table executes the VM fold loops and index range filters.
enum class KernelDispatch : uint8_t { kScalar, kAvx2 };

const char* KernelDispatchName(KernelDispatch d);

/// True when the running CPU supports AVX2 (false on non-x86 builds).
bool CpuHasAvx2();

/// The dispatch currently in effect (override > env > CPU detection).
KernelDispatch ActiveKernelDispatch();

/// Installs a process-wide dispatch override (test sweeps / tools). Asking
/// for kAvx2 on a CPU without it silently stays scalar, so a sweep written
/// for an AVX2 box degrades instead of faulting elsewhere.
void SetKernelDispatch(KernelDispatch d);

/// Drops the override; ActiveKernelDispatch() returns to env/CPU selection.
void ResetKernelDispatch();

}  // namespace sgl

#endif  // SGL_COMMON_CPU_FEATURES_H_
