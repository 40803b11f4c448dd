#include "src/common/cpu_features.h"

#include <atomic>
#include <cstdlib>

namespace sgl {
namespace {

// -1 = no override installed; otherwise a KernelDispatch value.
std::atomic<int> g_dispatch_override{-1};

bool ForceScalarEnv() {
  const char* v = std::getenv("SGL_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

KernelDispatch DefaultDispatch() {
  // Env + cpuid never change mid-process; compute once.
  static const KernelDispatch d = (!ForceScalarEnv() && CpuHasAvx2())
                                      ? KernelDispatch::kAvx2
                                      : KernelDispatch::kScalar;
  return d;
}

}  // namespace

const char* KernelDispatchName(KernelDispatch d) {
  switch (d) {
    case KernelDispatch::kScalar:
      return "scalar";
    case KernelDispatch::kAvx2:
      return "avx2";
  }
  return "?";
}

bool CpuHasAvx2() {
#if SGL_KERNELS_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelDispatch ActiveKernelDispatch() {
  const int ov = g_dispatch_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<KernelDispatch>(ov);
  return DefaultDispatch();
}

void SetKernelDispatch(KernelDispatch d) {
  if (d == KernelDispatch::kAvx2 && !CpuHasAvx2()) d = KernelDispatch::kScalar;
  g_dispatch_override.store(static_cast<int>(d), std::memory_order_relaxed);
}

void ResetKernelDispatch() {
  g_dispatch_override.store(-1, std::memory_order_relaxed);
}

}  // namespace sgl
