// Monotonic wall-clock timing helpers used by the executor's per-phase
// statistics and by the benchmark harnesses.

#ifndef SGL_COMMON_STOPWATCH_H_
#define SGL_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace sgl {

/// Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Microseconds since construction or last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sgl

#endif  // SGL_COMMON_STOPWATCH_H_
