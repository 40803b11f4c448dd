// Fixed-size worker pool used by the parallel executor (§4.2).
//
// The executor's query phase runs batches of independent units (one per
// worker, each taking every T-th morsel) through ParallelFor and waits for
// each whole batch; there is no cross-task synchronization because the
// query and effect phases are read-only over state (the paper's core
// parallelism argument).
//
// ParallelFor is allocation-free: the callable is broadcast to the resident
// workers by pointer (a generation counter wakes them), so the per-tick
// fan-out costs no std::function boxing and no queue nodes.

#ifndef SGL_COMMON_THREAD_POOL_H_
#define SGL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sgl {

/// A simple fixed-size thread pool with a blocking batch-wait primitive.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is pre-partitioned: task i is a fixed unit, so the decomposition
  /// (and therefore any order-keyed merge) is independent of thread count.
  /// The callable is invoked by reference — nothing is copied or boxed.
  /// At most one ParallelFor may be in flight per pool (the broadcast state
  /// is shared); overlapping calls are a checked error.
  template <typename Fn>
  void ParallelFor(int n, Fn&& fn) {
    using Decayed =
        std::remove_const_t<std::remove_reference_t<Fn>>;
    ParallelForImpl(n, &Invoke<Decayed>,
                    const_cast<Decayed*>(std::addressof(fn)));
  }

 private:
  template <typename Fn>
  static void Invoke(void* ctx, int i) {
    (*static_cast<Fn*>(ctx))(i);
  }

  void ParallelForImpl(int n, void (*invoke)(void*, int), void* ctx);
  /// Claims and runs parallel-for indices until the range is exhausted,
  /// then deregisters as a sharer (last one out signals completion).
  void RunParallelShare(void (*invoke)(void*, int), void* ctx, int n);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers
  std::condition_variable idle_cv_;   // signals ParallelFor's caller
  bool stop_ = false;

  // Broadcast state for the current ParallelFor. pf_gen_/pf_invoke_/
  // pf_ctx_/pf_n_/pf_sharers_ are guarded by mu_; the counters are atomic.
  uint64_t pf_gen_ = 0;  // bumped per call; wakes workers
  void (*pf_invoke_)(void*, int) = nullptr;
  void* pf_ctx_ = nullptr;
  int pf_n_ = 0;
  int pf_sharers_ = 0;              // participants inside the share
  std::atomic<int> pf_next_{0};     // next unclaimed index
  std::atomic<int> pf_pending_{0};  // indices not yet completed
};

}  // namespace sgl

#endif  // SGL_COMMON_THREAD_POOL_H_
