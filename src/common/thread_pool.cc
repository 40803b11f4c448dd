#include "src/common/thread_pool.h"

#include "src/common/types.h"

namespace sgl {

ThreadPool::ThreadPool(int num_threads) {
  SGL_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunParallelShare(void (*invoke)(void*, int), void* ctx,
                                  int n) {
  for (int i = pf_next_.fetch_add(1); i < n; i = pf_next_.fetch_add(1)) {
    invoke(ctx, i);
    pf_pending_.fetch_sub(1);
  }
  std::unique_lock<std::mutex> lock(mu_);
  --pf_sharers_;
  if (pf_sharers_ == 0 && pf_pending_.load() == 0) idle_cv_.notify_all();
}

void ThreadPool::ParallelForImpl(int n, void (*invoke)(void*, int),
                                 void* ctx) {
  if (n <= 0) return;
  if (n == 1 || num_threads() == 1) {
    for (int i = 0; i < n; ++i) invoke(ctx, i);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Single-flight: the broadcast state is shared, so a second concurrent
    // ParallelFor would corrupt the one in progress.
    SGL_CHECK(pf_sharers_ == 0 && pf_pending_.load() == 0);
    pf_invoke_ = invoke;
    pf_ctx_ = ctx;
    pf_n_ = n;
    pf_next_.store(0, std::memory_order_relaxed);
    pf_pending_.store(n, std::memory_order_relaxed);
    pf_sharers_ = 1;  // the caller participates too
    ++pf_gen_;
  }
  work_cv_.notify_all();
  RunParallelShare(invoke, ctx, n);
  // Completion requires both every index done AND every participant out of
  // the share — a straggler holding last tick's snapshot can then never
  // claim indices of a future call.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return pf_sharers_ == 0 && pf_pending_.load() == 0;
  });
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_gen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return stop_ || pf_gen_ != seen_gen; });
    if (stop_) return;
    seen_gen = pf_gen_;
    if (pf_pending_.load() > 0) {
      // Snapshot the call under the lock; registration as a sharer keeps
      // the snapshot valid until we exit the share.
      ++pf_sharers_;
      auto invoke = pf_invoke_;
      void* ctx = pf_ctx_;
      int n = pf_n_;
      lock.unlock();
      RunParallelShare(invoke, ctx, n);
    }
  }
}

}  // namespace sgl
