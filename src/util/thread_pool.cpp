#include "util/thread_pool.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace broadway {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode: no workers at all
  // The calling thread is the last of the `threads`: it works every
  // batch it submits.
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::record_error(std::size_t index, std::exception_ptr error) {
  // Keep the exception from the lowest batch index, not from whichever
  // worker happened to fail first — callers see the same failure no
  // matter how the claims interleaved.
  if (error_ == nullptr || index < error_index_) {
    error_ = error;
    error_index_ = index;
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    ++active_;
    work(lock);
    --active_;
    if (active_ == 0 && next_index_ >= batch_count_) {
      batch_done_.notify_all();
    }
  }
}

void ThreadPool::work(std::unique_lock<std::mutex>& lock) {
  while (next_index_ < batch_count_) {
    const std::size_t index = claim_order_[next_index_++];
    const IndexedTask* task = task_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*task)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr) record_error(index, error);
  }
}

void ThreadPool::run_batch(std::size_t count, const IndexedTask& task) {
  BROADWAY_CHECK(task != nullptr);
  if (count == 0) return;
  if (workers_.empty()) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        // Drain the batch even on failure (matching the worker path) and
        // surface the lowest-index exception — here that is simply the
        // first one, since indices run in order.
        if (error == nullptr) error = std::current_exception();
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  claim_order_.resize(count);
  std::iota(claim_order_.begin(), claim_order_.end(), std::size_t{0});
  run_batch_pooled(count, task);
}

void ThreadPool::run_batch(std::size_t count, const IndexedTask& task,
                           const std::vector<double>& costs) {
  BROADWAY_CHECK(task != nullptr);
  BROADWAY_CHECK_MSG(costs.size() == count,
                     "cost hints (" << costs.size()
                                    << ") must match batch count (" << count
                                    << ")");
  if (count == 0) return;
  if (workers_.empty()) {
    // Inline mode ignores the hints: the determinism contract is the
    // plain ascending serial loop.
    run_batch(count, task);
    return;
  }
  claim_order_.resize(count);
  std::iota(claim_order_.begin(), claim_order_.end(), std::size_t{0});
  std::stable_sort(claim_order_.begin(), claim_order_.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  run_batch_pooled(count, task);
}

void ThreadPool::run_batch_pooled(std::size_t count,
                                  const IndexedTask& task) {
  std::unique_lock<std::mutex> lock(mutex_);
  BROADWAY_CHECK_MSG(task_ == nullptr, "run_batch is not reentrant");
  task_ = &task;
  batch_count_ = count;
  next_index_ = 0;
  error_ = nullptr;
  error_index_ = 0;
  ++generation_;
  work_ready_.notify_all();
  // Work the batch here too, then wait only for the workers' last claims.
  work(lock);
  batch_done_.wait(lock, [&] { return active_ == 0; });
  task_ = nullptr;
  batch_count_ = 0;
  next_index_ = 0;
  std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace broadway
