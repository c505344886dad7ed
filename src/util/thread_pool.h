// Fixed worker pool with batch-and-barrier semantics.
//
// The sharded fleet runs every shard one lookahead window forward, then
// exchanges cross-shard relays, then repeats — a strict fork/join cadence
// with no task graph, no futures and no work stealing.  This pool is
// shaped to exactly that: run_batch(count, fn) invokes fn(0..count-1)
// across the pool and returns only when every index has finished, so
// the return *is* the barrier.  Workers persist across batches (a sweep
// crosses thousands of windows; spawning threads per window would dwarf
// the work).
//
// The calling thread works too: ThreadPool(N) starts N - 1 workers, and
// run_batch claims indices on the calling thread alongside them instead
// of blocking until they wake.  A batch therefore starts at once on the
// caller, and with short windows the futex wake-ups of the workers are
// no longer the floor under every barrier.  Nothing spins: an idle
// worker sleeps on a condition variable.
//
// Determinism contract: with `threads <= 1` no worker threads exist at
// all and run_batch executes the indices inline, in order, on the calling
// thread — the single-threaded differential path is the plain serial
// loop, not a one-worker pool with different interleaving.  With more
// threads, indices are claimed dynamically by the caller and the
// workers; anything fn touches must be index-local (the sharded fleet
// gives each shard its own simulator, origin and metrics precisely so
// this holds).
//
// Every claim and every completion is recorded under the pool mutex, and
// the caller's final wait for the workers happens under it too, which
// gives the caller a happens-before edge from every task body to
// run_batch's return — merged metrics can be read without further
// synchronisation, and TSan agrees.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace broadway {

/// A fixed-size pool of worker threads running indexed batches.
class ThreadPool {
 public:
  using IndexedTask = std::function<void(std::size_t)>;

  /// `threads` is the requested parallelism, the calling thread
  /// included: `threads - 1` workers start.  0 and 1 both mean "no
  /// worker threads": batches run inline on the calling thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads, the calling thread not included (0 when
  /// batches run inline).
  std::size_t size() const { return workers_.size(); }

  /// Number of tasks that can genuinely run at once (>= 1): the workers
  /// plus the calling thread.
  std::size_t parallelism() const { return workers_.size() + 1; }

  /// Invoke task(i) for every i in [0, count) and return once all have
  /// completed.  Indices are claimed dynamically by the calling thread
  /// and the workers; with no workers they run inline in ascending
  /// order.  The batch always drains fully; if any invocations threw,
  /// the exception from the *lowest* batch index is rethrown here
  /// (deterministic regardless of which thread observed its failure
  /// first) and the pool remains usable.
  /// Not reentrant — one batch at a time, from one thread.
  void run_batch(std::size_t count, const IndexedTask& task);

  /// As above, but with a per-index cost hint (arbitrary non-negative
  /// units; only the relative order matters).  Indices are claimed in
  /// descending-cost order — longest processing time first — so a skewed
  /// batch keeps the barrier tight instead of leaving the heaviest index
  /// for last.  Ties claim the lower index first.  `costs.size()` must
  /// equal `count`.  Inline mode ignores the hints and runs in ascending
  /// index order (the determinism contract: no workers means the plain
  /// serial loop).
  void run_batch(std::size_t count, const IndexedTask& task,
                 const std::vector<double>& costs);

 private:
  void worker_loop();
  void run_batch_pooled(std::size_t count, const IndexedTask& task);
  /// Claim and run indices of the current batch until none is left.
  /// Called with `lock` held; returns with it held.
  void work(std::unique_lock<std::mutex>& lock);
  void record_error(std::size_t index, std::exception_ptr error);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const IndexedTask* task_ = nullptr;  // valid only during a batch
  std::size_t batch_count_ = 0;
  std::size_t next_index_ = 0;
  std::size_t active_ = 0;  // workers (not the caller) inside the batch
  std::uint64_t generation_ = 0;
  // Claim schedule for the current batch: each claim takes
  // claim_order_[next_index_++].  Identity for unweighted batches,
  // descending-cost (LPT) for weighted ones.
  std::vector<std::size_t> claim_order_;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;  // batch index whose exception is held
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace broadway
