// A minimal work-sharing scheduler providing ParallelFor.
//
// The paper's experiments use a Cilk-like work-stealing scheduler. We
// provide a simpler fixed pool with dynamic chunk self-scheduling, which has
// the same semantics (unordered parallel iteration) and is adequate at
// laptop scale. The pool size defaults to std::thread::hardware_concurrency
// and can be overridden with the CONNECTIT_THREADS environment variable or
// SetNumWorkers().
//
// Nested ParallelFor calls from inside a worker run sequentially (the usual
// flattening rule for simple pools), which keeps the scheduler deadlock-free
// without continuation stealing.

#ifndef CONNECTIT_PARALLEL_THREAD_POOL_H_
#define CONNECTIT_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace connectit {

class ThreadPool {
 public:
  // Returns the process-wide pool, creating it on first use.
  static ThreadPool& Get();

  // Number of workers (including the calling thread when it participates).
  size_t num_workers() const { return num_workers_; }

  // Resizes the pool. Must not be called concurrently with parallel work.
  void Resize(size_t num_workers);

  // NUMA node assigned to `worker`: workers form contiguous groups, one per
  // topology node (worker * nodes / num_workers), and each spawned worker
  // best-effort binds its affinity to that node's cpus at thread start. On a
  // single-node topology every worker maps to node 0 and no binding happens.
  size_t NodeOf(size_t worker) const;

  // Number of topology nodes the current worker threads were bound against.
  size_t num_bound_nodes() const { return bound_nodes_; }

  // Restarts the worker threads so they re-read the NUMA topology and
  // re-bind (after NumaTopology::OverrideNodes). Must not be called
  // concurrently with parallel work.
  void Rebind();

  // Runs fn(worker_id) on `num_tasks` workers (including the caller) and
  // waits for all of them. fn must be safe to invoke concurrently. Threads
  // outside the pool may call this concurrently: their jobs run one after
  // another.
  void RunOnWorkers(size_t num_tasks, const std::function<void(size_t)>& fn);

  // True when the calling thread is one of the pool's workers.
  static bool InWorker();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(size_t num_workers);

  void WorkerLoop(size_t worker_id);
  void StartThreads();
  void StopThreads();

  size_t num_workers_ = 1;
  size_t bound_nodes_ = 1;  // topology node count captured at StartThreads
  std::vector<std::thread> threads_;

  std::mutex outside_mu_;  // held by an outside caller for its whole job
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_epoch_ = 0;
  size_t job_tasks_ = 0;
  size_t job_pending_ = 0;
  bool shutdown_ = false;
};

namespace internal {

// Shared state for one dynamically scheduled loop.
struct LoopState {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t grain = 1;
};

}  // namespace internal

// Returns the effective parallelism for parallel loops.
size_t NumWorkers();

// Overrides the pool size (e.g., for scaling experiments). A value of 0
// restores the default.
void SetNumWorkers(size_t n);

// Parallel loop over [begin, end). `fn(i)` is invoked exactly once per index,
// in unspecified order, possibly concurrently. `grain` is the chunk size for
// dynamic self-scheduling; pass a larger grain for very cheap bodies.
template <typename F>
void ParallelFor(size_t begin, size_t end, F&& fn, size_t grain = 0) {
  if (begin >= end) return;
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Get();
  const size_t workers = pool.num_workers();
  if (grain == 0) {
    // Default grain: ~8 chunks per worker, at least 1.
    grain = n / (workers * 8) + 1;
    if (grain < 1) grain = 1;
  }
  if (workers <= 1 || n <= grain || ThreadPool::InWorker()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  internal::LoopState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.grain = grain;
  std::function<void(size_t)> task = [&state, &fn](size_t /*worker*/) {
    for (;;) {
      const size_t lo =
          state.next.fetch_add(state.grain, std::memory_order_relaxed);
      if (lo >= state.end) break;
      const size_t hi = std::min(lo + state.grain, state.end);
      for (size_t i = lo; i < hi; ++i) fn(i);
    }
  };
  pool.RunOnWorkers(workers, task);
}

// Parallel loop over blocks: fn(block_begin, block_end) once per contiguous
// chunk. Useful when the body keeps per-chunk scratch state.
template <typename F>
void ParallelForBlocked(size_t begin, size_t end, F&& fn, size_t grain = 0) {
  if (begin >= end) return;
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Get();
  const size_t workers = pool.num_workers();
  if (grain == 0) grain = n / (workers * 8) + 1;
  if (workers <= 1 || n <= grain || ThreadPool::InWorker()) {
    fn(begin, end);
    return;
  }
  internal::LoopState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.grain = grain;
  std::function<void(size_t)> task = [&state, &fn](size_t /*worker*/) {
    for (;;) {
      const size_t lo =
          state.next.fetch_add(state.grain, std::memory_order_relaxed);
      if (lo >= state.end) break;
      const size_t hi = std::min(lo + state.grain, state.end);
      fn(lo, hi);
    }
  };
  pool.RunOnWorkers(workers, task);
}

}  // namespace connectit

#endif  // CONNECTIT_PARALLEL_THREAD_POOL_H_
