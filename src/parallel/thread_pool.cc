#include "src/parallel/thread_pool.h"

#include <cstdlib>
#include <string>

#include "src/parallel/numa.h"

namespace connectit {

namespace {

thread_local bool t_in_worker = false;

size_t DefaultWorkers() {
  if (const char* env = std::getenv("CONNECTIT_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool& ThreadPool::Get() {
  // Intentionally leaked: workers must outlive all static destructors.
  static ThreadPool* pool = new ThreadPool(DefaultWorkers());
  return *pool;
}

bool ThreadPool::InWorker() { return t_in_worker; }

ThreadPool::ThreadPool(size_t num_workers)
    : num_workers_(num_workers == 0 ? 1 : num_workers) {
  StartThreads();
}

ThreadPool::~ThreadPool() { StopThreads(); }

void ThreadPool::StartThreads() {
  // Capture the topology once per thread generation: NodeOf stays stable
  // for the lifetime of these workers even if the topology is overridden
  // later (Rebind restarts the threads against the new one).
  bound_nodes_ = NumaTopology::Get().num_nodes();
  // Worker 0 is the caller of RunOnWorkers; spawn num_workers_ - 1 threads.
  for (size_t i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] {
      if (bound_nodes_ > 1) {
        NumaTopology::Get().BindCurrentThread(NodeOf(i));
      }
      WorkerLoop(i);
    });
  }
}

size_t ThreadPool::NodeOf(size_t worker) const {
  if (bound_nodes_ <= 1 || num_workers_ == 0) return 0;
  return worker * bound_nodes_ / num_workers_;
}

void ThreadPool::Rebind() {
  StopThreads();
  StartThreads();
}

void ThreadPool::StopThreads() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  shutdown_ = false;
}

void ThreadPool::Resize(size_t num_workers) {
  if (num_workers == 0) num_workers = DefaultWorkers();
  if (num_workers == num_workers_) return;
  StopThreads();
  num_workers_ = num_workers;
  StartThreads();
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  t_in_worker = true;
  size_t seen_epoch = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_epoch_ != seen_epoch &&
                             worker_id < job_tasks_);
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    (*job)(worker_id);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--job_pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunOnWorkers(size_t num_tasks,
                              const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  if (num_tasks > num_workers_) num_tasks = num_workers_;
  if (num_tasks == 1 || t_in_worker) {
    fn(0);
    return;
  }
  // One job at a time: a second outside caller waits here until the first
  // job has drained, instead of overwriting job_ and job_pending_ under it.
  std::lock_guard<std::mutex> outside(outside_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &fn;
    ++job_epoch_;
    job_tasks_ = num_tasks;
    job_pending_ = num_tasks - 1;  // caller runs task 0 itself
  }
  work_cv_.notify_all();
  t_in_worker = true;
  fn(0);
  t_in_worker = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job_pending_ == 0; });
    job_ = nullptr;
  }
}

size_t NumWorkers() { return ThreadPool::Get().num_workers(); }

void SetNumWorkers(size_t n) { ThreadPool::Get().Resize(n); }

}  // namespace connectit
