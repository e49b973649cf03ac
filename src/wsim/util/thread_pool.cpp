#include "wsim/util/thread_pool.hpp"

#include <algorithm>

namespace wsim::util {

int ThreadPool::resolve(int threads) noexcept {
  if (threads > 0) {
    return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads) : size_(resolve(threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int w = 1; w < size_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) {
      break;
    }
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.mu);
      if (job.error == nullptr || i < job.error_index) {
        job.error = std::current_exception();
        job.error_index = i;
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      std::lock_guard<std::mutex> lock(job.mu);
      job.finished.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      job = job_;
      if (job != nullptr) {
        // Counted under mu_ so the submitter's job_ = nullptr (also under
        // mu_) can never race with a worker acquiring the pointer: either
        // the worker is already counted in `holders`, or it sees null.
        job->holders.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (job != nullptr) {
      run_job(*job);
      // The Job lives on the submitter's stack and dies as soon as its
      // wait sees holders == 0. Releasing the hold under job->mu (which
      // that wait's predicate is checked under) means the submitter cannot
      // observe the release until this worker has unlocked — the last
      // access this worker ever makes to the Job.
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->holders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        job->finished.notify_all();
      }
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (size_ == 1 || n == 1) {
    // Inline fast path: no pool traffic, identical results by construction.
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Job job;
  job.body = &body;
  job.count = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_.notify_all();
  run_job(job);
  // Every index has been claimed (the caller's loop only exits once `next`
  // passed `count`), so late-waking workers have nothing to do; hide the
  // job from them and wait for completion plus pointer release.
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = nullptr;
  }
  {
    std::unique_lock<std::mutex> lock(job.mu);
    job.finished.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == job.count &&
             job.holders.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error != nullptr) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace wsim::util
