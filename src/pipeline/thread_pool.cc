#include "pipeline/thread_pool.h"

#include <algorithm>

namespace k2::pipeline {

namespace {
// Maps worker threads back to their index; -1 everywhere else. One slot per
// thread is enough because a thread belongs to at most one pool.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_index = -1;
}  // namespace

ThreadPool::ThreadPool(int nthreads) {
  int n = std::max(1, nthreads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i]() { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);  // same race as enqueue
    stop_.store(true);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::worker_index() const {
  return tl_pool == this ? tl_index : -1;
}

void ThreadPool::enqueue(std::function<void()> fn) {
  int self = worker_index();
  size_t target = self >= 0 ? size_t(self)
                            : rr_.fetch_add(1, std::memory_order_relaxed) %
                                  queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->q.push_back(std::move(fn));
  }
  {
    // Bump under the CV mutex: a worker between its predicate check and its
    // sleep must not miss this task's notification.
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_get_task(int self, std::function<void()>& out) {
  // Own queue first, newest task (LIFO: cache-warm, bounded memory).
  if (self >= 0) {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.q.empty()) {
      out = std::move(own.q.back());
      own.q.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal the oldest task from a victim (FIFO: takes the work its owner is
  // farthest from touching).
  size_t n = queues_.size();
  size_t start = self >= 0 ? size_t(self) : 0;
  for (size_t k = 1; k <= n; ++k) {
    Queue& victim = *queues_[(start + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.q.empty()) {
      out = std::move(victim.q.front());
      victim.q.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(int index) {
  tl_pool = this;
  tl_index = index;
  std::function<void()> task;
  while (true) {
    if (try_get_task(index, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this]() {
      return stop_.load() || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load() && pending_.load(std::memory_order_acquire) == 0) break;
  }
  tl_pool = nullptr;
  tl_index = -1;
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  if (!try_get_task(worker_index(), task)) return false;
  task();
  return true;
}

void ThreadPool::run_all(std::vector<std::function<void()>> fns) {
  std::vector<std::future<void>> futs;
  futs.reserve(fns.size());
  for (auto& fn : fns) futs.push_back(submit(std::move(fn)));
  // All futures are waited before any result is consumed, so a task
  // exception propagates only once every sibling has finished touching
  // shared state.
  for (auto& f : futs) wait(f);
  for (auto& f : futs) f.get();
}

}  // namespace k2::pipeline
