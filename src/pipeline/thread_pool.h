// Work-stealing thread pool shared by the search driver: Markov chains and
// final top-k re-verification are submitted as tasks instead of spawning raw
// std::threads per call site. Each worker owns a deque; it pushes and pops
// its own work LIFO (cache-warm) and steals FIFO from victims when empty, so
// uneven task lengths (chains with very different solver loads) keep all
// cores busy.
//
// This pool is for CPU-bound work only. Tasks that park their thread for
// long stretches (Z3 equivalence queries) belong on the dedicated
// verify::AsyncSolverDispatcher pool instead — a handful of hard solver
// calls here would starve every chain.
//
// Thread-safety: submit(), wait() and run_all() are safe from any thread,
// including pool workers (a worker's submission lands on its own deque; a
// waiting caller lends a hand draining the queue instead of sleeping, so
// nested use cannot deadlock). submit() never blocks on task execution;
// wait() and run_all() block until their futures are ready. Code that may
// run on a worker must wait through wait(), never a bare get()/wait() on a
// pool future: with every worker blocked, nothing runs the task. The
// destructor executes any still-queued tasks before joining, so submitted
// closures must stay valid until their future is ready or the pool is
// destroyed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace k2::pipeline {

class ThreadPool {
 public:
  // Spawns `nthreads` workers (clamped to >= 1).
  explicit ThreadPool(int nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return int(workers_.size()); }

  // Index of the calling pool worker in [0, size()), or -1 when called from
  // a thread outside this pool. Used to key per-worker state.
  int worker_index() const;

  // Schedules `fn` and returns a future for its result. Safe to call from
  // pool workers (the task goes on the caller's own deque).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  // Blocks until `fut` (a std::future or std::shared_future) is ready,
  // executing queued tasks meanwhile instead of just sleeping, so a 1-thread
  // pool still makes progress when the caller is its only worker. Does not
  // consume the result.
  template <typename Future>
  void wait(const Future& fut) {
    while (fut.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready)
      if (!run_one()) fut.wait_for(std::chrono::milliseconds(1));
  }

  // Runs all `fns` on the pool and blocks until every one finished, helping
  // as wait() does.
  void run_all(std::vector<std::function<void()>> fns);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  void enqueue(std::function<void()> fn);
  // Executes one queued task on the calling thread; false if none was queued.
  bool run_one();
  // Pops from own deque (back) or steals from a victim (front).
  bool try_get_task(int self, std::function<void()>& out);
  void worker_loop(int index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<int> pending_{0};  // queued but not yet started tasks
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> rr_{0};  // round-robin cursor for external submits
};

}  // namespace k2::pipeline
