// api::CompilerService — the session-based front door of the compilation
// engine: submit() turns a validated CompileRequest into an asynchronous
// job (QUEUED → RUNNING → DONE | FAILED | CANCELLED), many jobs share ONE
// work-stealing ThreadPool and ONE AsyncSolverDispatcher, and every job
// exposes a monotonic progress/event stream plus cooperative cancel().
// `k2c`, `k2c serve`, and the bench drivers are all clients of this class;
// nothing above src/api constructs core::compile/BatchCompiler directly.
//
// Scheduling model (and why): the unit of admission is the JOB. Submitted
// jobs are enqueued round-robin over the pool's worker deques (FIFO per
// deque, work-stealing across them), so with W workers at most W jobs make
// progress at once and later submissions wait their turn instead of
// oversubscribing — fair in admission order. Inside a job the engine runs
// deterministically sequential by default (chains in index order; batch
// jobs shard benchmark tasks over the SAME shared pool via nested
// run_all, which the pool supports re-entrantly), so one job cannot starve
// the others except by using its fair share of workers.
//
// Determinism: a deterministic (default) job's results are bit-identical
// to a direct sequential core::compile / BatchCompiler::run with the same
// options — independent of how many other jobs run concurrently, in what
// order jobs were submitted, or the service pool width — because each job
// gets a fresh per-job EqCache (single mode) or per-benchmark caches
// (batch mode, inside BatchCompiler) and shares only the stateless pool
// and the solver dispatcher. Requires solver_workers == 0, as everywhere.
// Enforced by tests/api_service_test.cc (shuffled-submission differential).
//
// Cancellation: cancel() sets the job's flag; the engine observes it at
// chain-iteration checkpoints, before each candidate evaluation
// (EvalPipeline), between final-verification candidates, and between batch
// jobs — so a cancel lands within one chain-iteration checkpoint, never
// mid-Z3-query. In-flight speculative solver queries are released; once
// the dispatcher drains, the job's EqCache holds zero pending verdicts
// (JobHandle::pending_eq_queries, asserted by the cancellation test).
//
// Thread-safety: every public method of CompilerService and JobHandle is
// safe from any thread. Event callbacks run inline on engine worker
// threads and must be fast, non-blocking, and thread-safe.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "api/response.h"
#include "pipeline/thread_pool.h"
#include "util/json.h"
#include "verify/cache.h"
#include "verify/cache_store.h"
#include "verify/solver_backend.h"
#include "verify/solver_dispatch.h"

namespace k2::api {

// One entry of a job's progress stream. `seq` is monotonically increasing
// per job starting at 1 with no gaps (a bounded ring may age entries out of
// poll()'s reach, but the numbering never skips), so consumers can resume
// from the last seq they saw.
struct Event {
  uint64_t seq = 0;
  std::string job_id;
  std::string type;  // state | tick | best | job_done
  double t_sec = 0;  // seconds since the job was submitted
  util::Json data;   // type-specific payload (see docs/API.md)
};

util::Json event_to_json(const Event& e);  // stamps k2-event/v1

using EventFn = std::function<void(const Event&)>;

struct ServiceOptions {
  int threads = 4;           // shared pool width (jobs + batch benchmark tasks)
  int solver_workers = 0;    // shared async Z3 pool (0 = synchronous)
  uint64_t tick_every = 512; // chain iterations between tick events
  // Event ring bound (oldest aged out, drop-oldest); clamped to >= 16 so
  // the state trajectory + job_done tail always survive in the ring.
  size_t max_events_per_job = 4096;
  // Admission control (ISSUE 7): submit() throws OverloadError — the
  // request is NOT enqueued — once the bound is reached, instead of letting
  // the queue grow without limit under overload. max_queued_jobs bounds
  // jobs sitting in QUEUED (waiting for a pool worker); max_active_jobs
  // bounds all non-terminal jobs (QUEUED + RUNNING). 0 = unbounded.
  size_t max_queued_jobs = 0;
  size_t max_active_jobs = 0;
  // Service-wide persistent equivalence-cache directory (k2c serve
  // --cache-dir): every job without a request-level cache_dir attaches to
  // this one store, so repeated identical requests warm-start across the
  // service's lifetime. Empty = memory-only. The constructor throws when
  // the store cannot be opened.
  std::string cache_dir;
  // Service-wide solver-farm endpoints (k2c serve --solver-endpoints); a
  // request-level solver_endpoints list overrides per job.
  std::vector<std::string> solver_endpoints;
  int portfolio = 1;  // portfolio width over those endpoints
};

class CompilerService;

// Thrown by CompilerService::submit() when admission control rejects the
// request (see ServiceOptions::max_queued_jobs / max_active_jobs). The
// request was NOT enqueued; the caller may retry later. Typed — rather than
// a bare runtime_error — so the serve loop can emit a structured
// "overloaded" reply that clients distinguish from validation failures.
class OverloadError : public std::runtime_error {
 public:
  OverloadError(std::string limit_name, uint64_t current, uint64_t limit)
      : std::runtime_error("overloaded: " + limit_name + " reached (" +
                           std::to_string(current) + " >= " +
                           std::to_string(limit) + "); request rejected"),
        limit_name_(std::move(limit_name)),
        current_(current),
        limit_(limit) {}
  const std::string& limit_name() const { return limit_name_; }
  uint64_t current() const { return current_; }
  uint64_t limit() const { return limit_; }

 private:
  std::string limit_name_;
  uint64_t current_;
  uint64_t limit_;
};

// One consistent point-in-time snapshot of every live gauge and counter the
// service exposes — gathered under a single pass holding the service mutex
// (with each job's state, its event ring, and its cache's EqCache::Snapshot
// read together), so sums always add up: queued + running + done + failed +
// cancelled == submitted, and `cache`/`pending_eq` describe the same
// instant. Backing store of the serve `metrics` and `stats` ops.
struct ServiceMetrics {
  // Lifetime counters.
  uint64_t submitted = 0;  // jobs accepted by admission (== ids assigned)
  uint64_t rejected = 0;   // submits refused by admission control
  // Jobs by state (gauges; terminal states are also lifetime counters).
  uint64_t queued = 0;
  uint64_t running = 0;
  uint64_t done = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  // Event-stream health across every job ring (slow-consumer observables).
  uint64_t event_backlog = 0;   // events currently buffered in rings
  uint64_t events_dropped = 0;  // events aged out of rings, lifetime
  // Equivalence-cache totals over all job-owned caches, plus in-flight
  // verdicts, from the same pass.
  verify::EqCache::Stats cache;
  uint64_t pending_eq = 0;
  // Shared solver dispatcher counters.
  verify::AsyncSolverDispatcher::Stats solver;
  // JIT fallbacks summed over terminal jobs' results (single and batch).
  // Always 0 while every request runs the default fast-interpreter backend.
  uint64_t jit_bailouts = 0;
  // Safety checks Z3 settled (the pre-pass could not prove), summed the
  // same way.
  uint64_t safety_solver_calls = 0;
  // Terminal jobs per traffic scenario, keyed "name@fingerprint" (e.g.
  // "default@a1b2..."), from the same pass — workload provenance for the
  // serve `stats`/`metrics` ops.
  std::map<std::string, uint64_t> scenario_jobs;
};

class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return job_ != nullptr; }
  const std::string& id() const;
  JobState state() const;
  bool terminal() const;

  // Requests cooperative cancellation; returns false when the job already
  // reached a terminal state (too late — the result stands). Idempotent.
  bool cancel();

  // Blocks until the job reaches DONE / FAILED / CANCELLED.
  void wait() const;

  // Events with seq > after, oldest first. Never blocks.
  std::vector<Event> poll(uint64_t after = 0) const;

  // Seq of the newest event (== total events emitted; 0 before the first).
  // O(1), unlike poll() which copies — status endpoints use this.
  uint64_t last_seq() const;

  // The terminal response; throws std::logic_error before terminal().
  CompileResponse response() const;

  // Pending (in-flight) equivalence verdicts still parked in this job's
  // cache — the cancellation-leak observable. Always 0 for batch jobs
  // (their per-benchmark caches live and die inside the run) and for
  // solver_workers == 0.
  size_t pending_eq_queries() const;

  // Events aged out of this job's bounded ring because no consumer polled
  // fast enough (the drop-oldest policy; see ServiceOptions::
  // max_events_per_job). Equivalently: the seq of the oldest event still in
  // the ring is events_dropped() + 1.
  uint64_t events_dropped() const;

 private:
  friend class CompilerService;
  struct Job;
  explicit JobHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
  std::shared_ptr<Job> job_;
};

class CompilerService {
 public:
  explicit CompilerService(ServiceOptions opts = {});
  // Cancels every live job and joins all work before returning.
  ~CompilerService();

  CompilerService(const CompilerService&) = delete;
  CompilerService& operator=(const CompilerService&) = delete;

  // Validates the request (throws ValidationError listing every problem),
  // applies admission control (throws OverloadError when the configured
  // queued/active bound is reached — the request is NOT enqueued), assigns
  // a job id ("job-<n>"), enqueues it, and returns immediately. `cb`, when
  // set, receives every event of this job inline from engine threads, in
  // seq order.
  JobHandle submit(CompileRequest req, EventFn cb = nullptr);

  // Lookup by id; invalid handle when unknown.
  JobHandle find(const std::string& job_id) const;
  std::vector<std::string> job_ids() const;

  // Jobs not yet terminal (queued or running).
  size_t active_jobs() const;
  // True when no job is queued or running AND the solver queue is empty —
  // "workers idle" as observed by the cancellation test.
  bool idle() const;

  verify::AsyncSolverDispatcher::Stats solver_stats() const;
  const ServiceOptions& options() const { return opts_; }

  // Every live gauge/counter in ONE consistent snapshot (see
  // ServiceMetrics). The serve `stats` and `metrics` ops read exclusively
  // through this so they never report torn totals mid-run.
  ServiceMetrics metrics() const;

  // Pending (in-flight) equivalence verdicts summed over every job-owned
  // cache. 0 after a clean shutdown — the no-leaked-verdicts invariant
  // `k2c serve` asserts before exiting.
  size_t pending_eq_queries() const;
  // Aggregated equivalence-cache statistics across all job-owned caches
  // (batch jobs' per-benchmark caches live and die inside their run and
  // are reported in the batch report instead).
  verify::EqCache::Stats cache_stats() const;
  // The service-wide persistent store / remote backend, null when not
  // configured (see ServiceOptions). For observability (the serve `stats`
  // verb); job-level overrides are not reachable here.
  const verify::CacheStore* store() const {
    return store_ ? &*store_ : nullptr;
  }
  verify::RemoteSolverBackend* remote_backend() {
    return backend_ ? &*backend_ : nullptr;
  }

  // Cancels all non-terminal jobs (when `cancel_running`), blocks until
  // every job is terminal, then drains the solver dispatcher so no queued
  // or in-flight query outlives the service's observable state. submit()
  // after shutdown() throws.
  void shutdown(bool cancel_running = true);

 private:
  void run_job(std::shared_ptr<JobHandle::Job> job);
  void finish(const std::shared_ptr<JobHandle::Job>& job, JobState terminal);

  ServiceOptions opts_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<JobHandle::Job>> jobs_;  // submit order
  uint64_t next_id_ = 1;
  uint64_t rejected_ = 0;  // admission rejections; guarded by mu_
  bool shutdown_ = false;
  // Store and backend before the dispatcher: the dispatcher's destructor
  // drains queued tasks, which may still publish verdicts through them.
  std::optional<verify::CacheStore> store_;
  std::optional<verify::RemoteSolverBackend> backend_;
  // Dispatcher before pool: the pool's destructor runs still-queued job
  // tasks, which may touch the dispatcher — it must still be alive.
  verify::AsyncSolverDispatcher dispatcher_;
  pipeline::ThreadPool pool_;
};

}  // namespace k2::api
