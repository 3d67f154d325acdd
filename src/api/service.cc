#include "api/service.h"

#include <chrono>
#include <condition_variable>
#include <deque>

#include "api/schema.h"
#include "core/batch_compiler.h"
#include "ebpf/assembler.h"

namespace k2::api {

namespace {
using Clock = std::chrono::steady_clock;
}

struct JobHandle::Job {
  std::string id;
  CompileRequest req;
  EventFn callback;  // immutable after submit
  std::atomic<bool> cancel_flag{false};
  Clock::time_point submitted;
  size_t max_events = 4096;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobState state = JobState::QUEUED;       // guarded by mu
  std::deque<Event> events;                // guarded by mu (bounded ring)
  uint64_t next_seq = 1;                   // guarded by mu
  uint64_t dropped = 0;                    // events aged out; guarded by mu
  CompileResponse resp;                    // guarded by mu; set at terminal
  // Per-job resource budget (request budget_wall_ms/budget_iters), armed in
  // run_job when either cap is set. Job-owned for the same lifetime reason
  // as the store/backend below: chains observe it through CompileServices.
  core::JobBudget budget;
  // Job-level overrides of the service-wide store/backend (request-level
  // cache_dir / solver_endpoints). Owned by the job, not stack-allocated in
  // run_job: a cancelled speculation's task can sit in the shared
  // dispatcher queue past run_job's return, and jobs_ outlives the
  // dispatcher, so Job members outlive every drained task. Declared before
  // `cache` so the cache (which writes through to the store) dies first.
  std::optional<verify::CacheStore> store;
  std::optional<verify::RemoteSolverBackend> backend;
  // Single-mode jobs own their equivalence cache so pending-verdict counts
  // stay observable after cancellation (batch jobs use per-benchmark
  // caches inside BatchCompiler::run).
  std::shared_ptr<verify::EqCache> cache;

  bool terminal_locked() const {
    return state == JobState::DONE || state == JobState::FAILED ||
           state == JobState::CANCELLED;
  }

  // Appends one event (assigning its seq) and invokes the callback outside
  // the lock, preserving seq order because emit() is only called from the
  // single thread running this job.
  void emit(std::string type, util::Json data) {
    Event ev;
    ev.job_id = id;
    ev.type = std::move(type);
    ev.data = std::move(data);
    ev.t_sec =
        std::chrono::duration<double>(Clock::now() - submitted).count();
    {
      std::lock_guard<std::mutex> lock(mu);
      ev.seq = next_seq++;
      events.push_back(ev);
      // Drop-oldest policy for slow consumers: the ring is bounded, the
      // oldest event ages out, and `dropped` counts what a late poll(0) can
      // no longer see (its first seq is dropped + 1 — a detectable gap, not
      // silent loss). Seq numbering never skips.
      if (events.size() > max_events) {
        events.pop_front();
        dropped++;
      }
    }
    if (callback) callback(ev);
  }
};

util::Json event_to_json(const Event& e) {
  util::Json j;
  j.set("schema", kEventSchema);
  j.set("job", e.job_id);
  j.set("seq", e.seq);
  j.set("type", e.type);
  j.set("t_sec", e.t_sec);
  if (e.data.is_object())
    for (const auto& [key, value] : e.data.as_object()) j.set(key, value);
  return j;
}

// ---- JobHandle --------------------------------------------------------------

const std::string& JobHandle::id() const { return job_->id; }

JobState JobHandle::state() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->state;
}

bool JobHandle::terminal() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->terminal_locked();
}

bool JobHandle::cancel() {
  {
    std::lock_guard<std::mutex> lock(job_->mu);
    if (job_->terminal_locked()) return false;
  }
  job_->cancel_flag.store(true, std::memory_order_relaxed);
  return true;
}

void JobHandle::wait() const {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->terminal_locked(); });
}

std::vector<Event> JobHandle::poll(uint64_t after) const {
  std::vector<Event> out;
  std::lock_guard<std::mutex> lock(job_->mu);
  for (const Event& e : job_->events)
    if (e.seq > after) out.push_back(e);
  return out;
}

uint64_t JobHandle::last_seq() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->next_seq - 1;
}

CompileResponse JobHandle::response() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  if (!job_->terminal_locked())
    throw std::logic_error("JobHandle::response(): job " + job_->id +
                           " is still " + to_string(job_->state));
  return job_->resp;
}

size_t JobHandle::pending_eq_queries() const {
  return job_->cache ? job_->cache->pending_count() : 0;
}

uint64_t JobHandle::events_dropped() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->dropped;
}

// ---- CompilerService --------------------------------------------------------

CompilerService::CompilerService(ServiceOptions opts)
    : opts_(opts),
      dispatcher_(std::max(0, opts.solver_workers)),
      pool_(std::max(1, opts.threads)) {
  if (!opts_.cache_dir.empty()) {
    store_.emplace();
    std::string err;
    if (!store_->open(opts_.cache_dir, &err))
      throw std::runtime_error("cache_dir '" + opts_.cache_dir + "': " + err);
  }
  if (!opts_.solver_endpoints.empty()) {
    verify::RemoteSolverBackend::Options bo;
    bo.endpoints = opts_.solver_endpoints;
    bo.portfolio = std::max(1, opts_.portfolio);
    backend_.emplace(bo);
  }
}

CompilerService::~CompilerService() { shutdown(/*cancel_running=*/true); }

JobHandle CompilerService::submit(CompileRequest req, EventFn cb) {
  req.validate_or_throw();
  auto job = std::make_shared<JobHandle::Job>();
  job->req = std::move(req);
  job->callback = std::move(cb);
  job->submitted = Clock::now();
  job->max_events = std::max<size_t>(16, opts_.max_events_per_job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_)
      throw std::logic_error("CompilerService: submit() after shutdown()");
    // Admission control: count this service's queued/active jobs under the
    // same lock that will enqueue, so the bound can never be raced past.
    // Rejection happens AFTER validation — an invalid request is a
    // validation failure, not load shed — and before an id is assigned, so
    // rejected requests leave no trace beyond the counter.
    if (opts_.max_queued_jobs > 0 || opts_.max_active_jobs > 0) {
      size_t queued = 0, active = 0;
      for (const auto& j : jobs_) {
        std::lock_guard<std::mutex> jlock(j->mu);
        if (j->terminal_locked()) continue;
        active++;
        if (j->state == JobState::QUEUED) queued++;
      }
      if (opts_.max_active_jobs > 0 && active >= opts_.max_active_jobs) {
        rejected_++;
        throw OverloadError("max_active_jobs", active, opts_.max_active_jobs);
      }
      if (opts_.max_queued_jobs > 0 && queued >= opts_.max_queued_jobs) {
        rejected_++;
        throw OverloadError("max_queued_jobs", queued, opts_.max_queued_jobs);
      }
    }
    job->id = "job-" + std::to_string(next_id_++);
    jobs_.push_back(job);
  }
  job->emit("state", [&] {
    util::Json d;
    d.set("state", to_string(JobState::QUEUED));
    return d;
  }());
  pool_.submit([this, job]() { run_job(job); });
  return JobHandle(job);
}

void CompilerService::finish(const std::shared_ptr<JobHandle::Job>& job,
                             JobState terminal) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = terminal;
    job->resp.job_id = job->id;
    job->resp.state = terminal;
    job->resp.wall_secs =
        std::chrono::duration<double>(Clock::now() - job->submitted).count();
  }
  util::Json d;
  d.set("state", to_string(terminal));
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!job->resp.error.empty()) d.set("error", job->resp.error);
  }
  job->emit("state", std::move(d));
  job->cv.notify_all();
}

void CompilerService::run_job(std::shared_ptr<JobHandle::Job> job) {
  if (job->cancel_flag.load(std::memory_order_relaxed)) {
    finish(job, JobState::CANCELLED);  // cancelled while still queued
    return;
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = JobState::RUNNING;
  }
  job->emit("state", [&] {
    util::Json d;
    d.set("state", to_string(JobState::RUNNING));
    return d;
  }());

  // Arm the per-job resource budget now rather than at submit: the wall
  // window measures run time, so time spent QUEUED under load is not
  // charged against the job.
  core::JobBudget* budget = nullptr;
  if (job->req.budget_wall_ms > 0 || job->req.budget_iters > 0) {
    job->budget.arm(job->req.budget_wall_ms, job->req.budget_iters);
    budget = &job->budget;
  }

  // Chain/batch progress → the job's event stream. Runs on engine threads;
  // seq assignment and ring insertion are serialized by the job mutex so
  // poll() always observes strictly monotonic order. Callback *invocation*
  // order matches seq for deterministic jobs (one emitting thread);
  // parallel-chain jobs may deliver callbacks slightly out of order —
  // consumers that need strict order use poll().
  core::ProgressFn progress = [job](const core::ProgressEvent& e) {
    util::Json d;
    const char* type = "tick";
    switch (e.kind) {
      case core::ProgressEvent::Kind::CHAIN_TICK: type = "tick"; break;
      case core::ProgressEvent::Kind::NEW_BEST: type = "best"; break;
      case core::ProgressEvent::Kind::JOB_DONE: type = "job_done"; break;
    }
    if (!e.benchmark.empty()) d.set("benchmark", e.benchmark);
    if (!e.setting.empty()) d.set("setting", e.setting);
    if (e.kind == core::ProgressEvent::Kind::JOB_DONE) {
      d.set("improved", e.improved);
      d.set("best_perf", e.perf);
      d.set("wall_secs", e.wall_secs);
      d.set("cache_hits", e.cache_hits);
      d.set("cache_misses", e.cache_misses);
      d.set("solver_calls", e.solver_calls);
    } else {
      d.set("chain", int64_t(e.chain));
      d.set("iter", e.iter);
      d.set("proposals", e.proposals);
      d.set(e.kind == core::ProgressEvent::Kind::NEW_BEST ? "perf"
                                                          : "best_perf",
            e.perf);
    }
    job->emit(type, std::move(d));
  };

  // Effective async dispatch needs BOTH the request to ask for workers and
  // the service to own some; otherwise the job runs the synchronous path.
  // When declining to share, the lowered options' solver_workers is zeroed
  // below so the engine cannot spin up a private per-job Z3 pool — the
  // dispatcher is a service-level resource, ONE per service.
  verify::AsyncSolverDispatcher* dispatcher =
      job->req.solver_workers > 0 && dispatcher_.async() ? &dispatcher_
                                                         : nullptr;

  JobState terminal = JobState::DONE;
  try {
    if (job->req.mode == CompileRequest::Mode::SINGLE) {
      ebpf::Program src = job->req.resolve_program();
      core::CompileOptions copts = job->req.to_compile_options();
      if (!dispatcher) copts.solver_workers = 0;
      job->cache = std::make_shared<verify::EqCache>();
      // Persistent store: a request-level cache_dir overrides the
      // service-wide store. The attach happens here (not in compile())
      // because the cache is job-owned — external to the engine.
      verify::CacheStore* store = store_ ? &*store_ : nullptr;
      if (!job->req.cache_dir.empty()) {
        job->store.emplace();
        std::string err;
        if (!job->store->open(job->req.cache_dir, &err))
          throw std::runtime_error("cache_dir '" + job->req.cache_dir +
                                   "': " + err);
        store = &*job->store;
      }
      if (store) {
        bool uw = copts.force_windows
                      ? *copts.force_windows
                      : src.num_real_insns() > copts.window_threshold;
        job->cache->attach_store(
            store,
            verify::CacheStore::options_fingerprint(copts.eq, uw));
      }
      // Remote backend: request-level endpoints override the service-wide
      // backend. Job-owned for the same lifetime reason as the store.
      verify::SolverBackend* backend = backend_ ? &*backend_ : nullptr;
      if (!job->req.solver_endpoints.empty()) {
        verify::RemoteSolverBackend::Options bo;
        bo.endpoints = job->req.solver_endpoints;
        bo.portfolio = std::max(1, job->req.portfolio);
        job->backend.emplace(bo);
        backend = &*job->backend;
      }
      core::CompileServices svc;
      svc.dispatcher = dispatcher;
      svc.cache = job->cache.get();
      svc.backend = backend;
      svc.sequential = job->req.deterministic;
      // Parallel-chain jobs shard their chains over the service pool
      // (re-entrant run_all) instead of nesting a second pool.
      svc.pool = &pool_;
      svc.cancel = &job->cancel_flag;
      svc.progress = progress;
      svc.tick_every = opts_.tick_every;
      svc.budget = budget;
      verify::AsyncSolverDispatcher::Stats ds_before = dispatcher_.stats();
      core::CompileResult r = core::compile(src, copts, svc);
      if (dispatcher) {
        // Same owner-reports rule as the batch path below: monotone
        // counters as exact per-job deltas, queue_peak as the service-
        // lifetime high-water mark.
        verify::AsyncSolverDispatcher::Stats ds_after = dispatcher_.stats();
        r.solver_timeouts = ds_after.timeouts - ds_before.timeouts;
        r.solver_abandoned = ds_after.abandoned - ds_before.abandoned;
        r.solver_queue_peak = ds_after.queue_peak;
      }
      if (r.cancelled) terminal = JobState::CANCELLED;
      std::lock_guard<std::mutex> lock(job->mu);
      job->resp.best_asm = ebpf::disassemble(r.best);
      job->resp.best_slots = r.best.size_slots();
      job->resp.single = std::move(r);
    } else {
      core::BatchServices bsvc;
      bsvc.pool = &pool_;
      bsvc.dispatcher = dispatcher;
      // A request-level cache_dir / endpoint list takes precedence: leave
      // the shared service handle null so the batch builds its own from
      // base.cache_dir / base.solver_endpoints (safe — batch run() drains
      // the dispatcher before its locals die).
      bsvc.store =
          job->req.cache_dir.empty() && store_ ? &*store_ : nullptr;
      bsvc.backend = job->req.solver_endpoints.empty() && backend_
                         ? &*backend_
                         : nullptr;
      bsvc.cancel = &job->cancel_flag;
      bsvc.progress = progress;
      bsvc.tick_every = opts_.tick_every;
      bsvc.budget = budget;
      core::BatchOptions bopts = job->req.to_batch_options();
      if (!dispatcher) bopts.base.solver_workers = 0;
      verify::AsyncSolverDispatcher::Stats ds_before = dispatcher_.stats();
      core::BatchReport rep = core::BatchCompiler(std::move(bopts)).run(bsvc);
      if (dispatcher) {
        // The engine leaves dispatcher-level totals to the dispatcher's
        // owner (us). timeouts/abandoned are monotone, so the delta is this
        // job's exact share; queue_peak is a service-lifetime high-water
        // mark shared with any concurrently-running jobs.
        verify::AsyncSolverDispatcher::Stats ds_after = dispatcher_.stats();
        rep.totals.solver_timeouts = ds_after.timeouts - ds_before.timeouts;
        rep.totals.solver_abandoned =
            ds_after.abandoned - ds_before.abandoned;
        rep.totals.solver_queue_peak = ds_after.queue_peak;
      }
      if (rep.cancelled) terminal = JobState::CANCELLED;
      std::lock_guard<std::mutex> lock(job->mu);
      job->resp.batch = std::move(rep);
    }
  } catch (const std::exception& e) {
    terminal = JobState::FAILED;
    std::lock_guard<std::mutex> lock(job->mu);
    job->resp.error = e.what();
  }
  finish(job, terminal);
}

JobHandle CompilerService::find(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& job : jobs_)
    if (job->id == job_id) return JobHandle(job);
  return JobHandle();
}

std::vector<std::string> CompilerService::job_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& job : jobs_) out.push_back(job->id);
  return out;
}

size_t CompilerService::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& job : jobs_) {
    std::lock_guard<std::mutex> jlock(job->mu);
    if (!job->terminal_locked()) n++;
  }
  return n;
}

bool CompilerService::idle() const {
  return active_jobs() == 0 && dispatcher_.stats().queue_depth == 0;
}

verify::AsyncSolverDispatcher::Stats CompilerService::solver_stats() const {
  return dispatcher_.stats();
}

size_t CompilerService::pending_eq_queries() const {
  std::vector<std::shared_ptr<JobHandle::Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs = jobs_;
  }
  size_t n = 0;
  for (const auto& job : jobs)
    if (job->cache) n += job->cache->pending_count();
  return n;
}

namespace {
void accumulate(verify::EqCache::Stats& total,
                const verify::EqCache::Stats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.insertions += s.insertions;
  total.collisions += s.collisions;
  total.pending_joins += s.pending_joins;
  total.pending_abandons += s.pending_abandons;
  total.disk_hits += s.disk_hits;
  total.disk_loaded += s.disk_loaded;
  total.disk_writes += s.disk_writes;
}
}  // namespace

verify::EqCache::Stats CompilerService::cache_stats() const {
  std::vector<std::shared_ptr<JobHandle::Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs = jobs_;
  }
  verify::EqCache::Stats total;
  for (const auto& job : jobs)
    if (job->cache) accumulate(total, job->cache->stats());
  return total;
}

ServiceMetrics CompilerService::metrics() const {
  ServiceMetrics m;
  // One pass under the service mutex: the job set is frozen, each job's
  // state / ring depth / drop counter are read under its own lock, and each
  // cache contributes an atomic EqCache::Snapshot (stats + pending under
  // one all-shard lock) — so the state sums always add up to `submitted`
  // and cache/pending_eq are never torn against each other. (A RUNNING
  // job's own counters keep advancing, of course; consistency here means
  // the reported numbers describe one coherent gather, not a stopped
  // world.)
  std::lock_guard<std::mutex> lock(mu_);
  m.submitted = next_id_ - 1;
  m.rejected = rejected_;
  for (const auto& job : jobs_) {
    std::shared_ptr<verify::EqCache> cache;
    {
      std::lock_guard<std::mutex> jlock(job->mu);
      switch (job->state) {
        case JobState::QUEUED: m.queued++; break;
        case JobState::RUNNING: m.running++; break;
        case JobState::DONE: m.done++; break;
        case JobState::FAILED: m.failed++; break;
        case JobState::CANCELLED: m.cancelled++; break;
      }
      m.event_backlog += job->events.size();
      m.events_dropped += job->dropped;
      if (job->terminal_locked()) {
        if (job->resp.single) {
          m.jit_bailouts += job->resp.single->jit_bailouts;
          m.safety_solver_calls += job->resp.single->safety_solver_calls;
        }
        if (job->resp.batch) {
          m.jit_bailouts += job->resp.batch->totals.jit_bailouts;
          m.safety_solver_calls +=
              job->resp.batch->totals.safety_solver_calls;
        }
        // Workload provenance: which scenario each finished job priced
        // under, keyed name@fingerprint so a renamed-but-identical file and
        // its catalog twin land in the same bucket.
        const std::string* sn = nullptr;
        const std::string* fp = nullptr;
        if (job->resp.single) {
          sn = &job->resp.single->scenario;
          fp = &job->resp.single->scenario_fingerprint;
        } else if (job->resp.batch) {
          sn = &job->resp.batch->scenario;
          fp = &job->resp.batch->scenario_fingerprint;
        }
        if (sn && !sn->empty()) m.scenario_jobs[*sn + "@" + *fp]++;
      }
      cache = job->cache;
    }
    if (cache) {
      verify::EqCache::Snapshot cs = cache->snapshot();
      accumulate(m.cache, cs.stats);
      m.pending_eq += cs.pending;
    }
  }
  m.solver = dispatcher_.stats();
  return m;
}

void CompilerService::shutdown(bool cancel_running) {
  std::vector<std::shared_ptr<JobHandle::Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    jobs = jobs_;
  }
  if (cancel_running)
    for (const auto& job : jobs)
      job->cancel_flag.store(true, std::memory_order_relaxed);
  for (const auto& job : jobs) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return job->terminal_locked(); });
  }
  // Every job is terminal; settle queued/in-flight solver tasks (abandoning
  // released speculations) so pending_eq_queries() reads 0 on clean exit
  // and no task outlives the jobs it points into.
  dispatcher_.drain();
}

}  // namespace k2::api
