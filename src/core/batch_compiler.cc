#include "core/batch_compiler.h"

#include <chrono>
#include <stdexcept>

#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "pipeline/thread_pool.h"
#include "sim/perf_model.h"
#include "verify/cache_store.h"

namespace k2::core {

namespace {

using Clock = std::chrono::steady_clock;

// ---- JSON schema ----------------------------------------------------------
// to_json/from_json below are maintained as exact inverses; every field one
// writes, the other reads. The round-trip test in
// tests/batch_compiler_test.cc fails on any asymmetry.

util::Json job_to_json(const BatchJobResult& jr) {
  util::Json j;
  j.set("setting", jr.setting);
  j.set("best_slots", int64_t(jr.best_slots));
  const util::Json result = compile_result_to_json(jr.result);
  for (const auto& [key, value] : result.as_object()) j.set(key, value);
  return j;
}

BatchJobResult job_from_json(const util::Json& j) {
  BatchJobResult jr;
  jr.setting = j.at("setting").as_string();
  jr.best_slots = int(j.at("best_slots").as_int());
  jr.result = compile_result_from_json(j);
  return jr;
}

util::Json benchmark_to_json(const BatchBenchmarkResult& b) {
  util::Json j;
  j.set("name", b.name);
  j.set("origin", b.origin);
  j.set("paper_o2", int64_t(b.paper_o2));
  j.set("paper_k2", int64_t(b.paper_k2));
  j.set("src_slots", int64_t(b.src_slots));
  j.set("best_job", int64_t(b.best_job));
  j.set("improved", b.improved);
  j.set("src_perf", b.src_perf);
  j.set("best_perf", b.best_perf);
  j.set("best_slots", int64_t(b.best_slots));
  j.set("best_asm", b.best_asm);
  j.set("error", b.error);
  j.set("wall_secs", b.wall_secs);
  util::Json jobs;
  for (const BatchJobResult& jr : b.jobs) jobs.push_back(job_to_json(jr));
  if (b.jobs.empty()) jobs = util::Json(util::Json::Array{});
  j.set("jobs", std::move(jobs));
  return j;
}

BatchBenchmarkResult benchmark_from_json(const util::Json& j) {
  BatchBenchmarkResult b;
  b.name = j.at("name").as_string();
  b.origin = j.at("origin").as_string();
  b.paper_o2 = int(j.at("paper_o2").as_int());
  b.paper_k2 = int(j.at("paper_k2").as_int());
  b.src_slots = int(j.at("src_slots").as_int());
  b.best_job = int(j.at("best_job").as_int());
  b.improved = j.at("improved").as_bool();
  b.src_perf = j.at("src_perf").as_double();
  b.best_perf = j.at("best_perf").as_double();
  b.best_slots = int(j.at("best_slots").as_int());
  b.best_asm = j.at("best_asm").as_string();
  b.error = j.at("error").as_string();
  b.wall_secs = j.at("wall_secs").as_double();
  for (const util::Json& jj : j.at("jobs").as_array())
    b.jobs.push_back(job_from_json(jj));
  return b;
}

util::Json totals_to_json(const BatchTotals& t) {
  util::Json j;
  j.set("proposals", t.proposals);
  j.set("solver_calls", t.solver_calls);
  j.set("safety_solver_calls", t.safety_solver_calls);
  j.set("cache_hits", t.cache_hits);
  j.set("cache_misses", t.cache_misses);
  j.set("tests_executed", t.tests_executed);
  j.set("tests_skipped", t.tests_skipped);
  j.set("early_exits", t.early_exits);
  j.set("speculations", t.speculations);
  j.set("rollbacks", t.rollbacks);
  j.set("pending_joins", t.pending_joins);
  j.set("solver_queue_peak", t.solver_queue_peak);
  j.set("solver_timeouts", t.solver_timeouts);
  j.set("solver_abandoned", t.solver_abandoned);
  j.set("jit_bailouts", t.jit_bailouts);
  j.set("kernel_accepted", t.kernel_accepted);
  j.set("kernel_rejected", t.kernel_rejected);
  j.set("disk_hits", t.disk_hits);
  j.set("disk_loaded", t.disk_loaded);
  j.set("disk_writes", t.disk_writes);
  return j;
}

BatchTotals totals_from_json(const util::Json& j) {
  BatchTotals t;
  t.proposals = j.at("proposals").as_uint();
  t.solver_calls = j.at("solver_calls").as_uint();
  if (const util::Json* v = j.get("safety_solver_calls"))
    t.safety_solver_calls = v->as_uint();
  t.cache_hits = j.at("cache_hits").as_uint();
  t.cache_misses = j.at("cache_misses").as_uint();
  t.tests_executed = j.at("tests_executed").as_uint();
  t.tests_skipped = j.at("tests_skipped").as_uint();
  t.early_exits = j.at("early_exits").as_uint();
  t.speculations = j.at("speculations").as_uint();
  t.rollbacks = j.at("rollbacks").as_uint();
  t.pending_joins = j.at("pending_joins").as_uint();
  t.solver_queue_peak = j.at("solver_queue_peak").as_uint();
  t.solver_timeouts = j.at("solver_timeouts").as_uint();
  t.solver_abandoned = j.at("solver_abandoned").as_uint();
  if (const util::Json* v = j.get("jit_bailouts"))
    t.jit_bailouts = v->as_uint();
  t.kernel_accepted = j.at("kernel_accepted").as_int();
  t.kernel_rejected = j.at("kernel_rejected").as_int();
  if (const util::Json* v = j.get("disk_hits")) t.disk_hits = v->as_uint();
  if (const util::Json* v = j.get("disk_loaded")) t.disk_loaded = v->as_uint();
  if (const util::Json* v = j.get("disk_writes")) t.disk_writes = v->as_uint();
  return t;
}

}  // namespace

util::Json compile_result_to_json(const CompileResult& r) {
  util::Json j;
  j.set("improved", r.improved);
  j.set("cancelled", r.cancelled);
  j.set("budget_exhausted", r.budget_exhausted);
  j.set("src_perf", r.src_perf);
  j.set("best_perf", r.best_perf);
  j.set("iters_to_best", r.iters_to_best);
  j.set("secs_to_best", r.secs_to_best);
  j.set("wall_secs", r.total_secs);
  j.set("final_tests", uint64_t(r.final_tests));
  j.set("proposals", r.total_proposals);
  j.set("solver_calls", r.solver_calls);
  j.set("safety_solver_calls", r.safety_solver_calls);
  util::Json cache;
  cache.set("hits", r.cache.hits);
  cache.set("misses", r.cache.misses);
  cache.set("insertions", r.cache.insertions);
  cache.set("collisions", r.cache.collisions);
  cache.set("pending_joins", r.cache.pending_joins);
  cache.set("pending_abandons", r.cache.pending_abandons);
  cache.set("disk_hits", r.cache.disk_hits);
  cache.set("disk_loaded", r.cache.disk_loaded);
  cache.set("disk_writes", r.cache.disk_writes);
  j.set("cache", std::move(cache));
  j.set("early_exits", r.early_exits);
  j.set("tests_executed", r.tests_executed);
  j.set("tests_skipped", r.tests_skipped);
  j.set("speculations", r.speculations);
  j.set("pending_joins", r.pending_joins);
  j.set("rollbacks", r.rollbacks);
  j.set("discarded_proposals", r.discarded_proposals);
  j.set("solver_queue_peak", r.solver_queue_peak);
  j.set("solver_timeouts", r.solver_timeouts);
  j.set("solver_abandoned", r.solver_abandoned);
  j.set("jit_bailouts", r.jit_bailouts);
  j.set("kernel_accepted", int64_t(r.kernel_accepted));
  j.set("kernel_rejected", int64_t(r.kernel_rejected));
  j.set("scenario", r.scenario);
  j.set("scenario_fingerprint", r.scenario_fingerprint);
  return j;
}

// Fields added to the schema after its first release parse as optional
// with their zero defaults, so reports written by older builds that stamp
// the same version keep parsing (additive evolution); to_json always
// writes them, so round-trips stay exact.
CompileResult compile_result_from_json(const util::Json& j) {
  CompileResult r;
  r.improved = j.at("improved").as_bool();
  if (const util::Json* c = j.get("cancelled")) r.cancelled = c->as_bool();
  if (const util::Json* b = j.get("budget_exhausted"))
    r.budget_exhausted = b->as_bool();
  r.src_perf = j.at("src_perf").as_double();
  r.best_perf = j.at("best_perf").as_double();
  r.iters_to_best = j.at("iters_to_best").as_uint();
  r.secs_to_best = j.at("secs_to_best").as_double();
  r.total_secs = j.at("wall_secs").as_double();
  r.final_tests = size_t(j.at("final_tests").as_uint());
  r.total_proposals = j.at("proposals").as_uint();
  r.solver_calls = j.at("solver_calls").as_uint();
  if (const util::Json* v = j.get("safety_solver_calls"))
    r.safety_solver_calls = v->as_uint();
  const util::Json& cache = j.at("cache");
  r.cache.hits = cache.at("hits").as_uint();
  r.cache.misses = cache.at("misses").as_uint();
  r.cache.insertions = cache.at("insertions").as_uint();
  r.cache.collisions = cache.at("collisions").as_uint();
  r.cache.pending_joins = cache.at("pending_joins").as_uint();
  r.cache.pending_abandons = cache.at("pending_abandons").as_uint();
  if (const util::Json* v = cache.get("disk_hits"))
    r.cache.disk_hits = v->as_uint();
  if (const util::Json* v = cache.get("disk_loaded"))
    r.cache.disk_loaded = v->as_uint();
  if (const util::Json* v = cache.get("disk_writes"))
    r.cache.disk_writes = v->as_uint();
  r.early_exits = j.at("early_exits").as_uint();
  r.tests_executed = j.at("tests_executed").as_uint();
  r.tests_skipped = j.at("tests_skipped").as_uint();
  r.speculations = j.at("speculations").as_uint();
  r.pending_joins = j.at("pending_joins").as_uint();
  r.rollbacks = j.at("rollbacks").as_uint();
  r.discarded_proposals = j.at("discarded_proposals").as_uint();
  if (const util::Json* v = j.get("solver_queue_peak"))
    r.solver_queue_peak = v->as_uint();
  if (const util::Json* v = j.get("solver_timeouts"))
    r.solver_timeouts = v->as_uint();
  if (const util::Json* v = j.get("solver_abandoned"))
    r.solver_abandoned = v->as_uint();
  if (const util::Json* v = j.get("jit_bailouts"))
    r.jit_bailouts = v->as_uint();
  r.kernel_accepted = int(j.at("kernel_accepted").as_int());
  r.kernel_rejected = int(j.at("kernel_rejected").as_int());
  if (const util::Json* v = j.get("scenario")) r.scenario = v->as_string();
  if (const util::Json* v = j.get("scenario_fingerprint"))
    r.scenario_fingerprint = v->as_string();
  return r;
}

util::Json BatchReport::to_json() const {
  util::Json j;
  j.set("schema", kSchema);
  j.set("perf_model", perf_model);
  j.set("scenario", scenario);
  j.set("scenario_fingerprint", scenario_fingerprint);
  j.set("threads", int64_t(threads));
  j.set("seed", seed);
  j.set("wall_secs", wall_secs);
  j.set("cancelled", cancelled);
  j.set("totals", totals_to_json(totals));
  util::Json bs;
  for (const BatchBenchmarkResult& b : benchmarks)
    bs.push_back(benchmark_to_json(b));
  if (benchmarks.empty()) bs = util::Json(util::Json::Array{});
  j.set("benchmarks", std::move(bs));
  return j;
}

BatchReport BatchReport::from_json(const util::Json& j) {
  if (j.at("schema").as_string() != kSchema)
    throw std::runtime_error("BatchReport: schema version mismatch: found '" +
                             j.at("schema").as_string() + "', this build " +
                             "reads only '" + std::string(kSchema) + "'");
  BatchReport r;
  r.perf_model = j.at("perf_model").as_string();
  if (const util::Json* v = j.get("scenario")) r.scenario = v->as_string();
  if (const util::Json* v = j.get("scenario_fingerprint"))
    r.scenario_fingerprint = v->as_string();
  r.threads = int(j.at("threads").as_int());
  r.seed = j.at("seed").as_uint();
  r.wall_secs = j.at("wall_secs").as_double();
  if (const util::Json* c = j.get("cancelled")) r.cancelled = c->as_bool();
  r.totals = totals_from_json(j.at("totals"));
  for (const util::Json& b : j.at("benchmarks").as_array())
    r.benchmarks.push_back(benchmark_from_json(b));
  return r;
}

BatchCompiler::BatchCompiler(BatchOptions opts) : opts_(std::move(opts)) {}

BatchReport BatchCompiler::run(const BatchServices& bsvc) {
  if (ran_) throw std::logic_error("BatchCompiler::run() is single-use");
  ran_ = true;
  auto t0 = Clock::now();

  auto is_cancelled = [&bsvc]() {
    return bsvc.cancel && bsvc.cancel->load(std::memory_order_relaxed);
  };

  // Resolve every benchmark up front so an unknown name fails fast, before
  // any solver time is spent.
  std::vector<const corpus::Benchmark*> selected;
  if (opts_.benchmarks.empty()) {
    for (const corpus::Benchmark& b : corpus::all_benchmarks())
      selected.push_back(&b);
  } else {
    for (const std::string& name : opts_.benchmarks)
      selected.push_back(&corpus::benchmark(name));  // throws out_of_range
  }

  BatchReport report;
  report.threads = std::max(1, opts_.threads);
  report.seed = opts_.base.seed;
  report.perf_model = sim::to_string(resolved_perf_model(opts_.base));
  opts_.base.scenario.validate_or_throw();  // fail fast, before any job
  report.scenario = opts_.base.scenario.name;
  report.scenario_fingerprint = opts_.base.scenario.fingerprint();
  report.benchmarks.resize(selected.size());

  // Persistent cache store: ONE store shared by every per-benchmark cache
  // (records from different benchmarks never share a key; the options
  // fingerprint additionally pins each record to the window-mode resolution
  // of the benchmark that produced it). Declared before the dispatcher so
  // write-through appends from late-publishing workers cannot dangle.
  std::optional<verify::CacheStore> local_store;
  verify::CacheStore* store = bsvc.store;
  if (!store && !opts_.base.cache_dir.empty()) {
    local_store.emplace();
    std::string err;
    if (!local_store->open(opts_.base.cache_dir, &err))
      throw std::runtime_error("cache_dir '" + opts_.base.cache_dir +
                               "': " + err);
    store = &*local_store;
  }

  // Remote solver backend: ONE connection set shared by every job, so the
  // per-endpoint sockets are dialed once per batch, not once per job.
  std::optional<verify::RemoteSolverBackend> local_backend;
  verify::SolverBackend* backend = bsvc.backend;
  if (!backend && !opts_.base.solver_endpoints.empty()) {
    verify::RemoteSolverBackend::Options bo;
    bo.endpoints = opts_.base.solver_endpoints;
    bo.portfolio = std::max(1, opts_.base.portfolio);
    local_backend.emplace(bo);
    backend = &*local_backend;
  }

  // The two shared services — run-local unless the caller injected its own
  // (BatchServices): one Z3 worker pool for the whole batch, one
  // equivalence cache per benchmark (jobs of a benchmark share source
  // program and therefore query keys; different benchmarks never collide
  // usefully, and separate caches keep benchmark tasks contention-free).
  std::optional<verify::AsyncSolverDispatcher> local_dispatcher;
  if (!bsvc.dispatcher)
    local_dispatcher.emplace(std::max(0, opts_.base.solver_workers));
  verify::AsyncSolverDispatcher& dispatcher =
      bsvc.dispatcher ? *bsvc.dispatcher : *local_dispatcher;
  std::vector<std::unique_ptr<verify::EqCache>> caches;
  for (size_t i = 0; i < selected.size(); ++i) {
    caches.push_back(std::make_unique<verify::EqCache>());
    if (store) {
      // The fingerprint binds persisted verdicts to the encoder options AND
      // the window-mode resolution — the same rule compile() applies.
      bool uw = opts_.base.force_windows
                    ? *opts_.base.force_windows
                    : selected[i]->o2.num_real_insns() >
                          opts_.base.window_threshold;
      caches.back()->attach_store(
          store, verify::CacheStore::options_fingerprint(opts_.base.eq, uw));
    }
  }

  auto run_benchmark = [&](size_t bi) {
    auto bt0 = Clock::now();
    const corpus::Benchmark& b = *selected[bi];
    BatchBenchmarkResult& out = report.benchmarks[bi];
    out.name = b.name;
    out.origin = b.origin;
    out.paper_o2 = b.paper_o2;
    out.paper_k2 = b.paper_k2;
    out.src_slots = b.o2.size_slots();
    try {
      size_t njobs = opts_.sweep.empty() ? 1 : opts_.sweep.size();
      for (size_t ji = 0; ji < njobs; ++ji) {
        if (is_cancelled()) {
          out.error = "cancelled";
          break;
        }
        CompileOptions o = opts_.base;
        BatchJobResult jr;
        if (!opts_.sweep.empty()) {
          o.settings = {opts_.sweep[ji]};
          jr.setting = opts_.sweep[ji].name;
        }
        CompileServices svc;
        svc.dispatcher = &dispatcher;
        svc.cache = caches[bi].get();
        svc.backend = backend;
        svc.sequential = true;
        svc.cancel = bsvc.cancel;
        svc.tick_every = bsvc.tick_every;
        svc.budget = bsvc.budget;
        if (bsvc.progress) {
          // Tag chain-level events with the job they belong to.
          svc.progress = [&bsvc, &b, &jr](const ProgressEvent& e) {
            ProgressEvent tagged = e;
            tagged.benchmark = b.name;
            tagged.setting = jr.setting;
            bsvc.progress(tagged);
          };
        }
        jr.result = compile(b.o2, o, svc);
        jr.best_slots = jr.result.best.size_slots();
        bool job_cancelled = jr.result.cancelled;
        if (bsvc.progress && !job_cancelled) {
          ProgressEvent done;
          done.kind = ProgressEvent::Kind::JOB_DONE;
          done.benchmark = b.name;
          done.setting = jr.setting;
          done.improved = jr.result.improved;
          done.perf = jr.result.best_perf;
          done.wall_secs = jr.result.total_secs;
          done.cache_hits = jr.result.cache.hits;
          done.cache_misses = jr.result.cache.misses;
          done.solver_calls = jr.result.solver_calls;
          bsvc.progress(done);
        }
        out.jobs.push_back(std::move(jr));
        if (job_cancelled) {
          out.error = "cancelled";
          break;
        }
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    // Winner across jobs: strictly better best_perf, first job on ties —
    // a deterministic pick for a deterministic report.
    if (!out.jobs.empty()) {
      out.src_perf = out.jobs.front().result.src_perf;
      out.best_perf = out.src_perf;
      out.best_slots = out.jobs.front().result.best.size_slots();
      const ebpf::Program* best_prog = nullptr;
      for (size_t ji = 0; ji < out.jobs.size(); ++ji) {
        const CompileResult& r = out.jobs[ji].result;
        if (r.improved && r.best_perf < out.best_perf) {
          out.best_job = int(ji);
          out.best_perf = r.best_perf;
          out.best_slots = out.jobs[ji].best_slots;
          out.improved = true;
          best_prog = &r.best;
        }
      }
      out.best_asm = ebpf::disassemble(best_prog ? *best_prog
                                                 : out.jobs[0].result.best);
    }
    out.wall_secs = std::chrono::duration<double>(Clock::now() - bt0).count();
  };

  // Shard the benchmark tasks over the one shared pool (run-local unless
  // injected). run_all's caller helps drain, so threads=1 still gets the
  // driver thread working, and calling from inside a pool worker (the
  // service layer's batch jobs) cannot deadlock.
  {
    std::optional<pipeline::ThreadPool> local_pool;
    if (!bsvc.pool) local_pool.emplace(report.threads);
    pipeline::ThreadPool& pool = bsvc.pool ? *bsvc.pool : *local_pool;
    if (bsvc.pool) report.threads = pool.size();
    std::vector<std::function<void()>> tasks;
    for (size_t bi = 0; bi < selected.size(); ++bi)
      tasks.push_back([&run_benchmark, bi]() { run_benchmark(bi); });
    pool.run_all(std::move(tasks));
  }

  // Aggregate. Per-job CompileResults carry zeros for the dispatcher-level
  // counters (shared dispatcher — see CompileServices), so the batch-wide
  // dispatcher stats are read once here.
  for (const BatchBenchmarkResult& b : report.benchmarks) {
    for (const BatchJobResult& jr : b.jobs) {
      const CompileResult& r = jr.result;
      report.totals.proposals += r.total_proposals;
      report.totals.solver_calls += r.solver_calls;
      report.totals.safety_solver_calls += r.safety_solver_calls;
      report.totals.cache_hits += r.cache.hits;
      report.totals.cache_misses += r.cache.misses;
      report.totals.tests_executed += r.tests_executed;
      report.totals.tests_skipped += r.tests_skipped;
      report.totals.early_exits += r.early_exits;
      report.totals.speculations += r.speculations;
      report.totals.rollbacks += r.rollbacks;
      report.totals.pending_joins += r.pending_joins;
      report.totals.jit_bailouts += r.jit_bailouts;
      report.totals.kernel_accepted += r.kernel_accepted;
      report.totals.kernel_rejected += r.kernel_rejected;
      report.totals.disk_hits += r.cache.disk_hits;
      report.totals.disk_writes += r.cache.disk_writes;
    }
  }
  // disk_loaded is counted at attach time — before any job's delta window
  // opens — so it is read from the caches, not summed over jobs.
  for (const auto& c : caches)
    report.totals.disk_loaded += c->stats().disk_loaded;
  // Settle every still-queued solver task (cancelled speculations included)
  // while the per-benchmark caches — and the batch-local store/backend —
  // are still alive. Unconditional: with a shared dispatcher a queued task
  // holding pointers into this run must not outlive it.
  dispatcher.drain();
  if (!bsvc.dispatcher) {
    // Dispatcher-level counters are per-batch only when the dispatcher is
    // run-local; a shared one aggregates across every sharing run and is
    // reported by its owner (see BatchServices).
    verify::AsyncSolverDispatcher::Stats ds = dispatcher.stats();
    report.totals.solver_queue_peak = ds.queue_peak;
    report.totals.solver_timeouts = ds.timeouts;
    report.totals.solver_abandoned = ds.abandoned;
  }

  report.cancelled = is_cancelled();
  report.wall_secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

}  // namespace k2::core
