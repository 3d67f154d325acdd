// Corpus-sharded batch compilation (the Table 1 sweep as one process): takes
// a set of corpus benchmarks (or all 19) × a set of parameter settings,
// shards the benchmark tasks across ONE shared work-stealing ThreadPool and
// ONE shared AsyncSolverDispatcher (instead of per-run pools), shares the
// sharded equivalence cache across jobs of the same benchmark, and emits a
// structured JSON report. This is what turns the single-program research
// harness into a many-workload compilation service: `k2c --corpus --report
// out.json` reproduces the paper's whole-corpus evaluation in one command.
//
// Sharding model (and why it is shaped this way):
//
//  * The unit of parallelism is the *benchmark task*. Jobs of the same
//    benchmark (one per parameter setting) run sequentially inside their
//    task in sweep order, each in CompileServices::sequential mode, sharing
//    that benchmark's EqCache — so setting #2 starts with every equivalence
//    verdict setting #1 already paid Z3 for (same source program, same
//    query keys). Benchmark tasks share nothing but the solver pool, so
//    work-stealing across them is contention-free.
//  * Chains inside a job do NOT parallelize (sequential mode); the batch
//    has benchmark×setting-level parallelism to saturate the pool instead.
//    This is what buys the determinism guarantee below.
//
// Determinism: with solver_workers == 0, a same-seed batch produces
// bit-identical results — per-benchmark best programs, per-job decisions,
// and every counter — regardless of BatchOptions::threads, the order
// benchmarks are listed in, or what else runs concurrently. (Each benchmark
// task is single-threaded and touches only its own suite/cache; cross-task
// state is read-only.) Wall-clock fields (*_secs) are exempt. With
// solver_workers > 0, chains speculate on verdict-arrival timing and the
// guarantee is traded for solver-pool throughput, exactly as in standalone
// async compiles. Enforced by tests/batch_compiler_test.cc.
//
// Thread-safety: a BatchCompiler instance is single-use and not itself
// thread-safe; run() blocks the calling thread until the whole batch
// completes (the caller's thread helps drain the pool). The report it
// returns is a plain value.
#pragma once

#include <string>
#include <vector>

#include "api/schema.h"
#include "core/compiler.h"
#include "util/json.h"

namespace k2::pipeline {
class ThreadPool;
}

namespace k2::core {

struct BatchOptions {
  // Corpus benchmarks to compile (Table 1 names). Empty = the whole corpus.
  // Unknown names make run() throw std::out_of_range before any job runs.
  std::vector<std::string> benchmarks;
  // Per-job template: goal, perf_model, iters_per_chain, num_chains, seed,
  // eq/safety budgets, max_insns... `base.solver_workers` sizes the one
  // shared dispatcher (0 = synchronous + deterministic). `base.threads` is
  // ignored — jobs are internally sequential; `threads` below is the knob.
  CompileOptions base;
  // Parameter-setting sweep: one job per benchmark×setting, where a job
  // runs `base` with settings = {sweep[i]}. Empty = one job per benchmark
  // using base.settings as-is.
  std::vector<SearchParams> sweep;
  // Width of the shared work-stealing pool the benchmark tasks shard over.
  int threads = 4;
};

// One benchmark×setting job (CompileResult plus report-level extras).
struct BatchJobResult {
  std::string setting;  // sweep entry name ("" for the base job)
  CompileResult result;
  int best_slots = 0;  // result.best.size_slots() (NOP-stripped)
};

struct BatchBenchmarkResult {
  std::string name, origin;
  int paper_o2 = 0, paper_k2 = 0;  // Table 1 reference numbers
  int src_slots = 0;               // -O2 source, NOPs included
  std::vector<BatchJobResult> jobs;  // sweep order
  // Winner across this benchmark's jobs (strictly best best_perf, first
  // job on ties — deterministic). best_job == -1 when nothing improved.
  int best_job = -1;
  bool improved = false;
  double src_perf = 0, best_perf = 0;
  int best_slots = 0;
  std::string best_asm;  // disassembly of the winning (or source) program
  std::string error;     // non-empty: the task failed and jobs is partial
  double wall_secs = 0;
};

// Batch-wide aggregates. Dispatcher-level counters (queue peak, timeouts,
// abandoned) live here and only here: the dispatcher is shared, so per-job
// CompileResults carry zeros for them (see CompileServices::dispatcher).
struct BatchTotals {
  uint64_t proposals = 0;
  uint64_t solver_calls = 0;
  uint64_t safety_solver_calls = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t tests_executed = 0;
  uint64_t tests_skipped = 0;
  uint64_t early_exits = 0;
  uint64_t speculations = 0;
  uint64_t rollbacks = 0;
  uint64_t pending_joins = 0;
  uint64_t solver_queue_peak = 0;
  uint64_t solver_timeouts = 0;
  uint64_t solver_abandoned = 0;
  uint64_t jit_bailouts = 0;
  int64_t kernel_accepted = 0;
  int64_t kernel_rejected = 0;
  // Persistent-cache (disk tier) aggregates; all zero without a cache_dir.
  uint64_t disk_hits = 0;    // cache hits answered by store-seeded entries
  uint64_t disk_loaded = 0;  // entries seeded from disk across all caches
  uint64_t disk_writes = 0;  // verdicts written through to the store
};

// The structured report (--report out.json). to_json()/from_json() are
// inverses over everything to_json() writes — enforced round-trip by
// tests/batch_compiler_test.cc — so downstream tooling can re-read reports
// it finds on disk. from_json() restores metrics and the disassembly text,
// not executable ebpf::Program objects (programs travel as best_asm).
struct BatchReport {
  // The version every report stamps and from_json enforces; the constant
  // itself lives in the one schema-version header (src/api/schema.h).
  static constexpr const char* kSchema = api::kBatchReportSchema;

  std::string perf_model;  // sim::to_string of the backend used
  // Workload provenance: name and content fingerprint of the traffic
  // scenario every job of the batch priced under (CompileOptions::scenario;
  // "default" when none was requested).
  std::string scenario;
  std::string scenario_fingerprint;
  int threads = 1;
  uint64_t seed = 0;
  double wall_secs = 0;
  // True when the batch was stopped by BatchServices::cancel: benchmarks
  // that never ran (or were stopped mid-run) carry error == "cancelled" and
  // possibly partial job lists.
  bool cancelled = false;
  BatchTotals totals;
  std::vector<BatchBenchmarkResult> benchmarks;

  util::Json to_json() const;
  // Throws std::runtime_error naming the expected and found versions on a
  // schema mismatch (never best-effort parses another version), and on
  // missing or mistyped fields. Fields added to v1 after its first release
  // (cancelled, per-job solver counters) parse as optional with zero
  // defaults so older same-version reports keep parsing.
  static BatchReport from_json(const util::Json& j);
};

// CompileResult <-> JSON, shared by the batch report's per-job entries and
// the service layer's single-job CompileResponse so the two stay one
// schema. to_json()/from_json() are exact inverses over everything written
// (metrics and counters; programs are not serialized here — they travel as
// disassembly at the layer above).
util::Json compile_result_to_json(const CompileResult& r);
CompileResult compile_result_from_json(const util::Json& j);

// Externally-owned services a batch run plugs into — how the service layer
// (api::CompilerService) runs many batch jobs over ONE pool and ONE solver
// dispatcher. Null members are replaced by run-local instances, so a
// default-constructed BatchServices reproduces standalone run() exactly.
// Every non-null member must outlive the run() call.
struct BatchServices {
  // Shared work-stealing pool the benchmark tasks shard over; replaces the
  // run-local pool of BatchOptions::threads workers. run() still blocks its
  // caller (which lends a hand draining), so nesting inside a pool worker
  // is safe — the pool supports re-entrant run_all.
  pipeline::ThreadPool* pool = nullptr;
  // Shared async Z3 pool; replaces the run-local dispatcher sized by
  // base.solver_workers. Dispatcher-level counters in BatchTotals
  // (queue peak, timeouts, abandoned) are left at zero when external —
  // they aggregate across every sharing run and belong to the owner.
  verify::AsyncSolverDispatcher* dispatcher = nullptr;
  // Shared solver backend routing chain-level equivalence queries of every
  // job (verify/solver_backend.h); replaces the run-local backend built
  // from base.solver_endpoints. Final re-verification stays local either
  // way.
  verify::SolverBackend* backend = nullptr;
  // Shared persistent cache store, already opened by the owner; replaces
  // the run-local store built from base.cache_dir. Attached to every
  // per-benchmark cache (with that benchmark's options fingerprint).
  verify::CacheStore* store = nullptr;
  // Cooperative cancellation: checked before every benchmark job and
  // propagated into each compile (see CompileServices::cancel). Benchmarks
  // stopped or skipped record error == "cancelled".
  const std::atomic<bool>* cancel = nullptr;
  // Progress observation: per-chain CHAIN_TICK/NEW_BEST events from inside
  // jobs (tagged with benchmark/setting) plus one JOB_DONE per finished
  // benchmark×setting job carrying its stats delta and wall time. Must be
  // thread-safe; exempt from the determinism guarantee only in timing.
  ProgressFn progress;
  uint64_t tick_every = 1024;
  // Per-JOB (whole batch) resource budget shared by every benchmark×setting
  // compile of the run (see CompileServices::budget): once exhausted,
  // remaining compiles stop their search at the first checkpoint and finish
  // with budget_exhausted == true in their per-job results — the batch
  // itself still completes normally (not `cancelled`). Null = unlimited.
  JobBudget* budget = nullptr;
};

class BatchCompiler {
 public:
  explicit BatchCompiler(BatchOptions opts);

  // Runs the whole batch; blocks until every job finished (the calling
  // thread helps drain the pool). Single-use: call run() once. A failing
  // benchmark task (e.g. a Z3 exception) is recorded in its
  // BatchBenchmarkResult::error instead of aborting the batch.
  BatchReport run() { return run(BatchServices{}); }

  // Same, but plugging into externally-owned services (see BatchServices).
  BatchReport run(const BatchServices& svc);

 private:
  BatchOptions opts_;
  bool ran_ = false;
};

}  // namespace k2::core
