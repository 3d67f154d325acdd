// The K2 compiler driver (§8 setup): parallel Markov chains over the
// parameter settings, shared test suite + equivalence cache, top-k
// selection, final whole-program re-verification, and the kernel-checker
// post-processing pass (§6).
#pragma once

#include <atomic>
#include <optional>

#include "core/mcmc.h"
#include "core/progress.h"
#include "jit/exec_backend.h"
#include "kernel/kernel_checker.h"
#include "scenario/scenario.h"

namespace k2::sim {
enum class PerfModelKind : uint8_t;
}

namespace k2::pipeline {
class ThreadPool;
}

namespace k2::core {

struct CompileOptions {
  Goal goal = Goal::INST_COUNT;
  std::vector<SearchParams> settings;  // defaults to default_settings()
  int num_chains = 4;                  // paper uses 16 (one per setting)
  uint64_t iters_per_chain = 10'000;
  int top_k = 1;
  int num_initial_tests = 24;
  uint64_t seed = 0x6b32;  // "k2"
  // Window-based search for programs above this many instructions; set
  // force_windows to override (Table 4's optimization IV ablation).
  int window_threshold = 40;
  std::optional<bool> force_windows;
  ProposalRules rules;
  verify::EqOptions eq;
  safety::SafetyOptions safety;
  // Interpreter step budget per candidate test execution
  // (RunOptions::max_insns; k2c --max-insns=N). Applies to candidate
  // evaluation; the suite's cached source outputs use the interpreter
  // default so a budget change cannot silently redefine expected outputs.
  uint64_t max_insns = 1u << 20;
  // Execution engine for candidate test runs (jit/exec_backend.h; k2c
  // --exec-backend=fast|jit). The JIT is decision-neutral: bit-identical
  // RunResults, so same-seed compiles pick the same winners either way.
  // Programs the JIT cannot translate fall back per-program to the fast
  // interpreter (counted in CompileResult::jit_bailouts).
  jit::ExecBackend exec_backend = jit::ExecBackend::FAST_INTERP;
  int threads = 4;
  // Evaluation-pipeline knobs, forwarded to every chain (see ChainConfig).
  bool reorder_tests = true;
  bool early_exit = true;
  // Async solver dispatch (ISSUE 2): number of dedicated Z3 worker threads
  // shared by all chains. 0 = synchronous equivalence checking, bit-identical
  // to PR 1. With workers, chains speculate past in-flight verdicts under a
  // bounded undo-log (speculation_depth frames per chain; see core/mcmc.h).
  int solver_workers = 0;
  int speculation_depth = 4;
  // Performance-model backend for the cost stage (sim/perf_model.h). Unset
  // derives the backend from `goal` — INST_COUNT for Goal::INST_COUNT,
  // STATIC_LATENCY for Goal::LATENCY — which is bit-identical to the
  // pre-backend perf_cost path. PerfModelKind::TRACE_LATENCY selects the
  // interpreter-traced workload estimator (k2c --perf-model=latency) and
  // should be paired with Goal::LATENCY.
  std::optional<sim::PerfModelKind> perf_model;
  // Traffic scenario for the TRACE_LATENCY cost stage (src/scenario; k2c
  // --scenario=<name|file>, CompileRequest.scenario). The scenario is
  // expanded into the trace workload the estimator prices candidates
  // against; the initial *test suite* (generate_tests) always uses the
  // default scenario so correctness testing and equivalence outcomes stay
  // scenario-independent — a scenario steers which candidate wins, never
  // what counts as equivalent. The default-constructed value (the `default`
  // catalog scenario) is bit-identical to the legacy make_workload mix, so
  // leaving this untouched preserves pre-scenario behavior exactly.
  scenario::Scenario scenario = scenario::default_scenario();
  // Persistent equivalence-cache directory (k2c --cache-dir). Non-empty:
  // settled verdicts are loaded from disk at start and written through on
  // every solve, so a repeated identical run warm-starts with zero Z3
  // queries for already-settled pairs. Ignored when CompileServices::cache
  // is external — the cache's owner decides whether/where it persists.
  // A store that fails to open is an error (compile() throws): an explicit
  // cache request silently falling back to cold solving would be the worst
  // of both worlds.
  std::string cache_dir;
  // Remote solver farm (k2c --solver-endpoints): unix-socket paths (or
  // "fd:N" for tests) of k2-solve/v1 workers. Empty = all equivalence
  // queries solve in-process, bit-identical to earlier PRs. Ignored when
  // CompileServices::backend is external.
  std::vector<std::string> solver_endpoints;
  // Portfolio width for the remote backend: race each query on up to this
  // many endpoints with varied Z3 tactic configs; first definitive verdict
  // wins. > 1 trades run-to-run determinism for latency.
  int portfolio = 1;
};

// Externally-owned services a compile run plugs into instead of building
// its own — how core::BatchCompiler shares one solver pool and one
// per-benchmark equivalence cache across many benchmark×setting jobs.
// Null members are replaced by run-local instances, so a
// default-constructed CompileServices reproduces the standalone
// compile(src, opts) behavior exactly.
//
// Lifetime: every non-null service must outlive the compile() call; the
// dispatcher must outlive every in-flight query it was handed (it joins its
// workers on destruction).
struct CompileServices {
  // Shared async Z3 pool. When external, the dispatcher-level counters
  // (CompileResult::solver_queue_peak/solver_timeouts/solver_abandoned)
  // are left at zero — they aggregate across every sharing run and are
  // reported batch-wide by the owner instead.
  verify::AsyncSolverDispatcher* dispatcher = nullptr;
  // Shared equivalence-outcome cache. CompileResult::cache reports this
  // run's delta (stats-after minus stats-before), so sharing runs that
  // execute sequentially still get exact per-run numbers.
  verify::EqCache* cache = nullptr;
  // Shared solver backend (verify/solver_backend.h) routing chain-level
  // equivalence queries, e.g. one RemoteSolverBackend over a solver farm.
  // Null + empty opts.solver_endpoints = in-process solve_query_local.
  // Final re-verification always solves locally regardless — remote
  // workers are untrusted accelerators, not part of the trust anchor.
  verify::SolverBackend* backend = nullptr;
  // Shared persistent cache store already opened by the owner. When set it
  // is attached to the run-local cache (no-op if `cache` is also external —
  // the external cache's owner attaches stores itself). Overrides
  // opts.cache_dir.
  verify::CacheStore* store = nullptr;
  // Shared work-stealing pool for parallel-mode chain execution and final
  // re-verification, replacing the run-local pool of `opts.threads`
  // workers — so a service hosting many jobs keeps ONE pool process-wide
  // instead of nesting pools. Ignored in sequential mode. run_all is
  // re-entrant, so a compile() running *on* a worker of this pool is safe.
  pipeline::ThreadPool* pool = nullptr;
  // Deterministic single-threaded mode: chains run in index order on the
  // calling thread and final re-verification runs inline (no thread pool is
  // created), so a same-seed run produces bit-identical decisions, programs
  // and counters on every invocation — regardless of how many such runs
  // execute concurrently on other threads. This is what makes batch results
  // reproducible across shard orders and --threads values; the trade is
  // that one run no longer parallelizes internally (the batch layer shards
  // *across* runs instead). Wall-clock fields (total_secs, secs_to_best)
  // are exempt from the determinism guarantee. Requires solver_workers ==
  // 0 for full determinism: speculative async verdict timing is inherently
  // scheduling-dependent.
  bool sequential = false;
  // Cooperative cancellation (api::CompilerService::cancel). Non-null: the
  // run checks the flag at chain-iteration checkpoints, before each
  // candidate evaluation, and between final-verification candidates; once
  // set, chains stop within one iteration, in-flight speculative solver
  // queries are released, and compile() returns a partial CompileResult
  // with `cancelled == true` (best-so-far NOT re-verified — callers must
  // treat a cancelled result as unverified). Checking the flag consumes no
  // randomness, so an unset flag leaves results bit-identical.
  const std::atomic<bool>* cancel = nullptr;
  // Progress observation (core/progress.h): CHAIN_TICK every `tick_every`
  // chain iterations plus NEW_BEST on best-candidate improvements. Must be
  // thread-safe (chains run concurrently unless `sequential`) and is exempt
  // from the determinism guarantee only in its own invocation timing —
  // attaching it never changes search results. Empty = no events.
  ProgressFn progress;
  uint64_t tick_every = 1024;
  // Per-job resource budget (core/progress.h), armed by the owner before
  // the run. Exhaustion stops the search like `cancel` — chains halt within
  // one iteration checkpoint — but UNLIKE cancel the final whole-program
  // re-verification of candidates found so far still runs, so the result is
  // verified and truthful: the job finishes normally (not `cancelled`) with
  // CompileResult::budget_exhausted == true. One budget may be shared
  // across every compile of a batch run (the caps are job-wide totals).
  // Null = unlimited.
  JobBudget* budget = nullptr;
};

struct CompileResult {
  ebpf::Program best;          // NOP-stripped; == src when nothing improved
  bool improved = false;
  // True when the run was stopped by CompileServices::cancel before
  // completing. Counters are the partial totals at the stop point; `best`
  // falls back to the (stripped) source and `top_k` holds only candidates
  // that finished full re-verification before the stop — never unverified
  // programs.
  bool cancelled = false;
  // True when CompileServices::budget ran out before the search completed.
  // Unlike `cancelled`, the result IS fully re-verified — budget exhaustion
  // stops the search early but never skips final verification — so `best`
  // and `top_k` are trustworthy; only the search was truncated.
  bool budget_exhausted = false;
  std::vector<ebpf::Program> top_k;  // fully re-verified, checker-accepted

  double src_perf = 0;   // absolute metric of the source (slots or est. ns)
  double best_perf = 0;  // absolute metric of `best`
  uint64_t iters_to_best = 0;
  double secs_to_best = 0;
  double total_secs = 0;

  verify::EqCache::Stats cache;
  uint64_t solver_calls = 0;
  // In-search safety checks the dataflow pre-pass could not prove and Z3
  // settled (safety::SafetyResult::used_solver).
  uint64_t safety_solver_calls = 0;
  uint64_t total_proposals = 0;
  size_t final_tests = 0;
  // Evaluation-pipeline totals across chains.
  uint64_t early_exits = 0;
  uint64_t tests_executed = 0;
  uint64_t tests_skipped = 0;
  // Async solver dispatch totals (all zero when solver_workers == 0).
  uint64_t speculations = 0;        // chain decisions made on pending verdicts
  uint64_t pending_joins = 0;       // queries deduplicated across chains
  uint64_t rollbacks = 0;           // speculations contradicted by the solver
  uint64_t discarded_proposals = 0; // proposals undone by those rollbacks
  uint64_t solver_queue_peak = 0;   // high-water mark of the dispatch queue
  uint64_t solver_timeouts = 0;     // async queries that returned UNKNOWN
  uint64_t solver_abandoned = 0;    // cancelled queries skipped before solving
  // JIT backend: prepared candidates that fell back to the interpreter
  // (unsupported helper / oversized / no executable memory). Always 0 under
  // FAST_INTERP.
  uint64_t jit_bailouts = 0;

  // Kernel-checker post-processing statistics (Table 5).
  int kernel_accepted = 0;
  int kernel_rejected = 0;

  // Workload provenance: the scenario this run priced candidates under
  // (CompileOptions::scenario's name) and its content fingerprint
  // (scenario::Scenario::fingerprint — semantic fields only, so a catalog
  // entry and an identical file fingerprint the same). Recorded in the
  // CompileResult JSON, batch reports, and serve metrics.
  std::string scenario;
  std::string scenario_fingerprint;
};

// The perf-model backend a compile with these options actually uses: the
// explicit CompileOptions::perf_model when set, else derived from the goal
// (INST_COUNT for Goal::INST_COUNT, STATIC_LATENCY for Goal::LATENCY — the
// bit-identical pre-backend behavior). The single source of truth shared by
// compile(), the batch report's perf_model field, and the k2c banner.
sim::PerfModelKind resolved_perf_model(const CompileOptions& opts);

// Deterministic initial test generation (§3: "evaluated against a suite of
// automatically-generated test cases").
std::vector<interp::InputSpec> generate_tests(const ebpf::Program& src, int n,
                                              uint64_t seed);

CompileResult compile(const ebpf::Program& src,
                      const CompileOptions& opts = {});

// Same, but running against externally-owned shared services (see
// CompileServices). compile(src, opts) is compile(src, opts, {}).
CompileResult compile(const ebpf::Program& src, const CompileOptions& opts,
                      const CompileServices& svc);

}  // namespace k2::core
