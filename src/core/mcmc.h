// The Metropolis–Hastings search loop (§3): propose → test-case pruning →
// safety checking → (cached) equivalence checking → cost → accept/reject.
// Counterexamples from both the equivalence checker and the safety checker
// flow back into the shared test suite (Fig. 1).
//
// Speculative solver dispatch (ISSUE 2): with an AsyncSolverDispatcher
// wired in, a candidate whose equivalence verdict is still in flight does
// not stall the chain. The chain decides speculatively under the rejected
// (not-equal) assumption — the statistically common outcome — and pushes an
// undo-log frame snapshotting everything the decision touched (current
// program, cost, RNG state, window cursor, best-candidate trajectory,
// decision counters). Frames retire strictly in issue order: a verdict of
// "not equal" confirms the speculation and the frame is dropped; a verdict
// of EQUAL rolls the chain back to the frame's snapshot, replays the
// decision with the true verdict, and cancels every younger in-flight
// query. The undo-log is bounded by speculation_depth; a full log blocks
// the chain on its oldest verdict (backpressure toward the solver pool).
#pragma once

#include <atomic>
#include <optional>

#include "core/cost.h"
#include "core/params.h"
#include "core/progress.h"
#include "core/proposals.h"
#include "jit/exec_backend.h"
#include "safety/safety.h"
#include "verify/cache.h"
#include "verify/solver_dispatch.h"
#include "verify/window.h"

namespace k2::sim {
class PerfModel;
}

namespace k2::core {

struct ChainConfig {
  SearchParams params;
  Goal goal = Goal::INST_COUNT;
  ProposalRules rules;
  uint64_t iterations = 10'000;
  uint64_t seed = 1;
  verify::EqOptions eq;
  safety::SafetyOptions safety;
  // Interpreter step budget per test execution (RunOptions::max_insns).
  uint64_t max_insns = 1u << 20;
  // Execution engine for candidate test runs (jit/exec_backend.h). The JIT
  // backend is decision-neutral — bit-identical RunResults — so same-seed
  // chains pick the same winners under either engine.
  jit::ExecBackend exec_backend = jit::ExecBackend::FAST_INTERP;
  // Modular verification (§5 IV): mutate and verify within windows. Final
  // outputs are re-verified whole-program by the compiler driver.
  bool use_windows = false;
  int window_max_insns = 6;
  // Evaluation-pipeline execution-order optimizations. Both are
  // decision-preserving (same-seed chains make bit-identical accept/reject
  // decisions); disabling them reproduces the legacy inline evaluation
  // exactly, which the differential tests rely on.
  bool reorder_tests = true;
  bool early_exit = true;
  // Async solver dispatch: null or a zero-worker dispatcher keeps the chain
  // fully synchronous (bit-identical to PR 1). With workers, equivalence
  // queries overlap chain progress under speculation (see file comment);
  // speculation_depth bounds the undo-log (in-flight verdicts per chain).
  verify::AsyncSolverDispatcher* dispatcher = nullptr;
  int speculation_depth = 4;
  // Solver backend for equivalence queries (verify/solver_backend.h): null
  // solves in-process (bit-identical to the inline policy); a remote
  // backend farms queries to solve-worker processes. Shared by every chain;
  // must outlive the run.
  verify::SolverBackend* backend = nullptr;
  // Pluggable perf(p) backend (sim/perf_model.h), shared read-only by every
  // chain of a compile run; must outlive the chain and match `goal`. Null
  // falls back to core::perf_cost(goal, ...), which is bit-identical for
  // the INST_COUNT and STATIC_LATENCY kinds.
  const sim::PerfModel* perf_model = nullptr;
  // Cooperative cancellation + progress (see CompileServices). The chain
  // checks `cancel` once per iteration and stops within one checkpoint,
  // cancelling its in-flight speculative queries; `progress` (shared
  // read-only across chains, must be thread-safe) gets a CHAIN_TICK every
  // `tick_every` iterations and a NEW_BEST per best-candidate improvement,
  // tagged with `chain_index`. Neither consumes randomness or alters
  // decisions. Null/empty = inert.
  const std::atomic<bool>* cancel = nullptr;
  const ProgressFn* progress = nullptr;
  uint64_t tick_every = 0;  // 0 = no ticks
  int chain_index = -1;
  // Per-job resource budget shared by every chain of the run (see
  // core/progress.h). The chain charges one iteration at each checkpoint;
  // an exhausted budget stops the chain exactly like `cancel` (in-flight
  // speculative queries released, last non-speculative state returned).
  // Null = unlimited.
  JobBudget* budget = nullptr;
};

struct ChainStats {
  uint64_t proposals = 0;  // retired proposals (mis-speculated work excluded)
  uint64_t accepted = 0;
  uint64_t test_prunes = 0;     // proposals killed by the test suite
  uint64_t safety_rejects = 0;
  // Equivalence queries sent to the solver: solved inline in sync mode;
  // counted at submit time in async mode, where a few may later be
  // cancelled and abandoned unsolved (CompileResult::solver_abandoned).
  uint64_t solver_calls = 0;
  uint64_t safety_solver_calls = 0;  // safety checks settled by Z3
  uint64_t cache_hits = 0;
  // Pipeline observability (not part of the legacy-comparable set: the
  // legacy inline evaluation by construction has zero early exits). These
  // count work actually performed, including work later rolled back.
  uint64_t early_exits = 0;
  uint64_t tests_executed = 0;
  uint64_t tests_skipped = 0;
  // Speculation observability (async mode only; all zero in sync mode).
  uint64_t speculations = 0;        // decisions made on a pending verdict
  uint64_t pending_joins = 0;       // queries shared with another chain
  uint64_t rollbacks = 0;           // speculations the solver contradicted
  // JIT backend observability: prepared candidates that fell back to the
  // interpreter (always 0 under FAST_INTERP).
  uint64_t jit_bailouts = 0;
  uint64_t discarded_proposals = 0; // proposals undone by those rollbacks
  uint64_t best_iter = 0;
  double best_time_sec = 0;
  double total_time_sec = 0;
};

struct ChainResult {
  // Best verified (safe + equivalent) improvement over the source, if any;
  // still in slot form (NOPs not yet stripped).
  std::optional<ebpf::Program> best;
  double best_perf = 0;  // perf_cost of `best` relative to the source
  // Top verified candidates discovered along the way (perf_cost, program).
  std::vector<std::pair<double, ebpf::Program>> candidates;
  ChainStats stats;
};

ChainResult run_chain(const ebpf::Program& src, TestSuite& suite,
                      verify::EqCache& cache, const ChainConfig& cfg);

}  // namespace k2::core
