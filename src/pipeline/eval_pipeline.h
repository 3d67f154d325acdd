// The candidate evaluation pipeline (§3, Fig. 1): test-case pruning →
// static + solver safety → cached equivalence checking → cost. Extracted
// from the inline lambda that used to live in run_chain so the sequence is
// a first-class, measurable subsystem shared by chains and re-verification.
//
// Two execution-order optimizations, both decision-preserving:
//
//  * Fail-first ordering. The pipeline keeps its own permutation of the
//    shared suite and promotes the most-recently-killing test to the front,
//    so doomed candidates die on interpreter time, not solver time.
//
//  * Provable-rejection early exit. The chain draws its acceptance
//    uniform u *before* evaluation (the evaluation consumes no randomness,
//    so the RNG stream is unchanged) and hands it to the pipeline. While
//    tests execute, the pipeline tracks a lower bound on the final cost;
//    once even that bound caps the acceptance probability strictly below u,
//    the remaining tests cannot change the chain's decision and are
//    skipped. Exit is only taken after at least one test has failed — a
//    fully-passing candidate must still reach the verifier so best-program
//    tracking is unaffected — and costs of fully-evaluated candidates are
//    summed in canonical suite order, making same-seed chain decisions
//    bit-identical to the legacy inline evaluation.
//
// Asynchronous solver dispatch (ISSUE 2): when an AsyncSolverDispatcher is
// wired in and the caller passes a PendingEq out-parameter, an equivalence
// query that misses the cache no longer blocks. evaluate() submits the
// query to the solver pool (or joins another chain's identical in-flight
// query via the cache's PendingVerdict) and returns a *speculative* Eval —
// cost computed under the assumption the verdict will be "not equal", the
// statistically common outcome, with Eval::pending set. The chain keeps
// proposing from that assumption and later retires the speculation through
// poll()/resolve(), which deliver the corrected Eval once the real verdict
// lands (the chain rolls back via its undo-log if the solver says EQUAL —
// see core/mcmc.cc). cancel() detaches a speculation whose chain state was
// rolled away.
//
// Thread-safety: an EvalPipeline instance belongs to ONE chain (thread).
// evaluate()/poll()/resolve()/cancel() and stats() must be called from that
// thread only; the shared TestSuite, EqCache and AsyncSolverDispatcher they
// touch are themselves thread-safe. evaluate() blocks on Z3 only in the
// synchronous path; poll() never blocks; resolve() blocks until the solver
// pool publishes the verdict.
#pragma once

#include <atomic>
#include <limits>
#include <optional>

#include "core/cost.h"
#include "core/params.h"
#include "jit/exec_backend.h"
#include "pipeline/exec_context.h"
#include "safety/safety.h"
#include "verify/cache.h"
#include "verify/solver_dispatch.h"
#include "verify/window.h"

namespace k2::sim {
class PerfModel;
}

namespace k2::pipeline {

struct EvalConfig {
  core::SearchParams params;
  core::Goal goal = core::Goal::INST_COUNT;
  verify::EqOptions eq;
  safety::SafetyOptions safety;
  // Window-mode search defers solver-backed safety to final re-verification
  // (same rule the legacy inline evaluation applied).
  bool window_mode = false;
  bool reorder_tests = true;
  bool early_exit = true;
  // Interpreter step budget per test execution (RunOptions::max_insns),
  // plumbed from CompileOptions / k2c --max-insns.
  uint64_t max_insns = 1u << 20;
  // Which engine runs candidates against the suite (jit/exec_backend.h):
  // the fast interpreter (default, the reference semantics) or the x86-64
  // template JIT with automatic per-program interpreter fallback. Plumbed
  // from CompileOptions / k2c --exec-backend. Decision-neutral by
  // construction: the JIT is differentially fuzzed to produce bit-identical
  // RunResults, so same-seed searches pick the same winners either way.
  jit::ExecBackend exec_backend = jit::ExecBackend::FAST_INTERP;
  // Non-null + dispatcher->async(): equivalence queries go through the
  // solver pool when the caller opts in per-call (see evaluate()). Null or
  // a zero-worker dispatcher reproduces the synchronous PR 1 path exactly.
  verify::AsyncSolverDispatcher* dispatcher = nullptr;
  // Where equivalence queries actually solve (verify/solver_backend.h):
  // null runs solve_query_local in-process — bit-identical to the legacy
  // inline policy; a RemoteSolverBackend farms queries to solve-worker
  // processes. Applies to both the synchronous path and dispatched tasks.
  // Final re-verification (core/compiler.cc) ignores it by design.
  verify::SolverBackend* backend = nullptr;
  // Pluggable perf(p) backend for the cost stage (sim/perf_model.h). The
  // model must outlive the pipeline and be goal-consistent with `goal`.
  // Null falls back to core::perf_cost(goal, ...) — bit-identical to the
  // INST_COUNT / STATIC_LATENCY backends, so legacy callers are unchanged.
  const sim::PerfModel* perf_model = nullptr;
  // Cooperative cancellation checkpoint (api::CompilerService): when the
  // flag is set, evaluate() returns a rejected Eval immediately instead of
  // running tests or (crucially) a Z3 query that could park the thread for
  // its full timeout budget. The flag is only consulted, never written; an
  // unset flag leaves evaluation bit-identical.
  const std::atomic<bool>* cancel = nullptr;
};

struct EvalStats {
  uint64_t test_prunes = 0;     // candidates killed by the test suite
  uint64_t safety_rejects = 0;
  uint64_t solver_calls = 0;    // queries solved inline (sync) or submitted
                                // to the dispatcher (async; submit-time
                                // count — cancellation may abandon a few)
  uint64_t safety_solver_calls = 0;  // safety checks the pre-pass left to Z3
  uint64_t cache_hits = 0;
  uint64_t early_exits = 0;     // test loops cut short by provable rejection
  uint64_t tests_executed = 0;
  uint64_t tests_skipped = 0;   // tests the early exit avoided
  // Async dispatch observability:
  uint64_t speculations = 0;    // evaluations returned with pending verdicts
  uint64_t pending_joins = 0;   // queries shared with another chain in flight
  // JIT backend observability: prepared candidates that fell back to the
  // interpreter (unsupported helper / oversized program / no executable
  // memory). Always 0 under FAST_INTERP.
  uint64_t jit_bailouts = 0;
};

struct Eval {
  double cost = 0;
  bool verified = false;       // safe && formally equivalent
  bool rejected_early = false; // cost is +inf sentinel, decision pinned
  bool pending = false;        // async: cost assumes NOT_EQUAL; verdict in
                               // flight, retire via poll()/resolve()
};

// The chain's pre-drawn accept decision, exposed to the pipeline so it can
// prove rejection mid-evaluation. Inactive by default (u < 0).
struct RejectGate {
  double cur_cost = 0;  // cost of the chain's current program
  double u = -1;        // the acceptance uniform for this proposal
  double mcmc_beta = 0;
  bool active() const { return u > 0 && mcmc_beta > 0; }
};

// Handle for one speculated equivalence verdict: the in-flight query plus
// everything finalize needs to turn the real verdict into a corrected Eval
// (the test evaluation and perf term were computed before dispatch and do
// not change). Obtained from evaluate(); consumed by exactly one of
// poll()-returning-a-value, resolve(), or cancel().
struct PendingEq {
  verify::PendingHandle ticket;
  verify::EqCache::Key key;
  ebpf::Program cand;  // this chain's candidate, for cex confirmation —
                       // chains sharing one query confirm against their own
  core::TestEval te;
  double perf = 0;
  bool valid() const { return ticket != nullptr; }
};

class EvalPipeline {
 public:
  EvalPipeline(const ebpf::Program& src, core::TestSuite& suite,
               verify::EqCache& cache, const EvalConfig& cfg);

  // Evaluates one candidate against the full chain: tests, safety (with the
  // kernel-checker constraint fold-in, §6), cached equivalence (window
  // query first when `win` covers the mutation), and the §3.2 cost.
  // Counterexamples from the safety and equivalence checkers are appended
  // to the shared suite, exactly as the legacy inline evaluation did.
  //
  // `pending` opts into asynchronous dispatch: when non-null and a
  // dispatcher with workers is configured, a cache-missing equivalence
  // query is submitted to the solver pool instead of blocking, `*pending`
  // is filled, and the returned Eval carries `pending == true` with the
  // cost computed under the rejected (not-equal) assumption. With a null
  // `pending` (or no dispatcher) the call is fully synchronous and
  // bit-identical to the PR 1 pipeline.
  //
  // `touched` is the instruction range the proposal mutated (from
  // ProposalGen::propose): the per-worker decoded program is patched in
  // place instead of re-decoded. Null forces a full decode — required for
  // the first evaluation of a chain and after any discontinuous program
  // change (the chain's speculative rollback calls ctx.runner.invalidate()
  // for the same reason).
  Eval evaluate(const ebpf::Program& cand,
                const std::optional<verify::WindowSpec>& win,
                const RejectGate& gate, ExecContext& ctx,
                PendingEq* pending = nullptr,
                const ebpf::InsnRange* touched = nullptr);

  // Retires a speculation. poll() never blocks: nullopt while the solver is
  // still working, the corrected Eval once the verdict landed. resolve()
  // blocks until the verdict lands. Both confirm and append the solver's
  // counterexample (if any) to the shared suite, then invalidate `p`.
  std::optional<Eval> poll(PendingEq& p, ExecContext& ctx);
  Eval resolve(PendingEq& p, ExecContext& ctx);

  // Abandons a speculation whose chain state was rolled back: detaches this
  // chain from the in-flight query (the query itself is skipped only when
  // no other chain still waits on it) and invalidates `p`.
  void cancel(PendingEq& p);

  const EvalStats& stats() const { return stats_; }

  static constexpr double kRejectedCost =
      std::numeric_limits<double>::infinity();

 private:
  // Runs the suite in fail-first order through the batched fast-interpreter
  // entry point (interp::SuiteRunner::run_suite over the pre-decoded
  // candidate); fills te and ctx.diffs. Returns true when the loop exited
  // early under `gate`.
  bool run_suite(const ebpf::Program& cand, double perf,
                 const RejectGate& gate, ExecContext& ctx,
                 core::TestEval& te, const ebpf::InsnRange* touched);

  // Appends a solver counterexample to the shared suite iff the interpreter
  // confirms the disagreement between src_ and `cand`.
  void confirm_cex(const ebpf::Program& cand, const interp::InputSpec& cex,
                   ExecContext& ctx);

  // Turns the real verdict into the corrected Eval for a speculation.
  Eval finalize(PendingEq& p, const verify::EqResult& eq, ExecContext& ctx);

  const ebpf::Program& src_;
  core::TestSuite& suite_;
  verify::EqCache& cache_;
  EvalConfig cfg_;
  EvalStats stats_;
  std::vector<uint32_t> order_;  // fail-first permutation of suite indices
};

}  // namespace k2::pipeline
