#include "pipeline/eval_pipeline.h"

#include <cmath>

#include "interp/interpreter.h"
#include "kernel/kernel_checker.h"
#include "sim/perf_model.h"

namespace k2::pipeline {

namespace {

constexpr double kErrMax = 100.0;  // safety cost of unsafe programs (§3.2)

// Margin for the early-exit proof: the test-cost lower bound is compared
// against the acceptance uniform with this much slack so floating-point
// reordering of partial sums can never flip a decision the full evaluation
// would have made differently.
constexpr double kExitMargin = 1e-9;

// One equivalence question in its self-contained form; the query policy
// itself (window first, whole-program fallback) lives in
// verify::solve_query_local so the sync path, the dispatcher workers, and
// remote solve-workers run literally the same code.
verify::SolveQuery make_query(const ebpf::Program& src,
                              const ebpf::Program& cand,
                              const std::optional<verify::WindowSpec>& win,
                              const verify::EqOptions& opts) {
  verify::SolveQuery q;
  q.src = src;
  q.cand = cand;
  q.win = win;
  q.eq = opts;
  return q;
}

}  // namespace

EvalPipeline::EvalPipeline(const ebpf::Program& src, core::TestSuite& suite,
                           verify::EqCache& cache, const EvalConfig& cfg)
    : src_(src), suite_(suite), cache_(cache), cfg_(cfg) {}

bool EvalPipeline::run_suite(const ebpf::Program& cand, double perf,
                             const RejectGate& gate, ExecContext& ctx,
                             core::TestEval& te,
                             const ebpf::InsnRange* touched) {
  const size_t n = suite_.size();
  while (order_.size() < n) order_.push_back(uint32_t(order_.size()));

  ctx.diffs.assign(n, 0.0);
  ctx.run_opts.max_insns = cfg_.max_insns;
  // Decode once (or patch the 1-2 slots the proposal touched), then run the
  // whole batch through the selected execution backend with arena-backed
  // machine reuse. The runner is thread-local (worker_context) and shared
  // across chains, so re-select the configured backend every evaluation —
  // a no-op when unchanged. Bailout accounting is delta-based for the same
  // reason: the runner's counter is cumulative across chains.
  ctx.runner.select(cfg_.exec_backend);
  const uint64_t bailouts_before = ctx.runner.jit_bailouts();
  ctx.runner.prepare(cand, touched);
  stats_.jit_bailouts += ctx.runner.jit_bailouts() - bailouts_before;
  ctx.batch.clear();
  for (size_t p = 0; p < n; ++p)
    ctx.batch.push_back(interp::SuiteTest{&suite_.test(order_[p]), nullptr});

  const double c_min =
      cfg_.params.avg_by_tests && n > 0 ? 1.0 / double(n) : 1.0;
  double running = 0;  // partial diff sum, execution order
  size_t first_fail = size_t(-1);
  bool exited = false;

  // Per-test bookkeeping and the provable-rejection gate live in the batch
  // callback; returning false is the early exit. The decision arithmetic is
  // unchanged from the per-test interp::run loop this replaces.
  ctx.runner.run_suite(
      ctx.batch, /*until_first_fail=*/false, ctx.run_opts,
      [&](uint32_t p, const interp::RunResult& r) -> bool {
        uint32_t i = order_[p];
        double d = suite_.diff_on(i, r, cfg_.params.diff);
        stats_.tests_executed++;
        ctx.diffs[i] = d;
        running += d;
        if (d == 0) {
          te.passed++;
        } else {
          te.failed++;
          if (first_fail == size_t(-1)) first_fail = p;
        }
        // Provable rejection: even the cost lower bound (error term from
        // the tests run so far, exact perf term, safety term >= 0) caps the
        // acceptance probability strictly below the pre-drawn uniform.
        // Gated on a failed test so fully-passing candidates always reach
        // the verifier.
        if (cfg_.early_exit && te.failed > 0 && gate.active() && p + 1 < n) {
          double lb = cfg_.params.alpha * (c_min * running) +
                      cfg_.params.beta * perf;
          double p_ub =
              std::min(1.0, std::exp(-gate.mcmc_beta * (lb - gate.cur_cost)));
          if (gate.u > p_ub * (1.0 + kExitMargin)) {
            stats_.tests_skipped += n - 1 - p;
            exited = true;
            return false;
          }
        }
        return true;
      });

  // Promote the killing test: the next doomed candidate dies on test one.
  if (cfg_.reorder_tests && first_fail != size_t(-1) && first_fail > 0) {
    uint32_t idx = order_[first_fail];
    order_.erase(order_.begin() + ptrdiff_t(first_fail));
    order_.insert(order_.begin(), idx);
  }

  if (!exited) {
    // Sum in canonical suite order so the cost is bit-identical no matter
    // what order the tests actually executed in.
    te.diff_sum = 0;
    for (size_t i = 0; i < n; ++i) te.diff_sum += ctx.diffs[i];
    te.all_passed = te.failed == 0;
  }
  return exited;
}

Eval EvalPipeline::evaluate(const ebpf::Program& cand,
                            const std::optional<verify::WindowSpec>& win,
                            const RejectGate& gate, ExecContext& ctx,
                            PendingEq* pending,
                            const ebpf::InsnRange* touched) {
  Eval ev;
  // Cancellation checkpoint: a cancelled run's decisions no longer matter,
  // so skip the test suite and — the expensive part — any solver query.
  if (cfg_.cancel && cfg_.cancel->load(std::memory_order_relaxed)) {
    ev.cost = kRejectedCost;
    ev.rejected_early = true;
    return ev;
  }
  // The perf term comes from the pluggable backend when one is wired in;
  // ctx.machine is lent as scratch so trace-based backends reuse the
  // worker's interpreter state (the legacy machine, not the runner's, so
  // workload runs never disturb the fast path's dirty-region bookkeeping).
  double perf = cfg_.perf_model
                    ? cfg_.perf_model->relative(cand, src_, &ctx.machine)
                    : core::perf_cost(cfg_.goal, cand, src_);
  core::TestEval te;
  if (run_suite(cand, perf, gate, ctx, te, touched)) {
    stats_.early_exits++;
    stats_.test_prunes++;
    ev.cost = kRejectedCost;
    ev.rejected_early = true;
    return ev;
  }

  bool unequal = true;
  double safe_cost = 0;
  if (!te.all_passed) {
    stats_.test_prunes++;
  } else {
    // Static safety first (cheap); solver-backed checks in full mode.
    safety::SafetyOptions sopt = cfg_.safety;
    sopt.run_solver_checks =
        cfg_.safety.run_solver_checks && !cfg_.window_mode;
    safety::SafetyResult sres = safety::check_safety(cand, sopt);
    if (sres.used_solver) stats_.safety_solver_calls++;
    // Checker-specific constraints (§6): K2's FOL safety is more precise
    // than the kernel checker (e.g. it knows packets are >= 14 bytes and
    // that an uninitialized stack read whose value is dead is harmless),
    // so a candidate can be K2-safe yet unloadable. Folding the checker's
    // static rules into the safety cost here is the paper's "we added
    // these checks on-demand, as we encountered programs that failed to
    // load" — and it is what makes all final outputs pass the checker
    // without post-filtering (Table 5).
    if (sres.safe && !kernel::kernel_check(cand).accepted) {
      sres.safe = false;
      sres.reason = "rejected by checker-specific constraints";
    }
    if (!sres.safe) {
      stats_.safety_rejects++;
      safe_cost = kErrMax;
      if (sres.cex) suite_.add(*sres.cex);  // prune similar ones cheaply
    } else if (pending && cfg_.dispatcher && cfg_.dispatcher->async()) {
      // Asynchronous dispatch: claim the cache slot; on a miss, queue the
      // solver call (or join another chain's identical in-flight query) and
      // return speculatively under the not-equal assumption.
      verify::EqCache::Key key = verify::EqCache::key_for(src_, cand);
      verify::EqCache::Claim cl = cache_.claim(key);
      if (cl.verdict) {
        stats_.cache_hits++;
        // A disk-tier NOT_EQUAL hit replays the persisted counterexample
        // exactly once — the suite evolves as if the cold run's solve had
        // just happened here.
        if (cl.replay_cex) confirm_cex(cand, *cl.replay_cex, ctx);
        unequal = *cl.verdict != verify::Verdict::EQUAL;
        ev.verified = !unequal;
      } else if (!cl.pending) {
        // The 64-bit slot is busy with a different program's in-flight
        // query (fingerprint collision): solve synchronously, uncached.
        stats_.solver_calls++;
        verify::SolveQuery q = make_query(src_, cand, win, cfg_.eq);
        verify::EqResult eq =
            cfg_.backend ? cfg_.backend->solve(q) : verify::solve_query_local(q);
        unequal = eq.verdict != verify::Verdict::EQUAL;
        if (eq.cex) confirm_cex(cand, *eq.cex, ctx);
        ev.verified = !unequal;
      } else {
        if (cl.owner) {
          stats_.solver_calls++;
          // The deferred solve is a self-contained SolveQuery (owns copies
          // of both programs), so nothing captures `this` — the pipeline
          // may die before the worker runs it.
          cfg_.dispatcher->submit(cache_, key, cl.pending,
                                  make_query(src_, cand, win, cfg_.eq),
                                  cfg_.backend);
        } else {
          stats_.pending_joins++;
        }
        stats_.speculations++;
        pending->ticket = cl.pending;
        pending->key = key;
        pending->cand = cand;
        pending->te = te;
        pending->perf = perf;
        ev.pending = true;
        // `unequal` stays true: the speculative cost assumes NOT_EQUAL.
      }
    } else {
      verify::EqCache::Key key = verify::EqCache::key_for(src_, cand);
      verify::EqCache::Hit hinfo;
      if (auto hit = cache_.lookup(key, &hinfo)) {
        stats_.cache_hits++;
        // Disk-tier replay-once (see the async branch above).
        if (hinfo.replay_cex) confirm_cex(cand, *hinfo.replay_cex, ctx);
        unequal = *hit != verify::Verdict::EQUAL;
      } else {
        stats_.solver_calls++;
        verify::SolveQuery q = make_query(src_, cand, win, cfg_.eq);
        verify::EqResult eq =
            cfg_.backend ? cfg_.backend->solve(q) : verify::solve_query_local(q);
        cache_.insert(key, eq.verdict, eq.cex ? &*eq.cex : nullptr);
        unequal = eq.verdict != verify::Verdict::EQUAL;
        if (eq.cex) confirm_cex(cand, *eq.cex, ctx);
      }
      ev.verified = !unequal;
    }
  }
  double err = core::error_cost(cfg_.params, te, unequal);
  ev.cost = cfg_.params.alpha * err + cfg_.params.beta * perf +
            cfg_.params.gamma * safe_cost;
  return ev;
}

void EvalPipeline::confirm_cex(const ebpf::Program& cand,
                               const interp::InputSpec& cex,
                               ExecContext& ctx) {
  // Only keep counterexamples the interpreter confirms, guarding against
  // encoder/interpreter drift.
  interp::RunResult r1 = interp::run(src_, cex, ctx.run_opts, ctx.machine);
  interp::RunResult r2 = interp::run(cand, cex, ctx.run_opts, ctx.machine);
  if (!interp::outputs_equal(src_.type, r1, r2)) suite_.add(cex);
}

Eval EvalPipeline::finalize(PendingEq& p, const verify::EqResult& eq,
                            ExecContext& ctx) {
  bool unequal = eq.verdict != verify::Verdict::EQUAL;
  // Chains sharing one query each confirm against their own candidate.
  if (eq.cex) confirm_cex(p.cand, *eq.cex, ctx);
  Eval ev;
  // The candidate reached the verifier, so it passed every test and the
  // safety checker: the γ·safe term is zero and te/perf are unchanged from
  // dispatch time — only the equivalence term needed the real verdict.
  double err = core::error_cost(cfg_.params, p.te, unequal);
  ev.cost = cfg_.params.alpha * err + cfg_.params.beta * p.perf;
  ev.verified = !unequal;
  p.ticket.reset();
  return ev;
}

std::optional<Eval> EvalPipeline::poll(PendingEq& p, ExecContext& ctx) {
  std::optional<verify::EqResult> r = p.ticket->poll();
  if (!r) return std::nullopt;
  return finalize(p, *r, ctx);
}

Eval EvalPipeline::resolve(PendingEq& p, ExecContext& ctx) {
  verify::EqResult r = p.ticket->wait();
  return finalize(p, r, ctx);
}

void EvalPipeline::cancel(PendingEq& p) {
  if (cfg_.dispatcher) cfg_.dispatcher->cancel(p.ticket);
  p.ticket.reset();
}

}  // namespace k2::pipeline
