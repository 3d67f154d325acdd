#include "core/mcmc.h"

#include <chrono>
#include <cmath>
#include <deque>

#include "pipeline/eval_pipeline.h"
#include "sim/perf_model.h"

namespace k2::core {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ChainResult run_chain(const ebpf::Program& src, TestSuite& suite,
                      verify::EqCache& cache, const ChainConfig& cfg) {
  ChainResult result;
  ChainStats& st = result.stats;
  auto t0 = Clock::now();
  std::mt19937_64 rng(cfg.seed);

  std::vector<verify::WindowSpec> windows;
  if (cfg.use_windows) {
    windows = verify::select_windows(src, cfg.window_max_insns);
    if (windows.empty()) windows.push_back(verify::WindowSpec{0, 0});
  }

  // The propose→test→safety→cache→eqcheck→cost sequence lives in the
  // evaluation pipeline; this loop owns only proposal generation, the
  // Metropolis–Hastings accept decision, and (in async mode) the undo-log
  // that lets the chain run ahead of in-flight solver verdicts.
  pipeline::EvalConfig ecfg;
  ecfg.params = cfg.params;
  ecfg.goal = cfg.goal;
  ecfg.eq = cfg.eq;
  ecfg.safety = cfg.safety;
  ecfg.window_mode = cfg.use_windows;
  ecfg.reorder_tests = cfg.reorder_tests;
  ecfg.early_exit = cfg.early_exit;
  ecfg.max_insns = cfg.max_insns;
  ecfg.exec_backend = cfg.exec_backend;
  ecfg.dispatcher = cfg.dispatcher;
  ecfg.backend = cfg.backend;
  ecfg.perf_model = cfg.perf_model;
  ecfg.cancel = cfg.cancel;
  pipeline::EvalPipeline pipe(src, suite, cache, ecfg);
  pipeline::ExecContext& ctx = pipeline::worker_context();

  // Max in-flight speculated verdicts. Zero = fully synchronous chain,
  // bit-identical to PR 1 (the pipeline never sees a PendingEq slot).
  const size_t spec_depth =
      cfg.dispatcher && cfg.dispatcher->async() && cfg.speculation_depth > 0
          ? size_t(cfg.speculation_depth)
          : 0;

  auto consider_best = [&](const ebpf::Program& cand, uint64_t iter) {
    double perf = cfg.perf_model
                      ? cfg.perf_model->relative(cand, src, &ctx.machine)
                      : perf_cost(cfg.goal, cand, src);
    if (!result.best || perf < result.best_perf) {
      result.best = cand;
      result.best_perf = perf;
      st.best_iter = iter;
      st.best_time_sec =
          std::chrono::duration<double>(Clock::now() - t0).count();
      result.candidates.emplace_back(perf, cand);
      if (result.candidates.size() > 16)
        result.candidates.erase(result.candidates.begin());
      if (cfg.progress && *cfg.progress) {
        ProgressEvent ev;
        ev.kind = ProgressEvent::Kind::NEW_BEST;
        ev.chain = cfg.chain_index;
        ev.iter = iter;
        ev.proposals = st.proposals;
        ev.perf = perf;
        (*cfg.progress)(ev);
      }
    }
  };

  ebpf::Program cur = src;
  std::optional<verify::WindowSpec> cur_win;
  size_t win_idx = 0;
  uint64_t iters_per_window =
      windows.empty() ? cfg.iterations
                      : std::max<uint64_t>(1, cfg.iterations / windows.size());

  if (cfg.use_windows && !windows.empty() && windows[0].end > 0)
    cur_win = windows[0];
  ProposalGen gen(src, cfg.params, cfg.rules, cur_win);
  pipeline::Eval cur_eval =
      pipe.evaluate(cur, cur_win, pipeline::RejectGate{}, ctx);

  // One undo-log entry: the speculated decision plus a snapshot of every
  // piece of chain state that decision (and everything after it) may have
  // touched. The candidate itself lives in pending.cand.
  struct SpecFrame {
    uint64_t iter;  // iteration index of the speculated decision
    double u;       // its pre-drawn acceptance uniform
    pipeline::PendingEq pending;
    // Snapshot taken immediately before applying the speculative decision:
    ebpf::Program cur;
    pipeline::Eval cur_eval;
    std::mt19937_64 rng;  // post-draw, so the replay consumes no randomness
    size_t win_idx;
    std::optional<verify::WindowSpec> cur_win;
    std::optional<ebpf::Program> best;
    double best_perf;
    std::vector<std::pair<double, ebpf::Program>> candidates;
    uint64_t proposals, accepted, best_iter;
    double best_time_sec;
  };
  std::deque<SpecFrame> frames;  // in-flight speculations, oldest first

  uint64_t iter = 0;
  uint64_t last_tick = 0;  // dedupes ticks while the undo-log drains

  // Retires the oldest speculation given its corrected evaluation. When the
  // solver confirmed the not-equal assumption the decision already made is
  // exactly the decision the verdict implies (same test results, same cost),
  // so the frame is simply dropped. When the solver says EQUAL the chain is
  // rolled back to the frame's snapshot, the decision is replayed with the
  // true (lower) cost, and every younger in-flight query is cancelled —
  // their issuing states no longer exist.
  auto retire_head = [&](pipeline::Eval fin) {
    SpecFrame f = std::move(frames.front());
    frames.pop_front();
    if (!fin.verified) return;
    st.rollbacks++;
    st.discarded_proposals += st.proposals - f.proposals;
    for (auto& g : frames) pipe.cancel(g.pending);
    frames.clear();
    // The chain's current program jumps back to an older snapshot: the
    // worker's incrementally-patched decoded program no longer tracks it.
    ctx.runner.invalidate();
    cur = std::move(f.cur);
    cur_eval = f.cur_eval;
    rng = f.rng;
    win_idx = f.win_idx;
    cur_win = f.cur_win;
    gen = ProposalGen(src, cfg.params, cfg.rules, cur_win);
    result.best = std::move(f.best);
    result.best_perf = f.best_perf;
    result.candidates = std::move(f.candidates);
    st.proposals = f.proposals;
    st.accepted = f.accepted;
    st.best_iter = f.best_iter;
    st.best_time_sec = f.best_time_sec;
    // Replay the retired iteration's tail with the real verdict.
    consider_best(f.pending.cand, f.iter);
    double accept_prob = std::min(
        1.0, std::exp(-cfg.params.mcmc_beta * (fin.cost - cur_eval.cost)));
    if (f.u < accept_prob) {
      cur = std::move(f.pending.cand);
      cur_eval = fin;
      st.accepted++;
    }
    iter = f.iter + 1;
  };

  while (iter < cfg.iterations || !frames.empty()) {
    // Cooperative cancellation / budget checkpoint: once per iteration.
    // Every in-flight speculative query is released (the dispatcher
    // abandons still-queued ones, so no PendingVerdict is left waiting),
    // the speculated tail of the trajectory is discarded, and the chain
    // returns its last non-speculative state. A never-set flag costs one
    // relaxed atomic load and changes nothing; the budget charge is one
    // relaxed fetch_add per checkpoint (see core/progress.h).
    if ((cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) ||
        (cfg.budget && cfg.budget->charge())) {
      if (!frames.empty()) {
        for (auto& g : frames) pipe.cancel(g.pending);
        SpecFrame& oldest = frames.front();
        ctx.runner.invalidate();
        cur = std::move(oldest.cur);
        cur_eval = oldest.cur_eval;
        result.best = std::move(oldest.best);
        result.best_perf = oldest.best_perf;
        result.candidates = std::move(oldest.candidates);
        st.proposals = oldest.proposals;
        st.accepted = oldest.accepted;
        st.best_iter = oldest.best_iter;
        st.best_time_sec = oldest.best_time_sec;
        frames.clear();
      }
      break;
    }
    if (cfg.progress && *cfg.progress && cfg.tick_every > 0 && iter > 0 &&
        iter < cfg.iterations && iter % cfg.tick_every == 0 &&
        iter != last_tick) {
      last_tick = iter;
      ProgressEvent ev;
      ev.kind = ProgressEvent::Kind::CHAIN_TICK;
      ev.chain = cfg.chain_index;
      ev.iter = iter;
      ev.proposals = st.proposals;
      ev.perf = result.best ? result.best_perf : 0;
      (*cfg.progress)(ev);
    }
    // Retire whatever resolved, oldest first, without blocking.
    while (!frames.empty()) {
      std::optional<pipeline::Eval> fin =
          pipe.poll(frames.front().pending, ctx);
      if (!fin) break;
      retire_head(std::move(*fin));
    }
    // Undo-log full, or out of fresh proposals: block on the oldest
    // verdict (backpressure toward the solver pool).
    if (!frames.empty() &&
        (frames.size() >= spec_depth || iter >= cfg.iterations)) {
      retire_head(pipe.resolve(frames.front().pending, ctx));
      continue;  // a rollback may have rewound iter; re-check everything
    }
    if (iter >= cfg.iterations) continue;

    if (cfg.use_windows && !windows.empty() && windows[0].end > 0 &&
        iter > 0 && iter % iters_per_window == 0 &&
        win_idx + 1 < windows.size()) {
      win_idx++;
      cur_win = windows[win_idx];
      gen = ProposalGen(src, cfg.params, cfg.rules, cur_win);
      // `cur` carries accepted rewrites of earlier windows forward.
    }
    st.proposals++;
    ebpf::InsnRange touched;
    ebpf::Program cand = gen.propose(cur, rng, &touched);
    if (cand.insns == cur.insns) {
      iter++;
      continue;
    }
    // Draw the acceptance uniform before evaluating: evaluation consumes no
    // randomness, so the RNG stream matches the legacy order, and the
    // pipeline can prove mid-evaluation that this draw must reject.
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    pipeline::PendingEq pending;
    pipeline::Eval cand_eval = pipe.evaluate(
        cand, cur_win,
        pipeline::RejectGate{cur_eval.cost, u, cfg.params.mcmc_beta}, ctx,
        spec_depth > 0 ? &pending : nullptr, &touched);
    if (cand_eval.pending) {
      // Verdict in flight: snapshot, then decide under the not-equal
      // assumption and keep going.
      SpecFrame f;
      f.iter = iter;
      f.u = u;
      f.pending = std::move(pending);
      f.cur = cur;
      f.cur_eval = cur_eval;
      f.rng = rng;
      f.win_idx = win_idx;
      f.cur_win = cur_win;
      f.best = result.best;
      f.best_perf = result.best_perf;
      f.candidates = result.candidates;
      f.proposals = st.proposals;
      f.accepted = st.accepted;
      f.best_iter = st.best_iter;
      f.best_time_sec = st.best_time_sec;
      double accept_prob = std::min(
          1.0,
          std::exp(-cfg.params.mcmc_beta * (cand_eval.cost - cur_eval.cost)));
      if (u < accept_prob) {
        cur = std::move(cand);  // f.pending.cand keeps the rollback copy
        cur_eval = cand_eval;
        st.accepted++;
      }
      frames.push_back(std::move(f));
    } else {
      if (cand_eval.verified) consider_best(cand, iter);
      double accept_prob = std::min(
          1.0,
          std::exp(-cfg.params.mcmc_beta * (cand_eval.cost - cur_eval.cost)));
      if (u < accept_prob) {
        cur = std::move(cand);
        cur_eval = cand_eval;
        st.accepted++;
      }
    }
    iter++;
  }
  const pipeline::EvalStats& ps = pipe.stats();
  st.test_prunes = ps.test_prunes;
  st.safety_rejects = ps.safety_rejects;
  st.solver_calls = ps.solver_calls;
  st.safety_solver_calls = ps.safety_solver_calls;
  st.cache_hits = ps.cache_hits;
  st.early_exits = ps.early_exits;
  st.tests_executed = ps.tests_executed;
  st.tests_skipped = ps.tests_skipped;
  st.speculations = ps.speculations;
  st.pending_joins = ps.pending_joins;
  st.jit_bailouts = ps.jit_bailouts;
  st.total_time_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace k2::core
