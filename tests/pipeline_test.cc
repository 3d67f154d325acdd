// The evaluation pipeline (ISSUE 1): differential equivalence against the
// legacy inline evaluation, the work-stealing thread pool, per-worker
// execution contexts, and the sharded equivalence cache under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "core/compiler.h"
#include "core/mcmc.h"
#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "interp/interpreter.h"
#include "kernel/kernel_checker.h"
#include "pipeline/eval_pipeline.h"
#include "pipeline/exec_context.h"
#include "pipeline/thread_pool.h"

namespace k2::core {
namespace {

using ebpf::assemble;

// ---------------------------------------------------------------------------
// The pre-refactor run_chain, kept verbatim as the differential reference:
// the propose→test→safety→cache→eqcheck→cost sequence inline, every test
// executed in canonical order, no early exit, no context reuse. The only
// adaptation is EqCache::Key (the cache key grew a fingerprint).
// ---------------------------------------------------------------------------

constexpr double kErrMax = 100.0;

bool differs_only_in(const ebpf::Program& orig, const ebpf::Program& cand,
                     const verify::WindowSpec& win) {
  if (orig.insns.size() != cand.insns.size()) return false;
  for (size_t i = 0; i < orig.insns.size(); ++i) {
    bool inside = int(i) >= win.start && int(i) < win.end;
    if (!inside && !(orig.insns[i] == cand.insns[i])) return false;
  }
  return true;
}

ChainResult run_chain_legacy(const ebpf::Program& src, TestSuite& suite,
                             verify::EqCache& cache, const ChainConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  ChainResult result;
  ChainStats& st = result.stats;
  auto t0 = Clock::now();
  std::mt19937_64 rng(cfg.seed);

  std::vector<verify::WindowSpec> windows;
  if (cfg.use_windows) {
    windows = verify::select_windows(src, cfg.window_max_insns);
    if (windows.empty()) windows.push_back(verify::WindowSpec{0, 0});
  }

  struct Eval {
    double cost = 0;
    bool verified = false;
  };
  auto evaluate = [&](const ebpf::Program& cand,
                      const std::optional<verify::WindowSpec>& win) -> Eval {
    Eval ev;
    TestEval te = run_tests(suite, cand, cfg.params.diff);
    bool unequal = true;
    double safe_cost = 0;
    if (!te.all_passed) {
      st.test_prunes++;
    } else {
      safety::SafetyOptions sopt = cfg.safety;
      sopt.run_solver_checks = cfg.safety.run_solver_checks && !cfg.use_windows;
      safety::SafetyResult sres = safety::check_safety(cand, sopt);
      if (sres.safe && !kernel::kernel_check(cand).accepted) {
        sres.safe = false;
        sres.reason = "rejected by checker-specific constraints";
      }
      if (!sres.safe) {
        st.safety_rejects++;
        safe_cost = kErrMax;
        if (sres.cex) suite.add(*sres.cex);
      } else {
        verify::EqCache::Key key = verify::EqCache::key_for(src, cand);
        if (auto hit = cache.lookup(key)) {
          st.cache_hits++;
          unequal = *hit != verify::Verdict::EQUAL;
        } else {
          st.solver_calls++;
          verify::EqResult eq;
          if (win && differs_only_in(src, cand, *win)) {
            std::vector<ebpf::Insn> repl(cand.insns.begin() + win->start,
                                         cand.insns.begin() + win->end);
            eq = verify::check_window_equivalence(src, *win, repl, cfg.eq);
            if (eq.verdict == verify::Verdict::ENCODE_FAIL)
              eq = verify::check_equivalence(src, cand, cfg.eq);
          } else {
            eq = verify::check_equivalence(src, cand, cfg.eq);
          }
          cache.insert(key, eq.verdict);
          unequal = eq.verdict != verify::Verdict::EQUAL;
          if (eq.cex) {
            interp::RunResult r1 = interp::run(src, *eq.cex);
            interp::RunResult r2 = interp::run(cand, *eq.cex);
            if (!interp::outputs_equal(src.type, r1, r2)) suite.add(*eq.cex);
          }
        }
        ev.verified = !unequal;
      }
    }
    double err = error_cost(cfg.params, te, unequal);
    double perf = perf_cost(cfg.goal, cand, src);
    ev.cost = cfg.params.alpha * err + cfg.params.beta * perf +
              cfg.params.gamma * safe_cost;
    return ev;
  };

  auto consider_best = [&](const ebpf::Program& cand, uint64_t iter) {
    double perf = perf_cost(cfg.goal, cand, src);
    if (!result.best || perf < result.best_perf) {
      result.best = cand;
      result.best_perf = perf;
      st.best_iter = iter;
      st.best_time_sec =
          std::chrono::duration<double>(Clock::now() - t0).count();
      result.candidates.emplace_back(perf, cand);
      if (result.candidates.size() > 16)
        result.candidates.erase(result.candidates.begin());
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
  Eval cur_eval = evaluate(cur, cur_win);

  for (uint64_t iter = 0; iter < cfg.iterations; ++iter) {
    if (cfg.use_windows && !windows.empty() && windows[0].end > 0 &&
        iter > 0 && iter % iters_per_window == 0 &&
        win_idx + 1 < windows.size()) {
      win_idx++;
      cur_win = windows[win_idx];
      gen = ProposalGen(src, cfg.params, cfg.rules, cur_win);
    }
    st.proposals++;
    ebpf::Program cand = gen.propose(cur, rng);
    if (cand.insns == cur.insns) continue;
    Eval cand_eval = evaluate(cand, cur_win);
    if (cand_eval.verified) consider_best(cand, iter);

    double accept_prob =
        std::min(1.0, std::exp(-cfg.params.mcmc_beta *
                               (cand_eval.cost - cur_eval.cost)));
    if (std::uniform_real_distribution<double>(0, 1)(rng) < accept_prob) {
      cur = std::move(cand);
      cur_eval = cand_eval;
      st.accepted++;
    }
  }
  st.total_time_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

// ---------------------------------------------------------------------------
// Differential: pipeline vs legacy inline evaluation.
// ---------------------------------------------------------------------------

ChainConfig diff_config(uint64_t iters, uint64_t seed, bool use_windows) {
  ChainConfig cfg;
  cfg.iterations = iters;
  cfg.seed = seed;
  cfg.params = table8_settings()[0];
  cfg.eq.timeout_ms = 5000;
  cfg.use_windows = use_windows;
  return cfg;
}

void expect_same_decisions(const ChainResult& a, const ChainResult& b,
                           const std::string& what) {
  SCOPED_TRACE(what);
  // Accept/reject decisions: the accepted count plus the best-candidate
  // trajectory pin the whole decision sequence for a fixed RNG stream.
  EXPECT_EQ(a.stats.proposals, b.stats.proposals);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.test_prunes, b.stats.test_prunes);
  EXPECT_EQ(a.stats.safety_rejects, b.stats.safety_rejects);
  EXPECT_EQ(a.stats.solver_calls, b.stats.solver_calls);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.best_iter, b.stats.best_iter);
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) {
    EXPECT_TRUE(a.best->insns == b.best->insns);
    EXPECT_EQ(a.best_perf, b.best_perf);
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].first, b.candidates[i].first);
    EXPECT_TRUE(a.candidates[i].second.insns == b.candidates[i].second.insns);
  }
}

// Runs legacy and pipeline single-threaded on a fresh suite + cache each and
// requires identical decisions and stats.
void differential_on(const std::string& bench_name, uint64_t iters,
                     uint64_t seed, bool use_windows) {
  const ebpf::Program& src = corpus::benchmark(bench_name).o2;
  ChainConfig cfg = diff_config(iters, seed, use_windows);

  TestSuite suite_a(src, generate_tests(src, 8, 3));
  verify::EqCache cache_a;
  ChainResult legacy = run_chain_legacy(src, suite_a, cache_a, cfg);

  TestSuite suite_b(src, generate_tests(src, 8, 3));
  verify::EqCache cache_b;
  ChainResult piped = run_chain(src, suite_b, cache_b, cfg);

  expect_same_decisions(legacy, piped, bench_name);
  EXPECT_EQ(suite_a.size(), suite_b.size()) << bench_name;
}

TEST(EvalPipelineDifferential, XdpExceptionMatchesLegacy) {
  differential_on("xdp_exception", 1200, 7, false);
}

TEST(EvalPipelineDifferential, SocketFilterMatchesLegacy) {
  differential_on("socket/0", 1200, 11, false);
}

TEST(EvalPipelineDifferential, XdpMapAccessMatchesLegacy) {
  differential_on("xdp_map_access", 1200, 13, false);
}

TEST(EvalPipelineDifferential, WindowedSearchMatchesLegacy) {
  differential_on("xdp1_kern/xdp1", 300, 5, true);
}

TEST(EvalPipelineDifferential, OptimizationsActuallyEngage) {
  // The equivalence holds because the optimizations are decision-preserving,
  // not because they never fire.
  const ebpf::Program& src = corpus::benchmark("xdp_exception").o2;
  ChainConfig cfg = diff_config(1200, 7, false);
  TestSuite suite(src, generate_tests(src, 8, 3));
  verify::EqCache cache;
  ChainResult r = run_chain(src, suite, cache, cfg);
  EXPECT_GT(r.stats.early_exits, 0u);
  EXPECT_GT(r.stats.tests_skipped, 0u);
  EXPECT_GT(r.stats.tests_executed, 0u);
  // Early exits are a subset of test prunes.
  EXPECT_LE(r.stats.early_exits, r.stats.test_prunes);
}

TEST(EvalPipelineDifferential, SafetyPrepassLeavesFewChecksToSolver) {
  // Candidates that pass the tests reach the safety stage; the dataflow
  // pre-pass settles almost all of them, and the stats count the ones Z3
  // still settles (this seed produces one).
  const ebpf::Program& src = corpus::benchmark("xdp_pktcntr").o2;
  ChainConfig cfg = diff_config(1200, 13, false);
  TestSuite suite(src, generate_tests(src, 8, 3));
  verify::EqCache cache;
  ChainResult r = run_chain(src, suite, cache, cfg);
  uint64_t safety_checks = r.stats.proposals - r.stats.test_prunes;
  EXPECT_GT(r.stats.safety_solver_calls, 0u);
  EXPECT_LT(r.stats.safety_solver_calls * 10, safety_checks);
}

// ---------------------------------------------------------------------------
// Async solver dispatch (ISSUE 2): pool size 0 must stay bit-identical to
// the PR 1 sync path; with workers, speculation must retire every frame and
// anything it reports as best must be genuinely equivalent.
// ---------------------------------------------------------------------------

TEST(AsyncDispatchChain, ZeroWorkerPoolIsBitIdenticalToLegacy) {
  const ebpf::Program& src = corpus::benchmark("xdp_exception").o2;
  ChainConfig cfg = diff_config(1200, 7, false);
  verify::AsyncSolverDispatcher dispatcher(0);  // sync mode
  cfg.dispatcher = &dispatcher;

  TestSuite suite_a(src, generate_tests(src, 8, 3));
  verify::EqCache cache_a;
  ChainResult legacy = run_chain_legacy(src, suite_a, cache_a, cfg);

  TestSuite suite_b(src, generate_tests(src, 8, 3));
  verify::EqCache cache_b;
  ChainResult piped = run_chain(src, suite_b, cache_b, cfg);

  expect_same_decisions(legacy, piped, "zero-worker dispatcher");
  EXPECT_EQ(suite_a.size(), suite_b.size());
  EXPECT_EQ(piped.stats.speculations, 0u);
  EXPECT_EQ(piped.stats.rollbacks, 0u);
}

TEST(AsyncDispatchChain, SpeculativeChainRetiresEveryFrameAndStaysSound) {
  // xdp_pktcntr reliably produces verifier traffic (it has removable
  // instructions), so the chain must speculate; and because this is a
  // single chain, its first EQUAL verdict can only arrive through a
  // speculated pending query — i.e. finding any improvement implies at
  // least one rollback happened and was replayed correctly.
  const ebpf::Program& src = corpus::benchmark("xdp_pktcntr").o2;
  ChainConfig cfg = diff_config(2000, 9, false);
  verify::AsyncSolverDispatcher dispatcher(2);
  cfg.dispatcher = &dispatcher;
  cfg.speculation_depth = 3;

  TestSuite suite(src, generate_tests(src, 8, 3));
  verify::EqCache cache;
  ChainResult r = run_chain(src, suite, cache, cfg);

  // The retired timeline is complete: every iteration decided exactly once.
  EXPECT_EQ(r.stats.proposals, cfg.iterations);
  EXPECT_GT(r.stats.speculations, 0u);
  EXPECT_GE(r.stats.speculations, r.stats.rollbacks);
  if (r.best) {
    EXPECT_GE(r.stats.rollbacks, 1u);
    verify::EqOptions eq;
    eq.timeout_ms = 20000;
    EXPECT_EQ(verify::check_equivalence(src, *r.best, eq).verdict,
              verify::Verdict::EQUAL);
  }
}

TEST(AsyncDispatchChain, CompileDriverRunsChainsOverSolverPool) {
  // End to end through core::compile: multiple chains share the dispatcher
  // and the pending-verdict dedup; final outputs are whole-program
  // re-verified by the driver, so a surviving top_k is a soundness check on
  // the whole speculative machinery.
  const ebpf::Program& src = corpus::benchmark("xdp_pktcntr").o2;
  CompileOptions o;
  o.iters_per_chain = 800;
  o.num_chains = 2;
  o.threads = 2;
  o.top_k = 1;
  o.eq.timeout_ms = 10000;
  o.settings = table8_settings();
  o.solver_workers = 2;
  o.speculation_depth = 4;
  CompileResult res = compile(src, o);

  EXPECT_EQ(res.total_proposals, 2u * 800u);
  EXPECT_GT(res.speculations, 0u);
  for (const auto& out : res.top_k) {
    verify::EqOptions eq;
    eq.timeout_ms = 20000;
    EXPECT_EQ(verify::check_equivalence(src, out, eq).verdict,
              verify::Verdict::EQUAL);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasksAcrossWorkers) {
  pipeline::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i)
    tasks.push_back([&count]() { count.fetch_add(1); });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsResults) {
  pipeline::ThreadPool pool(2);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(pool.submit([i]() { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[size_t(i)].get(), i * i);
}

TEST(ThreadPoolTest, WorkerIndexIsStableAndBounded) {
  pipeline::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_index(), -1);  // caller is not a worker
  std::set<int> seen;
  std::mutex mu;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.push_back([&]() {
      int idx = pool.worker_index();
      std::lock_guard<std::mutex> lock(mu);
      if (idx >= 0) seen.insert(idx);
    });
  pool.run_all(std::move(tasks));
  for (int idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
}

TEST(ThreadPoolTest, NestedSubmitFromWorkerDoesNotDeadlock) {
  pipeline::ThreadPool pool(2);
  auto outer = pool.submit([&pool]() {
    auto inner = pool.submit([]() { return 21; });
    return inner.get() * 2;
  });
  EXPECT_EQ(outer.get(), 42);
}

TEST(ThreadPoolTest, UnevenTasksAreStolen) {
  // One long task plus many short ones: with stealing, total wall time is
  // far below the serialized sum even when the long task lands first.
  pipeline::ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    done.fetch_add(1);
  });
  for (int i = 0; i < 40; ++i)
    tasks.push_back([&]() { done.fetch_add(1); });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(done.load(), 41);
}

// ---------------------------------------------------------------------------
// ExecContext reuse.
// ---------------------------------------------------------------------------

TEST(ExecContextTest, MachineIsReusedAcrossRuns) {
  const ebpf::Program& src = corpus::benchmark("xdp_exception").o2;
  auto tests = generate_tests(src, 8, 1);
  pipeline::ExecContext& ctx = pipeline::worker_context();
  // Same thread gets the same context back.
  EXPECT_EQ(&ctx, &pipeline::worker_context());
  // Reused-machine runs produce the same results as fresh-machine runs.
  for (const auto& t : tests) {
    interp::RunResult fresh = interp::run(src, t);
    interp::RunResult reused = interp::run(src, t, ctx.run_opts, ctx.machine);
    EXPECT_TRUE(interp::outputs_equal(src.type, fresh, reused));
    EXPECT_EQ(fresh.insns_executed, reused.insns_executed);
  }
}

// ---------------------------------------------------------------------------
// Sharded cache under concurrency.
// ---------------------------------------------------------------------------

TEST(ShardedCacheTest, ConcurrentMixedWorkloadIsConsistent) {
  verify::EqCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 2000; ++i) {
        verify::EqCache::Key key{uint64_t((i * 37 + t) % kKeys) << 56 |
                                     uint64_t(i % kKeys),
                                 uint64_t(i % kKeys) + 1};
        if (i % 3 == 0)
          cache.insert(key, verify::Verdict::EQUAL);
        else if (auto v = cache.lookup(key))
          EXPECT_EQ(*v, verify::Verdict::EQUAL);
      }
    });
  for (auto& th : threads) th.join();
  auto st = cache.stats();
  EXPECT_GT(st.insertions, 0u);
  EXPECT_EQ(st.collisions, 0u);  // fingerprints are consistent per key
}

}  // namespace
}  // namespace k2::core
