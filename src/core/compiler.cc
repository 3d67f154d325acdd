#include "core/compiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "analysis/dce.h"
#include "pipeline/thread_pool.h"
#include "sim/perf_eval.h"
#include "sim/perf_model.h"
#include "verify/cache_store.h"

namespace k2::core {

namespace {

using Clock = std::chrono::steady_clock;

// Outcome of the final whole-program re-verification of one candidate.
struct FinalVerify {
  bool safe = false;
  verify::Verdict verdict = verify::Verdict::UNKNOWN;
  kernel::CheckResult kc;
};

// Final verification of one NOP-stripped candidate: solver-backed safety,
// whole-program equivalence, then the kernel checker (post-processing, §6).
// Pure function of its arguments — memoizable by program hash and safe to
// run on any thread.
FinalVerify final_verify(const ebpf::Program& src, const ebpf::Program& out,
                         const CompileOptions& opts) {
  FinalVerify fv;
  safety::SafetyOptions sopt = opts.safety;
  sopt.run_solver_checks = true;
  fv.safe = safety::check_safety(out, sopt).safe;
  if (!fv.safe) return fv;
  fv.verdict = verify::check_equivalence(src, out, opts.eq).verdict;
  if (fv.verdict != verify::Verdict::EQUAL) return fv;
  fv.kc = kernel::kernel_check(out);
  return fv;
}

// This run's contribution to a (possibly shared) cache: counters are
// monotone, so the delta against the entry snapshot is exact as long as no
// other run touches the cache concurrently (the batch layer serializes
// same-cache jobs; a run-local cache starts at zero so the delta is the
// full stats).
verify::EqCache::Stats stats_delta(const verify::EqCache::Stats& after,
                                   const verify::EqCache::Stats& before) {
  verify::EqCache::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.collisions = after.collisions - before.collisions;
  d.pending_joins = after.pending_joins - before.pending_joins;
  d.pending_abandons = after.pending_abandons - before.pending_abandons;
  d.disk_hits = after.disk_hits - before.disk_hits;
  d.disk_loaded = after.disk_loaded - before.disk_loaded;
  d.disk_writes = after.disk_writes - before.disk_writes;
  return d;
}

}  // namespace

sim::PerfModelKind resolved_perf_model(const CompileOptions& opts) {
  return opts.perf_model.value_or(opts.goal == Goal::LATENCY
                                      ? sim::PerfModelKind::STATIC_LATENCY
                                      : sim::PerfModelKind::INST_COUNT);
}

std::vector<interp::InputSpec> generate_tests(const ebpf::Program& src, int n,
                                              uint64_t seed) {
  // Random packet workload plus deterministic edge cases: a minimum-size
  // packet, an all-zero packet, and empty maps. Always the *default*
  // scenario (bit-identical to the legacy make_workload mix at
  // scenario::kDefaultMapHitRate), never the compile's scenario: the test
  // suite defines correctness, and correctness must not depend on which
  // traffic model the cost stage prices under.
  std::vector<interp::InputSpec> tests = scenario::expand(
      scenario::default_scenario(), src, std::max(1, n - 3), seed);
  interp::InputSpec tiny;
  tiny.packet.assign(14, 0);
  tests.push_back(tiny);
  interp::InputSpec zeros;
  zeros.packet.assign(64, 0);
  zeros.prandom_seed = 0;
  zeros.ktime_base = 0;
  tests.push_back(zeros);
  interp::InputSpec ones;
  ones.packet.assign(64, 0xff);
  ones.ctx_args = {~0ull, 1};
  tests.push_back(ones);
  return tests;
}

CompileResult compile(const ebpf::Program& src, const CompileOptions& opts) {
  return compile(src, opts, CompileServices{});
}

CompileResult compile(const ebpf::Program& src, const CompileOptions& opts,
                      const CompileServices& svc) {
  auto t0 = Clock::now();
  CompileResult res;
  res.best = src.strip_nops();

  sim::PerfModelKind pm_kind = resolved_perf_model(opts);
  opts.scenario.validate_or_throw();
  // TRACE_LATENCY prices candidates against the compile's scenario,
  // expanded here (scenario sits above sim, so the workload is injected
  // rather than built inside the backend). The static backends ignore the
  // workload; the scenario is still recorded for provenance either way.
  std::unique_ptr<sim::PerfModel> perf_model = sim::make_perf_model(
      pm_kind, src,
      scenario::expand(opts.scenario, src, opts.scenario.inputs, opts.seed));
  res.scenario = opts.scenario.name;
  res.scenario_fingerprint = opts.scenario.fingerprint();
  res.src_perf = perf_model->absolute(src);
  res.best_perf = res.src_perf;

  TestSuite suite(src, generate_tests(src, opts.num_initial_tests, opts.seed));

  std::vector<SearchParams> settings =
      opts.settings.empty() ? default_settings() : opts.settings;

  bool use_windows = opts.force_windows
                         ? *opts.force_windows
                         : src.num_real_insns() > opts.window_threshold;

  // Persistent equivalence-cache store (cache_dir). Declared before the
  // cache so write-through appends can never outlive the store. An explicit
  // --cache-dir that cannot be opened fails loudly: silently degrading to
  // cold solving would mask the very misconfiguration the flag exists to
  // catch. An externally-shared cache persists (or not) under its owner's
  // policy — its store was attached before this run began.
  std::optional<verify::CacheStore> local_store;
  verify::CacheStore* store = svc.store;
  if (!store && !svc.cache && !opts.cache_dir.empty()) {
    local_store.emplace();
    std::string err;
    if (!local_store->open(opts.cache_dir, &err))
      throw std::runtime_error("cache_dir '" + opts.cache_dir + "': " + err);
    store = &*local_store;
  }

  // Shared-or-local services (see CompileServices).
  verify::EqCache local_cache;
  verify::EqCache& cache = svc.cache ? *svc.cache : local_cache;
  const verify::EqCache::Stats cache_before = cache.stats();
  if (store && !svc.cache)
    cache.attach_store(
        store, verify::CacheStore::options_fingerprint(opts.eq, use_windows));

  // Remote solver backend (solver_endpoints). Declared before the
  // dispatcher so the backend outlives every in-flight query routed
  // through it (the run-local dispatcher drains on destruction first).
  std::optional<verify::RemoteSolverBackend> local_backend;
  verify::SolverBackend* backend = svc.backend;
  if (!backend && !opts.solver_endpoints.empty()) {
    verify::RemoteSolverBackend::Options bo;
    bo.endpoints = opts.solver_endpoints;
    bo.portfolio = std::max(1, opts.portfolio);
    local_backend.emplace(bo);
    backend = &*local_backend;
  }

  // Dedicated Z3 worker pool (async mode only): separate from the chain
  // thread pool below, because a solver call parks its thread for up to the
  // full per-query budget. Declared before the chains so it outlives every
  // in-flight query; with 0 workers it is inert and chains run the
  // synchronous PR 1 path. An externally-shared dispatcher (batch mode)
  // already outlives the whole batch.
  std::optional<verify::AsyncSolverDispatcher> local_dispatcher;
  if (!svc.dispatcher)
    local_dispatcher.emplace(std::max(0, opts.solver_workers));
  verify::AsyncSolverDispatcher& dispatcher =
      svc.dispatcher ? *svc.dispatcher : *local_dispatcher;

  std::vector<ChainConfig> configs;
  for (int i = 0; i < opts.num_chains; ++i) {
    ChainConfig cfg;
    cfg.params = settings[size_t(i) % settings.size()];
    cfg.goal = opts.goal;
    cfg.rules = opts.rules;
    cfg.iterations = opts.iters_per_chain;
    cfg.seed = opts.seed * 1000003u + uint64_t(i) * 7919u + 17;
    cfg.eq = opts.eq;
    cfg.safety = opts.safety;
    cfg.max_insns = opts.max_insns;
    cfg.exec_backend = opts.exec_backend;
    cfg.use_windows = use_windows;
    cfg.reorder_tests = opts.reorder_tests;
    cfg.early_exit = opts.early_exit;
    cfg.dispatcher = dispatcher.async() ? &dispatcher : nullptr;
    cfg.backend = backend;
    cfg.speculation_depth = opts.speculation_depth;
    cfg.perf_model = perf_model.get();
    cfg.cancel = svc.cancel;
    cfg.progress = svc.progress ? &svc.progress : nullptr;
    cfg.tick_every = svc.tick_every;
    cfg.chain_index = i;
    cfg.budget = svc.budget;
    configs.push_back(cfg);
  }

  // Chain execution. Parallel mode: one work-stealing pool drives both the
  // Markov chains and the final top-k re-verification below. Sequential
  // mode (batch jobs): chains run in index order on this thread, so the
  // shared suite and cache evolve identically on every same-seed run — the
  // batch layer parallelizes across jobs instead.
  std::vector<ChainResult> chain_results(configs.size());
  std::optional<pipeline::ThreadPool> local_pool;
  pipeline::ThreadPool* pool = nullptr;
  int nthreads = 1;
  if (svc.sequential) {
    for (size_t i = 0; i < configs.size(); ++i) {
      if (svc.cancel && svc.cancel->load(std::memory_order_relaxed)) break;
      if (svc.budget && svc.budget->exhausted()) break;
      chain_results[i] = run_chain(src, suite, cache, configs[i]);
    }
  } else {
    if (svc.pool) {
      pool = svc.pool;
    } else {
      local_pool.emplace(
          std::max(1, std::min<int>(opts.threads, int(configs.size()))));
      pool = &*local_pool;
    }
    nthreads = pool->size();
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < configs.size(); ++i)
      tasks.push_back([&, i]() {
        chain_results[i] = run_chain(src, suite, cache, configs[i]);
      });
    pool->run_all(std::move(tasks));
  }

  // Gather verified candidates across chains, best first.
  std::vector<std::pair<double, ebpf::Program>> all;
  for (const auto& cr : chain_results) {
    res.total_proposals += cr.stats.proposals;
    res.solver_calls += cr.stats.solver_calls;
    res.safety_solver_calls += cr.stats.safety_solver_calls;
    res.early_exits += cr.stats.early_exits;
    res.tests_executed += cr.stats.tests_executed;
    res.tests_skipped += cr.stats.tests_skipped;
    res.speculations += cr.stats.speculations;
    res.pending_joins += cr.stats.pending_joins;
    res.rollbacks += cr.stats.rollbacks;
    res.discarded_proposals += cr.stats.discarded_proposals;
    res.jit_bailouts += cr.stats.jit_bailouts;
    for (const auto& c : cr.candidates) all.push_back(c);
  }
  if (!svc.dispatcher) {
    // Dispatcher-level counters are only meaningful per run when the
    // dispatcher is run-local; a shared dispatcher aggregates across every
    // sharing run and is reported batch-wide by its owner.
    verify::AsyncSolverDispatcher::Stats ds = dispatcher.stats();
    res.solver_queue_peak = ds.queue_peak;
    res.solver_timeouts = ds.timeouts;
    res.solver_abandoned = ds.abandoned;
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Final verification of the gathered candidates. The consumer loop below
  // replays the exact sequential control flow (skip filter, dedup, early
  // break at top_k) in both modes; fetch(i) hides where the FinalVerify
  // comes from:
  //
  //  * Parallel mode: expensive checks are dispatched to the pool
  //    speculatively, a bounded window ahead of the consumer, and memoized
  //    by program hash — results and counters match a serial run,
  //    speculation only moves solver time onto idle workers.
  //  * Sequential mode: computed inline (memoized by hash), keeping the
  //    run single-threaded and deterministic.
  //
  // Canonicalization is lazy and memoized: the consumer usually breaks at
  // top_k after a few candidates, so most entries are never needed.
  std::vector<std::optional<ebpf::Program>> outs(all.size());
  std::vector<uint64_t> hashes(all.size(), 0);
  auto ensure_out = [&](size_t idx) -> const ebpf::Program& {
    if (!outs[idx]) {
      outs[idx] = analysis::remove_dead_code(all[idx].second).strip_nops();
      hashes[idx] = analysis::program_hash(*outs[idx]);
    }
    return *outs[idx];
  };

  // Parallel-mode machinery. `cancelled` turns still-queued speculative
  // tasks into no-ops, and the drain guard keeps every submitted task's
  // referents (`outs`, `src`, `opts`) alive until the task has actually run
  // — the pool's destructor executes leftover queued work, which must not
  // touch freed locals. An RAII guard rather than straight-line code so the
  // drain also happens when a task exception (e.g. z3::exception) unwinds
  // through get(). Both are inert in sequential mode. Every wait on a memo
  // future goes through pool->wait(): compile() may itself run on a pool
  // worker (service jobs do), and a bare get() there blocks the thread that
  // would run the task.
  std::atomic<bool> cancelled{false};
  std::unordered_map<uint64_t, std::shared_future<FinalVerify>> memo;
  std::unordered_map<uint64_t, FinalVerify> seq_memo;
  struct MemoDrain {
    pipeline::ThreadPool* pool;
    std::atomic<bool>& cancelled;
    std::unordered_map<uint64_t, std::shared_future<FinalVerify>>& memo;
    ~MemoDrain() {
      cancelled.store(true, std::memory_order_release);
      for (auto& [h, fut] : memo)
        if (fut.valid()) pool->wait(fut);
    }
  } drain{pool, cancelled, memo};
  auto ensure_submitted = [&](size_t idx) {
    ensure_out(idx);
    uint64_t h = hashes[idx];
    if (memo.count(h)) return;
    const ebpf::Program& out = *outs[idx];
    memo.emplace(h, pool->submit([&src, &out, &opts, &cancelled]() {
                        if (cancelled.load(std::memory_order_acquire))
                          return FinalVerify{};
                        return final_verify(src, out, opts);
                      }).share());
  };

  const size_t lookahead = size_t(nthreads);
  auto fetch = [&](size_t idx) -> FinalVerify {
    if (svc.sequential) {
      uint64_t h = hashes[idx];
      auto it = seq_memo.find(h);
      if (it == seq_memo.end())
        it = seq_memo.emplace(h, final_verify(src, *outs[idx], opts)).first;
      return it->second;
    }
    ensure_submitted(idx);
    for (size_t j = idx + 1, ahead = 1; j < all.size() && ahead < lookahead;
         ++j, ++ahead)
      ensure_submitted(j);
    const std::shared_future<FinalVerify>& fut = memo.at(hashes[idx]);
    pool->wait(fut);
    return fut.get();
  };

  std::vector<uint64_t> seen_hashes;
  for (size_t i = 0; i < all.size(); ++i) {
    // Cancellation checkpoint: each remaining candidate costs up to a full
    // Z3 re-verification. top_k keeps only candidates already verified.
    if (svc.cancel && svc.cancel->load(std::memory_order_relaxed)) break;
    if (int(res.top_k.size()) >= opts.top_k) break;
    const ebpf::Program& out = ensure_out(i);
    if (out.size_slots() >= res.src_perf &&
        pm_kind == sim::PerfModelKind::INST_COUNT && !res.top_k.empty())
      continue;
    uint64_t h = hashes[i];
    if (std::find(seen_hashes.begin(), seen_hashes.end(), h) !=
        seen_hashes.end())
      continue;
    seen_hashes.push_back(h);

    FinalVerify fv = fetch(i);
    if (!fv.safe) continue;
    if (fv.verdict != verify::Verdict::EQUAL) continue;
    if (!fv.kc.accepted) {
      res.kernel_rejected++;
      continue;
    }
    res.kernel_accepted++;
    res.top_k.push_back(out);
  }

  if (!res.top_k.empty()) {
    double bp = perf_model->absolute(res.top_k[0]);
    if (bp < res.src_perf) {
      res.best = res.top_k[0];
      res.best_perf = bp;
      res.improved = true;
      // Attribute time/iterations to the chain that found this program.
      for (const auto& cr : chain_results) {
        if (!cr.best) continue;
        for (const auto& [perf, cand] : cr.candidates) {
          (void)perf;
          if (analysis::program_hash(
                  analysis::remove_dead_code(cand).strip_nops()) ==
              analysis::program_hash(res.best)) {
            res.iters_to_best = cr.stats.best_iter;
            res.secs_to_best = cr.stats.best_time_sec;
          }
        }
      }
    }
  }

  res.cancelled =
      svc.cancel && svc.cancel->load(std::memory_order_relaxed);
  res.budget_exhausted = svc.budget && svc.budget->exhausted();
  res.cache = stats_delta(cache.stats(), cache_before);
  res.final_tests = suite.size();
  res.total_secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

}  // namespace k2::core
