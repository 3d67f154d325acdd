// core::BatchCompiler (ISSUE 4): shard-order/thread-count determinism of
// same-seed batches, JSON report schema round-trip, cross-job cache
// sharing, and batch-vs-standalone equivalence.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/batch_compiler.h"
#include "corpus/corpus.h"

namespace k2::core {
namespace {

// Small benchmarks + small budgets keep every batch here in seconds.
BatchOptions quick_batch() {
  BatchOptions b;
  b.benchmarks = {"xdp_pktcntr", "xdp_map_access"};
  b.base.iters_per_chain = 200;
  b.base.num_chains = 2;
  b.base.eq.timeout_ms = 5000;
  b.threads = 2;
  return b;
}

// Everything except wall-clock is covered by the determinism guarantee;
// canonicalize a report down to exactly that (and sort benchmarks by name
// so shard order doesn't affect the comparison).
std::string canonical(BatchReport r) {
  r.wall_secs = 0;
  r.threads = 0;
  std::sort(r.benchmarks.begin(), r.benchmarks.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (BatchBenchmarkResult& b : r.benchmarks) {
    b.wall_secs = 0;
    for (BatchJobResult& j : b.jobs) {
      j.result.total_secs = 0;
      j.result.secs_to_best = 0;
    }
  }
  return r.to_json().dump();
}

TEST(BatchCompilerTest, CompilesMultipleBenchmarksInOneProcess) {
  BatchReport r = BatchCompiler(quick_batch()).run();
  ASSERT_EQ(r.benchmarks.size(), 2u);
  EXPECT_EQ(r.benchmarks[0].name, "xdp_pktcntr");
  EXPECT_EQ(r.benchmarks[1].name, "xdp_map_access");
  for (const BatchBenchmarkResult& b : r.benchmarks) {
    EXPECT_TRUE(b.error.empty()) << b.error;
    ASSERT_EQ(b.jobs.size(), 1u);
    EXPECT_GT(b.jobs[0].result.total_proposals, 0u);
    EXPECT_GT(b.src_slots, 0);
    EXPECT_FALSE(b.best_asm.empty());
    // The winner is consistent with its job.
    if (b.improved) {
      ASSERT_GE(b.best_job, 0);
      EXPECT_LT(b.best_perf, b.src_perf);
      EXPECT_EQ(b.best_slots, b.jobs[size_t(b.best_job)].best_slots);
    }
  }
  EXPECT_GT(r.totals.proposals, 0u);
  EXPECT_EQ(r.perf_model, "insts");
}

TEST(BatchCompilerTest, DeterministicAcrossThreadCounts) {
  BatchOptions one = quick_batch();
  one.threads = 1;
  BatchOptions four = quick_batch();
  four.threads = 4;
  std::string a = canonical(BatchCompiler(one).run());
  std::string b = canonical(BatchCompiler(four).run());
  EXPECT_EQ(a, b);
}

TEST(BatchCompilerTest, DeterministicAcrossShardOrder) {
  BatchOptions fwd = quick_batch();
  BatchOptions rev = quick_batch();
  std::reverse(rev.benchmarks.begin(), rev.benchmarks.end());
  std::string a = canonical(BatchCompiler(fwd).run());
  std::string b = canonical(BatchCompiler(rev).run());
  EXPECT_EQ(a, b);
}

TEST(BatchCompilerTest, BatchJobMatchesStandaloneSequentialCompile) {
  BatchOptions b = quick_batch();
  b.benchmarks = {"xdp_pktcntr"};
  BatchReport r = BatchCompiler(b).run();
  ASSERT_EQ(r.benchmarks.size(), 1u);
  ASSERT_EQ(r.benchmarks[0].jobs.size(), 1u);
  const CompileResult& batch = r.benchmarks[0].jobs[0].result;

  CompileServices seq;
  seq.sequential = true;
  CompileResult solo =
      compile(corpus::benchmark("xdp_pktcntr").o2, b.base, seq);
  EXPECT_EQ(batch.improved, solo.improved);
  EXPECT_EQ(batch.best.insns, solo.best.insns);
  EXPECT_EQ(batch.best_perf, solo.best_perf);
  EXPECT_EQ(batch.total_proposals, solo.total_proposals);
  EXPECT_EQ(batch.solver_calls, solo.solver_calls);
  EXPECT_EQ(batch.tests_executed, solo.tests_executed);
  EXPECT_EQ(batch.cache.hits, solo.cache.hits);
  EXPECT_EQ(batch.cache.misses, solo.cache.misses);
}

TEST(BatchCompilerTest, SameBenchmarkJobsShareTheEqCache) {
  BatchOptions b = quick_batch();
  b.benchmarks = {"xdp_pktcntr"};
  // Two identical sweep entries: job 2 replays job 1's early trajectory, so
  // its first equivalence queries must hit the cache job 1 populated.
  SearchParams s;
  s.name = "dup";
  b.sweep = {s, s};
  BatchReport r = BatchCompiler(b).run();
  ASSERT_EQ(r.benchmarks.size(), 1u);
  ASSERT_EQ(r.benchmarks[0].jobs.size(), 2u);
  const CompileResult& j0 = r.benchmarks[0].jobs[0].result;
  const CompileResult& j1 = r.benchmarks[0].jobs[1].result;
  EXPECT_EQ(r.benchmarks[0].jobs[0].setting, "dup");
  if (j0.solver_calls > 0) EXPECT_GT(j1.cache.hits, 0u);
  // Per-job cache stats are deltas, not cumulative across the shared cache.
  EXPECT_EQ(r.totals.cache_hits, j0.cache.hits + j1.cache.hits);
}

TEST(BatchCompilerTest, ReportJsonRoundTrips) {
  BatchOptions b = quick_batch();
  b.base.iters_per_chain = 60;
  BatchReport r = BatchCompiler(b).run();
  // struct → json → text → json → struct → json → text: both fixed points.
  util::Json j1 = r.to_json();
  std::string text = j1.dump(2);
  util::Json j2 = util::Json::parse(text);
  EXPECT_EQ(j2, j1);
  BatchReport back = BatchReport::from_json(j2);
  EXPECT_EQ(back.to_json().dump(2), text);
  // Spot-check the restored struct.
  EXPECT_EQ(back.benchmarks.size(), r.benchmarks.size());
  EXPECT_EQ(back.totals.proposals, r.totals.proposals);
  EXPECT_EQ(back.benchmarks[0].best_asm, r.benchmarks[0].best_asm);
  EXPECT_EQ(back.seed, r.seed);
  // Schema violations are rejected.
  util::Json bad = j1;
  EXPECT_THROW(BatchReport::from_json(util::Json::parse("{\"schema\":\"x\"}")),
               std::runtime_error);
}

TEST(BatchCompilerTest, SafetySolverCallsSumOverJobs) {
  BatchOptions b = quick_batch();
  b.base.iters_per_chain = 60;
  BatchReport r = BatchCompiler(b).run();
  uint64_t per_job = 0;
  for (const BatchBenchmarkResult& bench : r.benchmarks)
    for (const BatchJobResult& j : bench.jobs)
      per_job += j.result.safety_solver_calls;
  EXPECT_EQ(r.totals.safety_solver_calls, per_job);
  EXPECT_EQ(BatchReport::from_json(r.to_json()).totals.safety_solver_calls,
            r.totals.safety_solver_calls);
}

TEST(BatchCompilerTest, UnknownBenchmarkThrowsBeforeRunning) {
  BatchOptions b = quick_batch();
  b.benchmarks = {"no_such_benchmark"};
  EXPECT_THROW(BatchCompiler(b).run(), std::out_of_range);
}

TEST(BatchCompilerTest, RunIsSingleUse) {
  BatchOptions b = quick_batch();
  b.benchmarks = {"xdp_pktcntr"};
  b.base.iters_per_chain = 20;
  BatchCompiler bc(b);
  bc.run();
  EXPECT_THROW(bc.run(), std::logic_error);
}

}  // namespace
}  // namespace k2::core
