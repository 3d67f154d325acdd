// api::CompilerService — job lifecycle, event streams, cooperative
// cancellation, and the two determinism guarantees the API layer makes:
//
//  1. Differential: same-seed results through the service (single job and
//     batch) are bit-identical to direct core::compile /
//     core::BatchCompiler invocations with solver_workers == 0 (ISSUE 5
//     acceptance).
//  2. Concurrency-independence: N jobs submitted in shuffled order onto a
//     multi-worker service produce per-job reports identical to serial
//     runs.
//
// Wall-clock fields are exempt everywhere, so comparisons strip them.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "api/service.h"
#include "corpus/corpus.h"
#include "ebpf/assembler.h"

namespace k2 {
namespace {

using api::CompileRequest;
using api::CompilerService;
using api::JobState;

// Strips every wall-clock field (exempt from determinism guarantees) from
// a report/result JSON, recursively.
util::Json strip_times(const util::Json& j) {
  if (j.is_object()) {
    util::Json out;
    for (const auto& [k, v] : j.as_object()) {
      if (k == "wall_secs" || k == "secs_to_best" || k == "t_sec") continue;
      out.set(k, strip_times(v));
    }
    return out;
  }
  if (j.is_array()) {
    util::Json out{util::Json::Array{}};
    for (const util::Json& v : j.as_array()) out.push_back(strip_times(v));
    return out;
  }
  return j;
}

CompileRequest small_request(const std::string& bench, uint64_t seed) {
  CompileRequest r = CompileRequest::for_benchmark(bench)
                         .iters(150)
                         .chains(2)
                         .with_seed(seed)
                         .with_settings(CompileRequest::Settings::TABLE8);
  r.eq_timeout_ms = 10000;
  return r;
}

TEST(ApiService, SingleJobMatchesDirectCoreCompileBitExactly) {
  CompileRequest req = small_request("xdp_pktcntr", 0x6b32);

  // Direct engine invocation: sequential chains, fresh cache, synchronous
  // solver — exactly what the service guarantees for deterministic jobs.
  ebpf::Program src = req.resolve_program();
  verify::EqCache cache;
  core::CompileServices csvc;
  csvc.cache = &cache;
  csvc.sequential = true;
  core::CompileResult direct =
      core::compile(src, req.to_compile_options(), csvc);

  CompilerService service({/*threads=*/2});
  api::JobHandle job = service.submit(req);
  job.wait();
  api::CompileResponse resp = job.response();
  ASSERT_EQ(resp.state, JobState::DONE) << resp.error;
  ASSERT_TRUE(resp.single.has_value());

  EXPECT_EQ(strip_times(core::compile_result_to_json(*resp.single)),
            strip_times(core::compile_result_to_json(direct)));
  EXPECT_EQ(resp.best_asm, ebpf::disassemble(direct.best));
  EXPECT_EQ(resp.best_slots, direct.best.size_slots());
}

TEST(ApiService, BatchJobMatchesDirectBatchCompilerBitExactly) {
  CompileRequest req = CompileRequest::for_corpus({"xdp_pktcntr", "xdp_fw"})
                           .iters(120)
                           .chains(2)
                           .with_seed(11)
                           .with_threads(2);
  req.eq_timeout_ms = 10000;

  core::BatchReport direct = core::BatchCompiler(req.to_batch_options()).run();

  // Service pool width == request threads so the reports' `threads` field
  // (recorded pool size) matches; everything else is width-independent.
  CompilerService service({/*threads=*/2});
  api::JobHandle job = service.submit(req);
  job.wait();
  api::CompileResponse resp = job.response();
  ASSERT_EQ(resp.state, JobState::DONE) << resp.error;
  ASSERT_TRUE(resp.batch.has_value());

  EXPECT_EQ(strip_times(resp.batch->to_json()), strip_times(direct.to_json()));
}

TEST(ApiService, ShuffledConcurrentJobsMatchSerialRuns) {
  const std::vector<std::string> benches = {"xdp_pktcntr", "xdp_fw",
                                            "xdp_map_access", "xdp_exception"};
  std::vector<CompileRequest> reqs;
  for (size_t i = 0; i < benches.size(); ++i)
    reqs.push_back(small_request(benches[i], 100 + i));

  // Serial reference: one job at a time on a single-worker service.
  std::vector<util::Json> serial;
  {
    CompilerService service({/*threads=*/1});
    for (const CompileRequest& r : reqs) {
      api::JobHandle job = service.submit(r);
      job.wait();
      ASSERT_EQ(job.response().state, JobState::DONE);
      serial.push_back(strip_times(job.response().to_json()));
    }
  }

  // Shuffled submission order, 4 workers, all in flight at once.
  std::vector<size_t> order = {2, 0, 3, 1};
  CompilerService service({/*threads=*/4});
  std::vector<api::JobHandle> jobs(reqs.size());
  for (size_t idx : order) jobs[idx] = service.submit(reqs[idx]);
  for (api::JobHandle& j : jobs) j.wait();

  for (size_t i = 0; i < reqs.size(); ++i) {
    util::Json got = strip_times(jobs[i].response().to_json());
    // Job ids differ by submission order; results must not.
    util::Json got_noid, want_noid;
    for (const auto& [k, v] : got.as_object())
      if (k != "job") got_noid.set(k, v);
    for (const auto& [k, v] : serial[i].as_object())
      if (k != "job") want_noid.set(k, v);
    EXPECT_EQ(got_noid, want_noid) << benches[i];
  }
}

// Non-deterministic jobs run on a pool worker and put their chains and
// final re-verification on that same pool. Waiting without helping would
// leave a 1-thread service, or N such jobs on N threads, with no thread to
// run those tasks.
TEST(ApiService, ParallelJobOnOneThreadServiceFinishes) {
  CompilerService service({/*threads=*/1});
  api::JobHandle job =
      service.submit(small_request("xdp_map_access", 7).parallel_chains());
  job.wait();
  EXPECT_EQ(job.response().state, JobState::DONE) << job.response().error;
}

TEST(ApiService, ConcurrentParallelJobsFillingTheServiceFinish) {
  // Twice as many identical jobs as workers: idle workers steal queued jobs
  // before final-verification tasks, so without helping every worker ends
  // up waiting on its own job's tasks at once. N jobs on N workers reach
  // that state only on some interleavings.
  constexpr int kThreads = 2;
  CompilerService service({kThreads});
  std::vector<api::JobHandle> jobs;
  for (int i = 0; i < 2 * kThreads; ++i)
    jobs.push_back(service.submit(
        small_request("xdp_map_access", 7).parallel_chains()));
  for (api::JobHandle& j : jobs) {
    j.wait();
    EXPECT_EQ(j.response().state, JobState::DONE) << j.response().error;
  }
}

TEST(ApiService, EventStreamIsMonotonicAndWellFormed) {
  CompilerService service({/*threads=*/1, /*solver_workers=*/0,
                           /*tick_every=*/32});
  CompileRequest req = small_request("xdp_pktcntr", 5);
  api::JobHandle job = service.submit(req);
  job.wait();

  std::vector<api::Event> events = job.poll(0);
  ASSERT_GE(events.size(), 3u);  // QUEUED, RUNNING, ... DONE
  uint64_t last = 0;
  for (const api::Event& e : events) {
    EXPECT_EQ(e.seq, last + 1) << "gap or reorder at seq " << e.seq;
    last = e.seq;
    EXPECT_EQ(e.job_id, job.id());
    util::Json j = api::event_to_json(e);
    EXPECT_EQ(j.at("schema").as_string(), "k2-event/v1");
  }
  EXPECT_EQ(events.front().type, "state");
  EXPECT_EQ(events.front().data.at("state").as_string(), "QUEUED");
  EXPECT_EQ(events.back().type, "state");
  EXPECT_EQ(events.back().data.at("state").as_string(), "DONE");
  // 150 iters with tick_every=32 must produce chain ticks.
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const api::Event& e) { return e.type == "tick"; }));
  // poll(after) resumes mid-stream.
  std::vector<api::Event> tail = job.poll(events[1].seq);
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.front().seq, events[1].seq + 1);
}

// The ISSUE 5 cancellation acceptance: cancel mid-chain lands the job in
// CANCELLED within a chain-iteration checkpoint (no deadlock), leaves the
// service's workers idle, and leaks no pending solver queries — the job's
// EqCache pending-verdict count returns to zero once the dispatcher drains.
TEST(ApiService, CancelMidChainLeavesWorkersIdleAndNoPendingQueries) {
  CompilerService service({/*threads=*/2, /*solver_workers=*/2,
                           /*tick_every=*/64});
  CompileRequest req = CompileRequest::for_benchmark("xdp_map_access")
                           .iters(50'000'000)  // hours if not cancelled
                           .chains(2)
                           .with_seed(3)
                           .with_solver_workers(2);
  req.eq_timeout_ms = 10000;
  api::JobHandle job = service.submit(req);

  // Wait until the job is demonstrably mid-chain (first tick observed).
  for (int i = 0; i < 600; ++i) {
    std::vector<api::Event> evs = job.poll(0);
    if (std::any_of(evs.begin(), evs.end(),
                    [](const api::Event& e) { return e.type == "tick"; }))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(job.state(), JobState::RUNNING);

  EXPECT_TRUE(job.cancel());
  job.wait();  // must return promptly — gtest's timeout is the backstop
  EXPECT_EQ(job.state(), JobState::CANCELLED);
  api::CompileResponse resp = job.response();
  EXPECT_EQ(resp.state, JobState::CANCELLED);
  ASSERT_TRUE(resp.single.has_value());
  EXPECT_TRUE(resp.single->cancelled);

  // Workers drain: no active jobs, empty solver queue, zero leaked pending
  // verdicts in the job's cache.
  for (int i = 0; i < 500 && !service.idle(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(service.idle());
  for (int i = 0; i < 500 && job.pending_eq_queries() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(job.pending_eq_queries(), 0u);

  // Cancelling a terminal job reports "too late".
  EXPECT_FALSE(job.cancel());
}

TEST(ApiService, CancelWhileQueuedNeverRuns) {
  CompilerService service({/*threads=*/1});
  // Occupy the single worker...
  api::JobHandle running = service.submit(
      CompileRequest::for_benchmark("xdp_fw").iters(2'000'000).chains(1));
  // ...so this one stays QUEUED until cancelled.
  api::JobHandle queued = service.submit(small_request("xdp_pktcntr", 9));
  EXPECT_TRUE(queued.cancel());
  EXPECT_TRUE(running.cancel());
  queued.wait();
  running.wait();
  EXPECT_EQ(queued.state(), JobState::CANCELLED);
  api::CompileResponse resp = queued.response();
  // Never started: no result payload, only the terminal state.
  EXPECT_FALSE(resp.single.has_value());
  EXPECT_FALSE(resp.batch.has_value());
}

TEST(ApiService, InvalidSubmissionsThrowAndFailuresAreReported) {
  CompilerService service({/*threads=*/1});
  EXPECT_THROW(service.submit(CompileRequest::for_benchmark("nope")),
               api::ValidationError);

  // A syntactically valid request whose program fails to assemble must land
  // in FAILED with the assembler's message, not crash the service.
  api::JobHandle job =
      service.submit(CompileRequest::for_program("not an instruction\n"));
  job.wait();
  EXPECT_EQ(job.state(), JobState::FAILED);
  EXPECT_FALSE(job.response().error.empty());

  EXPECT_FALSE(service.find("job-999").valid());
  EXPECT_TRUE(service.find(job.id()).valid());
}

TEST(ApiService, ShutdownCancelsEverythingAndRejectsNewWork) {
  CompilerService service({/*threads=*/1});
  api::JobHandle job = service.submit(
      CompileRequest::for_benchmark("xdp_fw").iters(5'000'000).chains(1));
  service.shutdown(/*cancel_running=*/true);
  EXPECT_TRUE(job.terminal());
  EXPECT_THROW(service.submit(small_request("xdp_fw", 1)), std::logic_error);
}

}  // namespace
}  // namespace k2
