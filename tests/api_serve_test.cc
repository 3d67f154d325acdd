// api::ServeLoop — the NDJSON wire protocol behind `k2c serve`, driven
// in-process over string streams: every reply is one line of schema-valid
// JSON, errors never kill the loop, and the submit → events → result →
// shutdown round-trip the CI smoke scripts rely on works end to end.
#include <gtest/gtest.h>

#include <sstream>

#include "api/schema.h"
#include "api/serve.h"

namespace k2 {
namespace {

// Runs one line through a fresh handler against `service`; parses the
// reply (which must be valid JSON — that IS the protocol contract).
util::Json roundtrip(api::CompilerService& service, const std::string& line,
                     bool* stop = nullptr) {
  api::ServeLoop loop(service);
  bool local_stop = false;
  std::string reply = loop.handle(line, stop ? stop : &local_stop);
  return util::Json::parse(reply);
}

TEST(ApiServe, HelloAdvertisesProtocolAndOps) {
  api::CompilerService service({/*threads=*/1});
  util::Json r = roundtrip(service, R"({"op":"hello"})");
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("protocol").as_string(), api::kServeProtocol);
  EXPECT_EQ(r.at("request_schema").as_string(), api::kCompileSchema);
  bool has_submit = false;
  for (const util::Json& op : r.at("ops").as_array())
    has_submit |= op.as_string() == "submit";
  EXPECT_TRUE(has_submit);
}

TEST(ApiServe, ErrorsAreRepliesNotDisconnects) {
  api::CompilerService service({/*threads=*/1});
  // Malformed JSON line.
  util::Json r1 = roundtrip(service, "{not json");
  EXPECT_FALSE(r1.at("ok").as_bool());
  EXPECT_NE(r1.at("error").as_string().find("malformed"), std::string::npos);
  // Unknown op.
  util::Json r2 = roundtrip(service, R"({"op":"frobnicate"})");
  EXPECT_FALSE(r2.at("ok").as_bool());
  // Unknown job.
  util::Json r3 = roundtrip(service, R"({"op":"status","job":"job-42"})");
  EXPECT_FALSE(r3.at("ok").as_bool());
  // Invalid submission carries $.path diagnostics.
  util::Json r4 = roundtrip(
      service,
      R"({"op":"submit","request":{"schema":"k2-compile/v1","mode":"single",)"
      R"("benchmark":"xdp_fw","perf_model":"bogus"}})");
  EXPECT_FALSE(r4.at("ok").as_bool());
  const util::Json::Array& diags = r4.at("diagnostics").as_array();
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].at("path").as_string(), "$.perf_model");
}

TEST(ApiServe, SubmitEventsResultShutdownRoundTrip) {
  api::CompilerService service({/*threads=*/1});
  api::ServeLoop loop(service);

  std::istringstream in(
      R"({"op":"submit","request":{"schema":"k2-compile/v1","mode":"single",)"
      R"("benchmark":"xdp_pktcntr","iters_per_chain":150,"num_chains":2,)"
      R"("eq_timeout_ms":10000}})"
      "\n"
      R"({"op":"wait","job":"job-1"})"
      "\n"
      R"({"op":"events","job":"job-1","after":0})"
      "\n"
      R"({"op":"result","job":"job-1"})"
      "\n"
      R"({"op":"shutdown"})"
      "\n");
  std::ostringstream out;
  size_t handled = loop.run(in, out);
  EXPECT_EQ(handled, 5u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<util::Json> replies;
  while (std::getline(lines, line)) replies.push_back(util::Json::parse(line));
  ASSERT_EQ(replies.size(), 5u);

  // submit
  EXPECT_TRUE(replies[0].at("ok").as_bool());
  EXPECT_EQ(replies[0].at("job").as_string(), "job-1");
  // wait → terminal status
  EXPECT_TRUE(replies[1].at("ok").as_bool());
  EXPECT_EQ(replies[1].at("state").as_string(), "DONE");
  // events: schema-valid, strictly monotonic seq, QUEUED→…→DONE
  const util::Json::Array& events = replies[2].at("events").as_array();
  ASSERT_GE(events.size(), 3u);
  uint64_t last_seq = 0;
  for (const util::Json& e : events) {
    EXPECT_EQ(e.at("schema").as_string(), api::kEventSchema);
    EXPECT_EQ(e.at("job").as_string(), "job-1");
    EXPECT_GT(e.at("seq").as_uint(), last_seq);
    last_seq = e.at("seq").as_uint();
  }
  EXPECT_EQ(events.front().at("state").as_string(), "QUEUED");
  EXPECT_EQ(events.back().at("state").as_string(), "DONE");
  // result: a full k2-compile/v1 response
  const util::Json& result = replies[3].at("result");
  EXPECT_EQ(result.at("schema").as_string(), api::kCompileSchema);
  EXPECT_EQ(result.at("state").as_string(), "DONE");
  EXPECT_GT(result.at("single").at("proposals").as_uint(), 0u);
  // shutdown
  EXPECT_TRUE(replies[4].at("ok").as_bool());
  EXPECT_TRUE(replies[4].at("shutdown").as_bool());
}

TEST(ApiServe, MetricsCountSafetyChecksSettledBySolver) {
  api::CompilerService service({/*threads=*/1});
  api::CompileRequest req = api::CompileRequest::for_benchmark("xdp_pktcntr");
  req.iters_per_chain = 60;
  req.num_chains = 1;
  api::JobHandle job = service.submit(std::move(req));
  job.wait();
  ASSERT_EQ(job.state(), api::JobState::DONE);
  uint64_t expected = job.response().single->safety_solver_calls;
  util::Json stats = roundtrip(service, R"({"op":"stats"})");
  util::Json metrics = roundtrip(service, R"({"op":"metrics"})");
  EXPECT_EQ(stats.at("safety_solver_calls").as_uint(), expected);
  EXPECT_EQ(metrics.at("safety_solver_calls").as_uint(), expected);
}

TEST(ApiServe, ResultBeforeTerminalIsAnErrorAndCancelWorks) {
  api::CompilerService service({/*threads=*/1});
  bool stop = false;
  util::Json sub = roundtrip(
      service,
      R"({"op":"submit","request":{"schema":"k2-compile/v1","mode":"single",)"
      R"("benchmark":"xdp_map_access","iters_per_chain":50000000,)"
      R"("num_chains":1}})",
      &stop);
  ASSERT_TRUE(sub.at("ok").as_bool());
  const std::string job = sub.at("job").as_string();

  util::Json early =
      roundtrip(service, R"({"op":"result","job":")" + job + R"("})");
  EXPECT_FALSE(early.at("ok").as_bool());

  util::Json cancel =
      roundtrip(service, R"({"op":"cancel","job":")" + job + R"("})");
  EXPECT_TRUE(cancel.at("ok").as_bool());
  EXPECT_TRUE(cancel.at("cancel_accepted").as_bool());

  util::Json waited =
      roundtrip(service, R"({"op":"wait","job":")" + job + R"("})");
  EXPECT_TRUE(waited.at("ok").as_bool());
  EXPECT_EQ(waited.at("state").as_string(), "CANCELLED");

  util::Json result =
      roundtrip(service, R"({"op":"result","job":")" + job + R"("})");
  EXPECT_TRUE(result.at("ok").as_bool());
  EXPECT_EQ(result.at("result").at("state").as_string(), "CANCELLED");
}

}  // namespace
}  // namespace k2
