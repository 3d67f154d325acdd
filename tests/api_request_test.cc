// api::CompileRequest / api::CompileResponse: strict validation (unknown
// fields, unknown enum strings, ranges — all hard errors with $.field
// paths, never silent defaults), exact JSON round-trips, builder
// construction, and the schema-version constants of src/api/schema.h —
// including the k2-batch-report/v1 version gate on BatchReport::from_json.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "api/request.h"
#include "api/response.h"
#include "api/schema.h"
#include "scenario/scenario.h"
#include "sim/perf_model.h"

namespace k2 {
namespace {

using api::CompileRequest;
using api::ValidationError;

// Rebuilds `j` with `key` set to `value` (util::Json::set appends without
// dedup, so in-place set would leave the original value shadowing the new
// one for get()).
util::Json with_field(const util::Json& j, const std::string& key,
                      util::Json value) {
  util::Json out;
  bool replaced = false;
  for (const auto& [k, v] : j.as_object()) {
    if (k == key) {
      out.set(k, value);
      replaced = true;
    } else {
      out.set(k, v);
    }
  }
  if (!replaced) out.set(key, std::move(value));
  return out;
}

// True when some diagnostic is anchored at `path` and mentions `needle`.
bool has_diag(const ValidationError& e, const std::string& path,
              const std::string& needle = "") {
  for (const api::Diagnostic& d : e.diagnostics())
    if (d.path == path &&
        (needle.empty() || d.message.find(needle) != std::string::npos))
      return true;
  return false;
}

TEST(ApiRequest, BuilderProducesValidRequests) {
  CompileRequest r = CompileRequest::for_benchmark("xdp_pktcntr")
                         .iters(500)
                         .chains(2)
                         .with_seed(7)
                         .with_settings(CompileRequest::Settings::TABLE8);
  EXPECT_TRUE(r.validate().empty());
  EXPECT_EQ(r.mode, CompileRequest::Mode::SINGLE);

  CompileRequest b = CompileRequest::for_corpus({"xdp_fw", "xdp_pktcntr"})
                         .with_sweep(CompileRequest::Sweep::TABLE8);
  EXPECT_TRUE(b.validate().empty());
  EXPECT_EQ(b.mode, CompileRequest::Mode::BATCH);

  CompileRequest p = CompileRequest::for_program("mov64 r0, 1\nexit\n");
  EXPECT_TRUE(p.validate().empty());
}

TEST(ApiRequest, JsonRoundTripIsExact) {
  CompileRequest r = CompileRequest::for_benchmark("xdp_fw")
                         .iters(1234)
                         .chains(3)
                         .with_goal(core::Goal::LATENCY)
                         .with_perf_model(sim::PerfModelKind::TRACE_LATENCY)
                         .with_seed(99)
                         .with_top_k(2);
  r.windows = CompileRequest::Windows::OFF;
  r.reorder_tests = false;

  util::Json j1 = r.to_json();
  CompileRequest back = CompileRequest::from_json(j1);
  util::Json j2 = back.to_json();
  EXPECT_EQ(j1, j2) << j1.dump(2) << "\nvs\n" << j2.dump(2);

  // Batch shape too.
  CompileRequest b = CompileRequest::for_corpus({})
                         .with_sweep(CompileRequest::Sweep::FULL)
                         .with_threads(8);
  EXPECT_EQ(b.to_json(), CompileRequest::from_json(b.to_json()).to_json());
}

TEST(ApiRequest, SchemaVersionIsEnforced) {
  util::Json bad = with_field(CompileRequest::for_benchmark("xdp_fw").to_json(),
                              "schema", util::Json("k2-compile/v999"));
  try {
    CompileRequest::from_json(bad);
    FAIL() << "v999 schema must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.schema", "k2-compile/v1")) << e.what();
  }
}

TEST(ApiRequest, UnknownFieldsAreHardErrors) {
  util::Json j = CompileRequest::for_benchmark("xdp_fw").to_json();
  j.set("itres_per_chain", uint64_t(5));  // typo'd knob
  try {
    CompileRequest::from_json(j);
    FAIL() << "unknown field must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.itres_per_chain", "unknown field"))
        << e.what();
  }
}

// The ISSUE 5 footgun: an invalid enum string must be a hard error at
// request validation time, never a silent fallback to the default.
TEST(ApiRequest, UnknownEnumStringsAreHardErrors) {
  struct Case {
    const char* field;
    const char* value;
  } cases[] = {
      {"perf_model", "bogus"}, {"sweep", "bogus"},   {"goal", "speed"},
      {"settings", "fastest"}, {"windows", "maybe"}, {"mode", "both"},
      {"prog_type", "uprobe"},
  };
  for (const Case& c : cases) {
    util::Json j = with_field(CompileRequest::for_benchmark("xdp_fw").to_json(),
                              c.field, util::Json(c.value));
    try {
      CompileRequest::from_json(j);
      FAIL() << c.field << "='" << c.value << "' must be rejected";
    } catch (const ValidationError& e) {
      EXPECT_TRUE(has_diag(e, std::string("$.") + c.field, "unknown value"))
          << c.field << ": " << e.what();
    }
  }
}

TEST(ApiRequest, RangeAndConsistencyDiagnosticsCarryPaths) {
  util::Json j = with_field(CompileRequest::for_benchmark("xdp_fw").to_json(),
                            "iters_per_chain", util::Json(uint64_t(0)));
  j = with_field(j, "num_chains", util::Json(int64_t(1000)));
  try {
    CompileRequest::from_json(j);
    FAIL();
  } catch (const ValidationError& e) {
    // Both problems reported at once, each with its path.
    EXPECT_TRUE(has_diag(e, "$.iters_per_chain", "out of range")) << e.what();
    EXPECT_TRUE(has_diag(e, "$.num_chains", "out of range")) << e.what();
  }

  // Unknown benchmark names are validation errors, not runtime surprises.
  CompileRequest unknown = CompileRequest::for_benchmark("no_such_prog");
  EXPECT_THROW(unknown.validate_or_throw(), ValidationError);
  CompileRequest batch_unknown = CompileRequest::for_corpus({"nope"});
  EXPECT_THROW(batch_unknown.validate_or_throw(), ValidationError);

  // A single request needs exactly one source.
  CompileRequest no_src;
  EXPECT_FALSE(no_src.validate().empty());
  CompileRequest both = CompileRequest::for_benchmark("xdp_fw");
  both.program_asm = "exit\n";
  EXPECT_FALSE(both.validate().empty());

  // perf_model contradicting goal is a contradiction, not a preference.
  CompileRequest contra = CompileRequest::for_benchmark("xdp_fw");
  contra.goal = core::Goal::INST_COUNT;
  contra.perf_model = sim::PerfModelKind::TRACE_LATENCY;
  EXPECT_FALSE(contra.validate().empty());
}

TEST(ApiRequest, LoweringMapsEveryKnob) {
  CompileRequest r = CompileRequest::for_benchmark("xdp_fw")
                         .iters(777)
                         .chains(5)
                         .with_seed(42)
                         .with_settings(CompileRequest::Settings::TABLE8);
  r.windows = CompileRequest::Windows::ON;
  r.max_insns = 4096;
  r.eq_timeout_ms = 1234;
  r.solver_workers = 3;
  core::CompileOptions o = r.to_compile_options();
  EXPECT_EQ(o.iters_per_chain, 777u);
  EXPECT_EQ(o.num_chains, 5);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.settings.size(), core::table8_settings().size());
  ASSERT_TRUE(o.force_windows.has_value());
  EXPECT_TRUE(*o.force_windows);
  EXPECT_EQ(o.max_insns, 4096u);
  EXPECT_EQ(o.eq.timeout_ms, 1234u);
  EXPECT_EQ(o.solver_workers, 3);

  CompileRequest b = CompileRequest::for_corpus({"xdp_fw"})
                         .with_sweep(CompileRequest::Sweep::TABLE8)
                         .with_threads(7);
  core::BatchOptions bo = b.to_batch_options();
  EXPECT_EQ(bo.benchmarks, std::vector<std::string>{"xdp_fw"});
  EXPECT_EQ(bo.sweep.size(), core::table8_settings().size());
  EXPECT_EQ(bo.threads, 7);
}

TEST(ApiResponse, RoundTripAndStateStrings) {
  api::CompileResponse resp;
  resp.job_id = "job-3";
  resp.state = api::JobState::DONE;
  resp.wall_secs = 1.5;
  core::CompileResult r;
  r.improved = true;
  r.src_perf = 30;
  r.best_perf = 27;
  r.total_proposals = 123;
  r.solver_calls = 9;
  r.safety_solver_calls = 2;
  r.cache.hits = 4;
  r.cache.misses = 5;
  resp.single = r;
  resp.best_asm = "mov64 r0, 1\nexit\n";
  resp.best_slots = 2;

  util::Json j = resp.to_json();
  EXPECT_EQ(j.at("schema").as_string(), api::kCompileSchema);
  api::CompileResponse back = api::CompileResponse::from_json(j);
  EXPECT_EQ(j, back.to_json());
  EXPECT_EQ(back.best_asm, resp.best_asm);
  EXPECT_EQ(back.single->total_proposals, 123u);
  EXPECT_EQ(back.single->safety_solver_calls, 2u);

  api::JobState st;
  EXPECT_TRUE(api::job_state_from_string("CANCELLED", &st));
  EXPECT_EQ(st, api::JobState::CANCELLED);
  EXPECT_FALSE(api::job_state_from_string("cancelled", &st));
}

// ---- traffic scenarios (ISSUE 10) ------------------------------------------

TEST(ApiRequest, ScenarioNameRoundTripsAndResolves) {
  CompileRequest r =
      CompileRequest::for_benchmark("xdp_fw").with_scenario("imix_hot_maps");
  EXPECT_TRUE(r.validate().empty());
  util::Json j = r.to_json();
  EXPECT_EQ(j.at("scenario").as_string(), "imix_hot_maps");
  CompileRequest back = CompileRequest::from_json(j);
  EXPECT_EQ(j, back.to_json());
  EXPECT_TRUE(back.resolved_scenario() ==
              *scenario::find_scenario("imix_hot_maps"));
  EXPECT_EQ(back.to_compile_options().scenario.fingerprint(),
            scenario::find_scenario("imix_hot_maps")->fingerprint());
}

// No scenario and --scenario=default lower to the same CompileOptions — the
// request-level face of the bit-identity guarantee.
TEST(ApiRequest, NoScenarioEqualsExplicitDefault) {
  CompileRequest plain = CompileRequest::for_benchmark("xdp_fw");
  CompileRequest named =
      CompileRequest::for_benchmark("xdp_fw").with_scenario("default");
  EXPECT_TRUE(plain.resolved_scenario() == named.resolved_scenario());
  EXPECT_TRUE(plain.to_compile_options().scenario ==
              named.to_compile_options().scenario);
  // And a plain request's wire form carries no scenario key at all.
  EXPECT_EQ(plain.to_json().get("scenario"), nullptr);
}

TEST(ApiRequest, ScenarioInlineObjectRoundTrips) {
  scenario::Scenario s = *scenario::find_scenario("heavy_tail_bursts");
  CompileRequest r = CompileRequest::for_benchmark("xdp_fw").with_scenario(s);
  EXPECT_TRUE(r.validate().empty());
  util::Json j = r.to_json();
  ASSERT_NE(j.get("scenario"), nullptr);
  EXPECT_TRUE(j.at("scenario").is_object());
  CompileRequest back = CompileRequest::from_json(j);
  EXPECT_EQ(j, back.to_json());
  ASSERT_TRUE(back.scenario_inline.has_value());
  EXPECT_TRUE(*back.scenario_inline == s);
  EXPECT_TRUE(back.resolved_scenario() == s);
}

// The ISSUE 10 satellite: an unknown scenario name is a hard error naming
// the catalog — never a silent fall-back to `default`.
TEST(ApiRequest, UnknownScenarioNameIsHardError) {
  CompileRequest r =
      CompileRequest::for_benchmark("xdp_fw").with_scenario("no_such");
  try {
    r.validate_or_throw();
    FAIL() << "unknown scenario name must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario", "unknown scenario 'no_such'"))
        << e.what();
    EXPECT_TRUE(has_diag(e, "$.scenario", "imix_hot_maps")) << e.what();
  }
  EXPECT_THROW(r.resolved_scenario(), ValidationError);
  // The wire path rejects it too.
  util::Json j = with_field(CompileRequest::for_benchmark("xdp_fw").to_json(),
                            "scenario", util::Json("no_such"));
  EXPECT_THROW(CompileRequest::from_json(j), ValidationError);
  // And a non-string/non-object scenario value is a type error.
  util::Json bad_type =
      with_field(CompileRequest::for_benchmark("xdp_fw").to_json(), "scenario",
                 util::Json(int64_t(3)));
  try {
    CompileRequest::from_json(bad_type);
    FAIL();
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario", "catalog name")) << e.what();
  }
}

TEST(ApiRequest, ScenarioSourcesAreMutuallyExclusive) {
  CompileRequest r =
      CompileRequest::for_benchmark("xdp_fw").with_scenario("default");
  r.scenario_file = "examples/scenarios/imix_hot_maps.json";
  try {
    r.validate_or_throw();
    FAIL() << "two scenario sources must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario", "mutually exclusive")) << e.what();
  }
}

TEST(ApiRequest, ScenarioFileErrorsLandOnScenarioFile) {
  CompileRequest missing = CompileRequest::for_benchmark("xdp_fw")
                               .with_scenario_file("/no/such/scenario.json");
  try {
    missing.validate_or_throw();
    FAIL() << "missing scenario file must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario_file", "cannot open")) << e.what();
  }
  EXPECT_THROW(missing.resolved_scenario(), ValidationError);

  // A malformed file reports the inner $.path inside the message.
  char tmpl[] = "/tmp/k2_scenario_req_test.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  std::string dir = tmpl;
  std::string path = dir + "/bad.json";
  {
    std::ofstream out(path);
    out << R"({"schema": "k2-scenario/v1", "packet": {"min_len": 4}})";
  }
  CompileRequest bad =
      CompileRequest::for_benchmark("xdp_fw").with_scenario_file(path);
  try {
    bad.validate_or_throw();
    FAIL() << "malformed scenario file must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario_file", "$.packet.min_len"))
        << e.what();
  }
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

TEST(ApiRequest, ScenarioFileResolvesToItsContents) {
  char tmpl[] = "/tmp/k2_scenario_req_test.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  std::string dir = tmpl;
  std::string path = dir + "/incast.json";
  const scenario::Scenario& want = *scenario::find_scenario("incast_cold_maps");
  {
    std::ofstream out(path);
    out << want.to_json().dump(2) << "\n";
  }
  CompileRequest r =
      CompileRequest::for_benchmark("xdp_fw").with_scenario_file(path);
  EXPECT_TRUE(r.validate().empty());
  EXPECT_EQ(r.to_json().at("scenario_file").as_string(), path);
  scenario::Scenario got = r.resolved_scenario();
  EXPECT_TRUE(got == want);
  // File form and catalog form fingerprint identically — the provenance
  // key "name@fingerprint" matches however the scenario was delivered.
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

// Inline-scenario range problems are re-rooted under $.scenario.*.
TEST(ApiRequest, InlineScenarioDiagnosticsAreReRooted) {
  scenario::Scenario bad;  // default is valid; break one nested field
  bad.packet.min_len = 4;
  CompileRequest r = CompileRequest::for_benchmark("xdp_fw").with_scenario(bad);
  try {
    r.validate_or_throw();
    FAIL() << "invalid inline scenario must be rejected";
  } catch (const ValidationError& e) {
    EXPECT_TRUE(has_diag(e, "$.scenario.packet.min_len")) << e.what();
  }
}

// Satellite: the library-side schema stamp. from_json must reject any
// other version with a clear error naming both versions.
TEST(BatchReportSchema, VersionGateRejectsMismatch) {
  EXPECT_STREQ(core::BatchReport::kSchema, api::kBatchReportSchema);

  core::BatchReport rep;
  rep.perf_model = "insts";
  util::Json good = rep.to_json();
  EXPECT_EQ(good.at("schema").as_string(), "k2-batch-report/v1");
  EXPECT_NO_THROW(core::BatchReport::from_json(good));

  util::Json bad;
  for (const auto& [k, v] : good.as_object())
    bad.set(k, k == "schema" ? util::Json("k2-batch-report/v0") : v);
  try {
    core::BatchReport::from_json(bad);
    FAIL() << "v0 report must be rejected";
  } catch (const std::runtime_error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("k2-batch-report/v0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("k2-batch-report/v1"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace k2
