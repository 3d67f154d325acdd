// k2c — the K2 compiler command-line driver, a thin client of the
// service-facing compilation API (src/api). Every mode builds a validated
// api::CompileRequest and goes through api::CompilerService — there is
// exactly one way into the engine.
//
//   k2c <input.s> [options]              one-shot single-program mode: read
//                                        BPF assembly (or --bench=<name>),
//                                        optimize, print the optimized
//                                        assembly (§7's drop-in workflow)
//   k2c --corpus[=n1,n2] [options]       batch mode: the corpus-sharded
//                                        orchestrator; --report writes the
//                                        k2-batch-report/v1 JSON
//   k2c serve --stdio|--socket=<path>    long-running service mode speaking
//                                        newline-delimited JSON (see
//                                        docs/API.md for the wire protocol)
//
// Flags are declared once in the table below (util::Flags): unknown flags,
// malformed values and unknown enum strings are hard errors — nothing
// silently falls back to a default. `k2c --help` prints the generated
// reference.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "api/request.h"
#include "api/serve.h"
#include "api/service.h"
#include "corpus/corpus.h"
#include "ebpf/bytecode.h"
#include "scenario/scenario.h"
#include "jit/exec_backend.h"
#include "jit/translator.h"
#include "sim/perf_model.h"
#include "testgen/differential.h"
#include "testgen/repro.h"
#include "util/flags.h"
#include "verify/cache_store.h"
#include "verify/solve_protocol.h"

namespace {

using namespace k2;

util::Flags make_flags() {
  using T = util::FlagSpec::Type;
  return util::Flags({
      {"goal", T::STRING, "size", "optimization objective", "size|latency"},
      {"perf-model", T::STRING, "",
       "perf(p) backend: insts = wire slots (goal size), latency = "
       "interpreter-traced estimate, static-latency = per-opcode sum "
       "(both goal latency)",
       "insts|latency|static-latency"},
      {"iters", T::UINT, "10000", "iterations per chain", ""},
      {"chains", T::INT, "4", "parallel Markov chains", ""},
      {"threads", T::INT, "4",
       "worker threads (chain pool in single mode with --parallel, "
       "benchmark-shard pool in batch mode)",
       ""},
      {"type", T::STRING, "xdp", "hook type for assembly input",
       "xdp|socket|trace"},
      {"wire", T::STRING, "", "also emit wire-format bytecode here", ""},
      {"bench", T::STRING, "",
       "optimize one corpus benchmark instead of a file", ""},
      {"corpus", T::OPT_STRING, "",
       "batch mode: compile the named corpus benchmarks (no value = all 19)",
       ""},
      {"sweep", T::STRING, "",
       "batch mode: one job per benchmark x setting (5 Table 8 settings / "
       "all 16)",
       "table8|full"},
      {"settings", T::STRING, "default",
       "search-parameter settings the chains cycle through",
       "default|table8"},
      {"report", T::STRING, "", "batch mode: write the JSON report here",
       ""},
      {"seed", T::UINT, "27442", "search seed (same seed = same result)",
       ""},
      {"top-k", T::INT, "1", "fully re-verified candidates to keep", ""},
      {"solver-workers", T::INT, "0",
       "dedicated Z3 threads for async equivalence dispatch (0 = "
       "synchronous)",
       ""},
      {"cache-dir", T::STRING, "",
       "persistent equivalence-cache directory: load settled verdicts at "
       "start, write through on every solve (warm-starts repeated runs)",
       ""},
      {"solver-endpoints", T::STRING, "",
       "comma-separated unix-socket paths of k2c solve-worker processes; "
       "equivalence queries are farmed out instead of solved in-process",
       ""},
      {"portfolio", T::INT, "1",
       "race each remote query on up to N endpoints with varied Z3 tactics; "
       "first definitive verdict wins (N>1 trades determinism for latency)",
       ""},
      {"max-insns", T::UINT, "1048576",
       "interpreter step budget per test execution", ""},
      {"scenario", T::STRING, "",
       "traffic scenario for the latency cost stage: a built-in catalog "
       "name (see `k2c scenario list`) or a k2-scenario/v1 JSON file path "
       "(pair with --perf-model=latency)",
       ""},
      {"lint", T::STRING, "",
       "scenario mode: lint this k2-scenario/v1 file (exit 2 with $.field "
       "diagnostics when malformed)",
       ""},
      {"exec-backend", T::STRING, "fast",
       "execution engine for candidate test runs: the fast interpreter or "
       "the x86-64 template JIT (bit-identical results; unsupported "
       "programs fall back per-program to the interpreter)",
       "fast|jit"},
      {"parallel", T::BOOL, "",
       "single mode: run chains on a thread pool (faster, gives up same-"
       "seed determinism)",
       ""},
      {"progress", T::BOOL, "",
       "stream progress events (ticks, new bests) to stderr", ""},
      {"stdio", T::BOOL, "", "serve mode: speak NDJSON on stdin/stdout", ""},
      {"socket", T::STRING, "",
       "serve mode: listen on this unix-domain socket path", ""},
      {"max-queued-jobs", T::UINT, "0",
       "serve mode: reject submits once this many jobs sit QUEUED "
       "(0 = unbounded)",
       ""},
      {"max-active-jobs", T::UINT, "0",
       "serve mode: reject submits once this many jobs are queued or "
       "running (0 = unbounded)",
       ""},
      {"max-events-per-job", T::UINT, "4096",
       "serve mode: per-job event-ring bound; oldest events age out when a "
       "consumer polls too slowly",
       ""},
      {"backends", T::STRING, "fast,jit",
       "fuzz mode: comma-separated executors to cross-check against the "
       "reference interpreter",
       ""},
      {"shrink", T::BOOL, "",
       "fuzz mode: delta-debug any disagreeing program down to a minimal "
       "repro before reporting it",
       ""},
      {"repro", T::STRING, "",
       "fuzz mode: replay one k2-repro/v1 .k2asm file instead of "
       "generating programs",
       ""},
      {"repro-out", T::STRING, "",
       "fuzz mode: write the (minimized) .k2asm repro of the first "
       "mismatch here",
       ""},
      {"inject-jit-bug", T::BOOL, "",
       "fuzz mode: deliberately miscompile mov64-immediate in the JIT "
       "(harness self-test; the run must report the planted mismatch)",
       ""},
  });
}

const char* kUsage =
    "usage: k2c <input.s> [options]            one-shot single-program mode\n"
    "       k2c --bench=<name> [options]       one-shot on a corpus benchmark\n"
    "       k2c --corpus[=n1,n2,...] [options] batch mode (JSON report)\n"
    "       k2c serve --stdio|--socket=<path>  long-running NDJSON service\n"
    "       k2c solve-worker --stdio|--socket=<path>\n"
    "                                          k2-solve/v1 equivalence "
    "worker\n"
    "       k2c cache-compact --cache-dir=<d>  deduplicate a persistent\n"
    "                                          equivalence-cache directory\n"
    "       k2c fuzz --seed=N --iters=M [--backends=fast,jit] [--shrink]\n"
    "                                          differential conformance fuzz\n"
    "                                          of the execution backends\n"
    "       k2c scenario list                  built-in traffic scenarios\n"
    "       k2c scenario lint <file>           validate a k2-scenario/v1 "
    "file\n"
    "       k2c scenario describe <name|file>  print canonical JSON + "
    "fingerprint\n"
    "       k2c scenario expand <name|file> --bench=<b> [--seed=N]\n"
    "                                          preview the expanded "
    "workload\n";

std::vector<std::string> split_endpoints(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(tok);
  return out;
}

// Shared search knobs → request fields (both modes).
void apply_common(const util::Flags& f, api::CompileRequest* req) {
  req->goal = f.str("goal") == "latency" ? core::Goal::LATENCY
                                         : core::Goal::INST_COUNT;
  if (f.has("perf-model")) {
    sim::PerfModelKind kind;
    // The table already validated the enum string; the backend implies the
    // goal: slot counting is the size objective, both latency estimators
    // are the latency objective.
    sim::perf_model_kind_from_string(f.str("perf-model").c_str(), &kind);
    req->perf_model = kind;
    req->goal = kind == sim::PerfModelKind::INST_COUNT
                    ? core::Goal::INST_COUNT
                    : core::Goal::LATENCY;
  }
  if (f.str("settings") == "table8")
    req->settings = api::CompileRequest::Settings::TABLE8;
  req->iters_per_chain = f.unum("iters");
  req->num_chains = int(f.num("chains"));
  req->threads = int(f.num("threads"));
  req->seed = f.unum("seed");
  req->top_k = int(f.num("top-k"));
  req->solver_workers = int(f.num("solver-workers"));
  req->max_insns = f.unum("max-insns");
  // The table already validated the enum string.
  jit::exec_backend_from_string(f.str("exec-backend"), &req->exec_backend);
  req->cache_dir = f.str("cache-dir");
  req->solver_endpoints = split_endpoints(f.str("solver-endpoints"));
  req->portfolio = int(f.num("portfolio"));
  if (f.has("scenario")) {
    // A value that names a readable file is a scenario file; anything else
    // is treated as a catalog name (and an unknown name is a hard
    // validation error — never a silent fall-back to `default`).
    const std::string v = f.str("scenario");
    if (std::ifstream(v).good())
      req->scenario_file = v;
    else
      req->scenario = v;
  }
}

// Progress events → human-readable stderr lines (--progress).
void print_event(const api::Event& e) {
  if (e.type == "tick") {
    fprintf(stderr, "k2c: [%s] chain %lld iter %llu (%llu proposals)\n",
            e.job_id.c_str(),
            static_cast<long long>(e.data.at("chain").as_int()),
            static_cast<unsigned long long>(e.data.at("iter").as_uint()),
            static_cast<unsigned long long>(e.data.at("proposals").as_uint()));
  } else if (e.type == "best") {
    fprintf(stderr, "k2c: [%s] new best at iter %llu (perf %+.1f)\n",
            e.job_id.c_str(),
            static_cast<unsigned long long>(e.data.at("iter").as_uint()),
            e.data.at("perf").as_double());
  } else if (e.type == "job_done") {
    fprintf(stderr, "k2c: [%s] job %s/%s done in %.1fs%s\n", e.job_id.c_str(),
            e.data.get("benchmark") ? e.data.at("benchmark").as_string().c_str()
                                    : "-",
            e.data.get("setting") && !e.data.at("setting").as_string().empty()
                ? e.data.at("setting").as_string().c_str()
                : "base",
            e.data.at("wall_secs").as_double(),
            e.data.at("improved").as_bool() ? "" : " (no improvement)");
  }
}

int run_single(const util::Flags& f) {
  api::CompileRequest req;
  if (f.has("bench")) {
    req = api::CompileRequest::for_benchmark(f.str("bench"));
  } else {
    if (f.positional().empty()) {
      fputs(kUsage, stderr);
      return 2;
    }
    std::ifstream in(f.positional()[0]);
    if (!in) {
      fprintf(stderr, "k2c: cannot open %s\n", f.positional()[0].c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    req = api::CompileRequest::for_program(ss.str(), f.str("type"));
  }
  apply_common(f, &req);
  req.deterministic = !f.flag("parallel");
  const bool latency_goal = req.goal == core::Goal::LATENCY;

  api::CompilerService service({/*threads=*/req.threads,
                                /*solver_workers=*/req.solver_workers});
  api::JobHandle job;
  try {
    job = service.submit(std::move(req),
                         f.flag("progress") ? print_event : api::EventFn{});
  } catch (const api::ValidationError& e) {
    fprintf(stderr, "k2c: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    fprintf(stderr, "k2c: %s\n", e.what());
    return 2;
  }
  job.wait();
  api::CompileResponse resp = job.response();
  if (resp.state == api::JobState::FAILED) {
    fprintf(stderr, "k2c: %s\n", resp.error.c_str());
    return 2;
  }
  const core::CompileResult& res = *resp.single;

  fprintf(stderr,
          "k2c: %s: %.0f -> %.0f %s (%llu proposals, %.1fs, cache %.0f%%)\n",
          res.improved ? "improved" : "no improvement", res.src_perf,
          res.best_perf, latency_goal ? "est. ns" : "slots",
          static_cast<unsigned long long>(res.total_proposals),
          res.total_secs, res.cache.hit_rate() * 100);
  fprintf(stderr,
          "k2c: pipeline: %llu tests run, %llu skipped by early exit "
          "(%llu exits), %llu safety checks settled by Z3\n",
          static_cast<unsigned long long>(res.tests_executed),
          static_cast<unsigned long long>(res.tests_skipped),
          static_cast<unsigned long long>(res.early_exits),
          static_cast<unsigned long long>(res.safety_solver_calls));
  if (res.speculations > 0)
    fprintf(stderr,
            "k2c: async dispatch: %llu speculations (%llu rollbacks, "
            "%llu shared queries), solver queue peak %llu\n",
            static_cast<unsigned long long>(res.speculations),
            static_cast<unsigned long long>(res.rollbacks),
            static_cast<unsigned long long>(res.pending_joins),
            static_cast<unsigned long long>(res.solver_queue_peak));
  if (res.jit_bailouts > 0)
    fprintf(stderr,
            "k2c: jit: %llu candidates fell back to the interpreter\n",
            static_cast<unsigned long long>(res.jit_bailouts));
  if (res.cache.disk_loaded > 0 || res.cache.disk_writes > 0)
    fprintf(stderr,
            "k2c: persistent cache: %llu verdicts loaded, %llu disk-tier "
            "hits, %llu written through\n",
            static_cast<unsigned long long>(res.cache.disk_loaded),
            static_cast<unsigned long long>(res.cache.disk_hits),
            static_cast<unsigned long long>(res.cache.disk_writes));
  fprintf(stderr, "k2c: kernel checker: %d accepted, %d rejected during "
                  "final verification\n",
          res.kernel_accepted, res.kernel_rejected);
  if (!res.scenario.empty() && res.scenario != "default")
    fprintf(stderr, "k2c: scenario: %s (fingerprint %s)\n",
            res.scenario.c_str(), res.scenario_fingerprint.c_str());

  printf("%s", resp.best_asm.c_str());

  if (f.has("wire")) {
    // The in-process response still carries the verified program (with its
    // map table and hook type — disassembly alone loses both), so the wire
    // bytes derive from exactly the program that was re-verified.
    std::vector<uint8_t> bytes =
        ebpf::to_bytes(ebpf::encode_wire(res.best));
    std::ofstream out(f.str("wire"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
    fprintf(stderr, "k2c: wrote %zu wire bytes to %s\n", bytes.size(),
            f.str("wire").c_str());
  }
  return 0;
}

int run_batch(const util::Flags& f) {
  std::vector<std::string> names;
  {
    std::stringstream ss(f.str("corpus"));
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) names.push_back(tok);
  }
  api::CompileRequest req = api::CompileRequest::for_corpus(std::move(names));
  apply_common(f, &req);
  if (f.has("sweep"))
    req.sweep = f.str("sweep") == "table8"
                    ? api::CompileRequest::Sweep::TABLE8
                    : api::CompileRequest::Sweep::FULL;

  size_t nbench = req.corpus.empty() ? corpus::all_benchmarks().size()
                                     : req.corpus.size();
  size_t njobs =
      nbench * (req.sweep == api::CompileRequest::Sweep::NONE
                    ? 1
                    : (req.sweep == api::CompileRequest::Sweep::TABLE8
                           ? core::table8_settings().size()
                           : core::default_settings().size()));
  // Derive the banner's perf model without full request lowering —
  // to_compile_options() resolves the scenario (possibly reading a file)
  // and its validation errors belong to submit()'s error path, not here.
  core::CompileOptions pm_probe;
  pm_probe.goal = req.goal;
  pm_probe.perf_model = req.perf_model;
  fprintf(stderr,
          "k2c: batch: %zu jobs (%zu benchmarks), %d shard threads, "
          "%d solver workers, perf model %s\n",
          njobs, nbench, req.threads, req.solver_workers,
          sim::to_string(core::resolved_perf_model(pm_probe)));
  if (!req.scenario.empty() || !req.scenario_file.empty())
    fprintf(stderr, "k2c: scenario: %s\n",
            (req.scenario_file.empty() ? req.scenario : req.scenario_file)
                .c_str());

  api::CompilerService service({/*threads=*/req.threads,
                                /*solver_workers=*/req.solver_workers});
  api::JobHandle job;
  try {
    job = service.submit(std::move(req),
                         f.flag("progress") ? print_event : api::EventFn{});
  } catch (const std::exception& e) {
    fprintf(stderr, "k2c: %s\n", e.what());
    return 2;
  }
  job.wait();
  api::CompileResponse resp = job.response();
  if (resp.state == api::JobState::FAILED) {
    fprintf(stderr, "k2c: batch failed: %s\n", resp.error.c_str());
    return 2;
  }
  const core::BatchReport& report = *resp.batch;

  // Human-readable summary on stderr; the machine-readable report on disk.
  for (const core::BatchBenchmarkResult& b : report.benchmarks) {
    if (!b.error.empty()) {
      fprintf(stderr, "k2c:   %-22s ERROR: %s\n", b.name.c_str(),
              b.error.c_str());
      continue;
    }
    fprintf(stderr,
            "k2c:   %-22s %4d -> %4d slots (paper K2 %d)%s  [%.1fs]\n",
            b.name.c_str(), b.src_slots, b.best_slots, b.paper_k2,
            b.improved ? "" : "  no improvement", b.wall_secs);
  }
  fprintf(stderr,
          "k2c: batch done in %.1fs: %llu proposals, %llu solver calls, "
          "cache %llu/%llu hits\n",
          report.wall_secs,
          static_cast<unsigned long long>(report.totals.proposals),
          static_cast<unsigned long long>(report.totals.solver_calls),
          static_cast<unsigned long long>(report.totals.cache_hits),
          static_cast<unsigned long long>(report.totals.cache_hits +
                                          report.totals.cache_misses));
  if (report.totals.disk_loaded > 0 || report.totals.disk_writes > 0)
    fprintf(stderr,
            "k2c: persistent cache: %llu verdicts loaded, %llu disk-tier "
            "hits, %llu written through\n",
            static_cast<unsigned long long>(report.totals.disk_loaded),
            static_cast<unsigned long long>(report.totals.disk_hits),
            static_cast<unsigned long long>(report.totals.disk_writes));

  std::string json = report.to_json().dump(2);
  if (f.has("report")) {
    std::ofstream out(f.str("report"));
    if (!out) {
      fprintf(stderr, "k2c: cannot write %s\n", f.str("report").c_str());
      return 2;
    }
    out << json << "\n";
    fprintf(stderr, "k2c: wrote report to %s\n", f.str("report").c_str());
  } else {
    printf("%s\n", json.c_str());
  }
  return 0;
}

int run_serve(const util::Flags& f) {
  api::ServiceOptions sopts;
  sopts.threads = int(f.num("threads"));
  sopts.solver_workers = int(f.num("solver-workers"));
  sopts.cache_dir = f.str("cache-dir");
  sopts.solver_endpoints = split_endpoints(f.str("solver-endpoints"));
  sopts.max_queued_jobs = size_t(f.num("max-queued-jobs"));
  sopts.max_active_jobs = size_t(f.num("max-active-jobs"));
  sopts.max_events_per_job = size_t(f.num("max-events-per-job"));
  sopts.portfolio = int(f.num("portfolio"));
  std::optional<api::CompilerService> service;
  try {
    service.emplace(sopts);  // throws on an unopenable --cache-dir
  } catch (const std::exception& e) {
    fprintf(stderr, "k2c: serve: %s\n", e.what());
    return 2;
  }

  if (f.has("socket")) {
    fprintf(stderr, "k2c: serving NDJSON on unix socket %s (%d threads)\n",
            f.str("socket").c_str(), sopts.threads);
    int err = api::serve_unix_socket(*service, f.str("socket"));
    if (err != 0) {
      fprintf(stderr, "k2c: serve: socket error: %s\n", strerror(err));
      return 2;
    }
    return 0;
  }
  if (!f.flag("stdio")) {
    fprintf(stderr, "k2c: serve needs --stdio or --socket=<path>\n");
    return 2;
  }
  fprintf(stderr, "k2c: serving NDJSON on stdio (%d threads); send "
                  "{\"op\":\"shutdown\"} to stop\n",
          sopts.threads);
  api::ServeLoop loop(*service);
  loop.run(std::cin, std::cout);
  return 0;
}

// `k2c cache-compact --cache-dir=<d>` — offline last-writer-wins
// deduplication of a persistent equivalence-cache directory. Concurrent
// cold runs sharing one --cache-dir each append their own copy of a
// verdict; compaction rewrites every shard keeping one record per key, so
// warm-starts read (and re-verify checksums over) far fewer lines while
// behaving bit-identically.
int run_cache_compact(const util::Flags& f) {
  const std::string dir = f.str("cache-dir");
  if (dir.empty()) {
    fprintf(stderr, "k2c: cache-compact needs --cache-dir=<dir>\n");
    return 2;
  }
  verify::CacheStore::CompactionStats cs;
  std::string error;
  if (!verify::CacheStore::compact(dir, &cs, &error)) {
    fprintf(stderr, "k2c: cache-compact: %s\n", error.c_str());
    return 2;
  }
  fprintf(stderr,
          "k2c: cache-compact: %s: %llu records -> %llu "
          "(%llu duplicates removed)\n",
          dir.c_str(), static_cast<unsigned long long>(cs.records_before),
          static_cast<unsigned long long>(cs.records_after),
          static_cast<unsigned long long>(cs.records_before -
                                          cs.records_after));
  return 0;
}

// `k2c solve-worker` — one k2-solve/v1 equivalence worker: the process a
// RemoteSolverBackend (--solver-endpoints) farms Z3 queries to. Same
// transports as serve mode, same line pump.
int run_solve_worker(const util::Flags& f) {
  verify::SolveWorker worker;
  if (f.has("socket")) {
    fprintf(stderr, "k2c: solve-worker serving k2-solve/v1 on unix socket "
                    "%s\n",
            f.str("socket").c_str());
    int err = api::serve_lines_on_unix_socket(
        f.str("socket"), [&worker](const std::string& line, bool* stop) {
          return worker.handle_line(line, stop);
        });
    if (err != 0) {
      fprintf(stderr, "k2c: solve-worker: socket error: %s\n", strerror(err));
      return 2;
    }
    return 0;
  }
  if (!f.flag("stdio")) {
    fprintf(stderr, "k2c: solve-worker needs --stdio or --socket=<path>\n");
    return 2;
  }
  fprintf(stderr, "k2c: solve-worker serving k2-solve/v1 on stdio; send "
                  "{\"op\":\"shutdown\"} to stop\n");
  worker.run(std::cin, std::cout);
  return 0;
}

// `k2c fuzz` — the cross-backend differential conformance harness
// (src/testgen): generated programs + random inputs through the legacy
// interpreter (reference) and every --backends executor, cross-checked
// bit-for-bit. Exit 0 = all pairs agreed, 3 = mismatch (repro printed and,
// with --repro-out, written to disk), 2 = usage error.
int run_fuzz(const util::Flags& f) {
  conformance::HarnessConfig cfg;
  cfg.gen.seed = f.unum("seed");
  cfg.iters = f.unum("iters");
  cfg.shrink = f.flag("shrink");
  cfg.backends.clear();
  for (const std::string& tok : split_endpoints(f.str("backends"))) {
    jit::ExecBackend be;
    if (!jit::exec_backend_from_string(tok, &be)) {
      fprintf(stderr, "k2c: fuzz: unknown backend '%s' (want fast|jit)\n",
              tok.c_str());
      return 2;
    }
    cfg.backends.push_back(be);
  }
  if (cfg.backends.empty()) {
    fprintf(stderr, "k2c: fuzz: --backends must name at least one backend\n");
    return 2;
  }
  if (f.flag("inject-jit-bug")) jit::set_test_miscompile(true);

  conformance::Report rep;
  if (f.has("repro")) {
    std::ifstream in(f.str("repro"));
    if (!in) {
      fprintf(stderr, "k2c: cannot open %s\n", f.str("repro").c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    testgen::Repro repro;
    try {
      repro = testgen::parse_repro(ss.str());
    } catch (const std::exception& e) {
      fprintf(stderr, "k2c: fuzz: %s\n", e.what());
      return 2;
    }
    conformance::DifferentialHarness harness(cfg);
    rep = harness.replay(repro.program, repro.input, repro.opt);
  } else {
    conformance::DifferentialHarness harness(cfg);
    rep = harness.run();
  }

  fprintf(stderr, "k2c: fuzz: %s\n", rep.summary().c_str());
  if (rep.ok()) return 0;

  for (const conformance::Mismatch& mm : rep.mismatches)
    fprintf(stderr,
            "k2c: fuzz: MISMATCH backend=%s %s (program %d insns, "
            "shrunk to %d)\n",
            mm.backend.c_str(), mm.detail.c_str(),
            int(mm.program.insns.size()), int(mm.shrunk.insns.size()));
  const conformance::Mismatch& first = rep.mismatches.front();
  if (f.has("repro-out")) {
    std::ofstream out(f.str("repro-out"));
    if (!out) {
      fprintf(stderr, "k2c: cannot write %s\n", f.str("repro-out").c_str());
      return 2;
    }
    out << first.repro;
    fprintf(stderr, "k2c: fuzz: wrote repro to %s\n",
            f.str("repro-out").c_str());
  } else {
    fputs(first.repro.c_str(), stderr);
  }
  return 3;
}

// Loads + strictly parses a k2-scenario/v1 file, printing one `$.path:
// message` diagnostic line per problem on failure.
bool load_scenario_file_cli(const std::string& path, scenario::Scenario* out) {
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "k2c: scenario: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    *out = scenario::Scenario::from_json(util::Json::parse(ss.str()));
  } catch (const scenario::ScenarioError& e) {
    for (const scenario::Diag& d : e.diagnostics())
      fprintf(stderr, "k2c: scenario: %s: %s: %s\n", path.c_str(),
              d.path.c_str(), d.message.c_str());
    return false;
  } catch (const std::exception& e) {
    fprintf(stderr, "k2c: scenario: %s: $: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

// Catalog name or file path -> Scenario (file wins when the path is
// readable, mirroring --scenario's resolution).
bool resolve_scenario_arg(const std::string& arg, scenario::Scenario* out) {
  if (std::ifstream(arg).good()) return load_scenario_file_cli(arg, out);
  const scenario::Scenario* s = scenario::find_scenario(arg);
  if (!s) {
    fprintf(stderr,
            "k2c: scenario: unknown scenario '%s' (expected %s, or a "
            "readable file path)\n",
            arg.c_str(), scenario::catalog_names().c_str());
    return false;
  }
  *out = *s;
  return true;
}

// `k2c scenario <list|lint|describe|expand>` — inspect and validate
// traffic scenarios without running a compile. `k2c scenario --lint=<file>`
// is an alias for the lint verb.
int run_scenario(const util::Flags& f) {
  const std::vector<std::string>& pos = f.positional();
  std::string verb = pos.size() > 1 ? pos[1] : "";
  std::string target = pos.size() > 2 ? pos[2] : "";
  if (f.has("lint")) {
    if (!verb.empty()) {
      fprintf(stderr, "k2c: scenario: --lint and a verb are exclusive\n");
      return 2;
    }
    verb = "lint";
    target = f.str("lint");
  }

  if (verb == "list" || verb.empty()) {
    for (const scenario::Scenario& s : scenario::catalog())
      printf("%-20s %s  %s\n", s.name.c_str(), s.fingerprint().c_str(),
             s.description.c_str());
    return 0;
  }
  if (verb == "lint") {
    if (target.empty()) {
      fprintf(stderr, "k2c: scenario lint needs a file path\n");
      return 2;
    }
    scenario::Scenario s;
    if (!load_scenario_file_cli(target, &s)) return 2;
    fprintf(stderr, "k2c: scenario: %s OK: name=%s fingerprint=%s\n",
            target.c_str(), s.name.c_str(), s.fingerprint().c_str());
    return 0;
  }
  if (verb == "describe") {
    scenario::Scenario s;
    if (target.empty() || !resolve_scenario_arg(target, &s)) return 2;
    printf("%s\n", s.to_json().dump(2).c_str());
    fprintf(stderr, "k2c: scenario: fingerprint=%s\n", s.fingerprint().c_str());
    return 0;
  }
  if (verb == "expand") {
    scenario::Scenario s;
    if (target.empty() || !resolve_scenario_arg(target, &s)) return 2;
    if (!f.has("bench")) {
      fprintf(stderr,
              "k2c: scenario expand needs --bench=<corpus benchmark> (its "
              "maps shape the workload)\n");
      return 2;
    }
    const ebpf::Program* prog;
    try {
      prog = &corpus::benchmark(f.str("bench")).o2;
    } catch (const std::out_of_range&) {
      fprintf(stderr, "k2c: scenario: unknown benchmark '%s'\n",
              f.str("bench").c_str());
      return 2;
    }
    std::vector<interp::InputSpec> workload =
        scenario::expand(s, *prog, f.unum("seed"));
    fprintf(stderr,
            "k2c: scenario %s (fingerprint %s): %zu inputs for %s, "
            "seed %llu\n",
            s.name.c_str(), s.fingerprint().c_str(), workload.size(),
            f.str("bench").c_str(),
            static_cast<unsigned long long>(f.unum("seed")));
    for (size_t i = 0; i < workload.size(); ++i) {
      const interp::InputSpec& in = workload[i];
      size_t entries = 0;
      for (const auto& [fd, es] : in.maps) entries += es.size();
      printf("input %3zu: packet %4zu B, %zu map entries in %zu maps, "
             "ktime %llu, cpu %u\n",
             i, in.packet.size(), entries, in.maps.size(),
             static_cast<unsigned long long>(in.ktime_base), in.cpu_id);
    }
    return 0;
  }
  fprintf(stderr,
          "k2c: scenario: unknown verb '%s' (expected "
          "list|lint|describe|expand)\n",
          verb.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags f = make_flags();
  std::string error;
  if (!f.parse(argc, argv, &error)) {
    fprintf(stderr, "k2c: %s\n", error.c_str());
    return 2;
  }
  if (f.help_requested()) {
    fputs(f.help(kUsage).c_str(), stdout);
    return 0;
  }
  // Stray arguments are hard errors, same as unknown flags: `--corpus
  // xdp_fw` (value-less OPT_STRING followed by a positional) must not
  // silently run the full 19-benchmark corpus.
  auto reject_positionals = [&](size_t allowed, const char* mode) {
    if (f.positional().size() <= allowed) return false;
    fprintf(stderr, "k2c: unexpected argument '%s' in %s mode (see --help)\n",
            f.positional()[allowed].c_str(), mode);
    return true;
  };
  if (!f.positional().empty() && f.positional()[0] == "serve") {
    if (reject_positionals(1, "serve")) return 2;
    return run_serve(f);
  }
  if (!f.positional().empty() && f.positional()[0] == "solve-worker") {
    if (reject_positionals(1, "solve-worker")) return 2;
    return run_solve_worker(f);
  }
  if (!f.positional().empty() && f.positional()[0] == "cache-compact") {
    if (reject_positionals(1, "cache-compact")) return 2;
    return run_cache_compact(f);
  }
  if (!f.positional().empty() && f.positional()[0] == "fuzz") {
    if (reject_positionals(1, "fuzz")) return 2;
    return run_fuzz(f);
  }
  if (!f.positional().empty() && f.positional()[0] == "scenario") {
    if (reject_positionals(3, "scenario")) return 2;
    return run_scenario(f);
  }
  if (f.has("corpus")) {
    if (reject_positionals(0, "batch")) return 2;
    return run_batch(f);
  }
  if (f.has("bench")) {
    if (reject_positionals(0, "--bench")) return 2;
    return run_single(f);
  }
  if (f.positional().empty()) {
    fputs(kUsage, stderr);
    return 2;
  }
  if (reject_positionals(1, "single-program")) return 2;
  return run_single(f);
}
