// k2perf — the K2 end-to-end benchmark program (workloads, metrics and the
// layer table are described in BENCHMARK.json at the repository root; the
// wrapper perfbench/run.py builds this binary and forwards its arguments).
//
//   k2perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--jobs <n>] [--spans <file>] [--corrupt-winner]
//
// --trace 0 drives a fixed job list through api::CompilerService (the entry
// point `k2c` and `k2c serve` use) as a closed loop and prints the
// end-to-end metrics. --trace 1 repeats that untraced service run, then
// measures the layers from outside src/: a traced replay of every job as a
// direct sequential core::compile with a timing SolverBackend, and a stage
// replay that times each layer's public function on a seeded candidate
// stream. Spans are kept in memory and written to --spans at the end.
//
// Every winner is checked against its source with the legacy reference
// interpreter on held-out inputs and with the kernel-checker model; the
// compiler's own verdict is never the reference. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is
// non-zero when any check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/request.h"
#include "api/service.h"
#include "core/compiler.h"
#include "core/params.h"
#include "core/proposals.h"
#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "interp/fast_interp.h"
#include "interp/interpreter.h"
#include "kernel/kernel_checker.h"
#include "safety/safety.h"
#include "scenario/expander.h"
#include "sim/perf_model.h"
#include "verify/cache.h"
#include "verify/solver_backend.h"
#include "verify/window.h"

namespace {

using namespace k2;
using Clock = std::chrono::steady_clock;

// Taken during static initialization: the process-start reference for the
// first set-up measurement.
const Clock::time_point g_process_start = Clock::now();

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- load shape -------------------------------------------------------------
// One client thread keeps kInFlight jobs in flight on a kPoolThreads-wide
// service (4 threads in all), solver_workers = 0, deterministic jobs with
// kChains chains each. deterministic:false is not used: its winners vary
// from run to run, and on a service pool such jobs can hang because final
// re-verification blocks a pool worker on tasks only that pool can run.
constexpr int kInFlight = 3;
constexpr int kPoolThreads = 3;
constexpr int kChains = 2;
constexpr int kSetupReps = 9;
// Hard per-job limit: a job still running after kJobTimeoutS is cancelled
// and counts as failed; one that ignores the cancel for kCancelGraceS more
// is abandoned as hung (the process then exits without joining it).
constexpr double kJobTimeoutS = 60;
constexpr double kCancelGraceS = 15;
constexpr double kOverrunFactor = 1.2;
// Held-out correctness inputs per winner.
constexpr int kHeldOutTests = 48;
constexpr int kHeldOutScenarioInputs = 32;
// Stage replay: candidates per program and the walk's restart period.
constexpr int kReplayCandidates = 300;
constexpr int kReplayRestart = 50;

struct ProgSpec {
  std::string bench;
  std::string scenario;  // empty = the default scenario
};

struct Workload {
  std::string name;
  std::vector<ProgSpec> progs;
  core::Goal goal = core::Goal::INST_COUNT;
  std::optional<sim::PerfModelKind> perf_model;
  uint64_t iters = 0;
  // Jobs per second this workload completed under the load shape above when
  // the benchmark was defined (4-thread x86-64 host). The fixed job list
  // holds --seconds x this many jobs, rounded up to whole program cycles,
  // so a run measures about --seconds and every run of one (workload,
  // seconds) pair attempts the same jobs.
  double nominal_jobs_per_s = 1;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = [] {
    std::vector<Workload> v;
    Workload safety;
    safety.name = "safety_heavy";
    safety.progs = {{"xdp_map_access", ""},
                    {"xdp_exception", ""},
                    {"xdp_redirect_err", ""}};
    safety.iters = 100;
    safety.nominal_jobs_per_s = 1.6;
    v.push_back(safety);

    // recvmsg4 only: xdp_fwd jobs ranged from 0.9 s to 25 s across search
    // seeds (the number and cost of their solver queries depend on the
    // trajectory), which swung a 30 s run's throughput by more than the
    // metric's bound. Short searches give many jobs per run, so the median
    // and tail are steady.
    Workload equiv;
    equiv.name = "equiv_heavy";
    equiv.progs = {{"recvmsg4", ""}};
    equiv.iters = 15;
    equiv.nominal_jobs_per_s = 1.35;
    v.push_back(equiv);

    Workload trace;
    trace.name = "trace_pricing";
    trace.progs = {{"xdp1_kern/xdp1", "incast_cold_maps"},
                   {"xdp2_kern/xdp1", "heavy_tail_bursts"},
                   {"xdp_router_ipv4", ""}};
    trace.goal = core::Goal::LATENCY;
    trace.perf_model = sim::PerfModelKind::TRACE_LATENCY;
    trace.iters = 250;
    trace.nominal_jobs_per_s = 0.55;
    v.push_back(trace);
    return v;
  }();
  return w;
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * double(v.size() - 1);
  size_t lo = size_t(std::floor(pos));
  size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

// The tail the benchmark reports: the highest order statistic with at least
// ten samples beyond it (the 11th largest), as a percentile level for
// percentile(); the median when there are fewer than 21 samples.
double tail_level(size_t n) {
  if (n < 21) return 50;
  return 100.0 * double(n - 11) / double(n - 1);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

// ---- spans ------------------------------------------------------------------
// In-memory span log, written out at the end of a traced run.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string job;
  double start_us = 0;  // since process start
  double end_us = 0;
};

class Tracer {
 public:
  uint64_t record(std::string name, std::string job, uint64_t parent,
                  Clock::time_point t0, Clock::time_point t1) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.job = std::move(job);
    s.start_us = secs_between(g_process_start, t0) * 1e6;
    s.end_us = secs_between(g_process_start, t1) * 1e6;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  // Reserves an id for a span whose end is not known yet (a parent whose
  // children are recorded first); close() fills it in.
  uint64_t open(std::string name, std::string job, uint64_t parent,
                Clock::time_point t0) {
    return record(std::move(name), std::move(job), parent, t0, t0);
  }
  void close(uint64_t id, Clock::time_point t1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = secs_between(g_process_start, t1) * 1e6;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"job\":"
                   "\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   s.name.c_str(), s.job.c_str(), s.start_us, s.end_us);
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// ---- set-up -----------------------------------------------------------------

struct JobSpec {
  size_t prog = 0;
  uint64_t seed = 0;
  std::string id;  // "<workload>#<index>", the span job id
  api::CompileRequest req;
};

struct Setup {
  std::vector<ebpf::Program> srcs;          // per program
  std::vector<scenario::Scenario> scns;     // per program
  std::vector<double> expand_ms;            // per program
  std::vector<JobSpec> jobs;
  std::unique_ptr<api::CompilerService> svc;
};

const corpus::Benchmark& find_in(const std::vector<corpus::Benchmark>& suite,
                                 const std::string& name) {
  for (const corpus::Benchmark& b : suite)
    if (b.name == name) return b;
  throw std::runtime_error("no such benchmark: " + name);
}

Setup make_setup(const Workload& w, uint64_t seed, size_t njobs) {
  Setup s;
  // Corpus construction: every suite, built afresh as all_benchmarks() does.
  std::vector<corpus::Benchmark> suite = corpus::linux_benchmarks();
  for (auto* part : {&corpus::facebook_benchmarks, &corpus::hxdp_benchmarks,
                     &corpus::cilium_benchmarks})
    for (corpus::Benchmark& b : (*part)()) suite.push_back(std::move(b));

  for (size_t p = 0; p < w.progs.size(); p++) {
    s.srcs.push_back(find_in(suite, w.progs[p].bench).o2);
    api::CompileRequest probe = api::CompileRequest::for_benchmark(w.progs[p].bench);
    probe.scenario = w.progs[p].scenario;
    s.scns.push_back(probe.resolved_scenario());
    auto t0 = Clock::now();
    scenario::ScenarioExpander ex(s.scns.back());
    std::vector<interp::InputSpec> specs = ex.expand(s.srcs.back(), seed);
    if (specs.empty()) throw std::runtime_error("empty scenario expansion");
    s.expand_ms.push_back(secs_between(t0, Clock::now()) * 1e3);
  }

  for (size_t i = 0; i < njobs; i++) {
    JobSpec j;
    j.prog = i % w.progs.size();
    j.seed = splitmix64(seed * 0x100000001b3ull + i);
    j.id = w.name + "#" + std::to_string(i);
    const ProgSpec& ps = w.progs[j.prog];
    j.req = api::CompileRequest::for_benchmark(ps.bench)
                .with_goal(w.goal)
                .iters(w.iters)
                .chains(kChains)
                .with_seed(j.seed)
                .with_solver_workers(0);
    if (w.perf_model) j.req.with_perf_model(*w.perf_model);
    j.req.deterministic = true;
    j.req.scenario = ps.scenario;
    j.req.validate_or_throw();
    s.jobs.push_back(std::move(j));
  }

  api::ServiceOptions so;
  so.threads = kPoolThreads;
  so.solver_workers = 0;
  s.svc = std::make_unique<api::CompilerService>(so);
  return s;
}

// ---- the untraced service run -------------------------------------------------

struct JobRun {
  api::JobHandle h;
  Clock::time_point submit{}, done{};
  bool finished = false, timed_out = false;
  Clock::time_point cancel_sent{};
  api::JobState state = api::JobState::QUEUED;
  std::string error;
  std::optional<core::CompileResult> res;
  double queue_s = -1, run_s = -1;  // from the job's state events
  // Correctness check.
  bool correct = false;
  std::string why;

  bool ok() const { return state == api::JobState::DONE && res && correct; }
};

struct ServiceRun {
  std::vector<JobRun> runs;
  Clock::time_point start{};
  uint64_t rejected = 0;
  // Resident memory, sampled every 10 ms while jobs run. The median is the
  // reported figure: the peak depends on which of a seed's solver queries
  // is largest and on allocator history, and varied by up to 40% between
  // seeds on safety_heavy.
  std::vector<double> rss_mb;
  bool any_hung = false;
  bool truncated = false;
};

void read_state_events(JobRun& r) {
  double queued = -1, running = -1, terminal = -1;
  for (const api::Event& e : r.h.poll(0)) {
    if (e.type != "state") continue;
    const util::Json* st = e.data.get("state");
    if (!st || !st->is_string()) continue;
    if (st->as_string() == "QUEUED") queued = e.t_sec;
    else if (st->as_string() == "RUNNING") running = e.t_sec;
    else terminal = e.t_sec;
  }
  if (queued >= 0 && running >= 0) r.queue_s = running - queued;
  if (running >= 0 && terminal >= 0) r.run_s = terminal - running;
}

// Drives the job list through the service. On a host much slower than the
// one the list was sized on, submission stops at the first program cycle
// boundary after kOverrunFactor x seconds; the list is cut to the jobs
// submitted, so the run still ends in bounded time.
ServiceRun run_service(Setup& s, double seconds) {
  ServiceRun out;
  out.runs.resize(s.jobs.size());
  // Shared with the job callbacks, which may outlive this function when a
  // hung job is abandoned.
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::pair<size_t, Clock::time_point>> done;  // guarded by mu
  };
  auto inbox = std::make_shared<Inbox>();

  auto submit = [&](size_t i) {
    JobRun& r = out.runs[i];
    r.submit = Clock::now();
    try {
      r.h = s.svc->submit(s.jobs[i].req, [inbox, i](const api::Event& e) {
        if (e.type != "state") return;
        const util::Json* st = e.data.get("state");
        if (!st || !st->is_string()) return;
        const std::string& v = st->as_string();
        if (v == "QUEUED" || v == "RUNNING") return;
        auto now = Clock::now();
        {
          std::lock_guard<std::mutex> lock(inbox->mu);
          inbox->done.emplace_back(i, now);
        }
        inbox->cv.notify_one();
      });
    } catch (const std::exception& e) {  // overloaded or invalid
      r.finished = true;
      r.done = Clock::now();
      r.state = api::JobState::FAILED;
      r.error = e.what();
    }
  };

  out.start = Clock::now();
  size_t next = 0;
  std::vector<size_t> live;  // jobs in flight
  while (next < s.jobs.size() || !live.empty()) {
    while (live.size() < size_t(kInFlight) && next < s.jobs.size()) {
      if (next % s.srcs.size() == 0 &&
          secs_between(out.start, Clock::now()) > kOverrunFactor * seconds) {
        out.truncated = true;
        s.jobs.resize(next);
        out.runs.resize(next);
        break;
      }
      submit(next);
      if (!out.runs[next].finished) live.push_back(next);
      next++;
    }
    std::vector<std::pair<size_t, Clock::time_point>> got;
    {
      std::unique_lock<std::mutex> lock(inbox->mu);
      inbox->cv.wait_for(lock, std::chrono::milliseconds(10),
                         [&] { return !inbox->done.empty(); });
      got.swap(inbox->done);
    }
    out.rss_mb.push_back(current_rss_mb());
    for (auto [i, when] : got) {
      JobRun& r = out.runs[i];
      if (r.finished) continue;  // an abandoned (hung) job finishing late
      r.finished = true;
      r.done = when;
      api::CompileResponse resp = r.h.response();
      r.state = resp.state;
      r.error = resp.error;
      if (resp.single) r.res = std::move(resp.single);
      if (r.timed_out) {
        r.state = api::JobState::FAILED;
        r.error = "hard timeout";
      }
      read_state_events(r);
      live.erase(std::find(live.begin(), live.end(), i));
    }
    auto now = Clock::now();
    for (size_t k = 0; k < live.size();) {
      JobRun& r = out.runs[live[k]];
      if (!r.timed_out && secs_between(r.submit, now) > kJobTimeoutS) {
        r.timed_out = true;
        r.cancel_sent = now;
        r.h.cancel();
      } else if (r.timed_out && secs_between(r.cancel_sent, now) > kCancelGraceS) {
        r.finished = true;
        r.done = now;
        r.state = api::JobState::FAILED;
        r.error = "hung: ignored cancel";
        out.any_hung = true;
        live.erase(live.begin() + long(k));
        continue;
      }
      k++;
    }
  }
  out.rejected = s.svc->metrics().rejected;
  return out;
}

// Work per second while the closed loop is full: completions counted up to
// the one that let the last job in, over the time since the first submit.
// The drain at the end, when fewer than kInFlight jobs remain, is left out:
// its length depends on which jobs happen to come last.
double jobs_per_s(const ServiceRun& run) {
  std::vector<Clock::time_point> done;
  for (const JobRun& r : run.runs)
    if (r.state == api::JobState::DONE && r.res) done.push_back(r.done);
  std::sort(done.begin(), done.end());
  if (done.empty()) return 0;
  size_t n = done.size() > size_t(kInFlight) ? done.size() - kInFlight + 1 : done.size();
  return double(n) / secs_between(run.start, done[n - 1]);
}

// ---- correctness --------------------------------------------------------------

// A deliberately wrong winner (returns a constant no corpus program returns
// unconditionally), for --corrupt-winner: proves the check can fail.
ebpf::Program corrupted(const ebpf::Program& src) {
  ebpf::Program p = ebpf::assemble("mov64 r0, 77\nexit", src.type);
  p.maps = src.maps;
  return p;
}

// Winner vs source on held-out inputs through the legacy reference
// interpreter, plus the kernel-checker model on the winner. The held-out
// seed is derived from, but never equal to, the job's search seed.
void check_winner(const ebpf::Program& src, const scenario::Scenario& scn,
                  uint64_t job_seed, bool corrupt, JobRun& r) {
  if (r.state != api::JobState::DONE || !r.res) {
    r.correct = false;
    r.why = r.error.empty() ? "not done" : r.error;
    return;
  }
  ebpf::Program win = corrupt ? corrupted(src) : r.res->best;
  uint64_t held_out = splitmix64(job_seed ^ 0x68656c646f7574ull);
  std::vector<interp::InputSpec> inputs =
      core::generate_tests(src, kHeldOutTests, held_out);
  for (interp::InputSpec& in :
       scenario::expand(scn, src, kHeldOutScenarioInputs, held_out))
    inputs.push_back(std::move(in));
  for (size_t k = 0; k < inputs.size(); k++) {
    interp::RunResult a = interp::run(src, inputs[k]);
    interp::RunResult b = interp::run(win, inputs[k]);
    if (!interp::outputs_equal(src.type, a, b)) {
      r.correct = false;
      r.why = "held-out input " + std::to_string(k) + " differs";
      return;
    }
  }
  kernel::CheckResult kc = kernel::kernel_check(win);
  if (!kc.accepted) {
    r.correct = false;
    r.why = "kernel checker rejects winner: " + kc.reason;
    return;
  }
  r.correct = true;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, size_t attempted, size_t failed,
                  const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); i++) {
    char buf[64];
    double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- traced replay of the jobs ---------------------------------------------------

// Forwards to the in-process query policy and times every call.
class TimingBackend final : public verify::SolverBackend {
 public:
  TimingBackend(std::string job, uint64_t parent) : job_(std::move(job)), parent_(parent) {}
  const char* name() const override { return "timing"; }
  verify::EqResult solve(const verify::SolveQuery& q) override {
    auto t0 = Clock::now();
    verify::EqResult r = verify::solve_query_local(q);
    auto t1 = Clock::now();
    g_tracer.record("verify.eq_solve", job_, parent_, t0, t1);
    ms.push_back(secs_between(t0, t1) * 1e3);
    if (r.verdict == verify::Verdict::EQUAL) equal++;
    if (r.verdict == verify::Verdict::UNKNOWN) unknown++;
    return r;
  }

  std::vector<double> ms;
  uint64_t equal = 0, unknown = 0;

 private:
  std::string job_;
  uint64_t parent_;
};

struct TracedJob {
  core::CompileResult res;
  double compile_s = 0;
  std::vector<double> eq_ms;
  uint64_t eq_equal = 0, eq_unknown = 0;
  verify::EqCache::Stats cache;
  double final_check_ms = 0;
  std::string error;
};

// Runs kInFlight jobs at a time, as the service does. Jobs the service run
// did not finish are not replayed: one that hung there would hang here too.
std::vector<TracedJob> run_traced(const Setup& s, const ServiceRun& run) {
  std::vector<TracedJob> out(s.jobs.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < s.jobs.size();) {
      const JobSpec& j = s.jobs[i];
      TracedJob& tj = out[i];
      if (run.runs[i].state != api::JobState::DONE) {
        tj.error = "not replayed: the service run did not finish it";
        continue;
      }
      try {
        const ebpf::Program& src = s.srcs[j.prog];
        core::CompileOptions copts = j.req.to_compile_options();
        auto tj0 = Clock::now();
        uint64_t job_span = g_tracer.open("job", j.id, 0, tj0);
        uint64_t compile_span = g_tracer.open("core.compile", j.id, job_span, tj0);
        TimingBackend backend(j.id, compile_span);
        verify::EqCache cache;
        core::CompileServices svc;
        svc.cache = &cache;
        svc.backend = &backend;
        svc.sequential = true;
        svc.progress = [&j, compile_span](const core::ProgressEvent& e) {
          if (e.kind != core::ProgressEvent::Kind::NEW_BEST) return;
          auto now = Clock::now();
          g_tracer.record("core.new_best", j.id, compile_span, now, now);
        };
        svc.tick_every = 512;
        auto t0 = Clock::now();
        tj.res = core::compile(src, copts, svc);
        auto t1 = Clock::now();
        g_tracer.close(compile_span, t1);
        tj.compile_s = secs_between(t0, t1);
        tj.eq_ms = std::move(backend.ms);
        tj.eq_equal = backend.equal;
        tj.eq_unknown = backend.unknown;
        tj.cache = cache.stats();
        auto f0 = Clock::now();
        verify::check_equivalence(src, tj.res.best, copts.eq);
        auto f1 = Clock::now();
        g_tracer.record("verify.final_check", j.id, job_span, f0, f1);
        tj.final_check_ms = secs_between(f0, f1) * 1e3;
        g_tracer.close(job_span, f1);
      } catch (const std::exception& e) {
        tj.error = e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kInFlight; t++) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return out;
}

// ---- stage replay -----------------------------------------------------------------

struct StageTimes {
  std::vector<double> propose_us, decode_us, suite_us, perf_us, kernel_us;
  std::vector<double> safety_ms, cache_us, eq_ms;
  uint64_t attempts = 0, test_kills = 0;
  uint64_t kernel_checked = 0, kernel_rejects = 0;
  uint64_t safety_rejects = 0;
  bool capped = false;
};

// Replays a seeded proposal stream per program through each layer's public
// entry point, in the pipeline's order except that the kernel checker and
// the safety checker both see every test survivor, so each is timed on the
// same candidates. Candidates proven equal become the walk's next base; the
// walk restarts from the source periodically. Each program gets an equal
// share of the cap_s time budget.
StageTimes run_stage_replay(const Workload& w, const Setup& s, uint64_t seed,
                            double cap_s) {
  StageTimes st;
  std::vector<core::SearchParams> settings = core::default_settings();
  for (size_t p = 0; p < s.srcs.size(); p++) {
    auto start = Clock::now();
    const ebpf::Program& src = s.srcs[p];
    std::string job = w.name + "/replay/" + w.progs[p].bench;
    uint64_t root = g_tracer.open("replay", job, 0, start);

    bool window_mode = src.num_real_insns() > core::CompileOptions{}.window_threshold;
    std::vector<verify::WindowSpec> windows;
    if (window_mode) windows = verify::select_windows(src, 6);
    if (windows.empty()) window_mode = false;

    uint64_t pseed = splitmix64(seed ^ (0x7265706c6179ull + p));
    std::vector<interp::InputSpec> tests = core::generate_tests(src, 24, pseed);
    std::vector<interp::RunResult> expected;
    for (const interp::InputSpec& in : tests) expected.push_back(interp::run(src, in));
    std::vector<interp::SuiteTest> batch;
    for (size_t k = 0; k < tests.size(); k++) batch.push_back({&tests[k], &expected[k]});

    std::unique_ptr<sim::PerfModel> pm = sim::make_perf_model(
        core::resolved_perf_model([&] {
          core::CompileOptions o;
          o.goal = w.goal;
          o.perf_model = w.perf_model;
          return o;
        }()),
        src, scenario::expand(s.scns[p], src, s.scns[p].inputs, pseed));
    interp::Machine scratch;
    interp::SuiteRunner runner;
    interp::RunOptions ropt;
    verify::EqCache cache;
    std::mt19937_64 rng(pseed);

    ebpf::Program cur = src;
    std::optional<verify::WindowSpec> win;
    std::unique_ptr<core::ProposalGen> gen;
    bool full_decode = true;
    for (int k = 0; k < kReplayCandidates; k++) {
      if (secs_between(start, Clock::now()) > cap_s / double(s.srcs.size())) {
        st.capped = true;
        break;
      }
      if (k % kReplayRestart == 0) {
        cur = src;
        if (window_mode) win = windows[size_t(k / kReplayRestart) % windows.size()];
        gen = std::make_unique<core::ProposalGen>(
            src, settings[size_t(k / kReplayRestart) % settings.size()],
            core::ProposalRules{}, win);
        full_decode = true;
      }
      auto timed = [&](const char* name, auto&& fn, std::vector<double>& into,
                      double scale) {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        g_tracer.record(name, job, root, t0, t1);
        into.push_back(secs_between(t0, t1) * scale);
      };
      ebpf::InsnRange touched{};
      ebpf::Program cand;
      timed("core.propose", [&] { cand = gen->propose(cur, rng, &touched); },
           st.propose_us, 1e6);
      timed("ebpf.decode",
           [&] { runner.prepare(cand, full_decode ? nullptr : &touched); },
           st.decode_us, 1e6);
      full_decode = false;
      timed("sim.perf", [&] { pm->absolute(cand, &scratch); }, st.perf_us, 1e6);
      interp::SuiteOutcome so;
      timed("interp.suite", [&] { so = runner.run_suite(batch, true, ropt); },
           st.suite_us, 1e6);
      st.attempts++;
      if (so.first_fail >= 0) {
        st.test_kills++;
        continue;
      }
      kernel::CheckResult kc;
      timed("kernel.check", [&] { kc = kernel::kernel_check(cand); }, st.kernel_us, 1e6);
      st.kernel_checked++;
      if (!kc.accepted) st.kernel_rejects++;
      safety::SafetyOptions sopt;
      sopt.run_solver_checks = !window_mode;
      safety::SafetyResult sr;
      timed("safety.check", [&] { sr = safety::check_safety(cand, sopt); },
           st.safety_ms, 1e3);
      if (!sr.safe) st.safety_rejects++;
      if (!sr.safe || !kc.accepted) continue;
      verify::EqCache::Key key = verify::EqCache::key_for(src, cand);
      std::optional<verify::Verdict> hit;
      timed("verify.cache", [&] { hit = cache.lookup(key); }, st.cache_us, 1e6);
      verify::Verdict v;
      if (hit) {
        v = *hit;
      } else {
        verify::SolveQuery q;
        q.src = src;
        q.cand = cand;
        q.win = win;
        verify::EqResult er;
        timed("verify.eq_solve", [&] { er = verify::solve_query_local(q); },
             st.eq_ms, 1e3);
        cache.insert(key, er.verdict);
        v = er.verdict;
      }
      if (v == verify::Verdict::EQUAL) cur = cand;
    }
    g_tracer.close(root, Clock::now());
  }
  return st;
}

// ---- main -----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  long jobs = -1;  // override the job-list length (self-test)
  std::string spans;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "k2perf: %s\nusage: k2perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--jobs <n>] [--spans <file>] "
               "[--corrupt-winner]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val());
      else if (k == "--jobs") a.jobs = std::stol(val());
      else if (k == "--spans") a.spans = val();
      else if (k == "--corrupt-winner") a.corrupt = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.jobs == 0 || a.jobs < -1) usage("--jobs must be positive");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  usage(("unknown workload '" + name + "'").c_str());
}

size_t job_count(const Workload& w, const Args& a) {
  if (a.jobs > 0) return size_t(a.jobs);
  size_t p = w.progs.size();
  size_t n = size_t(std::ceil(a.seconds * w.nominal_jobs_per_s));
  return std::max(p, (n + p - 1) / p * p);
}

// Checks every winner; returns the number of jobs that failed (not DONE,
// timed out, hung, or a failed check).
size_t check_all(const Setup& s, ServiceRun& run, bool corrupt) {
  size_t failed = 0;
  for (size_t i = 0; i < run.runs.size(); i++) {
    JobRun& r = run.runs[i];
    const JobSpec& j = s.jobs[i];
    check_winner(s.srcs[j.prog], s.scns[j.prog], j.seed, corrupt, r);
    if (!r.ok()) {
      failed++;
      std::printf("FAILED %s (%s): %s\n", j.id.c_str(),
                  s.jobs[i].req.benchmark.c_str(), r.why.c_str());
    }
  }
  return failed;
}

// True when a job finished but its winner failed the correctness check, as
// opposed to a job that did not finish.
bool any_wrong_winner(const ServiceRun& run) {
  for (const JobRun& r : run.runs)
    if (r.state == api::JobState::DONE && r.res && !r.correct) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  const Workload& w = find_workload(a.workload);
  size_t njobs = job_count(w, a);

  // Set-up, several times: the first from process start, the others from
  // scratch; the median is reported. The last one is used.
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; rep++) {
    s = Setup{};
    auto t0 = rep == 0 ? g_process_start : Clock::now();
    s = make_setup(w, a.seed, njobs);
    setup_s.push_back(secs_between(t0, Clock::now()));
  }

  ServiceRun run = run_service(s, a.seconds);
  size_t failed = check_all(s, run, a.corrupt);
  bool correct = !any_wrong_winner(run);
  size_t attempted = run.runs.size();

  std::vector<double> job_s, log_ratio, queue_s, run_s;
  size_t done = 0;
  for (const JobRun& r : run.runs) {
    if (r.state == api::JobState::DONE && r.res) {
      done++;
      job_s.push_back(secs_between(r.submit, r.done));
      log_ratio.push_back(std::log(r.res->best_perf / r.res->src_perf));
    }
    if (r.queue_s >= 0) queue_s.push_back(r.queue_s);
    if (r.run_s >= 0) run_s.push_back(r.run_s);
  }
  // One row per program, so a change that helps one program and hurts
  // another shows.
  for (size_t p = 0; p < w.progs.size(); p++) {
    std::vector<double> pj, pr;
    for (size_t i = 0; i < run.runs.size(); i++) {
      const JobRun& r = run.runs[i];
      if (s.jobs[i].prog != p || r.state != api::JobState::DONE || !r.res) continue;
      pj.push_back(secs_between(r.submit, r.done));
      pr.push_back(std::log(r.res->best_perf / r.res->src_perf));
    }
    std::printf("  %-20s %3zu jobs  job_s_p50 %.3f  cost ratio %.4f\n",
                w.progs[p].bench.c_str(), pj.size(), median(pj),
                pr.empty() ? 0.0 : std::exp(sum(pr) / double(pr.size())));
  }
  double tail_p = tail_level(job_s.size());
  double geo = log_ratio.empty() ? 0 : std::exp(sum(log_ratio) / double(log_ratio.size()));
  std::printf("workload %s seed %llu: %zu jobs over %zu programs, %llu iters x "
              "%d chains each, %d in flight on %d pool threads\n",
              w.name.c_str(), (unsigned long long)a.seed, attempted,
              w.progs.size(), (unsigned long long)w.iters, kChains, kInFlight,
              kPoolThreads);
  std::printf("correctness: %zu winners checked on %d held-out inputs each "
              "(reference interpreter) + kernel checker; %zu failed\n",
              done, kHeldOutTests + kHeldOutScenarioInputs, failed);
  std::printf("job_s_tail is p%.1f over %zu samples\n", tail_p, job_s.size());
  std::printf("resident memory: median %.1f MB over the run, peak %.1f MB\n",
              median(run.rss_mb), peak_rss_mb());
  if (run.truncated)
    std::printf("job list cut to %zu jobs: the run passed %.0f%% of --seconds\n",
                attempted, 100 * kOverrunFactor);

  if (a.trace == 0) {
    std::vector<Metric> ms = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", jobs_per_s(run), "1/s"},
        {"job_s_p50", median(job_s), "s"},
        {"job_s_tail", percentile(job_s, tail_p), "s"},
        {"winner_cost_ratio", geo, "ratio"},
        {"verified_share", share(double(attempted - failed), double(attempted)), "ratio"},
        {"rss_mb_p50", median(run.rss_mb), "MB"},
    };
    print_result(correct, attempted, failed, ms);
    if (run.any_hung) std::_Exit(correct ? 0 : 1);  // cannot join a hung job
    return correct ? 0 : 1;
  }

  // ---- traced run ------------------------------------------------------------
  std::vector<TracedJob> traced = run_traced(s, run);
  // Decision neutrality: the traced replay must pick the same winners after
  // the same number of proposals as the service did. A job the service did
  // not finish has nothing to compare against; it is already counted failed.
  size_t mismatches = 0;
  for (size_t i = 0; i < traced.size(); i++) {
    const JobRun& r = run.runs[i];
    const TracedJob& tj = traced[i];
    if (r.state != api::JobState::DONE || !r.res) continue;
    if (!tj.error.empty() ||
        ebpf::disassemble(r.res->best) != ebpf::disassemble(tj.res.best) ||
        r.res->total_proposals != tj.res.total_proposals) {
      mismatches++;
      std::printf("NEUTRALITY %s: traced winner/proposals differ from the service run%s%s\n",
                  s.jobs[i].id.c_str(), tj.error.empty() ? "" : ": ",
                  tj.error.c_str());
    }
  }
  if (mismatches) correct = false;

  double replay_cap = std::max(5.0, a.seconds / 2);
  StageTimes st = run_stage_replay(w, s, a.seed, replay_cap);

  double compile_s = 0, eq_busy_ms = 0, proposals = 0, tests_executed = 0;
  double tests_skipped = 0, early_exits = 0;
  std::vector<double> iters_to_best, eq_ms, final_ms;
  uint64_t eq_equal = 0, eq_unknown = 0, hits = 0, misses = 0;
  for (const TracedJob& tj : traced) {
    if (!tj.error.empty()) continue;
    compile_s += tj.compile_s;
    eq_busy_ms += sum(tj.eq_ms);
    eq_ms.insert(eq_ms.end(), tj.eq_ms.begin(), tj.eq_ms.end());
    eq_equal += tj.eq_equal;
    eq_unknown += tj.eq_unknown;
    hits += tj.cache.hits;
    misses += tj.cache.misses;
    proposals += double(tj.res.total_proposals);
    tests_executed += double(tj.res.tests_executed);
    tests_skipped += double(tj.res.tests_skipped);
    early_exits += double(tj.res.early_exits);
    iters_to_best.push_back(double(tj.res.iters_to_best));
    final_ms.push_back(tj.final_check_ms);
  }
  double untraced_run_s = sum(run_s);
  double eq_share = share(eq_busy_ms / 1e3, compile_s);
  // Compile-time shares. The solver part is measured: the backend's solves
  // plus the winners' final whole-program check, which final
  // re-verification runs without the backend. The rest of compile time is
  // split between layers in the proportions the stage replay measured.
  double safety_busy = sum(st.safety_ms) / 1e3;
  double exec_busy = (sum(st.decode_us) + sum(st.suite_us) + sum(st.perf_us)) / 1e6;
  double replay_non_eq = safety_busy + exec_busy +
                         (sum(st.propose_us) + sum(st.kernel_us) + sum(st.cache_us)) / 1e6;
  double solver_share = std::min(1.0, share(eq_busy_ms / 1e3 + sum(final_ms) / 1e3, compile_s));
  double safety_est = (1 - solver_share) * share(safety_busy, replay_non_eq);
  double exec_est = (1 - solver_share) * share(exec_busy, replay_non_eq);

  std::vector<Metric> ms = {
      {"api.queue_wait_s_p50", median(queue_s), "s"},
      {"api.run_s_p50", median(run_s), "s"},
      {"api.rejected", double(run.rejected), "count"},
      {"core.compile_s", compile_s, "s"},
      {"core.proposals", proposals, "count"},
      {"core.iters_to_best", median(iters_to_best), "count"},
      {"core.non_eq_s", compile_s - eq_busy_ms / 1e3, "s"},
      {"core.propose_us_p50", median(st.propose_us), "us"},
      {"pipeline.tests_executed", tests_executed, "count"},
      {"pipeline.tests_skipped", tests_skipped, "count"},
      {"pipeline.early_exit_share", share(early_exits, proposals), "ratio"},
      {"ebpf.decode_us_p50", median(st.decode_us), "us"},
      {"interp.suite_us_p50", median(st.suite_us), "us"},
      {"interp.test_kill_share", share(double(st.test_kills), double(st.attempts)), "ratio"},
      {"sim.perf_us_p50", median(st.perf_us), "us"},
      {"sim.perf_busy_s", sum(st.perf_us) / 1e6, "s"},
      {"scenario.expand_ms", median(s.expand_ms), "ms"},
      {"kernel.check_us_p50", median(st.kernel_us), "us"},
      {"kernel.reject_share", share(double(st.kernel_rejects), double(st.kernel_checked)), "ratio"},
      {"safety.calls", double(st.safety_ms.size()), "count"},
      {"safety.busy_s", safety_busy, "s"},
      {"safety.check_ms_p50", median(st.safety_ms), "ms"},
      {"safety.check_ms_tail", percentile(st.safety_ms, tail_level(st.safety_ms.size())), "ms"},
      {"safety.reject_share", share(double(st.safety_rejects), double(st.safety_ms.size())), "ratio"},
      {"verify.eq_calls", double(eq_ms.size()), "count"},
      {"verify.eq_busy_s", eq_busy_ms / 1e3, "s"},
      {"verify.eq_share", eq_share, "ratio"},
      {"verify.eq_ms_p50", median(eq_ms), "ms"},
      {"verify.eq_ms_tail", percentile(eq_ms, tail_level(eq_ms.size())), "ms"},
      {"verify.eq_equal_share", share(double(eq_equal), double(eq_ms.size())), "ratio"},
      {"verify.eq_unknown", double(eq_unknown), "count"},
      {"verify.cache_hit_share", share(double(hits), double(hits + misses)), "ratio"},
      {"verify.final_check_ms", median(final_ms), "ms"},
      {"safety.share_est", safety_est, "ratio"},
      {"interp_sim.share_est", exec_est, "ratio"},
      {"bench.trace_overhead", share(compile_s, untraced_run_s), "ratio"},
  };

  // Does the layer this workload is meant to stress dominate?
  const char* layer = w.name == "safety_heavy"  ? "safety"
                      : w.name == "equiv_heavy" ? "eq solve"
                                                : "interp + sim";
  double mine = w.name == "safety_heavy"  ? safety_est
                : w.name == "equiv_heavy" ? solver_share
                                          : exec_est;
  bool dominates = mine >= std::max({safety_est, exec_est, solver_share});
  char verdict[320];
  std::snprintf(verdict, sizeof verdict,
                "%s %s: compile-time shares: eq solve %.1f%% (measured; %.1f%% "
                "in-search, the rest final check), safety %.1f%% (est.), "
                "interp + sim %.1f%% (est.)",
                layer, dominates ? "dominates" : "does NOT dominate",
                100 * solver_share, 100 * eq_share, 100 * safety_est,
                100 * exec_est);
  std::printf("layers: %s\n", verdict);
  std::printf("neutrality: %zu/%zu traced winners and proposal counts match the "
              "service run; tracing overhead %.3fx (traced compile %.2f s / "
              "untraced run %.2f s)\n",
              traced.size() - mismatches, traced.size(),
              share(compile_s, untraced_run_s), compile_s, untraced_run_s);
  std::printf("stage replay: %llu candidates%s\n",
              (unsigned long long)st.attempts, st.capped ? " (time cap hit)" : "");
  if (!a.spans.empty()) {
    if (!g_tracer.write(a.spans)) {
      std::fprintf(stderr, "k2perf: cannot write spans to %s\n", a.spans.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", g_tracer.size(), a.spans.c_str());
  }
  print_result(correct, attempted, failed, ms);
  if (run.any_hung) std::_Exit(correct ? 0 : 1);
  return correct ? 0 : 1;
}
