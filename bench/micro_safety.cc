// Micro-benchmark: where a Z3 safety check spends its time, and what the
// dataflow pre-pass saves. Candidates are seeded one- and two-proposal
// mutants of the safety-heavy corpus programs that pass the static checks
// (the programs the search sends to the solver stage). For each one the
// solver path is replayed with a timer per phase — context creation,
// encoding, the check() calls, and teardown of the expressions and the
// context — and then check_safety() (pre-pass first) is timed against
// check_safety_with_solver() (always Z3).
//
//   ./build/bench_micro_safety [--mutants=N] [--seed=S]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.h"
#include "core/proposals.h"
#include "interp/state.h"
#include "safety/safety.h"
#include "verify/encoder.h"

using namespace k2;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Phases {
  double create = 0, encode = 0, check = 0, teardown = 0;
};

// The solver path of check_safety(), one timer per phase.
Phases time_solver_path(const ebpf::Program& p,
                        const safety::SafetyOptions& opts) {
  Phases ph;
  verify::pin_malloc_for_z3();
  auto t = Clock::now();
  auto* c = new z3::context;
  ph.create = ms_since(t);
  {
    t = Clock::now();
    verify::World world(*c, p, opts.enc);
    std::vector<z3::expr> witness;
    for (size_t fd = 0; fd < p.maps.size(); ++fd)
      witness.push_back(
          world.fresh_bv("sk" + std::to_string(fd), p.maps[fd].key_size * 8));
    verify::Encoded enc = verify::encode_program(world, p, "safety", witness);
    ph.encode = ms_since(t);
    t = Clock::now();
    if (enc.ok) {
      z3::solver s(*c);
      for (const auto& a : world.axioms) s.add(a);
      for (const auto& d : enc.defs) s.add(d);
      const uint64_t data0 =
          interp::Machine::kPacketBase + interp::Machine::kHeadroom;
      z3::expr lo = c->bv_val(data0, 64);
      z3::expr data_end = lo + world.pkt_len;
      std::vector<z3::expr> queries;
      for (const verify::AccessRecord& ar : enc.accesses) {
        if (ar.region != analysis::Rt::PTR_PKT) continue;
        z3::expr end = ar.addr + c->bv_val(uint64_t(ar.width), 64);
        queries.push_back(ar.pc &&
                          !(z3::uge(ar.addr, lo) && z3::ule(end, data_end)));
      }
      for (const auto& [insn, cond] : enc.uncovered_stack_reads)
        queries.push_back(cond);
      for (const z3::expr& q : queries) {
        s.push();
        s.add(q);
        z3::check_result r = s.check();
        s.pop();
        if (r != z3::unsat) break;
      }
    }
    ph.check = ms_since(t);
    t = Clock::now();
  }
  delete c;
  ph.teardown = ms_since(t);
  return ph;
}

}  // namespace

int main(int argc, char** argv) {
  const char* m = bench::arg_value(argc, argv, "--mutants");
  const char* sd = bench::arg_value(argc, argv, "--seed");
  const size_t want = m ? size_t(atoi(m)) : size_t(bench::scaled(150));
  std::mt19937_64 rng(sd ? uint64_t(atoll(sd)) : 1);

  safety::SafetyOptions static_only;
  static_only.run_solver_checks = false;
  std::vector<ebpf::Program> progs;
  const char* names[] = {"xdp_map_access", "xdp_exception",
                         "xdp_redirect_err"};
  for (size_t tries = 0; progs.size() < want && tries < want * 50; ++tries) {
    const ebpf::Program& src = corpus::benchmark(names[tries % 3]).o2;
    core::ProposalGen gen(src, core::SearchParams{}, core::ProposalRules{});
    ebpf::Program cand = gen.propose(src, rng);
    if (rng() % 2) cand = gen.propose(cand, rng);
    if (safety::check_safety(cand, static_only).safe)
      progs.push_back(std::move(cand));
  }

  Phases sum;
  double prepass_ms = 0, with_prepass_ms = 0, solver_only_ms = 0;
  size_t proven = 0;
  for (const ebpf::Program& p : progs) {
    Phases ph = time_solver_path(p, {});
    sum.create += ph.create;
    sum.encode += ph.encode;
    sum.check += ph.check;
    sum.teardown += ph.teardown;
    auto t = Clock::now();
    proven += safety::prepass_proves_safe(p) ? 1 : 0;
    prepass_ms += ms_since(t);
    t = Clock::now();
    safety::check_safety(p);
    with_prepass_ms += ms_since(t);
    t = Clock::now();
    safety::check_safety_with_solver(p);
    solver_only_ms += ms_since(t);
  }

  const double n = double(std::max<size_t>(progs.size(), 1));
  printf("Safety check cost over %zu statically-valid mutants\n", progs.size());
  bench::hr('=');
  printf("solver path, per call   create %7.2f ms | encode %7.2f ms | "
         "check %7.2f ms | teardown %7.2f ms\n",
         sum.create / n, sum.encode / n, sum.check / n, sum.teardown / n);
  printf("pre-pass, per call      %7.3f ms; proves %zu/%zu (%.1f%%)\n",
         prepass_ms / n, proven, progs.size(), 100.0 * double(proven) / n);
  bench::hr();
  printf("check_safety_with_solver  %8.1f ms total\n", solver_only_ms);
  printf("check_safety (pre-pass)   %8.1f ms total (%.1fx)\n", with_prepass_ms,
         solver_only_ms / std::max(with_prepass_ms, 1e-9));
  return 0;
}
