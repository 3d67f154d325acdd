// The safety checker's dataflow pre-pass, held against the Z3 path. The
// pre-pass only proves: whenever it proves every packet-bounds and
// stack-init obligation, the solver must agree the program is safe, and
// whenever it cannot, check_safety() must give exactly the solver's answer.
#include <gtest/gtest.h>

#include <random>

#include "core/params.h"
#include "core/proposals.h"
#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "interp/interpreter.h"
#include "safety/safety.h"
#include "testgen/program_gen.h"

namespace k2::safety {
namespace {

using ebpf::assemble;
using ebpf::MapDef;
using ebpf::MapKind;
using ebpf::Program;

// A Z3 safety call costs tens of milliseconds on small programs but
// minutes on the largest corpus program; the solver leg skips programs
// above this size.
constexpr size_t kMaxSolverInsns = 200;

// The pre-pass cannot prove `p`, so check_safety() must reach Z3 and
// return exactly what the solver path returns.
void expect_reaches_solver(const Program& p) {
  EXPECT_FALSE(prepass_proves_safe(p));
  SafetyResult r = check_safety(p);
  SafetyResult z = check_safety_with_solver(p);
  EXPECT_TRUE(r.used_solver);
  EXPECT_EQ(r.safe, z.safe);
  EXPECT_EQ(r.reason, z.reason);
  EXPECT_EQ(r.insn, z.insn);
  EXPECT_EQ(r.cex, z.cex);
}

// The pre-pass proves `p` safe: check_safety() returns safe without Z3,
// and the solver agrees.
void expect_proven(const Program& p) {
  EXPECT_TRUE(prepass_proves_safe(p));
  SafetyResult r = check_safety(p);
  EXPECT_TRUE(r.safe) << r.reason;
  EXPECT_FALSE(r.used_solver);
  SafetyResult z = check_safety_with_solver(p);
  EXPECT_TRUE(z.safe) << z.reason;
  EXPECT_TRUE(z.used_solver);
}

TEST(SafetyPrepassTest, CheckedPacketAccessProvenWithoutSolver) {
  expect_proven(assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 24\n"
      "jgt r4, r3, out\n"
      "ldxw r0, [r2+20]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n"));
  // Reversed operands, strict compare: data_end > data + 23 proves 24.
  expect_proven(assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 23\n"
      "jgt r3, r4, ok\n"
      "mov64 r0, 0\n"
      "exit\n"
      "ok:\n"
      "ldxw r0, [r2+20]\n"
      "exit\n"));
}

TEST(SafetyPrepassTest, WrittenStackAndMapKeysProvenWithoutSolver) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  expect_proven(assemble(
      "stw [r10-4], 0\n"
      "stdw [r10-16], 1\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "mov64 r3, r10\n"
      "add64 r3, -16\n"
      "mov64 r4, 0\n"
      "call 2\n"
      "ldxdw r0, [r10-16]\n"
      "exit\n",
      ebpf::ProgType::XDP, maps));
}

TEST(SafetyPrepassTest, OneBytePastCheckedBoundRejectedBySolver) {
  // 20 bytes checked; a 2-byte load at offset 19 needs 21.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 20\n"
      "jgt r4, r3, out\n"
      "ldxh r0, [r2+19]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  Program p = assemble(body);
  expect_reaches_solver(p);
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
  EXPECT_EQ(r.insn, 5);
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_EQ(interp::run(p, *r.cex).fault, interp::Fault::OOB_ACCESS);
}

TEST(SafetyPrepassTest, VariableOffsetPacketPointerReachesSolver) {
  // data + (r5 & 7) + 8 <= data_end proves the access, but only a solver
  // can see it: the pointer's offset is not a constant.
  expect_reaches_solver(assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "ldxb r5, [r2+0]\n"
      "and64 r5, 7\n"
      "add64 r2, r5\n"
      "mov64 r4, r2\n"
      "add64 r4, 8\n"
      "jgt r4, r3, out\n"
      "ldxdw r0, [r2+0]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n"));
}

TEST(SafetyPrepassTest, BoundsCheckOnOneBranchOnlyReachesSolver) {
  Program p = assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "ldxb r5, [r2+0]\n"
      "jeq r5, 0, join\n"
      "mov64 r4, r2\n"
      "add64 r4, 40\n"
      "jgt r4, r3, out\n"
      "join:\n"
      "ldxw r0, [r2+32]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n");
  expect_reaches_solver(p);
  EXPECT_FALSE(check_safety(p).safe);
}

TEST(SafetyPrepassTest, StackWriteOnOneBranchOnlyReachesSolver) {
  Program p = assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 48\n"
      "jgt r4, r3, skipwrite\n"
      "stdw [r10-8], 7\n"
      "skipwrite:\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n");
  expect_reaches_solver(p);
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("before write"), std::string::npos);
}

TEST(SafetyPrepassTest, PartlyWrittenMapKeyReachesSolver) {
  // An 8-byte key of which only the low 4 bytes were written.
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 8, 8, 16}};
  Program p = assemble(
      "stw [r10-8], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -8\n"
      "call 1\n"
      "mov64 r0, 0\n"
      "exit\n",
      ebpf::ProgType::XDP, maps);
  expect_reaches_solver(p);
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("before write"), std::string::npos);
}

TEST(SafetyPrepassTest, AdjustHeadReachesSolver) {
  expect_reaches_solver(assemble(
      "mov64 r6, r1\n"
      "mov64 r2, -8\n"
      "call 44\n"
      "ldxdw r2, [r6+0]\n"
      "ldxb r0, [r2+0]\n"
      "exit\n"));
}

TEST(SafetyPrepassTest, NonConcreteCsumDiffReachesSolver) {
  Program p = assemble(
      "stdw [r10-8], 0\n"
      "ldxdw r2, [r1+0]\n"
      "ldxb r2, [r2+0]\n"
      "mov64 r1, r10\n"
      "add64 r1, -8\n"
      "mov64 r3, r10\n"
      "add64 r3, -8\n"
      "mov64 r4, 0\n"
      "mov64 r5, 0\n"
      "call 28\n"
      "exit\n");
  expect_reaches_solver(p);
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("not encodable"), std::string::npos);
}

// Differential: every program the pre-pass proves safe, Z3 proves safe.
struct Differential {
  void run(const Program& p) {
    programs++;
    if (!prepass_proves_safe(p)) return;
    proven++;
    if (p.insns.size() > kMaxSolverInsns) return;
    solver_checked++;
    SafetyResult z = check_safety_with_solver(p);
    EXPECT_TRUE(z.safe) << "pre-pass proved an unsafe program (" << z.reason
                        << " at insn " << z.insn << "):\n"
                        << ebpf::disassemble(p);
  }
  int programs = 0, proven = 0, solver_checked = 0;
};

TEST(SafetyPrepassTest, CorpusProvenProgramsAreSolverSafe) {
  Differential d;
  for (const corpus::Benchmark& b : corpus::all_benchmarks()) {
    d.run(b.o1);
    d.run(b.o2);
  }
  // Every corpus program but one (xdp-balancer -O1 fails the static
  // checks) is proven without the solver.
  EXPECT_EQ(d.proven, d.programs - 1);
  EXPECT_GT(d.solver_checked, 30);
}

TEST(SafetyPrepassTest, SeededMutantsProvenAreSolverSafe) {
  Differential d;
  std::mt19937_64 rng(20211);
  for (const corpus::Benchmark& b : corpus::all_benchmarks()) {
    if (b.o2.insns.size() > kMaxSolverInsns) continue;
    core::ProposalGen gen(b.o2, core::SearchParams{}, core::ProposalRules{});
    for (int k = 0; k < 12; ++k) {
      Program m = gen.propose(b.o2, rng);
      if (k % 2) m = gen.propose(m, rng);
      d.run(m);
    }
  }
  EXPECT_GT(d.solver_checked, 40);
}

TEST(SafetyPrepassTest, GeneratedProgramsProvenAreSolverSafe) {
  testgen::GenConfig cfg;
  cfg.seed = 7;
  testgen::ProgramGen gen(cfg);
  Differential d;
  for (int k = 0; k < 160; ++k) {
    Program p = gen.next();
    if (ebpf::validate_structure(p)) continue;
    d.run(p);
  }
  EXPECT_GT(d.solver_checked, 20);
}

}  // namespace
}  // namespace k2::safety
