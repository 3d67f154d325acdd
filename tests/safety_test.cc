// K2's safety checker (§6): control-flow safety, uninitialized reads,
// pointer discipline, alignment, bounds (path-sensitive via the solver),
// read-before-write, and safety counterexamples.
#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "interp/interpreter.h"
#include "safety/safety.h"

namespace k2::safety {
namespace {

using ebpf::assemble;
using ebpf::MapDef;
using ebpf::MapKind;
using ebpf::ProgType;

SafetyResult check(const std::string& body, ProgType type = ProgType::XDP,
                   std::vector<MapDef> maps = {}) {
  return check_safety(assemble(body, type, maps));
}

TEST(SafetyTest, MinimalSafeProgram) {
  SafetyResult r = check("mov64 r0, 2\nexit\n");
  EXPECT_TRUE(r.safe) << r.reason;
}

TEST(SafetyTest, UninitializedRegisterRead) {
  SafetyResult r = check("mov64 r0, r5\nexit\n");
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("uninitialized"), std::string::npos);
}

TEST(SafetyTest, ScratchUnreadableAfterCall) {
  SafetyResult r = check("call 7\nmov64 r0, r3\nexit\n");
  EXPECT_FALSE(r.safe);  // §6 checker-specific property 3
}

TEST(SafetyTest, R10IsReadOnly) {
  SafetyResult r = check("mov64 r10, 0\nmov64 r0, 0\nexit\n");
  EXPECT_FALSE(r.safe);
}

TEST(SafetyTest, UnreachableCodeRejected) {
  SafetyResult r = check(
      "ja out\n"
      "mov64 r3, 1\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n");
  EXPECT_FALSE(r.safe);
}

TEST(SafetyTest, FallingOffEndRejected) {
  ebpf::Program p = assemble("jeq r1, 0, t\nmov64 r0, 0\nexit\nt:\nexit\n");
  // Surgery: make the taken path fall off the end.
  p.insns.pop_back();
  p.insns[0].off = 2;
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
}

TEST(SafetyTest, PointerAluRestrictions) {
  // 32-bit ALU on a pointer (§6 checker-specific property 1).
  EXPECT_FALSE(check("add32 r1, 1\nmov64 r0, 0\nexit\n").safe);
  // Pointer + pointer.
  EXPECT_FALSE(check("add64 r1, r10\nmov64 r0, 0\nexit\n").safe);
  // Multiply on a pointer.
  EXPECT_FALSE(check("mul64 r1, 2\nmov64 r0, 0\nexit\n").safe);
  // 64-bit add of a constant is fine.
  EXPECT_TRUE(check("add64 r1, 8\nmov64 r0, 0\nexit\n").safe);
}

TEST(SafetyTest, PointerLeakRejected) {
  SafetyResult r = check("mov64 r0, r10\nexit\n");
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("leak"), std::string::npos);
}

TEST(SafetyTest, StoreToContextRejected) {
  EXPECT_FALSE(check("stw [r1+0], 7\nmov64 r0, 0\nexit\n").safe);
  EXPECT_FALSE(check("stxdw [r1+0], r10\nmov64 r0, 0\nexit\n").safe);
}

TEST(SafetyTest, StackBoundsAndAlignment) {
  EXPECT_FALSE(check("stdw [r10-516], 0\nmov64 r0, 0\nexit\n").safe);
  EXPECT_FALSE(check("ldxw r0, [r10+4]\nexit\n").safe);
  // Misaligned: 4-byte store at offset -6 (§2.2 example 2).
  EXPECT_FALSE(check("stw [r10-6], 0\nmov64 r0, 0\nexit\n").safe);
  // Aligned 2-byte store at -6 is fine once written/read consistently.
  EXPECT_TRUE(check("sth [r10-6], 0\nmov64 r0, 0\nexit\n").safe);
}

TEST(SafetyTest, StackReadBeforeWrite) {
  SafetyResult r = check("ldxdw r0, [r10-8]\nexit\n");
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("before write"), std::string::npos);
  // Writing first makes it safe.
  EXPECT_TRUE(check("stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit\n").safe);
}

TEST(SafetyTest, StackReadBeforeWritePathSensitive) {
  // The write covers the read on one path only -> unsafe, with a cex that
  // actually drives execution down the uncovered path.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 48\n"       // satisfiable: packets may be shorter than 48
      "jgt r4, r3, skipwrite\n"
      "stdw [r10-8], 7\n"
      "skipwrite:\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  SafetyResult r = check(body);
  EXPECT_FALSE(r.safe);
}

TEST(SafetyTest, PacketBoundsRequireCheck) {
  // Unchecked packet access: unsafe, and the counterexample must be a
  // short packet.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxw r0, [r2+20]\n"
      "exit\n";
  SafetyResult r = check(body);
  EXPECT_FALSE(r.safe);
  ASSERT_TRUE(r.cex.has_value());
  // Replaying the counterexample in the interpreter faults.
  interp::RunResult rr = interp::run(assemble(body), *r.cex);
  EXPECT_EQ(rr.fault, interp::Fault::OOB_ACCESS);
}

TEST(SafetyTest, PacketBoundsSatisfiedByBranch) {
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 24\n"
      "jgt r4, r3, out\n"
      "ldxw r0, [r2+20]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  SafetyResult r = check(body);
  EXPECT_TRUE(r.safe) << r.reason;
}

TEST(SafetyTest, PacketBoundsOffByOneCaught) {
  // Verifies 20 bytes, accesses byte 20 (needs 24): unsafe.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 20\n"
      "jgt r4, r3, out\n"
      "ldxw r0, [r2+20]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(body).safe);
}

TEST(SafetyTest, MapValueNullCheckRequired) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  std::string no_check =
      "stw [r10-4], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "ldxdw r0, [r0+0]\n"  // §6: must produce a safety violation
      "exit\n";
  EXPECT_FALSE(check(no_check, ProgType::XDP, maps).safe);
  std::string with_check =
      "stw [r10-4], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_TRUE(check(with_check, ProgType::XDP, maps).safe);
}

TEST(SafetyTest, MapValueBounds) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  std::string oob =
      "stw [r10-4], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+4]\n"  // bytes 4..12 of an 8-byte value
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(oob, ProgType::XDP, maps).safe);
}

TEST(SafetyTest, HelperArgumentTyping) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  // r1 is not a map handle.
  std::string bad =
      "stw [r10-4], 0\n"
      "mov64 r1, 5\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(bad, ProgType::XDP, maps).safe);
}

TEST(SafetyTest, BackwardJumpRejected) {
  ebpf::Program p;
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::MOV64_IMM, 0, 0, 0, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::JA, 0, 0, -2, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::EXIT, 0, 0, 0, 0});
  EXPECT_FALSE(check_safety(p).safe);
}

TEST(SafetyTest, OutOfRangeJumpTargetRejected) {
  // A one-instruction mutant whose jump targets instruction -1: rejected as
  // structurally invalid before any CFG or type inference runs on it.
  ebpf::Program p = corpus::benchmark("xdp_router_ipv4").o2;
  p.insns[1] = ebpf::Insn{ebpf::Opcode::JLT_REG, 10, 8, -3, 0};
  SafetyResult r = check_safety(p);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.reason.find("jump out of bounds"), std::string::npos);
  EXPECT_FALSE(r.used_solver);
}

TEST(SafetyTest, StaticOnlyModeSkipsSolver) {
  SafetyOptions opts;
  opts.run_solver_checks = false;
  // Statically fine but packet bounds unchecked beyond the guaranteed
  // minimum frame: static-only mode accepts, the solver check rejects.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxw r0, [r2+16]\n"
      "exit\n";
  EXPECT_TRUE(check_safety(assemble(body), opts).safe);
  EXPECT_FALSE(check_safety(assemble(body)).safe);
}

TEST(SafetyTest, MinimumFrameBytesNeedNoCheck) {
  // Ethernet guarantees 14 bytes; K2's FOL model knows packets are at
  // least that long, so accesses within the minimum frame are provably
  // safe even without an explicit data_end comparison.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxw r0, [r2+0]\n"
      "exit\n";
  EXPECT_TRUE(check_safety(assemble(body)).safe);
}

}  // namespace
}  // namespace k2::safety
