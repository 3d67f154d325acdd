// The kernel-checker model: verifier-style acceptance/rejection, including
// the §2.2 phase-ordering examples and the complexity-limit behaviour.
#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "kernel/kernel_checker.h"
#include "safety/safety.h"

namespace k2::kernel {
namespace {

using ebpf::assemble;
using ebpf::MapDef;
using ebpf::MapKind;
using ebpf::ProgType;

CheckResult check(const std::string& body, ProgType type = ProgType::XDP,
                  std::vector<MapDef> maps = {}) {
  return kernel_check(assemble(body, type, maps));
}

TEST(KernelCheckerTest, AcceptsMinimal) {
  EXPECT_TRUE(check("mov64 r0, 2\nexit\n").accepted);
}

TEST(KernelCheckerTest, RejectsUninitR0AtExit) {
  EXPECT_FALSE(check("exit\n").accepted);
}

TEST(KernelCheckerTest, RejectsPointerReturn) {
  EXPECT_FALSE(check("mov64 r0, r10\nexit\n").accepted);
}

TEST(KernelCheckerTest, Section22Example1_StImmToCtxRejected) {
  // The paper's §2.2 Example 1: storing an immediate through a ctx pointer
  // is rejected even though the register form would be accepted elsewhere.
  CheckResult r = check("stw [r1+0], 0\nmov64 r0, 0\nexit\n");
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reason.find("ctx"), std::string::npos);
}

TEST(KernelCheckerTest, Section22Example2_MisalignedStackRejected) {
  // §2.2 Example 2: a 2-byte store at a non-2-aligned stack offset.
  EXPECT_FALSE(check("sth [r10-3], 0\nmov64 r0, 0\nexit\n").accepted);
  EXPECT_TRUE(check("sth [r10-4], 0\nmov64 r0, 0\nexit\n").accepted);
}

TEST(KernelCheckerTest, StackReadBeforeWriteRejected) {
  EXPECT_FALSE(check("ldxdw r0, [r10-8]\nexit\n").accepted);
  EXPECT_TRUE(
      check("stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit\n").accepted);
}

TEST(KernelCheckerTest, PacketBoundsViaDataEndComparison) {
  std::string checked =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 14\n"
      "jgt r4, r3, out\n"
      "ldxb r0, [r2+13]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_TRUE(check(checked).accepted);
  std::string unchecked =
      "ldxdw r2, [r1+0]\n"
      "ldxb r0, [r2+0]\n"
      "exit\n";
  EXPECT_FALSE(check(unchecked).accepted);
  std::string off_by_one =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 14\n"
      "jgt r4, r3, out\n"
      "ldxb r0, [r2+14]\n"  // byte 14 needs 15 verified bytes
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(off_by_one).accepted);
}

TEST(KernelCheckerTest, ReverseComparisonAlsoRefines) {
  // jlt data_end, data+14 is the mirrored form.
  std::string body =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 14\n"
      "jlt r3, r4, out\n"
      "ldxb r0, [r2+13]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_TRUE(check(body).accepted);
}

TEST(KernelCheckerTest, VariableOffsetCompareRefinesByLeastOffset) {
  // r3 = data + r2 with r2 in [0, 0xffff]: r3 + 1 <= data_end proves only
  // one byte, so the load at byte 60 is out of verified bounds (K2's own
  // checker rejects it with a counterexample, too).
  std::string body =
      "ldxdw r6,[r1+0]\n"
      "ldxdw r7,[r1+8]\n"
      "stw [r10-8],0\n"
      "ldxh r2,[r10-8]\n"
      "mov64 r3,r6\n"
      "add64 r3,r2\n"
      "mov64 r4,r3\n"
      "add64 r4,1\n"
      "jgt r4,r7,+2\n"
      "ldxb r0,[r6+60]\n"
      "exit\n"
      "mov64 r0,0\n"
      "exit\n";
  EXPECT_FALSE(check(body).accepted);
  safety::SafetyResult k2 = safety::check_safety(assemble(body));
  EXPECT_FALSE(k2.safe);
  EXPECT_TRUE(k2.cex.has_value());
  // Bytes below the least offset are verified; an access through the
  // variable pointer must fit at its largest offset.
  std::string least =
      "ldxdw r6, [r1+0]\n"
      "ldxdw r7, [r1+8]\n"
      "stw [r10-8], 0\n"
      "ldxh r2, [r10-8]\n"
      "mov64 r3, r6\n"
      "add64 r3, r2\n"
      "mov64 r4, r3\n"
      "add64 r4, 20\n"
      "jgt r4, r7, out\n"
      "ldxb r0, [r6+19]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_TRUE(check(least).accepted);
  std::string via_var = least;
  via_var.replace(via_var.find("[r6+19]"), 7, "[r3+0]");
  EXPECT_FALSE(check(via_var).accepted);
}

TEST(KernelCheckerTest, MapNullCheckEnforced) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  std::string no_check =
      "stw [r10-4], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "ldxdw r0, [r0+0]\n"
      "exit\n";
  EXPECT_FALSE(check(no_check, ProgType::XDP, maps).accepted);
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
  EXPECT_TRUE(check(with_check, ProgType::XDP, maps).accepted);
}

TEST(KernelCheckerTest, HelperReadsRequireInitializedKey) {
  std::vector<MapDef> maps = {MapDef{"m", MapKind::HASH, 4, 8, 16}};
  std::string uninit_key =
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"          // key bytes never written
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(uninit_key, ProgType::XDP, maps).accepted);
}

TEST(KernelCheckerTest, ScratchClobberAfterCall) {
  EXPECT_FALSE(check("call 7\nmov64 r0, r4\nexit\n").accepted);
}

TEST(KernelCheckerTest, AdjustHeadInvalidatesPacketPointers) {
  std::string body =
      "ldxdw r6, [r1+0]\n"
      "ldxdw r7, [r1+8]\n"
      "mov64 r2, r6\n"
      "add64 r2, 14\n"
      "jgt r2, r7, out\n"
      "mov64 r8, r1\n"    // keep ctx (r1 is clobbered by the call)
      "mov64 r2, 0\n"
      "call 44\n"
      "ldxb r0, [r6+0]\n"  // stale packet pointer: must be rejected
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_FALSE(check(body).accepted);
}

TEST(KernelCheckerTest, BackwardJumpRejected) {
  ebpf::Program p;
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::MOV64_IMM, 0, 0, 0, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::JA, 0, 0, -2, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::EXIT, 0, 0, 0, 0});
  EXPECT_FALSE(kernel_check(p).accepted);
}

TEST(KernelCheckerTest, ComplexityLimitEnforced) {
  // A program whose states never converge exhausts a small budget.
  std::string s =
      "ldxdw r6, [r1+0]\n"
      "ldxdw r7, [r1+8]\n"
      "mov64 r2, r6\n"
      "add64 r2, 16\n"
      "jgt r2, r7, out\n";
  for (int i = 0; i < 12; ++i) {
    std::string t = std::to_string(i);
    s += "  ldxb r3, [r6+" + std::to_string(i) + "]\n";
    s += "  jgt r3, 64, odd" + t + "\n";
    s += "  mov64 r" + std::to_string(4 + (i % 2)) + ", " + t + "\n";
    s += "odd" + t + ":\n";
  }
  s += "out:\nmov64 r0, 0\nexit\n";
  CheckerOptions small;
  small.complexity_limit = 300;
  CheckResult r = kernel_check(ebpf::assemble(s), small);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reason.find("too large"), std::string::npos);
  // The default budget accepts it.
  EXPECT_TRUE(kernel_check(ebpf::assemble(s)).accepted);
}

TEST(KernelCheckerTest, BalancerO2AcceptedO1Rejected) {
  // The Table-1 "DNL" reproduction: the -O2 xdp-balancer loads, -O1 does
  // not (spilled ctx pointer loses provenance).
  const corpus::Benchmark& b = corpus::benchmark("xdp-balancer");
  CheckResult o2 = kernel_check(b.o2);
  EXPECT_TRUE(o2.accepted) << o2.reason << " @" << o2.insn;
  CheckResult o1 = kernel_check(b.o1);
  EXPECT_FALSE(o1.accepted);
}

TEST(KernelCheckerTest, ProgramSizeLimit) {
  CheckerOptions opts;
  opts.max_insns = 4;
  ebpf::Program p = assemble(
      "mov64 r0, 0\nmov64 r1, 1\nmov64 r2, 2\nmov64 r3, 3\nexit\n");
  EXPECT_FALSE(kernel_check(p, opts).accepted);
}

}  // namespace
}  // namespace k2::kernel
