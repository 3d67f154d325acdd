// Static analysis: CFG construction, dominance, reachability, pointer
// type/offset inference, liveness, DCE/canonicalization.
#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/dce.h"
#include "analysis/liveness.h"
#include "analysis/typeinfer.h"
#include "ebpf/assembler.h"

namespace k2::analysis {
namespace {

using ebpf::assemble;

TEST(CfgTest, StraightLineIsOneBlock) {
  Cfg cfg = build_cfg(assemble("mov64 r0, 0\nadd64 r0, 1\nexit\n"));
  EXPECT_EQ(cfg.num_blocks(), 1);
  EXPECT_TRUE(cfg.loop_free);
  EXPECT_TRUE(cfg.blocks[0].succs.empty());
}

TEST(CfgTest, DiamondHasFourBlocks) {
  Cfg cfg = build_cfg(assemble(
      "jeq r1, 0, right\n"
      "mov64 r0, 1\n"
      "ja join\n"
      "right:\n"
      "mov64 r0, 2\n"
      "join:\n"
      "exit\n"));
  EXPECT_EQ(cfg.num_blocks(), 4);
  EXPECT_TRUE(cfg.loop_free);
  EXPECT_EQ(cfg.blocks[0].succs.size(), 2u);
  // Both middle blocks flow into the join.
  EXPECT_EQ(cfg.blocks[3].preds.size(), 2u);
  auto idom = immediate_dominators(cfg);
  EXPECT_TRUE(dominates(idom, 0, 3));
  EXPECT_FALSE(dominates(idom, 1, 3));
}

TEST(CfgTest, UnreachableBlockDetected) {
  Cfg cfg = build_cfg(assemble(
      "ja skip\n"
      "mov64 r0, 9\n"   // unreachable
      "skip:\n"
      "mov64 r0, 0\n"
      "exit\n"));
  ASSERT_EQ(cfg.num_blocks(), 3);
  EXPECT_TRUE(cfg.reachable[0]);
  EXPECT_FALSE(cfg.reachable[1]);
  EXPECT_TRUE(cfg.reachable[2]);
}

TEST(CfgTest, BackEdgeFlagsLoop) {
  ebpf::Program p;
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::MOV64_IMM, 0, 0, 0, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::JA, 0, 0, -2, 0});
  p.insns.push_back(ebpf::Insn{ebpf::Opcode::EXIT, 0, 0, 0, 0});
  EXPECT_FALSE(build_cfg(p).loop_free);
}

TEST(CfgTest, OutOfRangeJumpTargetsGetNoBlock) {
  // Targets -1 and 3 lie outside the 3-instruction program: neither may
  // become a block leader (block_of[-1] would be an out-of-range write).
  ebpf::Program p = assemble("mov64 r0, 0\nmov64 r2, 0\nexit\n");
  p.insns[0] = ebpf::Insn{ebpf::Opcode::JLT_REG, 10, 8, -2, 0};
  p.insns[1] = ebpf::Insn{ebpf::Opcode::JA, 0, 0, 1, 0};
  Cfg cfg = build_cfg(p);
  for (const BasicBlock& b : cfg.blocks) {
    EXPECT_GE(b.start, 0);
    EXPECT_LT(b.start, 3);
    EXPECT_GT(b.end, b.start);
  }
  for (int b : cfg.block_of) EXPECT_GE(b, 0);
}

TEST(CfgTest, ReachabilityMatrix) {
  Cfg cfg = build_cfg(assemble(
      "jeq r1, 0, b\n"
      "mov64 r0, 1\n"
      "exit\n"
      "b:\n"
      "mov64 r0, 2\n"
      "exit\n"));
  auto can = reachability_matrix(cfg);
  EXPECT_TRUE(can[0][1]);
  EXPECT_TRUE(can[0][2]);
  EXPECT_FALSE(can[1][2]);
}

// ---- Type inference -------------------------------------------------------

TEST(TypeInferTest, EntryStateAndPacketPointers) {
  ebpf::Program p = assemble(
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 14\n"
      "jgt r4, r3, out\n"
      "ldxb r0, [r2+0]\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  ASSERT_TRUE(ti.ok);
  EXPECT_EQ(ti.reg_before(0, 1).type, Rt::PTR_CTX);
  EXPECT_EQ(ti.reg_before(0, 10).type, Rt::PTR_STACK);
  EXPECT_EQ(ti.reg_before(0, 5).type, Rt::UNINIT);
  EXPECT_EQ(ti.reg_before(2, 2).type, Rt::PTR_PKT);
  EXPECT_EQ(ti.reg_before(3, 3).type, Rt::PTR_PKT_END);
  EXPECT_EQ(ti.reg_before(4, 4).type, Rt::PTR_PKT);
  EXPECT_TRUE(ti.reg_before(4, 4).off_known);
  EXPECT_EQ(ti.reg_before(4, 4).off, 14);
}

TEST(TypeInferTest, MapNullCheckRefinement) {
  ebpf::Program p = assemble(
      "stw [r10-4], 0\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"   // refined to PTR_MAP_VALUE here
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n",
      ebpf::ProgType::XDP,
      {ebpf::MapDef{"m", ebpf::MapKind::HASH, 4, 8, 4}});
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  ASSERT_TRUE(ti.ok);
  EXPECT_EQ(ti.reg_before(5, 0).type, Rt::PTR_MAP_VALUE_OR_NULL);
  EXPECT_EQ(ti.reg_before(6, 0).type, Rt::PTR_MAP_VALUE);
  EXPECT_EQ(ti.reg_before(6, 0).map_fd, 0);
}

TEST(TypeInferTest, ConstantPropagationAndStackOffsets) {
  ebpf::Program p = assemble(
      "mov64 r2, r10\n"
      "add64 r2, -8\n"
      "mov64 r3, 4\n"
      "add64 r3, 6\n"
      "mov64 r0, 0\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  const RegState& r2 = ti.reg_before(4, 2);
  EXPECT_EQ(r2.type, Rt::PTR_STACK);
  EXPECT_TRUE(r2.off_known);
  EXPECT_EQ(r2.off, -8);
  const RegState& r3 = ti.reg_before(4, 3);
  EXPECT_TRUE(r3.val_known);
  EXPECT_EQ(r3.val, 10u);
}

TEST(TypeInferTest, JoinLosesConflictingInfo) {
  ebpf::Program p = assemble(
      "jeq r1, 0, b\n"
      "mov64 r2, 1\n"
      "ja join\n"
      "b:\n"
      "mov64 r2, 2\n"
      "join:\n"
      "mov64 r0, r2\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  const RegState& r2 = ti.reg_before(5, 2);
  EXPECT_EQ(r2.type, Rt::SCALAR);
  EXPECT_FALSE(r2.val_known);  // 1 vs 2
}

TEST(TypeInferTest, CallClobbersScratch) {
  ebpf::Program p = assemble("call 7\nmov64 r0, 0\nexit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  EXPECT_EQ(ti.reg_before(1, 1).type, Rt::UNINIT);
  EXPECT_EQ(ti.reg_before(1, 5).type, Rt::UNINIT);
  EXPECT_EQ(ti.reg_before(1, 0).type, Rt::SCALAR);
}

TEST(TypeInferTest, AccessInfoResolvesRegionAndOffset) {
  ebpf::Program p = assemble(
      "mov64 r2, r10\n"
      "add64 r2, -16\n"
      "stxw [r2+4], r1\n"  // hmm: r1 is ctx; the store value type is free
      "mov64 r0, 0\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  auto info = access_info(p, ti, 2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->region, Rt::PTR_STACK);
  EXPECT_TRUE(info->off_known);
  EXPECT_EQ(info->off, -12);
  EXPECT_EQ(info->width, 4);
}

// ---- Liveness ---------------------------------------------------------------

TEST(LivenessTest, RegistersDieAfterLastUse) {
  ebpf::Program p = assemble(
      "mov64 r1, 1\n"
      "mov64 r2, 2\n"
      "add64 r1, r2\n"
      "mov64 r0, r1\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  Liveness lv = compute_liveness(p, cfg, ti);
  EXPECT_TRUE(lv.live_out[1] & (1u << 2));   // r2 live until the add
  EXPECT_FALSE(lv.live_out[2] & (1u << 2));  // dead after
  EXPECT_TRUE(lv.live_out[3] & 1u);          // r0 live into exit
}

TEST(LivenessTest, StackBytesTracked) {
  ebpf::Program p = assemble(
      "mov64 r1, 7\n"
      "stxdw [r10-8], r1\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n");
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  Liveness lv = compute_liveness(p, cfg, ti);
  // Bytes -8..-1 live after the store (before the load).
  EXPECT_TRUE(lv.stack_out[1][512 - 8]);
  EXPECT_FALSE(lv.stack_out[2][512 - 8]);  // dead after the load
}

TEST(LivenessTest, MapKeyBytesLiveIntoHelperCall) {
  ebpf::Program p = assemble(
      "stw [r10-4], 3\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "mov64 r0, 0\n"
      "exit\n",
      ebpf::ProgType::XDP,
      {ebpf::MapDef{"m", ebpf::MapKind::HASH, 4, 8, 4}});
  Cfg cfg = build_cfg(p);
  TypeInfo ti = infer_types(p, cfg);
  Liveness lv = compute_liveness(p, cfg, ti);
  // The key bytes written at insn 0 are read by the call at insn 4.
  EXPECT_TRUE(lv.stack_out[0][512 - 4]);
}

// ---- DCE --------------------------------------------------------------------

TEST(DceTest, RemovesDeadAluAndStores) {
  ebpf::Program p = assemble(
      "mov64 r3, 7\n"          // dead: r3 never used
      "mov64 r4, 0\n"
      "stxb [r10-9], r4\n"     // dead store: never read
      "mov64 r0, 1\n"
      "exit\n");
  ebpf::Program out = remove_dead_code(p);
  EXPECT_EQ(out.insns[0].op, ebpf::Opcode::NOP);
  EXPECT_EQ(out.insns[2].op, ebpf::Opcode::NOP);
  EXPECT_EQ(out.insns[3].op, ebpf::Opcode::MOV64_IMM);
}

TEST(DceTest, KeepsLiveChains) {
  ebpf::Program p = assemble(
      "mov64 r3, 7\n"
      "stxdw [r10-8], r3\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n");
  ebpf::Program out = remove_dead_code(p);
  for (const auto& insn : out.insns) EXPECT_NE(insn.op, ebpf::Opcode::NOP);
}

TEST(DceTest, CanonicalizeStripsAndIsIdempotent) {
  ebpf::Program p = assemble(
      "mov64 r3, 7\n"
      "nop\n"
      "mov64 r0, 1\n"
      "exit\n");
  ebpf::Program c = canonicalize(p);
  EXPECT_EQ(c.insns.size(), 2u);
  EXPECT_EQ(program_hash(c), program_hash(canonicalize(c)));
}

TEST(DceTest, HashDiffersOnDifferentPrograms) {
  ebpf::Program a = assemble("mov64 r0, 1\nexit\n");
  ebpf::Program b = assemble("mov64 r0, 2\nexit\n");
  EXPECT_NE(program_hash(a), program_hash(b));
}

}  // namespace
}  // namespace k2::analysis
