// Equivalence checker: positive/negative cases over ALU, memory, control
// flow, maps, and helpers; counterexample round-trips into the interpreter;
// the Table-11 rewrite case studies; cache behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "analysis/dce.h"
#include "ebpf/assembler.h"
#include "interp/interpreter.h"
#include "verify/cache.h"
#include "verify/eqchecker.h"

namespace k2::verify {
namespace {

using ebpf::assemble;
using ebpf::MapDef;
using ebpf::MapKind;
using ebpf::ProgType;

EqResult check(const std::string& a, const std::string& b,
               ProgType type = ProgType::XDP,
               std::vector<MapDef> maps = {}) {
  return check_equivalence(assemble(a, type, maps), assemble(b, type, maps));
}

// When NOT_EQUAL, the counterexample must actually distinguish the two
// programs in the interpreter (the paper's cex-to-test-suite loop).
void expect_cex_distinguishes(const EqResult& r, const std::string& a,
                              const std::string& b,
                              ProgType type = ProgType::XDP,
                              std::vector<MapDef> maps = {}) {
  ASSERT_EQ(r.verdict, Verdict::NOT_EQUAL);
  ASSERT_TRUE(r.cex.has_value());
  auto ra = interp::run(assemble(a, type, maps), *r.cex);
  auto rb = interp::run(assemble(b, type, maps), *r.cex);
  EXPECT_FALSE(interp::outputs_equal(type, ra, rb))
      << "cex does not distinguish: " << r.cex->to_string();
}

TEST(EqTest, IdenticalProgramsEqual) {
  EXPECT_EQ(check("mov64 r0, 1\nexit\n", "mov64 r0, 1\nexit\n").verdict,
            Verdict::EQUAL);
}

TEST(EqTest, AluStrengthReduction) {
  // r0 = r0 * 4  ==  r0 <<= 2
  EXPECT_EQ(check("ldxdw r0, [r1+0]\nmul64 r0, 4\nexit\n",
                  "ldxdw r0, [r1+0]\nlsh64 r0, 2\nexit\n")
                .verdict,
            Verdict::EQUAL);
}

TEST(EqTest, DifferentConstantsNotEqual) {
  std::string a = "mov64 r0, 1\nexit\n";
  std::string b = "mov64 r0, 2\nexit\n";
  expect_cex_distinguishes(check(a, b), a, b);
}

TEST(EqTest, DifferOnOneInputFindsCex) {
  // Programs agree except when the first packet byte is 0x7f.
  std::string a =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 1\n"
      "jgt r4, r3, out\n"
      "ldxb r0, [r2+0]\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  std::string b =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 1\n"
      "jgt r4, r3, out\n"
      "ldxb r0, [r2+0]\n"
      "jne r0, 0x7f, done\n"
      "mov64 r0, 0\n"
      "done:\n"
      "exit\n"
      "out:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EqResult r = check(a, b);
  expect_cex_distinguishes(r, a, b);
  EXPECT_EQ(r.cex->packet[0], 0x7f);
}

TEST(EqTest, Mod32ZeroSemantics) {
  // mod32 by zero keeps the truncated dividend: replacing it with a plain
  // truncation is equivalent only when the divisor is zero.
  EXPECT_EQ(check("ldxdw r0, [r1+0]\nmod32 r0, 0\nexit\n",
                  "ldxdw r0, [r1+0]\nmov32 r0, r0\nexit\n")
                .verdict,
            Verdict::EQUAL);
}

TEST(EqTest, MemoryCoalescingTable11Pktcntr) {
  // §9 Example 1: two 32-bit zero stores == one 64-bit zero store.
  std::string a =
      "mov64 r1, 0\n"
      "stxw [r10-4], r1\n"
      "stxw [r10-8], r1\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  std::string b =
      "stdw [r10-8], 0\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  EXPECT_EQ(check(a, b).verdict, Verdict::EQUAL);
}

TEST(EqTest, MemoryAliasingDetectsOrderDifference) {
  std::string a =
      "stdw [r10-8], 1\n"
      "stdw [r10-8], 2\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  std::string b =
      "stdw [r10-8], 2\n"
      "stdw [r10-8], 1\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  EXPECT_EQ(check(a, b).verdict, Verdict::NOT_EQUAL);
}

TEST(EqTest, PartialOverlapModeledByteGranularity) {
  std::string a =
      "stdw [r10-8], 0\n"
      "stb [r10-5], 7\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  std::string b =
      "stdw [r10-8], 0x07000000\n"
      "ldxdw r0, [r10-8]\n"
      "exit\n";
  EXPECT_EQ(check(a, b).verdict, Verdict::EQUAL);
}

TEST(EqTest, ControlFlowPathConditions) {
  // if (b0 > 9) r0 = 1 else r0 = 0   vs   r0 = (b0 > 9) via branchless form
  std::string a =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 1\n"
      "jgt r4, r3, oob\n"
      "ldxb r5, [r2+0]\n"
      "jgt r5, 9, one\n"
      "mov64 r0, 0\n"
      "exit\n"
      "one:\n"
      "mov64 r0, 1\n"
      "exit\n"
      "oob:\n"
      "mov64 r0, 0\n"
      "exit\n";
  std::string b =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 1\n"
      "jgt r4, r3, oob\n"
      "ldxb r5, [r2+0]\n"
      "mov64 r0, 0\n"
      "jle r5, 9, done\n"
      "mov64 r0, 1\n"
      "done:\n"
      "exit\n"
      "oob:\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_EQ(check(a, b).verdict, Verdict::EQUAL);
}

TEST(EqTest, PacketWritesCompared) {
  std::string pre =
      "ldxdw r2, [r1+0]\n"
      "ldxdw r3, [r1+8]\n"
      "mov64 r4, r2\n"
      "add64 r4, 2\n"
      "jgt r4, r3, out\n";
  std::string a = pre +
                  "stb [r2+0], 1\n"
                  "out:\nmov64 r0, 0\nexit\n";
  std::string b = pre +
                  "stb [r2+1], 1\n"
                  "out:\nmov64 r0, 0\nexit\n";
  expect_cex_distinguishes(check(a, b), a, b);
  EXPECT_EQ(check(a, a).verdict, Verdict::EQUAL);
}

// ---- Maps -------------------------------------------------------------------

std::vector<MapDef> hash_map() {
  return {MapDef{"m", MapKind::HASH, 4, 8, 64}};
}

TEST(EqMapTest, LookupAfterUpdateReturnsWritten) {
  std::string a =
      "stw [r10-4], 5\n"
      "stdw [r10-16], 77\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "mov64 r3, r10\n"
      "add64 r3, -16\n"
      "mov64 r4, 0\n"
      "call 2\n"
      "stw [r10-4], 5\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"
      "out:\n"
      "exit\n";
  // Equivalent program: the lookup provably returns 77, and the map write
  // is identical.
  std::string b =
      "stw [r10-4], 5\n"
      "stdw [r10-16], 77\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "mov64 r3, r10\n"
      "add64 r3, -16\n"
      "mov64 r4, 0\n"
      "call 2\n"
      "mov64 r0, 77\n"
      "exit\n";
  EXPECT_EQ(check(a, b, ProgType::XDP, hash_map()).verdict, Verdict::EQUAL);
}

TEST(EqMapTest, TwoLevelAliasing_SameKeyDifferentSlots) {
  // Key 5 staged at two different stack addresses must hit the same entry.
  std::string a =
      "stw [r10-4], 5\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "mov64 r6, r0\n"
      "stw [r10-12], 5\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -12\n"
      "call 1\n"
      "sub64 r0, r6\n"   // same value pointer -> 0
      "exit\n";
  std::string b =
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_EQ(check(a, b, ProgType::XDP, hash_map()).verdict, Verdict::EQUAL);
}

TEST(EqMapTest, MissingUpdateDetectedViaFinalMapState) {
  std::string a =
      "stw [r10-4], 9\n"
      "stdw [r10-16], 1\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "mov64 r3, r10\n"
      "add64 r3, -16\n"
      "mov64 r4, 0\n"
      "call 2\n"
      "mov64 r0, 0\n"
      "exit\n";
  std::string b = "mov64 r0, 0\nexit\n";  // drops the map write
  EqResult r = check(a, b, ProgType::XDP, hash_map());
  expect_cex_distinguishes(r, a, b, ProgType::XDP, hash_map());
}

TEST(EqMapTest, DeleteModeledAsNullWrite) {
  std::string del =
      "stw [r10-4], 3\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 3\n"
      "stw [r10-4], 3\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"          // lookup after delete is always NULL
      "exit\n";
  std::string null_prog =
      "stw [r10-4], 3\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 3\n"
      "mov64 r0, 0\n"
      "exit\n";
  EXPECT_EQ(check(del, null_prog, ProgType::XDP, hash_map()).verdict,
            Verdict::EQUAL);
}

TEST(EqMapTest, InitialMapStateShared) {
  // Reading an existing entry: removing the read changes r0 -> cex must
  // assign a present entry that distinguishes them.
  std::string a =
      "stw [r10-4], 1\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"
      "out:\n"
      "exit\n";
  std::string b = "mov64 r0, 0\nexit\n";
  EqResult r = check(a, b, ProgType::XDP, hash_map());
  expect_cex_distinguishes(r, a, b, ProgType::XDP, hash_map());
}

// ---- Helpers ----------------------------------------------------------------

TEST(EqHelperTest, KtimeSequenceThreading) {
  // Two ktime calls: t2 - t1 is the constant 1000 in our model, so the
  // subtraction is equivalent to the constant.
  std::string a = "call 5\nmov64 r6, r0\ncall 5\nsub64 r0, r6\nexit\n";
  std::string b = "call 5\ncall 5\nmov64 r0, 1000\nexit\n";
  EXPECT_EQ(check(a, b).verdict, Verdict::EQUAL);
}

TEST(EqHelperTest, DroppingKtimeCallShiftsState) {
  // A later ktime observation changes if an earlier call is removed.
  std::string a = "call 5\ncall 5\nexit\n";       // r0 = base + 1000
  std::string b = "call 5\nmov64 r6, r0\nexit\n"; // r0 = base
  EqResult r = check(a, b);
  expect_cex_distinguishes(r, a, b);
}

TEST(EqHelperTest, PrandomDeterministicPerSeed) {
  std::string a = "call 7\nexit\n";
  EXPECT_EQ(check(a, a).verdict, Verdict::EQUAL);
}

// ---- Cache ------------------------------------------------------------------

TEST(CacheTest, HitsAfterCanonicalization) {
  ebpf::Program src = assemble("mov64 r0, 1\nexit\n");
  // Two candidates identical modulo dead code must map to one cache entry.
  ebpf::Program c1 = assemble("mov64 r3, 9\nmov64 r0, 1\nexit\n");
  ebpf::Program c2 = assemble("mov64 r4, 2\nmov64 r0, 1\nexit\n");
  EXPECT_EQ(EqCache::key_for(src, c1), EqCache::key_for(src, c2));

  EqCache cache;
  EqCache::Key k = EqCache::key_for(src, c1);
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.insert(k, Verdict::EQUAL);
  auto hit = cache.lookup(EqCache::key_for(src, c2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Verdict::EQUAL);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, DistinctProgramsDistinctKeys) {
  ebpf::Program src = assemble("mov64 r0, 1\nexit\n");
  ebpf::Program c1 = assemble("mov64 r0, 1\nexit\n");
  ebpf::Program c2 = assemble("mov64 r0, 2\nexit\n");
  EXPECT_NE(EqCache::key_for(src, c1), EqCache::key_for(src, c2));
}

TEST(CacheTest, PrimaryHashCollisionDoesNotReturnWrongVerdict) {
  // Simulate a 64-bit collision: same primary hash, different fingerprint.
  // Before the fingerprint existed, the second program would have been
  // handed the first program's verdict.
  EqCache cache;
  EqCache::Key a{0x1234567890abcdefull, 1};
  EqCache::Key b{0x1234567890abcdefull, 2};
  cache.insert(a, Verdict::EQUAL);
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);
  // The colliding program's own verdict still round-trips.
  auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Verdict::EQUAL);
}

TEST(CacheTest, FingerprintIsIndependentOfPrimaryHash) {
  // Programs whose canonical forms differ must disagree in at least one of
  // the two hashes; and equal canonical forms must agree in both.
  ebpf::Program src = assemble("mov64 r0, 1\nexit\n");
  ebpf::Program c1 = assemble("mov64 r3, 9\nmov64 r0, 1\nexit\n");
  ebpf::Program c2 = assemble("mov64 r4, 2\nmov64 r0, 1\nexit\n");
  EqCache::Key k1 = EqCache::key_for(src, c1);
  EqCache::Key k2 = EqCache::key_for(src, c2);
  EXPECT_EQ(k1.fp, k2.fp);  // same canonical program
  ebpf::Program c3 = assemble("mov64 r0, 2\nexit\n");
  EqCache::Key k3 = EqCache::key_for(src, c3);
  EXPECT_NE(k1.fp, k3.fp);
}

// ---- z3++.h term lifetime ---------------------------------------------------

// The encoder folds terms by move-assignment (`acc = acc && e`). Z3 4.8.x's
// ast::operator=(ast&&) drops the old term without Z3_dec_ref, and deleting
// the context then sweeps every leaked term: about 2.5 s for this chain,
// against about 1 ms when the build's patched header releases each one.
// Deletion time is the only observable; Z3_get_estimated_alloc_size() does
// not fall either way, because freed nodes go to Z3's own free lists.
TEST(Z3HeaderTest, MoveAssignmentReleasesOverwrittenTerm) {
  auto c = std::make_unique<z3::context>();
  {
    z3::expr a = c->bv_const("a", 64);
    for (int k = 0; k < 2000; ++k) a = a + c->bv_val(k, 64);
  }
  auto t0 = std::chrono::steady_clock::now();
  c.reset();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_LT(ms, 250.0) << "z3::context teardown swept leaked terms";
}

// ---- Encoder ablations (correctness under all optimization settings) -------

class AblationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AblationSweep, VerdictsStableAcrossOptimizationToggles) {
  int mask = GetParam();
  EqOptions opts;
  opts.enc.mem_type_concretization = mask & 1;
  opts.enc.map_type_concretization = mask & 2;
  opts.enc.offset_concretization = mask & 4;
  std::vector<MapDef> maps = hash_map();
  std::string a =
      "stw [r10-4], 5\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"
      "out:\n"
      "exit\n";
  std::string b_bad =
      "stw [r10-4], 5\n"
      "ldmapfd r1, 0\n"
      "mov64 r2, r10\n"
      "add64 r2, -4\n"
      "call 1\n"
      "jeq r0, 0, out\n"
      "ldxdw r0, [r0+0]\n"
      "add64 r0, 1\n"
      "out:\n"
      "exit\n";
  EXPECT_EQ(check_equivalence(assemble(a, ProgType::XDP, maps),
                              assemble(a, ProgType::XDP, maps), opts)
                .verdict,
            Verdict::EQUAL);
  EXPECT_EQ(check_equivalence(assemble(a, ProgType::XDP, maps),
                              assemble(b_bad, ProgType::XDP, maps), opts)
                .verdict,
            Verdict::NOT_EQUAL);
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombos, AblationSweep,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace k2::verify
