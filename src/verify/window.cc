#include "verify/window.h"

#include <chrono>

#include "analysis/liveness.h"
#include "ebpf/helpers_def.h"
#include "interp/state.h"

namespace k2::verify {

namespace {

using analysis::Rt;
using ebpf::Insn;
using ebpf::Opcode;
using interp::Machine;

bool window_encodable(const ebpf::Program& prog, int start, int end) {
  for (int i = start; i < end; ++i) {
    const Insn& insn = prog.insns[size_t(i)];
    if (ebpf::is_jump(insn.op) || insn.op == Opcode::EXIT) return false;
    if (insn.op == Opcode::CALL &&
        insn.imm == ebpf::HELPER_XDP_ADJUST_HEAD)
      return false;
  }
  return true;
}

}  // namespace

std::vector<WindowSpec> select_windows(const ebpf::Program& prog,
                                       int max_insns) {
  std::vector<WindowSpec> wins;
  analysis::Cfg cfg = analysis::build_cfg(prog);
  for (const auto& blk : cfg.blocks) {
    int i = blk.start;
    int end = blk.end;
    // Trim a trailing jump/exit: windows are straight-line.
    if (end > i && (ebpf::is_jump(prog.insns[size_t(end - 1)].op) ||
                    prog.insns[size_t(end - 1)].op == Opcode::EXIT))
      end--;
    while (i < end) {
      int e = std::min(end, i + max_insns);
      if (window_encodable(prog, i, e) && e - i >= 2)
        wins.push_back(WindowSpec{i, e});
      i = e;
    }
  }
  return wins;
}

EqResult check_window_equivalence(const ebpf::Program& orig,
                                  const WindowSpec& win,
                                  const std::vector<Insn>& replacement,
                                  const EqOptions& opts) {
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  EqResult res;

  // Shape checks.
  if (win.end <= win.start || win.end > int(orig.insns.size())) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = "bad window bounds";
    return res;
  }
  for (const Insn& insn : orig.insns)
    if (insn.op == Opcode::CALL && insn.imm == ebpf::HELPER_XDP_ADJUST_HEAD) {
      res.verdict = Verdict::ENCODE_FAIL;
      res.detail = "program adjusts packet head; window mode unsupported";
      return res;
    }
  if (!window_encodable(orig, win.start, win.end)) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = "window contains control flow";
    return res;
  }
  {
    ebpf::Program probe;
    probe.type = orig.type;
    probe.maps = orig.maps;
    probe.insns = replacement;
    probe.insns.push_back(Insn{Opcode::EXIT, 0, 0, 0, 0});
    if (!window_encodable(probe, 0, int(replacement.size()))) {
      res.verdict = Verdict::ENCODE_FAIL;
      res.detail = "replacement contains control flow";
      return res;
    }
  }

  analysis::Cfg cfg = analysis::build_cfg(orig);
  if (!cfg.loop_free) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = "not loop-free";
    return res;
  }
  analysis::TypeInfo ti = analysis::infer_types(orig, cfg);
  if (!ti.ok) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = "type inference failed";
    return res;
  }
  analysis::Liveness lv = analysis::compute_liveness(orig, cfg, ti);

  // Build the window slices as standalone straight-line programs.
  auto slice = [&](const std::vector<Insn>& body) {
    ebpf::Program p;
    p.type = orig.type;
    p.maps = orig.maps;
    p.insns = body;
    p.insns.push_back(Insn{Opcode::EXIT, 0, 0, 0, 0});
    return p;
  };
  std::vector<Insn> orig_body(orig.insns.begin() + win.start,
                              orig.insns.begin() + win.end);
  ebpf::Program w1 = slice(orig_body);
  ebpf::Program w2 = slice(replacement);

  pin_malloc_for_z3();
  z3::context c;
  EncoderOpts eo = opts.enc;
  eo.symbolic_stack_init = true;  // the prefix may have written the stack
  World world(c, orig, eo);

  std::vector<z3::expr> witness;
  for (size_t fd = 0; fd < orig.maps.size(); ++fd)
    witness.push_back(world.fresh_bv("wwk" + std::to_string(fd),
                                     orig.maps[fd].key_size * 8));

  // Shared entry state: 11 registers + data/ktime/rand.
  const analysis::RegFile& entry_rf = ti.before[size_t(win.start)];
  std::vector<z3::expr> entry;
  std::vector<z3::expr> preconds;
  const uint64_t data0 = Machine::kPacketBase + Machine::kHeadroom;
  for (int r = 0; r <= 10; ++r) {
    z3::expr v = world.fresh_bv("win_r" + std::to_string(r), 64);
    const analysis::RegState& rs = entry_rf[size_t(r)];
    // Stronger preconditions: inferred concrete valuations (App. C.2).
    switch (rs.type) {
      case Rt::SCALAR:
        if (rs.val_known) preconds.push_back(v == c.bv_val(rs.val, 64));
        break;
      case Rt::PTR_STACK:
        if (rs.off_known)
          preconds.push_back(
              v == c.bv_val(Machine::kStackBase + uint64_t(rs.off), 64));
        break;
      case Rt::PTR_CTX:
        if (rs.off_known)
          preconds.push_back(
              v == c.bv_val(Machine::kCtxBase + uint64_t(rs.off), 64));
        break;
      case Rt::PTR_PKT:
        if (rs.off_known)
          preconds.push_back(v == c.bv_val(data0 + uint64_t(rs.off), 64));
        break;
      case Rt::PTR_PKT_END:
        preconds.push_back(v == c.bv_val(data0, 64) + world.pkt_len);
        break;
      case Rt::MAP_HANDLE:
        if (rs.map_fd >= 0)
          preconds.push_back(
              v == c.bv_val(Machine::kMapHandleBase + uint64_t(rs.map_fd),
                            64));
        break;
      case Rt::PTR_MAP_VALUE:
      case Rt::PTR_MAP_VALUE_OR_NULL:
        if (rs.map_fd >= 0 && rs.off_known) {
          // Ground the pointer in an initial-state oracle entry with a fresh
          // key, so value-memory reads resolve consistently on both sides.
          z3::expr k = world.fresh_bv(
              "win_k" + std::to_string(r),
              orig.maps[size_t(rs.map_fd)].key_size * 8);
          int e = world.oracle_entry(rs.map_fd, k);
          const auto& entry_ref = world.oracle[size_t(rs.map_fd)][size_t(e)];
          if (rs.type == Rt::PTR_MAP_VALUE)
            preconds.push_back(entry_ref.present);
          preconds.push_back(
              v == entry_ref.addr + c.bv_val(uint64_t(rs.off), 64));
        }
        break;
      default:
        break;
    }
    entry.push_back(v);
  }
  entry.push_back(c.bv_val(data0, 64));          // data
  entry.push_back(world.fresh_bv("win_kt", 64)); // ktime state
  entry.push_back(world.fresh_bv("win_rn", 64)); // prandom state

  Encoded e1 =
      encode_program(world, w1, "w1", witness, &entry, &entry_rf);
  Encoded e2 =
      encode_program(world, w2, "w2", witness, &entry, &entry_rf);
  res.encode_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!e1.ok || !e2.ok) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = !e1.ok ? "w1: " + e1.error : "w2: " + e2.error;
    return res;
  }

  z3::solver s(c);
  z3::params p(c);
  p.set("timeout", opts.timeout_ms);
  if (opts.memory_max_mb) p.set("max_memory", opts.memory_max_mb);
  s.set(p);
  for (const auto& a : world.axioms) s.add(a);
  for (const auto& pre : preconds) s.add(pre);
  for (const auto& d : e1.defs) s.add(d);
  for (const auto& d : e2.defs) s.add(d);

  // Weaker postcondition: compare live-out registers/stack bytes + external
  // memory only.
  z3::expr equal = c.bool_val(true);
  uint16_t live_regs = lv.live_out[size_t(win.end - 1)];
  for (int r = 0; r <= 10; ++r)
    if (live_regs & (1u << r))
      equal = equal && (e1.final_state[size_t(r)] == e2.final_state[size_t(r)]);
  // Threaded virtual state must match so the suffix observes the same
  // helper sequences.
  for (int slot = 11; slot <= 13; ++slot)
    equal = equal &&
            (e1.final_state[size_t(slot)] == e2.final_state[size_t(slot)]);
  const analysis::StackSet& live_stack = lv.stack_out[size_t(win.end - 1)];
  for (int i = 0; i < analysis::kStackSize; ++i)
    if (live_stack[size_t(i)])
      equal = equal &&
              (e1.final_stack_bytes[size_t(i)] == e2.final_stack_bytes[size_t(i)]);
  // Externally visible memory: packet bytes and final map state.
  for (size_t j = 0; j < e1.final_pkt_bytes.size(); ++j) {
    z3::expr in_range = z3::ult(c.bv_val(uint64_t(j), 64), world.pkt_len);
    equal = equal && z3::implies(in_range, e1.final_pkt_bytes[j] ==
                                               e2.final_pkt_bytes[j]);
  }
  for (size_t fd = 0; fd < orig.maps.size(); ++fd) {
    const MapFinal& m1 = e1.map_finals[fd];
    const MapFinal& m2 = e2.map_finals[fd];
    z3::expr p1 = m1.addr != c.bv_val(uint64_t(0), 64);
    z3::expr p2 = m2.addr != c.bv_val(uint64_t(0), 64);
    equal = equal && (p1 == p2);
    for (size_t j = 0; j < m1.bytes.size(); ++j)
      equal = equal && z3::implies(p1, m1.bytes[j] == m2.bytes[j]);
  }
  s.add(!equal);

  auto t1 = Clock::now();
  z3::check_result r = s.check();
  res.solve_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
  switch (r) {
    case z3::unsat:
      res.verdict = Verdict::EQUAL;
      break;
    case z3::sat:
      // Window counterexamples describe an intermediate machine state, not a
      // program input; they are used as a rejection verdict only.
      res.verdict = Verdict::NOT_EQUAL;
      break;
    default:
      res.verdict = Verdict::UNKNOWN;
      res.detail = s.reason_unknown();
      break;
  }
  return res;
}

}  // namespace k2::verify
