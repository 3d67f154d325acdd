#include "safety/safety.h"

#include <algorithm>

#include "analysis/cfg.h"
#include "analysis/liveness.h"
#include "analysis/typeinfer.h"
#include "ebpf/helpers_def.h"
#include "verify/eqchecker.h"

namespace k2::safety {

namespace {

using analysis::Rt;
using ebpf::AluOp;
using ebpf::AluShape;
using ebpf::Insn;
using ebpf::InsnClass;
using ebpf::Opcode;
using interp::Machine;

struct Violation {
  std::string reason;
  int insn;
};

// ---- Static checks (§6: control flow safety, typing, alignment,
// checker-specific constraints) ------------------------------------------

std::optional<Violation> static_checks(const ebpf::Program& prog,
                                       const analysis::Cfg& cfg,
                                       const analysis::TypeInfo& ti) {
  const int n = int(prog.insns.size());

  if (!cfg.loop_free)
    return Violation{"control flow contains a back-edge (potential loop)", 0};
  for (int b = 0; b < cfg.num_blocks(); ++b) {
    const auto& blk = cfg.blocks[size_t(b)];
    if (blk.start == blk.end) continue;
    if (!cfg.reachable[size_t(b)]) {
      // NOPs are stripped from outputs; a block of pure NOPs is not "code".
      bool all_nop = true;
      for (int i = blk.start; i < blk.end; ++i)
        if (prog.insns[size_t(i)].op != Opcode::NOP) all_nop = false;
      if (!all_nop)
        return Violation{"unreachable basic block", blk.start};
      continue;
    }
    // Every path must terminate at an EXIT: falling off the end is unsafe.
    const Insn& last = prog.insns[size_t(blk.end - 1)];
    if (blk.end == n && last.op != Opcode::EXIT && last.op != Opcode::JA &&
        !ebpf::is_cond_jump(last.op))
      return Violation{"control flow falls off the end", blk.end - 1};
    if (blk.end == n && ebpf::is_cond_jump(last.op))
      return Violation{"conditional fall-through off the end", blk.end - 1};
  }

  for (int i = 0; i < n; ++i) {
    const Insn& insn = prog.insns[size_t(i)];
    if (insn.op == Opcode::NOP) continue;
    int b = cfg.block_of[size_t(i)];
    if (b < 0 || !cfg.reachable[size_t(b)]) continue;
    const analysis::RegFile& rf = ti.before[size_t(i)];

    // r10 is read-only.
    if (ebpf::def_mask(insn) & (1u << 10))
      return Violation{"write to read-only register r10", i};

    // Uninitialized register reads (covers r1..r5 after helper calls, §6
    // checker-specific property 3).
    uint16_t uses = ebpf::use_mask(insn);
    if (insn.op == Opcode::CALL) {
      const ebpf::HelperProto* proto = ebpf::helper_proto(insn.imm);
      if (!proto) return Violation{"unknown helper", i};
      uses = 0;
      for (int r = 1; r <= proto->nargs; ++r) uses |= uint16_t(1u << r);
    }
    for (int r = 0; r <= 10; ++r)
      if ((uses & (1u << r)) && rf[size_t(r)].type == Rt::UNINIT)
        return Violation{
            "read of uninitialized register r" + std::to_string(r), i};

    // ALU restrictions on pointers (§6 checker-specific property 1): only
    // 64-bit ADD/SUB/MOV may touch pointer values.
    AluShape a;
    if (ebpf::decompose_alu(insn.op, &a)) {
      bool dst_ptr = analysis::is_pointer(rf[insn.dst].type);
      bool src_ptr = !a.is_imm && analysis::is_pointer(rf[insn.src].type);
      bool allowed64 = a.is64 && (a.op == AluOp::ADD || a.op == AluOp::SUB ||
                                  a.op == AluOp::MOV);
      if ((dst_ptr || src_ptr) && !allowed64)
        return Violation{"forbidden ALU operation on pointer", i};
      // Pointer arithmetic must keep a trackable offset; adding two pointers
      // or subtracting pointers of different regions is rejected.
      if (dst_ptr && src_ptr && a.op == AluOp::ADD)
        return Violation{"pointer + pointer arithmetic", i};
      if (dst_ptr && src_ptr && a.op == AluOp::SUB &&
          rf[insn.dst].type != rf[insn.src].type)
        return Violation{"subtraction of pointers to different regions", i};
    }
    if ((insn.op == Opcode::NEG64 || insn.op == Opcode::NEG32 ||
         ebpf::insn_class(insn.op) == InsnClass::ALU) &&
        !ebpf::decompose_alu(insn.op, &a)) {
      if (analysis::is_pointer(rf[insn.dst].type))
        return Violation{"unary ALU on pointer", i};
    }

    // Memory access typing.
    if (ebpf::is_mem_access(insn.op)) {
      auto info = analysis::access_info(prog, ti, i);
      int w = ebpf::mem_width(insn.op);
      switch (info->region) {
        case Rt::PTR_STACK:
          if (!info->off_known)
            return Violation{"stack access at unknown offset", i};
          if (info->off < -analysis::kStackSize || info->off + w > 0)
            return Violation{"stack access out of bounds", i};
          // The checker mandates size-aligned stack accesses (§2.2 ex. 2).
          if (info->off % w != 0)
            return Violation{"misaligned stack access", i};
          break;
        case Rt::PTR_CTX:
          if (ebpf::is_mem_store(insn.op))
            return Violation{"store to context memory", i};  // §6 property 2
          if (!info->off_known || info->off < 0 || info->off + w > 16 ||
              info->off % w != 0)
            return Violation{"bad context access", i};
          break;
        case Rt::PTR_PKT:
          if (prog.type == ebpf::ProgType::TRACEPOINT)
            return Violation{"packet access in tracepoint program", i};
          break;  // bounds checked by the solver (path-sensitive)
        case Rt::PTR_MAP_VALUE: {
          if (!info->off_known)
            return Violation{"map value access at unknown offset", i};
          int vsize = info->map_fd >= 0 &&
                              info->map_fd < int(prog.maps.size())
                          ? int(prog.maps[size_t(info->map_fd)].value_size)
                          : 0;
          if (info->off < 0 || info->off + w > vsize)
            return Violation{"map value access out of bounds", i};
          break;
        }
        case Rt::PTR_MAP_VALUE_OR_NULL:
          return Violation{"possibly-NULL map value dereference", i};
        default:
          return Violation{std::string("memory access via ") +
                               analysis::rt_name(info->region),
                           i};
      }
    }

    // Helper argument typing.
    if (insn.op == Opcode::CALL) {
      const ebpf::HelperProto* proto = ebpf::helper_proto(insn.imm);
      if (proto->reads_map_fd) {
        if (rf[1].type != Rt::MAP_HANDLE || rf[1].map_fd < 0 ||
            rf[1].map_fd >= int(prog.maps.size()))
          return Violation{"helper requires a map handle in r1", i};
      }
      auto ptr_arg = [&](int r) -> std::optional<Violation> {
        const analysis::RegState& rs = rf[size_t(r)];
        if (rs.type != Rt::PTR_STACK && rs.type != Rt::PTR_PKT &&
            rs.type != Rt::PTR_MAP_VALUE)
          return Violation{"helper pointer argument r" + std::to_string(r) +
                               " has wrong type",
                           i};
        if (rs.type == Rt::PTR_STACK && !rs.off_known)
          return Violation{"helper stack argument at unknown offset", i};
        return std::nullopt;
      };
      switch (insn.imm) {
        case ebpf::HELPER_MAP_LOOKUP:
        case ebpf::HELPER_MAP_DELETE:
          if (auto v = ptr_arg(2)) return v;
          break;
        case ebpf::HELPER_MAP_UPDATE:
          if (auto v = ptr_arg(2)) return v;
          if (auto v = ptr_arg(3)) return v;
          break;
        case ebpf::HELPER_CSUM_DIFF: {
          if (auto v = ptr_arg(1)) return v;
          if (auto v = ptr_arg(3)) return v;
          break;
        }
        case ebpf::HELPER_XDP_ADJUST_HEAD:
          if (rf[1].type != Rt::PTR_CTX)
            return Violation{"adjust_head requires ctx in r1", i};
          break;
        default:
          break;
      }
    }

    // Pointer leak: r0 must be a scalar at exit (§6).
    if (insn.op == Opcode::EXIT && analysis::is_pointer(rf[0].type))
      return Violation{"pointer leak: r0 holds a pointer at exit", i};
  }
  return std::nullopt;
}

// Structure first (the CFG builder assumes in-range jump targets), then
// the CFG, types and static checks that every later stage relies on.
std::optional<Violation> prepare(const ebpf::Program& prog, analysis::Cfg& cfg,
                                 analysis::TypeInfo& ti) {
  if (auto err = ebpf::validate_structure(prog)) return Violation{*err, 0};
  cfg = analysis::build_cfg(prog);
  ti = analysis::infer_types(prog, cfg);
  if (!ti.ok)
    return Violation{"type inference failed (backward control flow?)", -1};
  return static_checks(prog, cfg, ti);
}

// ---- Dataflow pre-pass: the solver's obligations, proven without it ------

// Offsets beyond this magnitude are left to the solver, so no address
// arithmetic below can wrap.
constexpr int64_t kMaxTrackedOff = int64_t(1) << 20;

bool tracked(const analysis::RegState& r) {
  return r.off_known && r.off >= -kMaxTrackedOff && r.off <= kMaxTrackedOff;
}

// What holds on every path reaching a program point.
struct Facts {
  int64_t pkt = 0;           // the packet is at least this many bytes long
  analysis::StackSet stack;  // bytes definitely written (bit i = r10-512+i)
};

bool pkt_in_bounds(const Facts& f, int64_t off, int64_t width) {
  return off >= 0 && off <= kMaxTrackedOff && off + width <= f.pkt;
}

bool in_stack(int64_t off, int64_t width) {
  return off >= -analysis::kStackSize && off + width <= 0;
}

bool stack_written(const Facts& f, int64_t off, int64_t width) {
  if (!in_stack(off, width)) return false;
  for (int64_t b = off; b < off + width; ++b)
    if (!f.stack[size_t(b + analysis::kStackSize)]) return false;
  return true;
}

// A helper's buffer argument: packet buffers must be in bounds and stack
// buffers fully written; map-value buffers carry no solver obligation.
bool buffer_proven(const Facts& f, const analysis::RegState& r,
                   int64_t size) {
  switch (r.type) {
    case Rt::PTR_PKT: return tracked(r) && pkt_in_bounds(f, r.off, size);
    case Rt::PTR_STACK: return tracked(r) && stack_written(f, r.off, size);
    case Rt::PTR_MAP_VALUE: return true;
    default: return false;
  }
}

// A helper call's buffer obligations: map keys and values, csum_diff
// buffers. False for helpers the pre-pass does not model.
bool call_proven(const ebpf::Program& prog, const Facts& f, const Insn& insn,
                 const analysis::RegFile& rf) {
  auto map = [&]() -> const ebpf::MapDef& {
    return prog.maps[size_t(rf[1].map_fd)];
  };
  // The encoder refuses csum_diff sizes that are not concrete multiples of
  // 4 up to 512.
  auto csum_size = [](const analysis::RegState& r) {
    return r.val_known && r.val % 4 == 0 && r.val <= 512;
  };
  switch (insn.imm) {
    case ebpf::HELPER_MAP_LOOKUP:
    case ebpf::HELPER_MAP_DELETE:
      return buffer_proven(f, rf[2], map().key_size);
    case ebpf::HELPER_MAP_UPDATE:
      return buffer_proven(f, rf[2], map().key_size) &&
             buffer_proven(f, rf[3], map().value_size);
    case ebpf::HELPER_CSUM_DIFF:
      return csum_size(rf[2]) && csum_size(rf[4]) &&
             (rf[4].val == 0 || buffer_proven(f, rf[3], int64_t(rf[4].val))) &&
             (rf[2].val == 0 || buffer_proven(f, rf[1], int64_t(rf[2].val)));
    case ebpf::HELPER_KTIME_GET_NS:
    case ebpf::HELPER_GET_PRANDOM_U32:
    case ebpf::HELPER_GET_SMP_PROC_ID:
    case ebpf::HELPER_REDIRECT_MAP:
      return true;
    default:
      return false;
  }
}

// An unsigned compare of a packet pointer against data_end proves, on one
// edge, that the packet holds `bytes` bytes.
struct PktRefinement {
  bool on_taken;
  int64_t bytes;
};

std::optional<PktRefinement> pkt_refinement(const Insn& insn,
                                            const analysis::RegFile& rf) {
  ebpf::JmpShape j;
  if (!ebpf::decompose_jmp(insn.op, &j) || j.is_imm) return std::nullopt;
  const analysis::RegState& a = rf[insn.dst];
  const analysis::RegState& b = rf[insn.src];
  bool pkt_end = a.type == Rt::PTR_PKT && b.type == Rt::PTR_PKT_END;
  bool end_pkt = a.type == Rt::PTR_PKT_END && b.type == Rt::PTR_PKT;
  if (!(pkt_end || end_pkt) || !tracked(a) || !tracked(b))
    return std::nullopt;
  // data + p <= data_end + e  <=>  pkt_len >= p - e  (no wrap: both small).
  int64_t k = pkt_end ? a.off - b.off : b.off - a.off;
  switch (j.cond) {
    case ebpf::JmpCond::JGT:
      return pkt_end ? PktRefinement{false, k} : PktRefinement{true, k + 1};
    case ebpf::JmpCond::JGE:
      return pkt_end ? PktRefinement{false, k + 1} : PktRefinement{true, k};
    case ebpf::JmpCond::JLT:
      return pkt_end ? PktRefinement{true, k + 1} : PktRefinement{false, k};
    case ebpf::JmpCond::JLE:
      return pkt_end ? PktRefinement{true, k} : PktRefinement{false, k + 1};
    default:
      return std::nullopt;
  }
}

// True when every obligation the solver path would check is proven: each
// packet access (LDX/ST/STX/XADD and helper buffers) lies within bytes a
// dominating data_end compare (or the minimum frame) guarantees, and each
// stack read (LDX/XADD and helper buffers) covers only bytes written on
// every path. Gives up — returns false — on whatever it cannot track
// exactly, and on anything the encoder might refuse to encode. Requires
// the static checks to have passed.
bool obligations_proven(const ebpf::Program& prog, const analysis::Cfg& cfg,
                        const analysis::TypeInfo& ti,
                        const verify::EncoderOpts& enc) {
  for (const Insn& insn : prog.insns) {
    // adjust_head moves the packet start; the encoder models it symbolically.
    if (insn.op == Opcode::CALL && insn.imm == ebpf::HELPER_XDP_ADJUST_HEAD)
      return false;
    if (ebpf::is_jump(insn.op) && insn.off < 0) return false;
  }
  std::vector<std::optional<Facts>> in(size_t(cfg.num_blocks()));
  if (!in.empty()) in[0] = Facts{enc.min_pkt, {}};
  auto merge = [&](int target_insn, const Facts& f) {
    std::optional<Facts>& dst = in[size_t(cfg.block_of[size_t(target_insn)])];
    if (!dst) {
      dst = f;
    } else {
      dst->pkt = std::min(dst->pkt, f.pkt);
      dst->stack &= f.stack;
    }
  };

  const int n = int(prog.insns.size());
  for (int b = 0; b < cfg.num_blocks(); ++b) {
    if (!cfg.reachable[size_t(b)]) continue;
    if (!in[size_t(b)]) return false;
    Facts f = *in[size_t(b)];
    const analysis::BasicBlock& blk = cfg.blocks[size_t(b)];
    for (int i = blk.start; i < blk.end; ++i) {
      const Insn& insn = prog.insns[size_t(i)];
      if (ebpf::is_mem_access(insn.op)) {
        auto ai = analysis::access_info(prog, ti, i);
        bool reads = ebpf::is_mem_load(insn.op) ||
                     ebpf::insn_class(insn.op) == InsnClass::XADD;
        if (ai->region == Rt::PTR_PKT) {
          if (!ai->off_known || !pkt_in_bounds(f, ai->off, ai->width))
            return false;
        } else if (ai->region == Rt::PTR_STACK) {
          if (!ai->off_known || !in_stack(ai->off, ai->width)) return false;
          if (reads && !stack_written(f, ai->off, ai->width)) return false;
          if (ebpf::is_mem_store(insn.op))
            for (int64_t o = ai->off; o < ai->off + ai->width; ++o)
              f.stack.set(size_t(o + analysis::kStackSize));
        }
      } else if (insn.op == Opcode::CALL &&
                 !call_proven(prog, f, insn, ti.before[size_t(i)])) {
        return false;
      }
    }
    // Hand the facts to the successors.
    const Insn& last = prog.insns[size_t(blk.end - 1)];
    if (ebpf::is_cond_jump(last.op)) {
      Facts taken = f;
      if (auto r = pkt_refinement(last, ti.before[size_t(blk.end - 1)])) {
        Facts& refined = r->on_taken ? taken : f;
        refined.pkt = std::max(refined.pkt, r->bytes);
      }
      merge(blk.end, f);
      merge(blk.end + last.off, taken);
    } else if (last.op == Opcode::JA) {
      merge(blk.end + last.off, f);
    } else if (last.op != Opcode::EXIT && blk.end < n) {
      merge(blk.end, f);
    }
  }
  return true;
}

// ---- Solver-backed checks: packet bounds (path-sensitive) and stack
// read-before-write (§6). ---------------------------------------------------

void solver_checks(const ebpf::Program& prog, const SafetyOptions& opts,
                   SafetyResult& res) {
  res.used_solver = true;
  verify::pin_malloc_for_z3();
  z3::context c;
  verify::World world(c, prog, opts.enc);
  std::vector<z3::expr> witness;
  for (size_t fd = 0; fd < prog.maps.size(); ++fd)
    witness.push_back(world.fresh_bv("sk" + std::to_string(fd),
                                     prog.maps[fd].key_size * 8));
  verify::Encoded enc = verify::encode_program(world, prog, "safety", witness);
  if (!enc.ok) {
    res.reason = "not encodable: " + enc.error;
    res.insn = enc.error_insn;
    return;
  }

  z3::solver s(c);
  z3::params p(c);
  p.set("timeout", opts.timeout_ms);
  s.set(p);
  for (const auto& a : world.axioms) s.add(a);
  for (const auto& d : enc.defs) s.add(d);

  const uint64_t data0 = Machine::kPacketBase + Machine::kHeadroom;
  z3::expr data_end = c.bv_val(data0, 64) + world.pkt_len;
  auto check_violation = [&](const z3::expr& cond, const std::string& why,
                             int insn) -> bool {
    s.push();
    s.add(cond);
    z3::check_result r = s.check();
    if (r == z3::sat) {
      res.reason = why;
      res.insn = insn;
      z3::model m = s.get_model();
      res.cex = verify::input_from_model(world, m);
      s.pop();
      return true;
    }
    if (r == z3::unknown) {
      res.reason = why + " (solver gave up; rejecting conservatively)";
      res.insn = insn;
      s.pop();
      return true;
    }
    s.pop();
    return false;
  };

  for (const verify::AccessRecord& ar : enc.accesses) {
    if (ar.region != Rt::PTR_PKT) continue;  // others are statically checked
    z3::expr lo = enc.has_adjust_head ? c.bv_val(Machine::kPacketBase, 64)
                                      : c.bv_val(data0, 64);
    z3::expr in_bounds =
        z3::uge(ar.addr, lo) &&
        z3::ule(ar.addr + c.bv_val(uint64_t(ar.width), 64), data_end);
    if (check_violation(ar.pc && !in_bounds,
                        "packet access may be out of bounds", ar.insn_idx))
      return;
  }
  for (const auto& [insn, cond] : enc.uncovered_stack_reads) {
    if (check_violation(cond, "stack read before write", insn)) return;
  }
  res.safe = true;
}

SafetyResult check(const ebpf::Program& prog, const SafetyOptions& opts,
                   bool use_prepass) {
  SafetyResult res;
  analysis::Cfg cfg;
  analysis::TypeInfo ti;
  if (auto v = prepare(prog, cfg, ti)) {
    res.reason = v->reason;
    res.insn = v->insn;
    return res;
  }
  if (!opts.run_solver_checks ||
      (use_prepass && obligations_proven(prog, cfg, ti, opts.enc))) {
    res.safe = true;
    return res;
  }
  solver_checks(prog, opts, res);
  return res;
}

}  // namespace

SafetyResult check_safety(const ebpf::Program& prog,
                          const SafetyOptions& opts) {
  return check(prog, opts, /*use_prepass=*/true);
}

SafetyResult check_safety_with_solver(const ebpf::Program& prog,
                                      const SafetyOptions& opts) {
  return check(prog, opts, /*use_prepass=*/false);
}

bool prepass_proves_safe(const ebpf::Program& prog,
                         const SafetyOptions& opts) {
  analysis::Cfg cfg;
  analysis::TypeInfo ti;
  return !prepare(prog, cfg, ti) &&
         obligations_proven(prog, cfg, ti, opts.enc);
}

}  // namespace k2::safety
