#include "kernel/kernel_checker.h"

#include <array>
#include <limits>
#include <unordered_set>
#include <vector>

#include "ebpf/helpers_def.h"
#include "ebpf/semantics.h"

namespace k2::kernel {

namespace {

using ebpf::AluOp;
using ebpf::AluShape;
using ebpf::Insn;
using ebpf::InsnClass;
using ebpf::JmpCond;
using ebpf::JmpShape;
using ebpf::Opcode;

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// Verifier-style abstract register value.
struct KReg {
  enum Kind : uint8_t {
    UNINIT,
    SCALAR,
    STACK_PTR,
    CTX_PTR,
    PKT_PTR,
    PKT_END,
    MAP_PTR_OR_NULL,
    MAP_PTR,
    MAP_FD,
  } kind = UNINIT;
  int64_t off = 0;    // pointer offset (the least one, for PKT_PTR + var)
  int64_t var = 0;    // PKT_PTR: the offset may exceed `off` by up to this
  int map_fd = -1;
  uint64_t umin = 0;  // scalar unsigned bounds
  uint64_t umax = kU64Max;

  static KReg scalar(uint64_t lo, uint64_t hi) {
    KReg r;
    r.kind = SCALAR;
    r.umin = lo;
    r.umax = hi;
    return r;
  }
  static KReg unknown_scalar() { return scalar(0, kU64Max); }
  bool is_const() const { return kind == SCALAR && umin == umax; }
};

struct KState {
  std::array<KReg, 11> regs;
  std::array<bool, 512> stack_written{};  // byte granularity
  int64_t pkt_safe = 0;  // bytes from pkt data proven accessible
};

struct Rejection {
  std::string reason;
  int insn;
};

class Checker {
 public:
  Checker(const ebpf::Program& prog, const CheckerOptions& opts)
      : prog_(prog), opts_(opts) {}

  CheckResult run();

 private:
  const ebpf::Program& prog_;
  const CheckerOptions& opts_;
  uint64_t visited_ = 0;
  std::optional<Rejection> rej_;
  // State-equivalence pruning, as in the kernel verifier: a (pc, state)
  // pair already explored need not be explored again. Without this, the
  // path count is exponential in the number of rejoining branches — the
  // pruning only collapses paths whose abstract states actually converge,
  // which is what makes some real programs exceed the complexity limit
  // while semantically similar ones verify quickly (Table 1's "DNL").
  std::unordered_set<uint64_t> seen_;

  static uint64_t state_hash(int pc, const KState& st) {
    uint64_t h = 0xcbf29ce484222325ull ^ uint64_t(pc);
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
      h ^= h >> 29;
    };
    for (const KReg& r : st.regs) {
      mix(uint64_t(r.kind) | (uint64_t(uint16_t(r.map_fd)) << 8));
      mix(uint64_t(r.off));
      mix(uint64_t(r.var));
      mix(r.umin);
      mix(r.umax);
    }
    uint64_t bits = 0;
    for (int i = 0; i < 512; ++i) {
      bits = (bits << 1) | (st.stack_written[size_t(i)] ? 1 : 0);
      if ((i & 63) == 63) {
        mix(bits);
        bits = 0;
      }
    }
    mix(uint64_t(st.pkt_safe));
    return h;
  }

  void reject(const std::string& why, int insn) {
    if (!rej_) rej_ = Rejection{why, insn};
  }

  // Explores from instruction `pc` with state `st`; returns false once
  // rejected or over budget.
  bool explore(int pc, KState st);

  bool check_mem(const KState& st, const Insn& insn, int pc, bool is_store,
                 KState* next);
  bool check_call(KState& st, const Insn& insn, int pc);
};

bool Checker::check_mem(const KState& st, const Insn& insn, int pc,
                        bool is_store, KState* next) {
  int w = ebpf::mem_width(insn.op);
  int base = ebpf::is_mem_load(insn.op) ? insn.src : insn.dst;
  const KReg& b = st.regs[size_t(base)];
  int64_t off = b.off + insn.off;
  switch (b.kind) {
    case KReg::STACK_PTR: {
      if (off < -512 || off + w > 0)
        return reject("invalid stack access", pc), false;
      if (off % w != 0)
        return reject("misaligned stack access", pc), false;
      if (is_store && ebpf::insn_class(insn.op) != InsnClass::XADD) {
        for (int i = 0; i < w; ++i)
          next->stack_written[size_t(off + i + 512)] = true;
      } else {
        for (int i = 0; i < w; ++i)
          if (!st.stack_written[size_t(off + i + 512)])
            return reject("invalid read from uninitialized stack", pc), false;
      }
      return true;
    }
    case KReg::CTX_PTR:
      if (is_store)
        return reject("write into context memory", pc), false;
      if (off < 0 || off + w > 16 || off % w != 0)
        return reject("invalid context access", pc), false;
      return true;
    case KReg::PKT_PTR:
      if (prog_.type == ebpf::ProgType::TRACEPOINT)
        return reject("packet access from tracepoint", pc), false;
      if (off < 0 || off + b.var + w > st.pkt_safe)
        return reject("packet access outside verified bounds", pc), false;
      return true;
    case KReg::MAP_PTR: {
      int vs = b.map_fd >= 0 && b.map_fd < int(prog_.maps.size())
                   ? int(prog_.maps[size_t(b.map_fd)].value_size)
                   : 0;
      if (off < 0 || off + w > vs)
        return reject("map value access out of bounds", pc), false;
      return true;
    }
    case KReg::MAP_PTR_OR_NULL:
      return reject("dereference of possibly-NULL map value", pc), false;
    default:
      return reject("memory access via non-pointer register", pc), false;
  }
}

bool Checker::check_call(KState& st, const Insn& insn, int pc) {
  const ebpf::HelperProto* proto = ebpf::helper_proto(insn.imm);
  if (!proto) return reject("invalid helper id", pc), false;
  for (int r = 1; r <= proto->nargs; ++r)
    if (st.regs[size_t(r)].kind == KReg::UNINIT)
      return reject("helper argument r" + std::to_string(r) +
                        " is uninitialized",
                    pc),
             false;
  int fd = -1;
  if (proto->reads_map_fd) {
    if (st.regs[1].kind != KReg::MAP_FD)
      return reject("helper expects map fd in r1", pc), false;
    fd = st.regs[1].map_fd;
    if (fd < 0 || fd >= int(prog_.maps.size()))
      return reject("bad map fd", pc), false;
  }
  auto check_buf = [&](int r, uint32_t size) -> bool {
    const KReg& a = st.regs[size_t(r)];
    if (a.kind == KReg::STACK_PTR) {
      if (a.off < -512 || a.off + int64_t(size) > 0)
        return reject("helper buffer outside stack", pc), false;
      for (uint32_t i = 0; i < size; ++i)
        if (!st.stack_written[size_t(a.off + int64_t(i) + 512)])
          return reject("helper reads uninitialized stack", pc), false;
      return true;
    }
    if (a.kind == KReg::PKT_PTR)
      return a.off >= 0 && a.off + a.var + int64_t(size) <= st.pkt_safe
                 ? true
                 : (reject("helper packet buffer out of bounds", pc), false);
    if (a.kind == KReg::MAP_PTR) {
      uint32_t vs = prog_.maps[size_t(a.map_fd)].value_size;
      return a.off >= 0 && a.off + int64_t(size) <= int64_t(vs)
                 ? true
                 : (reject("helper map buffer out of bounds", pc), false);
    }
    return reject("helper buffer argument has wrong type", pc), false;
  };

  switch (insn.imm) {
    case ebpf::HELPER_MAP_LOOKUP:
    case ebpf::HELPER_MAP_DELETE:
      if (!check_buf(2, prog_.maps[size_t(fd)].key_size)) return false;
      break;
    case ebpf::HELPER_MAP_UPDATE:
      if (!check_buf(2, prog_.maps[size_t(fd)].key_size)) return false;
      if (!check_buf(3, prog_.maps[size_t(fd)].value_size)) return false;
      break;
    case ebpf::HELPER_CSUM_DIFF: {
      const KReg& fs = st.regs[2];
      const KReg& ts = st.regs[4];
      if (!fs.is_const() || !ts.is_const())
        return reject("csum_diff with variable sizes", pc), false;
      if (fs.umin % 4 || ts.umin % 4 || fs.umin > 512 || ts.umin > 512)
        return reject("csum_diff with invalid sizes", pc), false;
      if (fs.umin > 0 && !check_buf(1, uint32_t(fs.umin))) return false;
      if (ts.umin > 0 && !check_buf(3, uint32_t(ts.umin))) return false;
      break;
    }
    case ebpf::HELPER_XDP_ADJUST_HEAD:
      if (st.regs[1].kind != KReg::CTX_PTR)
        return reject("adjust_head without ctx", pc), false;
      break;
    default:
      break;
  }

  // Effects: r0 = return value, r1..r5 clobbered; adjust_head invalidates
  // every packet pointer.
  KReg r0 = KReg::unknown_scalar();
  if (proto->ret == ebpf::HelperRet::MAP_VALUE_OR_NULL) {
    r0 = KReg{};
    r0.kind = KReg::MAP_PTR_OR_NULL;
    r0.map_fd = fd;
    r0.off = 0;
  }
  st.regs[0] = r0;
  for (int r = 1; r <= 5; ++r) st.regs[size_t(r)] = KReg{};
  if (insn.imm == ebpf::HELPER_XDP_ADJUST_HEAD) {
    for (auto& r : st.regs)
      if (r.kind == KReg::PKT_PTR || r.kind == KReg::PKT_END)
        r = KReg::unknown_scalar();
    st.pkt_safe = 0;
  }
  return true;
}

bool Checker::explore(int pc, KState st) {
  const int n = int(prog_.insns.size());
  while (true) {
    if (rej_) return false;
    if (pc < 0 || pc >= n)
      return reject("control flow out of program bounds", pc), false;
    if (++visited_ > opts_.complexity_limit)
      return reject("BPF program is too large. Processed " +
                        std::to_string(opts_.complexity_limit) +
                        " insn limit",
                    pc),
             false;
    const Insn& insn = prog_.insns[size_t(pc)];

    // r10 is read-only everywhere.
    if (insn.op != Opcode::NOP && (ebpf::def_mask(insn) & (1u << 10)))
      return reject("frame pointer is read only", pc), false;

    AluShape a;
    JmpShape j;
    if (ebpf::decompose_alu(insn.op, &a)) {
      KReg& dst = st.regs[insn.dst];
      const KReg* srcp = a.is_imm ? nullptr : &st.regs[insn.src];
      if (a.op != AluOp::MOV && dst.kind == KReg::UNINIT)
        return reject("read of uninitialized register", pc), false;
      if (srcp && srcp->kind == KReg::UNINIT)
        return reject("read of uninitialized register", pc), false;
      bool dst_ptr = dst.kind != KReg::SCALAR && dst.kind != KReg::UNINIT;
      bool src_ptr = srcp && srcp->kind != KReg::SCALAR;
      if (a.op == AluOp::MOV) {
        if (a.is64) {
          dst = a.is_imm ? KReg::scalar(ebpf::sext32(insn.imm),
                                        ebpf::sext32(insn.imm))
                         : *srcp;
        } else {
          if (src_ptr) return reject("32-bit mov of a pointer", pc), false;
          uint64_t lo = a.is_imm ? (uint64_t(insn.imm) & 0xffffffffull)
                                 : (srcp->is_const()
                                        ? (srcp->umin & 0xffffffffull)
                                        : 0);
          dst = a.is_imm || srcp->is_const()
                    ? KReg::scalar(lo, lo)
                    : KReg::scalar(0, 0xffffffffull);
        }
        pc++;
        continue;
      }
      if (dst_ptr || src_ptr) {
        bool ok64addsub = a.is64 && (a.op == AluOp::ADD || a.op == AluOp::SUB);
        if (!ok64addsub)
          return reject("forbidden ALU op on pointer", pc), false;
        if (dst_ptr && src_ptr) {
          if (a.op == AluOp::SUB && dst.kind == srcp->kind) {
            st.regs[insn.dst] = KReg::unknown_scalar();
            pc++;
            continue;
          }
          return reject("arithmetic between pointers", pc), false;
        }
        // pointer +/- scalar: the scalar must have known constant value for
        // trackable offsets (the verifier tracks var_off; we require const).
        int64_t delta;
        if (a.is_imm) {
          delta = int64_t(ebpf::sext32(insn.imm));
        } else if (srcp->is_const()) {
          delta = int64_t(srcp->umin);
        } else if (dst.kind == KReg::PKT_PTR && a.op == AluOp::ADD && srcp &&
                   srcp->umax <= 0xffff) {
          // Bounded variable packet offset: accesses must fit at the largest
          // offset, and data_end compares refine by the least one.
          dst.off += int64_t(srcp->umin);
          dst.var += int64_t(srcp->umax - srcp->umin);
          pc++;
          continue;
        } else {
          return reject("pointer arithmetic with unbounded register", pc),
                 false;
        }
        if (dst_ptr) {
          dst.off += (a.op == AluOp::ADD) ? delta : -delta;
        } else {
          // scalar + pointer commutes only for ADD
          if (a.op != AluOp::ADD)
            return reject("scalar - pointer arithmetic", pc), false;
          KReg np = *srcp;
          np.off += delta;
          st.regs[insn.dst] = np;
        }
        pc++;
        continue;
      }
      // scalar ALU: constant-fold when possible, else widen.
      if ((a.is_imm || srcp->is_const()) && dst.is_const()) {
        ebpf::ConcreteBackend be;
        uint64_t sv = a.is_imm ? ebpf::sext32(insn.imm) : srcp->umin;
        uint64_t v = ebpf::alu_apply(a.op, a.is64, dst.umin, sv, be);
        dst = KReg::scalar(v, v);
      } else {
        dst = a.is64 ? KReg::unknown_scalar()
                     : KReg::scalar(0, 0xffffffffull);
      }
      pc++;
      continue;
    }

    if (ebpf::decompose_jmp(insn.op, &j)) {
      const KReg& lhs = st.regs[insn.dst];
      const KReg* rhs = j.is_imm ? nullptr : &st.regs[insn.src];
      if (lhs.kind == KReg::UNINIT || (rhs && rhs->kind == KReg::UNINIT))
        return reject("jump on uninitialized register", pc), false;
      if (insn.off < 0) return reject("back-edge in control flow", pc), false;

      KState taken = st, fall = st;
      // Packet-bounds refinement: compare PKT_PTR+k against PKT_END (k is
      // the least offset when the pointer has a variable part).
      auto refine_pkt = [&](const KReg& p, bool fall_accessible_ge,
                            int64_t k) {
        // fall_accessible_ge: on the fall-through edge, data+k <= data_end.
        if (fall_accessible_ge)
          fall.pkt_safe = std::max(fall.pkt_safe, k);
        else
          taken.pkt_safe = std::max(taken.pkt_safe, k);
        (void)p;
      };
      if (rhs && lhs.kind == KReg::PKT_PTR && rhs->kind == KReg::PKT_END) {
        if (j.cond == JmpCond::JGT) refine_pkt(lhs, true, lhs.off);
        if (j.cond == JmpCond::JGE) refine_pkt(lhs, true, lhs.off + 1);
        if (j.cond == JmpCond::JLE) refine_pkt(lhs, false, lhs.off);
        if (j.cond == JmpCond::JLT) refine_pkt(lhs, false, lhs.off + 1);
      }
      if (rhs && lhs.kind == KReg::PKT_END && rhs->kind == KReg::PKT_PTR) {
        if (j.cond == JmpCond::JLT) refine_pkt(*rhs, true, rhs->off);
        if (j.cond == JmpCond::JLE) refine_pkt(*rhs, true, rhs->off + 1);
        if (j.cond == JmpCond::JGE) refine_pkt(*rhs, false, rhs->off);
        if (j.cond == JmpCond::JGT) refine_pkt(*rhs, false, rhs->off + 1);
      }
      // NULL-check refinement for map lookups.
      if (j.is_imm && insn.imm == 0 && lhs.kind == KReg::MAP_PTR_OR_NULL) {
        if (j.cond == JmpCond::JEQ) {
          taken.regs[insn.dst] = KReg::scalar(0, 0);
          fall.regs[insn.dst].kind = KReg::MAP_PTR;
        } else if (j.cond == JmpCond::JNE) {
          taken.regs[insn.dst].kind = KReg::MAP_PTR;
          fall.regs[insn.dst] = KReg::scalar(0, 0);
        }
      }
      // Scalar range refinement (unsigned) against immediates.
      if (j.is_imm && lhs.kind == KReg::SCALAR) {
        uint64_t k = ebpf::sext32(insn.imm);
        auto& t = taken.regs[insn.dst];
        auto& f = fall.regs[insn.dst];
        switch (j.cond) {
          case JmpCond::JEQ: t.umin = t.umax = k; break;
          case JmpCond::JNE: f.umin = f.umax = k; break;
          case JmpCond::JGT: t.umin = std::max(t.umin, k + 1);
                             f.umax = std::min(f.umax, k); break;
          case JmpCond::JGE: t.umin = std::max(t.umin, k);
                             if (k > 0) f.umax = std::min(f.umax, k - 1);
                             break;
          case JmpCond::JLT: if (k > 0) t.umax = std::min(t.umax, k - 1);
                             f.umin = std::max(f.umin, k); break;
          case JmpCond::JLE: t.umax = std::min(t.umax, k);
                             f.umin = std::max(f.umin, k + 1); break;
          default: break;
        }
      }
      // Statically-decided branches take one edge only.
      if (j.is_imm && lhs.is_const()) {
        ebpf::ConcreteBackend be;
        bool res = ebpf::jmp_test(j.cond, lhs.umin, ebpf::sext32(insn.imm), be);
        if (res) return explore(pc + 1 + insn.off, std::move(taken));
        return explore(pc + 1, std::move(fall));
      }
      // Prune already-explored (pc, state) pairs on each edge.
      int tpc = pc + 1 + insn.off;
      if (seen_.insert(state_hash(tpc, taken)).second) {
        if (!explore(tpc, std::move(taken))) return false;
      }
      if (!seen_.insert(state_hash(pc + 1, fall)).second) return true;
      pc = pc + 1;
      st = std::move(fall);
      continue;
    }

    switch (insn.op) {
      case Opcode::NEG64:
      case Opcode::NEG32:
      case Opcode::BE16:
      case Opcode::BE32:
      case Opcode::BE64:
      case Opcode::LE16:
      case Opcode::LE32:
      case Opcode::LE64: {
        KReg& d = st.regs[insn.dst];
        if (d.kind == KReg::UNINIT)
          return reject("read of uninitialized register", pc), false;
        if (d.kind != KReg::SCALAR)
          return reject("unary ALU on pointer", pc), false;
        if (d.is_const()) {
          ebpf::ConcreteBackend be;
          uint64_t v = ebpf::alu_unary_apply(insn.op, d.umin, be);
          d = KReg::scalar(v, v);
        } else {
          d = KReg::unknown_scalar();
        }
        pc++;
        break;
      }
      case Opcode::JA:
        if (insn.off < 0)
          return reject("back-edge in control flow", pc), false;
        pc = pc + 1 + insn.off;
        break;
      case Opcode::LDXB:
      case Opcode::LDXH:
      case Opcode::LDXW:
      case Opcode::LDXDW: {
        if (!check_mem(st, insn, pc, false, &st)) return false;
        const KReg& b = st.regs[insn.src];
        KReg res = KReg::unknown_scalar();
        if (ebpf::mem_width(insn.op) < 8)
          res.umax = (1ull << (8 * ebpf::mem_width(insn.op))) - 1;
        if (b.kind == KReg::CTX_PTR &&
            prog_.type != ebpf::ProgType::TRACEPOINT &&
            insn.op == Opcode::LDXDW) {
          int64_t o = b.off + insn.off;
          if (o == 0) {
            res = KReg{};
            res.kind = KReg::PKT_PTR;
            res.off = 0;
          } else if (o == 8) {
            res = KReg{};
            res.kind = KReg::PKT_END;
          }
        }
        st.regs[insn.dst] = res;
        pc++;
        break;
      }
      case Opcode::STXB:
      case Opcode::STXH:
      case Opcode::STXW:
      case Opcode::STXDW:
      case Opcode::XADD32:
      case Opcode::XADD64:
        if (st.regs[insn.src].kind == KReg::UNINIT)
          return reject("store of uninitialized register", pc), false;
        if (st.regs[insn.src].kind != KReg::SCALAR &&
            ebpf::insn_class(insn.op) == InsnClass::XADD)
          return reject("xadd with pointer source", pc), false;
        if (!check_mem(st, insn, pc, true, &st)) return false;
        pc++;
        break;
      case Opcode::STB:
      case Opcode::STH:
      case Opcode::STW:
      case Opcode::STDW: {
        // Immediate store into ctx is explicitly rejected (§2.2 example 1).
        if (st.regs[insn.dst].kind == KReg::CTX_PTR)
          return reject("BPF_ST stores into R" + std::to_string(insn.dst) +
                            " ctx is not allowed",
                        pc),
                 false;
        if (!check_mem(st, insn, pc, true, &st)) return false;
        pc++;
        break;
      }
      case Opcode::CALL:
        if (!check_call(st, insn, pc)) return false;
        pc++;
        break;
      case Opcode::EXIT: {
        const KReg& r0 = st.regs[0];
        if (r0.kind == KReg::UNINIT)
          return reject("R0 !read_ok at exit", pc), false;
        if (r0.kind != KReg::SCALAR)
          return reject("pointer leak: R0 holds a pointer at exit", pc), false;
        return true;  // this path is done
      }
      case Opcode::LDDW:
        st.regs[insn.dst] =
            KReg::scalar(uint64_t(insn.imm), uint64_t(insn.imm));
        pc++;
        break;
      case Opcode::LDMAPFD: {
        if (insn.imm < 0 || insn.imm >= int64_t(prog_.maps.size()))
          return reject("bad map fd", pc), false;
        KReg r;
        r.kind = KReg::MAP_FD;
        r.map_fd = int(insn.imm);
        st.regs[insn.dst] = r;
        pc++;
        break;
      }
      case Opcode::NOP:
        pc++;
        break;
      default:
        return reject("unknown opcode", pc), false;
    }
  }
}

CheckResult Checker::run() {
  CheckResult res;
  if (int(prog_.insns.size()) > opts_.max_insns) {
    res.reason = "program too large";
    return res;
  }
  if (auto err = ebpf::validate_structure(prog_)) {
    res.reason = *err;
    return res;
  }
  KState entry;
  entry.regs[1] = KReg{};
  entry.regs[1].kind = KReg::CTX_PTR;
  entry.regs[10] = KReg{};
  entry.regs[10].kind = KReg::STACK_PTR;
  bool ok = explore(0, std::move(entry));
  res.insns_visited = visited_;
  if (!ok || rej_) {
    res.accepted = false;
    if (rej_) {
      res.reason = rej_->reason;
      res.insn = rej_->insn;
    }
    return res;
  }
  res.accepted = true;
  return res;
}

}  // namespace

CheckResult kernel_check(const ebpf::Program& prog,
                         const CheckerOptions& opts) {
  Checker c(prog, opts);
  return c.run();
}

}  // namespace k2::kernel
