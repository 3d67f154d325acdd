#include "verify/encoder.h"

#include <cassert>
#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "ebpf/helpers_def.h"
#include "ebpf/semantics.h"
#include "interp/helpers.h"
#include "verify/z3backend.h"

namespace k2::verify {

namespace {

using analysis::Rt;
using ebpf::AluShape;
using ebpf::Insn;
using ebpf::JmpShape;
using ebpf::Opcode;
using interp::Machine;

constexpr int64_t kEnoent = -2;
constexpr int64_t kEinval = -22;

}  // namespace

void pin_malloc_for_z3() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 4 << 20); });
#endif
}

// ---- World ---------------------------------------------------------------

World::World(z3::context& c, const ebpf::Program& shape,
             const EncoderOpts& o)
    : z3(c),
      opts(o),
      prog_type(shape.type),
      maps(shape.maps),
      pkt_len(c.bv_const("pkt_len", 64)),
      ktime_base(c.bv_const("ktime_base", 64)),
      rand_seed(c.bv_const("rand_seed", 64)),
      cpu_id(c.bv_const("cpu_id", 64)),
      ctx_arg0(c.bv_const("ctx_arg0", 64)),
      ctx_arg1(c.bv_const("ctx_arg1", 64)) {
  axioms.push_back(z3::uge(pkt_len, c.bv_val(uint64_t(opts.min_pkt), 64)));
  axioms.push_back(z3::ule(pkt_len, c.bv_val(uint64_t(opts.max_pkt), 64)));
  axioms.push_back(z3::ult(cpu_id, c.bv_val(uint64_t(1024), 64)));
  for (int i = 0; i < opts.max_pkt; ++i)
    pkt_init.push_back(c.bv_const(("pkt_" + std::to_string(i)).c_str(), 8));
  if (opts.symbolic_stack_init)
    for (int i = 0; i < 512; ++i)
      stack_init.push_back(
          c.bv_const(("stk_" + std::to_string(i)).c_str(), 8));
  oracle.resize(maps.size());
  all_addrs.resize(maps.size());
  for (const auto& m : maps) {
    (void)m;
    assert(m.key_size >= 1 && m.key_size <= 8 && "modeled key sizes");
  }
}

z3::expr World::fresh_bv(const std::string& name, unsigned bits) {
  return z3.bv_const((name + "!" + std::to_string(counter_++)).c_str(), bits);
}

z3::expr World::fresh_bool(const std::string& name) {
  return z3.bool_const((name + "!" + std::to_string(counter_++)).c_str());
}

z3::expr World::full_key(int fd, const z3::expr& key) const {
  unsigned max_bits = 8;
  for (const auto& m : maps) max_bits = std::max(max_bits, m.key_size * 8);
  z3::expr k = key.get_sort().bv_size() < max_bits
                   ? z3::zext(key, max_bits - key.get_sort().bv_size())
                   : key;
  return z3::concat(z3.bv_val(uint64_t(fd), 16), k);
}

z3::expr World::conjoin(const std::vector<z3::expr>& es) const {
  z3::expr acc = z3.bool_val(true);
  for (const auto& e : es) acc = acc && e;
  return acc;
}

int World::oracle_entry(int fd, const z3::expr& key) {
  // Structural dedup: the same key expression gets the same entry. This is
  // what makes the witness-key finals of the two programs refer to one
  // shared initial-state entry.
  for (size_t i = 0; i < oracle[fd].size(); ++i)
    if (z3::eq(oracle[fd][i].key, key)) return static_cast<int>(i);

  const ebpf::MapDef& def = maps[fd];
  OracleEntry e{key, fresh_bool("m" + std::to_string(fd) + "_present"),
                fresh_bv("m" + std::to_string(fd) + "_addr", 64),
                {}};
  for (uint32_t j = 0; j < def.value_size; ++j)
    e.val_bytes.push_back(fresh_bv("m" + std::to_string(fd) + "_val", 8));

  // Address range: per-map subranges keep different maps' values disjoint,
  // and 4 KiB alignment makes distinct addresses imply disjoint value
  // buffers (value_size << 4096).
  uint64_t lo = Machine::kMapValueBase + (uint64_t(fd) << 32);
  uint64_t hi = lo + (uint64_t(1) << 32);
  axioms.push_back(
      z3::implies(e.present, z3::uge(e.addr, z3.bv_val(lo, 64)) &&
                                 z3::ult(e.addr, z3.bv_val(hi, 64))));
  axioms.push_back(e.addr.extract(11, 0) == z3.bv_val(0, 12));
  axioms.push_back(z3::implies(!e.present, e.addr == z3.bv_val(uint64_t(0), 64)));
  if (def.kind != ebpf::MapKind::HASH) {
    // Array-like maps: a key is present iff it is a valid index.
    z3::expr idx = z3::zext(key, 64 - key.get_sort().bv_size());
    axioms.push_back(e.present ==
                     z3::ult(idx, z3.bv_val(uint64_t(def.max_entries), 64)));
  }

  // Pairwise consistency with prior entries. With map-type concretization
  // (II), only same-map entries are compared; without it, keys carry the map
  // id and all pairs are compared (merged-table degradation).
  auto pair_axioms = [&](int ofd, const OracleEntry& other) {
    z3::expr keq = opts.map_type_concretization
                       ? (key == other.key)
                       : (full_key(fd, key) == full_key(ofd, other.key));
    if (ofd == fd) {
      std::vector<z3::expr> same;
      same.push_back(e.present == other.present);
      same.push_back(e.addr == other.addr);
      for (uint32_t j = 0; j < def.value_size; ++j)
        same.push_back(e.val_bytes[j] == other.val_bytes[j]);
      axioms.push_back(z3::implies(keq, conjoin(same)));
    } else {
      axioms.push_back(z3::implies(keq, e.present == other.present));
    }
    axioms.push_back(z3::implies(!keq && e.present && other.present,
                                 e.addr != other.addr));
  };
  if (opts.map_type_concretization) {
    for (const auto& other : oracle[fd]) pair_axioms(fd, other);
  } else {
    for (size_t ofd = 0; ofd < oracle.size(); ++ofd)
      for (const auto& other : oracle[ofd]) pair_axioms(int(ofd), other);
  }
  // Distinct from every in-program allocated address of this map.
  for (const auto& a : all_addrs[fd])
    axioms.push_back(z3::implies(e.present, e.addr != a));

  oracle[fd].push_back(e);
  all_addrs[fd].push_back(e.addr);
  return static_cast<int>(oracle[fd].size()) - 1;
}

z3::expr World::fresh_value_addr(int fd) {
  z3::expr a = fresh_bv("m" + std::to_string(fd) + "_newaddr", 64);
  uint64_t lo = Machine::kMapValueBase + (uint64_t(fd) << 32);
  uint64_t hi = lo + (uint64_t(1) << 32);
  axioms.push_back(z3::uge(a, z3.bv_val(lo, 64)));
  axioms.push_back(z3::ult(a, z3.bv_val(hi, 64)));
  axioms.push_back(a.extract(11, 0) == z3.bv_val(0, 12));
  for (const auto& other : all_addrs[fd]) axioms.push_back(a != other);
  all_addrs[fd].push_back(a);
  return a;
}

// ---- Program encoder -------------------------------------------------------

namespace {

// One byte of a store, guarded by its path condition.
struct ByteWrite {
  z3::expr pc;
  z3::expr addr;
  z3::expr byte;
  bool conc;            // concrete absolute address known (optimization III)
  uint64_t conc_addr;
};

// One map-level write: key valuation -> new value address (0 = deletion).
struct MapAddrWrite {
  z3::expr pc;
  z3::expr handle;  // r1 at the call (used when optimization II is off)
  z3::expr key;
  z3::expr addr;
  int fd;
};

class ProgEncoder {
 public:
  ProgEncoder(World& w, const ebpf::Program& prog, std::string tag,
              const std::vector<z3::expr>& witness_keys,
              const std::vector<z3::expr>* entry_regs,
              const analysis::RegFile* entry_types)
      : w_(w),
        c_(w.z3),
        prog_(prog),
        tag_(std::move(tag)),
        witness_(witness_keys),
        entry_regs_(entry_regs),
        entry_types_(entry_types),
        be_(w.z3),
        out_(w.z3) {}

  Encoded run();

 private:
  static constexpr int kData = 11, kKtime = 12, kRand = 13, kNState = 14;
  using State = std::vector<z3::expr>;

  World& w_;
  z3::context& c_;
  const ebpf::Program& prog_;
  std::string tag_;
  const std::vector<z3::expr>& witness_;
  const std::vector<z3::expr>* entry_regs_;
  const analysis::RegFile* entry_types_ = nullptr;
  Z3Backend be_;
  Encoded out_;

  analysis::Cfg cfg_;
  analysis::TypeInfo ti_;
  bool has_adjust_ = false;

  std::map<int, std::vector<ByteWrite>> tables_;
  std::vector<MapAddrWrite> map_writes_;
  struct PendingEdge {
    z3::expr cond;
    State state;
  };
  std::vector<std::vector<PendingEdge>> pending_;
  struct ExitInfo {
    z3::expr pc;
    State state;
  };
  std::vector<ExitInfo> exits_;

  bool failed_ = false;

  // -- small helpers --
  z3::expr bv64(uint64_t v) { return c_.bv_val(v, 64); }
  z3::expr bv8(uint64_t v) { return c_.bv_val(v, 8); }
  z3::expr tru() { return c_.bool_val(true); }
  z3::expr fls() { return c_.bool_val(false); }
  void def(const z3::expr& e) { out_.defs.push_back(e); }
  void fail(int insn, const std::string& why) {
    if (!failed_) {
      failed_ = true;
      out_.error = why;
      out_.error_insn = insn;
    }
  }

  uint64_t pkt_data0() const { return Machine::kPacketBase + Machine::kHeadroom; }
  z3::expr data_end_expr() { return bv64(pkt_data0()) + w_.pkt_len; }

  int table_id(Rt region, int fd) const {
    if (!w_.opts.mem_type_concretization) return 0;
    switch (region) {
      case Rt::PTR_STACK: return 1;
      case Rt::PTR_CTX: return 2;
      case Rt::PTR_PKT: return 3;
      case Rt::PTR_MAP_VALUE:
        return w_.opts.map_type_concretization ? 100 + fd : 99;
      default: return 0;
    }
  }

  // Initial contents of one byte, by region (provenance is statically known
  // even when the write tables are merged).
  z3::expr init_byte(Rt region, int fd, const z3::expr& addr,
                     std::optional<uint64_t> conc);
  z3::expr ctx_init_byte_at(int idx);

  // Read a byte through the region's write table.
  z3::expr read_byte(Rt region, int fd, const z3::expr& addr,
                     std::optional<uint64_t> conc, const z3::expr& pc,
                     bool track_uncovered, int insn_idx);
  void write_byte(Rt region, int fd, const z3::expr& pc, const z3::expr& addr,
                  std::optional<uint64_t> conc, const z3::expr& byte);

  // Multi-byte little-endian load/store through the tables.
  z3::expr read_value(Rt region, int fd, const z3::expr& addr,
                      std::optional<uint64_t> conc, int width,
                      const z3::expr& pc, bool track_uncovered, int insn_idx);
  void write_value(Rt region, int fd, const z3::expr& pc, const z3::expr& addr,
                   std::optional<uint64_t> conc, const z3::expr& value,
                   int width);

  // Map address-level lookup: in-program writes newest-first over the
  // shared oracle.
  z3::expr map_addr_lookup(int fd, const z3::expr& handle, const z3::expr& key);

  void encode_call(int insn_idx, const z3::expr& pc, State& s);

  // Address of a memory operand with optional concretization (III).
  struct Addr {
    z3::expr expr;
    std::optional<uint64_t> conc;
    Rt region;
    int fd;
  };
  std::optional<Addr> mem_addr(int insn_idx, int base_reg, int16_t off,
                               const State& s);

  State merged_entry(int b, const z3::expr& pc_b);
};

z3::expr ProgEncoder::ctx_init_byte_at(int idx) {
  if (w_.prog_type == ebpf::ProgType::TRACEPOINT) {
    const z3::expr& src = idx < 8 ? w_.ctx_arg0 : w_.ctx_arg1;
    int bit = (idx % 8) * 8;
    return src.extract(bit + 7, bit);
  }
  // XDP / socket filter: {u64 data, u64 data_end}. The *initial* data field
  // is a constant; adjust_head rewrites it through the ctx write table.
  z3::expr src = idx < 8 ? bv64(pkt_data0()) : data_end_expr();
  int bit = (idx % 8) * 8;
  return src.extract(bit + 7, bit);
}

z3::expr ProgEncoder::init_byte(Rt region, int fd, const z3::expr& addr,
                                std::optional<uint64_t> conc) {
  switch (region) {
    case Rt::PTR_STACK: {
      if (!w_.opts.symbolic_stack_init) return bv8(0);
      if (conc) {
        int64_t idx = int64_t(*conc) - int64_t(Machine::kStackBase - 512);
        if (idx >= 0 && idx < 512) return w_.stack_init[size_t(idx)];
        return bv8(0);
      }
      z3::expr acc = bv8(0);
      for (int i = 0; i < 512; ++i)
        acc = z3::ite(addr == bv64(Machine::kStackBase - 512 + i),
                      w_.stack_init[size_t(i)], acc);
      return acc;
    }
    case Rt::PTR_CTX: {
      if (conc) {
        int64_t idx = int64_t(*conc) - int64_t(Machine::kCtxBase);
        if (idx >= 0 && idx < 16) return ctx_init_byte_at(int(idx));
        return bv8(0);
      }
      z3::expr acc = bv8(0);
      for (int i = 0; i < 16; ++i)
        acc = z3::ite(addr == bv64(Machine::kCtxBase + i),
                      ctx_init_byte_at(i), acc);
      return acc;
    }
    case Rt::PTR_PKT: {
      if (conc) {
        int64_t idx = int64_t(*conc) - int64_t(Machine::kPacketBase);
        if (idx >= 0 && idx < int64_t(Machine::kHeadroom)) return bv8(0);
        idx -= Machine::kHeadroom;
        if (idx >= 0 && idx < w_.opts.max_pkt) return w_.pkt_init[size_t(idx)];
        return bv8(0);
      }
      z3::expr acc = bv8(0);
      for (int i = 0; i < w_.opts.max_pkt; ++i)
        acc = z3::ite(addr == bv64(pkt_data0() + uint64_t(i)),
                      w_.pkt_init[size_t(i)], acc);
      return acc;  // headroom bytes are zero-initialized
    }
    case Rt::PTR_MAP_VALUE: {
      // Fold over the initial-state oracle: bytes of present entries.
      z3::expr acc = bv8(0);
      for (size_t ofd = 0; ofd < w_.oracle.size(); ++ofd) {
        if (w_.opts.map_type_concretization && int(ofd) != fd) continue;
        for (const auto& e : w_.oracle[ofd]) {
          for (size_t j = 0; j < e.val_bytes.size(); ++j)
            acc = z3::ite(e.present && addr == e.addr + bv64(j),
                          e.val_bytes[j], acc);
        }
      }
      return acc;
    }
    default:
      return bv8(0);
  }
}

z3::expr ProgEncoder::read_byte(Rt region, int fd, const z3::expr& addr,
                                std::optional<uint64_t> conc,
                                const z3::expr& pc, bool track_uncovered,
                                int insn_idx) {
  if (!w_.opts.offset_concretization) conc = std::nullopt;
  int tid = table_id(region, fd);
  z3::expr val = init_byte(region, fd, addr, conc);
  std::vector<z3::expr> covered;  // clauses for the read-before-write query
  auto it = tables_.find(tid);
  if (it != tables_.end()) {
    for (const ByteWrite& bw : it->second) {
      if (conc && bw.conc) {
        if (*conc == bw.conc_addr) {
          val = z3::ite(bw.pc, bw.byte, val);
          covered.push_back(bw.pc);
        }
        // statically distinct addresses: no clause at all
      } else {
        z3::expr match = bw.pc && (bw.addr == addr);
        val = z3::ite(match, bw.byte, val);
        covered.push_back(match);
      }
    }
  }
  if (track_uncovered && region == Rt::PTR_STACK &&
      !w_.opts.symbolic_stack_init) {
    z3::expr any = fls();
    for (const auto& cv : covered) any = any || cv;
    out_.uncovered_stack_reads.emplace_back(insn_idx, pc && !any);
  }
  return val;
}

void ProgEncoder::write_byte(Rt region, int fd, const z3::expr& pc,
                             const z3::expr& addr,
                             std::optional<uint64_t> conc,
                             const z3::expr& byte) {
  if (!w_.opts.offset_concretization) conc = std::nullopt;
  int tid = table_id(region, fd);
  auto [it, inserted] = tables_.try_emplace(tid);
  it->second.push_back(
      ByteWrite{pc, addr, byte, conc.has_value(), conc.value_or(0)});
}

z3::expr ProgEncoder::read_value(Rt region, int fd, const z3::expr& addr,
                                 std::optional<uint64_t> conc, int width,
                                 const z3::expr& pc, bool track_uncovered,
                                 int insn_idx) {
  // Little-endian: byte i is bits [8i, 8i+8).
  std::vector<z3::expr> bytes;
  for (int i = 0; i < width; ++i) {
    std::optional<uint64_t> ci =
        conc ? std::optional<uint64_t>(*conc + uint64_t(i)) : std::nullopt;
    bytes.push_back(read_byte(region, fd, addr + bv64(uint64_t(i)), ci, pc,
                              track_uncovered, insn_idx));
  }
  z3::expr v = bytes[0];
  for (int i = 1; i < width; ++i) v = z3::concat(bytes[size_t(i)], v);
  if (width < 8) v = z3::zext(v, unsigned(64 - width * 8));
  return v;
}

void ProgEncoder::write_value(Rt region, int fd, const z3::expr& pc,
                              const z3::expr& addr,
                              std::optional<uint64_t> conc,
                              const z3::expr& value, int width) {
  for (int i = 0; i < width; ++i) {
    std::optional<uint64_t> ci =
        conc ? std::optional<uint64_t>(*conc + uint64_t(i)) : std::nullopt;
    write_byte(region, fd, pc, addr + bv64(uint64_t(i)), ci,
               value.extract(unsigned(i * 8 + 7), unsigned(i * 8)));
  }
}

z3::expr ProgEncoder::map_addr_lookup(int fd, const z3::expr& handle,
                                      const z3::expr& key) {
  int oe = w_.oracle_entry(fd, key);
  z3::expr addr = w_.oracle[fd][size_t(oe)].addr;
  for (const MapAddrWrite& mw : map_writes_) {
    if (w_.opts.map_type_concretization) {
      if (mw.fd != fd) continue;
      addr = z3::ite(mw.pc && (mw.key == key), mw.addr, addr);
    } else {
      // Map identity resolved by the solver through the handle values.
      z3::expr keq = (mw.handle == handle) &&
                     (w_.full_key(mw.fd, mw.key) == w_.full_key(fd, key));
      addr = z3::ite(mw.pc && keq, mw.addr, addr);
    }
  }
  return addr;
}

std::optional<ProgEncoder::Addr> ProgEncoder::mem_addr(int insn_idx,
                                                       int base_reg,
                                                       int16_t off,
                                                       const State& s) {
  const analysis::RegState& rs = ti_.reg_before(insn_idx, base_reg);
  Rt region = rs.type;
  if (region != Rt::PTR_STACK && region != Rt::PTR_CTX &&
      region != Rt::PTR_PKT && region != Rt::PTR_MAP_VALUE) {
    fail(insn_idx, std::string("untypeable memory access via ") +
                       analysis::rt_name(region));
    return std::nullopt;
  }
  Addr a{s[size_t(base_reg)] + bv64(uint64_t(int64_t(off))), std::nullopt,
         region, rs.map_fd};
  if (rs.off_known) {
    int64_t rel = rs.off + off;
    switch (region) {
      case Rt::PTR_STACK:
        a.conc = uint64_t(int64_t(Machine::kStackBase) + rel);
        break;
      case Rt::PTR_CTX:
        a.conc = uint64_t(int64_t(Machine::kCtxBase) + rel);
        break;
      case Rt::PTR_PKT:
        if (!has_adjust_) a.conc = uint64_t(int64_t(pkt_data0()) + rel);
        break;
      default:
        break;  // map values have symbolic addresses
    }
  }
  return a;
}

void ProgEncoder::encode_call(int insn_idx, const z3::expr& pc, State& s) {
  const Insn& insn = prog_.insns[size_t(insn_idx)];
  const ebpf::HelperProto* proto = ebpf::helper_proto(insn.imm);
  if (!proto) {
    fail(insn_idx, "unknown helper");
    return;
  }
  // Resolve the map argument statically (optimization II relies on this; the
  // handle expression is also kept for the degraded merged-table mode).
  int fd = -1;
  if (proto->reads_map_fd) {
    const analysis::RegState& r1 = ti_.reg_before(insn_idx, 1);
    if (r1.type != Rt::MAP_HANDLE || r1.map_fd < 0 ||
        r1.map_fd >= int(w_.maps.size())) {
      fail(insn_idx, "helper call without statically-known map");
      return;
    }
    fd = r1.map_fd;
  }

  auto read_buf_key = [&](int reg, uint32_t size) -> std::optional<z3::expr> {
    auto a = mem_addr(insn_idx, reg, 0, s);
    if (!a) return std::nullopt;
    out_.accesses.push_back(AccessRecord{insn_idx, a->region, a->fd, pc,
                                         a->expr, int(size), true});
    return read_value(a->region, a->fd, a->expr, a->conc, int(size), pc,
                      /*track_uncovered=*/a->region == Rt::PTR_STACK,
                      insn_idx);
  };

  z3::expr r0 = bv64(0);
  switch (insn.imm) {
    case ebpf::HELPER_MAP_LOOKUP: {
      const ebpf::MapDef& def = w_.maps[size_t(fd)];
      auto key64 = read_buf_key(2, def.key_size);
      if (!key64) return;
      z3::expr key = key64->extract(def.key_size * 8 - 1, 0);
      r0 = map_addr_lookup(fd, s[1], key);
      break;
    }
    case ebpf::HELPER_MAP_UPDATE: {
      const ebpf::MapDef& def = w_.maps[size_t(fd)];
      auto key64 = read_buf_key(2, def.key_size);
      if (!key64) return;
      z3::expr key = key64->extract(def.key_size * 8 - 1, 0);
      // Read the value buffer (may exceed 8 bytes: read bytewise).
      auto va = mem_addr(insn_idx, 3, 0, s);
      if (!va) return;
      out_.accesses.push_back(AccessRecord{insn_idx, va->region, va->fd, pc,
                                           va->expr, int(def.value_size),
                                           true});
      std::vector<z3::expr> val_bytes;
      for (uint32_t j = 0; j < def.value_size; ++j) {
        std::optional<uint64_t> cj =
            va->conc ? std::optional<uint64_t>(*va->conc + j) : std::nullopt;
        val_bytes.push_back(read_byte(va->region, va->fd,
                                      va->expr + bv64(j), cj, pc,
                                      va->region == Rt::PTR_STACK, insn_idx));
      }
      z3::expr prev = map_addr_lookup(fd, s[1], key);
      z3::expr addr_after = prev;
      if (def.kind == ebpf::MapKind::HASH) {
        z3::expr fresh = w_.fresh_value_addr(fd);
        addr_after = z3::ite(prev != bv64(0), prev, fresh);
        r0 = bv64(0);
      } else {
        r0 = z3::ite(prev != bv64(0), bv64(0), bv64(uint64_t(kEnoent)));
      }
      z3::expr wrote = def.kind == ebpf::MapKind::HASH
                           ? pc
                           : (pc && prev != bv64(0));
      map_writes_.push_back(MapAddrWrite{wrote, s[1], key, addr_after, fd});
      for (uint32_t j = 0; j < def.value_size; ++j)
        write_byte(Rt::PTR_MAP_VALUE, fd, wrote, addr_after + bv64(j),
                   std::nullopt, val_bytes[j]);
      break;
    }
    case ebpf::HELPER_MAP_DELETE: {
      const ebpf::MapDef& def = w_.maps[size_t(fd)];
      auto key64 = read_buf_key(2, def.key_size);
      if (!key64) return;
      z3::expr key = key64->extract(def.key_size * 8 - 1, 0);
      if (def.kind == ebpf::MapKind::HASH) {
        z3::expr prev = map_addr_lookup(fd, s[1], key);
        r0 = z3::ite(prev != bv64(0), bv64(0), bv64(uint64_t(kEnoent)));
        map_writes_.push_back(MapAddrWrite{pc, s[1], key, bv64(0), fd});
      } else {
        r0 = bv64(uint64_t(kEinval));
      }
      break;
    }
    case ebpf::HELPER_KTIME_GET_NS:
      r0 = s[kKtime];
      s[kKtime] = s[kKtime] + bv64(1000);
      break;
    case ebpf::HELPER_GET_PRANDOM_U32: {
      z3::expr ns = be_.splitmix(s[kRand]);
      s[kRand] = ns;
      r0 = ns & bv64(0xffffffffull);
      break;
    }
    case ebpf::HELPER_GET_SMP_PROC_ID:
      r0 = w_.cpu_id;
      break;
    case ebpf::HELPER_CSUM_DIFF: {
      const analysis::RegState& r2 = ti_.reg_before(insn_idx, 2);
      const analysis::RegState& r4 = ti_.reg_before(insn_idx, 4);
      if (!r2.val_known || !r4.val_known || r2.val % 4 || r4.val % 4 ||
          r2.val > 512 || r4.val > 512) {
        fail(insn_idx, "csum_diff requires concrete 4-aligned sizes");
        return;
      }
      z3::expr sum = s[5] & bv64(0xffffffffull);
      if (r4.val > 0) {
        auto to64 = mem_addr(insn_idx, 3, 0, s);
        if (!to64) return;
        out_.accesses.push_back(AccessRecord{insn_idx, to64->region, to64->fd,
                                             pc, to64->expr, int(r4.val),
                                             true});
        for (uint64_t j = 0; j + 4 <= r4.val; j += 4) {
          std::optional<uint64_t> cj =
              to64->conc ? std::optional<uint64_t>(*to64->conc + j)
                         : std::nullopt;
          z3::expr word =
              read_value(to64->region, to64->fd, to64->expr + bv64(j), cj, 4,
                         pc, to64->region == Rt::PTR_STACK, insn_idx);
          sum = sum + word;
        }
      }
      if (r2.val > 0) {
        auto from64 = mem_addr(insn_idx, 1, 0, s);
        if (!from64) return;
        out_.accesses.push_back(AccessRecord{insn_idx, from64->region,
                                             from64->fd, pc, from64->expr,
                                             int(r2.val), true});
        for (uint64_t j = 0; j + 4 <= r2.val; j += 4) {
          std::optional<uint64_t> cj =
              from64->conc ? std::optional<uint64_t>(*from64->conc + j)
                           : std::nullopt;
          z3::expr word =
              read_value(from64->region, from64->fd, from64->expr + bv64(j),
                         cj, 4, pc, from64->region == Rt::PTR_STACK, insn_idx);
          sum = sum + ((~word) & bv64(0xffffffffull));
        }
      }
      for (int f = 0; f < 3; ++f)
        sum = (sum & bv64(0xffffffffull)) + z3::lshr(sum, bv64(32));
      r0 = sum;
      break;
    }
    case ebpf::HELPER_XDP_ADJUST_HEAD: {
      has_adjust_ = true;  // set in pre-scan too; defensive
      z3::expr delta = s[2];
      z3::expr nd = s[kData] + delta;
      z3::expr ok = z3::uge(nd, bv64(Machine::kPacketBase)) &&
                    z3::ule(nd + bv64(14), data_end_expr());
      r0 = z3::ite(ok, bv64(0), bv64(uint64_t(int64_t(-1))));
      s[kData] = z3::ite(ok, nd, s[kData]);
      // Rewrite the ctx data field (bytes 0..7).
      for (int j = 0; j < 8; ++j)
        write_byte(Rt::PTR_CTX, -1, pc, bv64(Machine::kCtxBase + uint64_t(j)),
                   std::optional<uint64_t>(Machine::kCtxBase + uint64_t(j)),
                   s[kData].extract(unsigned(j * 8 + 7), unsigned(j * 8)));
      break;
    }
    case ebpf::HELPER_REDIRECT_MAP: {
      const ebpf::MapDef& def = w_.maps[size_t(fd)];
      r0 = z3::ite(z3::ult(s[2], bv64(uint64_t(def.max_entries))), bv64(4),
                   s[3] & bv64(0xffffffffull));
      break;
    }
    default:
      fail(insn_idx, "unmodeled helper");
      return;
  }

  s[0] = r0;
  for (int r = 1; r <= 5; ++r)
    s[size_t(r)] = bv64(interp::kScratchPoison + uint64_t(r));
}

ProgEncoder::State ProgEncoder::merged_entry(int b, const z3::expr& pc_b) {
  (void)pc_b;
  const auto& edges = pending_[size_t(b)];
  assert(!edges.empty());
  if (edges.size() == 1) return edges[0].state;
  State merged;
  for (int i = 0; i < kNState; ++i) {
    z3::expr v = edges.back().state[size_t(i)];
    for (int e = int(edges.size()) - 2; e >= 0; --e)
      v = z3::ite(edges[size_t(e)].cond, edges[size_t(e)].state[size_t(i)], v);
    // Name the merged value to help the solver share structure.
    z3::expr nv = w_.fresh_bv(tag_ + "_b" + std::to_string(b) + "_s" +
                                  std::to_string(i),
                              64);
    def(nv == v);
    merged.push_back(nv);
  }
  return merged;
}

Encoded ProgEncoder::run() {
  cfg_ = analysis::build_cfg(prog_);
  if (!cfg_.loop_free) {
    fail(0, "program has backward control flow");
    return std::move(out_);
  }
  ti_ = analysis::infer_types(prog_, cfg_, entry_types_);
  if (!ti_.ok) {
    fail(0, "type inference failed");
    return std::move(out_);
  }
  for (const Insn& i : prog_.insns)
    if (i.op == Opcode::CALL && i.imm == ebpf::HELPER_XDP_ADJUST_HEAD)
      has_adjust_ = true;
  out_.has_adjust_head = has_adjust_;

  pending_.assign(size_t(cfg_.num_blocks()), {});

  // Entry state.
  State entry;
  if (entry_regs_) {
    for (const auto& e : *entry_regs_) entry.push_back(e);
    assert(int(entry.size()) == kNState);
  } else {
    for (int r = 0; r <= 10; ++r) entry.push_back(bv64(0));
    entry[1] = bv64(Machine::kCtxBase);
    entry[10] = bv64(Machine::kStackBase);
    entry.push_back(bv64(pkt_data0()));  // data
    entry.push_back(w_.ktime_base);      // ktime state
    entry.push_back(w_.rand_seed);       // prandom state
  }

  const int n = int(prog_.insns.size());
  for (int b = 0; b < cfg_.num_blocks() && !failed_; ++b) {
    if (!cfg_.reachable[size_t(b)]) continue;
    z3::expr pc_b = tru();
    State s = entry;
    if (b == 0) {
      // entry block
    } else {
      if (pending_[size_t(b)].empty()) continue;  // dynamically unreachable
      z3::expr disj = fls();
      for (const auto& e : pending_[size_t(b)]) disj = disj || e.cond;
      z3::expr pcv = w_.fresh_bool(tag_ + "_pc" + std::to_string(b));
      def(pcv == disj);
      pc_b = pcv;
      s = merged_entry(b, pc_b);
    }

    const analysis::BasicBlock& blk = cfg_.blocks[size_t(b)];
    auto send_edge = [&](int target_insn, const z3::expr& cond,
                         const State& st) {
      if (target_insn < 0 || target_insn >= n) return;
      pending_[size_t(cfg_.block_of[size_t(target_insn)])].push_back(
          PendingEdge{cond, st});
    };

    bool terminated = false;
    for (int i = blk.start; i < blk.end && !failed_; ++i) {
      const Insn& insn = prog_.insns[size_t(i)];
      AluShape a;
      JmpShape j;
      if (ebpf::decompose_alu(insn.op, &a)) {
        z3::expr src = a.is_imm ? bv64(ebpf::sext32(insn.imm))
                                : s[size_t(insn.src)];
        s[insn.dst] = ebpf::alu_apply(a.op, a.is64, s[insn.dst], src, be_);
        continue;
      }
      if (ebpf::decompose_jmp(insn.op, &j)) {
        z3::expr rhs =
            j.is_imm ? bv64(ebpf::sext32(insn.imm)) : s[size_t(insn.src)];
        z3::expr cond = ebpf::jmp_test(j.cond, s[insn.dst], rhs, be_);
        send_edge(i + 1 + insn.off, pc_b && cond, s);
        send_edge(i + 1, pc_b && !cond, s);
        terminated = true;
        break;
      }
      switch (insn.op) {
        case Opcode::NEG64:
        case Opcode::NEG32:
        case Opcode::BE16:
        case Opcode::BE32:
        case Opcode::BE64:
        case Opcode::LE16:
        case Opcode::LE32:
        case Opcode::LE64:
          s[insn.dst] = ebpf::alu_unary_apply(insn.op, s[insn.dst], be_);
          break;
        case Opcode::JA:
          send_edge(i + 1 + insn.off, pc_b, s);
          terminated = true;
          break;
        case Opcode::LDXB:
        case Opcode::LDXH:
        case Opcode::LDXW:
        case Opcode::LDXDW: {
          auto addr = mem_addr(i, insn.src, insn.off, s);
          if (!addr) break;
          int w = ebpf::mem_width(insn.op);
          out_.accesses.push_back(AccessRecord{i, addr->region, addr->fd,
                                               pc_b, addr->expr, w, true});
          s[insn.dst] =
              read_value(addr->region, addr->fd, addr->expr, addr->conc, w,
                         pc_b, addr->region == Rt::PTR_STACK, i);
          break;
        }
        case Opcode::STXB:
        case Opcode::STXH:
        case Opcode::STXW:
        case Opcode::STXDW:
        case Opcode::STB:
        case Opcode::STH:
        case Opcode::STW:
        case Opcode::STDW: {
          auto addr = mem_addr(i, insn.dst, insn.off, s);
          if (!addr) break;
          int w = ebpf::mem_width(insn.op);
          out_.accesses.push_back(AccessRecord{i, addr->region, addr->fd,
                                               pc_b, addr->expr, w, false});
          z3::expr v = ebpf::insn_class(insn.op) == ebpf::InsnClass::STX
                           ? s[size_t(insn.src)]
                           : bv64(ebpf::sext32(insn.imm));
          write_value(addr->region, addr->fd, pc_b, addr->expr, addr->conc, v,
                      w);
          break;
        }
        case Opcode::XADD32:
        case Opcode::XADD64: {
          auto addr = mem_addr(i, insn.dst, insn.off, s);
          if (!addr) break;
          int w = ebpf::mem_width(insn.op);
          out_.accesses.push_back(AccessRecord{i, addr->region, addr->fd,
                                               pc_b, addr->expr, w, false});
          z3::expr old =
              read_value(addr->region, addr->fd, addr->expr, addr->conc, w,
                         pc_b, addr->region == Rt::PTR_STACK, i);
          z3::expr neu = old + s[size_t(insn.src)];
          if (w == 4) neu = be_.lo32(neu);
          write_value(addr->region, addr->fd, pc_b, addr->expr, addr->conc,
                      neu, w);
          break;
        }
        case Opcode::CALL:
          encode_call(i, pc_b, s);
          break;
        case Opcode::EXIT:
          exits_.push_back(ExitInfo{pc_b, s});
          terminated = true;
          break;
        case Opcode::LDDW:
          s[insn.dst] = bv64(uint64_t(insn.imm));
          break;
        case Opcode::LDMAPFD:
          s[insn.dst] = bv64(Machine::kMapHandleBase + uint64_t(insn.imm));
          break;
        case Opcode::NOP:
          break;
        default:
          fail(i, "unencodable opcode");
          break;
      }
      if (terminated) break;
    }
    if (failed_) break;
    if (!terminated) {
      // Fall-through into the next block, or off the end of the program.
      if (blk.end < n) {
        send_edge(blk.end, pc_b, s);
      } else {
        fail(blk.end - 1, "control flow falls off the end of the program");
      }
    }
  }
  if (failed_) return std::move(out_);
  if (exits_.empty()) {
    fail(n - 1, "no reachable exit");
    return std::move(out_);
  }

  // Merge outputs over all exits.
  for (int slot = 0; slot < kNState; ++slot) {
    z3::expr v = exits_.back().state[size_t(slot)];
    for (int e = int(exits_.size()) - 2; e >= 0; --e)
      v = z3::ite(exits_[size_t(e)].pc, exits_[size_t(e)].state[size_t(slot)],
                  v);
    out_.final_state.push_back(v);
  }
  out_.r0 = out_.final_state[0];
  out_.pkt_data_out = out_.final_state[kData];
  out_.pkt_len_out = data_end_expr() - out_.pkt_data_out;
  z3::expr data = out_.pkt_data_out;

  // Final packet bytes at data_out + j. Without adjust_head the data pointer
  // is the compile-time constant, so the folds concretize fully.
  int npkt = has_adjust_ ? int(Machine::kHeadroom) + w_.opts.max_pkt
                         : w_.opts.max_pkt;
  for (int jb = 0; jb < npkt; ++jb) {
    std::optional<uint64_t> conc =
        has_adjust_ ? std::nullopt
                    : std::optional<uint64_t>(pkt_data0() + uint64_t(jb));
    out_.final_pkt_bytes.push_back(read_byte(
        Rt::PTR_PKT, -1, data + bv64(uint64_t(jb)), conc, tru(), false, -1));
  }

  // Final map state at the shared witness keys.
  for (size_t fd = 0; fd < w_.maps.size(); ++fd) {
    const ebpf::MapDef& def = w_.maps[fd];
    z3::expr key = witness_[fd];
    z3::expr handle = bv64(Machine::kMapHandleBase + fd);
    z3::expr addr = map_addr_lookup(int(fd), handle, key);
    MapFinal mf{addr, {}};
    for (uint32_t j = 0; j < def.value_size; ++j)
      mf.bytes.push_back(read_byte(Rt::PTR_MAP_VALUE, int(fd),
                                   addr + bv64(uint64_t(j)), std::nullopt,
                                   tru(), false, -1));
    out_.map_finals.push_back(std::move(mf));
  }

  // Window mode: expose final stack bytes for live-out comparison.
  if (w_.opts.symbolic_stack_init) {
    for (int i = 0; i < 512; ++i) {
      uint64_t va = Machine::kStackBase - 512 + uint64_t(i);
      out_.final_stack_bytes.push_back(read_byte(
          Rt::PTR_STACK, -1, bv64(va), std::optional<uint64_t>(va), tru(),
          false, -1));
    }
  }

  out_.ok = true;
  return std::move(out_);
}

}  // namespace

Encoded encode_program(World& world, const ebpf::Program& prog,
                       const std::string& tag,
                       const std::vector<z3::expr>& witness_keys,
                       const std::vector<z3::expr>* entry_regs,
                       const analysis::RegFile* entry_types) {
  ProgEncoder enc(world, prog, tag, witness_keys, entry_regs, entry_types);
  return enc.run();
}

}  // namespace k2::verify
