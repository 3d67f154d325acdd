// First-order-logic encoding of BPF programs in the theory of bit vectors
// (§4), with the paper's domain-specific accelerations (§5):
//   I   memory-type concretization — one read/write table per memory region,
//   II  map-type concretization    — one two-level table per map,
//   III memory-offset concretization — statically-known concrete offsets
//       resolve aliasing clauses at compile time,
//   (IV modular/window verification lives in window.h,
//    V  caching lives in cache.h).
//
// Encoding strategy (§4.2–4.3, App. B): programs are loop-free, so we encode
// bounded-model-checking style over the CFG in topological order. Registers
// and the threaded virtual state (packet-data pointer, ktime state, prandom
// state) are merged at join points with edge-condition ITEs; memory is a set
// of byte-granularity write tables (multi-byte accesses are expanded to
// single-byte entries) guarded by path conditions; map state is a two-level
// structure: memory tables hold the key/value *bytes*, and per-map
// address-write tables map key *valuations* to value addresses, with
// deletion writing the NULL address (App. B.2). Initial map state is a
// shared "oracle": one lazily-instantiated entry per distinct lookup, with
// pairwise consistency axioms — the pure-bitvector equivalent of an
// uninterpreted function, shared between the two programs being compared.
#pragma once

#include <z3++.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/typeinfer.h"
#include "ebpf/program.h"
#include "interp/state.h"

namespace k2::verify {

// Call before creating a z3::context. A solver call frees and re-allocates
// large blocks at a high rate; glibc's dynamic mmap threshold answers big
// frees by raising the mmap and trim thresholds, so that churn stays
// resident. Pinning the threshold at 4 MiB, once per process, turns the
// dynamic adjustment off. A no-op without glibc.
void pin_malloc_for_z3();

struct EncoderOpts {
  bool mem_type_concretization = true;   // optimization I
  bool map_type_concretization = true;   // optimization II
  bool offset_concretization = true;     // optimization III
  int max_pkt = 96;                      // modeled packet bytes
  int min_pkt = 14;                      // minimum packet length (Ethernet)
  // Window mode: stack starts as shared symbolic bytes instead of zeros and
  // entry register values are supplied by the caller.
  bool symbolic_stack_init = false;
};

// Shared symbolic inputs for the two programs under comparison: packet
// bytes/length, helper seeds, context scalars, and the map oracles.
class World {
 public:
  World(z3::context& c, const ebpf::Program& shape, const EncoderOpts& opts);

  z3::context& z3;
  EncoderOpts opts;
  ebpf::ProgType prog_type;
  std::vector<ebpf::MapDef> maps;

  z3::expr pkt_len;                 // BV64 in [min_pkt, max_pkt]
  std::vector<z3::expr> pkt_init;   // BV8 input packet bytes
  std::vector<z3::expr> stack_init; // BV8; used when symbolic_stack_init
  z3::expr ktime_base;              // BV64
  z3::expr rand_seed;               // BV64
  z3::expr cpu_id;                  // BV64 (< 1024)
  z3::expr ctx_arg0, ctx_arg1;      // BV64 tracepoint scalars

  // Initial-map oracle entry: lazily instantiated per distinct lookup key.
  struct OracleEntry {
    z3::expr key;      // key valuation (key_size*8 bits)
    z3::expr present;  // Bool
    z3::expr addr;     // BV64 value address (0 when absent)
    std::vector<z3::expr> val_bytes;  // BV8 x value_size
  };
  std::vector<std::vector<OracleEntry>> oracle;  // per map fd
  // Every value address ever minted for a map (oracle + in-program update
  // allocations); used for pairwise-distinctness axioms.
  std::vector<std::vector<z3::expr>> all_addrs;

  std::vector<z3::expr> axioms;

  z3::expr fresh_bv(const std::string& name, unsigned bits);
  z3::expr fresh_bool(const std::string& name);

  // Returns the index of an oracle entry for `key` in map `fd`, creating it
  // (with consistency axioms against prior entries) if no structurally
  // identical key has been seen. With map-type concretization disabled,
  // consistency axioms are emitted across *all* maps (keys are compared with
  // the fd prepended), mimicking the merged-table degradation of §5 II.
  int oracle_entry(int fd, const z3::expr& key);

  // Mints a fresh in-range value address for map `fd` (used by updates that
  // insert a new key), with distinctness axioms.
  z3::expr fresh_value_addr(int fd);

  // Key expression used in cross-map comparisons when optimization II is
  // off: concat(fd, zext(key)).
  z3::expr full_key(int fd, const z3::expr& key) const;

  z3::expr conjoin(const std::vector<z3::expr>& es) const;

 private:
  int counter_ = 0;
};

// One memory access, for the safety checker's bounds queries (§6).
struct AccessRecord {
  int insn_idx;
  analysis::Rt region;
  int map_fd;       // for MAP_VALUE accesses
  z3::expr pc;      // path condition of the access
  z3::expr addr;    // BV64 virtual address
  int width;
  bool is_load;
};

// Per-map final state at a shared witness key.
struct MapFinal {
  z3::expr addr;                   // 0 <=> key absent in final state
  std::vector<z3::expr> bytes;     // value bytes at the witness key
};

// Result of encoding one program against a World.
struct Encoded {
  explicit Encoded(z3::context& c)
      : r0(c), pkt_data_out(c), pkt_len_out(c) {}

  bool ok = false;
  std::string error;           // why encoding failed (untypeable access etc.)
  int error_insn = -1;

  std::vector<z3::expr> defs;  // defining assertions (aux consts, tables)
  z3::expr r0;                 // merged output register
  z3::expr pkt_data_out;       // final packet-data VA (adjust_head)
  z3::expr pkt_len_out;        // final packet length
  bool has_adjust_head = false;

  // Merged machine state at exit: r0..r10 then data/ktime/rand virtual
  // registers (window postconditions compare live-out slots of this).
  std::vector<z3::expr> final_state;

  // Final packet byte at (pkt_data_out + j); size = headroom window when the
  // program can adjust the head, else max_pkt.
  std::vector<z3::expr> final_pkt_bytes;

  std::vector<MapFinal> map_finals;  // per fd, at the caller's witness keys

  // Final stack byte contents (relative offsets -512..-1 mapped to 0..511);
  // populated only in window mode, for live-out stack comparison.
  std::vector<z3::expr> final_stack_bytes;

  std::vector<AccessRecord> accesses;
  // Per stack load: condition "this load reads a byte no prior write
  // covered" (the read-before-write safety query, §6).
  std::vector<std::pair<int, z3::expr>> uncovered_stack_reads;
};

// Encodes `prog`. `witness_keys` supplies one symbolic key per map fd at
// which the final map state is computed (shared between the two programs by
// the equivalence checker). `entry_regs`, when non-null, supplies initial
// register expressions (window mode: 11 registers + data/ktime/rand virtual
// state); otherwise the standard BPF entry state (r1 = ctx, r10 = stack top)
// is used. `entry_types`, when non-null, seeds the pointer-type analysis
// with the enclosing program's state at the window boundary.
Encoded encode_program(World& world, const ebpf::Program& prog,
                       const std::string& tag,
                       const std::vector<z3::expr>& witness_keys,
                       const std::vector<z3::expr>* entry_regs = nullptr,
                       const analysis::RegFile* entry_types = nullptr);

}  // namespace k2::verify
