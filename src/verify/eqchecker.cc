#include "verify/eqchecker.h"

#include <chrono>

namespace k2::verify {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t eval_u64(z3::model& m, const z3::expr& e) {
  z3::expr v = m.eval(e, /*model_completion=*/true);
  uint64_t out = 0;
  if (!v.is_numeral()) return 0;
  // get_numeral_uint64 handles up to 64 bits.
  out = v.get_numeral_uint64();
  return out;
}

bool eval_bool(z3::model& m, const z3::expr& e) {
  z3::expr v = m.eval(e, true);
  return v.is_true();
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::EQUAL: return "equal";
    case Verdict::NOT_EQUAL: return "not-equal";
    case Verdict::UNKNOWN: return "unknown";
    case Verdict::ENCODE_FAIL: return "encode-fail";
  }
  return "?";
}

interp::InputSpec input_from_model(const World& world, z3::model& model) {
  interp::InputSpec in;
  uint64_t len = eval_u64(model, world.pkt_len);
  len = std::max<uint64_t>(uint64_t(world.opts.min_pkt),
                           std::min<uint64_t>(len, uint64_t(world.opts.max_pkt)));
  in.packet.resize(len);
  for (uint64_t i = 0; i < len; ++i)
    in.packet[i] = uint8_t(eval_u64(model, world.pkt_init[size_t(i)]));
  in.ktime_base = eval_u64(model, world.ktime_base);
  in.prandom_seed = eval_u64(model, world.rand_seed);
  in.cpu_id = uint32_t(eval_u64(model, world.cpu_id) & 1023);
  in.ctx_args[0] = eval_u64(model, world.ctx_arg0);
  in.ctx_args[1] = eval_u64(model, world.ctx_arg1);
  for (size_t fd = 0; fd < world.oracle.size(); ++fd) {
    const ebpf::MapDef& def = world.maps[fd];
    for (const auto& entry : world.oracle[fd]) {
      if (!eval_bool(model, entry.present)) continue;
      uint64_t key = eval_u64(model, entry.key);
      interp::MapEntryInit e;
      e.key.resize(def.key_size);
      for (uint32_t b = 0; b < def.key_size; ++b)
        e.key[b] = uint8_t((key >> (8 * b)) & 0xff);
      e.value.resize(def.value_size);
      for (uint32_t b = 0; b < def.value_size; ++b)
        e.value[b] = uint8_t(eval_u64(model, entry.val_bytes[b]));
      // Consistency axioms make duplicate keys agree; skip repeats.
      bool dup = false;
      for (const auto& prev : in.maps[int(fd)])
        if (prev.key == e.key) dup = true;
      if (!dup) in.maps[int(fd)].push_back(std::move(e));
    }
  }
  return in;
}

EqResult check_equivalence(const ebpf::Program& src, const ebpf::Program& cand,
                           const EqOptions& opts) {
  EqResult res;
  auto t0 = Clock::now();
  pin_malloc_for_z3();
  z3::context c;
  World world(c, src, opts.enc);

  // Shared witness keys for final-map-state equality.
  std::vector<z3::expr> witness;
  for (size_t fd = 0; fd < src.maps.size(); ++fd)
    witness.push_back(
        world.fresh_bv("witness_key" + std::to_string(fd),
                       src.maps[fd].key_size * 8));

  Encoded e1 = encode_program(world, src, "src", witness);
  Encoded e2 = encode_program(world, cand, "cand", witness);
  res.encode_ms = ms_since(t0);
  if (!e1.ok || !e2.ok) {
    res.verdict = Verdict::ENCODE_FAIL;
    res.detail = !e1.ok ? "src: " + e1.error : "cand: " + e2.error;
    return res;
  }

  z3::solver s(c);
  z3::params p(c);
  p.set("timeout", opts.timeout_ms);
  if (opts.memory_max_mb) p.set("max_memory", opts.memory_max_mb);
  s.set(p);
  for (const auto& a : world.axioms) s.add(a);
  for (const auto& d : e1.defs) s.add(d);
  for (const auto& d : e2.defs) s.add(d);

  // outputs differ?
  z3::expr outputs_equal = (e1.r0 == e2.r0);
  if (src.type != ebpf::ProgType::TRACEPOINT) {
    outputs_equal = outputs_equal && (e1.pkt_len_out == e2.pkt_len_out);
    size_t npkt = std::max(e1.final_pkt_bytes.size(),
                           e2.final_pkt_bytes.size());
    for (size_t j = 0; j < npkt; ++j) {
      // Bytes past a program's modeled window are zero (no adjust_head).
      z3::expr b1 = j < e1.final_pkt_bytes.size() ? e1.final_pkt_bytes[j]
                                                  : c.bv_val(0, 8);
      z3::expr b2 = j < e2.final_pkt_bytes.size() ? e2.final_pkt_bytes[j]
                                                  : c.bv_val(0, 8);
      z3::expr in_range = z3::ult(c.bv_val(uint64_t(j), 64), e1.pkt_len_out);
      outputs_equal = outputs_equal && z3::implies(in_range, b1 == b2);
    }
  }
  for (size_t fd = 0; fd < src.maps.size(); ++fd) {
    const MapFinal& m1 = e1.map_finals[fd];
    const MapFinal& m2 = e2.map_finals[fd];
    z3::expr p1 = m1.addr != c.bv_val(uint64_t(0), 64);
    z3::expr p2 = m2.addr != c.bv_val(uint64_t(0), 64);
    outputs_equal = outputs_equal && (p1 == p2);
    for (size_t j = 0; j < m1.bytes.size(); ++j)
      outputs_equal =
          outputs_equal && z3::implies(p1, m1.bytes[j] == m2.bytes[j]);
  }
  s.add(!outputs_equal);

  auto t1 = Clock::now();
  z3::check_result r = s.check();
  res.solve_ms = ms_since(t1);
  switch (r) {
    case z3::unsat:
      res.verdict = Verdict::EQUAL;
      break;
    case z3::sat: {
      res.verdict = Verdict::NOT_EQUAL;
      z3::model m = s.get_model();
      res.cex = input_from_model(world, m);
      break;
    }
    default:
      res.verdict = Verdict::UNKNOWN;
      res.detail = s.reason_unknown();
      break;
  }
  return res;
}

}  // namespace k2::verify
