// K2's internal safety checker (§6): static control-flow and typing checks
// plus first-order-logic queries for path-sensitive properties (packet
// bounds, stack read-before-write). Unsafe programs come back with a safety
// *counterexample* input whenever the violation was established by the
// solver — the search loop adds it to the test suite so similar candidates
// are pruned by the interpreter instead of the solver (§6, "to our
// knowledge, K2 is the first to leverage counterexamples for both
// correctness and safety during synthesis").
//
// Before the solver runs, a sound forward dataflow pre-pass tries to prove
// the same obligations (packet bytes proven present by data_end compares,
// stack bytes definitely written). It only ever proves: when it proves
// every obligation the result is safe without creating a Z3 context;
// otherwise the full solver path runs over all obligations, so rejections
// and counterexamples are exactly the solver's.
#pragma once

#include <optional>
#include <string>

#include "ebpf/program.h"
#include "interp/state.h"
#include "verify/encoder.h"

namespace k2::safety {

struct SafetyOptions {
  verify::EncoderOpts enc;
  unsigned timeout_ms = 10000;
  bool run_solver_checks = true;  // static-only mode for quick pruning
};

struct SafetyResult {
  bool safe = false;
  std::string reason;   // first violation, empty when safe
  int insn = -1;
  std::optional<interp::InputSpec> cex;  // input exhibiting the violation
  bool used_solver = false;  // the Z3 path ran (the pre-pass did not prove)
};

SafetyResult check_safety(const ebpf::Program& prog,
                          const SafetyOptions& opts = {});

// The dataflow pre-pass on its own: true exactly when check_safety() with
// solver checks enabled returns safe without running Z3 (the static checks
// pass and every packet-bounds and stack-read obligation is proven).
bool prepass_proves_safe(const ebpf::Program& prog,
                         const SafetyOptions& opts = {});

// check_safety() with the pre-pass skipped: every program that passes the
// static checks goes to Z3. Lets tests hold the pre-pass against the
// solver.
SafetyResult check_safety_with_solver(const ebpf::Program& prog,
                                      const SafetyOptions& opts = {});

}  // namespace k2::safety
