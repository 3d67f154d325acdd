#include "analysis/cfg.h"

#include <algorithm>
#include <set>

namespace k2::analysis {

using ebpf::Insn;
using ebpf::Opcode;

Cfg build_cfg(const ebpf::Program& prog) {
  const int n = static_cast<int>(prog.insns.size());
  Cfg cfg;
  cfg.block_of.assign(n, -1);

  // Leaders: entry, jump targets, fall-throughs after jumps/exits. Targets
  // outside the program get no block (and so no edge).
  std::set<int> leaders{0};
  for (int i = 0; i < n; ++i) {
    const Insn& insn = prog.insns[i];
    if (ebpf::is_jump(insn.op)) {
      int target = i + 1 + insn.off;
      if (target >= 0 && target < n) leaders.insert(target);
      if (i + 1 < n) leaders.insert(i + 1);
    } else if (insn.op == Opcode::EXIT && i + 1 < n) {
      leaders.insert(i + 1);
    }
  }

  std::vector<int> starts(leaders.begin(), leaders.end());
  for (size_t b = 0; b < starts.size(); ++b) {
    BasicBlock blk;
    blk.start = starts[b];
    blk.end = (b + 1 < starts.size()) ? starts[b + 1] : n;
    cfg.blocks.push_back(blk);
  }
  for (int b = 0; b < cfg.num_blocks(); ++b)
    for (int i = cfg.blocks[b].start; i < cfg.blocks[b].end; ++i)
      cfg.block_of[i] = b;

  // Edges.
  for (int b = 0; b < cfg.num_blocks(); ++b) {
    BasicBlock& blk = cfg.blocks[b];
    if (blk.start == blk.end) continue;  // empty tail block
    const Insn& last = prog.insns[blk.end - 1];
    auto add_edge = [&](int target_insn) {
      if (target_insn < 0 || target_insn >= n) return;
      int t = cfg.block_of[target_insn];
      blk.succs.push_back(t);
      cfg.blocks[t].preds.push_back(b);
      if (t <= b) cfg.loop_free = false;
    };
    if (last.op == Opcode::EXIT) {
      // no successors
    } else if (last.op == Opcode::JA) {
      add_edge(blk.end + last.off);
    } else if (ebpf::is_cond_jump(last.op)) {
      add_edge(blk.end);              // fall-through first (branch untaken)
      add_edge(blk.end + last.off);   // branch taken
    } else {
      add_edge(blk.end);
    }
  }

  // Reachability from entry.
  cfg.reachable.assign(cfg.num_blocks(), false);
  std::vector<int> work{0};
  if (cfg.num_blocks() > 0) cfg.reachable[0] = true;
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    for (int s : cfg.blocks[b].succs)
      if (!cfg.reachable[s]) {
        cfg.reachable[s] = true;
        work.push_back(s);
      }
  }
  return cfg;
}

std::vector<int> immediate_dominators(const Cfg& cfg) {
  const int n = cfg.num_blocks();
  std::vector<int> idom(n, -1);
  // Forward-only CFG: block index order is a topological order, so a single
  // pass suffices.
  for (int b = 1; b < n; ++b) {
    if (!cfg.reachable[b]) continue;
    int dom = -1;
    for (int p : cfg.blocks[b].preds) {
      if (!cfg.reachable[p]) continue;
      if (dom == -1) {
        dom = p;
      } else {
        // Intersect: walk both up the dominator tree.
        int a = dom, c = p;
        while (a != c) {
          while (a > c) a = idom[a] == -1 ? 0 : idom[a];
          while (c > a) c = idom[c] == -1 ? 0 : idom[c];
        }
        dom = a;
      }
    }
    idom[b] = dom;
  }
  return idom;
}

bool dominates(const std::vector<int>& idom, int a, int b) {
  if (a == b) return true;
  while (b > 0 && idom[b] != -1) {
    b = idom[b];
    if (b == a) return true;
  }
  return a == 0 && b == 0;
}

std::vector<std::vector<bool>> reachability_matrix(const Cfg& cfg) {
  const int n = cfg.num_blocks();
  std::vector<std::vector<bool>> can(n, std::vector<bool>(n, false));
  // Process in reverse topological (descending index) order.
  for (int b = n - 1; b >= 0; --b) {
    for (int s : cfg.blocks[b].succs) {
      can[b][s] = true;
      for (int t = 0; t < n; ++t)
        if (can[s][t]) can[b][t] = true;
    }
  }
  return can;
}

}  // namespace k2::analysis
