#!/usr/bin/env python3
"""Self-test of the benchmark: a one-job run of every workload.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it runs
perfbench/run.py with --jobs 1, untraced and traced, and checks that
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, one attempted job and no failure;
  * every end_to_end metric (untraced) or per_layer metric (traced) is
    printed with the unit BENCHMARK.json gives it, and nothing else;
  * the correctness check ran on the winner;
  * a second same-seed run gives the identical winner_cost_ratio and the
    identical compile counts;
and that a run with a deliberately wrong winner (--corrupt-winner) is
caught: correct is false and the exit code is non-zero.
Exits non-zero on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that are counts of the deterministic search, so repeat
# exactly; the others are times or come from the time-capped stage replay.
SEARCH_COUNTS = ["core.proposals", "core.iters_to_best",
                 "pipeline.tests_executed", "pipeline.tests_skipped",
                 "pipeline.early_exit_share", "verify.eq_calls",
                 "verify.eq_equal_share", "verify.eq_unknown",
                 "verify.cache_hit_share"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--jobs", "1"]
    cmd += list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: no output (exit %d)\n%s" % (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    return p.returncode, lines, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, res = run(name, trace)
            tag = "%s trace %d" % (name, trace)
            check(code == 0, tag + ": exit code %d" % code)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys " + str(sorted(res)))
            check(res["correct"] is True and res["attempted"] == 1 and res["failed"] == 0,
                  tag + ": correct/attempted/failed = %r/%r/%r" %
                  (res["correct"], res["attempted"], res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, tag + ": metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" %
                  (sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                   sorted(k for k in want if k in got and want[k] != got[k])))
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  tag + ": non-numeric metric value")
            check(any(l.startswith("correctness: 1 winners checked") for l in lines),
                  tag + ": correctness check did not run")
            _, _, again = run(name, trace)
            same = ["winner_cost_ratio"] if trace == 0 else SEARCH_COUNTS
            diff = [k for k in same if again["metrics"][k]["value"] != res["metrics"][k]["value"]]
            check(not diff, tag + ": same-seed runs differ in " + str(diff))
            print("ok   %s: %d metrics, same-seed repeat identical" % (tag, len(got)))
        code, _, res = run(name, 0, ["--corrupt-winner"])
        check(code != 0 and res["correct"] is False and res["failed"] == 1,
              name + ": a wrong winner was not caught")
        print("ok   %s: wrong winner caught" % name)
    print("selftest passed")


if __name__ == "__main__":
    main()
