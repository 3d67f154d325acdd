#!/usr/bin/env python3
"""Build and run the K2 end-to-end benchmark program (perfbench/k2perf.cc).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program and the k2core library it links are
built from this checkout's sources into $CARGO_TARGET_DIR/k2perf (default
.bench_build/k2perf); build output goes to stderr, so the last line of stdout
is the program's JSON result. Traced runs also write their spans to
<build dir>/spans/<workload>-seed<n>.jsonl. Any extra arguments (--jobs,
--corrupt-winner) are passed to the program unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "k2perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "k2perf")
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, "k2perf")] + args
    if arg_value(args, "--trace") == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (arg_value(args, "--workload"),
                                    arg_value(args, "--seed"))
        cmd += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: k2perf exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
