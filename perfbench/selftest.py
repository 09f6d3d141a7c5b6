"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at --size small with --trace 0 and --trace 1 and
checks the result line: every metric that BENCHMARK.json names for that mode
is present, with its unit and a finite value; end-to-end values are positive;
every check passed.  It also runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def result_line(cwd, args):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_workload(spec, workload, trace):
    code, line, err = result_line(ROOT, ["--workload", workload, "--seed", "3",
                                         "--seconds", "0", "--trace", str(trace),
                                         "--size", "small"])
    if code != 0:
        raise SystemExit("%s trace=%d exited %d:\n%s" % (workload, trace, code, err))
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("%s: result keys %s" % (workload, sorted(res)))
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise SystemExit("%s trace=%d: %s" % (workload, trace, line[:300]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(res["metrics"]) != {m["name"] for m in wanted}:
        raise SystemExit("%s trace=%d: metric names differ: %s" % (
            workload, trace, sorted(set(res["metrics"]) ^ {m["name"] for m in wanted})))
    for m in wanted:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit("%s: %s = %s" % (workload, m["name"], got))
        if not trace and not got["value"] > 0:
            raise SystemExit("%s: end-to-end %s is not positive" % (workload, m["name"]))
    print("ok %-11s trace=%d attempted=%d" % (workload, trace, res["attempted"]))


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no calmkit to measure."""
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, line, _err = result_line(bare, ["--workload", "pg-n1000", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or line.startswith("{"):
        raise SystemExit("bare directory: exit %d, last line %r" % (code, line))
    print("ok bare directory fails with exit %d" % code)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
