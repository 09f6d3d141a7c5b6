"""calmkit benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload pg-n1000 --seed 1 --seconds 12 --trace 0

Run from the repository root.  The benchmark imports calmkit from src/,
builds the workload's inputs from --seed, and runs its operations in whole
rounds, each operation starting when the previous one returns, until
--seconds have passed.  Every operation's output is checked.  Set-up time is
the median over SETUP_SAMPLES fresh processes, from process start to the
point where the first timed operation could begin.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop once
untraced and once with span recorders installed and prints the per-layer
metrics plus the tracing overhead.  Human-readable lines come first; the last
line is one JSON object.  The full record (environment, per-operation
latencies, failures, known-defect probes, spans) is written next to
BENCHMARK.json as perfbench-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
WORKLOADS = ("pg-n1000", "cli-small", "certify-n6", "oracle-2d")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small shrinks every input for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used for setup_s)")
    return ap.parse_args(argv)


def import_calmkit():
    """Import calmkit from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "calmkit", "__init__.py")):
        raise SystemExit("perfbench: no calmkit sources under %s" % SRC)
    sys.path.insert(1, SRC)
    import calmkit
    if not os.path.abspath(calmkit.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported calmkit from %s" % calmkit.__file__)


def set_up(args, workdir):
    """Inputs, problem files, Lipschitz bounds and the warm-up operations."""
    import workloads
    wl = workloads.BUILDERS[args.workload](args.seed, args.size, workdir)
    if len({op.name for op in wl.ops}) != len(wl.ops):
        raise RuntimeError("operation names must be unique: latencies are kept per name")
    for op in wl.warm_up:
        err = op.check(op.run())
        if err:
            raise RuntimeError("warm-up %s failed: %s" % (op.name, err))
    return wl


def setup_samples(args):
    """Seconds from process start to 'ready' for fresh set-up processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError("set-up process failed (exit %s)" % code)
        out.append(elapsed)
    return out


def timed_loop(ops, seconds):
    """Whole rounds over ops until `seconds` have passed; one client."""
    latencies, failures = [], []
    per_op = {op.name: [] for op in ops}
    t0 = time.perf_counter()
    while True:
        for op in ops:
            s = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:   # a raising op is a failed op, not a crash
                out, err = None, "raised %s: %s" % (type(exc).__name__, exc)
            else:
                err = None
            dt = time.perf_counter() - s
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:
                    err = "check raised %s: %s" % (type(exc).__name__, exc)
            latencies.append(dt)
            per_op[op.name].append(dt)
            if err:
                failures.append({"op": op.name, "error": err})
        if time.perf_counter() - t0 >= seconds:
            break
    return {"wall_s": time.perf_counter() - t0, "latencies": latencies,
            "failures": failures, "per_op_median_s": {
                k: statistics.median(v) for k, v in per_op.items()}}


def loop_metrics(loop):
    """Throughput over the whole loop; latency percentiles over the round's
    operations, each taken at its median over the rounds.  The percentiles
    then rest on the same order statistics whatever the number of rounds,
    and repeated rounds damp the jitter of millisecond operations."""
    lat = sorted(loop["per_op_median_s"].values())
    ok = len(loop["latencies"]) - len(loop["failures"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"ops_per_s": ok / loop["wall_s"], "op_p50_s": statistics.median(lat),
            "op_p90_s": p90, "failed_frac": len(loop["failures"]) / len(loop["latencies"])}


def run_probes(probes):
    """Known-defect probes: {defect: {probes, hit, clear, failed, detail}}."""
    out = {}
    for probe in probes:
        rec = out.setdefault(probe.defect, {"probes": 0, "hit": 0, "clear": 0,
                                            "failed": 0, "detail": []})
        try:
            status, detail = probe.run()
        except Exception as exc:
            status, detail = "failed", "raised %s: %s" % (type(exc).__name__, exc)
        rec["probes"] += 1
        rec[status] += 1
        if detail and len(rec["detail"]) < 3:
            rec["detail"].append(detail)
    return out


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the BLAS)
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args):
    import numpy
    import scipy
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):   # a plain export has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "calmkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": openblas_threads(),
            "CALMKIT_THREADS": os.environ.get("CALMKIT_THREADS"),
            "git_sha": sha, "calmkit_src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace}


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    args = parse_args(argv)
    # one client on a small shared machine: BLAS threads would wait on each
    # other whenever a neighbour takes a core, so pin them unless the caller did
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("CALMKIT_THREADS", "1")
    import_calmkit()
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


def measure(args, workdir):
    e2e_units, layer_units = metric_units()
    samples = setup_samples(args)
    if args.trace:   # the traced layers include set-up, where the Lipschitz bounds live
        from tracing import Tracer
        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        wl = set_up(args, workdir)
    finally:
        if args.trace:
            tracer.uninstall()
    record = {"environment": environment(args), "workload_info": wl.info,
              "setup_samples_s": samples,
              "in_process_setup_s": time.perf_counter() - t0}

    # a traced run splits --seconds between the untraced and the traced loop
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_loop(wl.ops, seconds)
    loops = [untraced]
    m = loop_metrics(untraced)
    values = {"setup_s": statistics.median(samples), "ops_per_s": m["ops_per_s"],
              "op_p50_s": m["op_p50_s"], "op_p90_s": m["op_p90_s"],
              "failed_frac": m["failed_frac"]}
    if args.trace:
        covered_before = tracer.covered_s()
        tracer.install()
        try:
            traced = timed_loop(wl.ops, seconds)
        finally:
            tracer.uninstall()
        loops.append(traced)
        values.update(tracer.layer_metrics())
        traced_rate = loop_metrics(traced)["ops_per_s"]
        values["trace.untraced_ops_per_s"] = m["ops_per_s"]
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.overhead_ops_per_s"] = traced_rate - m["ops_per_s"]
        values["trace.overhead_frac"] = 1.0 - traced_rate / m["ops_per_s"]
        values["trace.unattributed_s"] = traced["wall_s"] - (tracer.covered_s() - covered_before)
        record["spans"] = {"kept": tracer.spans, "total": tracer.span_count}
    probes = run_probes(wl.probes)
    from workloads import KNOWN_DEFECTS
    for defect in KNOWN_DEFECTS:
        values["known_defects.%s.hits" % defect] = probes.get(defect, {}).get("hit", 0)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for loop in loops for f in loop["failures"]]
    probe_failed = sum(p["failed"] for p in probes.values())
    attempted = sum(len(loop["latencies"]) for loop in loops) + \
        sum(p["probes"] for p in probes.values())
    failed = len(failures) + probe_failed
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError("metrics not computed: %s" % missing)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    n_ops = len(untraced["latencies"])
    print("perfbench %s seed=%d trace=%d size=%s: %d ops (%d rounds of %d) in %.2f s, "
          "one client" % (args.workload, args.seed, args.trace, args.size, n_ops,
                          n_ops // len(wl.ops), len(wl.ops), untraced["wall_s"]))
    print("environment %s" % json.dumps(record["environment"]))
    shown = dict(e2e_units, **(layer_units if args.trace else {}))
    shown.setdefault("failed_frac", "ratio")
    for name, unit in shown.items():
        note = ""
        if name in ("op_p50_s", "op_p90_s"):
            note = "  (over %d operations, each at its median of %d rounds)" % (
                len(wl.ops), n_ops // len(wl.ops))
        elif name == "failed_frac":
            note = "  (%d of %d ops)" % (len(untraced["failures"]), n_ops)
        elif name == "setup_s":
            note = "  (median of %d set-ups)" % len(samples)
        print("%-44s %.6g %s%s" % (name, values[name], unit, note))
    for defect, p in probes.items():
        print("known defect %s: %d of %d probes hit, %d clear, %d failed %s"
              % (defect, p["hit"], p["probes"], p["clear"], p["failed"], p["detail"][:1]))
    for f in failures[:20]:
        print("FAILED %s: %s" % (f["op"], f["error"]))

    record.update({"metrics": values, "known_defects": probes, "failures": failures,
                   "per_op_median_s": untraced["per_op_median_s"],
                   "latencies_s": untraced["latencies"],
                   "ops_per_round": len(wl.ops)})
    out = os.path.join(ROOT, "perfbench-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
