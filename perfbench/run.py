"""filmcell benchmark driver.

    python3 perfbench/run.py --workload all --seed 1

runs every workload in a fresh process and prints every end-to-end metric;

    python3 perfbench/run.py --workload cell-mix --seed 1 --seconds 10 --trace 0

runs one.  ``--trace 1`` prints the per-layer metrics instead, from two
traced passes that follow one untraced pass.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when an output misses its reference or
the traced counts do not repeat, and when filmcell's sources are missing.

Closed loop, one caller: ops run back to back in this process, with BLAS
pinned to one thread.  Set-up is measured in three child processes run
one after the other.  See README.md beside this file.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up is timed from here, numpy's import included

import os  # noqa: E402

# Pin BLAS before anything imports numpy.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from speed import REF_KERNEL_S, Speedometer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cell-mix", "gamma-loaded", "table-rw")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "ok_frac": "frac", "peak_rss_mb": "MB", "query_p50_us": "us",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_per_eval" in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("per_op"):
        return "1/op"
    return "count"


def import_program():
    """Import filmcell from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "filmcell", "__init__.py")):
        sys.exit(f"perfbench: no filmcell sources under {SRC}")
    sys.path.insert(0, SRC)
    import filmcell
    if not os.path.abspath(filmcell.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: filmcell imported from {filmcell.__file__}, not {SRC}")
    import workloads
    return workloads


def machine_record():
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "platform": platform.platform()}


def tail(values):
    """Highest percentile with at least 10 values beyond it: (value, pct, beyond).

    With 10 values or fewer no such percentile exists, and the maximum is
    reported with 0 beyond it.
    """
    xs = np.sort(values)
    n = len(xs)
    if n <= 10:
        return float(xs[-1]), 100.0, 0
    return float(xs[n - 11]), 100.0 * (n - 10) / n, 10


def measure_setup(args):
    """Set-up time (import, inputs, one warm-up op) in fresh processes.

    Returns the medians of the reference-speed and the raw seconds.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        seconds, factor = map(float, out.stdout.split()[-2:])
        scaled.append(seconds * factor)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def run_untraced(wl, args, setup):
    passes = []
    while sum(p.t1 - p.t0 for p in passes) < args.seconds:
        passes.append(wl.run_pass())
        wl.check(passes[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) + len(p.wrong) for p in passes)

    def times(scale):
        ops, queries, walls = [], [], []
        for p in passes:
            spans = np.asarray(p.op_span, dtype=float).reshape(-1, 2)
            d = spans[:, 1] - spans[:, 0] - p.speed.busy(spans[:, 0], spans[:, 1])
            ops.append(d * ([p.speed.factor(a, b) for a, b in spans] if scale else 1.0))
            spans = np.asarray(p.query_span, dtype=float).reshape(-1, 2)
            d = spans[:, 1] - spans[:, 0] - p.speed.busy(spans[:, 0], spans[:, 1])
            queries.append(1e6 * d * (p.speed.point_factors(spans.mean(axis=1))
                                      if scale else 1.0))
            walls.append(p.wall_s * (p.speed.factor(p.t0, p.t1) if scale else 1.0))
        ops = np.concatenate(ops)
        tail_s, tail_pct, _ = tail(ops)
        return {"wall_s": statistics.median(walls),
                "op_p50_s": float(np.median(ops)),
                "op_tail_s": tail_s,
                "query_p50_us": float(np.median(np.concatenate(queries))),
                }, tail_pct, len(ops)
    factors = [p.speed.factor(p.t0, p.t1) for p in passes]
    scaled, tail_pct, n_ops = times(True)
    raw, _, _ = times(False)
    metrics = dict(scaled, setup_s=setup[0], ok_frac=1.0 - failed / attempted,
                   peak_rss_mb=peak_rss_mb)
    metrics = {k: metrics[k] for k in E2E_UNITS}
    raw["setup_s"] = setup[1]
    notes = [f"passes {len(passes)}; speed factors {[round(f, 4) for f in factors]}",
             "raw seconds: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()),
             f"op_tail_s is p{tail_pct:.1f} of {n_ops} ops ({10 if n_ops > 10 else 0} "
             f"beyond it)",
             f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})"]
    return passes, metrics, dict(E2E_UNITS), notes


def run_traced(wl, args, workloads):
    import tracer
    base = wl.run_pass()
    wl.check(base)
    passes, layer = [base], []
    wl.sample_every = None
    for _ in range(2):
        with tracer.Tracer() as tr:
            res = wl.run_pass()
        wl.check(res)
        passes.append(res)
        layer.append((tr, tr.metrics(res.study_rows, res.limit_info, res.table_bytes)))
    (tr1, m1), (tr2, m2) = layer
    if tr1.exact_counts() != tr2.exact_counts():
        base.wrong.append(f"traced counts differ between passes: "
                          f"{tr1.exact_counts()} vs {tr2.exact_counts()}")
    f0, f1, f2 = (p.speed.factor(p.t0, p.t1) for p in passes)
    metrics = {}
    for k, v in m1.items():
        metrics[k] = 0.5 * (f1 * v + f2 * m2[k]) if layer_unit(k) in ("s", "us") else v
    metrics["trace.overhead_frac"] = (
        0.5 * (f1 * passes[1].wall_s + f2 * passes[2].wall_s) / (f0 * base.wall_s) - 1.0)
    metrics.update(workloads.field_ladder(args.seed))
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) + len(p.wrong) for p in passes)
    other = sorted(s for s in tr1.statuses if s not in tracer.KNOWN_STATUSES)
    notes = [f"solver statuses {dict(sorted(tr1.statuses.items()))}"
             + (f" (counted in solvers.status.other: {other})" if other else ""),
             f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})"]
    if tr1.limit_statuses:
        notes.append(f"limit solve statuses {dict(sorted(tr1.limit_statuses.items()))}")
    units = {k: ("frac" if k == "trace.overhead_frac" else layer_unit(k)) for k in metrics}
    return passes, metrics, units, notes


def run_one(args):
    workloads = import_program()
    assert tuple(workloads.WORKLOADS) == WORKLOAD_NAMES
    workdir = tempfile.mkdtemp(prefix="run-", dir=_scratch_root())
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        if args.setup_only:
            seconds = time.perf_counter() - T_START
            speed = Speedometer()
            speed.sample(60)
            print(seconds, REF_KERNEL_S / statistics.median(speed.samples))
            return 0
        if args.trace:
            passes, metrics, units, notes = run_traced(wl, args, workloads)
        else:
            passes, metrics, units, notes = run_untraced(wl, args, measure_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = [w for p in passes for w in p.wrong]
    failures = [f for p in passes for f in p.failed]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for k, v in metrics.items():
        print(f"  {k:32s} {v:14.6g} {units[k]}")
    for line in notes:
        print("  " + line)
    for f in sorted(set(failures)):
        print(f"  failed: {f}")
    for w in wrong[:20]:
        print(f"  WRONG: {w}")
    result = {"correct": not wrong,
              "attempted": sum(p.attempted for p in passes),
              "failed": len(failures) + len(wrong),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not wrong else 1


def _scratch_root():
    path = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def run_all(args):
    """Each workload in its own process, so memory and caches start fresh."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=4 * CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure at least this long; passes are never cut short")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
