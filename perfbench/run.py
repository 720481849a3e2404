"""agfem benchmark: cold ``agfem solve`` runs in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One operation is one cold solve: a
fresh interpreter (``child.py``) imports ``agfem`` from ``src/``, runs
``cmd_solve`` on the generated config and reports its timings and run
record.  Operations run one at a time, with one thread and the BLAS and
OpenMP pools pinned to one, until the next one would end after S
seconds (at least one operation).  Every record is checked against the
workload's references (``workloads.py``) and every ``runs.csv`` row of
a run must be identical.

With ``--trace 0`` the run reports the end-to-end metrics as medians
over its operations.  With ``--trace 1`` it makes one untraced and one
traced operation and reports the per-layer metrics of the traced one,
including the tracing overhead against the untraced one.  The last line
of standard output is the JSON result; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench"
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("time_to_solution_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("rel_h1", "ratio"))
# reported by name but not gated: they move with the seed by design
FIGURES = (("iterations", "count"), ("rel_l2", "ratio"))


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_op(root, work, name, seed, index, trace, timeout, expect):
    """One cold solve; returns its result dict with an ``errors`` list."""
    op_dir = os.path.join(work, f"op{index}")
    os.makedirs(op_dir)
    cfg_path = os.path.join(op_dir, "solve.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(name, seed, os.path.join(op_dir, "out")))
    result_path = os.path.join(op_dir, "result.json")
    trace_dir = os.path.join(work, "trace") if trace else "-"
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, cfg_path, result_path, trace_dir],
                              cwd=root, env=_child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"wall": time.perf_counter() - t0,
                "errors": [f"killed after {timeout:.0f} s"]}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"wall": wall, "errors": [f"exit {proc.returncode}: {tail[0]}"]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(os.path.join(op_dir, "out"))
    result["wall"] = wall
    result["errors"] = wl.check_record(result["record"], *expect)
    return result


def tail_percentile(values):
    """(label, value) of the highest of p50..p99.9 with at least ten
    samples beyond it, or None."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1 - p / 100) >= 10:
            return f"p{p:g}", xs[math.ceil(len(xs) * p / 100) - 1]
    return None


def summarize(ops):
    """Medians of the end-to-end metrics and figures over good operations."""
    good = [o for o in ops if not o["errors"]]
    out = {}
    for name, unit in END_TO_END + FIGURES:
        vals = [float(o["record"][name]) if name in o["record"] else o[name]
                for o in good]
        if vals:
            out[name] = {"value": statistics.median(vals), "unit": unit,
                         "n": len(vals), "tail": tail_percentile(vals)}
    return out


def describe_env():
    import numpy
    import scipy
    pinned = ",".join(f"{v}=1" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} threads=1 {pinned}")


def measure(root, name, seed, seconds, trace):
    """All operations of one run; returns (ops, traced op or None)."""
    if not os.path.isfile(os.path.join(root, "src", "agfem", "__init__.py")):
        raise BenchError(f"no agfem sources under {os.path.join(root, 'src')}")
    if name not in wl.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; have {sorted(wl.WORKLOADS)}")
    expect = wl.expected(name, seed, wl.load_reference())
    work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.perf_counter()

    def remaining():
        return max(10.0, RUN_LIMIT_S - (time.perf_counter() - start))

    ops, traced = [], None
    try:
        while True:
            ops.append(run_op(root, work, name, seed, len(ops), False,
                              remaining(), expect))
            elapsed = time.perf_counter() - start
            if trace or elapsed + max(o["wall"] for o in ops) > seconds:
                break
        if trace:
            traced = run_op(root, work, name, seed, len(ops), True,
                            remaining(), expect)
            ops.append(traced)
            keep = os.path.join(root, WORK_DIR, f"trace-{name}")
            shutil.rmtree(keep, ignore_errors=True)
            if os.path.isdir(os.path.join(work, "trace")):
                shutil.move(os.path.join(work, "trace"), keep)
        first = next((o["row"] for o in ops if "row" in o), None)
        for o in ops:
            if o.get("row", first) != first:
                o["errors"].append("runs.csv row differs from the first operation's")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ops, traced


def format_metric(name, m):
    tail = f"  {m['tail'][0]} {m['tail'][1]:.6g}" if m["tail"] else ""
    return f"  {name:<22} median {m['value']:.6g} {m['unit']}{tail}  (n={m['n']})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        ops, traced = measure(root, args.workload, args.seed, args.seconds,
                              args.trace == 1)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(describe_env())
    print(f"workload {args.workload} seed {args.seed} centre "
          f"{wl.center_for(args.workload, args.seed)}")
    for i, o in enumerate(ops):
        kind = "traced" if o is traced else "cold"
        status = "ok" if not o["errors"] else "FAILED: " + "; ".join(o["errors"])
        times = "".join(f" {k} {o[k]:.3f}" for k in ("time_to_solution_s", "setup_s")
                        if k in o)
        print(f"  op {i} {kind} wall {o['wall']:.3f} s{times}  {status}")
    failed = sum(1 for o in ops if o["errors"])
    print(f"  failed_frac {failed / len(ops):.6g} ({failed} of {len(ops)})")

    if args.trace == 0:
        summary = summarize(ops)
        for name, m in summary.items():
            print(format_metric(name, m))
        metrics = {n: {"value": summary[n]["value"], "unit": u}
                   for n, u in END_TO_END if n in summary}
    else:
        cold = [o["time_to_solution_s"] for o in ops
                if o is not traced and not o["errors"]]
        values = dict(traced.get("layers", {}))
        if values and cold:
            values["trace.overhead_s"] = traced["time_to_solution_s"] - statistics.median(cold)
            print(f"  spans {traced['n_spans']}  absent layers: "
                  f"{', '.join(traced['absent']) or 'none'}")
            print(f"  spans written to {WORK_DIR}/trace-{args.workload}/spans.csv")
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in layers.PER_LAYER if n in values}
        for n, m in metrics.items():
            print(f"  {n:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
