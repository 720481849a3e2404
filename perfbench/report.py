"""Run every workload and print each end-to-end metric by name.

    python3 perfbench/report.py [--seeds 0,1,2]

Run from the root of a checkout.  For each workload, the operations of
one untraced run per seed, each as long as ``run_seconds`` in
``BENCHMARK.json``, are pooled; each metric is printed as its median
and, once there are enough operations, the highest percentile with at
least ten samples beyond it, with the sample count.  ``failed_frac`` is
failed operations over operations attempted.  Each workload then gets
one traced run on the first seed; its tracing overhead (traced time
minus the pooled untraced median) and its non-zero per-layer metrics
are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import layers
import run
import workloads as wl


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    print(run.describe_env())
    total = total_failed = 0
    try:
        for name in wl.WORKLOADS:
            ops = []
            for seed in seeds:
                ops += run.measure(root, name, seed, seconds, False)[0]
            failed = sum(1 for o in ops if o["errors"])
            total, total_failed = total + len(ops), total_failed + failed
            print(f"{name}  seeds {args.seeds}")
            for metric, m in run.summarize(ops).items():
                print(run.format_metric(metric, m))
            print(f"  {'failed_frac':<22} {failed / len(ops):.6g}  ({failed} of {len(ops)})")
            for o in ops:
                for err in o["errors"]:
                    print(f"    failed: {err}")
            cold = [o["time_to_solution_s"] for o in ops if not o["errors"]]
            t_ops, traced = run.measure(root, name, seeds[0], seconds, True)
            t_failed = sum(1 for o in t_ops if o["errors"])
            total, total_failed = total + len(t_ops), total_failed + t_failed
            if t_failed or not cold:
                print(f"  traced run failed: {[o['errors'] for o in t_ops]}")
                continue
            print(f"  traced run, seed {seeds[0]}: trace.overhead_s "
                  f"{traced['time_to_solution_s'] - statistics.median(cold):.6g} s  "
                  f"absent layers: {', '.join(traced['absent']) or 'none'}")
            for metric, unit in layers.PER_LAYER:
                value = traced["layers"].get(metric, 0)
                if value:
                    print(f"    {metric:<36} {value:.6g} {unit}")
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"all workloads  failed_frac {total_failed / total:.6g}  "
          f"({total_failed} of {total})")
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
