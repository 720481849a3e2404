"""One benchmark operation: a cold ``agfem solve`` in a fresh interpreter.

    python3 perfbench/child.py CONFIG RESULT_JSON TRACE_DIR|-

Imports ``agfem`` (from ``PYTHONPATH``), runs
``agfem.experiments.cmd_solve`` on the config file and writes one JSON
object to RESULT_JSON.  ``time_to_solution_s`` runs from before the
import to the return of ``cmd_solve``; ``setup_s`` from the call of
``cmd_solve`` to the entry into ``pcg_jacobi``, taken by a hook that only
reads the clock.  With a TRACE_DIR the layer wrappers are installed as
well, the spans are written to TRACE_DIR/spans.csv and the per-layer
metrics go into the result.
"""

import time

T_IMPORT = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _entry_hook(fn, stamps):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)
    return hooked


def main(config_path, result_path, trace_dir):
    t0 = time.perf_counter()
    import agfem.experiments as ex
    import_s = time.perf_counter() - t0

    tracer = absent = None
    if trace_dir != "-":
        from agfem.runtime import VirtualRuntime
        import layers
        from spans import Tracer
        tracer = Tracer()
        absent = layers.install(tracer, ex, VirtualRuntime)
    stamps = []
    ex.pcg_jacobi = _entry_hook(ex.pcg_jacobi, stamps)

    cfg = ex.load_config(config_path)
    solve = ex.cmd_solve if tracer is None else tracer.wrap(ex.cmd_solve, layers.ROOT)
    t_start = time.perf_counter()
    record = solve(cfg)
    t_end = time.perf_counter()
    if not stamps:
        raise SystemExit("cmd_solve returned without calling pcg_jacobi")

    with open(os.path.join(cfg.out, "runs.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[1]
    result = {
        "time_to_solution_s": t_end - T_IMPORT,
        "setup_s": stamps[0] - t_start,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "record": record,
        "row": row,
    }
    if tracer is not None:
        metrics = layers.layer_metrics(tracer)
        metrics["experiments.import_s"] = import_s
        result["layers"] = metrics
        result["absent"] = absent + layers.unknown_phases(tracer)
        result["n_spans"] = len(tracer.names)
        tracer.write_csv(os.path.join(trace_dir, "spans.csv"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=lambda v: v.item())


if __name__ == "__main__":
    main(*sys.argv[1:4])
