"""Per-layer tracing of one ``cmd_solve`` run, installed from outside.

The program is not edited: the functions that ``agfem.experiments``
calls are replaced in that module's namespace by wrappers that record a
span per call, and ``VirtualRuntime.run`` is replaced by one that times
every rank step.  A function the program no longer has is reported as an
absent layer; its metrics then read 0.  So is a runtime phase label that
``RUNTIME_PHASES`` does not list.

A layer's ``_s`` metric is the self time of its spans: duration minus
the part child spans cover.  Rank steps inside ``VirtualRuntime.run``
count towards the layer that called the runtime, so ``solve.pcg_s``
covers PCG on every process count; ``runtime.<phase>.overhead_s`` is the
runtime's own share (delivery, deep copies and reductions).  Runtimes of
one process, which the serial solve and the condition estimate use
internally, are part of their caller and are not traced.
"""

from __future__ import annotations

import functools
import pickle
from collections import defaultdict

import numpy as np

from spans import Tracer

RUNTIME_PHASES = ("aggregate", "inverse-plan", "numbering", "import",
                  "assembly", "solve")
RUNTIME_METRICS = ("supersteps", "messages", "bytes", "rank_busy_max_s",
                   "overhead_s")
ROOT = "experiments.cmd_solve"
STEP = "runtime.step"
INSTRUMENTATION = "trace.instrumentation"


def _quad_points(tracer, q, args, kwargs):
    tracer.count("geometry.quad_points", q.weights.size + q.boundary_weights.size)


def _set(name, attr):
    def record(tracer, result, args, kwargs):
        tracer.counts[name] = getattr(result, attr)
    return record


def _meshes(tracer, meshes, args, kwargs):
    n_local = np.array([m.n_local for m in meshes], dtype=float)
    tracer.counts["partition.max_over_mean_cells"] = float(n_local.max() / n_local.mean())
    tracer.counts["partition.ghost_cells"] = sum(m.n_ghost for m in meshes)


def _solved_system(tracer, result, args, kwargs):
    system = args[0] if args else kwargs["system"]
    blocks = getattr(system, "blocks", None) or [system[0]]
    tracer.counts["assembly.nnz"] = sum(int(A.nnz) for A in blocks)
    tracer.counts["assembly.explicit_zeros"] = sum(
        int(np.count_nonzero(A.data == 0)) for A in blocks)
    tracer.counts["solve.iterations"] = result[1].iterations


# name in agfem.experiments -> (span name, counter run after each call)
LAYER_FUNCTIONS = {
    "classify_cells": ("geometry.classify", None),
    "cut_quadrature": ("geometry.quadrature", _quad_points),
    "face_is_active": ("geometry.face_active", None),
    "aggregate_serial": ("aggregation.serial", _set("aggregation.rounds", "rounds")),
    "aggregates": ("aggregation.validate", _set("aggregation.max_size", "max_size")),
    "build_std_space": ("fespace.space", _set("fespace.n_dofs", "n_dofs")),
    "classify_dofs": ("fespace.space", None),
    "build_constraints_serial": ("fespace.constraints",
                                 _set("fespace.n_constrained", "n_constrained")),
    "poisson_elements": ("assembly.elements", None),
    "assemble_serial": ("assembly.serial", None),
    "assemble_distributed": ("assembly.distributed", None),
    "pcg_jacobi": ("solve.pcg", _solved_system),
    "error_norms": ("solve.norms", None),
    "condition_estimate": ("solve.kappa", None),
    "partition_weighted_sfc": ("partition.sfc", None),
    "build_subdomain_meshes": ("partition.meshes", _meshes),
    "aggregate_parallel": ("distagg.aggregate", None),
    "build_direct_plan": ("distagg.plans", None),
    "build_inverse_plan": ("distagg.plans", None),
    "import_root_data": ("distagg.import", None),
    "number_dofs_distributed": ("distspace.numbering", None),
    "build_constraints_distributed": ("distspace.constraints", None),
    "make_run_record": ("experiments.record", None),
}

CALL_COUNTS = {"geometry.quadrature_calls": "geometry.quadrature",
               "geometry.face_active_calls": "geometry.face_active"}

# every metric the traced run reports, with its unit
PER_LAYER = (
    [("geometry.classify_s", "s"), ("geometry.quadrature_s", "s"),
     ("geometry.quadrature_calls", "count"), ("geometry.quad_points", "count"),
     ("geometry.face_active_s", "s"), ("geometry.face_active_calls", "count"),
     ("aggregation.serial_s", "s"), ("aggregation.validate_s", "s"),
     ("aggregation.rounds", "count"), ("aggregation.max_size", "count"),
     ("fespace.space_s", "s"), ("fespace.constraints_s", "s"),
     ("fespace.n_dofs", "count"), ("fespace.n_constrained", "count"),
     ("assembly.elements_s", "s"), ("assembly.serial_s", "s"),
     ("assembly.distributed_s", "s"), ("assembly.nnz", "count"),
     ("assembly.explicit_zeros", "count"),
     ("solve.pcg_s", "s"), ("solve.iterations", "count"),
     ("solve.s_per_iteration", "s"), ("solve.norms_s", "s"),
     ("solve.kappa_s", "s"),
     ("partition.sfc_s", "s"), ("partition.meshes_s", "s"),
     ("partition.max_over_mean_cells", "ratio"),
     ("partition.ghost_cells", "count"),
     ("distagg.aggregate_s", "s"), ("distagg.plans_s", "s"),
     ("distagg.import_s", "s"),
     ("distspace.numbering_s", "s"), ("distspace.constraints_s", "s")]
    + [(f"runtime.{p}.{m}", {"supersteps": "count", "messages": "count",
                              "bytes": "bytes_pickled"}.get(m, "s"))
       for p in RUNTIME_PHASES for m in RUNTIME_METRICS]
    + [("experiments.import_s", "s"), ("experiments.record_s", "s"),
       ("experiments.other_s", "s"), ("trace.overhead_s", "s")]
)


def _timed_body(tracer, body, phase):
    """``body`` with every rank step in a span and its messages counted."""

    def timed(proc, *args):
        gen = body(proc, *args)
        value = None
        while True:
            sid = tracer.open(STEP, proc.rank)
            try:
                request = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(sid)
            payloads = getattr(request, "payloads", None)
            if payloads:
                isid = tracer.open(INSTRUMENTATION)
                tracer.count(f"runtime.{phase}.messages", len(payloads))
                tracer.count(f"runtime.{phase}.bytes", sum(
                    len(pickle.dumps(p, protocol=4)) for p in payloads.values()))
                tracer.close(isid)
            value = yield request

    return timed


def _traced_run(tracer, run):
    @functools.wraps(run)
    def traced(self, body, args=None, phase="", *rest, **kwargs):
        if self.n_procs == 1:
            return run(self, body, args, phase, *rest, **kwargs)
        first = self._superstep
        sid = tracer.open(f"runtime.{phase}")
        try:
            return run(self, _timed_body(tracer, body, phase), args, phase,
                       *rest, **kwargs)
        finally:
            tracer.close(sid)
            tracer.count(f"runtime.{phase}.supersteps", self._superstep - first)

    return traced


def install(tracer: Tracer, experiments, runtime_cls) -> list[str]:
    """Wrap the layer functions; returns the names the program lacks."""
    absent = []
    for attr, (span, counter) in LAYER_FUNCTIONS.items():
        fn = getattr(experiments, attr, None)
        if fn is None:
            absent.append(attr)
            continue
        on_result = functools.partial(counter, tracer) if counter else None
        setattr(experiments, attr, tracer.wrap(fn, span, on_result))
    run = getattr(runtime_cls, "run", None)
    if run is None:
        absent.append("VirtualRuntime.run")
    else:
        runtime_cls.run = _traced_run(tracer, run)
    return absent


def unknown_phases(tracer: Tracer) -> list[str]:
    """Runtime phase spans whose label is not in RUNTIME_PHASES.  Their
    metrics would be dropped, so they are reported as absent layers."""
    known = {f"runtime.{p}" for p in RUNTIME_PHASES} | {STEP}
    return sorted({n for n in tracer.names
                   if n.startswith("runtime.") and n not in known})


def _owner_layer(tracer, sid):
    """Name of the nearest ancestor outside the runtime and the tracer."""
    while sid >= 0 and tracer.names[sid].startswith(("runtime.", "trace.")):
        sid = tracer.parents[sid]
    return tracer.names[sid] if sid >= 0 else ROOT


def _metric_key(name):
    if name == ROOT:
        return "experiments.other"
    if name.startswith("runtime."):
        return f"{name}.overhead"
    return name


def layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric except the two the child measures outside
    the trace (``experiments.import_s``, ``trace.overhead_s``)."""
    self_s = defaultdict(float)
    busy = defaultdict(float)       # (phase, rank) -> seconds in rank steps
    calls = defaultdict(int)
    for sid, t in enumerate(tracer.self_times()):
        name = tracer.names[sid]
        calls[name] += 1
        if name == STEP:
            phase = tracer.names[tracer.parents[sid]][len("runtime."):]
            busy[phase, tracer.ranks[sid]] += tracer.ends[sid] - tracer.starts[sid]
            self_s[_metric_key(_owner_layer(tracer, sid))] += t
        else:
            self_s[_metric_key(name)] += t
    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith("_s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = tracer.counts.get(name, 0)
    for name, span in CALL_COUNTS.items():
        out[name] = calls[span]
    for phase in RUNTIME_PHASES:
        out[f"runtime.{phase}.rank_busy_max_s"] = max(
            (v for (p, _), v in busy.items() if p == phase), default=0.0)
    its = out["solve.iterations"]
    out["solve.s_per_iteration"] = out["solve.pcg_s"] / its if its else 0.0
    return out
