"""Experiment driver: configs, the solve pipeline, and the study commands.

The solve pipeline (``run_solve_pipeline``) runs both spaces as one
sequence for every process count, serial runs being the one-subdomain
case and the standard space the case without constraints, and keeps one
system and one solution in global-id numbering.  Each command appends
deterministic rows to CSV files under the output directory; wall-clock
timings go to a separate timings.csv so the result files are
byte-identical across repeated runs and rank step orders.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import resource
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import svg
# aggregate_serial, assemble_serial, build_constraints_serial,
# build_std_space, classify_dofs and face_is_active are not called here;
# they stay importable from this module for perfbench, which wraps the
# pipeline's layers by name
from .aggregation import (aggregate_parallel, aggregate_serial, aggregates,
                          gather_root_map)
from .assembly import (DistributedSystem, assemble_distributed,
                       assemble_serial, export_matrix_coo, nitsche_tau_agg,
                       nitsche_tau_std, poisson_elements)
from .distagg import build_direct_plan, build_inverse_plan, import_root_data
from .distspace import (build_constraints_distributed, nodal_values,
                        number_dofs_distributed)
from .fespace import (build_constraints_serial, build_std_space,
                      classify_dofs, encode_node_keys)
from .geometry import (classify_cells, cut_quadrature, default_tolerance,
                       face_is_active)
from .grid import unit_box_grid
from .levelset import HalfPlane, Popcorn, Sphere
from .partition import (_sorted_distinct, build_subdomain_meshes,
                        partition_weighted_sfc)
from .runtime import VirtualRuntime
from .solve import (DENSE_LIMIT, NotPositiveDefiniteError,
                    condition_estimate, error_norms, pcg_jacobi)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_EQUIVALENCE = 4

RECORD_SCHEMA_VERSION = 4

GEOMETRIES = ("circle", "offset-circle", "halfplane", "popcorn")
SPACES = ("agg", "std")
SOLUTIONS = ("linear", "sine")
DUMPS = ("aggregates", "constraints", "matrix")

OFFSET_CIRCLE_CENTER = (0.531, 0.472, 0.515)


class ConfigError(ValueError):
    """Bad experiment configuration."""


class EquivalenceError(RuntimeError):
    """A serial/parallel equivalence check failed."""


@dataclass
class ExperimentConfig:
    geometry: str = "circle"
    dimension: int = 2
    level: int = 4
    space: str = "agg"
    beta: float = 10.0
    rtol: float = 1e-6
    maxit: int = 500
    procs: int = 1
    out: str = "."
    dump: tuple = ()
    solution: str = "linear"
    trace: int = 0
    radius: float = 0.3
    center: tuple = (0.5, 0.5)
    normal: tuple = (1.0, 0.0)
    offset: float = 0.503

    def validate(self):
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if self.space not in SPACES:
            raise ConfigError(f"unknown space {self.space!r}")
        if self.solution not in SOLUTIONS:
            raise ConfigError(f"unknown solution {self.solution!r}")
        if self.dimension not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if self.geometry == "popcorn" and self.dimension != 3:
            raise ConfigError("the popcorn geometry is three-dimensional")
        if self.level < 1:
            raise ConfigError("level must be >= 1")
        for name in ("beta", "rtol", "radius", "offset", "center", "normal"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)!r}")
        for name in ("beta", "rtol", "radius"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not any(self.normal[:self.dimension]):
            raise ConfigError(f"normal {self.normal!r} has no nonzero entry "
                              f"in {self.dimension}D")
        for name in ("maxit", "procs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for d in self.dump:
            if d not in DUMPS:
                raise ConfigError(f"unknown dump target {d!r}")
        return self


def _parse_value(name: str, raw: str):
    # annotations are strings: str, int, float, or tuple (of floats but dump)
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    if name not in kinds:
        raise ConfigError(f"unknown config key {name!r}")
    raw = raw.strip()
    if name == "dump":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    if kinds[name] == "str":
        return raw
    try:
        if kinds[name] == "tuple":
            return tuple(float(v) for v in raw.split(","))
        return int(raw) if kinds[name] == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {name}") from None


# defaults a command sets under the config file and the flags: the cut
# sweep starts from a lattice line, so each delta is the volume fraction
# its cut cells keep, and a convergence study needs a solution outside Q1
COMMAND_DEFAULTS = {
    "cut-sweep": {"geometry": "halfplane", "offset": 0.5},
    "convergence": {"solution": "sine"},
}


def load_config(path=None, overrides=None, command=None) -> ExperimentConfig:
    """Flat ``key = value`` file plus command-line overrides, over the
    ``COMMAND_DEFAULTS`` of ``command`` and the ExperimentConfig defaults."""
    settings = []
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                settings.append((key.strip(), raw))
    settings += [kv for kv in (overrides or {}).items() if kv[1] is not None]
    values = dict(COMMAND_DEFAULTS.get(command, {}))
    for key, raw in settings:
        # benchmark configs still say threads = 1, how every run steps; the
        # key leaves with the benchmark revision of ROADMAP item 1
        if key == "threads":
            if str(raw).strip() != "1":
                raise ConfigError(f"threads = {str(raw).strip()}: ranks step "
                                  f"on one thread")
            continue
        values[key] = raw if not isinstance(raw, str) else _parse_value(key, raw)
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg.validate()


def make_levelset(cfg: ExperimentConfig):
    d = cfg.dimension
    if cfg.geometry == "circle":
        center = (tuple(cfg.center) + (0.5,) * 3)[:d]
        return Sphere(center, cfg.radius)
    if cfg.geometry == "offset-circle":
        return Sphere(OFFSET_CIRCLE_CENTER[:d], cfg.radius)
    if cfg.geometry == "halfplane":
        normal = (tuple(cfg.normal) + (0.0,) * 3)[:d]
        return HalfPlane(normal, cfg.offset)
    return Popcorn()


def manufactured_solution(cfg: ExperimentConfig):
    """Exact solution with its gradient and Poisson source term."""
    d = cfg.dimension
    if cfg.solution == "linear":
        def u(p):
            return np.sum(np.atleast_2d(p), axis=1)

        def grad(p):
            return np.ones_like(np.atleast_2d(p))

        return u, grad, None
    pi = np.pi

    def u(p):
        p = np.atleast_2d(p)
        out = np.ones(p.shape[0])
        for a in range(d):
            x = pi * p[:, a]
            out *= np.sin(x, out=x)
        return out

    def grad(p):
        # component c is pi times the factors of the axes in order, cos
        # on axis c and sin on the others: one axis's factors at a time
        p = np.atleast_2d(p)
        out = np.full(p.shape, pi)
        for a in range(d):
            x = pi * p[:, a]
            cos = np.cos(x)
            sin = np.sin(x, out=x)
            for c in range(d):
                out[:, c] *= cos if a == c else sin
        return out

    def f(p):
        return d * pi**2 * u(p)

    return u, grad, f


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PhaseTimer:
    """Wall time per phase, and the process's peak RSS (MB) after it."""

    timings: dict = field(default_factory=dict)
    maxrss_mb: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def time(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + \
                time.perf_counter() - t0
            self.maxrss_mb[name] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class SolveOutputs:
    """Everything a solve run produced, for records, dumps, and checks.

    The system and the solution are in the global-id numbering of
    ``numbering``, which is the same for every process count, so both
    are bitwise equal at every P.  The standard space has no aggregates,
    and None for the constraints of each subdomain."""

    cfg: ExperimentConfig
    grid: object
    classification: object
    quadrature: object
    system: DistributedSystem
    solution: np.ndarray
    report: object
    norms: object
    timings: dict
    maxrss_mb: dict                   # peak RSS after each phase
    runtime: VirtualRuntime
    meshes: list
    numbering: object
    constraints: list                 # per subdomain
    # the aggregated space only; None for the standard space
    root_map: object = None
    aggregate_stats: object = None
    dist_map: object = None

    @property
    def n_interior_dofs(self) -> int:
        """The DOFs of interior cells: the distinct vertices of the
        interior cells (for the aggregated space, its free DOFs)."""
        cls = self.classification
        return int(_sorted_distinct(encode_node_keys(cls.vertex_keys(
            cls.interior_ids), cls.grid.n_per_axis).ravel()).size)


def geometry_setup(cfg: ExperimentConfig):
    grid = unit_box_grid(cfg.level, cfg.dimension)
    ls = make_levelset(cfg)
    cls = classify_cells(grid, ls)
    return grid, ls, cls, functools.partial(face_is_active, cls)


def run_solve_pipeline(cfg: ExperimentConfig, runtime=None) -> SolveOutputs:
    """classify -> aggregate -> constraints -> assemble -> solve -> norms.

    Both spaces run one sequence for every process count, on ``procs``
    subdomains of ``runtime``: partition, DOF numbering, distributed
    assembly, PCG and norms, a serial run being the one-subdomain case.
    The aggregated space numbers the nodes of interior cells and adds
    aggregation, path plans, root-data import and constraints; the
    standard space numbers every node and has no constraints.  Elements
    take their Nitsche penalty from their own bulk stiffness."""
    timer = PhaseTimer()
    with timer.time("classify"):
        grid, ls, cls, _ = geometry_setup(cfg)
    with timer.time("quadrature"):
        quad = cut_quadrature(grid, ls, cls)
    if runtime is None:
        runtime = VirtualRuntime(cfg.procs, trace=bool(cfg.trace))
    agg = cfg.space == "agg"
    dist_map = root_map = agg_stats = None
    with timer.time("partition"):
        part = partition_weighted_sfc(cls, n_subdomains=cfg.procs)
        meshes = build_subdomain_meshes(cls, part)
    if agg:
        with timer.time("aggregate"):
            dist_map = aggregate_parallel(runtime, meshes)
            root_map = gather_root_map(meshes, dist_map)
            agg_stats = aggregates(cls, root_map)
        with timer.time("plans"):
            direct = [build_direct_plan(m, dist_map) for m in meshes]
            inverse = build_inverse_plan(runtime, meshes, dist_map)
    with timer.time("numbering"):
        numbering = number_dofs_distributed(runtime, meshes,
                                            interior_only=agg)
    constraints = [None] * cfg.procs
    if agg:
        with timer.time("import"):
            buffers = import_root_data(runtime, numbering, direct, inverse)
        with timer.time("constraints"):
            constraints = [build_constraints_distributed(p, dist_map, bf)
                           for p, bf in zip(numbering.pieces, buffers)]
    h = float(np.min(grid.h))
    penalty = ((lambda V: nitsche_tau_agg(h, cfg.beta)) if agg else
               functools.partial(nitsche_tau_std, cls, quad, cfg.beta))
    u, grad_u, f = manufactured_solution(cfg)
    with timer.time("assemble"):
        elements = poisson_elements(cls, quad, penalty, f, u)
        system = assemble_distributed(runtime, numbering, constraints,
                                      elements)
    with timer.time("solve"):
        x, report = pcg_jacobi(system, rtol=cfg.rtol, maxit=cfg.maxit,
                               runtime=runtime)
    with timer.time("norms"):
        nodal = nodal_values(numbering, constraints, x, cls.n_active)
        norms = error_norms(cls, quad, nodal, u, grad_u)
    return SolveOutputs(cfg=cfg, grid=grid, classification=cls,
                        quadrature=quad, system=system, solution=x,
                        report=report, norms=norms, timings=timer.timings,
                        maxrss_mb=timer.maxrss_mb,
                        runtime=runtime, meshes=meshes, numbering=numbering,
                        constraints=constraints, root_map=root_map,
                        aggregate_stats=agg_stats, dist_map=dist_map)


# ---------------------------------------------------------------------------
# records and CSV output


RECORD_FIELDS = [
    "schema_version", "command", "geometry", "dimension", "level", "space",
    "beta", "rtol", "maxit", "procs", "solution", "n_cells",
    "n_active", "n_cut", "n_interior_dofs", "agg_rounds", "max_aggregate",
    "assembly_checksum", "iterations", "converged", "stop_reason",
    "final_rel_residual", "kappa_est", "rel_l2", "rel_h1",
]


def make_run_record(cfg: ExperimentConfig, out: SolveOutputs,
                    command: str = "solve") -> dict:
    # the gathered A.data and b are the blocks' arrays in order
    data = np.concatenate([A.data for A in out.system.blocks])
    b = np.concatenate(out.system.rhs)
    checksum = float(np.sum(data**2) + np.sum(b**2))
    kappa = out.report.kappa   # Ritz kappa of the operator PCG saw, or None
    history = out.report.residual_history
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "command": command,
        "geometry": cfg.geometry,
        "dimension": cfg.dimension,
        "level": cfg.level,
        "space": cfg.space,
        "beta": repr(cfg.beta),
        "rtol": repr(cfg.rtol),
        "maxit": cfg.maxit,
        "procs": cfg.procs,
        "solution": cfg.solution,
        "n_cells": out.grid.n_cells,
        "n_active": out.classification.n_active,
        "n_cut": int(out.classification.cut_ids.size),
        "n_interior_dofs": out.n_interior_dofs,
        "agg_rounds": out.root_map.rounds if out.root_map is not None else "",
        "max_aggregate": (out.aggregate_stats.max_size
                          if out.aggregate_stats is not None else ""),
        "assembly_checksum": repr(checksum),
        "iterations": out.report.iterations,
        "converged": out.report.converged,
        "stop_reason": out.report.reason,
        "final_rel_residual": (repr(float(history[-1])) if history
                               else "nan"),
        "kappa_est": "nan" if kappa is None else repr(kappa),
        "rel_l2": repr(float(out.norms.l2)),
        "rel_h1": repr(float(out.norms.h1_semi)),
    }


def append_csv(path, fieldnames, rows):
    new = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        if new:
            writer.writeheader()
        writer.writerows(rows)


def write_timings(out_dir, command, cfg, timings, maxrss_mb):
    rows = [{"command": command, "geometry": cfg.geometry, "level": cfg.level,
             "procs": cfg.procs, "phase": k, "seconds": f"{v:.6f}",
             "maxrss_mb": f"{maxrss_mb[k]:.1f}"}
            for k, v in timings.items()]
    append_csv(os.path.join(out_dir, "timings.csv"),
               ["command", "geometry", "level", "procs", "phase", "seconds",
                "maxrss_mb"], rows)


def _write_dumps(cfg, out: SolveOutputs, out_dir):
    if "aggregates" in cfg.dump and out.root_map is not None:
        rm = out.root_map
        head = ["cell_id", "root_id", "next_id"]
        append_csv(os.path.join(out_dir, "aggregates.csv"), head,
                   _rows(head, np.arange(1, rm.n_cells + 1), rm.root, rm.next))
        if cfg.procs > 1:
            dm = out.dist_map
            head = ["subdomain", "local_id", "global_id", "root_id",
                    "root_owner", "next_id"]
            rows = []
            for mesh in out.meshes:
                n = mesh.n_relevant
                rows += _rows(head, np.full(n, mesh.s), np.arange(1, n + 1),
                              mesh.global_ids, dm.roots[mesh.s - 1],
                              dm.root_owners[mesh.s - 1], dm.nexts[mesh.s - 1])
            append_csv(os.path.join(out_dir, "aggregates_dist.csv"), head, rows)
            prows = [{"cell_id": k + 1, "owner": int(o)} for k, o in
                     enumerate(_owner_vector(out.meshes, out.classification))]
            append_csv(os.path.join(out_dir, "partition.csv"),
                       ["cell_id", "owner"], prows)
    if "constraints" in cfg.dump and cfg.space == "agg":
        d = out.grid.d
        keys, masters, bits = np.split(_constraint_table(out)[:, 1:],
                                       [d, d + 2 ** d], axis=1)
        rows = [{"node": ";".join(map(str, k)),
                 "masters": ";".join(map(str, ms)),
                 "coeffs": ";".join(map(repr, cs))}
                for k, ms, cs in zip(keys.tolist(), masters.tolist(),
                                     bits.view(np.float64).tolist())]
        append_csv(os.path.join(out_dir, "constraints.csv"),
                   ["node", "masters", "coeffs"], rows)
    if "matrix" in cfg.dump:
        export_matrix_coo(out.system.gather()[0],
                          os.path.join(out_dir, "matrix.txt"))
        rows = [{"iteration": i + 1, "relative_residual": repr(float(r))}
                for i, r in enumerate(out.report.residual_history)]
        append_csv(os.path.join(out_dir, "solve_report.csv"),
                   ["iteration", "relative_residual"], rows)


def _rows(head, *columns):
    """CSV rows of aligned integer columns."""
    return [dict(zip(head, r)) for r in np.column_stack(columns).tolist()]


def _owner_vector(meshes, cls):
    owner = np.zeros(cls.n_active, dtype=np.int64)
    for mesh in meshes:
        owner[mesh.global_ids[:mesh.n_local] - 1] = mesh.s
    return owner


def cmd_solve(cfg: ExperimentConfig) -> dict:
    """Full pipeline run; appends one row to runs.csv."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    outputs = run_solve_pipeline(cfg)
    with PhaseTimer(outputs.timings, outputs.maxrss_mb).time("record"):
        record = make_run_record(cfg, outputs)
    append_csv(os.path.join(out_dir, "runs.csv"), RECORD_FIELDS, [record])
    write_timings(out_dir, "solve", cfg, outputs.timings, outputs.maxrss_mb)
    _write_dumps(cfg, outputs, out_dir)
    if cfg.trace and outputs.runtime.trace:
        rows = [{"phase": t.phase, "superstep": t.superstep, "kind": t.kind,
                 "src": t.src, "dst": t.dst, "bytes": t.n_bytes}
                for t in outputs.runtime.trace]
        append_csv(os.path.join(out_dir, "trace.csv"),
                   ["phase", "superstep", "kind", "src", "dst", "bytes"], rows)
    return record


def _check_distinct(what, values):
    """ConfigError unless ``values``, a study list, is non-empty and holds
    no entry twice; each study command checks this before its first run."""
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"need distinct {what}, got {list(values)}")


# ---------------------------------------------------------------------------
# cut sweep


DEFAULT_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def run_cut_sweep(cfg: ExperimentConfig, offsets=DEFAULT_SWEEP):
    """Condition numbers of both spaces as a cut slides across a cell face.

    The half-plane boundary sits at ``offset + delta * h`` for each delta
    in ``offsets``, so the cut cells keep a volume fraction of delta.
    Every delta must be finite and positive.
    """
    if cfg.geometry not in ("halfplane", "circle"):
        raise ConfigError("cut sweep needs the halfplane or circle geometry")
    if not all(0.0 < delta < np.inf for delta in offsets):
        raise ConfigError(f"cut offsets must be finite and positive, got "
                          f"{list(offsets)}")
    _check_distinct("offsets", offsets)
    h = 0.5**cfg.level
    rows = []
    for delta in offsets:
        results = {}
        for space_kind in ("agg", "std"):
            sub = replace(cfg, space=space_kind,
                          offset=cfg.offset + delta * h,
                          radius=cfg.radius + delta * h)
            out = run_solve_pipeline(sub)
            if out.system.n_global > DENSE_LIMIT:
                raise ConfigError(
                    f"cut sweep at level {cfg.level}: {out.system.n_global} "
                    f"{space_kind} rows exceed the dense limit {DENSE_LIMIT}")
            try:
                kappa = condition_estimate(out.system)
            except NotPositiveDefiniteError:
                # not SPD in floating point: no condition number to report
                kappa = float("nan")
            results[space_kind] = (kappa, out.report)
        rows.append({
            "delta": repr(float(delta)),
            "kappa_agg": repr(results["agg"][0]),
            "kappa_std": repr(results["std"][0]),
            "iters_agg": results["agg"][1].iterations,
            "iters_std": results["std"][1].iterations,
            "converged_std": results["std"][1].converged,
        })
    return rows


def cmd_cut_sweep(cfg: ExperimentConfig, offsets=DEFAULT_SWEEP):
    rows = run_cut_sweep(cfg, offsets)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "cut_sweep.csv")
    append_csv(path, ["delta", "kappa_agg", "kappa_std", "iters_agg",
                      "iters_std", "converged_std"], rows)
    deltas = [float(r["delta"]) for r in rows]
    svg.line_chart(
        os.path.join(cfg.out, "cut_sweep.svg"),
        [("agg", deltas, [float(r["kappa_agg"]) for r in rows]),
         ("std", deltas, [float(r["kappa_std"]) for r in rows])],
        xlabel="cut offset (fraction of h)", ylabel="condition number",
        logx=True, logy=True, title="conditioning vs cut offset")
    return rows


# ---------------------------------------------------------------------------
# parallel check


def _constraint_table(out: SolveOutputs) -> np.ndarray:
    """The constraints of every subdomain in global terms: int64 rows of
    (node code, node lattice key, masters, coefficient bits), sorted and
    without repeats.  Subdomains that agree on a shared node give it one
    row, so the table is the same at every P; two that disagree give it
    two.  Empty for the standard space."""
    d = out.grid.d
    parts = [np.empty((0, 1 + d + 2 * 2 ** d), dtype=np.int64)]
    for piece, cons in zip(out.numbering.pieces, out.constraints):
        if cons is not None:
            j = cons.constrained - 1
            parts.append(np.column_stack([
                piece.node_codes[j], piece.node_keys[j], cons.masters,
                cons.coeffs.view(np.int64)]))
    return np.unique(np.concatenate(parts), axis=0)


def _lone_row(want, got, P, d) -> str:
    """The node lattice key of the first row that only one of two
    constraint tables has; empty for arrays that are not such tables."""
    if want.ndim != 2 or got.shape[1:] != want.shape[1:]:
        return ""
    rows, first, counts = np.unique(np.concatenate([want, got]), axis=0,
                                    return_index=True, return_counts=True)
    i = np.flatnonzero(counts == 1)[0]
    side = "serially" if first[i] < len(want) else f"at P={P}"
    return f"; node {tuple(rows[i, 1:1 + d].tolist())} has a row only {side}"


def run_parallel_check(cfg: ExperimentConfig, procs_list,
                       runtime_factory=None) -> dict:
    """Assert that runs of ``cfg.space`` on every P in ``procs_list`` equal
    the P = 1 run bitwise, as they stand, since global ids do not depend
    on P: the root map, the constraint table, the gathered A and b,
    iterations, residual history, solution and error norms.  Raises
    EquivalenceError with the first difference; ConfigError, before any
    run, if some P is not a valid process count or no P > 1."""
    for P in procs_list:
        replace(cfg, procs=P).validate()
    if not any(P > 1 for P in procs_list):
        raise ConfigError(f"no P > 1 in {list(procs_list)} to compare")
    _check_distinct("process counts", procs_list)

    def gathered(out):
        A, b = out.system.gather()
        rm, none = out.root_map, np.empty(0, dtype=np.int64)
        return [
            ("aggregate roots", none if rm is None else rm.root),
            ("aggregate next cells", none if rm is None else rm.next),
            ("constraints by node code", _constraint_table(out)),
            ("global DOF counts", [out.numbering.n_global]),
            ("assembled matrix row starts", A.indptr),
            ("assembled matrix columns", A.indices),
            ("assembled matrix values", A.data),
            ("assembled vectors", b),
            ("solver iterations", [out.report.iterations]),
            ("residual histories", out.report.residual_history),
            ("solutions", out.solution),
            ("error norms", astuple(out.norms))]

    reference = gathered(run_solve_pipeline(replace(cfg, procs=1)))
    for P in procs_list:
        if P == 1:
            continue
        out = run_solve_pipeline(
            replace(cfg, procs=P),
            runtime=runtime_factory(P) if runtime_factory else None)
        for (what, want), (_, got) in zip(reference, gathered(out)):
            want = np.asarray(want)
            got = np.asarray(got, dtype=want.dtype)
            if got.shape != want.shape:
                raise EquivalenceError(
                    f"P={P}: {what} differ in shape: {want.shape} "
                    f"serially, {got.shape}"
                    + _lone_row(want, got, P, cfg.dimension))
            bad = np.flatnonzero(want.ravel().view(np.uint8)
                                 != got.ravel().view(np.uint8))
            if bad.size:
                k = np.unravel_index(bad[0] // want.itemsize, want.shape)[0]
                raise EquivalenceError(
                    f"P={P}: {what} differ at entry {k + 1}: {want[k]} "
                    f"serially, {got[k]}")
    return {"procs": list(procs_list)}


def cmd_parallel_check(cfg: ExperimentConfig, procs_list) -> dict:
    result = run_parallel_check(cfg, procs_list)
    os.makedirs(cfg.out, exist_ok=True)
    rows = [{"geometry": cfg.geometry, "level": cfg.level, "space": cfg.space,
             "procs": ",".join(str(p) for p in result["procs"]),
             "status": "pass"}]
    append_csv(os.path.join(cfg.out, "parallel_check.csv"),
               ["geometry", "level", "space", "procs", "status"], rows)
    return result


# ---------------------------------------------------------------------------
# convergence study


def fit_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 2 or np.any(errs <= 0):
        return None
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def run_convergence(cfg: ExperimentConfig, levels):
    _check_distinct("levels", levels)
    ls = make_levelset(cfg)
    for level in levels:
        replace(cfg, level=level).validate()
        # box faces keep the natural zero-flux condition, which the sine
        # and linear solutions break wherever a face vertex is inside
        grid = unit_box_grid(level, cfg.dimension)
        n, d = grid.n_per_axis, grid.d
        face = np.indices((n + 1,) * (d - 1)).reshape(d - 1, -1).T
        if any(np.any(ls(np.insert(face, a, end, axis=1) * grid.h)
                      < -default_tolerance(grid))
               for a in range(d) for end in (0, n)):
            raise ConfigError(
                f"the {cfg.geometry} domain reaches the faces of the unit "
                f"box at level {level}: its norms would not be errors")
    rows = []
    for level in levels:
        out = run_solve_pipeline(replace(cfg, level=level))
        rows.append({
            "level": level,
            "h": repr(float(np.min(out.grid.h))),
            "n_interior_dofs": out.n_interior_dofs,
            "iterations": out.report.iterations,
            "rel_l2": repr(float(out.norms.l2)),
            "rel_h1": repr(float(out.norms.h1_semi)),
        })
    hs = [float(r["h"]) for r in rows]
    l2s = [float(r["rel_l2"]) for r in rows]
    h1s = [float(r["rel_h1"]) for r in rows]
    floored = cfg.solution == "linear"
    orders = {
        "l2_order": "" if floored or len(rows) < 2 else repr(fit_order(hs, l2s)),
        "h1_order": "" if floored or len(rows) < 2 else repr(fit_order(hs, h1s)),
        "solver_floor": floored,
    }
    return rows, orders


def cmd_convergence(cfg: ExperimentConfig, levels):
    rows, orders = run_convergence(cfg, levels)
    os.makedirs(cfg.out, exist_ok=True)
    for row in rows:
        row.update(orders)
    fieldnames = ["level", "h", "n_interior_dofs", "iterations", "rel_l2",
                  "rel_h1", "l2_order", "h1_order", "solver_floor"]
    append_csv(os.path.join(cfg.out, "convergence.csv"), fieldnames, rows)
    hs = [float(r["h"]) for r in rows]
    svg.line_chart(
        os.path.join(cfg.out, "convergence.svg"),
        [("rel L2", hs, [float(r["rel_l2"]) for r in rows]),
         ("rel H1-semi", hs, [float(r["rel_h1"]) for r in rows])],
        xlabel="h", ylabel="relative error", logx=True, logy=True,
        title="error vs cell size")
    return rows, orders


# ---------------------------------------------------------------------------
# weight study


def run_weight_study(cfg: ExperimentConfig, weights):
    if cfg.procs < 2:
        raise ConfigError("the weight study needs procs >= 2")
    _check_distinct("weights", weights)
    grid, ls, cls, _ = geometry_setup(cfg)
    rows = []
    for w in weights:
        part = partition_weighted_sfc(
            cls, weights=np.full(cls.n_active, float(w)),
            n_subdomains=cfg.procs, include_exterior=True)
        active_counts = np.bincount(part.owner_of_active,
                                    minlength=cfg.procs + 1)[1:]
        total_counts = np.bincount(part.owner_of_background,
                                   minlength=cfg.procs + 1)[1:]
        rows.append({
            "weight": repr(float(w)),
            "max_active": int(active_counts.max()),
            "min_active": int(active_counts.min()),
            "max_total": int(total_counts.max()),
            "min_total": int(total_counts.min()),
        })
    return rows


def cmd_weight_study(cfg: ExperimentConfig, weights):
    rows = run_weight_study(cfg, weights)
    os.makedirs(cfg.out, exist_ok=True)
    append_csv(os.path.join(cfg.out, "weight_study.csv"),
               ["weight", "max_active", "min_active", "max_total", "min_total"],
               rows)
    ws = [float(r["weight"]) for r in rows]
    svg.line_chart(
        os.path.join(cfg.out, "weight_study.svg"),
        [("max active", ws, [r["max_active"] for r in rows]),
         ("min active", ws, [r["min_active"] for r in rows]),
         ("max total", ws, [r["max_total"] for r in rows])],
        xlabel="active-cell weight", ylabel="cells per subdomain", logx=True,
        title="partition balance vs weight")
    return rows
