"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured runtimes.
"""

import time

import numpy as np
import pytest

from agfem.aggregation import (aggregate_parallel, aggregate_serial,
                               aggregates, gather_root_map)
from agfem.assembly import assemble_serial, nitsche_tau_agg, poisson_elements
from agfem.distagg import (build_direct_plan, build_inverse_plan,
                           import_root_data)
from agfem.distspace import (build_constraints_distributed,
                             number_dofs_distributed)
from agfem.experiments import (ExperimentConfig, cmd_solve, make_run_record,
                               run_convergence, run_cut_sweep,
                               run_solve_pipeline)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs)
from agfem.geometry import classify_cells, cut_quadrature
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime
from agfem.assembly import assemble_distributed

from conftest import (CallableLevelSet, bfs_aggregation_oracle,
                      check_plan_duality, classified, full_bulk_rule,
                      prolongate, random_geometry, root_next_pairs, to_scipy)

GEOMETRIES = {
    "halfplane": lambda: HalfPlane((1.0, 0.0), 0.6180339887),
    "circle": lambda: Sphere((0.5, 0.5), 0.3),
    "offset-circle": lambda: Sphere((0.531, 0.472), 0.3),
}
LEVELS = (4, 5, 6)
PROCS = (1, 2, 4, 8, 16)


def _report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def equivalence_data():
    """Serial and parallel pipelines for every (geometry, level, P).

    Stores only summary values so criteria 1, 2, 7, and 8 can share one
    sweep; wall time is split between the aggregation stage and the
    system stage.
    """
    rows = []
    agg_seconds = 0.0
    sys_seconds = 0.0
    for geom_name, make_ls in GEOMETRIES.items():
        for level in LEVELS:
            t0 = time.perf_counter()
            grid = unit_box_grid(level, 2)
            ls = make_ls()
            cls = classify_cells(grid, ls)
            serial = aggregate_serial(cls)
            stats = aggregates(cls, serial)
            agg_seconds += time.perf_counter() - t0

            t0 = time.perf_counter()
            space = build_std_space(cls)
            dofs = classify_dofs(space, cls)
            cons = build_constraints_serial(space, dofs, serial)
            quad = cut_quadrature(grid, ls, cls)
            taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), 10.0))
            u = lambda p: p[:, 0] + p[:, 1]
            elements = poisson_elements(cls, quad, lambda V: taus, None, u)
            A_s, b_s = assemble_serial(space, dofs, cons, elements)
            sys_seconds += time.perf_counter() - t0

            for n_parts in PROCS:
                t0 = time.perf_counter()
                part = partition_weighted_sfc(cls, n_subdomains=n_parts)
                meshes = build_subdomain_meshes(cls, part)
                rt = VirtualRuntime(n_parts, trace=True)
                dist = aggregate_parallel(rt, meshes)
                gathered = gather_root_map(meshes, dist).root
                mismatch = np.flatnonzero(gathered != serial.root)[:1]
                direct = [build_direct_plan(m, dist) for m in meshes]
                inverse = build_inverse_plan(rt, meshes, dist)
                rcv, snd = check_plan_duality(direct, inverse)
                agg_seconds += time.perf_counter() - t0

                t0 = time.perf_counter()
                numbering = number_dofs_distributed(rt, meshes)
                buffers = import_root_data(rt, numbering, direct, inverse)
                dcons = [build_constraints_distributed(p, dist, bf)
                         for p, bf in zip(numbering.pieces, buffers)]
                system = assemble_distributed(rt, numbering, dcons, elements)
                # global ids are the serial rows at every P
                A_d, b_d = system.gather()
                diff = to_scipy(A_d) - to_scipy(A_s)
                a_dev = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
                b_dev = float(np.max(np.abs(b_d - b_s)))
                bitwise = (np.array_equal(A_d.indptr, A_s.indptr)
                           and np.array_equal(A_d.indices, A_s.indices)
                           and A_d.data.tobytes() == A_s.data.tobytes()
                           and b_d.tobytes() == b_s.tobytes())
                sys_seconds += time.perf_counter() - t0

                nbr = [set(int(x) for x in m.neighbors) for m in meshes]
                discipline = all(
                    rec.dst in nbr[rec.src - 1] and rec.kind == "neighbor"
                    for rec in rt.trace
                    if rec.phase in ("aggregate", "inverse-plan", "numbering"))
                rows.append({
                    "geometry": geom_name, "level": level, "procs": n_parts,
                    "agg_match": mismatch.size == 0, "mismatch": mismatch + 1,
                    "duality": rcv == snd, "rounds": dist.rounds,
                    "a_dev": a_dev, "b_dev": b_dev, "bitwise": bitwise,
                    "discipline": discipline,
                    "max_aggregate": stats.max_size,
                })
    return {"rows": rows, "agg_seconds": agg_seconds,
            "sys_seconds": sys_seconds}


def test_criterion_1_parallel_aggregation_equivalence(equivalence_data):
    rows = equivalence_data["rows"]
    bad = [r for r in rows if not r["agg_match"]]
    elapsed = equivalence_data["agg_seconds"]
    _report(1, not bad and elapsed <= 60.0,
            f"serial/parallel aggregation identical on {len(rows)} "
            f"configurations ({elapsed:.1f}s, limit 60s)"
            + (f"; first mismatch {bad[0]['mismatch']}" if bad else ""))


def test_criterion_2_distributed_system_equality(equivalence_data):
    rows = equivalence_data["rows"]
    worst_a = max(r["a_dev"] for r in rows)
    worst_b = max(r["b_dev"] for r in rows)
    bitwise = sum(r["bitwise"] for r in rows)
    elapsed = equivalence_data["sys_seconds"]
    _report(2, worst_a <= 1e-12 and worst_b <= 1e-12
            and bitwise == len(rows) and elapsed <= 120.0,
            f"gathered systems match serial entrywise: max |dA| = {worst_a:.2e}, "
            f"max |db| = {worst_b:.2e} (tolerance 1e-12), bitwise equal in "
            f"{bitwise}/{len(rows)} configurations ({elapsed:.1f}s, limit 120s)")


def test_criterion_3_conditioning_robustness():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(geometry="halfplane", level=4, offset=0.5).validate()
    deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    rows = run_cut_sweep(cfg, deltas)
    kappas_agg = [float(r["kappa_agg"]) for r in rows]
    kappas_std = [float(r["kappa_std"]) for r in rows]
    ratio_agg = max(kappas_agg) / min(kappas_agg)
    worst = int(np.argmax(kappas_std))
    separation = kappas_std[worst] / kappas_agg[worst]
    elapsed = time.perf_counter() - t0
    _report(3, ratio_agg <= 10.0 and separation >= 1e3 and elapsed <= 120.0,
            f"kappa(agg) max/min = {ratio_agg:.2f} (limit 10); "
            f"kappa(std)/kappa(agg) at worst cut = {separation:.2e} "
            f"(needs >= 1e3) ({elapsed:.1f}s, limit 120s)")


def test_criterion_4_solver_tolerance_limited_accuracy():
    t0 = time.perf_counter()
    base = ExperimentConfig(geometry="circle", level=4, solution="linear")
    out6 = run_solve_pipeline(base.validate())
    cfg9 = ExperimentConfig(geometry="circle", level=4, solution="linear",
                            rtol=1e-9).validate()
    out9 = run_solve_pipeline(cfg9)
    elapsed = time.perf_counter() - t0
    ok = (out6.report.converged and out9.report.converged
          and out6.norms.l2 <= 10 * 1e-6
          and out9.norms.l2 <= out6.norms.l2 / 100.0)
    _report(4, ok and elapsed <= 60.0,
            f"rel L2 = {out6.norms.l2:.2e} at rtol 1e-6 (limit 1e-5), "
            f"{out9.norms.l2:.2e} at rtol 1e-9 "
            f"(reduction {out6.norms.l2 / out9.norms.l2:.0f}x, needs >= 100x) "
            f"({elapsed:.1f}s, limit 60s)")


def test_criterion_5_optimal_order_convergence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(geometry="circle", level=3, solution="sine",
                           rtol=1e-10, maxit=2000).validate()
    rows, orders = run_convergence(cfg, [3, 4, 5, 6])
    l2_order = float(orders["l2_order"])
    h1_order = float(orders["h1_order"])
    elapsed = time.perf_counter() - t0
    _report(5, l2_order >= 1.8 and h1_order >= 0.9 and elapsed <= 300.0,
            f"fitted orders L2 = {l2_order:.2f} (needs >= 1.8), "
            f"H1-semi = {h1_order:.2f} (needs >= 0.9) over levels 3-6 "
            f"({elapsed:.1f}s, limit 300s)")


def test_criterion_6_constraint_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    checked = 0
    worst = 0.0
    while checked < 100:
        level, ls = random_geometry(rng, max_level=4)
        grid, cls, fa = classified(level, ls)
        if cls.interior_ids.size == 0 or cls.cut_ids.size == 0:
            continue
        rm = aggregate_serial(cls)
        space = build_std_space(cls)
        dofs = classify_dofs(space, cls)
        cons = build_constraints_serial(space, dofs, rm)
        if cons.n_constrained:
            worst = max(worst, float(np.max(np.abs(
                cons.coeffs.sum(axis=1) - 1.0))))
        x, y = space.node_coords[:, 0], space.node_coords[:, 1]
        for poly in (x, y, x * y):
            full = prolongate(dofs, cons, poly[dofs.interior_ids - 1])
            worst = max(worst, float(np.max(np.abs(full - poly))))
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(6, worst <= 1e-12 and elapsed <= 30.0,
            f"sum(C) = 1 and x, y, xy reproduced over {checked} random cut "
            f"configurations, worst deviation {worst:.2e} (tolerance 1e-12) "
            f"({elapsed:.1f}s, limit 30s)")


def test_criterion_7_aggregate_well_formedness(equivalence_data):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        level, ls = random_geometry(rng, max_level=5)
        grid, cls, fa = classified(level, ls)
        if cls.interior_ids.size == 0:
            continue
        rm = aggregate_serial(cls)
        aggregates(cls, rm)  # raises on any structural violation
        oracle = bfs_aggregation_oracle(cls, fa)
        assert root_next_pairs(rm) == oracle
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(7, elapsed <= 60.0,
            f"one interior root and valid face paths per aggregate; BFS "
            f"oracle agreement on {checked} random instances "
            f"({elapsed:.1f}s, limit 60s)")


def test_criterion_8_plan_duality_and_traffic(equivalence_data):
    t0 = time.perf_counter()
    rows = equivalence_data["rows"]
    duality_ok = all(r["duality"] for r in rows)
    discipline_ok = all(r["discipline"] for r in rows)
    rounds_ok = all(r["rounds"] <= r["procs"] + 2 for r in rows)

    # a bulb with a long whisker forces imports between non-neighbors
    def bulb(p):
        p = np.atleast_2d(p)
        strip = np.abs(p[:, 1] - 0.5) - 0.03
        strip = np.maximum(strip, 0.08 - p[:, 0])
        disk = np.linalg.norm(p - np.array([0.15, 0.5]), axis=-1) - 0.12
        return np.minimum(strip, disk)

    grid, cls, fa = classified(5, CallableLevelSet(bulb, "bulb"))
    serial = aggregate_serial(cls)
    part = partition_weighted_sfc(cls, n_subdomains=16)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(16, trace=True)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    rcv, snd = check_plan_duality(direct, inverse)
    numbering = number_dofs_distributed(rt, meshes)
    import_root_data(rt, numbering, direct, inverse)
    nbr = [set(int(x) for x in m.neighbors) for m in meshes]
    bulb_ok = (np.array_equal(gather_root_map(meshes, dist).root, serial.root)
               and rcv == snd)
    bulb_discipline = all(
        rec.kind == "neighbor" and rec.dst in nbr[rec.src - 1]
        for rec in rt.trace if rec.phase in ("aggregate", "inverse-plan"))
    routed_beyond = sum(1 for rec in rt.trace if rec.phase == "import"
                        and rec.dst not in nbr[rec.src - 1])
    elapsed = time.perf_counter() - t0
    _report(8, duality_ok and discipline_ok and rounds_ok and bulb_ok
            and bulb_discipline and routed_beyond > 0 and elapsed <= 60.0,
            f"send/receive duality exact on {len(rows)} configurations; "
            f"aggregation and inverse-path traffic nearest-neighbor only; "
            f"data import routed {routed_beyond} messages beyond neighbors "
            f"({elapsed:.1f}s, limit 60s)")


def test_criterion_9_cut_geometry_quadrature():
    t0 = time.perf_counter()
    grid = unit_box_grid(3, 2)
    worst = 0.0
    for offset in (0.3, 0.5, 0.7251):
        ls = HalfPlane((1.0, 0.0), offset)
        cls = classify_cells(grid, ls)
        q = full_bulk_rule(cls, cut_quadrature(grid, ls, cls))
        area, boundary = q.weights.sum(), q.boundary_weights.sum()
        worst = max(worst, abs(area - offset), abs(boundary - 1.0))
    ls = Sphere((0.5, 0.5), 0.3)
    errs = []
    for level in (4, 5, 6, 7):
        g = unit_box_grid(level, 2)
        cls = classify_cells(g, ls)
        q = full_bulk_rule(cls, cut_quadrature(g, ls, cls))
        area, perim = q.weights.sum(), q.boundary_weights.sum()
        errs.append((abs(area - np.pi * 0.09), abs(perim - 2 * np.pi * 0.3)))
    rates = [min(np.log2(errs[i][j] / errs[i + 1][j]) for j in (0, 1))
             for i in range(3)]
    elapsed = time.perf_counter() - t0
    _report(9, worst <= 1e-12 and min(rates) >= 1.0 and elapsed <= 30.0,
            f"half-plane measures exact to {worst:.2e} (tolerance 1e-12); "
            f"circle area/perimeter convergence rates {[f'{r:.2f}' for r in rates]} "
            f"(needs >= 1.0) ({elapsed:.1f}s, limit 30s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = [
        dict(geometry="circle", level=4, procs=4),
        dict(geometry="offset-circle", level=5, procs=8),
        dict(geometry="halfplane", offset=0.6180339887, level=4, procs=2),
        dict(geometry="circle", level=4, solution="sine", rtol=1e-8),
    ]
    identical = True
    for i, params in enumerate(configs):
        rows = []
        for repeat in range(2):
            out = tmp_path / f"cfg{i}_{repeat}"
            cfg = ExperimentConfig(out=str(out), **params).validate()
            record = cmd_solve(cfg)
            rows.append((out / "runs.csv").read_bytes())
        # every superstep steps the ranks last to first
        reordered = run_solve_pipeline(cfg, runtime=VirtualRuntime(
            cfg.procs, step_order=reversed(range(cfg.procs))))
        identical &= (rows[0] == rows[1]
                      and make_run_record(cfg, reordered) == record)
    elapsed = time.perf_counter() - t0
    _report(10, identical and elapsed <= 300.0,
            f"repeated runs and reversed rank step orders produced "
            f"byte-identical result rows for {len(configs)} configurations "
            f"({elapsed:.1f}s)")
