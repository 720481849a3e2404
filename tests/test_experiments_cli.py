import csv
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from agfem.aggregation import aggregate_serial
from agfem.assembly import (assemble_serial, nitsche_tau_agg, nitsche_tau_std,
                            poisson_elements)
from agfem.experiments import (RECORD_FIELDS, RECORD_SCHEMA_VERSION,
                               ConfigError, EquivalenceError, ExperimentConfig,
                               cmd_convergence, cmd_parallel_check, cmd_solve,
                               fit_order, load_config, make_run_record,
                               manufactured_solution, run_cut_sweep,
                               run_parallel_check, run_solve_pipeline,
                               run_weight_study)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs)
from agfem.runtime import VirtualRuntime


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "agfem.cli", *args],
                          capture_output=True, text=True)


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# study setup\n"
        "geometry = circle\n"
        "level = 3\n"
        "beta = 100.0   # stiff penalty\n"
        "dump = aggregates, matrix\n")
    cfg = load_config(str(path), {"level": 5})
    assert cfg.geometry == "circle"
    assert cfg.level == 5
    assert cfg.beta == 100.0
    assert cfg.dump == ("aggregates", "matrix")
    # the command line's string options are parsed once, by load_config;
    # unset options leave the file's values
    from agfem.cli import _build_config

    path.write_text("trace = 1\nlevel = 3\n")
    cfg = _build_config(str(path), dump="matrix", beta=None, trace=False)
    assert (cfg.trace, cfg.level, cfg.dump) == (1, 3, ("matrix",))
    assert cfg.beta == 10.0
    assert _build_config(None, trace=True).trace == 1
    assert _build_config(None, trace=False).trace == 0


def test_unknown_config_key_rejected(tmp_path):
    # weight and seed were keys of schema 1 that nothing read; the
    # quadrature order is a constant of the Q1 pipeline
    path = tmp_path / "run.cfg"
    for line in ("mesh_size = 4", "weight = 10.0", "seed = 0",
                 "quad_order = 4"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(geometry="torus").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(beta=-1.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(procs=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(dump=("everything",)).validate()


def test_cmd_solve_writes_record_and_dumps(tmp_path):
    cfg = ExperimentConfig(level=3, out=str(tmp_path),
                           dump=("aggregates", "constraints", "matrix"))
    record = cmd_solve(cfg.validate())
    assert record["converged"] is True
    with open(tmp_path / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["n_interior_dofs"] == str(record["n_interior_dofs"])
    for name in ("aggregates.csv", "constraints.csv", "matrix.txt",
                 "solve_report.csv", "timings.csv"):
        assert (tmp_path / name).exists(), name
    with open(tmp_path / "timings.csv") as fh:
        phases = [row["phase"] for row in csv.DictReader(fh)]
    # the Nitsche penalty is part of the element pass, timed in `assemble`
    assert phases == ["classify", "quadrature", "partition", "aggregate",
                      "plans", "numbering", "import", "constraints",
                      "assemble", "solve", "norms", "record"]


def test_runs_csv_header_is_the_record_schema(tmp_path):
    record = cmd_solve(ExperimentConfig(level=3, out=str(tmp_path)).validate())
    with open(tmp_path / "runs.csv") as fh:
        header = next(csv.reader(fh))
    assert header == RECORD_FIELDS == list(record)
    assert not {"weight", "seed", "threads"} & set(header)
    assert record["schema_version"] == RECORD_SCHEMA_VERSION == 4


def test_runs_csv_records_how_the_solver_ended(tmp_path):
    cfg = ExperimentConfig(level=4, maxit=3, out=str(tmp_path)).validate()
    record = cmd_solve(cfg)
    with open(tmp_path / "runs.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["stop_reason"] == record["stop_reason"] == "maxit"
    assert row["converged"] == "False" and record["iterations"] == 3
    assert float(row["final_rel_residual"]) > cfg.rtol
    out = run_solve_pipeline(cfg)
    out.report = replace(out.report, residual_history=[])
    assert make_run_record(cfg, out)["final_rel_residual"] == "nan"


def test_solve_runs_one_cg_and_records_its_ritz_kappa(monkeypatch, tmp_path):
    import agfem.experiments as ex

    phases = []
    run = VirtualRuntime.run

    def recording(self, body, args=None, phase="", *rest, **kwargs):
        phases.append(phase)
        return run(self, body, args, phase, *rest, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve run called condition_estimate")

    monkeypatch.setattr(VirtualRuntime, "run", recording)
    monkeypatch.setattr(ex, "condition_estimate", refuse)
    for procs in (1, 4):
        phases.clear()
        cfg = ExperimentConfig(level=4, procs=procs,
                               out=str(tmp_path / str(procs))).validate()
        cmd_solve(cfg)
        assert phases.count("solve") == 1
    out = run_solve_pipeline(cfg)
    assert out.report.kappa is not None
    assert make_run_record(cfg, out)["kappa_est"] == repr(out.report.kappa)
    out.report = replace(out.report, kappa=None)
    assert make_run_record(cfg, out)["kappa_est"] == "nan"


def test_std_penalty_is_one_batched_call_without_dense_eigh(monkeypatch,
                                                            tmp_path):
    import scipy.linalg

    import agfem.experiments as ex

    calls = []
    batched = ex.nitsche_tau_std

    def counting(cls, quad, beta, V):
        # called by the element pass with its bulk stiffness of every cell
        m = 2 ** cls.grid.d
        calls.append(V.shape == (cls.n_active, m, m))
        return batched(cls, quad, beta, V)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve run called scipy.linalg.eigh")

    monkeypatch.setattr(ex, "nitsche_tau_std", counting)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    record = cmd_solve(ExperimentConfig(geometry="offset-circle", level=5,
                                        space="std",
                                        out=str(tmp_path)).validate())
    assert record["converged"] is True and calls == [True]


@pytest.mark.parametrize("space", ["agg", "std"])
def test_a_solve_walks_the_cut_cells_bulk_rows_twice(monkeypatch, space):
    # once for the elements, whose bulk stiffness also gives the std
    # penalty its volume forms, and once for the error norms; the store
    # holds the cut cells' rows only
    import agfem.assembly as assembly
    import agfem.solve as solve

    walks = []
    rows = assembly.bulk_rows

    def counting(cls, quad):
        walks.append(np.unique(quad.bulk_cells()))
        return rows(cls, quad)

    monkeypatch.setattr(assembly, "bulk_rows", counting)
    monkeypatch.setattr(solve, "bulk_rows", counting)
    out = run_solve_pipeline(ExperimentConfig(
        geometry="popcorn", dimension=3, level=3, space=space).validate())
    cut = out.classification.cut_ids
    assert len(walks) == 2
    assert all(np.array_equal(cells, cut) for cells in walks)


@pytest.mark.parametrize("d", [2, 3])
def test_sine_gradient_keeps_its_factor_order(d):
    # one sin and one cos per axis, multiplied in the order of the
    # per-component formula, so the norms stay bitwise the same
    _, grad, _ = manufactured_solution(ExperimentConfig(dimension=d,
                                                        solution="sine"))
    p = np.random.default_rng(d).random((50, d))
    want = np.empty_like(p)
    for c in range(d):
        comp = np.full(p.shape[0], np.pi)
        for a in range(d):
            comp = comp * (np.cos(np.pi * p[:, a]) if a == c
                           else np.sin(np.pi * p[:, a]))
        want[:, c] = comp
    assert grad(p).tobytes() == want.tobytes()


def test_distributed_dumps_name_the_matrix_rows(tmp_path):
    cfg = ExperimentConfig(level=4, procs=2, out=str(tmp_path),
                           dump=("constraints", "matrix"))
    cmd_solve(cfg.validate())
    assert not (tmp_path / "constraints.csv").exists()
    entries = {tuple(int(v) for v in line.split()[:2])
               for line in (tmp_path / "matrix.txt").read_text().splitlines()}
    rows = {r for r, _ in entries}
    with open(tmp_path / "constraints_dist.csv") as fh:
        cons = list(csv.DictReader(fh))
    assert cons and {r["subdomain"] for r in cons} == {"1", "2"}
    for r in cons:
        masters = [int(m) for m in r["masters"].split(";")]
        assert set(masters) <= rows
        # the masters are the DOFs of one root cell, so the matrix
        # couples every pair of them
        assert {(a, b) for a in masters for b in masters} <= entries
        coeffs = [float(c) for c in r["coeffs"].split(";")]
        assert sum(coeffs) == pytest.approx(1.0, rel=0, abs=1e-13)


@pytest.mark.parametrize("params", [
    dict(geometry="circle", level=5),
    dict(geometry="popcorn", dimension=3, level=3),
], ids=["circle-L5", "popcorn-L3"])
def test_one_subdomain_run_equals_the_serial_reference(params):
    # P = 1 runs the distributed space setup and assembly; its ids,
    # constraints and system are those of the serial builders, bitwise
    cfg = ExperimentConfig(procs=1, solution="sine", **params).validate()
    out = run_solve_pipeline(cfg)
    cls = out.classification
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    cons = build_constraints_serial(space, dofs, aggregate_serial(cls))
    u, _, f = manufactured_solution(cfg)
    tau = nitsche_tau_agg(float(np.min(cls.grid.h)), cfg.beta)
    A, b = assemble_serial(space, dofs, cons, poisson_elements(
        cls, out.quadrature, lambda V: tau, f, u))

    [piece], [dcons] = out.numbering.pieces, out.constraints
    assert np.array_equal(piece.cell_j, space.cell_dofs)
    assert np.array_equal(piece.gid_of(piece.node_codes),
                          np.where(dofs.row_of > 0, dofs.row_of, -1))
    assert np.array_equal(dcons.constrained, cons.constrained)
    assert np.array_equal(dcons.masters, cons.masters)
    assert dcons.coeffs.tobytes() == cons.coeffs.tobytes()
    A_d, b_d = out.system.gather()
    assert np.array_equal(A_d.indptr, A.indptr)
    assert np.array_equal(A_d.indices, A.indices)
    assert A_d.data.tobytes() == A.data.tobytes()
    assert b_d.tobytes() == b.tobytes()


def test_runs_csv_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    records = [cmd_solve(ExperimentConfig(level=3, procs=4,
                                          out=str(out)).validate())
               for out in (out1, out2)]
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    # the record does not depend on the order the ranks are stepped in
    cfg = ExperimentConfig(level=3, procs=4).validate()
    reordered = run_solve_pipeline(
        cfg, runtime=VirtualRuntime(4, step_order=reversed(range(4))))
    assert make_run_record(cfg, reordered) == records[0]


def test_parallel_check_detects_injected_fault():
    # the offset circle aggregates across subdomain boundaries, so a
    # corrupted ghost root changes some local aggregation decision
    cfg = ExperimentConfig(geometry="offset-circle", level=4).validate()

    def corrupt(phase, superstep, src, dst, payload):
        # reverse the ghost roots (first row) of every aggregation exchange
        if phase == "aggregate" and isinstance(payload, np.ndarray):
            payload = payload.copy()
            payload[0] = payload[0][::-1]
        return payload

    def factory(n_parts):
        return VirtualRuntime(n_parts, payload_filter=corrupt)

    with pytest.raises(EquivalenceError, match="differs at cell"):
        run_parallel_check(cfg, [4], runtime_factory=factory)


def test_parallel_check_detects_a_rounding_level_assembly_fault():
    # one exchanged assembly value off by a relative 1e-14 is within any
    # tolerance-based comparison; the systems must agree exactly
    for space in ("agg", "std"):
        cfg = ExperimentConfig(level=4, space=space).validate()
        nudged = []

        def nudge(phase, superstep, src, dst, payload):
            if phase == "assembly" and not nudged:
                key, cell, val = payload
                k = int(np.flatnonzero(val)[0])
                val = val.copy()
                val[k] *= 1.0 + 1e-14
                nudged.append((src, dst, k))
                payload = (key, cell, val)
            return payload

        def factory(n_parts):
            return VirtualRuntime(n_parts, payload_filter=nudge)

        with pytest.raises(EquivalenceError, match="assembled"):
            run_parallel_check(cfg, [4], runtime_factory=factory)
        assert nudged


def test_parallel_check_detects_a_relabelled_numbering(monkeypatch, tmp_path):
    # global ids must not depend on P: swapping two ids owned by the last
    # subdomain, consistently in every piece, gives a valid numbering
    # that is not the serial one, and the check must fail with exit 4
    from click.testing import CliRunner

    import agfem.experiments as ex
    from agfem import cli

    number = ex.number_dofs_distributed

    def relabelled(*args, **kwargs):
        numbering = number(*args, **kwargs)
        last = numbering.pieces[-1]
        if len(numbering.pieces) > 1 and last.n_owned >= 2:
            a, b = last.owned_start, last.owned_start + 1
            for piece in numbering.pieces:
                for ids in (piece.gids, piece.cell_g):
                    hit = (ids == a) | (ids == b)
                    ids[hit] = a + b - ids[hit]
        return numbering

    monkeypatch.setattr(ex, "number_dofs_distributed", relabelled)
    for space in ("agg", "std"):
        cfg = ExperimentConfig(geometry="offset-circle", level=4,
                               space=space).validate()
        with pytest.raises(EquivalenceError, match="P=4: .* differ"):
            run_parallel_check(cfg, [4])
    res = CliRunner().invoke(cli.main, [
        "parallel-check", "--level", "4", "--procs-list", "1,4",
        "--out", str(tmp_path)])
    assert res.exit_code == 4
    assert "equivalence check failed" in res.output


def test_parallel_check_passes_clean():
    for space in ("agg", "std"):
        cfg = ExperimentConfig(level=3, space=space).validate()
        result = run_parallel_check(cfg, [1, 2, 4])
        assert result["procs"] == [1, 2, 4]
        assert (result["constrained_dofs"] > 0) == (space == "agg")


@pytest.mark.parametrize("procs_list", [",", "1"])
def test_parallel_check_that_compares_nothing_is_a_config_error(procs_list,
                                                                tmp_path):
    res = _cli("parallel-check", "--level", "3", "--procs-list", procs_list,
               "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "no P > 1 in" in res.stderr
    assert "passed" not in res.stdout
    assert not (tmp_path / "parallel_check.csv").exists()


def test_parallel_check_checks_and_records_the_configured_space(monkeypatch,
                                                                tmp_path):
    import agfem.experiments as ex

    spaces = []
    pipeline = ex.run_solve_pipeline

    def recording(cfg, *args, **kwargs):
        spaces.append(cfg.space)
        return pipeline(cfg, *args, **kwargs)

    monkeypatch.setattr(ex, "run_solve_pipeline", recording)
    cfg = ExperimentConfig(space="std", level=3, out=str(tmp_path)).validate()
    cmd_parallel_check(cfg, [1, 2])
    assert spaces == ["std", "std"]
    with open(tmp_path / "parallel_check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"geometry": "circle", "level": "3", "space": "std",
                     "procs": "1,2", "status": "pass"}]


def test_distributed_run_builds_no_serial_system(monkeypatch):
    # every process count, the serial one included, runs the distributed
    # space setup and assembly for both spaces; the serial builders are
    # test references
    import agfem.experiments as ex
    from agfem.assembly import DistributedSystem

    def serial(name):
        def refuse(*args):
            raise AssertionError(f"a solve run called {name}")
        return refuse

    for name in ("aggregate_serial", "build_std_space", "classify_dofs",
                 "build_constraints_serial", "assemble_serial"):
        monkeypatch.setattr(ex, name, serial(name))
    monkeypatch.setattr(DistributedSystem, "one_block", serial("one_block"))
    for space, procs in [(s, p) for s in ("agg", "std") for p in (1, 4)]:
        out = ex.run_solve_pipeline(
            ExperimentConfig(level=3, procs=procs, space=space).validate())
        assert out.report.converged
        assert out.system.n_subdomains == len(out.numbering.pieces) == procs
        assert len(out.constraints) == procs


def _gathered_bytes(out):
    """The gathered (A, b) as bytes."""
    A, b = out.system.gather()
    return (A.shape, A.indptr.tobytes(), A.indices.tobytes(),
            A.data.tobytes(), b.tobytes())


@pytest.mark.parametrize("params, procs", [
    (dict(geometry="offset-circle", level=5), 2),
    (dict(geometry="offset-circle", level=5), 4),
    (dict(geometry="popcorn", dimension=3, level=3), 8),
], ids=["offset-circle-P2", "offset-circle-P4", "popcorn-P8"])
def test_std_space_gathers_bitwise_to_the_serial_system(params, procs):
    # the standard space numbers every node of the active cells and
    # assembles without constraints on any number of subdomains, with
    # the serial global ids
    cfg = ExperimentConfig(space="std", solution="sine", **params).validate()
    serial = run_solve_pipeline(cfg)
    out = run_solve_pipeline(replace(cfg, procs=procs))
    assert out.numbering.n_global == serial.numbering.n_global
    assert _gathered_bytes(out) == _gathered_bytes(serial)
    assert out.report.iterations == serial.report.iterations
    assert out.report.residual_history == serial.report.residual_history
    assert out.norms == serial.norms


@pytest.mark.parametrize("params", [
    dict(geometry="circle", level=5),
    dict(geometry="halfplane", level=4, offset=0.5 + 1e-8 * 0.5**4),
    dict(geometry="popcorn", dimension=3, level=3),
], ids=["circle-L5", "halfplane-delta-1e-8", "popcorn-L3"])
def test_std_one_subdomain_run_equals_the_serial_assembly(params):
    # on one subdomain the global ids are the node ids of the space, so
    # the system is the serial assembly over all DOFs, bitwise
    cfg = ExperimentConfig(space="std", solution="sine", **params).validate()
    out = run_solve_pipeline(cfg)
    [piece] = out.numbering.pieces
    space = build_std_space(out.classification)
    assert np.array_equal(piece.gid_of(piece.node_codes),
                          np.arange(1, space.n_dofs + 1))
    u, _, f = manufactured_solution(cfg)
    A, b = assemble_serial(space, None, None, poisson_elements(
        out.classification, out.quadrature,
        lambda V: nitsche_tau_std(out.classification, out.quadrature,
                                  cfg.beta, V), f, u))
    A_d, b_d = out.system.gather()
    assert np.array_equal(A_d.indptr, A.indptr)
    assert np.array_equal(A_d.indices, A.indices)
    assert A_d.data.tobytes() == A.data.tobytes()
    assert b_d.tobytes() == b.tobytes()


@pytest.mark.parametrize("procs", [1, 4])
def test_std_dumps_write_no_constraints_or_aggregates(tmp_path, procs):
    cfg = ExperimentConfig(space="std", level=4, procs=procs,
                           out=str(tmp_path),
                           dump=("aggregates", "constraints", "matrix"))
    record = cmd_solve(cfg.validate())
    assert record["agg_rounds"] == "" and record["max_aggregate"] == ""
    assert (tmp_path / "matrix.txt").exists()
    assert (tmp_path / "solve_report.csv").exists()
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {"runs.csv", "timings.csv", "matrix.txt",
                       "solve_report.csv"}


def test_parallel_check_passes_popcorn_at_eight_processes():
    # rounding differences in assembly summation once let CG histories
    # drift apart here
    cfg = ExperimentConfig(geometry="popcorn", dimension=3, level=3).validate()
    assert run_parallel_check(cfg, [8])["procs"] == [8]


def test_cut_sweep_benign_and_blowup(tmp_path):
    from agfem.experiments import cmd_cut_sweep

    cfg = ExperimentConfig(geometry="halfplane", level=4, offset=0.5,
                           out=str(tmp_path)).validate()
    rows = cmd_cut_sweep(cfg, (0.5, 1e-2, 1e-4, 1e-6))
    benign = rows[0]
    ratio = float(benign["kappa_std"]) / float(benign["kappa_agg"])
    assert 1e-2 <= ratio <= 1e2  # both spaces comparable at a benign cut
    stds = [float(r["kappa_std"]) for r in rows[1:]]
    assert all(stds[i] < stds[i + 1] for i in range(len(stds) - 1))
    aggs = [float(r["kappa_agg"]) for r in rows[1:]]
    assert max(aggs) / min(aggs) <= 10.0
    assert (tmp_path / "cut_sweep.csv").exists()
    assert (tmp_path / "cut_sweep.svg").exists()


def test_cut_sweep_writes_nan_for_an_indefinite_matrix(tmp_path):
    # at delta = 1e-8 the standard-space matrix has a negative eigenvalue
    # in floating point, which once came out as kappa_std = -1.7e16
    from agfem.experiments import cmd_cut_sweep

    cfg = ExperimentConfig(geometry="halfplane", level=5, offset=0.5,
                           out=str(tmp_path)).validate()
    [row] = cmd_cut_sweep(cfg, (1e-8,))
    assert row["kappa_std"] == "nan"
    assert float(row["kappa_agg"]) > 0
    assert (tmp_path / "cut_sweep.svg").exists()


def test_cut_sweep_on_two_processes_matches_one():
    # both spaces run distributed; the dense estimate reads the gathered
    # system in another row order, so kappa agrees to rounding only
    cfg = ExperimentConfig(geometry="halfplane", level=4, offset=0.5).validate()
    one = run_cut_sweep(cfg, (1e-2, 1e-6))
    two = run_cut_sweep(replace(cfg, procs=2), (1e-2, 1e-6))
    for a, b in zip(one, two):
        for key in ("delta", "iters_agg", "iters_std", "converged_std"):
            assert a[key] == b[key]
        for key in ("kappa_agg", "kappa_std"):
            assert float(b[key]) == pytest.approx(float(a[key]), rel=1e-10)


def test_cut_sweep_past_the_dense_limit_is_a_config_error(tmp_path):
    res = _cli("cut-sweep", "--geometry", "halfplane", "--level", "6",
               "--offsets", "1e-2", "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "level 6" in res.stderr


def test_fit_order_on_synthetic_data():
    hs = [0.1, 0.05, 0.025]
    errs = [h**2 for h in hs]
    assert fit_order(hs, errs) == pytest.approx(2.0, abs=1e-12)
    assert fit_order([0.1], [1e-3]) is None


def test_convergence_single_level_and_linear_flag(tmp_path):
    cfg = ExperimentConfig(level=3, solution="linear",
                           out=str(tmp_path)).validate()
    rows, orders = cmd_convergence(cfg, [3])
    assert len(rows) == 1
    assert orders["l2_order"] == "" and orders["solver_floor"] is True
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "convergence.svg").exists()


def test_weight_study_balance_and_saturation(tmp_path):
    cfg = ExperimentConfig(geometry="offset-circle", level=5, procs=4,
                           out=str(tmp_path)).validate()
    rows = run_weight_study(cfg, [1.0, 10.0, 100.0, 1000.0, 10000.0])
    # the README's example, w = 1, 10, 100
    assert [(r["max_active"], r["min_active"], r["max_total"], r["min_total"])
            for r in rows[:3]] == [(104, 64, 256, 256), (90, 78, 301, 194),
                                   (84, 82, 298, 158)]
    total_spread_1 = rows[0]["max_total"] - rows[0]["min_total"]
    assert total_spread_1 <= 1  # unweighted splits balance total cells
    active_1 = rows[0]["max_active"] - rows[0]["min_active"]
    active_10 = rows[1]["max_active"] - rows[1]["min_active"]
    active_1k = rows[3]["max_active"] - rows[3]["min_active"]
    active_10k = rows[4]["max_active"] - rows[4]["min_active"]
    assert active_10 < active_1        # weighting improves active balance
    assert active_10k >= active_1k - 1  # and saturates at large weights
    with pytest.raises(ConfigError, match="procs"):
        run_weight_study(ExperimentConfig(procs=1).validate(), [1.0])


def test_std_space_near_degenerate_cut_records_instead_of_crashing(tmp_path):
    # kept volume fraction 1e-8 of a cell: the record must carry a kappa
    # and/or a non-convergence flag, not an exception
    cfg = ExperimentConfig(geometry="halfplane", space="std", level=4,
                           offset=0.5 + 1e-8 * 0.5**4,
                           out=str(tmp_path)).validate()
    record = cmd_solve(cfg)
    assert record["converged"] in (True, False)
    assert record["kappa_est"]  # a number or nan, never empty


def test_cli_exit_codes(tmp_path):
    ok = _cli("solve", "--level", "3", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    assert "converged=True" in ok.stdout

    bad_cfg = _cli("solve", "--geometry", "torus")
    assert bad_cfg.returncode == 2
    assert "config error" in bad_cfg.stderr

    # a circle too small to contain any interior cell stalls aggregation
    numerical = _cli("solve", "--level", "2", "--geometry", "circle",
                     "--out", str(tmp_path / "num"))
    assert numerical.returncode == 3
    assert "numerical failure" in numerical.stderr

    # a partition request the mesh cannot meet is a configuration error
    for args in (("solve", "--level", "1", "--procs", "8"),
                 ("weight-study", "--level", "3", "--procs", "2",
                  "--weights", "0,1")):
        bad_part = _cli(*args, "--out", str(tmp_path / "part"))
        assert bad_part.returncode == 2, bad_part.stderr
        assert "config error" in bad_part.stderr

    # an order needs distinct levels: two copies of one h fit nothing
    for levels in ("3,3", ","):
        repeated = _cli("convergence", "--levels", levels, "--out",
                        str(tmp_path / "conv"))
        assert repeated.returncode == 2, repeated.stderr
        assert "need distinct levels" in repeated.stderr
    assert not (tmp_path / "conv" / "convergence.csv").exists()


@pytest.mark.parametrize("exc", [TypeError("bug"), ValueError("bug")],
                         ids=["TypeError", "ValueError"])
def test_cli_does_not_report_a_bug_as_a_numerical_failure(monkeypatch,
                                                          tmp_path, exc):
    # only the typed failures a valid config can reach exit 3; an error
    # raised by a programming bug inside the pipeline keeps its traceback
    from click.testing import CliRunner

    import agfem.experiments as ex
    from agfem import cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ex, "poisson_elements", broken)
    res = CliRunner().invoke(cli.main, ["solve", "--level", "3",
                                        "--out", str(tmp_path)])
    assert res.exit_code != 3
    assert res.exception is exc


def test_cli_repeated_runs_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        res = _cli("solve", "--level", "3", "--procs", "2", "--out", out)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "a" / "runs.csv").read_bytes() == \
        (tmp_path / "b" / "runs.csv").read_bytes()


def test_cli_weight_study_and_convergence_smoke(tmp_path):
    res = _cli("weight-study", "--geometry", "offset-circle", "--level", "4",
               "--procs", "4", "--weights", "1,10", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    res = _cli("convergence", "--levels", "3,4", "--rtol", "1e-8",
               "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "fitted orders" in res.stdout
    res = _cli("convergence", "--levels", "3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "no order fitted" in res.stdout and "fitted orders" not in res.stdout


@pytest.mark.parametrize("args", [
    ["parallel-check", "--level", "3", "--procs-list", "0,2"],
    ["convergence", "--levels", "0,3"],
    ["convergence", "--levels", "3,-1"],
    ["cut-sweep", "--level", "3", "--offsets", "1e-2,0"],
    ["cut-sweep", "--level", "3", "--offsets", "1e-2,nan"],
    ["weight-study", "--level", "3", "--procs", "2", "--weights", "nan"],
    ["weight-study", "--level", "3", "--procs", "2", "--weights", "1,inf"],
    ["cut-sweep", "--level", "3", "--offsets", ","],
    ["cut-sweep", "--level", "3", "--offsets", "1e-2,1e-2"],
    ["parallel-check", "--level", "3", "--procs-list", "2,2"],
    ["convergence", "--levels", ","],
    ["convergence", "--levels", "3,3"],
    ["weight-study", "--level", "3", "--procs", "2", "--weights", ","],
    ["weight-study", "--level", "3", "--procs", "2", "--weights", "1,1"],
], ids=["procs-0", "level-0", "level-negative", "delta-0", "delta-nan",
        "weight-nan", "weight-inf", "offsets-empty", "offsets-repeated",
        "procs-repeated", "levels-empty", "levels-repeated", "weights-empty",
        "weights-repeated"])
def test_cli_rejects_bad_list_entries_before_any_run(monkeypatch, tmp_path,
                                                     args):
    # a bad entry anywhere in a list flag, an empty list or a repeated
    # entry is a config error found before the first solve, so nothing
    # runs and no file is written
    from click.testing import CliRunner

    import agfem.experiments as ex
    from agfem import cli

    solves = []
    pipeline = ex.run_solve_pipeline

    def counting(*a, **kw):
        solves.append(a)
        return pipeline(*a, **kw)

    monkeypatch.setattr(ex, "run_solve_pipeline", counting)
    res = CliRunner().invoke(cli.main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert solves == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", [
    "beta = nan", "rtol = nan", "radius = inf", "offset = nan",
    "center = nan,0.5", "normal = 0,inf", "normal = 0,0", "normal = 0,0,1",
])
def test_non_finite_settings_and_a_zero_normal_are_config_errors(tmp_path,
                                                                line):
    # each of these once ran to exit 0 on a meaningless solve, or died
    # in classification with exit 3
    from click.testing import CliRunner

    from agfem import cli

    path = tmp_path / "run.cfg"
    path.write_text(f"level = 3\ngeometry = halfplane\n{line}\n")
    out = tmp_path / "out"
    res = CliRunner().invoke(cli.main, ["solve", "--config", str(path),
                                        "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"config error: {line.split()[0]}" in res.output
    assert not out.exists()


def test_threads_is_accepted_only_as_one(tmp_path):
    # ranks step on one thread; benchmark configs still say threads = 1
    from click.testing import CliRunner

    from agfem import cli

    path = tmp_path / "run.cfg"
    path.write_text("threads = 1\nlevel = 3\n")
    assert load_config(str(path)) == load_config(None, {"level": 3})
    assert load_config(None, {"threads": 1}) == ExperimentConfig()
    path.write_text("threads = 2\n")
    out = tmp_path / "out"
    for args in (["--config", str(path)], ["--threads", "2"]):
        res = CliRunner().invoke(cli.main, ["solve", *args, "--out", str(out)])
        assert res.exit_code == 2, res.output
    assert not out.exists()
    with pytest.raises(ConfigError, match="threads = 2"):
        load_config(None, {"threads": 2})


def test_command_defaults_lie_under_the_file_and_the_flags(tmp_path):
    cfg = load_config(None, None, "cut-sweep")
    assert (cfg.geometry, cfg.offset) == ("halfplane", 0.5)
    assert load_config(None, {"offset": "0.6"}, "cut-sweep").offset == 0.6
    path = tmp_path / "run.cfg"
    path.write_text("geometry = circle\n")
    cfg = load_config(str(path), None, "cut-sweep")
    assert (cfg.geometry, cfg.offset) == ("circle", 0.5)
    assert load_config(None, None, "convergence").solution == "sine"
    assert load_config(None, {"solution": "linear"},
                       "convergence").solution == "linear"
    assert load_config(str(path)) == replace(ExperimentConfig(),
                                             geometry="circle")


def test_cut_sweep_on_an_explicit_halfplane_starts_from_a_lattice_line(
        tmp_path):
    # with the old offset 0.503 the cut cells kept 0.048 + delta of their
    # volume at L4 and kappa_std stayed near 1e4 for every delta
    from click.testing import CliRunner

    from agfem import cli

    res = CliRunner().invoke(cli.main, [
        "cut-sweep", "--geometry", "halfplane", "--level", "4",
        "--offsets", "1e-2,1e-8", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "cut_sweep.csv") as fh:
        kappa = [float(row["kappa_std"]) for row in csv.DictReader(fh)]
    assert kappa[1] / kappa[0] > 1e6
