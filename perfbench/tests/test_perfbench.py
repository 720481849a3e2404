"""Tests of the benchmark itself: tracer, layer wrappers, gate, output.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from agfem.runtime import VirtualRuntime  # noqa: E402

TINY = {"geometry": "circle", "dimension": 2, "level": 5, "procs": 4,
        "center": (0.531, 0.472)}


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_wrap_returns_value_and_records_span():
    tracer = Tracer()
    marker = object()
    seen = []
    wrapped = tracer.wrap(lambda a, b=0: (marker, a, b), "layer.fn",
                          lambda r, args, kw: seen.append((args, kw)))
    assert wrapped(1, b=2) == (marker, 1, 2)
    assert seen == [((1,), {"b": 2})]
    assert tracer.names == ["layer.fn"] and tracer.parents == [-1]
    assert tracer.ends[0] >= tracer.starts[0]


def test_wrap_propagates_exception_unchanged():
    tracer = Tracer()
    err = KeyError("boom")

    def fails():
        raise err

    with pytest.raises(KeyError) as info:
        tracer.wrap(fails, "layer.fn")()
    assert info.value is err
    assert tracer._stack == [] and math.isfinite(tracer.ends[0])


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > grandchild [2, 3]; root > b [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    g = tracer.open("g")
    tracer.close(g)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert tracer.parents == [-1, root, a, root]
    assert tracer.self_times() == [6, 2, 1, 1]


def _ping_body(proc, fail_rank=None):
    got = yield proc.routed_exchange({proc.size + 1 - proc.rank: [proc.rank] * 3})
    flag = yield proc.reduce_logical_and(True)
    if proc.rank == fail_rank:
        raise ValueError("rank failed")
    return proc.rank, got, flag


def test_traced_runtime_matches_untraced_and_counts():
    plain = VirtualRuntime(3).run(_ping_body, phase="solve")
    tracer = Tracer()
    traced_run = layers._traced_run(tracer, VirtualRuntime.run)
    rt = VirtualRuntime(3)
    assert traced_run(rt, _ping_body, phase="solve") == plain
    assert tracer.counts["runtime.solve.supersteps"] == 2
    assert tracer.counts["runtime.solve.messages"] == 3
    metrics = layers.layer_metrics(tracer)
    assert metrics["runtime.solve.rank_busy_max_s"] > 0
    assert metrics["runtime.solve.overhead_s"] >= 0
    assert sorted(r for n, r in zip(tracer.names, tracer.ranks)
                  if n == layers.STEP) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_traced_runtime_propagates_rank_errors():
    tracer = Tracer()
    traced_run = layers._traced_run(tracer, VirtualRuntime.run)
    with pytest.raises(ValueError, match="rank failed"):
        traced_run(VirtualRuntime(3), _ping_body, args=[(2,)] * 3, phase="solve")
    assert tracer._stack == []


def test_missing_function_is_an_absent_layer():
    class Namespace:
        pass

    ns = Namespace()
    ns.classify_cells = lambda *a: None
    tracer = Tracer()

    class Runtime:
        pass

    absent = layers.install(tracer, ns, Runtime)
    assert "cut_quadrature" in absent and "VirtualRuntime.run" in absent
    assert "classify_cells" not in absent
    metrics = layers.layer_metrics(tracer)
    assert metrics["geometry.quadrature_s"] == 0
    assert metrics["geometry.quadrature_calls"] == 0
    assert {n for n, _ in layers.PER_LAYER} <= set(metrics) | {"experiments.import_s"}


def test_unknown_runtime_phase_is_an_absent_layer():
    tracer = Tracer()
    traced_run = layers._traced_run(tracer, VirtualRuntime.run)
    traced_run(VirtualRuntime(3), _ping_body, phase="solve")
    assert layers.unknown_phases(tracer) == []
    traced_run(VirtualRuntime(3), _ping_body, phase="mystery")
    assert layers.unknown_phases(tracer) == ["runtime.mystery"]


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.512, 0.493), (0.47, 0.53)])
def test_circle_counts_match_agfem(center):
    import agfem.experiments as ex
    from agfem.fespace import build_std_space, classify_dofs

    cfg = ex.load_config(None, {"geometry": "circle", "level": 5,
                                "center": f"{center[0]!r},{center[1]!r}"})
    _, _, cls, _ = ex.geometry_setup(cfg)
    dofs = classify_dofs(build_std_space(cls, 1), cls)
    assert wl.circle_counts(5, center) == {
        "n_active": cls.n_active, "n_cut": int(cls.cut_ids.size),
        "n_interior_dofs": dofs.n_interior}


def test_seed_zero_is_the_reference_config():
    ref = wl.load_reference()
    for name in ("serial-2d", "dist-2d"):
        wlcfg = wl.WORKLOADS[name]
        counts = wl.circle_counts(wlcfg["level"], wl.center_for(name, 0))
        assert counts == {k: ref["workloads"][name][k] for k in wl.COUNTS}
        assert wl.center_for(name, 0) == wlcfg["center"]
        h = 0.5 ** wlcfg["level"]
        moved = wl.center_for(name, 7)
        assert moved == wl.center_for(name, 7)
        assert all(0 < abs(m - c) < h / 2 for m, c in zip(moved, wlcfg["center"]))
    assert wl.center_for("popcorn-3d", 5) is None


def test_gate_flags_violations():
    record = {"converged": True, "assembly_checksum": "1.0", "kappa_est": "2.0",
              "rel_l2": "1e-5", "rel_h1": "1e-3", "iterations": 10,
              "n_active": 5, "n_cut": 1, "n_interior_dofs": 4}
    bounds = {"iterations": (9, 11), "rel_l2": (0.9e-5, 1.1e-5)}
    counts = {"n_active": 5, "n_cut": 1, "n_interior_dofs": 4}
    assert wl.check_record(record, counts, bounds) == []
    bad = dict(record, converged=False, rel_h1="nan", n_cut=2, iterations=12)
    assert len(wl.check_record(bad, counts, bounds)) == 4


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    return "tiny"


def test_traced_row_and_counts_repeat(tiny, tmp_path):
    ops = [run.run_op(ROOT, str(tmp_path), tiny, 0, i, trace, 120, (None, {}))
           for i, trace in enumerate([False, True, True])]
    assert all(op["errors"] == [] for op in ops)
    assert ops[0]["row"] == ops[1]["row"] == ops[2]["row"]
    first, second = ops[1]["layers"], ops[2]["layers"]
    exact = ["geometry.quadrature_calls", "geometry.face_active_calls",
             "assembly.nnz", "assembly.explicit_zeros", "solve.iterations"]
    exact += [f"runtime.{p}.{m}" for p in layers.RUNTIME_PHASES
              for m in ("supersteps", "messages", "bytes")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["runtime.solve.messages"] > 0 and first["runtime.solve.supersteps"] > 0
    assert first["solve.iterations"] == int(ops[0]["record"]["iterations"])
    assert ops[1]["absent"] == []
    assert os.path.isfile(tmp_path / "trace" / "spans.csv")


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _fake_measure(root, name, seed, seconds, trace):
    op = {"wall": 1.0, "errors": [], "time_to_solution_s": 1.5, "setup_s": 1.0,
          "peak_rss_mb": 100.0,
          "record": {"iterations": 10, "rel_l2": "1e-5", "rel_h1": "1e-3"}}
    if not trace:
        return [op, dict(op, errors=["bad"])], None
    traced = dict(op, time_to_solution_s=1.75, n_spans=1, absent=[],
                  layers={n: 1.0 for n, _ in layers.PER_LAYER})
    return [op, traced], traced


@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "measure", _fake_measure)
    assert run.main(["--workload", "dist-2d", "--trace", str(trace)]) == 0
    out = _last_json(capsys.readouterr().out)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        assert (out["correct"], out["attempted"], out["failed"]) == (True, 2, 0)
        assert out["metrics"]["trace.overhead_s"]["value"] == 0.25
    else:
        assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)


def test_report_prints_every_metric_and_the_overhead(monkeypatch, capsys):
    import report

    monkeypatch.setattr(run, "measure", _fake_measure)
    monkeypatch.chdir(ROOT)
    assert report.main(["--seeds", "0,1"]) == 1
    out = capsys.readouterr().out
    for name, unit in run.END_TO_END + run.FIGURES:
        assert f"{name} " in out and f" {unit}" in out
    assert out.count("(n=2)") == len(wl.WORKLOADS) * len(run.END_TO_END + run.FIGURES)
    assert out.count(f"{'failed_frac':<22} 0.5  (2 of 4)") == len(wl.WORKLOADS)
    assert out.count("trace.overhead_s 0.25 s") == len(wl.WORKLOADS)
    assert "all workloads  failed_frac 0.333333  (6 of 18)" in out


def test_benchmark_spec_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "dist-2d", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
