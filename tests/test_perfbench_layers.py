"""The benchmark's layer table names functions and phases the program has.

``perfbench/layers.py`` wraps functions of ``agfem.experiments`` by name
and reports a runtime phase label it does not list as an absent layer.
These tests read its table without importing it, so a renamed or
dropped function fails here and not only in the benchmark's own suite.
"""

import ast
import pathlib

from agfem import experiments as ex
from agfem.experiments import ExperimentConfig
from agfem.runtime import VirtualRuntime

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _assigned(name):
    """The expression assigned to ``name`` at the top of layers.py."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{LAYERS} assigns no {name}")


def test_every_layer_function_resolves_on_experiments():
    names = [ast.literal_eval(key) for key in _assigned("LAYER_FUNCTIONS").keys]
    assert names
    assert [n for n in names if not callable(getattr(ex, n, None))] == []


def test_every_runtime_phase_of_a_distributed_run_is_listed(monkeypatch,
                                                            tmp_path):
    listed = set(ast.literal_eval(_assigned("RUNTIME_PHASES")))
    used = set()
    run = VirtualRuntime.run

    def recording(self, body, args=None, phase="", *rest, **kwargs):
        used.add(phase)
        return run(self, body, args, phase, *rest, **kwargs)

    monkeypatch.setattr(VirtualRuntime, "run", recording)
    ex.cmd_solve(ExperimentConfig(level=4, procs=2, out=str(tmp_path)).validate())
    assert "numbering" in used and "assembly" in used
    assert used - listed == set()
