"""Supersteps and messages per runtime phase stay fixed.

A change to how a phase packs its data must not change how often it
talks: the counts below are those of an offset circle at level 5 on 8
subdomains, and any change to them is a change of the protocol.
"""

import collections

from agfem import experiments as ex
from agfem.experiments import ExperimentConfig
from agfem.runtime import VirtualRuntime

# phase -> (supersteps, messages); the solve takes 41 iterations
EXPECTED = {"aggregate": (5, 42), "inverse-plan": (6, 22),
            "numbering": (3, 40), "import": (1, 19), "assembly": (1, 20),
            "solve": (125, 1596)}


def test_supersteps_and_messages_per_phase(monkeypatch, tmp_path):
    counts = collections.defaultdict(lambda: (0, 0))
    run = VirtualRuntime.run

    def counting(self, body, args=None, phase="", *rest, **kwargs):
        step, n = self._superstep, len(self.trace)
        out = run(self, body, args, phase, *rest, **kwargs)
        steps, messages = counts[phase]
        counts[phase] = (steps + self._superstep - step,
                         messages + len(self.trace) - n)
        return out

    monkeypatch.setattr(VirtualRuntime, "run", counting)
    cfg = ExperimentConfig(geometry="offset-circle", level=5, procs=8,
                           trace=1, out=str(tmp_path)).validate()
    out = ex.run_solve_pipeline(cfg)
    assert out.report.iterations == 41
    assert dict(counts) == EXPECTED
