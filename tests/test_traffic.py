"""Supersteps, messages and array entries per runtime phase stay fixed.

A change to how a phase packs its data must not change how often it
talks, and a change to what it sends must show: the counts below are
those of an offset circle at level 5 on 8 subdomains, and any change
to them is a change of the protocol.
"""

import collections

import numpy as np

from agfem import experiments as ex
from agfem.experiments import ExperimentConfig
from agfem.runtime import VirtualRuntime

# phase -> (supersteps, messages); the solve takes 41 iterations
EXPECTED = {"aggregate": (5, 42), "inverse-plan": (5, 22),
            "numbering": (2, 40), "import": (1, 19), "assembly": (1, 20),
            "solve": (125, 1596)}
# phase -> array entries over all its messages
ENTRIES = {"aggregate": 192, "inverse-plan": 148, "numbering": 642,
           "import": 208, "assembly": 2180, "solve": 9072}


def _entries(payload):
    if isinstance(payload, np.ndarray):
        return payload.size
    if isinstance(payload, (tuple, list)):
        return sum(_entries(x) for x in payload)
    return 0


def _run_counting(monkeypatch, procs, payload_filter=None):
    """(supersteps, messages) per phase of the offset circle at level 5
    on ``procs`` subdomains, and the run's outputs."""
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
    cfg = ExperimentConfig(geometry="offset-circle", level=5, procs=procs,
                           trace=1).validate()
    out = ex.run_solve_pipeline(cfg, runtime=VirtualRuntime(
        procs, trace=True, payload_filter=payload_filter))
    return dict(counts), out


def test_supersteps_and_messages_per_phase(monkeypatch):
    entries = collections.Counter()

    def tally(phase, superstep, src, dst, payload):
        entries[phase] += _entries(payload)
        if phase == "numbering":
            # owned (code, id) pairs, codes strictly ascending
            assert payload.ndim == 2 and payload.shape[0] == 2
            assert np.all(np.diff(payload[0]) > 0)
            assert np.all(payload[1] >= 1)
        return payload

    counts, out = _run_counting(monkeypatch, 8, tally)
    assert out.report.iterations == 41
    assert counts == EXPECTED
    assert dict(entries) == ENTRIES


def test_one_subdomain_assembly_posts_no_message(monkeypatch):
    # every sum of a one-subdomain assembly is owned at home
    counts, _ = _run_counting(monkeypatch, 1)
    assert counts["assembly"] == (1, 0)
