"""Supersteps, messages and array entries per runtime phase stay fixed.

A change to how a phase packs its data must not change how often it
talks, and a change to what it sends must show: the counts below are
those of an offset circle at level 5 and of the popcorn at level 3,
each on 8 subdomains, and any change to them is a change of the
protocol.
"""

import collections

import numpy as np
import pytest

from agfem import experiments as ex
from agfem.experiments import ExperimentConfig
from agfem.runtime import VirtualRuntime

OFFSET_CIRCLE = dict(geometry="offset-circle", level=5)
POPCORN = dict(geometry="popcorn", dimension=3, level=3)
# phase -> (supersteps, messages); the solve takes 41 iterations
EXPECTED = {"aggregate": (5, 42), "inverse-plan": (5, 22),
            "numbering": (2, 40), "import": (1, 19), "assembly": (1, 20),
            "solve": (125, 1596)}
# phase -> array entries over all its messages; the sweep carries each
# root's lattice key (d rows beside root, owner and next), so the import
# carries (n, m) DOF ids alone
ENTRIES = {"aggregate": 320, "inverse-plan": 148, "numbering": 642,
           "import": 104, "assembly": 2180, "solve": 9072}
# the same for the popcorn; the solve takes 46 iterations
EXPECTED_3D = {"aggregate": (7, 144), "inverse-plan": (5, 50),
               "numbering": (2, 54), "import": (1, 48), "assembly": (1, 24),
               "solve": (140, 2538)}
ENTRIES_3D = {"aggregate": 4968, "inverse-plan": 1120, "numbering": 796,
              "import": 808, "assembly": 13498, "solve": 12596}

# the standard space on the same two configs: it numbers the nodes of
# every active cell and has no aggregation, plans or import; the solves
# take 47 and 42 iterations
EXPECTED_STD = {"numbering": (2, 40), "assembly": (1, 18),
                "solve": (143, 1920)}
ENTRIES_STD = {"numbering": 728, "assembly": 1636, "solve": 11328}
EXPECTED_STD_3D = {"numbering": (2, 54), "assembly": (1, 23),
                   "solve": (128, 2322)}
ENTRIES_STD_3D = {"numbering": 1848, "assembly": 10458, "solve": 24080}


def _entries(payload):
    if isinstance(payload, np.ndarray):
        return payload.size
    if isinstance(payload, (tuple, list)):
        return sum(_entries(x) for x in payload)
    return 0


def _run_counting(monkeypatch, procs, payload_filter=None,
                  params=OFFSET_CIRCLE):
    """(supersteps, messages) per phase of the config ``params`` on
    ``procs`` subdomains, and the run's outputs."""
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
    cfg = ExperimentConfig(procs=procs, trace=1, **params).validate()
    out = ex.run_solve_pipeline(cfg, runtime=VirtualRuntime(
        procs, trace=True, payload_filter=payload_filter))
    return dict(counts), out


def _check_traffic(monkeypatch, params, iterations, expected,
                   expected_entries):
    entries = collections.Counter()

    def tally(phase, superstep, src, dst, payload):
        entries[phase] += _entries(payload)
        if phase == "numbering":
            # owned (code, id) pairs, codes strictly ascending
            assert payload.ndim == 2 and payload.shape[0] == 2
            assert np.all(np.diff(payload[0]) > 0)
            assert np.all(payload[1] >= 1)
        return payload

    counts, out = _run_counting(monkeypatch, 8, tally, params)
    assert out.report.iterations == iterations
    assert counts == expected
    assert dict(entries) == expected_entries


def test_supersteps_and_messages_per_phase(monkeypatch):
    _check_traffic(monkeypatch, OFFSET_CIRCLE, 41, EXPECTED, ENTRIES)


def test_supersteps_and_messages_per_phase_in_3d(monkeypatch):
    _check_traffic(monkeypatch, POPCORN, 46, EXPECTED_3D, ENTRIES_3D)


def test_one_subdomain_assembly_posts_no_message(monkeypatch):
    # every sum of a one-subdomain assembly is owned at home
    counts, _ = _run_counting(monkeypatch, 1)
    assert counts["assembly"] == (1, 0)


@pytest.mark.parametrize("params,iterations,expected,expected_entries", [
    pytest.param(OFFSET_CIRCLE, 47, EXPECTED_STD, ENTRIES_STD,
                 id="offset-circle"),
    pytest.param(POPCORN, 42, EXPECTED_STD_3D, ENTRIES_STD_3D,
                 id="popcorn-3d")])
def test_supersteps_and_messages_per_phase_of_the_standard_space(
        monkeypatch, params, iterations, expected, expected_entries):
    _check_traffic(monkeypatch, dict(params, space="std"), iterations,
                   expected, expected_entries)
