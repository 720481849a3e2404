"""Property tests on random geometries: subdomain views against brute-force
oracles, and the aggregation sweep against the BFS oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agfem.aggregation import (AggregationStalledError, aggregate_parallel,
                               gather_root_map)
from agfem.geometry import classify_cells
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import bfs_aggregation_oracle, face_rule


@st.composite
def cut_meshes(draw):
    """A classified random sphere or half-space, 2D at L2-L4 or 3D at L2-L3."""
    d = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(2, 4 if d == 2 else 3))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        center = [0.3 + 0.4 * draw(unit) for _ in range(d)]
        ls = Sphere(center, 0.1 + 0.35 * draw(unit))
    else:
        normal = np.array([draw(unit) - 0.5 for _ in range(d)])
        normal = normal / np.linalg.norm(normal) if np.any(normal) else np.eye(d)[0]
        ls = HalfPlane(normal, float(normal @ np.full(d, 0.5)) + 0.4 * draw(unit) - 0.2)
    cls = classify_cells(unit_box_grid(level, d), ls)
    if cls.n_active == 0:
        return cls, 1
    return cls, draw(st.integers(1, min(8, cls.n_active)))


def _ghost_oracle(cls, owner, s):
    """Foreign active cells sharing a vertex with a cell owned by ``s``."""
    lat = cls.id_to_lattice
    mine, foreign = np.flatnonzero(owner == s), np.flatnonzero(owner != s)
    touch = np.abs(lat[foreign, None, :] - lat[None, mine, :]).max(axis=-1) <= 1
    return foreign[touch.any(axis=1)] + 1


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cut_meshes())
def test_views_and_sweep_match_oracles(case):
    cls, n_parts = case
    if cls.n_active == 0:
        return
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    owner = part.owner_of_active
    for mesh in meshes:
        own = mesh.global_ids[:mesh.n_local]
        assert np.array_equal(own, np.flatnonzero(owner == mesh.s) + 1)
        assert np.array_equal(mesh.global_ids[mesh.n_local:],
                              _ghost_oracle(cls, owner, mesh.s))
        for sp, send in mesh.send_halo.items():
            recv = meshes[sp - 1].recv_halo[mesh.s]
            assert np.array_equal(mesh.global_ids[send - 1],
                                  meshes[sp - 1].global_ids[recv - 1])
        assert sorted(mesh.send_halo) == sorted(
            m.s for m in meshes if mesh.s in m.recv_halo)
        # owned rows of the view's face table name the global neighbors
        rows = mesh.face_ids[:mesh.n_local]
        named = np.where(rows > 0, mesh.global_ids[rows - 1], 0)
        assert np.array_equal(named, cls.face_ids[own - 1])
        for l, nb in zip(*np.nonzero(rows)):
            assert mesh.face_open[l, nb] == face_rule(
                cls, int(own[l]), int(named[l, nb]))

    try:
        oracle = bfs_aggregation_oracle(
            cls, lambda ka, kb: face_rule(cls, ka, kb))
    except RuntimeError:
        with pytest.raises(AggregationStalledError):
            aggregate_parallel(VirtualRuntime(n_parts), meshes)
        return
    dist = aggregate_parallel(VirtualRuntime(n_parts), meshes)
    root_map = gather_root_map(meshes, dist)
    assert [(root_map.root_of(k), root_map.next_of(k))
            for k in range(1, cls.n_active + 1)] == \
        [oracle[k] for k in range(1, cls.n_active + 1)]
