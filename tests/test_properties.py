"""Property tests on random geometries: the case-table clipper against the
per-simplex oracle, subdomain views against brute-force oracles, the
distributed DOF numbering against its ownership rule and against the
serial numbering, and the aggregation sweep against the BFS oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agfem.aggregation import (AggregationStalledError, aggregate_parallel,
                               gather_root_map)
from agfem.distspace import number_dofs_distributed
from agfem.geometry import _clip, classify_cells
from agfem.grid import corner_offsets, unit_box_grid
from agfem.levelset import HalfPlane, Popcorn, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import (bfs_aggregation_oracle, clip_simplices, face_rule,
                      random_geometry)


TOL = 1e-12


@st.composite
def valued_simplices(draw):
    """A batch of random 2D or 3D simplices with vertex values that mix
    random ones with exact zeros, values at +-tol and an edge whose two
    ends share one value."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    value = st.one_of(st.floats(-1.0, 1.0, allow_nan=False),
                      st.sampled_from([0.0, -0.0, TOL, -TOL, 2 * TOL, -2 * TOL]))
    k = n * (d + 1)
    simplices = np.array(draw(st.lists(coord, min_size=k * d, max_size=k * d)))
    values = np.array(draw(st.lists(value, min_size=k, max_size=k)))
    simplices, values = simplices.reshape(n, d + 1, d), values.reshape(n, d + 1)
    for k in range(n):
        if draw(st.booleans()):
            a, b = draw(st.permutations(range(d + 1)))[:2]
            values[k, b] = values[k, a]
    return simplices, values


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(valued_simplices())
def test_case_table_clipper_matches_the_per_simplex_oracle(case):
    simplices, values = case
    d = simplices.shape[2]
    bulk, b_src, facets, anchors, f_src = clip_simplices(
        zip(simplices, values), TOL)
    got = _clip(simplices, values, TOL)
    want = (np.array(bulk).reshape(-1, d + 1, d), np.array(b_src, dtype=np.intp),
            np.array(facets).reshape(-1, d, d), np.array(anchors).reshape(-1, d),
            np.array(f_src, dtype=np.intp))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


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


def _check_numbering(cls, owner, meshes):
    """Global ids cover 1..n_global once per node, agree wherever a node is
    replicated, and lie in the range of the smallest subdomain among the
    interior cells touching the node."""
    n_parts = len(meshes)
    numbering = number_dofs_distributed(VirtualRuntime(n_parts), meshes)
    ranges = numbering.owned_ranges()
    offs = corner_offsets(cls.grid.d)
    lowest = {}
    for k in cls.interior_ids:
        for key in map(tuple, (cls.id_to_lattice[k - 1] + offs).tolist()):
            lowest[key] = min(lowest.get(key, n_parts), int(owner[k - 1]))
    gid_of = {}
    for piece, mesh in zip(numbering.pieces, meshes):
        for l in mesh.relevant_interior():
            keys = cls.id_to_lattice[mesh.global_ids[l - 1] - 1] + offs
            for key, gid in zip(map(tuple, keys.tolist()),
                                piece.cell_g[l - 1].tolist()):
                assert gid_of.setdefault(key, gid) == gid
                assert ranges[lowest[key] - 1] <= gid < ranges[lowest[key]]
    assert sorted(gid_of.values()) == list(range(1, numbering.n_global + 1))
    assert numbering.n_global == len(lowest)


def _numbering(cls, n_parts, space):
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    return number_dofs_distributed(
        VirtualRuntime(n_parts), build_subdomain_meshes(cls, part),
        interior_only=space == "agg")


def _check_serial_ids(cls, n_parts, space):
    """Every subdomain's (code, global id) table agrees with the table of
    the one-subdomain run: global ids do not depend on P."""
    [ref] = _numbering(cls, 1, space).pieces
    numbering = _numbering(cls, n_parts, space)
    assert numbering.n_global == ref.n_owned
    for piece in numbering.pieces:
        assert np.array_equal(ref.gid_of(piece.gid_codes), piece.gids)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9),
       st.sampled_from(["agg", "std"]))
def test_global_ids_do_not_depend_on_the_process_count(seed, n_parts, space):
    level, ls = random_geometry(np.random.default_rng(seed))
    cls = classify_cells(unit_box_grid(level, 2), ls)
    _check_serial_ids(cls, min(n_parts, cls.n_active), space)


@pytest.mark.parametrize("space", ["agg", "std"])
def test_popcorn_global_ids_do_not_depend_on_the_process_count(space):
    _check_serial_ids(classify_cells(unit_box_grid(3, 3), Popcorn()), 8, space)


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
        # the batch lookup inverts the view and gives 0 outside it
        assert np.array_equal(mesh.local_ids(mesh.global_ids),
                              np.arange(1, mesh.n_relevant + 1))
        outside = np.setdiff1d(np.arange(cls.n_active + 2), mesh.global_ids)
        assert np.array_equal(mesh.local_ids(outside),
                              np.zeros(outside.size, dtype=np.int64))
        # owned rows of the view's face table name the global neighbors
        rows = mesh.face_ids[:mesh.n_local]
        named = np.where(rows > 0, mesh.global_ids[rows - 1], 0)
        assert np.array_equal(named, cls.face_ids[own - 1])
        for l, nb in zip(*np.nonzero(rows)):
            assert mesh.face_open[l, nb] == face_rule(
                cls, int(own[l]), int(named[l, nb]))

    _check_numbering(cls, owner, meshes)

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
