import numpy as np
import pytest

from agfem.aggregation import (AggregateValidationError, AggregationStalledError,
                               RootMap, aggregate_serial, aggregates)
from agfem.levelset import HalfPlane, Sphere

from conftest import (bfs_aggregation_oracle, classified, random_geometry,
                      root_next_pairs)


def test_all_interior_is_identity():
    grid, cls, fa = classified(2, HalfPlane((1, 0), 2.0))
    rm = aggregate_serial(cls)
    ids = np.arange(1, cls.n_active + 1)
    assert np.array_equal(rm.root, ids)
    assert np.array_equal(rm.next, ids)
    assert rm.rounds == 0
    agg = aggregates(cls, rm)
    assert agg.n_aggregates == cls.n_active
    assert agg.max_size == 1 and agg.max_path_length == 0


def test_column_aggregation_matches_oracle_and_geometry():
    grid, cls, fa = classified(2, HalfPlane((1, 0), 0.6))
    rm = aggregate_serial(cls)
    oracle = bfs_aggregation_oracle(cls, fa)
    assert root_next_pairs(rm) == oracle
    # each col-3 cut cell aggregates to its row's col-2 cell
    for k in cls.cut_ids:
        k = int(k)
        lat = cls.lattice_of(k)
        assert lat[0] == 2
        root_lat = cls.lattice_of(rm.root[k - 1])
        assert root_lat[0] == 1 and root_lat[1] == lat[1]
    agg = aggregates(cls, rm)
    assert agg.n_aggregates == 8
    sizes = sorted(np.unique(agg.root, return_counts=True)[1].tolist())
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]
    assert rm.rounds == 1


def test_single_candidate_assignment():
    grid, cls, fa = classified(1, HalfPlane((1, 0), 0.6))
    rm = aggregate_serial(cls)
    for k in cls.cut_ids:
        k = int(k)
        left = cls.active_id[tuple(cls.lattice_of(k) - (1, 0))]
        assert rm.root[k - 1] == left
        assert rm.next[k - 1] == left


def test_matches_bfs_oracle_randomized(rng):
    for _ in range(50):
        level, ls = random_geometry(rng)
        grid, cls, fa = classified(level, ls)
        if cls.interior_ids.size == 0:
            continue
        rm = aggregate_serial(cls)
        oracle = bfs_aggregation_oracle(cls, fa)
        assert root_next_pairs(rm) == oracle


def test_deterministic():
    grid, cls, fa = classified(4, Sphere((0.5, 0.5), 0.31))
    rm1 = aggregate_serial(cls)
    rm2 = aggregate_serial(cls)
    assert np.array_equal(rm1.root, rm2.root)
    assert np.array_equal(rm1.next, rm2.next)


def test_roots_are_fixed_points():
    grid, cls, fa = classified(4, Sphere((0.5, 0.5), 0.3))
    rm = aggregate_serial(cls)
    assert np.array_equal(rm.root[rm.root - 1], rm.root)
    assert np.all(np.isin(rm.root, cls.interior_ids))


def test_stall_reports_orphans():
    # a circle so small that no cell is fully inside: no interior seeds
    grid, cls, fa = classified(2, Sphere((0.52, 0.52), 0.1))
    assert cls.interior_ids.size == 0 and cls.cut_ids.size > 0
    with pytest.raises(AggregationStalledError) as err:
        aggregate_serial(cls)
    assert sorted(err.value.orphan_ids) == list(range(1, cls.n_active + 1))


def test_validation_rejects_merged_interiors():
    grid, cls, fa = classified(2, HalfPlane((1, 0), 0.6))
    rm = aggregate_serial(cls)
    bad_root = rm.root.copy()
    first, second = cls.interior_ids[:2]
    bad_root[first - 1] = second  # two interior cells in one aggregate
    bad = RootMap(root=bad_root, next=rm.next.copy(), rounds=rm.rounds)
    with pytest.raises(AggregateValidationError):
        aggregates(cls, bad)


def test_validation_rejects_incomplete_map():
    grid, cls, fa = classified(2, HalfPlane((1, 0), 0.6))
    rm = aggregate_serial(cls)
    bad_root = rm.root.copy()
    bad_root[int(cls.cut_ids[0]) - 1] = -1
    with pytest.raises(AggregateValidationError, match="unassigned"):
        aggregates(cls, RootMap(bad_root, rm.next.copy(), rm.rounds))


@pytest.mark.parametrize("case, message", [
    ("far", "not a face neighbor"),
    ("closed", "inactive face"),
    ("root", "root changes"),
    ("cycle", "cycle"),
    ("stop", "not its root"),
])
def test_validation_rejects_broken_paths(case, message):
    # column 3 of the 4x4 grid is cut and hangs on column 2
    grid, cls, fa = classified(2, HalfPlane((1, 0), 0.6))
    rm = aggregate_serial(cls)
    k, above = cls.active_id[2, 0], cls.active_id[2, 1]
    root, nxt = rm.root.copy(), rm.next.copy()
    if case == "far":
        nxt[k - 1] = cls.active_id[0, 0]
    elif case == "closed":
        row = np.flatnonzero(cls.face_ids[k - 1] == nxt[k - 1])
        cls.face_open[k - 1, row] = False
    elif case == "root":
        root[k - 1] = root[above - 1]
    elif case == "cycle":
        nxt[k - 1], nxt[above - 1] = above, k
        root[above - 1] = root[k - 1]
    else:
        nxt[k - 1] = k
    with pytest.raises(AggregateValidationError, match=message):
        aggregates(cls, RootMap(root, nxt, rm.rounds))
