import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agfem.geometry import classify_cells
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Sphere
from agfem.partition import (Partition, PartitionError, _split,
                             build_subdomain_meshes, partition_weighted_sfc)

from conftest import (adaptive_owners, classified, heaviest_range_oracle,
                      random_geometry)


def _all_active(level):
    grid = unit_box_grid(level, 2)
    return classify_cells(grid, HalfPlane((1, 0), 5.0))


def test_uniform_sixteen_cells_four_parts():
    cls = _all_active(2)
    part = partition_weighted_sfc(cls, n_subdomains=4)
    counts = np.bincount(part.owner_of_active)[1:]
    assert np.array_equal(counts, [4, 4, 4, 4])
    # contiguous Morton ranges: owners are nondecreasing in id order
    assert np.all(np.diff(part.owner_of_active) >= 0)


def test_prefix_sum_split_by_hand():
    # the stated 8-cell pattern padded to 16 cells: split lands after cell 4
    w8 = np.array([10.0, 10, 1, 1, 10, 10, 1, 1])
    part8 = partition_weighted_sfc(
        _all_active(2), weights=np.concatenate([w8, np.full(8, 1e-9)]),
        n_subdomains=2)
    owners = part8.owner_of_active[:8]
    assert np.array_equal(owners[:4], [1, 1, 1, 1])
    assert np.array_equal(owners[4:], [2, 2, 2, 2])


def test_single_subdomain():
    cls = _all_active(2)
    part = partition_weighted_sfc(cls, n_subdomains=1)
    assert np.all(part.owner_of_active == 1)
    meshes = build_subdomain_meshes(cls, part)
    assert meshes[0].n_ghost == 0
    assert meshes[0].neighbors.size == 0


def test_invalid_requests():
    cls = _all_active(1)
    with pytest.raises(PartitionError):
        partition_weighted_sfc(cls, n_subdomains=5)
    with pytest.raises(PartitionError):
        partition_weighted_sfc(cls, weights=np.zeros(4), n_subdomains=2)
    with pytest.raises(PartitionError):
        partition_weighted_sfc(cls, n_subdomains=0)
    # NaN passes a "<= 0" test, and an infinite weight empties a range
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(PartitionError, match="finite and positive"):
            partition_weighted_sfc(cls, weights=[1.0, 1.0, bad, 1.0],
                                   n_subdomains=2)


def test_balance_random_weights(rng):
    cls = _all_active(4)
    cases = [(cls, rng.uniform(0.5, 3.0, size=cls.n_active), n_parts)
             for n_parts in (2, 3, 4, 7, 16) for _ in range(4)]
    # a greedy threshold split gives sums [5, 1, 3] here, a spread of 4
    # against w_max = 3
    cases.append((_all_active(1), np.array([2.0, 3.0, 1.0, 3.0]), 3))
    for case_cls, weights, n_parts in cases:
        part = partition_weighted_sfc(case_cls, weights=weights,
                                      n_subdomains=n_parts)
        sums = np.bincount(part.owner_of_active - 1, weights=weights)
        w_max = weights.max()
        assert sums.max() - sums.min() <= w_max + 1e-12
        assert np.all(np.abs(sums - weights.sum() / n_parts)
                      <= w_max + 1e-12)


def test_equal_weights_split_as_the_adaptive_rule():
    pairs = [(n, p) for n in range(1, 70) for p in range(1, min(n, 9) + 1)]
    pairs += [(n, p) for n in (1000, 4099, 18513) for p in (2, 7, 32, 64)]
    for n, p in pairs:
        for w in (1.0, 2.5):
            weights = np.full(n, w)
            assert np.array_equal(_split(weights, p),
                                  adaptive_owners(weights, p)), (n, p, w)
        # prefix sums that round may move a boundary by a cell among
        # equally heavy splits; sizes still differ by at most one
        sizes = np.bincount(_split(np.full(n, 0.1), p))[1:]
        assert sizes.max() - sizes.min() <= 1, (n, p)


@st.composite
def weighted_chains(draw):
    """Small positive weights, integer, uniform or bimodal, and a part
    count no larger than the chain."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("integer", "uniform", "bimodal")))
    if kind == "integer":
        elems = st.integers(1, 9).map(float)
    elif kind == "uniform":
        elems = st.floats(0.1, 3.0)
    else:
        elems = st.sampled_from((1.0, 100.0))
    weights = np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    return weights, draw(st.integers(1, min(n, 6)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(weighted_chains())
def test_split_minimises_the_heaviest_range(case):
    weights, n_parts = case
    owner = _split(weights, n_parts)
    assert np.all(np.diff(owner) >= 0)
    assert owner[0] == 1 and owner[-1] == n_parts
    assert np.all(np.diff(owner) <= 1)   # every part nonempty
    sums = np.bincount(owner - 1, weights=weights)
    tol = 1e-12 * weights.sum()
    assert abs(sums.max() - heaviest_range_oracle(weights, n_parts)) <= tol
    assert sums.max() - sums.min() <= weights.max() + tol


def test_halves_ghost_layers():
    # manual left/right split of a fully active 4x4 grid
    cls = _all_active(2)
    owner = np.where(cls.id_to_lattice[:, 0] < 2, 1, 2).astype(np.int64)
    part = Partition(2, owner)
    meshes = build_subdomain_meshes(cls, part)
    for mesh in meshes:
        assert mesh.n_local == 8
        assert mesh.n_ghost == 4  # the facing column, face + corner adjacency
        assert np.array_equal(mesh.neighbors, [3 - mesh.s])


def test_quadrant_ghost_layers():
    cls = _all_active(2)
    part = partition_weighted_sfc(cls, n_subdomains=4)
    meshes = build_subdomain_meshes(cls, part)
    for mesh in meshes:
        assert mesh.n_local == 4
        assert mesh.n_ghost == 5  # 2 + 2 facing cells and 1 diagonal


def test_ghost_symmetry_and_cover(rng):
    for _ in range(5):
        level, ls = random_geometry(rng, max_level=4)
        grid, cls, _ = classified(level, ls)
        if cls.interior_ids.size == 0 or cls.n_active < 8:
            continue
        for n_parts in (2, 4, 7):
            part = partition_weighted_sfc(cls, n_subdomains=n_parts)
            meshes = build_subdomain_meshes(cls, part)
            owned = np.concatenate([m.global_ids[:m.n_local] for m in meshes])
            assert np.array_equal(np.sort(owned),
                                  np.arange(1, cls.n_active + 1))
            for mesh in meshes:
                for l in range(mesh.n_local + 1, mesh.n_relevant + 1):
                    owner = int(mesh.owner_of_relevant[l - 1])
                    assert mesh.s in meshes[owner - 1].neighbors


def test_halo_lists_align():
    grid, cls, _ = classified(3, Sphere((0.5, 0.5), 0.35))
    part = partition_weighted_sfc(cls, n_subdomains=4)
    meshes = build_subdomain_meshes(cls, part)
    for mesh in meshes:
        for sp, send_ids in mesh.send_halo.items():
            other = meshes[sp - 1]
            recv_ids = other.recv_halo[mesh.s]
            sent_globals = mesh.global_ids[send_ids - 1].tolist()
            recv_globals = other.global_ids[recv_ids - 1].tolist()
            assert sent_globals == recv_globals


def test_background_partition_for_weight_study():
    grid, cls, _ = classified(4, Sphere((0.531, 0.472), 0.3))
    part = partition_weighted_sfc(cls, weights=np.full(cls.n_active, 1.0),
                                  n_subdomains=4, include_exterior=True)
    totals = np.bincount(part.owner_of_background)[1:]
    assert totals.max() - totals.min() <= 1  # unweighted: total-cell balance
    assert part.owner_of_background.size == grid.n_cells
    # active owners agree with the background ranges
    from agfem.grid import morton_encode

    codes = morton_encode(cls.id_to_lattice, grid.level)
    assert np.array_equal(part.owner_of_background[codes],
                          part.owner_of_active)
