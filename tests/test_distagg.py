import numpy as np
import pytest

from agfem.aggregation import (AggregationStalledError, DistRootMap,
                               aggregate_parallel, aggregate_serial,
                               compare_with_serial)
from agfem.distagg import (PathReconstructionError, build_direct_plan,
                           build_inverse_plan, check_plan_duality,
                           import_root_data)
from agfem.distspace import number_dofs_distributed, root_cell_data_provider
from agfem.levelset import CallableLevelSet, HalfPlane, Popcorn, Sphere
from agfem.partition import Partition, build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import bfs_aggregation_oracle, classified, random_geometry


def _left_right_setup():
    """4x4 grid, psi = x - 0.6, manual left/right halves at x = 0.5."""
    grid, cls, fa = classified(2, HalfPlane((1, 0), 0.6))
    owner = np.where(cls.id_to_lattice[:, 0] < 2, 1, 2).astype(np.int64)
    part = Partition(2, owner)
    meshes = build_subdomain_meshes(cls, part)
    return grid, cls, fa, meshes


def test_single_process_matches_serial():
    grid, cls, fa = classified(3, Sphere((0.5, 0.5), 0.3))
    serial = aggregate_serial(cls)
    part = partition_weighted_sfc(cls, n_subdomains=1)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(1)
    dist = aggregate_parallel(rt, meshes)
    assert compare_with_serial(meshes, dist, serial) is None
    assert np.array_equal(dist.roots[0], serial.root)
    assert np.array_equal(dist.nexts[0], serial.next)
    # degenerate partition: all plans and buffers are empty
    direct = build_direct_plan(meshes[0], dist)
    assert direct.peers.size == 0 and direct.roots.size == 0
    inverse = build_inverse_plan(rt, meshes, dist)
    assert inverse[0].peers.size == 0 and inverse[0].roots.size == 0
    numbering = number_dofs_distributed(rt, meshes)
    buffers = import_root_data(rt, meshes, [direct], inverse,
                               root_cell_data_provider(numbering))
    assert buffers[0].roots.size == 0
    assert buffers[0].coords.shape == (0, 4, 2)
    assert buffers[0].dofs.shape == (0, 4)


def test_left_right_roots_cross_subdomains():
    grid, cls, fa, meshes = _left_right_setup()
    serial = aggregate_serial(cls)
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    assert compare_with_serial(meshes, dist, serial) is None
    right = meshes[1]
    for l in right.locals_cut():
        g = int(right.global_ids[l - 1])
        root = int(dist.roots[1][l - 1])
        assert cls.lattice_of(root)[0] == 1      # col-2 root
        assert dist.root_owners[1][l - 1] == 1   # owned by the left half
        assert root == serial.root_of(g)


@pytest.mark.parametrize("level, ls, d, n_parts", [
    (3, Sphere((0.5, 0.5), 0.45), 2, 16),
    *[(3, Popcorn(), 3, p) for p in (2, 4, 8)],
    *[(4, Sphere((0.5, 0.5, 0.5), 0.3), 3, p) for p in (2, 4, 8)],
], ids=["circle-2d-L3-P16", "popcorn-3d-L3-P2", "popcorn-3d-L3-P4",
        "popcorn-3d-L3-P8", "sphere-3d-L4-P2", "sphere-3d-L4-P4",
        "sphere-3d-L4-P8"])
def test_circle_matches_serial_many_subdomains(level, ls, d, n_parts):
    grid, cls, fa = classified(level, ls, d)
    serial = aggregate_serial(cls)
    oracle = bfs_aggregation_oracle(cls, fa)
    assert all((serial.root_of(k), serial.next_of(k)) == oracle[k]
               for k in range(1, cls.n_active + 1))
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(n_parts, trace=True)
    dist = aggregate_parallel(rt, meshes)
    assert compare_with_serial(meshes, dist, serial) is None
    assert dist.rounds == serial.rounds
    for mesh, roots, nexts in zip(meshes, dist.roots, dist.nexts):
        # ghosts included: the final refresh leaves every copy current
        assert [(int(r), int(x)) for r, x in zip(roots, nexts)] == \
            [oracle[int(g)] for g in mesh.global_ids]
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    rcv, snd = check_plan_duality(direct, inverse)
    assert rcv == snd and rcv
    # duality triples are (dst, src, root), the oracle's (src, dst, root)
    assert {(src, dst, k) for dst, src, k in snd} == \
        _inverse_oracle(meshes, serial)
    for plan in direct + inverse:
        _assert_sorted_pairs(plan, cls.n_active)
    nbr = [set(m.neighbors.tolist()) for m in meshes]
    traffic = [rec for rec in rt.trace
               if rec.phase in ("aggregate", "inverse-plan")]
    assert {rec.phase for rec in traffic} == {"aggregate", "inverse-plan"}
    assert all(rec.kind == "neighbor" and rec.dst in nbr[rec.src - 1]
               for rec in traffic)


def test_stall_lists_every_orphan_across_subdomains():
    # a disk with interior cells and a speck without any: only the speck's
    # cells are orphans, wherever they are owned
    def two_disks(p):
        p = np.atleast_2d(p)
        return np.minimum(np.linalg.norm(p - (0.3, 0.3), axis=-1) - 0.2,
                          np.linalg.norm(p - (0.5, 0.8), axis=-1) - 0.04)

    grid, cls, fa = classified(4, CallableLevelSet(two_disks, "two-disks"))
    speck = [k for k in range(1, cls.n_active + 1)
             if np.linalg.norm(cls.barycenters()[k - 1] - (0.5, 0.8)) < 0.2]
    assert speck and all(cls.is_cut[k - 1] for k in speck)
    halves = np.where(cls.id_to_lattice[:, 0] < 8, 1, 2).astype(np.int64)
    assert len({int(halves[k - 1]) for k in speck}) == 2  # straddles the cut
    for part in (Partition(1, np.ones_like(halves)), Partition(2, halves)):
        meshes = build_subdomain_meshes(cls, part)
        with pytest.raises(AggregationStalledError) as err:
            aggregate_parallel(VirtualRuntime(part.n_subdomains), meshes)
        assert err.value.orphan_ids == speck


def test_direct_plan_left_right():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    left_plan = build_direct_plan(meshes[0], dist)
    right_plan = build_direct_plan(meshes[1], dist)
    assert left_plan.peers.size == 0 and left_plan.roots.size == 0
    col2 = sorted(int(cls.id_at((1, r))) for r in range(4))
    assert right_plan.peers.tolist() == [1] * 4
    assert right_plan.roots.tolist() == col2


def test_inverse_plan_duality_left_right():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    assert inverse[0].peers.tolist() == [2] * 4
    assert inverse[0].roots.tolist() == direct[1].roots.tolist()
    assert inverse[1].peers.size == 0 and inverse[1].roots.size == 0
    rcv, snd = check_plan_duality(direct, inverse)
    assert rcv == snd


def _inverse_oracle(meshes, serial):
    """Send triples (src, dst, root) recomputed from the global serial map
    and the owned cells of the views."""
    owner_of = {int(g): m.s for m in meshes
                for g in m.global_ids[:m.n_local]}
    out = set()
    for mesh in meshes:
        for l in mesh.relevant_cut():
            root = serial.root_of(int(mesh.global_ids[l - 1]))
            if owner_of[root] != mesh.s:
                out.add((owner_of[root], mesh.s, root))
    return out


def _assert_sorted_pairs(plan, n_cells):
    """A plan's (peer, root) pairs are unique and ascending by peer, then
    root, and never name the plan's own subdomain."""
    assert plan.peers.shape == plan.roots.shape
    key = plan.peers * (n_cells + 1) + plan.roots
    assert np.all(np.diff(key) > 0)
    assert np.all(plan.peers != plan.s)


def test_inverse_plan_matches_oracle_randomized(rng):
    for _ in range(6):
        level, ls = random_geometry(rng, max_level=4)
        grid, cls, fa = classified(level, ls)
        if cls.interior_ids.size == 0:
            continue
        serial = aggregate_serial(cls)
        for n_parts in (2, 4, 16):
            if n_parts > cls.n_active:
                continue
            part = partition_weighted_sfc(cls, n_subdomains=n_parts)
            meshes = build_subdomain_meshes(cls, part)
            rt = VirtualRuntime(n_parts)
            dist = aggregate_parallel(rt, meshes)
            direct = [build_direct_plan(m, dist) for m in meshes]
            inverse = build_inverse_plan(rt, meshes, dist)
            rcv, snd = check_plan_duality(direct, inverse)
            assert rcv == snd
            expected = _inverse_oracle(meshes, serial)
            got = {(p.s, dst, k) for p in inverse
                   for dst, k in zip(p.peers.tolist(), p.roots.tolist())}
            assert got == expected


def test_import_round_trips_owner_data():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes)
    provider = root_cell_data_provider(numbering)
    buffers = import_root_data(rt, meshes, direct, inverse, provider)
    assert buffers[0].roots.size == 0
    right = buffers[1]
    # one row per imported root, roots ascending
    col2 = sorted(int(cls.id_at((1, r))) for r in range(4))
    assert right.roots.tolist() == col2
    assert right.coords.shape == (4, 4, 2) and right.dofs.shape == (4, 4)
    assert right.rows_of(right.roots[::-1]).tolist() == [3, 2, 1, 0]
    left_only = int(cls.id_at((0, 0)))
    assert right.rows_of([left_only]).tolist() == [-1]
    x_owner, g_owner = provider(1, right.roots)
    with pytest.raises(KeyError, match="does not own"):
        provider(2, right.roots)                      # ghosts there
    assert right.coords.tolist() == x_owner.tolist()  # bit exact
    assert np.array_equal(right.dofs, g_owner)
    for k, x in zip(col2, right.coords):
        lo = grid.cell_origin(cls.lattice_of(k))
        hi = lo + grid.h
        assert np.all(x >= lo - 1e-15)
        assert np.all(x <= hi + 1e-15)


def test_import_buffers_hold_their_roots_ascending():
    # relabelled subdomains: a plan's peer order no longer follows the
    # cell ids, so the buffer must sort what arrives
    grid, cls, fa = classified(5, Sphere((0.531, 0.472), 0.3))
    sfc = partition_weighted_sfc(cls, n_subdomains=8)
    part = Partition(8, 9 - sfc.owner_of_active)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(8)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes)
    provider = root_cell_data_provider(numbering)
    buffers = import_root_data(rt, meshes, direct, inverse, provider)
    assert any(np.any(np.diff(p.roots) < 0) for p in direct)
    for plan, buf in zip(direct, buffers):
        assert np.array_equal(buf.roots, np.sort(plan.roots))
        for peer in np.unique(plan.peers).tolist():
            roots = plan.roots[plan.peers == peer]
            x, g = provider(peer, roots)
            rows = buf.rows_of(roots)
            assert np.array_equal(buf.coords[rows], x)
            assert np.array_equal(buf.dofs[rows], g)


def test_scheduling_independence_of_module_outputs():
    grid, cls, fa = classified(4, Sphere((0.531, 0.472), 0.3))
    part = partition_weighted_sfc(cls, n_subdomains=4)
    meshes = build_subdomain_meshes(cls, part)
    baseline = aggregate_parallel(VirtualRuntime(4), meshes)
    other = aggregate_parallel(VirtualRuntime(4, step_order=[3, 1, 0, 2]),
                               meshes)
    for a, b in zip(baseline.roots, other.roots):
        assert np.array_equal(a, b)
    for a, b in zip(baseline.nexts, other.nexts):
        assert np.array_equal(a, b)


def test_rounds_stay_bounded(rng):
    grid, cls, fa = classified(4, Sphere((0.5, 0.5), 0.3))
    serial = aggregate_serial(cls)
    for n_parts in (2, 4, 8, 16):
        part = partition_weighted_sfc(cls, n_subdomains=n_parts)
        meshes = build_subdomain_meshes(cls, part)
        dist = aggregate_parallel(VirtualRuntime(n_parts), meshes)
        assert dist.rounds <= n_parts + 2
        assert dist.rounds == serial.rounds


def test_traffic_discipline():
    grid, cls, fa = classified(4, Sphere((0.5, 0.5), 0.3))
    part = partition_weighted_sfc(cls, n_subdomains=8)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(8, trace=True)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes)
    import_root_data(rt, meshes, direct, inverse,
                     root_cell_data_provider(numbering))
    for rec in rt.trace:
        if rec.phase in ("aggregate", "inverse-plan", "numbering"):
            assert rec.kind == "neighbor"
        elif rec.phase == "import":
            assert rec.kind == "routed"


def test_cycle_guard():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    # corrupt the next map of the right half into a two-cell loop
    right = meshes[1]
    cut = right.locals_cut()
    a, b = cut[0], cut[1]
    bad_nexts = [n.copy() for n in dist.nexts]
    bad_nexts[1][a - 1] = right.global_ids[b - 1]
    bad_nexts[1][b - 1] = right.global_ids[a - 1]
    bad = DistRootMap(roots=dist.roots, root_owners=dist.root_owners,
                      nexts=bad_nexts, rounds=dist.rounds)
    with pytest.raises(PathReconstructionError, match="cycle"):
        build_inverse_plan(rt, meshes, bad)


def test_path_leaving_the_view_is_reported():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    # point a cut cell of the right half at a column-0 cell, which the
    # right view does not hold
    right = meshes[1]
    far = int(cls.id_at((0, 0)))
    assert right.local_ids([far]).tolist() == [0]
    bad_nexts = [n.copy() for n in dist.nexts]
    bad_nexts[1][right.locals_cut()[0] - 1] = far
    bad = DistRootMap(roots=dist.roots, root_owners=dist.root_owners,
                      nexts=bad_nexts, rounds=dist.rounds)
    with pytest.raises(PathReconstructionError, match="left the cells"):
        build_inverse_plan(rt, meshes, bad)
