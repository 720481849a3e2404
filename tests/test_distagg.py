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
    part = Partition(2, owner, np.ones(cls.n_active))
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
    assert direct.recv_sources == [] and direct.remote_roots.size == 0
    inverse = build_inverse_plan(rt, meshes, dist)
    assert inverse[0].send_targets == []
    numbering = number_dofs_distributed(rt, meshes, 1)
    buffers = import_root_data(rt, meshes, [direct], inverse,
                               root_cell_data_provider(numbering))
    assert buffers[0].n_cells == 0


def test_left_right_roots_cross_subdomains():
    grid, cls, fa, meshes = _left_right_setup()
    serial = aggregate_serial(cls)
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    assert compare_with_serial(meshes, dist, serial) is None
    right = meshes[1]
    for l in right.locals_cut():
        g = right.global_of(l)
        root = dist.root_of(2, l)
        assert cls.lattice_of(root)[0] == 1      # col-2 root
        assert dist.owner_of(2, l) == 1          # owned by the left half
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
    for part in (Partition(1, np.ones_like(halves), np.ones(cls.n_active)),
                 Partition(2, halves, np.ones(cls.n_active))):
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
    assert left_plan.recv_sources == []
    assert right_plan.recv_sources == [1]
    col2 = sorted(int(cls.id_at((1, r))) for r in range(4))
    assert right_plan.recv_roots[1].tolist() == col2
    # buffer slots enumerate imported roots in ascending id order
    assert [right_plan.z_of[k] for k in col2] == [1, 2, 3, 4]


def test_inverse_plan_duality_left_right():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    assert inverse[0].send_targets == [2]
    assert inverse[0].send_roots[2].tolist() == direct[1].recv_roots[1].tolist()
    assert inverse[1].send_targets == []
    rcv, snd = check_plan_duality(direct, inverse)
    assert rcv == snd


def _inverse_oracle(meshes, serial):
    """Send sets recomputed from the global serial map and mesh views."""
    out = {}
    for mesh in meshes:
        for l in mesh.relevant_cut():
            g = mesh.global_of(l)
            root = serial.root_of(g)
            owner_mesh = next(m for m in meshes if m.is_relevant(root)
                              and m.is_local(m.local_id(root)))
            if owner_mesh.s != mesh.s:
                out.setdefault((owner_mesh.s, mesh.s), set()).add(root)
    return {(src, dst, k) for (src, dst), ks in out.items() for k in ks}


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
            got = {(p.s, dst, int(k)) for p in inverse
                   for dst in p.send_targets for k in p.send_roots[dst]}
            assert got == expected


def test_import_round_trips_owner_data():
    grid, cls, fa, meshes = _left_right_setup()
    rt = VirtualRuntime(2)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes, 1)
    provider = root_cell_data_provider(numbering)
    buffers = import_root_data(rt, meshes, direct, inverse, provider)
    assert buffers[0].n_cells == 0
    right = buffers[1]
    assert right.n_cells == 4
    for k, z in right.z_of.items():
        x_owner, g_owner = provider(1, k)
        assert right.coords[z - 1].tolist() == x_owner.tolist()  # bit exact
        assert np.array_equal(right.dofs[z - 1], g_owner)
        lo = grid.cell_origin(cls.lattice_of(k))
        hi = lo + grid.h
        assert np.all(right.coords[z - 1] >= lo - 1e-15)
        assert np.all(right.coords[z - 1] <= hi + 1e-15)
        assert right.coords[z - 1].shape == (4, 2)


def test_scheduling_independence_of_module_outputs():
    grid, cls, fa = classified(4, Sphere((0.531, 0.472), 0.3))
    part = partition_weighted_sfc(cls, n_subdomains=4)
    meshes = build_subdomain_meshes(cls, part)
    baseline = aggregate_parallel(VirtualRuntime(4), meshes)
    for runtime in (VirtualRuntime(4, step_order=[3, 1, 0, 2]),
                    VirtualRuntime(4, threads=3)):
        other = aggregate_parallel(runtime, meshes)
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
    numbering = number_dofs_distributed(rt, meshes, 1)
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
    bad_nexts[1][a - 1] = right.global_of(b)
    bad_nexts[1][b - 1] = right.global_of(a)
    bad = DistRootMap(roots=dist.roots, root_owners=dist.root_owners,
                      nexts=bad_nexts, rounds=dist.rounds)
    with pytest.raises(PathReconstructionError, match="cycle"):
        build_inverse_plan(rt, meshes, bad)
