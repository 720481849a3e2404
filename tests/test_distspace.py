import numpy as np
import pytest

from agfem.aggregation import aggregate_parallel, aggregate_serial
from agfem.distagg import (RootDataBuffer, build_direct_plan,
                           build_inverse_plan, import_root_data)
from agfem.distspace import (MissingImportError, build_constraints_distributed,
                             distributed_row_permutation,
                             number_dofs_distributed, root_cell_data_provider)
from agfem.fespace import build_constraints_serial, build_std_space, classify_dofs
from agfem.levelset import HalfPlane, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import classified


def _setup(level, ls, n_parts):
    grid, cls, fa = classified(level, ls)
    serial_rm = aggregate_serial(cls)
    space = build_std_space(cls, 1)
    dofs = classify_dofs(space, cls, serial_rm)
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(n_parts)
    dist = aggregate_parallel(rt, meshes)
    numbering = number_dofs_distributed(rt, meshes, 1)
    return grid, cls, fa, space, dofs, serial_rm, meshes, rt, dist, numbering


def test_single_process_numbering_matches_serial_rows():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        3, Sphere((0.5, 0.5), 0.3), 1)
    piece = numbering.pieces[0]
    assert numbering.n_global == dofs.n_interior
    assert piece.owned_start == 1 and piece.n_owned == dofs.n_interior
    for node_id in dofs.interior_ids:
        key = tuple(int(v) for v in space.node_keys[node_id - 1])
        assert piece.gid_of_key[key] == dofs.row_of[node_id - 1]


def test_owned_ranges_partition_the_interior_ids():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.5, 0.5), 0.3), 4)
    ranges = numbering.owned_ranges()
    assert ranges[0] == 1 and ranges[-1] == numbering.n_global + 1
    assert np.all(np.diff(ranges) >= 0)
    assert numbering.n_global == dofs.n_interior
    seen = {}
    for piece in numbering.pieces:
        for key, gid in piece.gid_of_key.items():
            if key in seen:
                assert seen[key] == gid  # replicated ids agree everywhere
            seen[key] = gid
    assert sorted({g for g in seen.values()}) == list(
        range(1, numbering.n_global + 1))


def test_interface_dofs_owned_by_smaller_subdomain():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        3, HalfPlane((1, 0), 5.0), 2)
    ranges = numbering.owned_ranges()
    p1, p2 = numbering.pieces
    # nodes of local cells of both subdomains: the true interface
    keys1 = {tuple(int(v) for v in k) for k in p1.node_keys}
    keys2 = {tuple(int(v) for v in k) for k in p2.node_keys}
    interface = keys1 & keys2
    assert interface
    for key in interface:
        gid = p1.gid_of_key[key]
        assert gid == p2.gid_of_key[key]
        assert ranges[0] <= gid < ranges[1]  # subdomain 1 owns the interface


def test_distributed_row_permutation_is_bijective():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.5, 0.5), 0.3), 4)
    perm = distributed_row_permutation(numbering, space, dofs)
    assert np.array_equal(np.sort(perm), np.arange(dofs.n_interior))


@pytest.mark.parametrize("n_parts", [1, 2, 4, 16])
def test_constraints_match_serial(n_parts):
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.531, 0.472), 0.3), n_parts)
    serial_cons = build_constraints_serial(space, dofs, rm)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    buffers = import_root_data(rt, meshes, direct, inverse,
                               root_cell_data_provider(numbering))
    gid_to_key = {}
    for piece in numbering.pieces:
        for key, gid in piece.gid_of_key.items():
            gid_to_key[gid] = key
    row_to_key = {int(dofs.row_of[i - 1]): tuple(int(v) for v in
                                                 space.node_keys[i - 1])
                  for i in dofs.interior_ids}

    serial_view = {}
    for i, dof in enumerate(serial_cons.constrained):
        key = tuple(int(v) for v in space.node_keys[dof - 1])
        pairs = sorted((row_to_key[int(r)], float(c)) for r, c in
                       zip(serial_cons.masters[i], serial_cons.coeffs[i]))
        serial_view[key] = pairs

    n_checked = 0
    for piece, buf in zip(numbering.pieces, buffers):
        cons = build_constraints_distributed(piece, dist, buf)
        assert np.allclose(cons.coeffs.sum(axis=1), 1.0, atol=1e-13)
        for i, j in enumerate(cons.constrained):
            key = tuple(int(v) for v in piece.node_keys[j - 1])
            pairs = sorted((gid_to_key[int(g)], float(c)) for g, c in
                           zip(cons.masters[i], cons.coeffs[i]))
            assert [k for k, _ in pairs] == [k for k, _ in serial_view[key]]
            dev = max(abs(a - b) for (_, a), (_, b) in
                      zip(pairs, serial_view[key]))
            assert dev <= 1e-13
            n_checked += 1
    assert n_checked >= len(serial_view)


def test_owner_consistency_with_serial():
    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        4, Sphere((0.5, 0.5), 0.3), 4)
    node_of_key = {tuple(int(v) for v in k): i + 1
                   for i, k in enumerate(space.node_keys)}
    for piece in numbering.pieces:
        mesh = piece.mesh
        for j in piece.exterior_js():
            l_own = int(piece.own_local_cell[j - 1])
            key = tuple(int(v) for v in piece.node_keys[j - 1])
            node_id = node_of_key[key]
            assert mesh.global_of(l_own) == int(dofs.own_cell[node_id - 1])


def test_missing_import_reported():
    # the whisker cells aggregate across whole subdomains, so some roots
    # are not locally relevant and must come from the import buffer
    from agfem.levelset import CallableLevelSet

    def bulb(p):
        p = np.atleast_2d(p)
        strip = np.abs(p[:, 1] - 0.5) - 0.03
        strip = np.maximum(strip, 0.08 - p[:, 0])
        disk = np.linalg.norm(p - np.array([0.15, 0.5]), axis=-1) - 0.12
        return np.minimum(strip, disk)

    grid, cls, fa, space, dofs, rm, meshes, rt, dist, numbering = _setup(
        5, CallableLevelSet(bulb, "bulb"), 8)
    hit = False
    for piece, mesh in zip(numbering.pieces, meshes):
        plan = build_direct_plan(mesh, dist)
        if any(not mesh.is_relevant(int(k)) for k in plan.remote_roots):
            empty = RootDataBuffer(s=piece.s, z_of={}, coords=[], dofs=[])
            with pytest.raises(MissingImportError, match="neither locally"):
                build_constraints_distributed(piece, dist, empty)
            hit = True
    assert hit
