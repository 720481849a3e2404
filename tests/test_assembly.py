import collections

import numpy as np
import pytest

from agfem import assembly, geometry
from agfem import experiments as ex
from agfem.aggregation import aggregate_parallel, aggregate_serial
from dataclasses import replace

from agfem.assembly import (AssemblyError, CellMatrices, TauUnboundedError,
                            assemble_distributed, assemble_serial,
                            export_matrix_coo, nitsche_tau_agg,
                            poisson_elements)
from agfem.distagg import build_direct_plan, build_inverse_plan, import_root_data
from agfem.distspace import (build_constraints_distributed,
                             number_dofs_distributed)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs, shape_gradients, shape_values)
from agfem.geometry import classify_cells, cut_quadrature
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Popcorn, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import (all_points_elements, classified, full_bulk_rule,
                      oracle_assembly, oracle_cell_sums, phase_memory,
                      prolongate, std_taus, tau_std_oracle, to_scipy)


def test_tau_agg_values():
    assert nitsche_tau_agg(0.25, 10.0) == 40.0
    assert nitsche_tau_agg(1.0, 1.0) == 1.0
    assert nitsche_tau_agg(0.5, 100.0) == 200.0
    with pytest.raises(ValueError):
        nitsche_tau_agg(0.0, 10.0)


def test_tau_std_grows_as_cut_shrinks():
    grid = unit_box_grid(0, 2)
    taus = []
    for frac in (0.5, 0.1, 0.01, 0.001):
        ls = HalfPlane((1, 0), frac)
        cls = classify_cells(grid, ls)
        taus.append(std_taus(cls, cut_quadrature(grid, ls, cls),
                             10.0)[0])
    assert all(taus[i] < taus[i + 1] for i in range(3)), taus
    assert taus[0] >= nitsche_tau_agg(1.0, 10.0)


def test_tau_std_needs_boundary_and_floors_degenerate_rules():
    grid = unit_box_grid(0, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.5))
    # a cell without interface points gets no penalty: no term reads it
    interior = HalfPlane((1, 0), 5.0)
    quad = cut_quadrature(grid, interior, classify_cells(grid, interior))
    assert np.array_equal(
        std_taus(classify_cells(grid, interior), quad, 10.0), [0.0])
    # degenerate boundary rule with zero weight: B = 0, floored at beta/h
    base = cut_quadrature(grid, HalfPlane((1, 0), 0.5), cls)
    degenerate = replace(
        base, boundary_points=base.boundary_points[:1],
        boundary_weights=np.zeros(1),
        boundary_normals=base.boundary_normals[:1],
        boundary_offsets=np.array([0, 1]))
    assert std_taus(cls, degenerate, 10.0)[0] == \
        nitsche_tau_agg(1.0, 10.0)


@pytest.mark.parametrize("ls, d, level", [
    (Sphere((0.5, 0.5), 0.3), 2, 6),
    (Sphere((0.531, 0.472), 0.3), 2, 7),
    (Popcorn(), 3, 3),
], ids=["circle-L6", "offset-circle-L7", "popcorn-L3"])
def test_batched_tau_std_matches_the_per_cell_eigenproblems(ls, d, level):
    grid, cls, _ = classified(level, ls, d)
    quad = cut_quadrature(grid, ls, cls)
    taus = std_taus(cls, quad, 10.0)
    cells = np.flatnonzero(np.diff(quad.boundary_offsets)) + 1
    want = [tau_std_oracle(cls, int(k), quad, 10.0) for k in cells]
    assert cells.size > 100
    assert taus[cells - 1] == pytest.approx(want, rel=1e-8, abs=0)
    assert not np.any(np.delete(taus, cells - 1))


def test_tau_std_names_the_cell_with_a_singular_volume_form():
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, _ = classified(4, ls)
    quad = cut_quadrature(grid, ls, cls)
    cells = np.flatnonzero(np.diff(quad.boundary_offsets)) + 1
    k = int(cells[3])
    weights = quad.weights.copy()
    for j in (k, int(cells[8])):   # the error names the first
        weights[quad.offsets[j - 1]:quad.offsets[j]] = 0.0
    with pytest.raises(TauUnboundedError, match=f"^cell {k}: "):
        std_taus(cls, replace(quad, weights=weights), 10.0)
    with pytest.raises(TauUnboundedError, match=f"^cell {k}$"):
        tau_std_oracle(cls, k, replace(quad, weights=weights), 10.0)


def test_interior_stiffness_stencil():
    # bilinear Laplace matrix on the unit cell: diagonal 2/3, edge
    # neighbors -1/6, opposite corner -1/3, zero row sums
    grid, cls, _ = classified(0, HalfPlane((1, 0), 5.0))
    quad = cut_quadrature(grid, HalfPlane((1, 0), 5.0), cls)
    mats, vecs = poisson_elements(cls, quad, lambda V: 0.0)
    A = mats[0]
    expected = np.array([
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3]])
    assert np.allclose(A, expected, atol=1e-14)
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(vecs[0], 0.0)


def _cell_element(cls, quad, k, tau, f, g):
    """Element matrix and vector of one cell, integrated over its own run
    of ``quad``, which holds every cell's bulk rule: the per-cell
    reference for the batched pass."""
    grid = cls.grid
    bulk = slice(*quad.offsets[k - 1:k + 1])
    bnd = slice(*quad.boundary_offsets[k - 1:k + 1])
    xi = cls.reference_coords(k, quad.points[bulk])
    grads = shape_gradients(xi) / grid.h
    w = quad.weights[bulk]
    A = np.einsum("nad,nbd,n->ab", grads, grads, w)
    b = shape_values(xi).T @ (w * f(quad.points[bulk]))
    xib = cls.reference_coords(k, quad.boundary_points[bnd])
    vals = shape_values(xib)
    gn = np.einsum("nad,nd->na", shape_gradients(xib) / grid.h,
                   quad.boundary_normals[bnd])
    w = quad.boundary_weights[bnd]
    A += tau * np.einsum("na,nb,n->ab", vals, vals, w)
    A -= np.einsum("na,nb,n->ab", vals, gn, w)
    A -= np.einsum("na,nb,n->ab", gn, vals, w)
    b += (tau * vals - gn).T @ (w * g(quad.boundary_points[bnd]))
    return A, b


def test_elements_match_per_cell_integration():
    # popcorn L3 spans many point chunks, so cells straddle chunk ends
    ls = Popcorn()
    grid, cls, _ = classified(3, ls, 3)
    quad = cut_quadrature(grid, ls, cls)
    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    g = lambda p: p[:, 2] ** 2
    taus = 10.0 + np.arange(cls.n_active) % 7
    mats, vecs = poisson_elements(cls, quad, lambda V: taus, f, g)
    full = full_bulk_rule(cls, quad)
    for k in range(1, cls.n_active + 1):
        A, b = _cell_element(cls, full, k, taus[k - 1], f, g)
        assert np.allclose(mats[k - 1], A, rtol=0, atol=1e-13 * np.abs(A).max())
        assert np.allclose(vecs[k - 1], b, rtol=0,
                           atol=1e-13 * max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("level, ls, d", [
    (6, Sphere((0.5, 0.5), 0.3), 2), (3, Popcorn(), 3)],
    ids=["circle-2d-L6", "popcorn-3d-L3"])
def test_reference_element_matches_all_points_oracle(level, ls, d):
    # interior cells take one reference element; every cell must match
    # point-by-point integration over its whole run of the store
    grid, cls, _ = classified(level, ls, d)
    quad = cut_quadrature(grid, ls, cls)
    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    g = lambda p: p[:, -1] ** 2
    taus = 10.0 + np.arange(cls.n_active) % 7
    got = poisson_elements(cls, quad, lambda V: taus, f, g)
    want = all_points_elements(cls, quad, taus, f, g)
    assert cls.interior_ids.size and cls.cut_ids.size
    for ids in (cls.interior_ids, cls.cut_ids):
        for a, b in zip(got, want):
            a = a[ids - 1].reshape(ids.size, -1)
            b = b[ids - 1].reshape(ids.size, -1)
            scale = np.abs(b).max(axis=1)
            assert np.all(np.abs(a - b).max(axis=1) <= 1e-13 * scale)


def test_homogeneous_data_gives_zero_vector():
    grid, cls, fa = classified(1, HalfPlane((1, 0), 0.75))
    k = int(cls.cut_ids[0])
    quad = cut_quadrature(grid, HalfPlane((1, 0), 0.75), cls)
    mats, vecs = poisson_elements(cls, quad, lambda V: 10.0,
                                  f=lambda p: np.zeros(p.shape[0]),
                                  g=lambda p: np.zeros(p.shape[0]))
    assert np.allclose(vecs[k - 1], 0.0)


def _synthetic_boundary(grid, lattice):
    """Outer edges of a boundary cell as a hand-built interface rule."""
    lo = grid.cell_origin(lattice)
    hi = lo + grid.h
    n = grid.n_per_axis
    x, w = np.polynomial.legendre.leggauss(3)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    pts, wts, nrm = [], [], []
    sides = []
    if lattice[0] == 0:
        sides.append((np.array([-1.0, 0.0]), lo[0]))
    if lattice[0] == n - 1:
        sides.append((np.array([1.0, 0.0]), hi[0]))
    for normal, xpos in sides:
        pts.append(np.stack([np.full(3, xpos), lo[1] + t * grid.h[1]], axis=1))
        wts.append(wt * grid.h[1])
        nrm.append(np.broadcast_to(normal, (3, 2)).copy())
    sides = []
    if lattice[1] == 0:
        sides.append((np.array([0.0, -1.0]), lo[1]))
    if lattice[1] == n - 1:
        sides.append((np.array([0.0, 1.0]), hi[1]))
    for normal, ypos in sides:
        pts.append(np.stack([lo[0] + t * grid.h[0], np.full(3, ypos)], axis=1))
        wts.append(wt * grid.h[0])
        nrm.append(np.broadcast_to(normal, (3, 2)).copy())
    return np.vstack(pts), np.concatenate(wts), np.vstack(nrm)


def test_patch_consistency_for_harmonic_solution():
    # 2x2 fully active patch with Nitsche data on the outer boundary and
    # the exact harmonic solution u = x + y: the assembled residual vanishes
    grid, cls, _ = classified(1, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls)
    u = lambda p: p[:, 0] + p[:, 1]
    tau = nitsche_tau_agg(0.5, 10.0)
    base = cut_quadrature(grid, HalfPlane((1, 0), 5.0), cls)
    rules = [_synthetic_boundary(grid, cls.lattice_of(k))
             for k in range(1, cls.n_active + 1)]
    quad = replace(
        base, boundary_points=np.vstack([r[0] for r in rules]),
        boundary_weights=np.concatenate([r[1] for r in rules]),
        boundary_normals=np.vstack([r[2] for r in rules]),
        boundary_offsets=np.cumsum([0] + [r[1].size for r in rules]))
    elements = poisson_elements(cls, quad, lambda V: tau, None, u)
    A, b = assemble_serial(space, None, None, elements)
    nodal = u(space.node_coords)
    assert np.max(np.abs(A @ nodal - b)) < 1e-12


def _serial_agg_system(level, ls, beta=10.0, f=None, g=None, d=2):
    grid, cls, fa = classified(level, ls, d)
    rm = aggregate_serial(cls)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    cons = build_constraints_serial(space, dofs, rm)
    quad = cut_quadrature(grid, ls, cls)
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), beta))
    elements = poisson_elements(cls, quad, lambda V: taus, f, g)
    A, b = assemble_serial(space, dofs, cons, elements)
    return grid, cls, space, dofs, cons, quad, taus, elements, A, b


def test_all_interior_assembly_is_standard():
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(1, HalfPlane((1, 0), 5.0))
    assert cons.n_constrained == 0
    A_std, b_std = assemble_serial(space, None, None, elements)
    assert abs(to_scipy(A) - to_scipy(A_std)).max() == 0.0
    assert np.array_equal(b, b_std)


def test_matrix_symmetry():
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(4, Sphere((0.5, 0.5), 0.3))
    A = to_scipy(A)
    dev = abs(A - A.T).max()
    assert dev <= 1e-12 * abs(A).max()


def _direct_energy(space, dofs, cons, quad, taus, full):
    """a(v, v) integrated directly from the prolongated nodal function, at
    every bulk point of every active cell."""
    cls = space.classification
    grid = cls.grid
    quad = full_bulk_rule(cls, quad)
    cells = quad.bulk_cells()
    nodal = full[space.cell_dofs[cells - 1] - 1]
    xi = cls.reference_coords(cells, quad.points)
    gv = np.einsum("nad,na->nd", shape_gradients(xi) / grid.h, nodal)
    total = float(quad.weights @ np.sum(gv * gv, axis=1))
    cells = quad.boundary_cells()
    nodal = full[space.cell_dofs[cells - 1] - 1]
    xib = cls.reference_coords(cells, quad.boundary_points)
    vv = np.einsum("na,na->n", shape_values(xib), nodal)
    gb = np.einsum("nad,na->nd", shape_gradients(xib) / grid.h, nodal)
    gn = np.einsum("nd,nd->n", gb, quad.boundary_normals)
    w = quad.boundary_weights
    return total + float(w @ (taus[cells - 1] * vv * vv - 2.0 * vv * gn))


def test_energy_identity_against_direct_integration(rng):
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(3, Sphere((0.5, 0.5), 0.3))
    for _ in range(5):
        v = rng.standard_normal(dofs.n_interior)
        full = prolongate(dofs, cons, v)
        quad_energy = _direct_energy(space, dofs, cons, quad, taus, full)
        matrix_energy = float(v @ (A @ v))
        assert abs(quad_energy - matrix_energy) <= 1e-11 * max(
            1.0, abs(matrix_energy))


def test_spd_for_aggregated_space():
    for offset_frac in (0.5, 1e-3, 1e-6):
        ls = HalfPlane((1, 0), 0.5 + offset_frac * 0.0625)
        grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
            _serial_agg_system(4, ls)
        np.linalg.cholesky(A.toarray())  # raises if not SPD


def test_unknown_dof_rejected():
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(2, HalfPlane((1, 0), 0.6))
    cons_missing = type(cons)(constrained=cons.constrained[:-1],
                              masters=cons.masters[:-1],
                              coeffs=cons.coeffs[:-1])
    with pytest.raises(AssemblyError, match="neither"):
        assemble_serial(space, dofs, cons_missing, elements)
    # a free DOF without a row (-1) in a cell whose other DOFs are free
    j = int(space.cell_dofs[cls.interior_ids[0] - 1, -1])
    row_of = dofs.row_of.copy()
    row_of[j - 1] = -1
    first = space.cell_dofs[dofs.own_cell[j - 1] - 1]
    assert np.sum(row_of[first - 1] > 0) == first.size - 1
    with pytest.raises(AssemblyError, match=f"DOF {j} has neither"):
        assemble_serial(space, replace(dofs, row_of=row_of), cons, elements)


def _distributed_system(cls, n_parts, elements):
    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(n_parts)
    dist = aggregate_parallel(rt, meshes)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes)
    buffers = import_root_data(rt, numbering, direct, inverse)
    dcons = [build_constraints_distributed(p, dist, bf)
             for p, bf in zip(numbering.pieces, buffers)]
    system = assemble_distributed(rt, numbering, dcons, elements)
    return system, numbering, dcons


def test_distributed_assembly_single_process_exact():
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(3, ls, g=lambda p: p[:, 0])
    system, *_ = _distributed_system(cls, 1, elements)
    A_d, b_d = system.gather()
    assert abs(to_scipy(A_d) - to_scipy(A)).max() == 0.0
    assert np.array_equal(b_d, b)


@pytest.mark.parametrize("d, level, ls, n_parts", [
    (2, 5, Sphere((0.5, 0.5), 0.3), 4),
    (3, 3, Popcorn(), 8),
], ids=["circle-2d-L5-P4", "popcorn-3d-L3-P8"])
def test_distributed_assembly_matches_serial(d, level, ls, n_parts):
    # the canonical summation order makes the systems bitwise equal, and
    # the global ids are the serial rows
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(level, ls, g=lambda p: np.sum(p, axis=1), d=d)
    system, *_ = _distributed_system(cls, n_parts, elements)
    A_d, b_d = system.gather()
    _assert_bitwise(A_d, b_d, A, b)
    assert (A.data == 0).sum() == 0


def _assert_bitwise(A, b, A_ref, b_ref):
    assert np.array_equal(A.indptr, A_ref.indptr)
    assert np.array_equal(A.indices, A_ref.indices)
    assert np.array_equal(A.data.view(np.int64), A_ref.data.view(np.int64))
    assert np.array_equal(b.view(np.int64), b_ref.view(np.int64))


@pytest.mark.parametrize("n_parts", [1, 3])
@pytest.mark.parametrize("d, level, ls", [
    (2, 5, Sphere((0.5, 0.5), 0.3)), (3, 3, Popcorn()),
    (3, 3, Sphere((0.5, 0.5, 0.5), 0.35))],
    ids=["circle-2d-L5", "popcorn-3d-L3", "sphere-3d-L3"])
def test_kernel_matches_per_cell_oracle(d, level, ls, n_parts):
    # free cells skip C and constrained ones go in padded batches, yet
    # every entry sums in the order of the per-cell dense product; with
    # f = None the interior load vectors are zeros that must be dropped
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(level, ls, g=lambda p: np.sum(p, axis=1), d=d)
    _assert_bitwise(A, b, *oracle_assembly(
        [(space.cell_dofs, np.arange(1, cls.n_active + 1), dofs.row_of)],
        [cons], elements, dofs.n_interior))
    system, numbering, dcons = _distributed_system(cls, n_parts, elements)
    _assert_bitwise(*system.gather(), *oracle_assembly(
        [piece.owned_cells() for piece in numbering.pieces], dcons, elements,
        numbering.n_global))


@pytest.mark.parametrize("n_parts", [1, 8])
def test_long_sums_add_left_to_right_in_cell_order(n_parts):
    # popcorn L3 has entries with 8 or more cell sums, where a pairwise or
    # unrolled reduction rounds unlike the left fold in global-cell order
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(3, Popcorn(), g=lambda p: np.sum(p, axis=1), d=3)
    system, numbering, dcons = _distributed_system(cls, n_parts, elements)
    subdomains = [piece.owned_cells() for piece in numbering.pieces]
    terms = collections.Counter(
        (row, col) for row, col, _, _ in oracle_cell_sums(
            subdomains, dcons, elements, numbering.n_global))
    assert sum(n >= 8 for n in terms.values()) > 100
    _assert_bitwise(*system.gather(), *oracle_assembly(
        subdomains, dcons, elements, numbering.n_global))


def test_assembly_scratch_follows_the_live_data(monkeypatch):
    # circle L8 streams 379k cell sums; the assemble phase may hold at
    # most 1.75 times the larger of the data live before and after it,
    # which a key per cell sum would exceed
    before, after, peak = phase_memory(
        monkeypatch, ex.ExperimentConfig(level=8), {"assemble"})["assemble"]
    assert peak <= 1.75 * max(before, after), (before, after, peak)


def test_3d_element_and_norm_scratch_follow_the_live_data(monkeypatch):
    # popcorn L4: the point passes work in chunks of whole cells, the
    # dense sums a batch of cells at a time into one stream, and the
    # pattern keeps no room for repeated keys, so neither phase holds
    # more than 1.3 times the larger of its live data before and after
    live = phase_memory(monkeypatch, ex.ExperimentConfig(
        geometry="popcorn", dimension=3, level=4, solution="sine"),
        {"assemble", "norms"})
    for before, after, peak in live.values():
        assert peak <= 1.3 * max(before, after), live


@pytest.mark.parametrize("d, level, ls", [
    (2, 5, Sphere((0.5, 0.5), 0.3)), (3, 3, Popcorn())],
    ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_results_do_not_depend_on_the_chunk_sizes(monkeypatch, d, level, ls):
    # chunks end at cell boundaries, so a cell sums its points in one run
    # whatever the chunk sizes; 37 gives chunks of one cell, cells larger
    # than a chunk, and one lattice row per slab
    def run():
        grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
            _serial_agg_system(level, ls, f=lambda p: np.sum(p ** 2, axis=1),
                               g=lambda p: np.sum(p, axis=1), d=d)
        system, *_ = _distributed_system(cls, 3, elements)
        return (cls, quad, elements, (A, b), system.gather(),
                std_taus(cls, quad, 10.0))

    results = []
    for size in (8192, 37):
        for module in (geometry, assembly):
            monkeypatch.setattr(module, "CHUNK_POINTS", size)
            monkeypatch.setattr(module, "KERNEL_CHUNK", size)
        results.append(run())
    (cls, quad, (mats, vecs), serial, dist, taus), other = results

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()

    for name in ("labels", "active_id", "vertex_values", "face_ids",
                 "face_open"):
        assert same(getattr(cls, name), getattr(other[0], name)), name
    for name in vars(quad):
        assert same(getattr(quad, name), getattr(other[1], name)), name
    other_mats, other_vecs = other[2]
    for name in ("reference", "ids", "own"):
        assert same(getattr(mats, name), getattr(other_mats, name)), name
    assert same(vecs, other_vecs) and same(taus, other[5])
    _assert_bitwise(*serial, *other[3])
    _assert_bitwise(*dist, *other[4])


@pytest.mark.parametrize("level, ls, d, n_parts", [
    (4, Sphere((0.5, 0.5), 0.3), 2, 1), (3, Popcorn(), 3, 1),
    (4, Sphere((0.5, 0.5), 0.3), 2, 3), (3, Popcorn(), 3, 3)],
    ids=["circle-2d-L4", "popcorn-3d-L3", "circle-2d-L4-P3",
         "popcorn-3d-L3-P3"])
def test_standard_space_matches_per_cell_oracle(level, ls, d, n_parts):
    # every DOF of the standard space is free: at P = 1 every cell is a
    # stencil cell, at P = 3 the cells with a row owned elsewhere take the
    # dense product; zeros of either sign are dropped as in the oracle
    grid, cls, _ = classified(level, ls, d)
    space = build_std_space(cls)
    quad = cut_quadrature(grid, ls, cls)
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), 10.0))
    mats, vecs = poisson_elements(cls, quad, lambda V: taus, None,
                                  lambda p: p[:, 0])
    full = mats[:]
    full[::3, 0, 1] = -0.0
    mats = CellMatrices(mats.reference, np.arange(1, cls.n_active + 1), full,
                        cls.n_active)
    vecs[cls.cut_ids[::2] - 1] = -0.0
    assert cls.cut_ids.size
    n = space.n_dofs
    _assert_bitwise(*assemble_serial(space, None, None, (mats, vecs)),
                    *oracle_assembly([(space.cell_dofs,
                                       np.arange(1, cls.n_active + 1),
                                       np.arange(1, n + 1))],
                                     [None], (mats, vecs), n))
    rt = VirtualRuntime(n_parts)
    numbering = number_dofs_distributed(rt, build_subdomain_meshes(
        cls, partition_weighted_sfc(cls, n_subdomains=n_parts)),
        interior_only=False)
    system = assemble_distributed(rt, numbering, [None] * n_parts,
                                  (mats, vecs))
    _assert_bitwise(*system.gather(), *oracle_assembly(
        [piece.owned_cells() for piece in numbering.pieces],
        [None] * n_parts, (mats, vecs), numbering.n_global))


def test_matrix_export_format(tmp_path):
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(2, HalfPlane((1, 0), 0.6))
    path = tmp_path / "matrix.txt"
    export_matrix_coo(A, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == to_scipy(A).tocoo().nnz
    row, col, val = lines[0].split()
    assert int(row) >= 1 and int(col) >= 1
    float(val)


def test_an_assembly_key_outside_the_owned_rows_exits_3(monkeypatch,
                                                        tmp_path):
    # a pair moved to row 1, which subdomain 1 owns, reaches another owner
    from click.testing import CliRunner

    from agfem import cli

    moved = []

    def move(phase, step, src, dst, payload):
        if phase == "assembly" and dst > 1 and not moved:
            key, val = payload
            key = key.copy()
            key[0] = 0
            moved.append((src, dst))
            payload = (key, val)
        return payload

    monkeypatch.setattr(ex, "VirtualRuntime", lambda n, trace=False:
                        VirtualRuntime(n, trace=trace, payload_filter=move))
    res = CliRunner().invoke(cli.main, [
        "solve", "--geometry", "offset-circle", "--level", "5", "--procs",
        "4", "--out", str(tmp_path)])
    (src, dst), = moved
    assert res.exit_code == 3
    assert (f"subdomain {dst}: assembly payload from {src} carries a key of "
            f"row 1, outside the owned rows ") in res.output


@pytest.mark.parametrize("cut", ["keys", "values"])
def test_assembly_pairs_of_unequal_length_are_a_protocol_error(cut):
    from agfem.experiments import ExperimentConfig, run_solve_pipeline
    from agfem.runtime import RuntimeProtocolError

    def drop(phase, step, src, dst, payload):
        if phase == "assembly":
            key, val = payload
            payload = (key[:-1], val) if cut == "keys" else (key, val[:-1])
        return payload

    cfg = ExperimentConfig(geometry="offset-circle", level=5,
                           procs=4).validate()
    with pytest.raises(RuntimeProtocolError,
                       match="is not a pair of integer keys and as many"):
        run_solve_pipeline(cfg, runtime=VirtualRuntime(
            4, payload_filter=drop))
