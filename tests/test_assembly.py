import numpy as np
import pytest
import scipy.sparse as sp

from agfem.aggregation import aggregate_parallel, aggregate_serial
from dataclasses import replace

from agfem.assembly import (AssemblyError, TauUnboundedError,
                            assemble_distributed, assemble_serial,
                            export_matrix_coo, nitsche_tau_agg, nitsche_tau_std,
                            poisson_elements)
from agfem.distagg import build_direct_plan, build_inverse_plan, import_root_data
from agfem.distspace import (build_constraints_distributed,
                             number_dofs_distributed, root_cell_data_provider)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs, shape_gradients, shape_values)
from agfem.geometry import classify_cells, cut_quadrature
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Popcorn, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import (all_points_elements, classified, oracle_assembly,
                      prolongate, tau_std_oracle)


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
        taus.append(nitsche_tau_std(cls, cut_quadrature(grid, ls, cls, 4),
                                    10.0)[0])
    assert all(taus[i] < taus[i + 1] for i in range(3)), taus
    assert taus[0] >= nitsche_tau_agg(1.0, 10.0)


def test_tau_std_needs_boundary_and_floors_degenerate_rules():
    grid = unit_box_grid(0, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.5))
    # a cell without interface points gets no penalty: no term reads it
    interior = HalfPlane((1, 0), 5.0)
    quad = cut_quadrature(grid, interior, classify_cells(grid, interior), 2)
    assert np.array_equal(
        nitsche_tau_std(classify_cells(grid, interior), quad, 10.0), [0.0])
    # degenerate boundary rule with zero weight: B = 0, floored at beta/h
    base = cut_quadrature(grid, HalfPlane((1, 0), 0.5), cls, 2)
    degenerate = replace(
        base, boundary_points=base.boundary_points[:1],
        boundary_weights=np.zeros(1),
        boundary_normals=base.boundary_normals[:1],
        boundary_offsets=np.array([0, 1]))
    assert nitsche_tau_std(cls, degenerate, 10.0)[0] == \
        nitsche_tau_agg(1.0, 10.0)


@pytest.mark.parametrize("ls, d, level", [
    (Sphere((0.5, 0.5), 0.3), 2, 6),
    (Sphere((0.531, 0.472), 0.3), 2, 7),
    (Popcorn(), 3, 3),
], ids=["circle-L6", "offset-circle-L7", "popcorn-L3"])
def test_batched_tau_std_matches_the_per_cell_eigenproblems(ls, d, level):
    grid, cls, _ = classified(level, ls, d)
    quad = cut_quadrature(grid, ls, cls, 4)
    taus = nitsche_tau_std(cls, quad, 10.0)
    cells = np.flatnonzero(np.diff(quad.boundary_offsets)) + 1
    want = [tau_std_oracle(cls, int(k), quad, 10.0) for k in cells]
    assert cells.size > 100
    assert taus[cells - 1] == pytest.approx(want, rel=1e-8, abs=0)
    assert not np.any(np.delete(taus, cells - 1))


def test_tau_std_names_the_cell_with_a_singular_volume_form():
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, _ = classified(4, ls)
    quad = cut_quadrature(grid, ls, cls, 4)
    cells = np.flatnonzero(np.diff(quad.boundary_offsets)) + 1
    k = int(cells[3])
    weights = quad.weights.copy()
    for j in (k, int(cells[8])):   # the error names the first
        weights[quad.offsets[j - 1]:quad.offsets[j]] = 0.0
    with pytest.raises(TauUnboundedError, match=f"^cell {k}: "):
        nitsche_tau_std(cls, replace(quad, weights=weights), 10.0)
    with pytest.raises(TauUnboundedError, match=f"^cell {k}$"):
        tau_std_oracle(cls, k, replace(quad, weights=weights), 10.0)


def test_interior_stiffness_stencil():
    # bilinear Laplace matrix on the unit cell: diagonal 2/3, edge
    # neighbors -1/6, opposite corner -1/3, zero row sums
    grid, cls, _ = classified(0, HalfPlane((1, 0), 5.0))
    quad = cut_quadrature(grid, HalfPlane((1, 0), 5.0), cls, 4)
    mats, vecs = poisson_elements(cls, quad, np.zeros(1))
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
    of the store: the per-cell reference for the batched pass."""
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
    quad = cut_quadrature(grid, ls, cls, 4)
    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    g = lambda p: p[:, 2] ** 2
    taus = 10.0 + np.arange(cls.n_active) % 7
    mats, vecs = poisson_elements(cls, quad, taus, f, g)
    for k in range(1, cls.n_active + 1):
        A, b = _cell_element(cls, quad, k, taus[k - 1], f, g)
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
    quad = cut_quadrature(grid, ls, cls, 4)
    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    g = lambda p: p[:, -1] ** 2
    taus = 10.0 + np.arange(cls.n_active) % 7
    got = poisson_elements(cls, quad, taus, f, g)
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
    quad = cut_quadrature(grid, HalfPlane((1, 0), 0.75), cls, 4)
    mats, vecs = poisson_elements(cls, quad, np.full(cls.n_active, 10.0),
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
    base = cut_quadrature(grid, HalfPlane((1, 0), 5.0), cls, 4)
    rules = [_synthetic_boundary(grid, cls.lattice_of(k))
             for k in range(1, cls.n_active + 1)]
    quad = replace(
        base, boundary_points=np.vstack([r[0] for r in rules]),
        boundary_weights=np.concatenate([r[1] for r in rules]),
        boundary_normals=np.vstack([r[2] for r in rules]),
        boundary_offsets=np.cumsum([0] + [r[1].size for r in rules]))
    elements = poisson_elements(cls, quad, np.full(cls.n_active, tau), None, u)
    A, b = assemble_serial(space, None, None, elements)
    nodal = u(space.node_coords)
    assert np.max(np.abs(A @ nodal - b)) < 1e-12


def _serial_agg_system(level, ls, beta=10.0, f=None, g=None, d=2):
    grid, cls, fa = classified(level, ls, d)
    rm = aggregate_serial(cls)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    cons = build_constraints_serial(space, dofs, rm)
    quad = cut_quadrature(grid, ls, cls, 4)
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), beta))
    elements = poisson_elements(cls, quad, taus, f, g)
    A, b = assemble_serial(space, dofs, cons, elements)
    return grid, cls, space, dofs, cons, quad, taus, elements, A, b


def test_all_interior_assembly_is_standard():
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(1, HalfPlane((1, 0), 5.0))
    assert cons.n_constrained == 0
    A_std, b_std = assemble_serial(space, None, None, elements)
    assert abs(A - A_std).max() == 0.0
    assert np.array_equal(b, b_std)


def test_matrix_symmetry():
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(4, Sphere((0.5, 0.5), 0.3))
    dev = abs(A - A.T).max()
    assert dev <= 1e-12 * abs(A).max()


def _direct_energy(space, dofs, cons, quad, taus, full):
    """a(v, v) integrated directly from the prolongated nodal function."""
    cls = space.classification
    grid = cls.grid
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
    buffers = import_root_data(rt, meshes, direct, inverse,
                               root_cell_data_provider(numbering))
    dcons = [build_constraints_distributed(p, dist, bf)
             for p, bf in zip(numbering.pieces, buffers)]
    system = assemble_distributed(rt, numbering, dcons, elements)
    return system, numbering, dcons


def test_distributed_assembly_single_process_exact():
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(3, ls, g=lambda p: p[:, 0])
    system, *_ = _distributed_system(cls, 1, elements)
    assert sum(system.staged_counts) == 0
    A_d, b_d = system.gather()
    assert abs(A_d - A).max() == 0.0
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
    assert sum(system.staged_counts) > 0


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
    # free cells skip C and constrained ones go in batches of products,
    # yet every entry sums in the order of the per-cell expansion; with
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


@pytest.mark.parametrize("level, ls, d", [
    (4, Sphere((0.5, 0.5), 0.3), 2), (3, Popcorn(), 3)],
    ids=["circle-2d-L4", "popcorn-3d-L3"])
def test_standard_space_matches_per_cell_oracle(level, ls, d):
    # every DOF of the standard space is free, so its cut cells take the
    # free path too; zeros of either sign are dropped as in the oracle
    grid, cls, _ = classified(level, ls, d)
    space = build_std_space(cls)
    quad = cut_quadrature(grid, ls, cls, 4)
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), 10.0))
    mats, vecs = poisson_elements(cls, quad, taus, None, lambda p: p[:, 0])
    mats[::3, 0, 1] = -0.0
    vecs[cls.cut_ids[::2] - 1] = -0.0
    assert cls.cut_ids.size
    n = space.n_dofs
    _assert_bitwise(*assemble_serial(space, None, None, (mats, vecs)),
                    *oracle_assembly([(space.cell_dofs,
                                       np.arange(1, cls.n_active + 1),
                                       np.arange(1, n + 1))],
                                     [None], (mats, vecs), n))


def test_matrix_export_format(tmp_path):
    grid, cls, space, dofs, cons, quad, taus, elements, A, b = \
        _serial_agg_system(2, HalfPlane((1, 0), 0.6))
    path = tmp_path / "matrix.txt"
    export_matrix_coo(A, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == sp.coo_matrix(A).nnz
    row, col, val = lines[0].split()
    assert int(row) >= 1 and int(col) >= 1
    float(val)
