import numpy as np
import pytest
import scipy.sparse as sp

from agfem.aggregation import aggregate_serial
from agfem.assembly import (AssemblyError, assemble_distributed, assemble_serial,
                            element_poisson_nitsche, export_matrix_coo,
                            nitsche_tau_agg, nitsche_tau_std, poisson_elements)
from agfem.distagg import aggregate_parallel, build_direct_plan, build_inverse_plan, import_root_data
from agfem.distspace import (build_constraints_distributed,
                             distributed_row_permutation,
                             number_dofs_distributed, root_cell_data_provider)
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs, prolongate, shape_gradients,
                           shape_values)
from agfem.geometry import CutQuadrature, classify_cells, cut_quadrature
from agfem.grid import unit_box_grid
from agfem.levelset import HalfPlane, Popcorn, Sphere
from agfem.partition import build_subdomain_meshes, partition_weighted_sfc
from agfem.runtime import VirtualRuntime

from conftest import classified


def test_tau_agg_values():
    assert nitsche_tau_agg(0.25, 10.0) == 40.0
    assert nitsche_tau_agg(1.0, 1.0) == 1.0
    assert nitsche_tau_agg(0.5, 100.0) == 200.0
    with pytest.raises(ValueError):
        nitsche_tau_agg(0.0, 10.0)


def test_tau_std_grows_as_cut_shrinks():
    grid = unit_box_grid(0, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.5))
    space = build_std_space(cls, 1)
    taus = []
    for frac in (0.5, 0.1, 0.01, 0.001):
        ls = HalfPlane((1, 0), frac)
        quad = cut_quadrature(grid, ls, (0, 0), 4)
        taus.append(nitsche_tau_std(space, 1, quad, 10.0))
    assert all(taus[i] < taus[i + 1] for i in range(3)), taus
    assert taus[0] >= nitsche_tau_agg(1.0, 10.0)


def test_tau_std_needs_boundary_and_floors_degenerate_rules():
    grid = unit_box_grid(0, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.5))
    space = build_std_space(cls, 1)
    quad = cut_quadrature(grid, HalfPlane((1, 0), 5.0), (0, 0), 2)
    with pytest.raises(ValueError, match="no boundary rule"):
        nitsche_tau_std(space, 1, quad, 10.0)
    # degenerate boundary rule with zero weight: B = 0, floored at beta/h
    base = cut_quadrature(grid, HalfPlane((1, 0), 0.5), (0, 0), 2)
    degenerate = CutQuadrature(
        points=base.points, weights=base.weights,
        boundary_points=base.boundary_points[:1],
        boundary_weights=np.zeros(1),
        boundary_normals=base.boundary_normals[:1])
    assert nitsche_tau_std(space, 1, degenerate, 10.0) == \
        nitsche_tau_agg(1.0, 10.0)


def test_interior_stiffness_stencil():
    # bilinear Laplace matrix on the unit cell: diagonal 2/3, edge
    # neighbors -1/6, opposite corner -1/3, zero row sums
    grid, cls, _ = classified(0, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls, 1)
    quad = cut_quadrature(grid, HalfPlane((1, 0), 5.0), (0, 0), 4)
    elem = element_poisson_nitsche(space, 1, quad, 0.0)
    A = elem.matrix
    expected = np.array([
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3]])
    assert np.allclose(A, expected, atol=1e-14)
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(elem.vector, 0.0)


def test_homogeneous_data_gives_zero_vector():
    grid, cls, fa = classified(1, HalfPlane((1, 0), 0.75))
    space = build_std_space(cls, 1)
    k = int(cls.cut_ids[0])
    quad = cut_quadrature(grid, HalfPlane((1, 0), 0.75), cls.lattice_of(k), 4)
    elem = element_poisson_nitsche(space, k, quad, 10.0,
                                   f=lambda p: np.zeros(p.shape[0]),
                                   g=lambda p: np.zeros(p.shape[0]))
    assert np.allclose(elem.vector, 0.0)


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
    space = build_std_space(cls, 1)
    u = lambda p: p[:, 0] + p[:, 1]
    tau = nitsche_tau_agg(0.5, 10.0)
    elements = []
    for k in range(1, cls.n_active + 1):
        base = cut_quadrature(grid, HalfPlane((1, 0), 5.0),
                              cls.lattice_of(k), 4)
        bp, bw, bn = _synthetic_boundary(grid, cls.lattice_of(k))
        quad = CutQuadrature(base.points, base.weights, bp, bw, bn)
        elements.append(element_poisson_nitsche(space, k, quad, tau, None, u))
    A, b = assemble_serial(space, None, None, elements)
    nodal = u(space.node_coords)
    assert np.max(np.abs(A @ nodal - b)) < 1e-12


def _serial_agg_system(level, ls, beta=10.0, f=None, g=None, d=2):
    grid, cls, fa = classified(level, ls, d)
    rm = aggregate_serial(cls, fa)
    space = build_std_space(cls, 1)
    dofs = classify_dofs(space, cls, rm)
    cons = build_constraints_serial(space, dofs, rm)
    quads = [cut_quadrature(grid, ls, cls.lattice_of(k), 4)
             for k in range(1, cls.n_active + 1)]
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), beta))
    elements = poisson_elements(space, quads, taus, f, g)
    A, b = assemble_serial(space, dofs, cons, elements)
    return grid, cls, space, dofs, cons, quads, taus, elements, A, b


def test_all_interior_assembly_is_standard():
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(1, HalfPlane((1, 0), 5.0))
    assert cons.n_constrained == 0
    A_std, b_std = assemble_serial(space, None, None, elements)
    assert abs(A - A_std).max() == 0.0
    assert np.array_equal(b, b_std)


def test_matrix_symmetry():
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(4, Sphere((0.5, 0.5), 0.3))
    dev = abs(A - A.T).max()
    assert dev <= 1e-12 * abs(A).max()


def _direct_energy(space, dofs, cons, quads, taus, full):
    """a(v, v) integrated directly from the prolongated nodal function."""
    cls = space.classification
    grid = cls.grid
    total = 0.0
    for k in range(1, cls.n_active + 1):
        quad = quads[k - 1]
        nodal = full[space.cell_dofs[k - 1] - 1]
        if quad.weights.size:
            xi = space.reference_coords(k, quad.points)
            gv = np.einsum("nad,a->nd",
                           shape_gradients(space.q, grid.d, xi) / grid.h, nodal)
            total += float(quad.weights @ np.sum(gv * gv, axis=1))
        if quad.has_boundary:
            xib = space.reference_coords(k, quad.boundary_points)
            vv = shape_values(space.q, grid.d, xib) @ nodal
            gb = np.einsum("nad,a->nd",
                           shape_gradients(space.q, grid.d, xib) / grid.h,
                           nodal)
            gn = np.einsum("nd,nd->n", gb, quad.boundary_normals)
            w = quad.boundary_weights
            total += float(w @ (taus[k - 1] * vv * vv - 2.0 * vv * gn))
    return total


def test_energy_identity_against_direct_integration(rng):
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(3, Sphere((0.5, 0.5), 0.3))
    for _ in range(5):
        v = rng.standard_normal(dofs.n_interior)
        full = prolongate(dofs, cons, v)
        quad_energy = _direct_energy(space, dofs, cons, quads, taus, full)
        matrix_energy = float(v @ (A @ v))
        assert abs(quad_energy - matrix_energy) <= 1e-11 * max(
            1.0, abs(matrix_energy))


def test_spd_for_aggregated_space():
    for offset_frac in (0.5, 1e-3, 1e-6):
        ls = HalfPlane((1, 0), 0.5 + offset_frac * 0.0625)
        grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
            _serial_agg_system(4, ls)
        np.linalg.cholesky(A.toarray())  # raises if not SPD


def test_unknown_dof_rejected():
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(2, HalfPlane((1, 0), 0.6))
    broken = sp.csr_matrix((dofs.n_interior, dofs.n_interior))
    cons_missing = type(cons)(constrained=cons.constrained[:-1],
                              masters=cons.masters[:-1],
                              coeffs=cons.coeffs[:-1])
    with pytest.raises(AssemblyError, match="neither"):
        assemble_serial(space, dofs, cons_missing, elements)


def _distributed_system(level, ls, n_parts, elements, space, dofs):
    grid = space.classification.grid
    cls = space.classification
    from agfem.geometry import face_is_active

    def fa(a, b):
        return face_is_active(grid, ls, cls.lattice_of(a), cls.lattice_of(b))

    part = partition_weighted_sfc(cls, n_subdomains=n_parts)
    meshes = build_subdomain_meshes(cls, part)
    rt = VirtualRuntime(n_parts)
    dist = aggregate_parallel(rt, meshes, fa)
    direct = [build_direct_plan(m, dist) for m in meshes]
    inverse = build_inverse_plan(rt, meshes, dist)
    numbering = number_dofs_distributed(rt, meshes, 1)
    buffers = import_root_data(rt, meshes, direct, inverse,
                               root_cell_data_provider(numbering))
    dcons = [build_constraints_distributed(p, dist, bf)
             for p, bf in zip(numbering.pieces, buffers)]
    elems_per_s = [[elements[m.global_of(l) - 1]
                    for l in range(1, m.n_local + 1)] for m in meshes]
    system = assemble_distributed(rt, numbering, dcons, elems_per_s)
    perm = distributed_row_permutation(numbering, space, dofs)
    return system, perm


def test_distributed_assembly_single_process_exact():
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(3, ls, g=lambda p: p[:, 0])
    system, perm = _distributed_system(3, ls, 1, elements, space, dofs)
    assert sum(system.staged_counts) == 0
    A_d, b_d = system.gather()
    assert abs(A_d - A).max() == 0.0
    assert np.array_equal(b_d, b)


@pytest.mark.parametrize("d, level, ls, n_parts", [
    (2, 5, Sphere((0.5, 0.5), 0.3), 4),
    (3, 3, Popcorn(), 8),
], ids=["circle-2d-L5-P4", "popcorn-3d-L3-P8"])
def test_distributed_assembly_matches_serial(d, level, ls, n_parts):
    # the canonical summation order makes the systems bitwise equal
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(level, ls, g=lambda p: np.sum(p, axis=1), d=d)
    system, perm = _distributed_system(level, ls, n_parts, elements, space,
                                       dofs)
    A_d, b_d = system.gather()
    inv = np.argsort(perm)      # serial row -> distributed id
    A_cmp = A_d[inv][:, inv]
    A_cmp.sort_indices()
    assert np.array_equal(A_cmp.indptr, A.indptr)
    assert np.array_equal(A_cmp.indices, A.indices)
    assert np.array_equal(A_cmp.data, A.data)
    assert np.array_equal(b_d[inv], b)
    assert (A.data == 0).sum() == 0
    assert sum(system.staged_counts) > 0


def test_matrix_export_format(tmp_path):
    grid, cls, space, dofs, cons, quads, taus, elements, A, b = \
        _serial_agg_system(2, HalfPlane((1, 0), 0.6))
    path = tmp_path / "matrix.txt"
    export_matrix_coo(A, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == sp.coo_matrix(A).nnz
    row, col, val = lines[0].split()
    assert int(row) >= 1 and int(col) >= 1
    float(val)
