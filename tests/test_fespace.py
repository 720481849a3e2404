import itertools

import numpy as np
import pytest

from agfem.aggregation import RootMap, aggregate_serial
from agfem.fespace import (build_constraints_serial, build_std_space,
                           classify_dofs, shape_gradients, shape_values)
from agfem.distspace import nodal_values
from agfem.experiments import ExperimentConfig, run_solve_pipeline
from agfem.grid import corner_offsets
from agfem.levelset import HalfPlane, Sphere

from conftest import classified, prolongate, random_geometry


def _agg_pipeline(level, ls):
    grid, cls, fa = classified(level, ls)
    rm = aggregate_serial(cls)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    cons = build_constraints_serial(space, dofs, rm)
    return grid, cls, space, dofs, cons


def test_single_cell_counts_and_nodal_basis():
    grid, cls, _ = classified(0, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls)
    assert space.n_dofs == 4
    xi = cls.reference_coords(1, space.node_coords)
    vals = shape_values(xi)
    assert np.allclose(vals, np.eye(4), atol=1e-14)


def test_3d_corner_values_are_the_identity():
    # the corners in corner order, x fastest, are the nodes of the basis
    grid, cls, _ = classified(0, HalfPlane((1, 0, 0), 5.0), 3)
    space = build_std_space(cls)
    assert np.array_equal(space.node_keys, corner_offsets(3))
    xi = cls.reference_coords(1, space.node_coords)
    assert np.array_equal(shape_values(xi), np.eye(8))


def test_build_std_space_is_q1_only():
    grid, cls, _ = classified(1, HalfPlane((1, 0), 5.0))
    assert build_std_space(cls, 1).n_dofs == 9
    for q in (0, 2):
        with pytest.raises(ValueError, match="only Q1"):
            build_std_space(cls, q)


def test_two_cells_share_a_face():
    grid, cls, _ = classified(1, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls)
    assert cls.n_active == 4
    assert space.n_dofs == 9
    # restrict to the bottom two cells: 6 DOFs with 2 shared
    bottom = np.unique(space.cell_dofs[[0, 1]])
    assert bottom.size == 6


def test_partition_of_unity_and_gradient_consistency(rng):
    pts = rng.random((20, 2)) * 3.0 - 1.0  # includes extrapolation range
    vals = shape_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    grads = shape_gradients(pts)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_gradients_are_central_differences_of_the_values(rng, d):
    # the shape functions are multilinear, so a central difference along
    # one axis is exact up to rounding, at any step
    pts = rng.random((50, d)) * 3.0 - 1.0
    grads = shape_gradients(pts)
    assert grads.shape == (50, 2**d, d)
    for axis in range(d):
        step = np.zeros(d)
        step[axis] = 0.25
        diff = (shape_values(pts + step) - shape_values(pts - step)) / 0.5
        assert np.allclose(grads[:, :, axis], diff, rtol=0, atol=1e-13)


def test_classify_dofs_all_interior():
    grid, cls, _ = classified(1, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    assert dofs.exterior_ids.size == 0
    assert dofs.n_interior == space.n_dofs


def test_classify_dofs_exterior_line():
    grid, cls, space, dofs, cons = _agg_pipeline(2, HalfPlane((1, 0), 0.6))
    # exterior DOFs are exactly the 5 nodes on x = 0.75
    assert dofs.exterior_ids.size == 5
    coords = space.node_coords[dofs.exterior_ids - 1]
    assert np.allclose(coords[:, 0], 0.75)
    assert sorted(coords[:, 1]) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert dofs.n_interior + 5 == space.n_dofs


def test_owner_cell_is_smallest_id():
    grid, cls, space, dofs, _ = _agg_pipeline(2, HalfPlane((1, 0), 0.6))
    for dof in dofs.exterior_ids:
        containing = sorted(
            k + 1 for k in range(cls.n_active)
            if dof in space.cell_dofs[k])
        assert dofs.own_cell[dof - 1] == containing[0]


def test_extrapolation_coefficients_by_hand():
    # root cell [0, 0.25]^2, constrained node at (0.5, 0)
    grid, cls, fa = classified(2, HalfPlane((1, 0) , 0.6))
    xi = cls.reference_coords(1, np.array([[0.5, 0.0]]))
    coeffs = shape_values(xi)[0]
    assert np.allclose(coeffs, [-1.0, 2.0, 0.0, 0.0], atol=1e-14)


def test_constraints_reproduce_polynomials(rng):
    for _ in range(10):
        level, ls = random_geometry(rng, max_level=4)
        grid, cls, fa = classified(level, ls)
        if cls.interior_ids.size == 0:
            continue
        rm = aggregate_serial(cls)
        space = build_std_space(cls)
        dofs = classify_dofs(space, cls)
        cons = build_constraints_serial(space, dofs, rm)
        assert np.allclose(cons.coeffs.sum(axis=1), 1.0, atol=1e-13)
        assert cons.masters.shape[1] == 4
        x = space.node_coords[:, 0]
        y = space.node_coords[:, 1]
        for poly in (np.ones_like(x), x, y, x * y):
            full = prolongate(dofs, cons, poly[dofs.interior_ids - 1])
            assert np.max(np.abs(full - poly)) < 1e-12


@pytest.mark.parametrize("procs", [1, 3])
@pytest.mark.parametrize("params", [
    dict(geometry="offset-circle", level=5),
    dict(geometry="popcorn", dimension=3, level=3),
], ids=["2d", "3d"])
def test_pipeline_constraints_reproduce_polynomials(params, procs):
    # the constraints of every subdomain, and the nodal values the error
    # norms read, reproduce every Q1 monomial from its free values
    out = run_solve_pipeline(ExperimentConfig(procs=procs, **params).validate())
    numbering, constraints = out.numbering, out.constraints
    d = out.grid.d
    coords = np.full((numbering.n_global, d), np.nan)
    for piece in numbering.pieces:
        gid = piece.gid_of(piece.node_codes)
        coords[gid[gid > 0] - 1] = piece.node_coords[gid > 0]
    assert not np.isnan(coords).any()
    space = build_std_space(out.classification)
    cell_coords = space.node_coords[space.cell_dofs - 1]
    n_constrained = 0
    for powers in itertools.product((0, 1), repeat=d):
        def poly(p):
            return np.prod(p ** np.array(powers), axis=-1)

        for piece, cons in zip(numbering.pieces, constraints):
            got = np.sum(cons.coeffs * poly(coords[cons.masters - 1]), axis=1)
            want = poly(piece.node_coords[cons.constrained - 1])
            assert np.max(np.abs(got - want), initial=0.0) < 1e-12
            n_constrained += cons.n_constrained
        nodal = nodal_values(numbering, constraints, poly(coords),
                             out.classification.n_active)
        assert np.max(np.abs(nodal - poly(cell_coords))) < 1e-12
    assert n_constrained > 0


def test_constraints_equal_the_per_dof_loop():
    grid, cls, space, dofs, cons = _agg_pipeline(4, Sphere((0.531, 0.472), 0.3))
    rm = aggregate_serial(cls)
    for i, dof in enumerate(cons.constrained):
        root = rm.root_of(int(dofs.own_cell[dof - 1]))
        xi = cls.reference_coords(root, space.node_coords[dof - 1])
        assert np.array_equal(cons.masters[i],
                              dofs.row_of[space.cell_dofs[root - 1] - 1])
        assert np.array_equal(cons.coeffs[i], shape_values(xi)[0])


def test_constrained_node_on_root_node_is_unit_vector():
    # make the root cell's own node value reproduce exactly: evaluate the
    # basis at a root-cell corner
    grid, cls, space, dofs, cons = _agg_pipeline(2, HalfPlane((1, 0), 0.6))
    root = int(cls.interior_ids[0])
    corner = space.node_coords[space.cell_dofs[root - 1][0] - 1]
    xi = cls.reference_coords(root, corner[None, :])
    coeffs = shape_values(xi)[0]
    assert np.allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_prolongate_identity_and_constants():
    grid, cls, _ = classified(1, HalfPlane((1, 0), 5.0))
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    v = np.arange(1.0, space.n_dofs + 1)
    full = prolongate(dofs, None, v[np.argsort(dofs.interior_ids)])
    assert full.size == space.n_dofs

    grid, cls, space, dofs, cons = _agg_pipeline(3, Sphere((0.5, 0.5), 0.3))
    ones = np.ones(dofs.n_interior)
    assert np.allclose(prolongate(dofs, cons, ones), 1.0, atol=1e-13)


def test_agg_space_dimension():
    grid, cls, space, dofs, cons = _agg_pipeline(3, Sphere((0.5, 0.5), 0.3))
    assert cons.n_constrained == dofs.exterior_ids.size
    assert dofs.n_interior == space.n_dofs - cons.n_constrained


def test_root_map_onto_a_cut_cell_is_rejected():
    grid, cls, fa = classified(3, Sphere((0.5, 0.5), 0.3))
    rm = aggregate_serial(cls)
    own_roots = RootMap(root=np.arange(1, cls.n_active + 1), next=rm.next,
                        rounds=rm.rounds)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    with pytest.raises(RuntimeError, match="carries a non-interior DOF"):
        build_constraints_serial(space, dofs, own_roots)
