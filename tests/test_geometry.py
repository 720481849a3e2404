import numpy as np
import pytest

from agfem.geometry import (CUT, EXTERIOR, INTERIOR, ClassificationError,
                            _corner_values, _cut_volume, classify_cells,
                            cut_quadrature, face_is_active)
from agfem.grid import unit_box_grid
from agfem.levelset import CallableLevelSet, HalfPlane, Popcorn, Sphere

from conftest import face_rule, gradient


def test_classify_all_interior():
    grid = unit_box_grid(1, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 1.25))
    assert np.array_equal(cls.interior_ids, [1, 2, 3, 4])
    assert cls.cut_ids.size == 0


def test_classify_two_by_two_mixed():
    grid = unit_box_grid(1, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.75))
    # left column interior, right column cut, nothing exterior
    assert np.count_nonzero(cls.labels == INTERIOR) == 2
    assert np.count_nonzero(cls.labels == CUT) == 2
    assert np.all(cls.labels[0, :] == INTERIOR)
    assert np.all(cls.labels[1, :] == CUT)
    assert cls.n_active == 4


def test_classify_four_by_four():
    grid = unit_box_grid(2, 2)
    cls = classify_cells(grid, HalfPlane((1, 0), 0.6))
    assert np.count_nonzero(cls.labels == INTERIOR) == 8
    assert np.count_nonzero(cls.labels == CUT) == 4
    assert np.count_nonzero(cls.labels == EXTERIOR) == 4
    assert np.all(cls.labels[:2, :] == INTERIOR)
    assert np.all(cls.labels[2, :] == CUT)
    assert np.all(cls.labels[3, :] == EXTERIOR)


def test_classification_partition_and_morton_ids():
    grid = unit_box_grid(4, 2)
    cls = classify_cells(grid, Sphere((0.5, 0.5), 0.3))
    assert cls.n_active == cls.interior_ids.size + cls.cut_ids.size
    # ids are contiguous and assigned in Morton order
    from agfem.grid import morton_encode

    codes = morton_encode(cls.id_to_lattice, grid.level)
    assert np.all(np.diff(codes) > 0)
    assert cls.id_at(cls.lattice_of(17)) == 17


def test_nonfinite_level_set_reports_cell():
    grid = unit_box_grid(2, 2)

    def bad(p):
        vals = p[:, 0] - 0.6
        vals = np.where(p[:, 1] > 0.9, np.nan, vals)
        return vals

    with pytest.raises(ClassificationError, match="non-finite"):
        classify_cells(grid, CallableLevelSet(bad, "bad"))


def _store(level, ls, order, d=2):
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)
    return grid, cls, cut_quadrature(grid, ls, cls, order)


def _per_cell(cls, cells, values):
    return np.bincount(cells - 1, values, minlength=cls.n_active)


def test_interior_cell_uses_tensor_rule():
    grid, cls, quad = _store(1, HalfPlane((1, 0), 5.0), 2)
    assert cls.n_active == 4 and cls.cut_ids.size == 0
    cell = slice(*quad.offsets[:2])
    assert quad.weights[cell].sum() == pytest.approx(0.25, abs=1e-15)
    assert quad.boundary_weights.size == 0
    assert np.all(quad.weights > 0)


def test_halfplane_cut_is_exact():
    grid, cls, quad = _store(0, HalfPlane((1, 0), 0.5), 2)
    assert abs(quad.weights.sum() - 0.5) < 1e-12
    assert abs(quad.boundary_weights.sum() - 1.0) < 1e-12
    assert np.allclose(quad.boundary_normals, [1.0, 0.0])

    # oblique cuts stay exact at finer levels
    for level in (2, 4):
        ls = HalfPlane(np.array([1.0, 2.0]) / np.sqrt(5.0), 0.31)
        grid, cls, quad = _store(level, ls, 2)
        # {x + 2y < c} with c = 0.31*sqrt(5) < 1 clips a triangle of area
        # c^2/4 = 0.31^2 * 5 / 4 off the unit square
        exact = 0.31**2 * 5.0 / 4.0
        assert abs(quad.weights.sum() - exact) < 1e-12


def test_halfplane_exact_3d():
    grid, cls, quad = _store(0, HalfPlane((1, 0, 0), 0.5), 2, d=3)
    assert abs(quad.weights.sum() - 0.5) < 1e-12
    assert abs(quad.boundary_weights.sum() - 1.0) < 1e-12
    assert np.allclose(quad.boundary_normals, [1.0, 0.0, 0.0])


def test_circle_measures_level_six():
    grid, cls, quad = _store(6, Sphere((0.5, 0.5), 0.3), 2)
    assert abs(quad.weights.sum() - np.pi * 0.09) < 1e-3
    assert abs(quad.boundary_weights.sum() - 2 * np.pi * 0.3) < 1e-2


def test_circle_measures_converge_first_order():
    ls = Sphere((0.5, 0.5), 0.3)
    errs_area, errs_perim = [], []
    for level in (4, 5, 6, 7):
        grid, cls, quad = _store(level, ls, 2)
        errs_area.append(abs(quad.weights.sum() - np.pi * 0.09))
        errs_perim.append(abs(quad.boundary_weights.sum() - 2 * np.pi * 0.3))
    for errs in (errs_area, errs_perim):
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(rates) > 0.9, rates


def test_weights_positive_and_bounded():
    grid, cls, quad = _store(3, Sphere((0.45, 0.55), 0.27), 3)
    assert np.all(quad.weights >= -1e-15)
    volumes = _per_cell(cls, quad.bulk_cells(), quad.weights)
    assert np.all(volumes <= grid.cell_volume * (1 + 1e-12))
    assert np.allclose(np.linalg.norm(quad.boundary_normals, axis=1), 1.0,
                       atol=1e-12)


def test_normals_align_with_gradient():
    # holds where the mesh resolves the level set; on popcorn L3 a few
    # facets of the linearized surface face against the true gradient
    for level, ls, d in ((5, Sphere((0.5, 0.5), 0.3), 2), (4, Popcorn(), 3)):
        grid, cls, quad = _store(level, ls, 2, d)
        assert quad.boundary_weights.size > 0
        grads = gradient(ls, quad.boundary_points, 1e-7)
        assert np.all(np.einsum("nd,nd->n", grads, quad.boundary_normals) > 0)


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_normals_point_out_of_the_discrete_domain(level, ls, d):
    # divergence theorem on the linearized domain, exact for linear
    # fields: d |Omega_h| = int_Gamma_h (x - c).n for any c; a facet
    # whose normal points inward breaks it
    grid, cls, quad = _store(level, ls, 2, d)
    volume = d * quad.weights.sum()
    for c in (np.full(d, 0.5), np.array([0.3, 0.6, 0.45])[:d]):
        flux = quad.boundary_weights @ np.einsum(
            "nd,nd->n", quad.boundary_points - c, quad.boundary_normals)
        assert abs(flux - volume) <= 1e-13 * volume


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_store_files_points_under_their_cells(level, ls, d):
    grid, cls, quad = _store(level, ls, 4, d)
    for offsets, cells, pts in (
            (quad.offsets, quad.bulk_cells(), quad.points),
            (quad.boundary_offsets, quad.boundary_cells(), quad.boundary_points)):
        assert offsets.shape == (cls.n_active + 1,) and offsets[0] == 0
        assert np.all(np.diff(offsets) >= 0) and offsets[-1] == len(pts)
        assert np.array_equal(cells, np.repeat(np.arange(1, cls.n_active + 1),
                                               np.diff(offsets)))
        lo = grid.cell_origin(cls.id_to_lattice[cells - 1])
        assert np.all((pts >= lo) & (pts <= lo + grid.h))
    # every cut cell's weights sum to its clipped volume
    volumes = _per_cell(cls, quad.bulk_cells(), quad.weights)
    centers = ls(cls.barycenters())
    corners = _corner_values(cls.vertex_values, d)
    for k in cls.cut_ids:
        lattice = cls.lattice_of(k)
        clipped = _cut_volume(grid, lattice, corners[tuple(lattice)],
                              float(centers[k - 1]), cls.tol)
        assert abs(volumes[k - 1] - clipped) <= 1e-14 * clipped
    assert np.array_equal(np.unique(quad.boundary_cells()), cls.cut_ids)


def test_zero_measure_cut_demoted():
    grid = unit_box_grid(1, 2)
    # boundary grazes the right edge: kept volume below the demotion cutoff
    ls = HalfPlane((-1.0, 0.0), -(1.0 - 1e-16))
    cls = classify_cells(grid, ls)
    assert np.all(cls.labels[1, :] == EXTERIOR)
    quad = cut_quadrature(grid, ls, cls, 2)
    assert quad.weights.size == 0 and quad.boundary_weights.size == 0


def _face_open(cls, a, b):
    """Face-table entry of the face between the cells at lattices a and b,
    read from both sides."""
    ka, kb = cls.id_at(a), cls.id_at(b)
    assert ka and kb
    [col_a] = np.flatnonzero(cls.face_ids[ka - 1] == kb)
    [col_b] = np.flatnonzero(cls.face_ids[kb - 1] == ka)
    assert cls.face_open[ka - 1, col_a] == cls.face_open[kb - 1, col_b]
    return bool(cls.face_open[ka - 1, col_a])


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_face_table_matches_face_rule(level, ls, d):
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)
    n_open = 0
    for k in range(1, cls.n_active + 1):
        lattice = cls.lattice_of(k)
        expected = [cls.id_at(nb) if grid.contains_lattice(nb) else 0
                    for nb in lattice + _steps(d)]
        assert cls.face_ids[k - 1].tolist() == expected
        for nb, is_open in zip(cls.face_ids[k - 1], cls.face_open[k - 1]):
            if nb == 0:
                assert not is_open
                continue
            assert is_open == face_rule(cls, k, int(nb))
            assert is_open == face_is_active(cls, k, int(nb))
            n_open += is_open
    assert n_open > 0


def _steps(d):
    """Face steps in table order: -x, +x, -y, +y[, -z, +z]."""
    return np.repeat(np.eye(d, dtype=np.int64), 2, axis=0) * np.tile([-1, 1], d)[:, None]


def test_face_activity():
    grid = unit_box_grid(2, 2)
    inside = HalfPlane((1, 0), 0.9)
    cls = classify_cells(grid, inside)
    assert _face_open(cls, (1, 1), (2, 1))
    # two disks, one in each of the cut cells (0, 0) and (1, 0): their
    # shared face lies outside both
    disks = CallableLevelSet(
        lambda p: np.minimum(np.hypot(p[:, 0] - 0.05, p[:, 1] - 0.05),
                             np.hypot(p[:, 0] - 0.45, p[:, 1] - 0.05)) - 0.1,
        "disks")
    cls = classify_cells(grid, disks)
    assert not _face_open(cls, (0, 0), (1, 0))
    # one face vertex at psi = -0.1, crossing along the face
    crossing = CallableLevelSet(
        lambda p: np.where(p[:, 1] < 0.3, -0.1, 0.3 * np.ones(p.shape[0])),
        "step")
    cls = classify_cells(grid, crossing)
    assert _face_open(cls, (0, 0), (1, 0))


def test_face_activity_zero_vertices_inactive():
    # psi = 0 on the whole face: the domain is the strict negative set
    grid = unit_box_grid(1, 2)
    ls = CallableLevelSet(lambda p: -(p[:, 0] - 0.5) ** 2, "valley")
    cls = classify_cells(grid, ls)
    assert not _face_open(cls, (0, 0), (1, 0))
