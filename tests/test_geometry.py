import functools
import itertools
import math

import numpy as np
import pytest

from agfem import experiments as ex
from agfem import geometry
from agfem.assembly import interior_rows, poisson_elements
from agfem.geometry import (CHUNK_POINTS, CUT, EXTERIOR, INTERIOR,
                            MIN_VOLUME_FRACTION, QUAD_DEGREE,
                            ClassificationError,
                            _box_rule, _clip, _corner_values, _facet_rule,
                            _sub_simplices, _tet_rule, _triangle_rule,
                            cell_chunks, classify_cells, cut_quadrature,
                            face_is_active)
from agfem.grid import unit_box_grid
from agfem.levelset import CallableLevelSet, HalfPlane, Popcorn, Sphere

from conftest import (clip_cells_oracle, conical_tet_rule, cut_volume,
                      face_rule, full_bulk_rule, gradient, phase_memory)


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
    assert cls.active_id[tuple(cls.lattice_of(17))] == 17


def test_nonfinite_level_set_reports_cell():
    grid = unit_box_grid(2, 2)

    def bad(p):
        vals = p[:, 0] - 0.6
        vals = np.where(p[:, 1] > 0.9, np.nan, vals)
        return vals

    with pytest.raises(ClassificationError, match="non-finite"):
        classify_cells(grid, CallableLevelSet(bad, "bad"))


def _store(level, ls, d=2):
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)
    return grid, cls, cut_quadrature(grid, ls, cls)


def _per_cell(cls, cells, values):
    return np.bincount(cells - 1, values, minlength=cls.n_active)


def _volume(cls, quad):
    """Measure of the discrete domain, summed over the bulk rule of every
    active cell in cell order."""
    return full_bulk_rule(cls, quad).weights.sum()


def test_interior_cell_uses_tensor_rule():
    grid, cls, quad = _store(1, HalfPlane((1, 0), 5.0))
    assert cls.n_active == 4 and cls.cut_ids.size == 0
    assert quad.weights.size == 0 and not np.any(quad.offsets)
    assert quad.box_weights.sum() == pytest.approx(0.25, abs=1e-15)
    assert quad.boundary_weights.size == 0
    assert np.all(quad.box_weights > 0)


def _simplex_moment(powers):
    """Integral of prod x_i**p_i over the unit simplex."""
    return (math.prod(math.factorial(p) for p in powers)
            / math.factorial(sum(powers) + len(powers)))


def _box_moment(powers):
    return math.prod(1.0 / (p + 1) for p in powers)


# rule, dimension, moment, the total degree it integrates exactly; the
# conical oracle is built for the degree a case checks
RULES = {
    "segment": (lambda: _box_rule(np.ones(1)), 1, _simplex_moment, 5),
    "triangle": (_triangle_rule, 2, _simplex_moment, QUAD_DEGREE),
    "facet": (_facet_rule, 2, _simplex_moment, 4),
    "tet": (_tet_rule, 3, _simplex_moment, 5),
    "tet-conical": (conical_tet_rule, 3, _simplex_moment, None),
    "box-2d": (lambda: _box_rule(np.ones(2)), 2, _box_moment, 5),
    "box-3d": (lambda: _box_rule(np.ones(3)), 3, _box_moment, 5),
}


@pytest.mark.parametrize("degree", range(1, 7))
@pytest.mark.parametrize("name", RULES)
def test_reference_rules_integrate_monomials(name, degree):
    # each fixed rule is exact to its degree, at least QUAD_DEGREE, and
    # misses some monomial of every degree above it
    rule, d, moment, exact = RULES[name]
    points, weights = rule() if exact else rule(degree)
    assert exact is None or exact >= QUAD_DEGREE
    assert points.shape == (weights.size, d)
    assert np.all(weights > 0)
    if moment is _simplex_moment:
        # every barycentric coordinate is positive: strictly inside
        assert np.all(points > 0) and np.all(points.sum(axis=1) < 1)
    errors = {}
    for powers in itertools.product(range(degree + 1), repeat=d):
        if sum(powers) <= degree:
            got = weights @ np.prod(points ** np.array(powers), axis=1)
            errors[powers] = abs(got - moment(powers)) / moment(powers)
    if exact is None or degree <= exact:
        assert max(errors.values()) <= 1e-14, errors
    else:
        assert max(v for p, v in errors.items() if sum(p) == degree) > 1e-10


def test_gauss_table_is_numpys_three_point_rule():
    # the box and triangle rules read one 3-point table: it must be the
    # rule numpy computes, bit for bit, and the one QUAD_DEGREE asks for
    x, w = np.polynomial.legendre.leggauss(3)
    assert np.array(geometry._GAUSS3).tobytes() == np.stack([x, w]).tobytes()
    assert (QUAD_DEGREE + 2) // 2 == (QUAD_DEGREE + 3) // 2 == len(x)


def test_tet_rule_is_one_14_point_rule():
    # three orbits of barycentric points: the point set, with the fourth
    # coordinate, is closed under every permutation of the coordinates
    points, weights = _tet_rule()
    assert weights.size == 14
    assert weights.sum() == pytest.approx(1 / 6, rel=1e-15)
    lam = np.column_stack([1 - points.sum(axis=1), points])
    rows = {tuple(np.round(r, 15)) for r in lam.tolist()}
    for perm in itertools.permutations(range(4)):
        assert {tuple(np.round(r, 15)) for r in lam[:, perm].tolist()} == rows


def test_facet_rule_is_one_6_point_rule():
    # two orbits of barycentric points, closed under every permutation of
    # the three coordinates
    points, weights = _facet_rule()
    assert weights.size == 6 and np.all(weights > 0)
    assert weights.sum() == pytest.approx(1 / 2, rel=1e-15)
    lam = np.column_stack([1 - points.sum(axis=1), points])
    rows = {tuple(np.round(r, 15)) for r in lam.tolist()}
    for perm in itertools.permutations(range(3)):
        assert {tuple(np.round(r, 15)) for r in lam[:, perm].tolist()} == rows


def _rule_runs(weights, rule_weights):
    """``weights`` cut into runs of one mapped rule each: (runs, n_rule),
    after checking that each run is the rule's weights times a measure."""
    runs = weights.reshape(-1, rule_weights.size)
    assert np.allclose(runs / runs.sum(axis=1, keepdims=True),
                       rule_weights / rule_weights.sum(), rtol=1e-13, atol=0)
    return runs


def test_3d_facets_take_the_facet_rule_and_2d_triangles_theirs():
    # a 3D store maps the 6-point rule onto every interface triangle; a
    # 2D store keeps the collapsed rule on every bulk triangle
    grid, cls, quad = _store(3, Sphere((0.5, 0.5, 0.5), 0.3), d=3)
    runs = _rule_runs(quad.boundary_weights, _facet_rule()[1])
    assert np.all(np.diff(quad.boundary_offsets) % 6 == 0)
    assert runs.sum() == pytest.approx(4 * np.pi * 0.3 ** 2, rel=0.05)
    grid, cls, quad = _store(4, Sphere((0.5, 0.5), 0.3))
    n_tri = len(_triangle_rule()[1])
    assert np.all(np.diff(quad.offsets) % n_tri == 0)
    _rule_runs(quad.weights, _triangle_rule()[1])


@pytest.mark.parametrize("level, ls", [
    (3, Popcorn()),
    (4, Sphere((0.5, 0.5, 0.5), 0.3)),
], ids=["popcorn-L3", "sphere-L4"])
def test_tet_rule_matches_conical_product_oracle(monkeypatch, level, ls):
    # both rules are exact to degree 5, and a Q1 bulk stiffness has
    # degree 4, so cut cells integrate alike at a fraction of the points
    grid, cls, quad = _store(level, ls, d=3)
    monkeypatch.setattr(geometry, "_tet_rule",
                        functools.partial(conical_tet_rule, 4))
    oracle = cut_quadrature(grid, ls, cls)
    assert quad.weights.size * 27 == oracle.weights.size * 14
    for name in ("boundary_points", "boundary_weights", "boundary_offsets"):
        assert np.array_equal(getattr(quad, name), getattr(oracle, name))
    volumes = _per_cell(cls, quad.bulk_cells(), quad.weights)
    expected = _per_cell(cls, oracle.bulk_cells(), oracle.weights)
    assert np.all(np.abs(volumes - expected) <= 1e-15)
    cut = cls.cut_ids - 1
    got = poisson_elements(cls, quad, lambda V: 0.0)[0][cut]
    want = poisson_elements(cls, oracle, lambda V: 0.0)[0][cut]
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)


def test_halfplane_cut_is_exact():
    grid, cls, quad = _store(0, HalfPlane((1, 0), 0.5))
    assert abs(_volume(cls, quad) - 0.5) < 1e-12
    assert abs(quad.boundary_weights.sum() - 1.0) < 1e-12
    assert np.allclose(quad.boundary_normals, [1.0, 0.0])

    # oblique cuts stay exact at finer levels
    for level in (2, 4):
        ls = HalfPlane(np.array([1.0, 2.0]) / np.sqrt(5.0), 0.31)
        grid, cls, quad = _store(level, ls)
        # {x + 2y < c} with c = 0.31*sqrt(5) < 1 clips a triangle of area
        # c^2/4 = 0.31^2 * 5 / 4 off the unit square
        exact = 0.31**2 * 5.0 / 4.0
        assert abs(_volume(cls, quad) - exact) < 1e-12


def test_halfplane_exact_3d():
    grid, cls, quad = _store(0, HalfPlane((1, 0, 0), 0.5), d=3)
    assert abs(_volume(cls, quad) - 0.5) < 1e-12
    assert abs(quad.boundary_weights.sum() - 1.0) < 1e-12
    assert np.allclose(quad.boundary_normals, [1.0, 0.0, 0.0])


def test_circle_measures_level_six():
    grid, cls, quad = _store(6, Sphere((0.5, 0.5), 0.3))
    assert abs(_volume(cls, quad) - np.pi * 0.09) < 1e-3
    assert abs(quad.boundary_weights.sum() - 2 * np.pi * 0.3) < 1e-2


def test_circle_measures_converge_first_order():
    ls = Sphere((0.5, 0.5), 0.3)
    errs_area, errs_perim = [], []
    for level in (4, 5, 6, 7):
        grid, cls, quad = _store(level, ls)
        errs_area.append(abs(_volume(cls, quad) - np.pi * 0.09))
        errs_perim.append(abs(quad.boundary_weights.sum() - 2 * np.pi * 0.3))
    for errs in (errs_area, errs_perim):
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(rates) > 0.9, rates


def test_weights_positive_and_bounded():
    grid, cls, quad = _store(3, Sphere((0.45, 0.55), 0.27))
    assert np.all(quad.weights >= -1e-15)
    volumes = _per_cell(cls, quad.bulk_cells(), quad.weights)
    assert np.all(volumes <= grid.cell_volume * (1 + 1e-12))
    assert np.allclose(np.linalg.norm(quad.boundary_normals, axis=1), 1.0,
                       atol=1e-12)


def test_normals_align_with_gradient():
    # holds where the mesh resolves the level set; on popcorn L3 a few
    # facets of the linearized surface face against the true gradient
    for level, ls, d in ((5, Sphere((0.5, 0.5), 0.3), 2), (4, Popcorn(), 3)):
        grid, cls, quad = _store(level, ls, d)
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
    grid, cls, quad = _store(level, ls, d)
    volume = d * _volume(cls, quad)
    for c in (np.full(d, 0.5), np.array([0.3, 0.6, 0.45])[:d]):
        flux = quad.boundary_weights @ np.einsum(
            "nd,nd->n", quad.boundary_points - c, quad.boundary_normals)
        assert abs(flux - volume) <= 1e-13 * volume


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_store_files_points_under_their_cells(level, ls, d):
    grid, cls, quad = _store(level, ls, d)
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
        clipped = cut_volume(grid, lattice, corners[tuple(lattice)],
                             float(centers[k - 1]), cls.tol)
        assert abs(volumes[k - 1] - clipped) <= 1e-14 * clipped
    assert np.array_equal(np.unique(quad.boundary_cells()), cls.cut_ids)
    assert np.array_equal(np.unique(quad.bulk_cells()), cls.cut_ids)


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3"])
def test_interior_cells_are_one_reference_element(level, ls, d):
    # no interior cell owns a row of the store; interior_rows rebuilds
    # their box-rule points a batch of cells at a time, bitwise equal to
    # the box rule moved to each cell origin
    grid, cls, quad = _store(level, ls, d)
    assert cls.interior_ids.size
    assert not np.any(np.diff(quad.offsets)[cls.interior_ids - 1])
    box_points, box_weights = _box_rule(grid.h)
    assert np.array_equal(quad.box_weights, box_weights)
    batches = list(interior_rows(cls, quad))
    assert np.array_equal(np.concatenate([c for c, _ in batches]),
                          cls.interior_ids)
    for cells, pts in batches:
        assert pts.shape == (cells.size, box_weights.size, d)
        assert pts[:, :, 0].size <= CHUNK_POINTS
        lo = grid.cell_origin(cls.id_to_lattice[cells - 1])
        assert np.array_equal(pts, lo[:, None, :] + box_points)


@pytest.mark.parametrize("level, ls, d", [
    (5, Sphere((0.5, 0.5), 0.3), 2),
    (3, Popcorn(), 3),
    (4, Popcorn(), 3),
], ids=["circle-2d-L5", "popcorn-3d-L3", "popcorn-3d-L4"])
def test_clipper_matches_the_per_simplex_oracle(level, ls, d):
    # the cut cells in one pass, then one at a time
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)
    lattices = cls.id_to_lattice[cls.cut_ids - 1]
    corners = _corner_values(cls.vertex_values, d)
    batch = (grid, lattices, corners[tuple(lattices.T)],
             ls(cls.barycenters()[cls.cut_ids - 1]))
    bulk, b_src, facets, anchors, f_src = _clip(*_sub_simplices(*batch), cls.tol)
    n_sub = 4 if d == 2 else 6
    got = (bulk, b_src // n_sub, facets, anchors, f_src // n_sub)
    for g, w in zip(got, clip_cells_oracle(*batch, cls.tol)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    # a cell that is not interior is cut iff the oracle's clipped volume
    # reaches the demotion threshold
    for lattice in np.argwhere(cls.labels != INTERIOR):
        center = float(ls(grid.cell_barycenter(lattice)[None])[0])
        volume = cut_volume(grid, lattice, corners[tuple(lattice)], center,
                            cls.tol)
        cut = volume >= MIN_VOLUME_FRACTION * grid.cell_volume
        assert (cls.labels[tuple(lattice)] == CUT) == cut


def test_zero_measure_cut_demoted():
    grid = unit_box_grid(1, 2)
    # boundary grazes the right edge: kept volume below the demotion cutoff
    ls = HalfPlane((-1.0, 0.0), -(1.0 - 1e-16))
    cls = classify_cells(grid, ls)
    assert np.all(cls.labels[1, :] == EXTERIOR)
    quad = cut_quadrature(grid, ls, cls)
    assert quad.weights.size == 0 and quad.boundary_weights.size == 0


def _face_open(cls, a, b):
    """Face-table entry of the face between the cells at lattices a and b,
    read from both sides."""
    ka, kb = cls.active_id[tuple(a)], cls.active_id[tuple(b)]
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
        expected = [cls.active_id[tuple(nb)] if grid.contains_lattice(nb)
                    else 0 for nb in lattice + _steps(d)]
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


@pytest.mark.parametrize("size", [1, 5, 12, 100])
def test_cell_chunks_end_at_cell_boundaries(size):
    # cells of 0 to 12 rows, empty ones included: each chunk is whole
    # cells, at most size rows unless it is one larger cell
    counts = np.random.default_rng(size).integers(0, 13, 60)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    chunks = cell_chunks(offsets, size)
    assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
    assert chunks[-1].stop == offsets[-1]
    for c in chunks:
        assert c.stop in offsets and c.stop > c.start
        cells = np.flatnonzero((offsets[:-1] >= c.start)
                               & (offsets[1:] <= c.stop) & (counts > 0))
        assert c.stop - c.start <= size or cells.size == 1
    assert cell_chunks(np.zeros(4, dtype=np.int64), size) == []


def test_classification_scratch_follows_the_live_data(monkeypatch):
    # vertex samples, corner values and clips go a slab of cells at a
    # time, and the face table a chunk of cells, so classification holds
    # at most 1.5 times what it keeps (1.25 here), where whole-lattice
    # arrays held 3.7 times as much
    before, after, peak = phase_memory(
        monkeypatch, ex.ExperimentConfig(level=8), {"classify"})["classify"]
    assert peak <= 1.5 * max(before, after), (before, after, peak)
