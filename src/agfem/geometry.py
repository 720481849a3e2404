"""Cell classification and cut-cell quadrature.

Cells are classified against a level set by sampling at cell vertices:
interior when psi < -tol at every vertex, exterior when the linearized
cut region is empty, cut otherwise.  A vertex with psi >= -tol counts as
outside (the domain is the strict negative set).  The vertex samples are
kept for cut-cell corner values and for the face table, built once per
classification in one array step: every active cell's face-neighbor ids
and whether each shared face intersects the domain (is open), which is
what aggregation paths may cross.

Cut integration linearizes the level set on a simplex subdivision of the
cell (four fan triangles around the center in 2D, the six-tetrahedron
Kuhn split in 3D) and places a reference rule on each inside sub-simplex:
a collapsed Gauss-Legendre rule on triangles, and on tetrahedra the fully
symmetric 14-point rule, exact to degree 5 with positive weights.
Interface facets come from the linear zero crossing (3D triangles take
the symmetric 6-point rule, exact to degree 4 with positive weights),
their normals along the gradient of the simplex's linear interpolant;
this is exact for half-plane geometries and first-order convergent for
smooth ones.
Clipping is one array pass over all sub-simplices of a batch of cells,
read off case tables by the number of inside vertices: classification
clips every candidate cell for its cut volume, and quadrature clips the
cut cells again, ``KERNEL_CHUNK`` sub-simplices at a time, for their
simplices and facets.  (Keeping the first clip was measured against a
store of expanded points, where it saved no time; it is untested on the
factored store.)  Classification samples the level set, forms corner
values and clips a slab of lattice rows at a time, so its scratch
follows the slab, not the lattice.  The store in cell-id order holds
the cut cells' rules only, in factored form: the kept sub-simplices and
facets, with the one reference rule of each kind.  ``cell_chunks`` cuts
it into chunks that end at cell boundaries, and the kernels that
integrate over it map the rules onto a chunk's simplices and facets as
they read it, so no kernel forms an array of every point.  Interior
cells are one reference element: their box rule is kept once, in
unit-box coordinates, and their points are rebuilt a chunk at a time
where they are needed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import FACE_STEPS, BackgroundGrid, corner_offsets, morton_encode
from .levelset import LevelSet

EXTERIOR, INTERIOR, CUT = 0, 1, 2

# cut regions smaller than this fraction of the cell volume are dropped
# and the cell is demoted to exterior
MIN_VOLUME_FRACTION = 1e-14

# quadrature points mapped or evaluated at once, and cells classified at
# once
CHUNK_POINTS = 8192

# points integrated, or assembly sums formed, at once by a kernel whose
# temporaries take up to about 0.7 KB per point: one chunk's temporaries
# then stay in the heap from one chunk to the next, not handed back to
# the system and faulted in again
KERNEL_CHUNK = 2048

# total degree every rule integrates exactly (the tetrahedron rule: 5)
QUAD_DEGREE = 4


class ClassificationError(ValueError):
    """Level set produced unusable values during classification."""


def default_tolerance(grid: BackgroundGrid) -> float:
    return 1e-12 * float(np.min(grid.h))


def point_chunks(n: int, size: int = CHUNK_POINTS) -> list:
    """Slices covering ``range(n)`` in batches of ``size``."""
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def cell_chunks(offsets: np.ndarray, size: int) -> list:
    """Slices covering the rows of a store whose cell k owns rows
    ``offsets[k-1]:offsets[k]``, each ending at a cell boundary: as many
    whole cells as fit in ``size`` rows, or one cell that holds more.  A
    cell's rows are then summed in one chunk, whatever ``size`` is."""
    out, start, end = [], 0, int(offsets[-1])
    while start < end:
        stop = int(offsets[np.searchsorted(offsets, start + size,
                                           side="right") - 1])
        if stop <= start:
            stop = int(offsets[np.searchsorted(offsets, start, side="right")])
        out.append(slice(start, stop))
        start = stop
    return out


# ---------------------------------------------------------------------------
# reference rules


# The 3-point Gauss-Legendre rule on [-1, 1], exact to degree 5, as
# numpy's leggauss(3) gives it bit for bit: the box rule needs
# (QUAD_DEGREE + 2) // 2 points per axis and the collapsed triangle rule
# (QUAD_DEGREE + 3) // 2, both 3.  A table keeps numpy.polynomial, and
# the numpy.ma it imports, out of a solve.
_GAUSS3 = ((-0.7745966692414834, 0.0, 0.7745966692414834),
           (0.5555555555555557, 0.8888888888888888, 0.5555555555555557))


def _gauss01():
    """The 3-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.array(_GAUSS3)
    return 0.5 * (x + 1.0), w / 2.0


def _box_rule(h: np.ndarray):
    """Tensor-product Gauss rule on the box [0, h], exact to QUAD_DEGREE;
    in 1D, the rule of the 2D interface segments."""
    x, w = _gauss01()
    grids = np.meshgrid(*[x * ha for ha in h], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(points.shape[0])
    for g in np.meshgrid(*[w * ha for ha in h], indexing="ij"):
        weights = weights * g.ravel()
    return points, weights


def _triangle_rule():
    # collapsed (Duffy) tensor rule; the Jacobian raises the u-degree by one
    u, wu = _gauss01()
    v, wv = _gauss01()
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wv)).ravel()
    return np.stack([x, y], axis=1), w


# Fully symmetric rules with positive weights, as barycentric orbit
# generators and the weight of each orbit point: the 14-point rule on the
# unit tetrahedron, exact to degree 5 (Jaśkowiec & Sukumar, IJNME 121,
# 2020), and for 3D interface facets the 6-point rule on the unit
# triangle, exact to degree 4 (Dunavant, IJNME 21, 1985), solved to
# double precision.  Their weights sum to 1/6 and 1/2.
_TET_ORBITS = (((0.09273525031089122,) * 3 + (0.7217942490673264,),
                0.012248840519393659),
               ((0.3108859192633006,) * 3 + (0.06734224221009817,),
                0.018781320953002643),
               ((0.45449629587435036,) * 2 + (0.04550370412564965,) * 2,
                0.007091003462846911))
_FACET_ORBITS = (((0.4459484909159649,) * 2 + (0.10810301816807023,),
                  0.11169079483900574),
                 ((0.09157621350977074,) * 2 + (0.8168475729804585,),
                  0.054975871827660935))


def _orbit_rule(orbits):
    """Each orbit's distinct permutations, sorted, without their first
    barycentric coordinate, and their weights."""
    orbits = [(sorted(set(itertools.permutations(g))), w) for g, w in orbits]
    lam = np.array([p for orbit, _ in orbits for p in orbit])
    return lam[:, 1:], np.concatenate([np.full(len(o), w) for o, w in orbits])


_tet_rule = functools.partial(_orbit_rule, _TET_ORBITS)
_facet_rule = functools.partial(_orbit_rule, _FACET_ORBITS)


# ---------------------------------------------------------------------------
# linear clipping of simplices, by case


# Sub-simplices of a cell over its corners (x fastest) and, in 2D, its
# center (index 4): four fan triangles in 2D, six Kuhn tetrahedra in 3D.
_SUBDIVISION = {
    2: np.array([[4, 0, 1], [4, 1, 3], [4, 3, 2], [4, 2, 0]]),
    3: np.array([[0, 1 << p, (1 << p) | (1 << q), 7]
                 for p, q, _ in itertools.permutations(range(3))]),
}

# Marching-tetrahedra cases by dimension and inside-vertex count m: inside
# simplices and interface facets over points 0..d, the vertices with the
# inside ones first, then the crossings on the edges (0, m), (0, m+1),
# ..., (1, m), ...  A wedge in a tetrahedron splits into three tets.
_CASES = {
    2: {1: ([[0, 3, 4]], [[3, 4]]), 2: ([[0, 1, 4], [0, 4, 3]], [[3, 4]]),
        3: ([[0, 1, 2]], np.zeros((0, 2), dtype=np.intp))},
    3: {1: ([[0, 4, 5, 6]], [[4, 5, 6]]),
        2: ([[0, 4, 5, 1], [4, 5, 1, 6], [5, 1, 6, 7]], [[4, 6, 7], [4, 7, 5]]),
        3: ([[0, 1, 2, 4], [1, 2, 4, 5], [2, 4, 5, 6]], [[4, 5, 6]]),
        4: ([[0, 1, 2, 3]], np.zeros((0, 3), dtype=np.intp))},
}


def _sub_simplices(grid: BackgroundGrid, lattices, corners, centers):
    """Sub-simplices of a batch of cells, cell by cell, and their level-set
    values: (n * s, d+1, d) and (n * s, d+1); ``centers`` is unused in 3D."""
    points = grid.cell_origin(lattices)[:, None, :] + corner_offsets(grid.d) * grid.h
    if grid.d == 2:
        points = np.concatenate(
            [points, grid.cell_barycenter(lattices)[:, None]], axis=1)
        corners = np.concatenate([corners, centers[:, None]], axis=1)
    table = _SUBDIVISION[grid.d]
    return (points[:, table].reshape(-1, grid.d + 1, grid.d),
            corners[:, table].reshape(-1, grid.d + 1))


def _clip(simplices, values, tol):
    """Clip simplices (n, d+1, d) to where the linear interpolant of their
    vertex values (n, d+1) is below ``-tol``.

    Returns the inside simplices with the index of the simplex each comes
    from, and the interface facets (nf, d, d) with an inside vertex each
    (the first of its simplex) and their simplex index, in simplex order
    and within a simplex in case order."""
    d = simplices.shape[2]
    inside = values < -tol
    order = np.argsort(~inside, axis=1, kind="stable")
    verts = np.take_along_axis(simplices, order[..., None], axis=1)
    vals = np.take_along_axis(values, order, axis=1)
    count = inside.sum(axis=1)
    parts = []
    for m, (b_table, f_table) in _CASES[d].items():
        src = np.flatnonzero(count == m)
        p, f = verts[src], vals[src]
        i, o = np.array([(i, o) for i in range(m) for o in range(m, d + 1)],
                        dtype=np.intp).reshape(-1, 2).T
        t = np.clip(f[:, i] / (f[:, i] - f[:, o]), 0.0, 1.0)[..., None]
        p = np.concatenate([p, p[:, i] + t * (p[:, o] - p[:, i])], axis=1)
        parts.append((p[:, b_table].reshape(-1, d + 1, d),
                      np.repeat(src, len(b_table)),
                      p[:, f_table].reshape(-1, d, d),
                      np.repeat(p[:, 0], len(f_table), axis=0),
                      np.repeat(src, len(f_table))))
    bulk, b_src, facets, anchors, f_src = (np.concatenate(x) for x in zip(*parts))
    b, f = np.argsort(b_src, kind="stable"), np.argsort(f_src, kind="stable")
    return bulk[b], b_src[b], facets[f], anchors[f], f_src[f]


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class QuadratureStore:
    """The cut cells' rules in factored form, in cell-id order, and the one
    box rule of every interior cell.

    A cut cell's bulk rule is the reference simplex rule (``ref_points``,
    ``ref_weights``) mapped onto each of its kept inside sub-simplices, and
    its interface rule the reference facet rule (``facet_points``,
    ``facet_weights``) mapped onto each of its kept facets.  Active cell k
    owns simplices ``simplex_offsets[k-1]:simplex_offsets[k]`` and facets
    ``facet_offsets[k-1]:facet_offsets[k]``; an interior cell owns none.  A
    simplex's weights are ``jac`` times the reference weights, a facet's
    ``scale`` times the facet rule's, and every point of a facet takes its
    unit normal, pointing out of the domain.  ``bulk_rule`` and
    ``interface_rule`` map a slice of simplices or facets, each one's
    points in turn; the properties ``weights`` and ``boundary_weights``
    expand the weights of the whole store, to count or inspect them.  An
    interior cell's rule is the box rule, its points at the cell origin
    plus ``box_points * h`` and its weights ``box_weights``, so integrals
    over interior cells use one reference element.
    """

    simplices: np.ndarray         # (ns, d+1, d) kept inside sub-simplices
    jac: np.ndarray               # (ns,) |det| of each one's edge matrix
    simplex_offsets: np.ndarray   # (n_active + 1,), from 0
    facets: np.ndarray            # (nf, d, d) kept interface facets
    normals: np.ndarray           # (nf, d) unit, out of the domain
    scale: np.ndarray             # (nf,) each one's measure scale
    facet_offsets: np.ndarray     # (n_active + 1,), from 0
    ref_points: np.ndarray        # (n_ref, d) simplex rule, reference coords
    ref_weights: np.ndarray       # (n_ref,) its weights
    facet_points: np.ndarray      # (n_f, d-1) facet rule, reference coords
    facet_weights: np.ndarray     # (n_f,) its weights
    box_points: np.ndarray        # (n_box, d) interior rule, unit-box coords
    box_weights: np.ndarray       # (n_box,) its weights

    def bulk_rule(self, rows: slice):
        """Points (n, d) and weights (n,) of the simplices ``rows``."""
        pts = _map_rule(self.simplices[rows], self.ref_points)
        return (pts.reshape(-1, pts.shape[2]),
                (self.jac[rows, None] * self.ref_weights).ravel())

    def interface_rule(self, rows: slice):
        """Points (n, d), weights (n,) and normals (n, d) of the facets
        ``rows``."""
        pts = _map_rule(self.facets[rows], self.facet_points)
        return (pts.reshape(-1, pts.shape[2]),
                (self.scale[rows, None] * self.facet_weights).ravel(),
                np.repeat(self.normals[rows], self.facet_weights.size, axis=0))

    def bulk_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each bulk point of the simplices ``rows``."""
        return np.repeat(_cells_of(self.simplex_offsets, rows),
                         self.ref_weights.size)

    def boundary_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each interface point of the facets ``rows``."""
        return np.repeat(_cells_of(self.facet_offsets, rows),
                         self.facet_weights.size)

    @property
    def weights(self) -> np.ndarray:
        return (self.jac[:, None] * self.ref_weights).ravel()

    @property
    def boundary_weights(self) -> np.ndarray:
        return (self.scale[:, None] * self.facet_weights).ravel()


def _cells_of(offsets, rows):
    start, stop, _ = rows.indices(int(offsets[-1]))
    return np.searchsorted(offsets, np.arange(start, stop), side="right")


def _map_rule(simplices, ref_pts):
    """``ref_pts`` mapped onto each simplex: first vertex plus reference
    point times edge matrix, (n, n_ref, d)."""
    return simplices[:, :1] + ref_pts @ (simplices[:, 1:] - simplices[:, :1])


def _kept_simplices(grid, simplices, s_cell):
    """The simplices of at least ``MIN_VOLUME_FRACTION`` of the cell, the
    |det| of their edge matrices and their cells."""
    jac = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1]))
    volume = jac / (2.0 if grid.d == 2 else 6.0)
    keep = ~(volume < MIN_VOLUME_FRACTION * grid.cell_volume)
    return simplices[keep], jac[keep], s_cell[keep]


def _kept_facets(grid, facets, anchors, f_cell):
    """The facets of non-negligible measure, their unit normals, measure
    scales and cells.

    Each normal points away from the inside vertex ``anchors`` of its
    simplex, along the gradient of the simplex's linear interpolant."""
    d = grid.d
    edges = facets[:, 1:] - facets[:, :1]
    if d == 2:
        scale = np.hypot(edges[:, 0, 0], edges[:, 0, 1])
        normals = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
        measure = scale
    else:
        normals = np.cross(edges[:, 0], edges[:, 1])
        # twice the area; a row-wise dot sums like the norm of one vector
        scale = np.sqrt((normals[:, None, :] @ normals[:, :, None]).ravel())
        measure = 0.5 * scale
    keep = ~(measure < 1e-14 * float(np.min(grid.h)) ** (d - 1))
    facets, anchors, f_cell, scale = (facets[keep], anchors[keep],
                                      f_cell[keep], scale[keep])
    normals = normals[keep] / scale[:, None]
    outward = np.einsum("nd,nd->n", normals, facets.mean(axis=1) - anchors)
    normals[outward < 0.0] *= -1.0
    return facets, normals, scale, f_cell


def _offsets(cells, n_active):
    """Offsets (n_active + 1,) of runs of the 1-based cells ``cells``."""
    return np.concatenate([[0], np.cumsum(np.bincount(cells - 1,
                                                      minlength=n_active))])


def cut_quadrature(grid: BackgroundGrid, ls: LevelSet,
                   cls: CellClassification) -> QuadratureStore:
    """Quadrature of every active cell of ``cls``, classified against ``ls``.

    Interior cells keep empty ranges: their rule is the store's box rule,
    the tensor-product Gauss rule of the box.  Cut cells get rules on the
    linearized inside region and interface, clipped ``KERNEL_CHUNK``
    sub-simplices at a time; sub-simplices below ``MIN_VOLUME_FRACTION``
    of the cell and facets of negligible measure are dropped.  Corner
    values come from the classification; ``ls`` is sampled only at 2D
    cut-cell centers.  Every rule is exact to ``QUAD_DEGREE``.
    """
    d, cut = grid.d, cls.cut_ids
    n_sub = len(_SUBDIVISION[d])
    parts = []
    # a batch of no cells gives the empty arrays where no cell is cut
    for c in point_chunks(cut.size, KERNEL_CHUNK // n_sub) or [slice(0, 0)]:
        lattices = cls.id_to_lattice[cut[c] - 1]
        centers = np.zeros(len(lattices))
        if d == 2 and lattices.size:
            centers = np.asarray(ls(grid.cell_barycenter(lattices)),
                                 dtype=np.float64)
        simplices, s_src, facets, anchors, f_src = _clip(*_sub_simplices(
            grid, lattices, _cell_corners(cls.vertex_values, lattices),
            centers), cls.tol)
        parts.append(_kept_simplices(grid, simplices, cut[c][s_src // n_sub])
                     + _kept_facets(grid, facets, anchors,
                                    cut[c][f_src // n_sub]))
    # each field's batches are joined, then dropped, in turn
    columns = [list(c) for c in zip(*parts)]
    del parts
    simplices, jac, s_cell, facets, normals, scale, f_cell = (
        np.concatenate(columns.pop(0)) for _ in range(len(columns)))
    ref_points, ref_weights = (_triangle_rule if d == 2 else _tet_rule)()
    facet_points, facet_weights = (_box_rule(np.ones(1)) if d == 2
                                   else _facet_rule())
    return QuadratureStore(
        simplices=simplices, jac=jac,
        simplex_offsets=_offsets(s_cell, cls.n_active),
        facets=facets, normals=normals, scale=scale,
        facet_offsets=_offsets(f_cell, cls.n_active),
        ref_points=ref_points, ref_weights=ref_weights,
        facet_points=facet_points, facet_weights=facet_weights,
        box_points=_box_rule(np.ones(d))[0],
        box_weights=_box_rule(grid.h)[1])


# ---------------------------------------------------------------------------
# classification


@dataclass
class CellClassification:
    """Per-cell labels, the active-cell id tables and the vertex samples.

    Active cells (interior or cut) get contiguous 1-based global ids in
    Morton order.  Exterior cells have id 0.  The face table lists each
    active cell's face neighbors and which of those faces are open.
    """

    grid: BackgroundGrid
    labels: np.ndarray           # lattice-shaped int8, EXTERIOR/INTERIOR/CUT
    active_id: np.ndarray        # lattice-shaped int64, 0 where exterior
    id_to_lattice: np.ndarray    # (n_active, d)
    tol: float
    vertex_values: np.ndarray    # level set at the grid vertices, (n+1,)*d
    interior_ids: np.ndarray = field(init=False)
    cut_ids: np.ndarray = field(init=False)
    is_cut: np.ndarray = field(init=False)
    face_ids: np.ndarray = field(init=False)   # (n_active, 2d), 0: no neighbor
    face_open: np.ndarray = field(init=False)  # (n_active, 2d) bool

    def __post_init__(self):
        lab = self.labels[tuple(self.id_to_lattice.T)]
        ids = np.arange(1, self.n_active + 1, dtype=np.int64)
        self.is_cut = lab == CUT
        self.interior_ids = ids[lab == INTERIOR]
        self.cut_ids = ids[self.is_cut]
        self.face_ids, self.face_open = _face_table(self)

    @property
    def n_active(self) -> int:
        return self.id_to_lattice.shape[0]

    def lattice_of(self, cell_id: int) -> np.ndarray:
        return self.id_to_lattice[cell_id - 1]

    def vertex_keys(self, cell_ids) -> np.ndarray:
        """Lattice keys (n, 2**d, d) of the vertices of ``cell_ids``, in
        corner order: the nodes of their Q1 shape functions."""
        return (self.id_to_lattice[cell_ids - 1][:, None, :]
                + corner_offsets(self.grid.d))

    def reference_coords(self, cell_id, points: np.ndarray) -> np.ndarray:
        """Coordinates of ``points`` in the unit box of ``cell_id``: one
        cell id, or one per point."""
        lo = self.grid.cell_origin(self.lattice_of(cell_id))
        return (np.atleast_2d(points) - lo) / self.grid.h

    def neighbor_ids(self, steps) -> np.ndarray:
        """Active ids of the cells at ``lattice + step``, one row per active
        cell and one column per step (entries -1, 0 or 1); 0 outside the
        grid or exterior.  Cells go a chunk at a time, so scratch stays
        bounded."""
        steps = np.asarray(steps)
        n = self.grid.n_per_axis
        out = np.empty((self.n_active, len(steps)), dtype=np.int64)
        for sl in point_chunks(self.n_active, CHUNK_POINTS // len(steps) + 1):
            lattice = self.id_to_lattice[sl]
            at = lattice[:, None, :] + steps
            np.clip(at, 0, n - 1, out=at)
            out[sl] = self.active_id[tuple(np.moveaxis(at, -1, 0))]
            # a step out of a boundary cell leaves the grid
            off = ((lattice == 0) @ (steps < 0).T) | (
                (lattice == n - 1) @ (steps > 0).T)
            out[sl][off] = 0
        return out


def _face_table(cls: CellClassification):
    """Face-neighbor ids and open flags of every active cell, in the
    order -x, +x, -y, +y[, -z, +z].

    A face is open iff it is shared with an active cell and intersects
    the domain: psi < -tol at some face vertex, or psi < 0 at one face
    vertex and psi > 0 at another (linear interpolation then places part
    of the face inside)."""
    d = cls.grid.d
    ids = cls.neighbor_ids(FACE_STEPS[d])
    bits = corner_offsets(d)
    # the corners of face 2 * axis + side: those whose bit on axis is side
    faces = np.array([np.flatnonzero(bits[:, axis] == side)
                      for axis in range(d) for side in (0, 1)])
    open_ = np.empty(ids.shape, dtype=bool)
    for sl in point_chunks(cls.n_active, CHUNK_POINTS >> d):
        vals = _cell_corners(cls.vertex_values, cls.id_to_lattice[sl])[:, faces]
        open_[sl] = (vals < -cls.tol).any(axis=2) | (
            (vals < 0.0).any(axis=2) & (vals > 0.0).any(axis=2))
    open_ &= ids > 0
    return ids, open_


def face_is_active(cls: CellClassification, ka: int, kb: int) -> bool:
    """Whether active cells ``ka`` and ``kb`` share an open face, read off
    the face table; False when they share no face."""
    return bool(np.any(cls.face_open[ka - 1] & (cls.face_ids[ka - 1] == kb)))


def _slabs(n: int, d: int) -> list:
    """Slices of whole rows (along axis 0) of an n**d lattice, about
    ``CHUNK_POINTS`` entries each."""
    return point_chunks(n, max(1, CHUNK_POINTS // n ** (d - 1)))


def _vertex_values(grid: BackgroundGrid, ls: LevelSet) -> np.ndarray:
    """The level set at the grid vertices, (n+1,)*d, sampled a slab of
    vertex rows at a time."""
    n, d = grid.n_per_axis + 1, grid.d
    axes = [grid.origin[a] + grid.h[a] * np.arange(n) for a in range(d)]
    vals = np.empty((n,) * d)
    for sl in _slabs(n, d):
        mesh = np.meshgrid(axes[0][sl], *axes[1:], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals[sl] = np.asarray(ls(pts), dtype=np.float64).reshape(mesh[0].shape)
    return vals


def _corner_values(vvals: np.ndarray, d: int) -> np.ndarray:
    """Per-cell corner values of the cells between the vertices ``vvals``,
    shape (vvals.shape - 1) + (2**d,), x-fastest corners."""
    return np.stack([vvals[tuple(slice(b, b + s - 1)
                                 for b, s in zip(bits, vvals.shape))]
                     for bits in corner_offsets(d)], axis=-1)


def _cell_corners(vvals: np.ndarray, lattices: np.ndarray) -> np.ndarray:
    """Corner values (n, 2**d) of the cells at ``lattices`` (n, d)."""
    at = lattices[:, None, :] + corner_offsets(lattices.shape[1])
    return vvals[tuple(np.moveaxis(at, -1, 0))]


def _labels(grid: BackgroundGrid, ls: LevelSet, vvals: np.ndarray,
            tol: float) -> np.ndarray:
    """Lattice-shaped labels from the vertex values, a slab of lattice rows
    at a time: a cell that is not interior but has an inside corner (or,
    in 2D, center) is cut unless its clipped volume falls below the
    demotion threshold.  A slab's candidates are clipped ``KERNEL_CHUNK``
    sub-simplices at a time."""
    n, d = grid.n_per_axis, grid.d
    n_sub = len(_SUBDIVISION[d])
    labels = np.full((n,) * d, EXTERIOR, dtype=np.int8)
    for sl in _slabs(n, d):
        corners = _corner_values(vvals[sl.start:sl.stop + 1], d)
        # column by column: numpy reduces a short last axis slowly
        inner = functools.reduce(np.maximum,
                                 np.moveaxis(corners, -1, 0)) < -tol
        labels[sl][inner] = INTERIOR
        lattices, cvals = np.argwhere(~inner), corners[~inner]
        lattices[:, 0] += sl.start
        touched = functools.reduce(np.minimum, cvals.T) < -tol
        centers = np.zeros(len(lattices))
        if d == 2 and lattices.size:
            centers = np.asarray(ls(grid.cell_barycenter(lattices)),
                                 dtype=np.float64)
            touched |= centers < -tol
        lattices, cvals, centers = (lattices[touched], cvals[touched],
                                    centers[touched])
        for c in point_chunks(len(lattices), KERNEL_CHUNK // n_sub):
            simplices, src, *_ = _clip(*_sub_simplices(
                grid, lattices[c], cvals[c], centers[c]), tol)
            volume = np.abs(np.linalg.det(
                simplices[:, 1:] - simplices[:, :1])) / (2.0 if d == 2 else 6.0)
            volume = np.bincount(src // n_sub, volume,
                                 minlength=c.stop - c.start)
            cut = lattices[c][volume >= MIN_VOLUME_FRACTION * grid.cell_volume]
            labels[tuple(cut.T)] = CUT
    return labels


def _active_ids(labels: np.ndarray, level: int):
    """The active-id table of the lattice and the lattice of each id, ids
    in Morton order."""
    active = np.argwhere(labels != EXTERIOR)
    id_to_lattice = active[np.argsort(morton_encode(active, level),
                                      kind="stable")]
    del active
    active_id = np.zeros(labels.shape, dtype=np.int64)
    active_id[tuple(id_to_lattice.T)] = np.arange(1, len(id_to_lattice) + 1)
    return active_id, id_to_lattice


def classify_cells(grid: BackgroundGrid, ls: LevelSet) -> CellClassification:
    """Classify every background cell as interior, cut, or exterior.

    A cell is interior iff psi < -tol at all its vertices, tol being
    ``default_tolerance(grid)``.  Every other cell with an inside vertex
    (or, in 2D, an inside center) is clipped; it is cut iff its clipped
    volume reaches ``MIN_VOLUME_FRACTION`` of the cell, else exterior.
    Vertex samples and corner values go a slab of about ``CHUNK_POINTS``
    cells at a time, and clips a smaller batch, so scratch stays bounded
    by the slab, not the lattice.
    """
    tol = default_tolerance(grid)
    vvals = _vertex_values(grid, ls)
    if not np.all(np.isfinite(vvals)):
        bad = np.argwhere(~np.isfinite(vvals))[0]
        cell = np.minimum(bad, grid.n_per_axis - 1)
        raise ClassificationError(
            f"level set {ls.name!r} returned a non-finite value at a vertex "
            f"of cell {tuple(int(c) for c in cell)}")
    labels = _labels(grid, ls, vvals, tol)
    active_id, id_to_lattice = _active_ids(labels, grid.level)
    return CellClassification(grid=grid, labels=labels, active_id=active_id,
                              id_to_lattice=id_to_lattice, tol=tol,
                              vertex_values=vvals)
