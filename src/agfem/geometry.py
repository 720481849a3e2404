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
Kuhn split in 3D) and places a collapsed tensor rule on each inside
sub-simplex: Gauss-Legendre on triangles, Gauss-Jacobi on tetrahedra,
where the Jacobi weights absorb the Jacobian of the collapse (Stroud's
conical product rules; 27 points are exact to degree 5).  Interface
facets come from the linear zero crossing, their normals along the
gradient of the simplex's linear interpolant; this is exact for
half-plane geometries and first-order convergent for smooth ones.  Clipping is one array pass over all sub-simplices of a batch of
cells, read off case tables by the number of inside vertices; the same
pass gives classification its cut volumes and quadrature its simplices
and facets.  All rules live in one flat store in cell-id order: interior
cells share one box rule, which the store also keeps in unit-box
coordinates for reference-element integration, and cut-cell rules are
mapped in batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import FACE_STEPS, BackgroundGrid, corner_offsets, morton_encode
from .levelset import LevelSet

EXTERIOR, INTERIOR, CUT = 0, 1, 2

# cut regions smaller than this fraction of the cell volume are dropped
# and the cell is demoted to exterior
MIN_VOLUME_FRACTION = 1e-14

# quadrature points mapped, integrated or evaluated at once
CHUNK_POINTS = 8192


class ClassificationError(ValueError):
    """Level set produced unusable values during classification."""


def default_tolerance(grid: BackgroundGrid) -> float:
    return 1e-12 * float(np.min(grid.h))


def point_chunks(n: int) -> list:
    """Slices covering ``range(n)`` in batches of ``CHUNK_POINTS``."""
    return [slice(s, min(s + CHUNK_POINTS, n))
            for s in range(0, n, CHUNK_POINTS)]


# ---------------------------------------------------------------------------
# reference rules


def _gauss01(n: int, alpha: int = 0):
    """n-point Gauss-Jacobi rule on [0, 1] for the weight (1 - x)**alpha;
    alpha = 0 is Gauss-Legendre."""
    if alpha == 0:
        x, w = np.polynomial.legendre.leggauss(n)
    else:
        # imported here: only 3D runs need it, and it costs 2D runs memory
        import scipy.special
        x, w = scipy.special.roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def _box_rule(h: np.ndarray, order: int):
    """Tensor-product Gauss rule on the box [0, h], exact to `order`."""
    x, w = _gauss01(max(1, (order + 2) // 2))
    grids = np.meshgrid(*[x * ha for ha in h], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(points.shape[0])
    for g in np.meshgrid(*[w * ha for ha in h], indexing="ij"):
        weights = weights * g.ravel()
    return points, weights


def _segment_rule(order: int):
    x, w = _gauss01(max(1, (order + 2) // 2))
    return x[:, None], w


def _triangle_rule(order: int):
    # collapsed (Duffy) tensor rule; the Jacobian raises the u-degree by one
    m = max(1, (order + 3) // 2)
    u, wu = _gauss01(m)
    v, wv = _gauss01(m)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wv)).ravel()
    return np.stack([x, y], axis=1), w


def _tet_rule(order: int):
    """Collapsed Gauss-Jacobi (Stroud conical product) rule on the unit
    tetrahedron: the Jacobian (1-u)**2 (1-v) of the collapse is the
    Jacobi weight of the first two axes, so m = (order+2)//2 points per
    axis are exact to total degree 2m - 1 with positive weights."""
    m = max(1, (order + 2) // 2)
    u, wu = _gauss01(m, 2)
    v, wv = _gauss01(m, 1)
    t, wt = _gauss01(m)
    uu, vv, tt = np.meshgrid(u, v, t, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    z = (tt * (1.0 - uu) * (1.0 - vv)).ravel()
    w = np.einsum("i,j,k->ijk", wu, wv, wt).ravel()
    return np.stack([x, y, z], axis=1), w


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
    """Bulk and interface rules of every active cell, flat, in cell-id order.

    Active cell k owns rows ``offsets[k-1]:offsets[k]`` of the bulk arrays
    and ``boundary_offsets[k-1]:boundary_offsets[k]`` of the interface
    arrays.  Interface normals are unit vectors pointing out of the
    domain.  Every interior cell holds the same box rule, its points at
    the cell origin plus ``box_points * h`` and its weights
    ``box_weights``, so integrals over interior cells can use one
    reference element.
    """

    points: np.ndarray            # (n, d)
    weights: np.ndarray           # (n,)
    offsets: np.ndarray           # (n_active + 1,), from 0
    boundary_points: np.ndarray   # (nb, d)
    boundary_weights: np.ndarray  # (nb,)
    boundary_normals: np.ndarray  # (nb, d)
    boundary_offsets: np.ndarray  # (n_active + 1,), from 0
    box_points: np.ndarray        # (n_box, d) interior rule, unit-box coords
    box_weights: np.ndarray       # (n_box,) its weights, as stored

    def bulk_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each bulk point in ``rows``."""
        return _cells_of(self.offsets, rows)

    def interior_chunks(self, cell_ids):
        """Batches of about ``CHUNK_POINTS`` points of the interior cells
        ``cell_ids``: (cells, their bulk rows (n_cells, n_box))."""
        n_box = self.box_weights.size
        per = max(1, CHUNK_POINTS // n_box)
        for s in range(0, cell_ids.size, per):
            cells = cell_ids[s:s + per]
            yield cells, self.offsets[cells - 1][:, None] + np.arange(n_box)

    def cut_chunks(self, cell_ids):
        """Batches of ``CHUNK_POINTS`` bulk rows of the cells ``cell_ids``
        (ascending), in store order: (cell of each row, rows)."""
        start = self.offsets[cell_ids - 1]
        counts = self.offsets[cell_ids] - start
        cells = np.repeat(cell_ids, counts)
        rows = np.arange(cells.size) + np.repeat(
            start - (np.cumsum(counts) - counts), counts)
        for sl in point_chunks(rows.size):
            yield cells[sl], rows[sl]

    def boundary_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each interface point in ``rows``."""
        return _cells_of(self.boundary_offsets, rows)


def _cells_of(offsets, rows):
    start, stop, _ = rows.indices(int(offsets[-1]))
    return np.searchsorted(offsets, np.arange(start, stop), side="right")


def _offsets(counts):
    return np.concatenate([[0], np.cumsum(counts)])


def _map_rule(simplices, ref_pts):
    """``ref_pts`` mapped onto each simplex: first vertex plus reference
    point times edge matrix, (n, n_ref, d)."""
    return simplices[:, :1] + ref_pts @ (simplices[:, 1:] - simplices[:, :1])


def _bulk_rules(grid, cls, simplices, s_cell, order):
    """Points, weights and offsets of the bulk rules of all active cells,
    and the box rule in unit-box coordinates with its weights: the box
    rule moved to every interior cell, and the simplex rule mapped onto
    the kept sub-simplices of the cut cells."""
    d = grid.d
    box_pts, box_w = _box_rule(grid.h, order)
    ref_pts, ref_w = (_triangle_rule if d == 2 else _tet_rule)(order)
    jac = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1]))
    volume = jac / (2.0 if d == 2 else 6.0)
    keep = ~(volume < MIN_VOLUME_FRACTION * grid.cell_volume)
    simplices, s_cell, jac = simplices[keep], s_cell[keep], jac[keep]
    n_ref = len(ref_w)
    counts = np.bincount(s_cell - 1, minlength=cls.n_active) * n_ref
    counts[cls.interior_ids - 1] = len(box_w)
    offsets = _offsets(counts)
    points = np.empty((offsets[-1], d))
    weights = np.empty(offsets[-1])
    interior = cls.interior_ids - 1
    rows = (offsets[interior][:, None] + np.arange(len(box_w))).ravel()
    lo = grid.cell_origin(cls.id_to_lattice[interior])
    points[rows] = (lo[:, None, :] + box_pts).reshape(-1, d)
    weights[rows] = np.tile(box_w, interior.size)
    # first row of each simplex: its cell's offset plus the simplices
    # before it in the same cell
    first = offsets[s_cell - 1] + n_ref * (
        np.arange(s_cell.size) - np.searchsorted(s_cell, s_cell))
    per = max(1, CHUNK_POINTS // n_ref)
    for s in range(0, len(simplices), per):
        rows = (first[s:s + per, None] + np.arange(n_ref)).ravel()
        points[rows] = _map_rule(simplices[s:s + per], ref_pts).reshape(-1, d)
        weights[rows] = (jac[s:s + per, None] * ref_w).ravel()
    return points, weights, offsets, _box_rule(np.ones(d), order)[0], box_w


def _interface_rules(grid, n_active, facets, anchors, f_cell, order):
    """Points, weights, unit normals and offsets of the interface rules.

    Each normal points away from the inside vertex ``anchors`` of its
    simplex, along the gradient of the simplex's linear interpolant."""
    d = grid.d
    f_pts, f_w = (_segment_rule if d == 2 else _triangle_rule)(order)
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
    facets, anchors, f_cell = facets[keep], anchors[keep], f_cell[keep]
    normals = normals[keep] / scale[keep, None]
    outward = np.einsum("nd,nd->n", normals, facets.mean(axis=1) - anchors)
    normals[outward < 0.0] *= -1.0
    n_f = len(f_w)
    return (_map_rule(facets, f_pts).reshape(-1, d),
            (scale[keep, None] * f_w).ravel(),
            np.repeat(normals, n_f, axis=0),
            _offsets(np.bincount(f_cell - 1, minlength=n_active) * n_f))


def cut_quadrature(grid: BackgroundGrid, ls: LevelSet,
                   cls: CellClassification, order: int) -> QuadratureStore:
    """Quadrature of every active cell of ``cls``, classified against ``ls``.

    Interior cells get the tensor-product Gauss rule of their box and no
    interface rule.  Cut cells get rules on the linearized inside region
    and interface; sub-simplices below ``MIN_VOLUME_FRACTION`` of the cell
    and facets of negligible measure are dropped.  Corner values come
    from the classification; ``ls`` is sampled only at 2D cut-cell
    centers.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    cut = cls.cut_ids
    lattices = cls.id_to_lattice[cut - 1]
    corners = _corner_values(cls.vertex_values, grid.d)[tuple(lattices.T)]
    centers = np.zeros(cut.size)
    if grid.d == 2 and cut.size:
        centers = np.asarray(ls(cls.barycenters()[cut - 1]), dtype=np.float64)
    simplices, s_src, facets, anchors, f_src = _clip(
        *_sub_simplices(grid, lattices, corners, centers), cls.tol)
    n_sub = len(_SUBDIVISION[grid.d])
    s_cell, f_cell = cut[s_src // n_sub], cut[f_src // n_sub]
    points, weights, offsets, box_points, box_weights = _bulk_rules(
        grid, cls, simplices, s_cell, order)
    b_points, b_weights, b_normals, b_offsets = _interface_rules(
        grid, cls.n_active, facets, anchors, f_cell, order)
    return QuadratureStore(
        points=points, weights=weights, offsets=offsets,
        boundary_points=b_points, boundary_weights=b_weights,
        boundary_normals=b_normals, boundary_offsets=b_offsets,
        box_points=box_points, box_weights=box_weights)


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

    def id_at(self, lattice) -> int:
        return int(self.active_id[tuple(np.asarray(lattice, dtype=np.int64))])

    def barycenters(self) -> np.ndarray:
        return self.grid.origin + (self.id_to_lattice + 0.5) * self.grid.h

    def neighbor_ids(self, steps) -> np.ndarray:
        """Active ids of the cells at ``lattice + step``, one row per active
        cell and one column per step; 0 outside the grid or exterior."""
        padded = np.pad(self.active_id, 1)
        at = self.id_to_lattice[:, None, :] + 1 + np.asarray(steps)
        return padded[tuple(np.moveaxis(at, -1, 0))]


def _face_table(cls: CellClassification):
    """Face-neighbor ids and open flags of every active cell, in the
    order -x, +x, -y, +y[, -z, +z].

    A face is open iff it is shared with an active cell and intersects
    the domain: psi < -tol at some face vertex, or psi < 0 at one face
    vertex and psi > 0 at another (linear interpolation then places part
    of the face inside)."""
    d = cls.grid.d
    ids = cls.neighbor_ids(FACE_STEPS[d])
    bits = np.array(list(itertools.product((0, 1), repeat=d)))
    vals = cls.vertex_values[tuple(np.moveaxis(
        cls.id_to_lattice[:, None, :] + bits, -1, 0))]
    inside, neg, pos = vals < -cls.tol, vals < 0.0, vals > 0.0
    open_ = np.empty(ids.shape, dtype=bool)
    for axis in range(d):
        for side in (0, 1):
            on = bits[:, axis] == side
            open_[:, 2 * axis + side] = inside[:, on].any(axis=1) | (
                neg[:, on].any(axis=1) & pos[:, on].any(axis=1))
    return ids, open_ & (ids > 0)


def face_is_active(cls: CellClassification, ka: int, kb: int) -> bool:
    """Whether active cells ``ka`` and ``kb`` share an open face, read off
    the face table; False when they share no face."""
    return bool(np.any(cls.face_open[ka - 1] & (cls.face_ids[ka - 1] == kb)))


def _vertex_values(grid: BackgroundGrid, ls: LevelSet) -> np.ndarray:
    n = grid.n_per_axis
    axes = [grid.origin[a] + grid.h[a] * np.arange(n + 1) for a in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(ls(pts), dtype=np.float64)
    return vals.reshape((n + 1,) * grid.d)


def _corner_values(vvals: np.ndarray, d: int) -> np.ndarray:
    """Per-cell corner values, shape lattice + (2**d,), x-fastest corners."""
    n = vvals.shape[0] - 1
    return np.stack([vvals[tuple(slice(b, b + n) for b in bits)]
                     for bits in corner_offsets(d)], axis=-1)


def classify_cells(grid: BackgroundGrid, ls: LevelSet,
                   tol: float | None = None) -> CellClassification:
    """Classify every background cell as interior, cut, or exterior.

    A cell is interior iff psi < -tol at all its vertices.  Every other
    cell with an inside vertex (or, in 2D, an inside center) is clipped,
    all in one pass; it is cut iff its clipped volume reaches
    ``MIN_VOLUME_FRACTION`` of the cell, else exterior.
    """
    if tol is None:
        tol = default_tolerance(grid)
    if tol < 0:
        raise ValueError("classification tolerance must be >= 0")
    vvals = _vertex_values(grid, ls)
    if not np.all(np.isfinite(vvals)):
        bad = np.argwhere(~np.isfinite(vvals))[0]
        cell = np.minimum(bad, grid.n_per_axis - 1)
        raise ClassificationError(
            f"level set {ls.name!r} returned a non-finite value at a vertex "
            f"of cell {tuple(int(c) for c in cell)}")
    corners = _corner_values(vvals, grid.d)
    labels = np.full(corners.shape[:-1], EXTERIOR, dtype=np.int8)
    labels[np.max(corners, axis=-1) < -tol] = INTERIOR

    # any other cell with an inside corner (or, in 2D, center) is cut
    # unless its clipped volume falls below the demotion threshold
    rest = labels != INTERIOR
    lattices, cvals = np.argwhere(rest), corners[rest]
    touched = np.min(cvals, axis=-1) < -tol
    centers = np.zeros(len(lattices))
    if grid.d == 2 and lattices.size:
        centers = np.asarray(ls(grid.cell_barycenter(lattices)), dtype=np.float64)
        touched |= centers < -tol
    lattices, cvals, centers = lattices[touched], cvals[touched], centers[touched]
    simplices, src, *_ = _clip(
        *_sub_simplices(grid, lattices, cvals, centers), tol)
    volume = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / (
        2.0 if grid.d == 2 else 6.0)
    volume = np.bincount(src // len(_SUBDIVISION[grid.d]), volume,
                         minlength=len(lattices))
    cut = lattices[volume >= MIN_VOLUME_FRACTION * grid.cell_volume]
    labels[tuple(cut.T)] = CUT

    active = np.argwhere(labels != EXTERIOR).astype(np.int64)
    order = np.argsort(morton_encode(active, grid.level), kind="stable")
    id_to_lattice = active[order]
    active_id = np.zeros(labels.shape, dtype=np.int64)
    active_id[tuple(id_to_lattice.T)] = np.arange(1, len(id_to_lattice) + 1)
    return CellClassification(grid=grid, labels=labels, active_id=active_id,
                              id_to_lattice=id_to_lattice, tol=tol,
                              vertex_values=vvals)
