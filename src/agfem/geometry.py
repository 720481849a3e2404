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
Kuhn split in 3D) and places collapsed tensor Gauss rules on each inside
sub-simplex.  Interface facets come from the linear zero crossing, their
normals along the gradient of the simplex's linear interpolant; this is
exact for half-plane geometries and first-order convergent for smooth
ones.  All rules live in one flat store in cell-id order: interior cells
share one box rule, cut cells are clipped one at a time and their rules
mapped in batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import FACE_STEPS, BackgroundGrid, morton_encode
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


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


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
    m = max(1, (order + 4) // 2)
    u, wu = _gauss01(m)
    v, wv = _gauss01(m)
    t, wt = _gauss01(m)
    uu, vv, tt = np.meshgrid(u, v, t, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    z = (tt * (1.0 - uu) * (1.0 - vv)).ravel()
    w = np.einsum("i,j,k->ijk", wu * (1.0 - u) ** 2, wv * (1.0 - v), wt).ravel()
    return np.stack([x, y, z], axis=1), w


def _simplex_volume(verts: np.ndarray) -> float:
    edges = verts[1:] - verts[0]
    d = verts.shape[1]
    fact = 2.0 if d == 2 else 6.0
    return abs(float(np.linalg.det(edges))) / fact


# ---------------------------------------------------------------------------
# linear clipping of simplices


def _crossing(p_in, p_out, f_in, f_out):
    t = f_in / (f_in - f_out)
    t = min(max(t, 0.0), 1.0)
    return p_in + t * (p_out - p_in)


def _clip_triangle(verts, vals, tol):
    """Clip one triangle by the linear interpolant of `vals`.

    Returns (inside triangles, interface segments, an inside vertex); a
    segment is a (2, 2) array.
    """
    inside = vals < -tol
    m = int(inside.sum())
    if m == 0:
        return [], [], None
    if m == 3:
        return [verts], [], None
    ins = [i for i in range(3) if inside[i]]
    outs = [i for i in range(3) if not inside[i]]
    if m == 1:
        a = ins[0]
        c1 = _crossing(verts[a], verts[outs[0]], vals[a], vals[outs[0]])
        c2 = _crossing(verts[a], verts[outs[1]], vals[a], vals[outs[1]])
        return [np.array([verts[a], c1, c2])], [np.array([c1, c2])], verts[a]
    a, b = ins
    o = outs[0]
    ca = _crossing(verts[a], verts[o], vals[a], vals[o])
    cb = _crossing(verts[b], verts[o], vals[b], vals[o])
    tris = [np.array([verts[a], verts[b], cb]), np.array([verts[a], cb, ca])]
    return tris, [np.array([ca, cb])], verts[a]


_WEDGE_SPLIT = ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5))


def _clip_tet(verts, vals, tol):
    """Clip one tetrahedron; returns (inside tets, interface triangles, an
    inside vertex)."""
    inside = vals < -tol
    m = int(inside.sum())
    if m == 0:
        return [], [], None
    if m == 4:
        return [verts], [], None
    ins = [i for i in range(4) if inside[i]]
    outs = [i for i in range(4) if not inside[i]]
    if m == 1:
        a = ins[0]
        c = [_crossing(verts[a], verts[o], vals[a], vals[o]) for o in outs]
        return [np.array([verts[a], *c])], [np.array(c)], verts[a]
    if m == 3:
        o = outs[0]
        c = [_crossing(verts[i], verts[o], vals[i], vals[o]) for i in ins]
        # inside part is a wedge: triangle of inside vertices plus crossings
        wedge = np.array([verts[ins[0]], verts[ins[1]], verts[ins[2]], *c])
        tets = [wedge[list(idx)] for idx in _WEDGE_SPLIT]
        return tets, [np.array(c)], verts[ins[0]]
    a, b = ins
    o1, o2 = outs
    ca1 = _crossing(verts[a], verts[o1], vals[a], vals[o1])
    ca2 = _crossing(verts[a], verts[o2], vals[a], vals[o2])
    cb1 = _crossing(verts[b], verts[o1], vals[b], vals[o1])
    cb2 = _crossing(verts[b], verts[o2], vals[b], vals[o2])
    wedge = np.array([verts[a], ca1, ca2, verts[b], cb1, cb2])
    tets = [wedge[list(idx)] for idx in _WEDGE_SPLIT]
    # the zero set cuts the tet in a planar quad, split it into triangles
    quad = [ca1, cb1, cb2, ca2]
    facets = [np.array([quad[0], quad[1], quad[2]]),
              np.array([quad[0], quad[2], quad[3]])]
    return tets, facets, verts[a]


_KUHN_PERMS = list(itertools.permutations(range(3)))


def _cell_simplices(grid: BackgroundGrid, lattice, corner_vals, center_val):
    """Simplex subdivision of one cell with sampled level-set values."""
    verts = grid.cell_vertices(lattice)
    if grid.d == 2:
        center = grid.cell_barycenter(lattice)
        ring = [0, 1, 3, 2]  # corners in boundary order, x fastest indexing
        out = []
        for i in range(4):
            a, b = ring[i], ring[(i + 1) % 4]
            tri = np.array([center, verts[a], verts[b]])
            vals = np.array([center_val, corner_vals[a], corner_vals[b]])
            out.append((tri, vals))
        return out
    out = []
    for perm in _KUHN_PERMS:
        idx = [0]
        bits = 0
        for axis in perm:
            bits |= 1 << axis
            idx.append(bits)
        tet = verts[idx]
        vals = corner_vals[list(idx)]
        out.append((tet, vals))
    return out


def _clip_cell(grid, lattice, corner_vals, center_val, tol):
    """Inside simplices, interface facets and an inside vertex per facet."""
    clip = _clip_triangle if grid.d == 2 else _clip_tet
    bulk, facets, anchors = [], [], []
    for simplex, vals in _cell_simplices(grid, lattice, corner_vals, center_val):
        b, f, a = clip(simplex, vals, tol)
        bulk.extend(b)
        facets.extend(f)
        anchors.extend([a] * len(f))
    return bulk, facets, anchors


def _cut_volume(grid, lattice, corner_vals, center_val, tol) -> float:
    bulk, _, _ = _clip_cell(grid, lattice, corner_vals, center_val, tol)
    return float(sum(_simplex_volume(s) for s in bulk))


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class QuadratureStore:
    """Bulk and interface rules of every active cell, flat, in cell-id order.

    Active cell k owns rows ``offsets[k-1]:offsets[k]`` of the bulk arrays
    and ``boundary_offsets[k-1]:boundary_offsets[k]`` of the interface
    arrays.  Interface normals are unit vectors pointing out of the
    domain.
    """

    points: np.ndarray            # (n, d)
    weights: np.ndarray           # (n,)
    offsets: np.ndarray           # (n_active + 1,), from 0
    boundary_points: np.ndarray   # (nb, d)
    boundary_weights: np.ndarray  # (nb,)
    boundary_normals: np.ndarray  # (nb, d)
    boundary_offsets: np.ndarray  # (n_active + 1,), from 0

    def bulk_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each bulk point in ``rows``."""
        return _cells_of(self.offsets, rows)

    def boundary_cells(self, rows: slice = slice(None)) -> np.ndarray:
        """Cell id of each interface point in ``rows``."""
        return _cells_of(self.boundary_offsets, rows)


def _cells_of(offsets, rows):
    start, stop, _ = rows.indices(int(offsets[-1]))
    return np.searchsorted(offsets, np.arange(start, stop), side="right")


def _offsets(counts):
    return np.concatenate([[0], np.cumsum(counts)])


def _clip_cut_cells(grid, ls, cls):
    """Clip every cut cell, in id order: inside simplices (n, d+1, d) and
    their cell ids, facets (nf, d, d), an inside vertex per facet and the
    facet cell ids."""
    d = grid.d
    cut = cls.cut_ids
    lattices = cls.id_to_lattice[cut - 1]
    corners = _corner_values(cls.vertex_values, d)[tuple(lattices.T)]
    centers = np.zeros(cut.size)
    if d == 2 and cut.size:
        centers = np.asarray(ls(cls.barycenters()[cut - 1]), dtype=np.float64)
    simplices, s_cell, facets, anchors, f_cell = [], [], [], [], []
    for k, lattice, cvals, cval in zip(cut, lattices, corners, centers):
        b, f, a = _clip_cell(grid, lattice, cvals, float(cval), cls.tol)
        simplices += b
        facets += f
        anchors += a
        s_cell += [k] * len(b)
        f_cell += [k] * len(f)
    return (np.array(simplices).reshape(-1, d + 1, d),
            np.array(s_cell, dtype=np.int32),
            np.array(facets).reshape(-1, d, d),
            np.array(anchors).reshape(-1, d),
            np.array(f_cell, dtype=np.int32))


def _map_rule(simplices, ref_pts):
    """``ref_pts`` mapped onto each simplex: first vertex plus reference
    point times edge matrix, (n, n_ref, d)."""
    return simplices[:, :1] + ref_pts @ (simplices[:, 1:] - simplices[:, :1])


def _bulk_rules(grid, cls, simplices, s_cell, order):
    """Points, weights and offsets of the bulk rules of all active cells:
    the box rule moved to every interior cell, and the simplex rule
    mapped onto the kept sub-simplices of the cut cells."""
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
    return points, weights, offsets


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
    simplices, s_cell, facets, anchors, f_cell = _clip_cut_cells(grid, ls, cls)
    points, weights, offsets = _bulk_rules(grid, cls, simplices, s_cell, order)
    b_points, b_weights, b_normals, b_offsets = _interface_rules(
        grid, cls.n_active, facets, anchors, f_cell, order)
    return QuadratureStore(
        points=points, weights=weights, offsets=offsets,
        boundary_points=b_points, boundary_weights=b_weights,
        boundary_normals=b_normals, boundary_offsets=b_offsets)


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
    slabs = []
    for c in range(1 << d):
        sl = tuple(slice(1, None) if (c >> a) & 1 else slice(0, -1)
                   for a in range(d))
        slabs.append(vvals[sl])
    return np.stack(slabs, axis=-1)


def classify_cells(grid: BackgroundGrid, ls: LevelSet,
                   tol: float | None = None) -> CellClassification:
    """Classify every background cell as interior, cut, or exterior.

    A cell is interior iff psi < -tol at all its vertices; it is exterior
    iff no vertex is inside and the linearized cut region is empty (or
    below the demotion threshold); otherwise it is cut.
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
            f"of cell {tuple(int(c) for c in cell)}"
        )
    corners = _corner_values(vvals, grid.d)
    labels = np.full(corners.shape[:-1], EXTERIOR, dtype=np.int8)
    labels[np.max(corners, axis=-1) < -tol] = INTERIOR

    candidates = np.argwhere((labels != INTERIOR) & (np.min(corners, axis=-1) < -tol))
    if grid.d == 2 and candidates.size:
        centers = grid.origin + (candidates + 0.5) * grid.h
        center_vals = np.asarray(ls(centers), dtype=np.float64)
    else:
        center_vals = np.zeros(len(candidates))
    min_volume = MIN_VOLUME_FRACTION * grid.cell_volume
    for lattice, cval in zip(candidates, center_vals):
        cvals = corners[tuple(lattice)]
        if _cut_volume(grid, lattice, cvals, cval, tol) >= min_volume:
            labels[tuple(lattice)] = CUT
    if grid.d == 2:
        # a center sample inside an all-outside-corner cell can still open
        # a cut region under the fan subdivision
        extra = np.argwhere(labels == EXTERIOR)
        if extra.size:
            cvs = np.asarray(ls(grid.origin + (extra + 0.5) * grid.h))
            for lattice, cval in zip(extra[cvs < -tol], cvs[cvs < -tol]):
                cvals = corners[tuple(lattice)]
                if _cut_volume(grid, lattice, cvals, float(cval), tol) >= min_volume:
                    labels[tuple(lattice)] = CUT

    active = np.argwhere(labels != EXTERIOR).astype(np.int64)
    order = np.argsort(morton_encode(active, grid.level), kind="stable")
    id_to_lattice = active[order]
    active_id = np.zeros(labels.shape, dtype=np.int64)
    active_id[tuple(id_to_lattice.T)] = np.arange(1, len(id_to_lattice) + 1)
    return CellClassification(grid=grid, labels=labels, active_id=active_id,
                              id_to_lattice=id_to_lattice, tol=tol,
                              vertex_values=vvals)
