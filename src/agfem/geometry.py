"""Cell classification and cut-cell quadrature.

Cells are classified against a level set by sampling at cell vertices:
interior when psi < -tol at every vertex, exterior when the linearized
cut region is empty, cut otherwise.  A vertex with psi >= -tol counts as
outside (the domain is the strict negative set).

Cut integration linearizes the level set on a simplex subdivision of the
cell (four fan triangles around the center in 2D, the six-tetrahedron
Kuhn split in 3D) and places collapsed tensor Gauss rules on each inside
sub-simplex.  Interface facets come from the linear zero crossing; this
is exact for half-plane geometries and first-order convergent for smooth
ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import BackgroundGrid, face_neighbors, morton_encode
from .levelset import LevelSet, gradient

EXTERIOR, INTERIOR, CUT = 0, 1, 2

# cut regions smaller than this fraction of the cell volume are dropped
# and the cell is demoted to exterior
MIN_VOLUME_FRACTION = 1e-14


class ClassificationError(ValueError):
    """Level set produced unusable values during classification."""


def default_tolerance(grid: BackgroundGrid) -> float:
    return 1e-12 * float(np.min(grid.h))


# ---------------------------------------------------------------------------
# reference rules


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_box_rule(lo: np.ndarray, hi: np.ndarray, order: int):
    """Tensor-product Gauss rule on an axis-aligned box, exact to `order`."""
    d = len(lo)
    x, w = _gauss01(max(1, (order + 2) // 2))
    pts_1d = [lo[a] + x * (hi[a] - lo[a]) for a in range(d)]
    wts_1d = [w * (hi[a] - lo[a]) for a in range(d)]
    grids = np.meshgrid(*pts_1d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*wts_1d, indexing="ij")
    weights = np.ones(points.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return points, weights


def _segment_rule(order: int):
    return _gauss01(max(1, (order + 2) // 2))


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


def _map_simplex_rule(verts: np.ndarray, ref_pts: np.ndarray, ref_w: np.ndarray):
    edges = verts[1:] - verts[0]
    points = verts[0] + ref_pts @ edges
    weights = ref_w * abs(float(np.linalg.det(edges)))
    return points, weights


# ---------------------------------------------------------------------------
# linear clipping of simplices


def _crossing(p_in, p_out, f_in, f_out):
    t = f_in / (f_in - f_out)
    t = min(max(t, 0.0), 1.0)
    return p_in + t * (p_out - p_in)


def _clip_triangle(verts, vals, tol):
    """Clip one triangle by the linear interpolant of `vals`.

    Returns (inside triangles, interface segments); a segment is a
    (2, 2) array.
    """
    inside = vals < -tol
    m = int(inside.sum())
    if m == 0:
        return [], []
    if m == 3:
        return [verts], []
    ins = [i for i in range(3) if inside[i]]
    outs = [i for i in range(3) if not inside[i]]
    if m == 1:
        a = ins[0]
        c1 = _crossing(verts[a], verts[outs[0]], vals[a], vals[outs[0]])
        c2 = _crossing(verts[a], verts[outs[1]], vals[a], vals[outs[1]])
        return [np.array([verts[a], c1, c2])], [np.array([c1, c2])]
    a, b = ins
    o = outs[0]
    ca = _crossing(verts[a], verts[o], vals[a], vals[o])
    cb = _crossing(verts[b], verts[o], vals[b], vals[o])
    tris = [np.array([verts[a], verts[b], cb]), np.array([verts[a], cb, ca])]
    return tris, [np.array([ca, cb])]


_WEDGE_SPLIT = ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5))


def _clip_tet(verts, vals, tol):
    """Clip one tetrahedron; returns (inside tets, interface triangles)."""
    inside = vals < -tol
    m = int(inside.sum())
    if m == 0:
        return [], []
    if m == 4:
        return [verts], []
    ins = [i for i in range(4) if inside[i]]
    outs = [i for i in range(4) if not inside[i]]
    if m == 1:
        a = ins[0]
        c = [_crossing(verts[a], verts[o], vals[a], vals[o]) for o in outs]
        return [np.array([verts[a], *c])], [np.array(c)]
    if m == 3:
        o = outs[0]
        c = [_crossing(verts[i], verts[o], vals[i], vals[o]) for i in ins]
        # inside part is a wedge: triangle of inside vertices plus crossings
        wedge = np.array([verts[ins[0]], verts[ins[1]], verts[ins[2]], *c])
        tets = [wedge[list(idx)] for idx in _WEDGE_SPLIT]
        return tets, [np.array(c)]
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
    return tets, facets


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
    clip = _clip_triangle if grid.d == 2 else _clip_tet
    bulk, facets = [], []
    for simplex, vals in _cell_simplices(grid, lattice, corner_vals, center_val):
        b, f = clip(simplex, vals, tol)
        bulk.extend(b)
        facets.extend(f)
    return bulk, facets


def _cut_volume(grid, lattice, corner_vals, center_val, tol) -> float:
    bulk, _ = _clip_cell(grid, lattice, corner_vals, center_val, tol)
    return float(sum(_simplex_volume(s) for s in bulk))


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class CutQuadrature:
    """Bulk rule over the cell's inside region and a rule on its interface."""

    points: np.ndarray
    weights: np.ndarray
    boundary_points: np.ndarray
    boundary_weights: np.ndarray
    boundary_normals: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.weights.size == 0

    @property
    def has_boundary(self) -> bool:
        return self.boundary_weights.size > 0


def _empty_quadrature(d: int) -> CutQuadrature:
    z = np.zeros((0, d))
    return CutQuadrature(z, np.zeros(0), z.copy(), np.zeros(0), z.copy())


def _facet_measure_and_normal(facet: np.ndarray):
    if facet.shape[0] == 2:
        t = facet[1] - facet[0]
        length = float(np.hypot(t[0], t[1]))
        if length == 0.0:
            return 0.0, None
        return length, np.array([t[1], -t[0]]) / length
    n = np.cross(facet[1] - facet[0], facet[2] - facet[0])
    area2 = float(np.linalg.norm(n))
    if area2 == 0.0:
        return 0.0, None
    return 0.5 * area2, n / area2


def cut_quadrature(grid: BackgroundGrid, ls: LevelSet, cell, order: int,
                   tol: float | None = None) -> CutQuadrature:
    """Quadrature for one interior or cut cell.

    Interior cells get the plain tensor-product Gauss rule and an empty
    boundary rule.  Cut cells get rules on the linearized inside region
    and interface; normals point out of the domain (aligned with the
    level-set gradient).  A cut whose volume fraction falls below
    ``MIN_VOLUME_FRACTION`` yields an empty rule so the caller can demote
    the cell to exterior.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if tol is None:
        tol = default_tolerance(grid)
    lattice = np.asarray(cell, dtype=np.int64)
    verts = grid.cell_vertices(lattice)
    corner_vals = np.asarray(ls(verts), dtype=np.float64)
    if np.all(corner_vals < -tol):
        lo = grid.cell_origin(lattice)
        points, weights = tensor_box_rule(lo, lo + grid.h, order)
        z = np.zeros((0, grid.d))
        return CutQuadrature(points, weights, z, np.zeros(0), z.copy())

    center_val = float(ls(grid.cell_barycenter(lattice)[None, :])[0])
    bulk, facets = _clip_cell(grid, lattice, corner_vals, center_val, tol)
    volume = sum(_simplex_volume(s) for s in bulk)
    if volume < MIN_VOLUME_FRACTION * grid.cell_volume:
        return _empty_quadrature(grid.d)

    if grid.d == 2:
        ref_pts, ref_w = _triangle_rule(order)
    else:
        ref_pts, ref_w = _tet_rule(order)
    pts_parts, w_parts = [], []
    for simplex in bulk:
        if _simplex_volume(simplex) < MIN_VOLUME_FRACTION * grid.cell_volume:
            continue
        p, w = _map_simplex_rule(simplex, ref_pts, ref_w)
        pts_parts.append(p)
        w_parts.append(w)
    points = np.vstack(pts_parts) if pts_parts else np.zeros((0, grid.d))
    weights = np.concatenate(w_parts) if w_parts else np.zeros(0)

    h_min = float(np.min(grid.h))
    grad_step = 1e-6 * h_min
    bp_parts, bw_parts, bn_parts = [], [], []
    if grid.d == 2:
        f_ref, f_w = _segment_rule(order)
    else:
        f_ref, f_w = _triangle_rule(order)
    for facet in facets:
        measure, normal = _facet_measure_and_normal(facet)
        if measure < 1e-14 * h_min ** (grid.d - 1):
            continue
        centroid = facet.mean(axis=0)
        g = gradient(ls, centroid, grad_step)[0]
        if float(g @ normal) < 0.0:
            normal = -normal
        if grid.d == 2:
            p = facet[0] + f_ref[:, None] * (facet[1] - facet[0])
            w = f_w * measure
        else:
            edges = facet[1:] - facet[0]
            p = facet[0] + f_ref @ edges
            w = f_w * (2.0 * measure)
        bp_parts.append(p)
        bw_parts.append(w)
        bn_parts.append(np.broadcast_to(normal, p.shape).copy())
    if bp_parts:
        bpoints = np.vstack(bp_parts)
        bweights = np.concatenate(bw_parts)
        bnormals = np.vstack(bn_parts)
    else:
        bpoints = np.zeros((0, grid.d))
        bweights = np.zeros(0)
        bnormals = np.zeros((0, grid.d))
    return CutQuadrature(points, weights, bpoints, bweights, bnormals)


# ---------------------------------------------------------------------------
# classification


@dataclass
class CellClassification:
    """Per-cell labels plus the active-cell id tables.

    Active cells (interior or cut) get contiguous 1-based global ids in
    Morton order.  Exterior cells have id 0.
    """

    grid: BackgroundGrid
    labels: np.ndarray           # lattice-shaped int8, EXTERIOR/INTERIOR/CUT
    active_id: np.ndarray        # lattice-shaped int64, 0 where exterior
    id_to_lattice: np.ndarray    # (n_active, d)
    tol: float
    interior_ids: np.ndarray = field(init=False)
    cut_ids: np.ndarray = field(init=False)
    is_cut: np.ndarray = field(init=False)

    def __post_init__(self):
        lab = self.labels[tuple(self.id_to_lattice.T)]
        ids = np.arange(1, self.n_active + 1, dtype=np.int64)
        self.is_cut = lab == CUT
        self.interior_ids = ids[lab == INTERIOR]
        self.cut_ids = ids[self.is_cut]

    @property
    def n_active(self) -> int:
        return self.id_to_lattice.shape[0]

    def lattice_of(self, cell_id: int) -> np.ndarray:
        return self.id_to_lattice[cell_id - 1]

    def id_at(self, lattice) -> int:
        return int(self.active_id[tuple(np.asarray(lattice, dtype=np.int64))])

    def label_of(self, cell_id: int) -> int:
        return int(self.labels[tuple(self.id_to_lattice[cell_id - 1])])

    def barycenters(self) -> np.ndarray:
        return self.grid.origin + (self.id_to_lattice + 0.5) * self.grid.h

    def active_face_neighbors(self, cell_id: int) -> np.ndarray:
        """Active-cell ids of face neighbors, deterministic -x,+x,-y,+y[,±z]."""
        out = []
        for nb in face_neighbors(self.grid, self.id_to_lattice[cell_id - 1]):
            nb_id = self.active_id[tuple(nb)]
            if nb_id > 0:
                out.append(nb_id)
        return np.asarray(out, dtype=np.int64)


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
                              id_to_lattice=id_to_lattice, tol=tol)


def face_is_active(grid: BackgroundGrid, ls: LevelSet, cell_a, cell_b,
                   tol: float | None = None) -> bool:
    """True iff the face shared by two neighbor cells intersects the domain.

    The test is: psi < -tol at some face vertex, or a raw sign change of
    psi along a face edge (linear interpolation places a sub-segment
    inside).
    """
    if tol is None:
        tol = default_tolerance(grid)
    a = np.asarray(cell_a, dtype=np.int64)
    b = np.asarray(cell_b, dtype=np.int64)
    diff = b - a
    if np.sum(np.abs(diff)) != 1:
        raise ValueError(f"cells {tuple(a)} and {tuple(b)} are not face neighbors")
    axis = int(np.argmax(np.abs(diff)))
    hi = a if diff[axis] < 0 else b
    lo_corner = grid.cell_origin(hi)
    other_axes = [ax for ax in range(grid.d) if ax != axis]
    verts = []
    for combo in itertools.product((0.0, 1.0), repeat=len(other_axes)):
        p = lo_corner.copy()
        for ax, c in zip(other_axes, combo):
            p[ax] += c * grid.h[ax]
        verts.append(p)
    vals = np.asarray(ls(np.asarray(verts)), dtype=np.float64)
    if np.any(vals < -tol):
        return True
    return bool(np.any(vals < 0.0) and np.any(vals > 0.0))
