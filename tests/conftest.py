"""Shared fixtures and independent oracles."""

from __future__ import annotations

import contextlib
import functools
import itertools
import signal
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special

from agfem.assembly import (TauUnboundedError, nitsche_tau_agg,
                            nitsche_tau_std, poisson_elements)
from agfem.fespace import extension_operator, shape_gradients, shape_values
from agfem.geometry import (MIN_VOLUME_FRACTION, _box_rule, _cell_corners,
                            _clip, _facet_rule, _map_rule, _sub_simplices,
                            _tet_rule, _triangle_rule, classify_cells,
                            point_chunks)
from agfem.grid import corner_offsets, face_neighbors, unit_box_grid
from agfem.levelset import HalfPlane, LevelSet, Sphere


def morton_decode(code, level: int, d: int) -> np.ndarray:
    """Inverse of ``grid.morton_encode``: (..., d) lattice indices."""
    code = np.asarray(code, dtype=np.int64)
    lattice = np.zeros(code.shape + (d,), dtype=np.int64)
    for bit in range(level):
        for axis in range(d):
            lattice[..., axis] |= ((code >> (bit * d + axis)) & 1) << bit
    return lattice


def cell_vertices(grid, lattice) -> np.ndarray:
    """Vertices of one cell of ``grid``, x varying fastest: (2**d, d)."""
    return grid.cell_origin(lattice) + corner_offsets(grid.d) * grid.h


def barycenters(cls) -> np.ndarray:
    """Barycenters (n_active, d) of the active cells of ``cls``, in id
    order."""
    return cls.grid.origin + (cls.id_to_lattice + 0.5) * cls.grid.h


class CallableLevelSet(LevelSet):
    """Wrap a plain function psi(points) -> values."""

    def __init__(self, fn, name: str = "custom"):
        self.fn = fn
        self.name = name

    def __call__(self, points):
        return np.asarray(self.fn(np.asarray(points, dtype=np.float64)),
                          dtype=np.float64)


def bfs_aggregation_oracle(classification, face_active):
    """Multi-source breadth-first aggregation, independent of the sweep code.

    Grows all interior seeds simultaneously; a cut cell joins in the round
    after a neighbor was reached, choosing the neighbor whose root
    barycenter is closest (ties to the smaller neighbor id).  Returns
    {cell id: (root id, next id)}.
    """
    grid = classification.grid
    bary = {k: grid.cell_barycenter(classification.lattice_of(k))
            for k in range(1, classification.n_active + 1)}
    assigned = {int(k): (int(k), int(k)) for k in classification.interior_ids}
    pending = sorted(int(k) for k in classification.cut_ids)
    while pending:
        fresh = {}
        for k in pending:
            best = None
            for nb_lat in face_neighbors(grid, classification.lattice_of(k)):
                nb = classification.active_id[tuple(nb_lat)]
                if nb <= 0 or nb not in assigned:
                    continue
                if not face_active(k, int(nb)):
                    continue
                root = assigned[int(nb)][0]
                dist = float(np.sum((bary[root] - bary[k]) ** 2))
                cand = (dist, int(nb), root)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            if best is not None:
                fresh[k] = (best[2], best[1])
        if not fresh:
            raise RuntimeError(f"oracle stalled with {len(pending)} cells")
        assigned.update(fresh)
        pending = [k for k in pending if k not in fresh]
    return assigned


def root_next_pairs(root_map):
    """{cell id: (root id, next id)} of a root map, the oracle's format."""
    return dict(enumerate(zip(root_map.root.tolist(), root_map.next.tolist()),
                          start=1))


def check_plan_duality(direct_plans, inverse_plans):
    """The (dst, src, root) triples the receive plans name and those the
    send plans name; dual plans give equal sets."""
    recv_triples = {(p.s, sp, k) for p in direct_plans
                    for sp, k in zip(p.peers.tolist(), p.roots.tolist())}
    send_triples = {(z, p.s, k) for p in inverse_plans
                    for z, k in zip(p.peers.tolist(), p.roots.tolist())}
    return recv_triples, send_triples


def face_rule(classification, ka, kb):
    """Scalar face-activity rule, the oracle for the face table.

    True iff the face shared by active cells ``ka`` and ``kb`` intersects
    the domain: psi < -tol at some face vertex, or a raw sign change of
    psi across the face vertices (linear interpolation places part of the
    face inside)."""
    a = classification.id_to_lattice[ka - 1]
    b = classification.id_to_lattice[kb - 1]
    diff = b - a
    assert np.sum(np.abs(diff)) == 1, f"cells {ka} and {kb} share no face"
    axis = int(np.argmax(np.abs(diff)))
    hi = np.maximum(a, b)
    vals = classification.vertex_values[tuple(
        int(hi[ax]) if ax == axis else slice(hi[ax], hi[ax] + 2)
        for ax in range(classification.grid.d))]
    if np.any(vals < -classification.tol):
        return True
    return bool(np.any(vals < 0.0) and np.any(vals > 0.0))


def random_geometry(rng, max_level=5):
    """A random solvable cut configuration (always has interior cells)."""
    level = int(rng.integers(3, max_level + 1))
    h = 0.5**level
    if rng.random() < 0.5:
        radius = float(rng.uniform(3 * h, 0.45))
        center = rng.uniform(0.4, 0.6, size=2)
        ls = Sphere(center, radius)
    else:
        angle = float(rng.uniform(0, 2 * np.pi))
        normal = np.array([np.cos(angle), np.sin(angle)])
        offset = float(normal @ (0.5, 0.5) + rng.uniform(-0.2, 0.2))
        ls = HalfPlane(normal, offset)
    return level, ls


def classified(level, ls, d=2):
    grid = unit_box_grid(level, d)
    cls = classify_cells(grid, ls)
    return grid, cls, functools.partial(face_rule, cls)


def gradient(ls, points, step):
    """Central finite-difference gradient of a level set, the oracle for
    interface normal orientation."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points.shape[1]
    grad = np.empty_like(points)
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = step
        grad[:, axis] = (ls(points + e) - ls(points - e)) / (2.0 * step)
    return grad


def _crossing(p_in, p_out, f_in, f_out):
    t = f_in / (f_in - f_out)
    t = min(max(t, 0.0), 1.0)
    return p_in + t * (p_out - p_in)


def clip_triangle(verts, vals, tol):
    """Clip one triangle by the linear interpolant of `vals`, the per-
    simplex oracle of the case-table clipper.

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


def clip_tet(verts, vals, tol):
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


def conical_tet_rule(order):
    """Stroud's conical product rule on the unit tetrahedron, the oracle
    for the 14-point rule: Gauss-Jacobi points on the first two collapsed
    axes absorb the Jacobian (1-u)**2 (1-v) of the collapse, so m =
    (order+2)//2 points per axis are exact to total degree 2m - 1."""
    m = max(1, (order + 2) // 2)
    axes = []
    for alpha in (2, 1, 0):
        x, w = scipy.special.roots_jacobi(m, alpha, 0.0)
        axes.append((0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)))
    (u, wu), (v, wv), (t, wt) = axes
    uu, vv, tt = np.meshgrid(u, v, t, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    z = (tt * (1.0 - uu) * (1.0 - vv)).ravel()
    w = np.einsum("i,j,k->ijk", wu, wv, wt).ravel()
    return np.stack([x, y, z], axis=1), w


def cell_simplices(grid, lattice, corner_vals, center_val):
    """Simplex subdivision of one cell with sampled level-set values."""
    verts = cell_vertices(grid, lattice)
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
    for perm in itertools.permutations(range(3)):
        idx = [0]
        bits = 0
        for axis in perm:
            bits |= 1 << axis
            idx.append(bits)
        out.append((verts[idx], corner_vals[idx]))
    return out


def clip_simplices(pairs, tol):
    """Inside simplices, interface facets and an inside vertex per facet of
    a list of (vertices, values) simplices, one at a time; with the index
    of the simplex each piece comes from."""
    bulk, b_src, facets, anchors, f_src = [], [], [], [], []
    for k, (simplex, vals) in enumerate(pairs):
        clip = clip_triangle if simplex.shape[1] == 2 else clip_tet
        b, f, a = clip(simplex, vals, tol)
        bulk += b
        facets += f
        anchors += [a] * len(f)
        b_src += [k] * len(b)
        f_src += [k] * len(f)
    return bulk, b_src, facets, anchors, f_src


def clip_cell(grid, lattice, corner_vals, center_val, tol):
    """Inside simplices, interface facets and an inside vertex per facet of
    one cell, clipped one sub-simplex at a time."""
    bulk, _, facets, anchors, _ = clip_simplices(
        cell_simplices(grid, lattice, corner_vals, center_val), tol)
    return bulk, facets, anchors


def cut_volume(grid, lattice, corner_vals, center_val, tol) -> float:
    """Clipped volume of one cell, summed simplex by simplex."""
    bulk, _, _ = clip_cell(grid, lattice, corner_vals, center_val, tol)
    fact = 2.0 if grid.d == 2 else 6.0
    return float(sum(abs(float(np.linalg.det(s[1:] - s[0]))) / fact
                     for s in bulk))


def clip_cells_oracle(grid, lattices, corners, centers, tol):
    """A batch of cells clipped one at a time, as arrays: inside simplices
    and the batch position of each one's cell, facets, an inside vertex
    per facet and the facet cell positions."""
    d = grid.d
    simplices, s_cell, facets, anchors, f_cell = [], [], [], [], []
    for k, (lattice, cvals, cval) in enumerate(zip(lattices, corners, centers)):
        b, f, a = clip_cell(grid, lattice, cvals, float(cval), tol)
        simplices += b
        facets += f
        anchors += a
        s_cell += [k] * len(b)
        f_cell += [k] * len(f)
    return (np.array(simplices).reshape(-1, d + 1, d),
            np.array(s_cell, dtype=np.intp),
            np.array(facets).reshape(-1, d, d),
            np.array(anchors).reshape(-1, d),
            np.array(f_cell, dtype=np.intp))


@dataclass
class PointRule:
    """Quadrature rules with every point expanded, flat, in cell-id order:
    active cell k owns rows ``offsets[k-1]:offsets[k]`` of the bulk arrays
    and ``boundary_offsets[k-1]:boundary_offsets[k]`` of the interface
    arrays."""

    points: np.ndarray            # (n, d)
    weights: np.ndarray           # (n,)
    offsets: np.ndarray           # (n_active + 1,), from 0
    boundary_points: np.ndarray   # (nb, d)
    boundary_weights: np.ndarray  # (nb,)
    boundary_normals: np.ndarray  # (nb, d)
    boundary_offsets: np.ndarray  # (n_active + 1,), from 0

    def bulk_cells(self, rows=slice(None)):
        """Cell id of each bulk point in ``rows``."""
        return _cells_of(self.offsets, rows)

    def boundary_cells(self, rows=slice(None)):
        """Cell id of each interface point in ``rows``."""
        return _cells_of(self.boundary_offsets, rows)


def _cells_of(offsets, rows):
    start, stop, _ = rows.indices(int(offsets[-1]))
    return np.searchsorted(offsets, np.arange(start, stop), side="right")


def _point_offsets(counts):
    return np.concatenate([[0], np.cumsum(counts)])


def expanded_quadrature(grid, ls, cls):
    """The cut cells' rules of ``cut_quadrature`` with every point
    expanded: every cut cell clipped in one pass, then the simplex and
    facet rules mapped onto all kept simplices and facets at once.  The
    oracle for the points, weights and normals the store generates a
    chunk at a time."""
    d, cut = grid.d, cls.cut_ids
    lattices = cls.id_to_lattice[cut - 1]
    corners = _cell_corners(cls.vertex_values, lattices)
    centers = np.zeros(cut.size)
    if d == 2 and cut.size:
        centers = np.asarray(ls(barycenters(cls)[cut - 1]), dtype=np.float64)
    simplices, s_src, facets, anchors, f_src = _clip(
        *_sub_simplices(grid, lattices, corners, centers), cls.tol)
    n_sub = 4 if d == 2 else 6
    s_cell, f_cell = cut[s_src // n_sub], cut[f_src // n_sub]

    # bulk: the simplex rule on every kept sub-simplex
    ref_pts, ref_w = (_triangle_rule if d == 2 else _tet_rule)()
    jac = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1]))
    volume = jac / (2.0 if d == 2 else 6.0)
    keep = ~(volume < MIN_VOLUME_FRACTION * grid.cell_volume)
    simplices, s_cell, jac = simplices[keep], s_cell[keep], jac[keep]
    points = _map_rule(simplices, ref_pts).reshape(-1, d)
    weights = (jac[:, None] * ref_w).ravel()
    offsets = _point_offsets(
        np.bincount(s_cell - 1, minlength=cls.n_active) * len(ref_w))

    # interface: the facet rule on every kept facet, normals away from the
    # inside vertex of the facet's simplex
    f_pts, f_w = _box_rule(np.ones(1)) if d == 2 else _facet_rule()
    edges = facets[:, 1:] - facets[:, :1]
    if d == 2:
        scale = np.hypot(edges[:, 0, 0], edges[:, 0, 1])
        normals = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
        measure = scale
    else:
        normals = np.cross(edges[:, 0], edges[:, 1])
        scale = np.sqrt((normals[:, None, :] @ normals[:, :, None]).ravel())
        measure = 0.5 * scale
    keep = ~(measure < 1e-14 * float(np.min(grid.h)) ** (d - 1))
    facets, anchors, f_cell = facets[keep], anchors[keep], f_cell[keep]
    normals = normals[keep] / scale[keep, None]
    outward = np.einsum("nd,nd->n", normals, facets.mean(axis=1) - anchors)
    normals[outward < 0.0] *= -1.0
    n_f = len(f_w)
    return PointRule(
        points=points, weights=weights, offsets=offsets,
        boundary_points=_map_rule(facets, f_pts).reshape(-1, d),
        boundary_weights=(scale[keep, None] * f_w).ravel(),
        boundary_normals=np.repeat(normals, n_f, axis=0),
        boundary_offsets=_point_offsets(
            np.bincount(f_cell - 1, minlength=cls.n_active) * n_f))


def expand(quad):
    """The store ``quad`` with every point expanded: each rule mapped onto
    every simplex and facet of the store at once."""
    points, weights = quad.bulk_rule(slice(None))
    boundary_points, boundary_weights, boundary_normals = \
        quad.interface_rule(slice(None))
    return PointRule(
        points=points, weights=weights,
        offsets=quad.simplex_offsets * quad.ref_weights.size,
        boundary_points=boundary_points, boundary_weights=boundary_weights,
        boundary_normals=boundary_normals,
        boundary_offsets=quad.facet_offsets * quad.facet_weights.size)


def full_bulk_rule(cls, quad):
    """``quad`` expanded, with the bulk rule of every active cell in its
    flat arrays, in cell order: the box rule at each interior cell's
    origin, rebuilt here, merged with the store's points of the cut
    cells."""
    grid = cls.grid
    box_points, box_weights = _box_rule(grid.h)
    assert np.array_equal(box_weights, quad.box_weights)
    rule = expand(quad)
    counts = np.diff(rule.offsets)
    assert not np.any(counts[cls.interior_ids - 1])
    counts[cls.interior_ids - 1] = box_weights.size
    offsets = _point_offsets(counts)
    interior = np.zeros(offsets[-1], dtype=bool)
    interior[(offsets[cls.interior_ids - 1][:, None]
              + np.arange(box_weights.size)).ravel()] = True
    points = np.empty((offsets[-1], grid.d))
    weights = np.empty(offsets[-1])
    lo = grid.cell_origin(cls.id_to_lattice[cls.interior_ids - 1])
    points[interior] = (lo[:, None, :] + box_points).reshape(-1, grid.d)
    weights[interior] = np.tile(box_weights, cls.interior_ids.size)
    points[~interior], weights[~interior] = rule.points, rule.weights
    return replace(rule, points=points, weights=weights, offsets=offsets)


def all_points_elements(cls, quad, taus, f=None, g=None):
    """Q1 element matrices and vectors integrated point by point over every
    bulk point of every active cell, interior cells included, and every
    interface point: the oracle for the reference-element path of
    ``poisson_elements``."""
    h, m = cls.grid.h, 2 ** cls.grid.d
    quad = full_bulk_rule(cls, quad)
    mats = np.zeros((cls.n_active, m, m))
    vecs = np.zeros((cls.n_active, m))
    for sl in point_chunks(quad.weights.size):
        cells, pts, w = quad.bulk_cells(sl), quad.points[sl], quad.weights[sl]
        xi = cls.reference_coords(cells, pts)
        grads = shape_gradients(xi) / h
        np.add.at(mats, cells - 1, w[:, None, None] * np.einsum(
            "nad,nbd->nab", grads, grads))
        if f is not None:
            np.add.at(vecs, cells - 1,
                      (w * f(pts))[:, None] * shape_values(xi))
    for sl in point_chunks(quad.boundary_weights.size):
        cells, pts = quad.boundary_cells(sl), quad.boundary_points[sl]
        w, tau = quad.boundary_weights[sl], taus[cells - 1]
        xi = cls.reference_coords(cells, pts)
        vals = shape_values(xi)
        gn = np.einsum("nad,nd->na", shape_gradients(xi) / h,
                       quad.boundary_normals[sl])
        np.add.at(mats, cells - 1, w[:, None, None] * (
            tau[:, None, None] * vals[:, :, None] * vals[:, None, :]
            - vals[:, :, None] * gn[:, None, :]
            - gn[:, :, None] * vals[:, None, :]))
        if g is not None:
            np.add.at(vecs, cells - 1, (w * g(pts))[:, None]
                      * (tau[:, None] * vals - gn))
    return mats, vecs


def std_taus(cls, quad, beta):
    """The std penalties of every active cell as the element pass computes
    them: ``nitsche_tau_std`` on the bulk stiffness ``poisson_elements``
    hands its penalty rule."""
    taus = []

    def penalty(V):
        taus.append(nitsche_tau_std(cls, quad, beta, V))
        return taus[0]

    poisson_elements(cls, quad, penalty)
    return taus[0]


def tau_std_oracle(cls, cell_id, quad, beta):
    """Penalty of one cell with interface points for the standard space,
    from its own volume and boundary forms and one dense generalized
    eigenproblem: the oracle for the batched ``nitsche_tau_std``."""
    quad = expand(quad)
    bulk = slice(*quad.offsets[cell_id - 1:cell_id + 1])
    bnd = slice(*quad.boundary_offsets[cell_id - 1:cell_id + 1])
    grid = cls.grid
    xi = cls.reference_coords(cell_id, quad.points[bulk])
    grads = shape_gradients(xi) / grid.h
    V = np.einsum("nad,nbd,n->ab", grads, grads, quad.weights[bulk])
    xib = cls.reference_coords(cell_id, quad.boundary_points[bnd])
    gn = np.einsum("nad,nd->na", shape_gradients(xib) / grid.h,
                   quad.boundary_normals[bnd])
    B = np.einsum("na,nb,n->ab", gn, gn, quad.boundary_weights[bnd])
    Z = scipy.linalg.null_space(np.ones((1, V.shape[0])))
    try:
        lam = scipy.linalg.eigh(Z.T @ B @ Z, Z.T @ V @ Z, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise TauUnboundedError(f"cell {cell_id}") from exc
    return max(beta * float(lam[-1]),
               nitsche_tau_agg(float(np.min(grid.h)), beta))


def all_points_norms(space, quad, full, u_exact, grad_exact):
    """(L2, H1-semi) error norms of the nodal vector ``full`` of the serial
    Q1 space, relative, or absolute when the exact norms vanish, with u_h
    evaluated point by point at every bulk point of every active cell:
    the oracle for ``error_norms``."""
    cls = space.classification
    quad = full_bulk_rule(cls, quad)
    err2 = errg2 = base2 = baseg2 = 0.0
    for sl in point_chunks(quad.weights.size):
        cells, pts, w = quad.bulk_cells(sl), quad.points[sl], quad.weights[sl]
        nodal = full[space.cell_dofs[cells - 1] - 1]
        xi = cls.reference_coords(cells, pts)
        uh = np.einsum("na,na->n", shape_values(xi), nodal)
        gh = np.einsum("nad,na->nd", shape_gradients(xi) / cls.grid.h, nodal)
        ue, ge = np.asarray(u_exact(pts)), np.asarray(grad_exact(pts))
        err2 += float(w @ (ue - uh) ** 2)
        errg2 += float(w @ np.sum((ge - gh) ** 2, axis=1))
        base2 += float(w @ ue**2)
        baseg2 += float(w @ np.sum(ge**2, axis=1))
    if base2 > 1e-28 and baseg2 > 1e-28:
        return np.sqrt(err2 / base2), np.sqrt(errg2 / baseg2)
    return np.sqrt(err2), np.sqrt(errg2)


def _oracle_cell_sums(C, dofs, mat, vec):
    """The nonzero (row, col, value) sums of one cell, col -1 being the
    right-hand side: C_c^T [b_e, A_e C_c] in plain floats, C_c the cell's
    rows of C over the ascending union of the system rows they touch,
    each entry of A_e C_c summed over the nodes b in order and each
    entry of the product over the nodes a in order."""
    rows = [dict(zip(C.indices[C.indptr[j]:C.indptr[j + 1]].tolist(),
                     C.data[C.indptr[j]:C.indptr[j + 1]].tolist()))
            for j in dofs]
    union = sorted(set().union(*rows))
    Cc = [[r.get(u, 0.0) for u in union] for r in rows]
    m, mat = len(dofs), mat.tolist()
    Tb = []
    for a in range(m):
        Tb.append([float(vec[a])])
        for j in range(len(union)):
            t = mat[a][0] * Cc[0][j]
            for b in range(1, m):
                t += mat[a][b] * Cc[b][j]
            Tb[a].append(t)
    out = []
    for i, row in enumerate(union):
        for c, col in enumerate([-1] + union):
            s = Cc[0][i] * Tb[0][c]
            for a in range(1, m):
                s += Cc[a][i] * Tb[a][c]
            if s != 0.0:
                out.append((row, col, s))
    return out


def oracle_cell_sums(subdomains, constraints, elements, n):
    """(row, col, cell, value) of every nonzero cell sum, col -1 being the
    right-hand side: every cell, free or not, on its own as the dense
    local product of ``_oracle_cell_sums``.  ``subdomains`` holds
    (cell_dofs, cell_ids, row_of) per subdomain, with one ``constraints``
    entry each."""
    mats, vecs = elements
    sums = []
    for (cell_dofs, cell_ids, row_of), cons in zip(subdomains, constraints):
        C = extension_operator(row_of, cons, n)
        for dofs, k in zip(cell_dofs, cell_ids):
            sums += [(row, col, int(k), v) for row, col, v in
                     _oracle_cell_sums(C, dofs - 1, mats[k - 1], vecs[k - 1])]
    return sums


def oracle_assembly(subdomains, constraints, elements, n):
    """Global (A, b) over ``n`` rows, summed in the canonical order: every
    (row, col) of ``oracle_cell_sums`` as a left fold of its cells' sums
    in global-cell order, one Python float addition at a time.  This is
    the oracle for the assembly kernel at any process count."""
    total = {}
    for row, col, _, v in sorted(oracle_cell_sums(subdomains, constraints,
                                                  elements, n),
                                 key=lambda t: t[:3]):
        total[row, col] = total[row, col] + v if (row, col) in total else v
    b = np.zeros(n)
    rows, cols, vals = [], [], []
    for (row, col), v in total.items():
        if col < 0:
            b[row] = v
        elif v != 0.0:
            rows.append(row)
            cols.append(col)
            vals.append(v)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), b


def to_scipy(A):
    """The ``CSR`` record ``A`` as scipy's ``csr_matrix`` on the same
    arrays, for the checks that need scipy's sparse operations."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def prolongate(dofs, constraints, interior_values):
    """Expand a reduced vector of the serial reference space to all nodes
    through its constraints."""
    interior_values = np.asarray(interior_values, dtype=np.float64)
    if interior_values.shape != (dofs.n_interior,):
        raise ValueError(
            f"expected {dofs.n_interior} interior values, "
            f"got {interior_values.shape}")
    return extension_operator(dofs.row_of, constraints,
                              dofs.n_interior) @ interior_values


def adaptive_owners(weights, n_parts):
    """Owners from closing each range at the prefix nearest the remaining
    average, the later prefix on a tie: the split equal weights keep."""
    prefix = np.cumsum(weights)
    n, total = prefix.size, float(prefix[-1])
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    bounds[n_parts] = n
    start = 0.0
    for s in range(1, n_parts):
        target = start + (total - start) / (n_parts - s + 1)
        c = int(np.searchsorted(prefix, target, side="left"))
        if c >= n:
            b = n
        elif c == 0 or prefix[c] - target <= target - prefix[c - 1]:
            b = c + 1
        else:
            b = c
        b = max(b, int(bounds[s - 1]) + 1)
        b = min(b, n - (n_parts - s))
        bounds[s] = b
        start = float(prefix[b - 1])
    return np.repeat(np.arange(1, n_parts + 1), np.diff(bounds))


def heaviest_range_oracle(weights, n_parts):
    """Least heaviest range sum over all splits into ``n_parts`` nonempty
    contiguous ranges: an O(n^2 P) dynamic program over range ends."""
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    n = len(weights)
    best = prefix.copy()   # best[j]: least heaviest of k ranges over [0, j)
    best[0] = np.inf
    for k in range(2, n_parts + 1):
        best = np.array([np.inf] * k + [
            min(max(best[i], prefix[j] - prefix[i]) for i in range(k - 1, j))
            for j in range(k, n + 1)])
    return float(best[n])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs longer than ``TEST_TIME_LIMIT_S``, so that a
    hang ends in a traceback instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"test exceeded {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def phase_memory(monkeypatch, cfg, phases):
    """{phase: (live before, live after, peak)} in bytes, from tracemalloc,
    of the named phases of one ``run_solve_pipeline`` run of ``cfg``."""
    from agfem import experiments as ex
    live = {}
    timer = ex.PhaseTimer.time

    @contextlib.contextmanager
    def tracing(self, name):
        if name in phases:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        with timer(self, name):
            yield
        if name in phases:
            live[name] = (before, *tracemalloc.get_traced_memory())

    monkeypatch.setattr(ex.PhaseTimer, "time", tracing)
    tracemalloc.start()
    try:
        ex.run_solve_pipeline(cfg.validate())
    finally:
        tracemalloc.stop()
    return live
