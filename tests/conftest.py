"""Shared fixtures and independent oracles."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from agfem.assembly import TauUnboundedError, nitsche_tau_agg
from agfem.fespace import extension_operator, shape_gradients, shape_values
from agfem.geometry import classify_cells, point_chunks
from agfem.grid import face_neighbors, unit_box_grid
from agfem.levelset import HalfPlane, Sphere


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


def cell_simplices(grid, lattice, corner_vals, center_val):
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


def all_points_elements(cls, quad, taus, f=None, g=None):
    """Q1 element matrices and vectors integrated point by point over every
    bulk and interface point of the store, interior cells included: the
    oracle for the reference-element path of ``poisson_elements``."""
    h, m = cls.grid.h, 2 ** cls.grid.d
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


def tau_std_oracle(cls, cell_id, quad, beta):
    """Penalty of one cell with interface points for the standard space,
    from its own volume and boundary forms and one dense generalized
    eigenproblem: the oracle for the batched ``nitsche_tau_std``."""
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
    evaluated point by point at every bulk point: the oracle for
    ``error_norms``."""
    cls = space.classification
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


def _oracle_ranges(starts, lens):
    offsets = np.cumsum(lens) - lens
    return np.arange(int(np.sum(lens))) + np.repeat(starts - offsets, lens)


def _oracle_sum_runs(keys, vals, n_group):
    """Stably lexsort by ``keys`` (most significant first) and sum ``vals``
    over runs equal in the first ``n_group`` keys."""
    order = np.lexsort(keys[::-1])
    group = [k[order] for k in keys[:n_group]]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([k[1:] != k[:-1] for k in group], axis=0)
    starts = np.flatnonzero(new)
    return [k[starts] for k in group], np.add.reduceat(vals[order], starts)


def _oracle_cell_sums(C, dofs, mats, vecs):
    """Every entry of a chunk of cells expanded through C, products in
    (a, p, b, q) order, summed per (cell, row, col); col -1 is the
    right-hand side."""
    nc, m = dofs.shape
    lens = np.diff(C.indptr)[dofs].ravel()
    pos = _oracle_ranges(C.indptr[dofs.ravel()], lens)
    ent_row, ent_w = C.indices[pos], C.data[pos]
    ent_node = np.repeat(np.arange(nc * m), lens)
    n_ent = lens.reshape(nc, m).sum(axis=1)
    cell = np.repeat(np.arange(nc), n_ent * n_ent)
    k = _oracle_ranges(np.zeros(nc, dtype=np.int64), n_ent * n_ent)
    first = (np.cumsum(n_ent) - n_ent)[cell]
    e1 = first + k // n_ent[cell]
    e2 = first + k % n_ent[cell]
    val = np.concatenate([
        vecs.ravel()[ent_node] * ent_w,
        mats[cell, ent_node[e1] % m, ent_node[e2] % m] * (ent_w[e1] * ent_w[e2])])
    keep = val != 0.0
    (cell, row, col), val = _oracle_sum_runs(
        [np.concatenate([ent_node // m, cell])[keep],
         np.concatenate([ent_row, ent_row[e1]])[keep],
         np.concatenate([np.full(ent_row.size, -1), ent_row[e2]])[keep]],
        val[keep], 3)
    return row, col, cell, val


def oracle_assembly(subdomains, constraints, elements, n):
    """Global (A, b) over ``n`` rows, summed in the canonical order by
    expanding every cell through C: each cell summed on its own, in
    chunks of 64 cells, then every (row, col) over its cells in
    global-cell order.  ``subdomains`` holds (cell_dofs, cell_ids,
    row_of) per subdomain, with one ``constraints`` entry each; this is
    the oracle for the assembly kernel at any process count."""
    mats, vecs = elements
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    for (cell_dofs, cell_ids, row_of), cons in zip(subdomains, constraints):
        C = extension_operator(row_of, cons, n)
        for start in range(0, len(cell_ids), 64):
            ids = cell_ids[start:start + 64]
            row, col, cell, val = _oracle_cell_sums(
                C, cell_dofs[start:start + 64] - 1, mats[ids - 1],
                vecs[ids - 1])
            parts.append((row, col, ids[cell], val))
    trip = [np.concatenate(x) for x in zip(*parts)]
    (row, col), val = _oracle_sum_runs(trip[:3], trip[3], 2)
    b = np.zeros(n)
    b[row[col < 0]] = val[col < 0]
    nz = (col >= 0) & (val != 0.0)
    return sp.csr_matrix((val[nz], (row[nz], col[nz])), shape=(n, n)), b


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
