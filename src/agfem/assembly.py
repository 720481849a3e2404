"""Nitsche-Poisson element integration and constrained assembly.

Element matrices carry the bulk gradient term plus the weak-Dirichlet
boundary terms; the penalty is either beta/h (aggregated spaces, robust
for any cut) or beta times the largest generalized eigenvalue of the
boundary/volume pencil per cut cell (standard spaces, which blows up as
the kept volume shrinks).  Assembly is one kernel run per subdomain on
the virtual runtime, serial being the one-process case: element entries
are expanded through the extension operator C (A = C^T A_e C), each
cell summed on its own, and after one routed exchange the row owners
sum per (row, col) in global-cell order.  That order depends on neither
the partition nor the numbering, so serial and distributed systems are
bitwise equal; entries summing to zero are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.linalg

from .fespace import StdSpace, extension_operator, shape_gradients, shape_values
from .geometry import CutQuadrature
from .runtime import VirtualRuntime


class AssemblyError(RuntimeError):
    """An element referenced a DOF with neither a row nor a constraint."""


class TauUnboundedError(RuntimeError):
    """The cut-cell volume form is numerically singular beyond constants."""


@dataclass
class ElementContribution:
    cell_id: int
    matrix: np.ndarray   # ((q+1)**d, (q+1)**d), symmetric
    vector: np.ndarray


def nitsche_tau_agg(h: float, beta: float) -> float:
    """Penalty beta/h used with aggregated spaces."""
    if h <= 0 or beta <= 0:
        raise ValueError("cell size and beta must be positive")
    return beta / h


def _constant_complement(m: int) -> np.ndarray:
    ones = np.ones((1, m))
    return scipy.linalg.null_space(ones)


def nitsche_tau_std(space: StdSpace, cell_id: int, quad: CutQuadrature,
                    beta: float) -> float:
    """Cell-wise penalty for the standard space from the local eigenproblem.

    Assembles the volume form V (gradient products over the kept region)
    and the boundary form B (normal-derivative products over the
    interface), deflates the constant kernel of V, and returns beta times
    the largest eigenvalue of B x = lambda V x, floored at beta/h.
    """
    if not quad.has_boundary:
        raise ValueError(f"cell {cell_id} has no boundary rule")
    grid = space.classification.grid
    d = grid.d
    q = space.q
    xi = space.reference_coords(cell_id, quad.points)
    grads = shape_gradients(q, d, xi) / grid.h
    V = np.einsum("nad,nbd,n->ab", grads, grads, quad.weights)
    xib = space.reference_coords(cell_id, quad.boundary_points)
    gradsb = shape_gradients(q, d, xib) / grid.h
    gn = np.einsum("nad,nd->na", gradsb, quad.boundary_normals)
    B = np.einsum("na,nb,n->ab", gn, gn, quad.boundary_weights)

    Z = _constant_complement(V.shape[0])
    Vh = Z.T @ V @ Z
    Bh = Z.T @ B @ Z
    floor = nitsche_tau_agg(float(np.min(grid.h)), beta)
    try:
        lam = scipy.linalg.eigh(Bh, Vh, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise TauUnboundedError(
            f"cell {cell_id}: volume form singular beyond its constant "
            f"kernel; the optimal penalty is unbounded") from exc
    lam_max = float(lam[-1])
    return max(beta * lam_max, floor)


def element_poisson_nitsche(space: StdSpace, cell_id: int, quad: CutQuadrature,
                            tau: float, f=None, g=None) -> ElementContribution:
    """Element matrix and vector of the weak-Dirichlet Poisson form.

    A_ab = int grad(phi_a).grad(phi_b) dOmega
         + int (tau phi_a phi_b - phi_a n.grad(phi_b) - phi_b n.grad(phi_a)) dGamma
    b_a  = int phi_a f dOmega + int (tau phi_a - n.grad(phi_a)) g dGamma
    restricted to the cell's cut region and interface.
    """
    grid = space.classification.grid
    d, q = grid.d, space.q
    m = space.nodes_per_cell
    A = np.zeros((m, m))
    b = np.zeros(m)
    if quad.weights.size:
        xi = space.reference_coords(cell_id, quad.points)
        grads = shape_gradients(q, d, xi) / grid.h
        A += np.einsum("nad,nbd,n->ab", grads, grads, quad.weights)
        if f is not None:
            vals = shape_values(q, d, xi)
            b += vals.T @ (quad.weights * np.asarray(f(quad.points)))
    if quad.has_boundary:
        xib = space.reference_coords(cell_id, quad.boundary_points)
        vals = shape_values(q, d, xib)
        grads = shape_gradients(q, d, xib) / grid.h
        gn = np.einsum("nad,nd->na", grads, quad.boundary_normals)
        w = quad.boundary_weights
        A += tau * np.einsum("na,nb,n->ab", vals, vals, w)
        A -= np.einsum("na,nb,n->ab", vals, gn, w)
        A -= np.einsum("na,nb,n->ab", gn, vals, w)
        if g is not None:
            gvals = np.asarray(g(quad.boundary_points))
            b += (tau * vals - gn).T @ (w * gvals)
    return ElementContribution(cell_id=cell_id, matrix=A, vector=b)


def poisson_elements(space: StdSpace, quads, taus, f=None, g=None) -> list:
    """Element contributions for every active cell, in cell-id order.

    Interior cells share one stiffness template and a batched load
    integral; cut cells are integrated individually.
    """
    cls = space.classification
    n = cls.n_active
    out: list = [None] * n
    interior = cls.interior_ids
    template = None
    if interior.size:
        k0 = int(interior[0])
        template = element_poisson_nitsche(space, k0, quads[k0 - 1], 0.0).matrix
        quad0 = quads[k0 - 1]
        xi0 = space.reference_coords(k0, quad0.points)
        phi_w = shape_values(space.q, cls.grid.d, xi0) * quad0.weights[:, None]
        ref_pts = quad0.points - cls.grid.cell_origin(cls.lattice_of(k0))
        for k in interior:
            k = int(k)
            if f is not None:
                pts = cls.grid.cell_origin(cls.lattice_of(k)) + ref_pts
                vec = phi_w.T @ np.asarray(f(pts))
            else:
                vec = np.zeros(space.nodes_per_cell)
            out[k - 1] = ElementContribution(k, template, vec)
    for k in cls.cut_ids:
        k = int(k)
        out[k - 1] = element_poisson_nitsche(
            space, k, quads[k - 1], float(taus[k - 1]), f, g)
    return out


# ---------------------------------------------------------------------------
# constrained assembly

# cells expanded through C at once; a fully constrained 3D Q1 cell alone
# makes 8**4 = 4096 products, so this bounds the memory of the expansion
CHUNK_CELLS = 64


@dataclass
class DistributedSystem:
    """Row-wise partitioned sparse system over the interior global ids."""

    n_global: int
    row_starts: np.ndarray    # (P+1,) 1-based owned-range starts
    blocks: list              # per s: csr of shape (n_owned, n_global)
    rhs: list                 # per s: (n_owned,)
    staged_counts: list       # per s: off-owner triplets shipped at finalize

    @property
    def n_subdomains(self) -> int:
        return len(self.blocks)

    def gather(self):
        """Full (A, b) with globally ordered rows."""
        A = sp.vstack(self.blocks).tocsr()
        b = np.concatenate(self.rhs)
        return A, b


def _ranges(starts, lens):
    """Concatenated ``arange(start, start + len)`` for every pair."""
    offsets = np.cumsum(lens) - lens
    return np.arange(int(np.sum(lens))) + np.repeat(starts - offsets, lens)


def _sum_runs(keys, vals, n_group):
    """Stably sort by ``keys`` (most significant first) and sum ``vals``
    over runs equal in the first ``n_group`` keys, so each sum runs in
    the order of the other keys, then of the input.  Returns the group
    keys, ascending, and the sums."""
    order = np.lexsort(keys[::-1])
    group = [k[order] for k in keys[:n_group]]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([k[1:] != k[:-1] for k in group], axis=0)
    starts = np.flatnonzero(new)
    return [k[starts] for k in group], np.add.reduceat(vals[order], starts)


def _cell_sums(C, dofs, mats, vecs):
    """Element entries of a chunk of cells (0-based DOFs ``dofs``, (nc, m))
    expanded through C; returns nonzero (row, col, cell, value) sums per
    chunk-local cell, with col -1 for the right-hand side.

    A cell's products come in (a, p, b, q) order, node a times entry p of
    its row of C.  A (row, col) gets at most one product per node pair
    (a, b), so each cell sums in node-pair order whatever the numbering.
    """
    nc, m = dofs.shape
    lens = np.diff(C.indptr)[dofs].ravel()
    pos = _ranges(C.indptr[dofs.ravel()], lens)
    ent_row, ent_w = C.indices[pos], C.data[pos]
    ent_node = np.repeat(np.arange(nc * m), lens)    # flat (cell, a)
    n_ent = lens.reshape(nc, m).sum(axis=1)
    cell = np.repeat(np.arange(nc), n_ent * n_ent)
    k = _ranges(np.zeros(nc, dtype=np.int64), n_ent * n_ent)
    first = (np.cumsum(n_ent) - n_ent)[cell]
    e1 = first + k // n_ent[cell]
    e2 = first + k % n_ent[cell]
    val = np.concatenate([
        vecs.ravel()[ent_node] * ent_w,
        mats[cell, ent_node[e1] % m, ent_node[e2] % m] * (ent_w[e1] * ent_w[e2])])
    keep = val != 0.0
    (cell, row, col), val = _sum_runs(
        [np.concatenate([ent_node // m, cell])[keep],
         np.concatenate([ent_row, ent_row[e1]])[keep],
         np.concatenate([np.full(ent_row.size, -1), ent_row[e2]])[keep]],
        val[keep], 3)
    return row, col, cell, val


def _assembly_body(proc, cell_dofs, cell_ids, row_of, constraints, elements,
                   n_global, row_starts):
    """Owned rows of one subdomain from its owned cells: their local DOFs
    ``cell_dofs`` (n_cells, m), global ids and elements, the 1-based
    global row of each free local DOF ``row_of`` (else 0) and the
    constraints of the others."""
    s = proc.rank
    C = extension_operator(row_of, constraints, n_global)
    empty = np.diff(C.indptr)[cell_dofs - 1] == 0
    if np.any(empty):
        raise AssemblyError(
            f"subdomain {s}: DOF {int(cell_dofs[empty][0])} has neither a "
            f"system row nor a constraint")
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    for start in range(0, len(elements), CHUNK_CELLS):
        chunk = elements[start:start + CHUNK_CELLS]
        row, col, cell, val = _cell_sums(
            C, cell_dofs[start:start + len(chunk)] - 1,
            np.stack([e.matrix for e in chunk]),
            np.stack([e.vector for e in chunk]))
        parts.append((row, col, cell_ids[start + cell], val))
    trip = tuple(np.concatenate(x) for x in zip(*parts))

    owner = np.searchsorted(row_starts, trip[0] + 1, side="right")
    payloads = {int(dst): tuple(x[owner == dst] for x in trip)
                for dst in np.unique(owner) if dst != s}
    staged = sum(p[0].size for p in payloads.values())
    received = yield proc.routed_exchange(payloads)

    parts = [tuple(x[owner == s] for x in trip)]
    parts += [received[src] for src in sorted(received)]
    row, col, cell, val = (np.concatenate(x) for x in zip(*parts))
    (row, col), val = _sum_runs([row, col, cell], val, 2)
    first = int(row_starts[s - 1]) - 1
    n_owned = int(row_starts[s]) - 1 - first
    b = np.zeros(n_owned)
    b[row[col < 0] - first] = val[col < 0]
    nz = (col >= 0) & (val != 0.0)
    A = sp.csr_matrix((val[nz], (row[nz] - first, col[nz])),
                      shape=(n_owned, n_global))
    return A, b, staged


def assemble_serial(space: StdSpace, dofs, constraints, elements):
    """Assemble (A, b) over the free DOFs: the kernel on one process.

    With constraints the system lives on the interior rows and constrained
    entries land on their masters weighted by the extrapolation
    coefficients; with ``constraints=None`` the standard space is
    assembled over all DOFs.  Bitwise equal to any distributed assembly.
    """
    n = space.n_dofs if constraints is None else dofs.n_interior
    row_of = np.arange(1, n + 1) if constraints is None else dofs.row_of
    cell_ids = np.array([e.cell_id for e in elements], dtype=np.int64)
    [(A, b, _)] = VirtualRuntime(1).run(
        _assembly_body,
        args=[(space.cell_dofs[cell_ids - 1], cell_ids, row_of, constraints,
               elements, n, np.array([1, n + 1]))],
        phase="assembly")
    return A, b


def _owned_cells(piece):
    """Local DOFs, global ids and global DOF rows of a subdomain's owned
    cells; a free DOF without a global id gets row -1, which the kernel
    rejects."""
    local = range(1, piece.mesh.n_local + 1)
    m = (piece.q + 1) ** piece.mesh.classification.grid.d
    cell_dofs = np.array([piece.cell_j[l] for l in local],
                         dtype=np.int64).reshape(-1, m)
    cell_g = np.array([piece.cell_g[l] for l in local],
                      dtype=np.int64).reshape(-1, m)
    free = piece.j_interior[cell_dofs - 1]
    row_of = np.zeros(piece.n_local_dofs, dtype=np.int64)
    row_of[cell_dofs[free] - 1] = cell_g[free]
    return cell_dofs, piece.mesh.global_ids[:piece.mesh.n_local], row_of


def assemble_distributed(runtime: VirtualRuntime, numbering, constraints_per_s,
                         elements_per_s, phase: str = "assembly") -> DistributedSystem:
    """Assemble the row-wise partitioned system over all subdomains.

    Each subdomain runs the kernel on its owned cells and one routed
    exchange moves off-owner rows to their owners; the gathered system
    equals the serial one bitwise, up to the row numbering.
    """
    row_starts = numbering.owned_ranges()
    results = runtime.run(
        _assembly_body,
        args=[(*_owned_cells(p), c, e, numbering.n_global, row_starts)
              for p, c, e in zip(numbering.pieces, constraints_per_s,
                                 elements_per_s)],
        phase=phase)
    return DistributedSystem(
        n_global=numbering.n_global, row_starts=row_starts,
        blocks=[r[0] for r in results], rhs=[r[1] for r in results],
        staged_counts=[r[2] for r in results])


def export_matrix_coo(A, path):
    """Write a sparse matrix as 1-based 'row col value' text lines."""
    coo = sp.coo_matrix(A)
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")
