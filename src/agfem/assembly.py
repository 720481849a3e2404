"""Nitsche-Poisson element integration and constrained assembly.

Element matrices carry the bulk gradient term plus the weak-Dirichlet
boundary terms; the penalty is either beta/h (aggregated spaces, robust
for any cut) or beta times the largest generalized eigenvalue of the
boundary/volume pencil per cut cell (standard spaces, which blows up as
the kept volume shrinks).  Elements come as two arrays, matrices
(n_active, m, m) and vectors (n_active, m).  Interior cells share one
reference element: their common box rule gives one stiffness matrix
and one table of shape values for the load vectors.  Cut cells and the
interface are integrated point by point in fixed-size chunks of the
flat quadrature store; each cell sums its points in store order.
Assembly is one kernel run per subdomain on the virtual runtime, serial
being the one-process case: element entries are expanded through the
extension operator C (A = C^T A_e C), each cell summed on its own, and
after one routed exchange the row owners sum per (row, col) in
global-cell order.  That order depends on neither the partition nor the
numbering, so serial and distributed systems are bitwise equal; entries
summing to zero are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.linalg

from .fespace import StdSpace, extension_operator, shape_gradients, shape_values
from .geometry import QuadratureStore, point_chunks
from .runtime import VirtualRuntime


class AssemblyError(RuntimeError):
    """An element referenced a DOF with neither a row nor a constraint."""


class TauUnboundedError(RuntimeError):
    """The cut-cell volume form is numerically singular beyond constants."""


def nitsche_tau_agg(h: float, beta: float) -> float:
    """Penalty beta/h used with aggregated spaces."""
    if h <= 0 or beta <= 0:
        raise ValueError("cell size and beta must be positive")
    return beta / h


def _constant_complement(m: int) -> np.ndarray:
    ones = np.ones((1, m))
    return scipy.linalg.null_space(ones)


def nitsche_tau_std(space: StdSpace, cell_id: int, quad: QuadratureStore,
                    beta: float) -> float:
    """Cell-wise penalty for the standard space from the local eigenproblem.

    Assembles the volume form V (gradient products over the kept region)
    and the boundary form B (normal-derivative products over the
    interface) from the cell's run of the store, deflates the constant
    kernel of V, and returns beta times the largest eigenvalue of
    B x = lambda V x, floored at beta/h.
    """
    bulk = slice(*quad.offsets[cell_id - 1:cell_id + 1])
    bnd = slice(*quad.boundary_offsets[cell_id - 1:cell_id + 1])
    if bnd.start == bnd.stop:
        raise ValueError(f"cell {cell_id} has no boundary rule")
    grid = space.classification.grid
    d = grid.d
    q = space.q
    xi = space.reference_coords(cell_id, quad.points[bulk])
    grads = shape_gradients(q, d, xi) / grid.h
    V = np.einsum("nad,nbd,n->ab", grads, grads, quad.weights[bulk])
    xib = space.reference_coords(cell_id, quad.boundary_points[bnd])
    gradsb = shape_gradients(q, d, xib) / grid.h
    gn = np.einsum("nad,nd->na", gradsb, quad.boundary_normals[bnd])
    B = np.einsum("na,nb,n->ab", gn, gn, quad.boundary_weights[bnd])

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


def _add_weighted_runs(out, cells, w, vals):
    """``out[k - 1] += sum of w * vals`` over the points of each cell k;
    ``cells`` is nondecreasing, so a cell's points form one run and sum
    in point order."""
    n = len(cells)
    starts = np.flatnonzero(np.diff(cells, prepend=0))
    runs = sp.csr_matrix((w, np.arange(n), np.append(starts, n)),
                         shape=(len(starts), n))
    out[cells[starts] - 1] += (runs @ vals.reshape(n, -1)).reshape(
        (-1,) + out.shape[1:])


def reference_tables(space: StdSpace, quad: QuadratureStore):
    """Shape values (n_box, m) and physical gradients (n_box, m, d) at the
    box rule that every interior cell of ``quad`` holds."""
    grid = space.classification.grid
    return (shape_values(space.q, grid.d, quad.box_points),
            shape_gradients(space.q, grid.d, quad.box_points) / grid.h)


def poisson_elements(space: StdSpace, quad: QuadratureStore, taus, f=None,
                     g=None):
    """Element matrices (n_active, m, m) and vectors (n_active, m) of the
    weak-Dirichlet Poisson form, for every active cell in id order:

    A_ab = int grad(phi_a).grad(phi_b) dOmega
         + int (tau phi_a phi_b - phi_a n.grad(phi_b) - phi_b n.grad(phi_a)) dGamma
    b_a  = int phi_a f dOmega + int (tau phi_a - n.grad(phi_a)) g dGamma

    over each cell's run of the store, with the cell's ``taus`` entry.
    Interior cells share one reference element: one stiffness matrix,
    and load vectors from f at their points times the fixed table of
    shape values.  Cut cells and interface points are integrated point
    by point, in chunks of ``CHUNK_POINTS`` points.
    """
    cls = space.classification
    d, q, h = cls.grid.d, space.q, cls.grid.h
    m = space.nodes_per_cell
    taus = np.asarray(taus, dtype=np.float64)
    mats = np.zeros((cls.n_active, m, m))
    vecs = np.zeros((cls.n_active, m))
    vals_ref, grads_ref = reference_tables(space, quad)
    mats[cls.interior_ids - 1] = np.einsum("nad,nbd,n->ab", grads_ref,
                                           grads_ref, quad.box_weights)
    if f is not None:
        for cells, rows in quad.interior_chunks(cls.interior_ids):
            fw = np.asarray(f(quad.points[rows.ravel()])).reshape(rows.shape)
            vecs[cells - 1] = (fw * quad.box_weights) @ vals_ref
    for cells, rows in quad.cut_chunks(cls.cut_ids):
        pts, w = quad.points[rows], quad.weights[rows]
        xi = space.reference_coords(cells, pts)
        grads = shape_gradients(q, d, xi) / h
        _add_weighted_runs(mats, cells, w,
                           grads @ np.ascontiguousarray(grads.transpose(0, 2, 1)))
        if f is not None:
            _add_weighted_runs(vecs, cells, w * np.asarray(f(pts)),
                               shape_values(q, d, xi))
    for sl in point_chunks(quad.boundary_weights.size):
        cells, pts = quad.boundary_cells(sl), quad.boundary_points[sl]
        w, tau = quad.boundary_weights[sl], taus[cells - 1]
        xi = space.reference_coords(cells, pts)
        vals = shape_values(q, d, xi)
        gn = np.einsum("nad,nd->na", shape_gradients(q, d, xi) / h,
                       quad.boundary_normals[sl])
        # tau v v^T - v gn^T - gn v^T = v c^T + c v^T, c = tau v / 2 - gn
        vc = vals[:, :, None] * (0.5 * tau[:, None] * vals - gn)[:, None, :]
        _add_weighted_runs(mats, cells, w, vc + vc.transpose(0, 2, 1))
        if g is not None:
            _add_weighted_runs(vecs, cells, w * np.asarray(g(pts)),
                               tau[:, None] * vals - gn)
    return mats, vecs


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

    @classmethod
    def one_block(cls, A, b) -> "DistributedSystem":
        """A serial system ``(A, b)`` as the one-subdomain partition."""
        A = sp.csr_matrix(A)
        n = A.shape[0]
        return cls(n_global=n, row_starts=np.array([1, n + 1], dtype=np.int64),
                   blocks=[A], rhs=[np.asarray(b, dtype=np.float64)],
                   staged_counts=[0])

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


def _assembly_body(proc, cell_dofs, cell_ids, row_of, constraints, mats, vecs,
                   n_global, row_starts):
    """Owned rows of one subdomain from its owned cells: their local DOFs
    ``cell_dofs`` (n_cells, m) and global ids, the 1-based global row of
    each free local DOF ``row_of`` (else 0), the constraints of the
    others, and the element matrices and vectors of every active cell."""
    s = proc.rank
    C = extension_operator(row_of, constraints, n_global)
    empty = np.diff(C.indptr)[cell_dofs - 1] == 0
    if np.any(empty):
        raise AssemblyError(
            f"subdomain {s}: DOF {int(cell_dofs[empty][0])} has neither a "
            f"system row nor a constraint")
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    for start in range(0, len(cell_ids), CHUNK_CELLS):
        sl = slice(start, start + CHUNK_CELLS)
        ids = cell_ids[sl]
        row, col, cell, val = _cell_sums(C, cell_dofs[sl] - 1, mats[ids - 1],
                                         vecs[ids - 1])
        parts.append((row, col, ids[cell], val))
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
    """Assemble (A, b) over the free DOFs from the element arrays
    ``elements = (matrices, vectors)`` of every active cell: the kernel on
    one process.

    With constraints the system lives on the interior rows and constrained
    entries land on their masters weighted by the extrapolation
    coefficients; with ``constraints=None`` the standard space is
    assembled over all DOFs.  Bitwise equal to any distributed assembly.
    """
    n = space.n_dofs if constraints is None else dofs.n_interior
    row_of = np.arange(1, n + 1) if constraints is None else dofs.row_of
    cell_ids = np.arange(1, space.classification.n_active + 1)
    [(A, b, _)] = VirtualRuntime(1).run(
        _assembly_body,
        args=[(space.cell_dofs, cell_ids, row_of, constraints, *elements, n,
               np.array([1, n + 1]))],
        phase="assembly")
    return A, b


def assemble_distributed(runtime: VirtualRuntime, numbering, constraints_per_s,
                         elements, phase: str = "assembly") -> DistributedSystem:
    """Assemble the row-wise partitioned system over all subdomains.

    ``elements = (matrices, vectors)`` covers every active cell; each
    subdomain runs the kernel on the rows of its owned cells, and one
    routed exchange moves off-owner rows to their owners.  The gathered
    system equals the serial one bitwise, up to the row numbering.
    """
    row_starts = numbering.owned_ranges()
    args = [(*piece.owned_cells(), cons, *elements, numbering.n_global,
             row_starts)
            for piece, cons in zip(numbering.pieces, constraints_per_s)]
    results = runtime.run(_assembly_body, args=args, phase=phase)
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
