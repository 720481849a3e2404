"""Nitsche-Poisson element integration and constrained assembly.

Elements are Q1 on the cells of the ``CellClassification``: no space
object is needed to integrate them.  Element matrices carry the bulk
gradient term plus the weak-Dirichlet boundary terms; the penalty is
either beta/h (aggregated spaces, robust for any cut) or beta times the
largest generalized eigenvalue of the boundary/volume pencil per cut
cell (standard spaces, which blows up as the kept volume shrinks).
Elements come as two arrays, matrices (n_active, m, m) and vectors
(n_active, m), m = 2**d.  Interior cells share one reference element:
their common box rule gives one stiffness matrix and one table of shape
values for the load vectors.  Cut cells and the interface are read point
by point in chunks of the flat quadrature store through ``bulk_rows``
and ``interface_rows``, which also feed the batched std penalty and the
error norms; each cell sums its points in store order.  Assembly is one
kernel run per subdomain on the virtual runtime, serial being the
one-process case.  It forms A = C^T A_e C, C the extension operator, as
per-cell sums: a cell whose DOFs are all free has unit rows in C, so its
element entries are its sums as they stand; the other cells are expanded
through C in batches of about ``CHUNK_PRODUCTS`` products and summed per
(cell, row, col) on one int64 key.  The sums form one stream in
global-cell order, and after one routed exchange each row owner runs one
stable sort on the key row * (n + 1) + col + 1, so every (row, col) sums
its cells in global-cell order.  That order depends on neither the
partition nor the numbering, so serial and distributed systems are
bitwise equal; entries summing to zero are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.linalg

from .fespace import extension_operator, shape_gradients, shape_values
from .geometry import CellClassification, QuadratureStore, point_chunks
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


def reference_tables(cls: CellClassification, quad: QuadratureStore):
    """Shape values (n_box, m) and physical gradients (n_box, m, d) at the
    box rule that every interior cell of ``quad`` holds."""
    return (shape_values(quad.box_points),
            shape_gradients(quad.box_points) / cls.grid.h)


def bulk_rows(cls: CellClassification, quad: QuadratureStore, cell_ids):
    """The bulk points of the cells ``cell_ids`` (ascending) in chunks of
    ``CHUNK_POINTS``, in store order: (cell of each point, points,
    weights, shape values (n, m), physical gradients (n, m, d))."""
    for cells, rows in quad.cut_chunks(cell_ids):
        pts = quad.points[rows]
        xi = cls.reference_coords(cells, pts)
        yield (cells, pts, quad.weights[rows], shape_values(xi),
               shape_gradients(xi) / cls.grid.h)


def interface_rows(cls: CellClassification, quad: QuadratureStore):
    """The interface points of the store in chunks of ``CHUNK_POINTS``:
    (cell of each point, points, weights, shape values (n, m), normal
    derivatives of the shape functions (n, m))."""
    for sl in point_chunks(quad.boundary_weights.size):
        cells, pts = quad.boundary_cells(sl), quad.boundary_points[sl]
        xi = cls.reference_coords(cells, pts)
        yield (cells, pts, quad.boundary_weights[sl], shape_values(xi),
               np.einsum("nad,nd->na", shape_gradients(xi) / cls.grid.h,
                         quad.boundary_normals[sl]))


def poisson_elements(cls: CellClassification, quad: QuadratureStore, taus,
                     f=None, g=None):
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
    m = 2 ** cls.grid.d
    taus = np.asarray(taus, dtype=np.float64)
    mats = np.zeros((cls.n_active, m, m))
    vecs = np.zeros((cls.n_active, m))
    vals_ref, grads_ref = reference_tables(cls, quad)
    mats[cls.interior_ids - 1] = np.einsum("nad,nbd,n->ab", grads_ref,
                                           grads_ref, quad.box_weights)
    if f is not None:
        for cells, rows in quad.interior_chunks(cls.interior_ids):
            fw = np.asarray(f(quad.points[rows.ravel()])).reshape(rows.shape)
            vecs[cells - 1] = (fw * quad.box_weights) @ vals_ref
    for cells, pts, w, vals, grads in bulk_rows(cls, quad, cls.cut_ids):
        _add_weighted_runs(mats, cells, w,
                           grads @ np.ascontiguousarray(grads.transpose(0, 2, 1)))
        if f is not None:
            _add_weighted_runs(vecs, cells, w * np.asarray(f(pts)), vals)
    for cells, pts, w, vals, gn in interface_rows(cls, quad):
        tau = taus[cells - 1]
        # tau v v^T - v gn^T - gn v^T = v c^T + c v^T, c = tau v / 2 - gn
        vc = vals[:, :, None] * (0.5 * tau[:, None] * vals - gn)[:, None, :]
        _add_weighted_runs(mats, cells, w, vc + vc.transpose(0, 2, 1))
        if g is not None:
            _add_weighted_runs(vecs, cells, w * np.asarray(g(pts)),
                               tau[:, None] * vals - gn)
    return mats, vecs


def _cholesky(A):
    """Lower Cholesky factors of a batch of symmetric matrices, column by
    column, and per matrix whether every pivot was positive."""
    L, ok = np.zeros_like(A), np.ones(len(A), dtype=bool)
    for j in range(A.shape[-1]):
        col = A[:, j:, j] - np.einsum("cik,ck->ci", L[:, j:, :j], L[:, j, :j])
        ok &= col[:, 0] > 0
        L[:, j:, j] = col / np.sqrt(np.where(ok, col[:, 0], 1.0))[:, None]
    return L, ok


def nitsche_tau_std(cls: CellClassification, quad: QuadratureStore,
                    beta: float) -> np.ndarray:
    """Penalties (n_active,) of the standard space from the local
    eigenproblems: for each cell with interface points, the volume form V
    (gradient products over its bulk points) and the boundary form B
    (normal-derivative products over its interface points) are deflated
    by the constant kernel of V, and beta times the largest eigenvalue of
    B x = lambda V x, floored at beta/h, is its penalty; other cells get
    0, which no term reads.  Raises ``TauUnboundedError`` naming the first
    cell whose deflated V is not positive definite."""
    m = 2 ** cls.grid.d
    cells = np.flatnonzero(np.diff(quad.boundary_offsets)) + 1
    V = np.zeros((cells.size, m, m))
    B = np.zeros_like(V)
    for c, _, w, _, grads in bulk_rows(cls, quad, cells):
        _add_weighted_runs(V, np.searchsorted(cells, c) + 1, w,
                           grads @ np.ascontiguousarray(grads.transpose(0, 2, 1)))
    for c, _, w, _, gn in interface_rows(cls, quad):
        _add_weighted_runs(B, np.searchsorted(cells, c) + 1, w,
                           gn[:, :, None] * gn[:, None, :])
    Z = scipy.linalg.null_space(np.ones((1, m)))
    L, ok = _cholesky(Z.T @ V @ Z)
    if not np.all(ok):
        raise TauUnboundedError(
            f"cell {cells[~ok][0]}: volume form singular beyond its constant "
            f"kernel; the optimal penalty is unbounded")
    Li = np.linalg.inv(L)
    lam = np.linalg.eigvalsh(Li @ (Z.T @ B @ Z) @ Li.transpose(0, 2, 1))
    taus = np.zeros(cls.n_active)
    taus[cells - 1] = np.maximum(
        beta * lam[:, -1], nitsche_tau_agg(float(np.min(cls.grid.h)), beta))
    return taus


# ---------------------------------------------------------------------------
# constrained assembly

# products expanded through C at once, n_ent * (n_ent + 1) per cell of
# n_ent entries of C; a fully constrained 3D Q1 cell alone makes 8**4
CHUNK_PRODUCTS = 2**16


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


def _sum_runs(key, val):
    """Stably sort by ``key`` and sum ``val`` over runs of equal keys, each
    in input order.  Returns the keys, ascending, and the sums."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return key[starts], np.add.reduceat(val[order], starts)


def _free_sums(rows, mats, vecs, n):
    """Nonzero (key, value) entries of cells whose DOFs are all free, 0-based
    global rows ``rows`` (nc, m), cell by cell, and their number per cell.

    A key is row * (n + 1) + col + 1, col -1 standing for the right-hand
    side.  The rows of C of these cells are unit rows, so each (row, col)
    of a cell is one element entry times 1.0: its cell sum.
    """
    nc, m = rows.shape
    key = np.empty((nc, m, m + 1), dtype=np.int64)
    key[:, :, m] = rows * (n + 1)
    key[:, :, :m] = key[:, :, m:] + rows[:, None, :] + 1
    val = np.empty((nc, m, m + 1))
    val[:, :, :m] = mats
    val[:, :, m] = vecs
    keep = val != 0.0
    return key[keep], val[keep], keep.sum(axis=(1, 2))


def _cell_sums(C, dofs, mats, vecs, n):
    """Element entries of a batch of cells (0-based DOFs ``dofs``, (nc, m))
    expanded through C; returns the nonzero (key, value) sums of each cell,
    keyed as in ``_free_sums``, cell by cell, and their number per cell.

    A cell's products come in (a, p, b, q) order, node a times entry p of
    its row of C.  A (row, col) gets at most one product per node pair
    (a, b), so each cell sums in node-pair order whatever the numbering.
    The sort runs on one key (cell, row, col); the caller keeps nc * n *
    (n + 1) within int64.
    """
    nc, m = dofs.shape
    span = n * (n + 1)    # keys of one cell
    lens = np.diff(C.indptr)[dofs].ravel()
    pos = _ranges(C.indptr[dofs.ravel()], lens)
    ent_row, ent_w = C.indices[pos].astype(np.int64), C.data[pos]
    ent_node = np.repeat(np.arange(nc * m), lens)    # flat (cell, a)
    n_ent = lens.reshape(nc, m).sum(axis=1)
    cell = np.repeat(np.arange(nc), n_ent * n_ent)
    k = _ranges(np.zeros(nc, dtype=np.int64), n_ent * n_ent)
    first = (np.cumsum(n_ent) - n_ent)[cell]
    e1, e2 = np.divmod(k, n_ent[cell])
    e1 += first
    e2 += first
    val = np.concatenate([
        vecs.ravel()[ent_node] * ent_w,
        mats.ravel()[ent_node[e1] * m + ent_node[e2] % m]
        * (ent_w[e1] * ent_w[e2])])
    key = np.concatenate([
        ent_node // m * span + ent_row * (n + 1),
        cell * span + ent_row[e1] * (n + 1) + ent_row[e2] + 1])
    keep = val != 0.0
    key, val = _sum_runs(key[keep], val[keep])
    cell, key = np.divmod(key, span)
    return key, val, np.bincount(cell, minlength=nc)


def _constrained_sums(C, dofs, mats, vecs, n):
    """``_cell_sums`` over batches of consecutive cells: a batch holds the
    cells whose products start in one window of ``CHUNK_PRODUCTS``."""
    n_ent = np.diff(C.indptr)[dofs].sum(axis=1)
    products = n_ent * (n_ent + 1)
    # every cell has at least two products, so a batch has at most
    # `window` cells, and its keys stay within int64
    window = min(CHUNK_PRODUCTS, np.iinfo(np.int64).max // (n * (n + 1)))
    batch = (np.cumsum(products) - products) // window
    bounds = np.flatnonzero(np.diff(batch, prepend=-1))
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0),
              np.zeros(0, dtype=np.int64))]
    for lo, hi in zip(bounds, np.append(bounds[1:], len(dofs))):
        parts.append(_cell_sums(C, dofs[lo:hi], mats[lo:hi], vecs[lo:hi], n))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _cell_stream(C, cell_dofs, cell_ids, row_of, mats, vecs, n):
    """The cell sums of every cell as one stream in the order of
    ``cell_ids``: cells whose DOFs are all free straight from their
    elements, the others expanded through C.  Returns keys, values and
    the number of sums of each cell."""
    rows = row_of[cell_dofs - 1]
    free = np.all(rows > 0, axis=1)
    fc, cc = np.flatnonzero(free), np.flatnonzero(~free)
    parts = [(fc, *_free_sums(rows[fc] - 1, mats[cell_ids[fc] - 1],
                              vecs[cell_ids[fc] - 1], n)),
             (cc, *_constrained_sums(C, cell_dofs[cc] - 1,
                                     mats[cell_ids[cc] - 1],
                                     vecs[cell_ids[cc] - 1], n))]
    counts = np.zeros(len(cell_ids), dtype=np.int64)
    for idx, _, _, lens in parts:
        counts[idx] = lens
    offsets = np.cumsum(counts) - counts
    key = np.empty(int(counts.sum()), dtype=np.int64)
    val = np.empty(key.size)
    for idx, k, v, lens in parts:
        dest = _ranges(offsets[idx], lens)
        key[dest], val[dest] = k, v
    return key, val, counts


def _assembly_body(proc, cell_dofs, cell_ids, row_of, constraints, mats, vecs,
                   n_global, row_starts):
    """Owned rows of one subdomain from its owned cells: their local DOFs
    ``cell_dofs`` (n_cells, m) and ascending global ids, the 1-based global
    row of each free local DOF ``row_of`` (else 0), the constraints of the
    others, and the element matrices and vectors of every active cell."""
    s = proc.rank
    C = extension_operator(row_of, constraints, n_global)
    empty = np.diff(C.indptr)[cell_dofs - 1] == 0
    if np.any(empty):
        raise AssemblyError(
            f"subdomain {s}: DOF {int(cell_dofs[empty][0])} has neither a "
            f"system row nor a constraint")
    key, val, counts = _cell_stream(C, cell_dofs, cell_ids, row_of, mats,
                                    vecs, n_global)

    # off-owner sums leave with their cell ids, and received streams are
    # merged back into global-cell order
    stride = n_global + 1
    first = int(row_starts[s - 1]) - 1
    n_owned = int(row_starts[s]) - 1 - first
    payloads = {}
    if proc.size > 1:
        cell = np.repeat(cell_ids, counts)
        off = (key < first * stride) | (key >= (first + n_owned) * stride)
        if np.any(off):
            at = np.flatnonzero(off)
            owner = np.searchsorted(row_starts, key[at] // stride + 1,
                                    side="right")
            for dst in np.unique(owner):
                sel = at[owner == dst]
                payloads[int(dst)] = (key[sel], cell[sel], val[sel])
            key, cell, val = key[~off], cell[~off], val[~off]
    staged = sum(p[0].size for p in payloads.values())
    received = yield proc.routed_exchange(payloads)
    if received:
        key, cell, val = (np.concatenate([x] + [received[src][i]
                                                for src in sorted(received)])
                          for i, x in enumerate((key, cell, val)))
        order = np.argsort(cell, kind="stable")
        key, val = key[order], val[order]
    key, val = _sum_runs(key, val)
    row, col = np.divmod(key, stride)
    col -= 1
    b = np.zeros(n_owned)
    b[row[col < 0] - first] = val[col < 0]
    nz = (col >= 0) & (val != 0.0)
    A = sp.csr_matrix((val[nz], (row[nz] - first, col[nz])),
                      shape=(n_owned, n_global))
    return A, b, staged


def assemble_serial(space, dofs, constraints, elements):
    """Assemble (A, b) of the serial ``StdSpace`` ``space`` over the free
    DOFs from the element arrays ``elements = (matrices, vectors)`` of
    every active cell: the kernel on one process.

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
    routed exchange moves off-owner rows to their owners.  On a
    ``partition_weighted_sfc`` partition the global ids are the serial
    rows, so the gathered system equals the serial one bitwise.
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
