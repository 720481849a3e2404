"""Nitsche-Poisson element integration and constrained assembly.

Elements are Q1 on the cells of the ``CellClassification``: no space
object is needed to integrate them.  Element matrices carry the bulk
gradient term plus the weak-Dirichlet boundary terms; the penalty is
either beta/h (aggregated spaces, robust for any cut) or beta times the
largest generalized eigenvalue of the boundary/volume pencil per cut
cell (standard spaces, which blows up as the kept volume shrinks).
Element matrices come as ``CellMatrices``: interior cells share one
reference matrix, the one their common box rule gives, and only cut
cells, and any cell with interface points, store their own.  Vectors
(n_active, m), m = 2**d, are per cell; interior ones are f at the
points ``interior_rows`` rebuilds a batch of cells at a time times one
table of shape values.  The cut-cell and interface rules, all the
quadrature store holds, are mapped from its factored form a chunk at a
time by ``bulk_rows`` and ``interface_rows``, which also feed the error
norms, in chunks that end at cell boundaries and hold at most
``KERNEL_CHUNK`` points (or one larger cell): each cell sums its points
in store order in one run, whatever the chunk size, and a chunk's
temporaries stay in the heap from one chunk to the next.  The penalty
reads the bulk stiffness this pass sums.  A Q1 function is a product of
one factor (1 - x, x) per axis, so a cut cell's stiffness takes d *
3**(d-1) weighted sums of factor pairs, not m * m gradient products, and
its interface matrix is one sum S of w v c^T, summed one row of S at a
time and added as S + S^T, a chunk of cells at a time.

Assembly is one kernel run per subdomain on the virtual runtime, serial
being the one-process case.  It forms A = C^T A_e C, C the extension
operator, as per-cell sums keyed row * (n + 1) + col + 1, col -1 being
the load.  A stencil cell, one whose rows are all free and owned, adds
its element entries as they stand at fixed slots of its corners' rows:
the load's and one per lattice offset between corners, 3**d in all.
Every other cell, a keyed cell, adds the nonzero sums of C_c^T [b_e,
A_e C_c], C_c its rows of C, formed by two sparse products a batch of
cells at a time (``_cell_sums``).  A first pass forms them for their
keys and counts, and those of rows owned elsewhere leave in cell order
in one routed exchange.  Each owner builds the sorted keys of its rows
once, from its rows' slots, its keyed cells' keys and the received
ones, and adds every sum into one array over them by ``np.add.at``,
which adds in index order: the pairs of lower ranks, its own cells in
cell order a window of about 4 * ``KERNEL_CHUNK`` sums at a time, the
keyed cells' sums formed again, then the pairs of higher ranks.  Ranks
hold ascending ranges of cell ids (``partition_weighted_sfc``), so every
(row, col) is a left-to-right sum of its cells' sums in global-cell
order, the same for every P: serial and distributed systems are bitwise
equal.  The loads and the ``CSR`` block are cut out of that array in
place; entries summing to zero are not stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fespace import (axis_factors, extension_operator, q1_tables,
                      shape_gradients, shape_values, tensor_products)
from .geometry import (CHUNK_POINTS, KERNEL_CHUNK, CellClassification,
                       QuadratureStore, cell_chunks, point_chunks)
from .partition import _sorted_distinct
from .runtime import RuntimeProtocolError, VirtualRuntime
from .sparse import CSR


class AssemblyError(RuntimeError):
    """An element referenced a DOF with neither a row nor a constraint."""


class TauUnboundedError(RuntimeError):
    """The cut-cell volume form is numerically singular beyond constants."""


def nitsche_tau_agg(h: float, beta: float) -> float:
    """Penalty beta/h used with aggregated spaces."""
    if h <= 0 or beta <= 0:
        raise ValueError("cell size and beta must be positive")
    return beta / h


def _runs(cells):
    """Where each cell's run of points starts in a chunk, ``cells`` being
    the cell of each point, 1-based and nondecreasing."""
    return np.flatnonzero(np.diff(cells, prepend=0))


def _add_weighted_runs(out, rows, starts, w, vals):
    """``out[rows[i]] += sum of w * vals`` over the points of run i, the
    runs starting at ``starts`` (as ``_runs`` gives them), ``vals`` points
    last: each run is summed in one reduction.  ``vals`` is a scratch
    array of the caller's, scaled by w in place."""
    vals *= w
    out[rows] += np.moveaxis(np.add.reduceat(vals, starts, axis=-1), -1, 0)


def reference_tables(cls: CellClassification, quad: QuadratureStore):
    """Shape values (n_box, m) and physical gradients (n_box, m, d) at the
    box rule of every interior cell of ``quad``."""
    return (shape_values(quad.box_points),
            shape_gradients(quad.box_points) / cls.grid.h)


def interior_rows(cls: CellClassification, quad: QuadratureStore):
    """The interior cells in batches of about ``CHUNK_POINTS`` points:
    (cells, their box-rule points (n_cells, n_box, d)); every cell's
    weights are ``quad.box_weights``.  No batch is one cell unless there
    is only one: BLAS takes its matrix-vector path for a one-row product,
    which rounds unlike the matrix product of any other batch, so a last
    cell left alone takes one from the batch before it."""
    n = cls.interior_ids.size
    per = max(3, CHUNK_POINTS // quad.box_weights.size)
    bounds = list(range(0, n, per)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        bounds[-2] -= 1
    for s, e in zip(bounds[:-1], bounds[1:]):
        cells = cls.interior_ids[s:e]
        lo = cls.grid.cell_origin(cls.id_to_lattice[cells - 1])
        yield cells, lo[:, None, :] + quad.box_points * cls.grid.h


def bulk_rows(cls: CellClassification, quad: QuadratureStore):
    """The bulk points of the store, the cut cells' rules, mapped a chunk
    of whole cells at a time, at most 8 * ``KERNEL_CHUNK`` / m points
    each, m = 2**d, unless one cell has more: (cell of each point, points,
    weights, the per-axis factors (d, 2, n) of the Q1 shape functions, as
    ``axis_factors``).  A chunk's temporaries grow with m per point."""
    n = quad.ref_weights.size
    for sl in cell_chunks(quad.simplex_offsets,
                          (8 * KERNEL_CHUNK >> cls.grid.d) // n):
        cells, (pts, w) = quad.bulk_cells(sl), quad.bulk_rule(sl)
        yield (cells, pts, w,
               axis_factors(_reference_coords(cls, cells[::n], pts)))


def interface_rows(cls: CellClassification, quad: QuadratureStore):
    """The interface points of the store, mapped a chunk of whole cells at
    a time, at most 4 * ``KERNEL_CHUNK`` / m points each, m = 2**d, unless
    one cell has more, so that each (m, n) table holds about 4 *
    ``KERNEL_CHUNK`` values: (cell of each point, points, weights,
    and, points last, the shape values (m, n) and normal derivatives (m,
    n) of the shape functions)."""
    n = quad.facet_weights.size
    for sl in cell_chunks(quad.facet_offsets,
                          (4 * KERNEL_CHUNK >> cls.grid.d) // n):
        cells, (pts, w, normals) = (quad.boundary_cells(sl),
                                    quad.interface_rule(sl))
        vals, grads = q1_tables(axis_factors(
            _reference_coords(cls, cells[::n], pts)))
        gn = np.einsum("dan,nd->an", grads, normals / cls.grid.h)
        del grads    # not held while the next chunk is formed
        yield cells, pts, w, vals, gn


def _reference_coords(cls, owners, pts):
    """Coordinates of the points ``pts`` in the unit boxes of their cells,
    as ``reference_coords`` gives them, the points coming an equal number
    per entry of ``owners`` in turn: each cell's origin is formed once."""
    lo = cls.grid.cell_origin(cls.id_to_lattice[owners - 1])
    rel = pts.reshape(len(owners), -1, pts.shape[1]) - lo[:, None, :]
    rel /= cls.grid.h
    return rel.reshape(pts.shape)


def _stiffness_integrands(factors, out):
    """The d * 3**(d-1) integrands of the factor-form Q1 stiffness, points
    last, written into ``out``: for each axis c, the products over the
    other axes of one factor pair each, (1 - x)**2, (1 - x) x or x**2, in
    ``tensor_products`` order."""
    d = len(factors)
    pairs = factors[:, [0, 0, 1]] * factors[:, [0, 1, 1]]
    k = 3 ** (d - 1)
    for c in range(d):
        out[c * k:(c + 1) * k] = tensor_products(
            [pairs[a] for a in range(d) if a != c])
    return out


@functools.cache
def _stiffness_tables(d):
    """Per axis c, the column of each entry (a, b) among the sums of
    ``_stiffness_integrands``, that at the factor pairs (a_e, b_e) of the
    other axes, and its sign, negative where a_c != b_c: (d, m, m) each,
    read-only, as every caller shares them."""
    bits = np.arange(2 ** d)[:, None] >> np.arange(d) & 1
    pair = bits[:, None, :] + bits[None, :, :]    # (m, m, d): 0, 1 or 2
    cols = np.stack([c * 3 ** (d - 1)
                     + np.delete(pair, c, axis=2) @ 3 ** np.arange(d - 1)
                     for c in range(d)])
    signs = np.where(pair == 1, -1.0, 1.0).transpose(2, 0, 1)
    for table in (cols, signs):
        table.setflags(write=False)
    return cols, signs


def _factor_stiffness(sums, h):
    """Stiffness matrices (nc, m, m) from the weighted sums (nc, d *
    3**(d-1)) of ``_stiffness_integrands``: entry (a, b) adds, over the
    axes c in order, its sum of ``_stiffness_tables`` times 1 / h_c**2
    and its sign, each term in turn into one array."""
    cols, signs = _stiffness_tables(len(h))
    out = sums[:, cols[0]]
    out *= signs[0] / h[0] ** 2
    for c in range(1, len(h)):
        term = sums[:, cols[c]]
        term *= signs[c] / h[c] ** 2
        out += term
    return out


@dataclass
class CellMatrices:
    """The element matrices (n, m, m) of the active cells, stored where
    they differ: every cell but ``ids`` has the ``reference`` matrix.
    Indexed by 0-based cell positions, as the full array would be, it
    returns the matrices as an array."""

    reference: np.ndarray     # (m, m)
    ids: np.ndarray           # ascending 1-based cells with their own matrix
    own: np.ndarray           # (ids.size, m, m)
    n: int                    # active cells

    @property
    def shape(self) -> tuple:
        return (self.n, *self.reference.shape)

    def __getitem__(self, key):
        return self.take(np.arange(1, self.n + 1)[key])

    def take(self, cells):
        """The matrices of the 1-based cells ``cells``, shape cells.shape +
        (m, m)."""
        cells = np.asarray(cells)
        out = np.empty(cells.shape + self.reference.shape)
        out[...] = self.reference
        if self.ids.size:
            at = np.minimum(np.searchsorted(self.ids, cells),
                            self.ids.size - 1)
            hit = self.ids[at] == cells
            out[hit] = self.own[at[hit]]
        return out


def poisson_elements(cls: CellClassification, quad: QuadratureStore, penalty,
                     f=None, g=None):
    """Element matrices, as ``CellMatrices``, and vectors (n_active, m) of
    the weak-Dirichlet Poisson form, for every active cell in id order:

    A_ab = int grad(phi_a).grad(phi_b) dOmega
         + int (tau phi_a phi_b - phi_a n.grad(phi_b) - phi_b n.grad(phi_a)) dGamma
    b_a  = int phi_a f dOmega + int (tau phi_a - n.grad(phi_a)) g dGamma

    over each cut cell's run of the store and each interior cell's box
    rule, tau being ``penalty(V)`` of the bulk stiffness V, the first
    term of A, as ``CellMatrices``: one value or one per cell.  Interior
    cells share one reference element: they store no matrix, and their
    load vectors are f at their points times the fixed table of shape
    values.  Only cut cells, and any cell with interface points, store a
    matrix.  Their points are mapped from the store and integrated a
    chunk at a time: the bulk stiffness in factor form, the interface
    matrix as S + S^T, S summed one row at a time, so that no chunk holds
    an (m, m, n) product.  Each pass is a function of its own, so that
    none of its chunk arrays outlives it.
    """
    m = 2 ** cls.grid.d
    held = np.flatnonzero(np.diff(quad.facet_offsets)) + 1
    # the cells with a matrix of their own; not np.union1d, whose hash
    # path takes about 9 ms on its first call in a process
    ids = _sorted_distinct(np.concatenate([cls.cut_ids, held]))
    vecs = np.zeros((cls.n_active, m))
    vals_ref, grads_ref = reference_tables(cls, quad)
    ref = np.einsum("nad,nbd,n->ab", grads_ref, grads_ref, quad.box_weights)
    mats = CellMatrices(ref, ids, np.tile(ref, (ids.size, 1, 1)),
                        cls.n_active)
    if f is not None:
        _interior_loads(cls, quad, vecs, f, vals_ref)
    _add_cut_stiffness(cls, quad, mats, vecs, f)
    _add_interface_terms(cls, quad, mats, vecs,
                         np.broadcast_to(penalty(mats), cls.n_active), g)
    return mats, vecs


def _interior_loads(cls, quad, vecs, f, vals_ref):
    """Write the load of every interior cell into ``vecs``: f at its points
    times the table of shape values."""
    for cells, pts in interior_rows(cls, quad):
        fw = np.asarray(f(pts.reshape(-1, pts.shape[2]))).reshape(
            pts.shape[:2])
        vecs[cells - 1] = (fw * quad.box_weights) @ vals_ref


def _add_cut_stiffness(cls, quad, mats, vecs, f):
    """Write the bulk stiffness of every cut cell into ``mats`` and add its
    load to ``vecs``: the weighted sums of each cell's integrands, in one
    run of its chunk, then its matrix from them, a block of cells at a
    time."""
    cut, m = cls.cut_ids, mats.reference.shape[0]
    k = cls.grid.d * 3 ** (cls.grid.d - 1)
    sums = np.zeros((cut.size, k))
    buf = np.empty(0)     # the integrands of each chunk, grown as needed
    for cells, pts, w, factors in bulk_rows(cls, quad):
        if buf.size < k * w.size:
            buf = np.empty(k * w.size)
        starts = _runs(cells)
        _add_weighted_runs(sums, np.searchsorted(cut, cells[starts]), starts,
                           w, _stiffness_integrands(
                               factors, buf[:k * w.size].reshape(k, w.size)))
        if f is not None:
            _add_weighted_runs(vecs, cells[starts] - 1, starts,
                               w * np.asarray(f(pts)),
                               tensor_products(factors))
    at = np.searchsorted(mats.ids, cut)
    for sl in point_chunks(cut.size, KERNEL_CHUNK // m):
        mats.own[at[sl]] = _factor_stiffness(sums[sl], cls.grid.h)


def _add_interface_terms(cls, quad, mats, vecs, taus, g):
    """Add the interface terms of every cell with interface points, tau
    being ``taus`` of its cell, to ``mats`` and ``vecs``: the matrix as S
    + S^T, S summed one row at a time, a chunk of cells at a time."""
    m = mats.reference.shape[0]
    for cells, pts, w, vals, gn in interface_rows(cls, quad):
        tau = taus[cells - 1]
        starts = _runs(cells)
        # tau v v^T - v gn^T - gn v^T = v c^T + c v^T, c = tau v / 2 - gn
        c = 0.5 * tau * vals - gn
        row = np.empty_like(c)    # one row of S's integrands at a time
        S = np.zeros((starts.size, m, m))
        for a in range(m):
            _add_weighted_runs(S[:, a], slice(None), starts, w,
                               np.multiply(vals[a], c, out=row))
        mats.own[np.searchsorted(mats.ids, cells[starts])] += \
            S + S.transpose(0, 2, 1)
        if g is not None:
            _add_weighted_runs(vecs, cells[starts] - 1, starts,
                               w * np.asarray(g(pts)), tau * vals - gn)


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
                    beta: float, V: CellMatrices) -> np.ndarray:
    """Penalties (n_active,) of the standard space from the local
    eigenproblems: for each cell with interface points, its matrix of the
    bulk stiffness V, the ``CellMatrices`` ``poisson_elements`` passes,
    and its boundary form B (normal-derivative products over its
    interface points) are deflated by the constant kernel of V, and beta
    times the largest eigenvalue of B x = lambda V x, floored at beta/h,
    is its penalty; other cells get 0, which no term reads.  Raises
    ``TauUnboundedError`` naming the first cell whose deflated V is not
    positive definite."""
    cells = np.flatnonzero(np.diff(quad.facet_offsets)) + 1
    V = V.take(cells)
    B = np.zeros_like(V)
    for c, _, w, _, gn in interface_rows(cls, quad):
        starts = _runs(c)
        _add_weighted_runs(B, np.searchsorted(cells, c[starts]), starts, w,
                           gn[:, None] * gn[None])
    Z = np.linalg.svd(np.ones((1, V.shape[-1])))[2][1:].T    # V's range
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


@dataclass
class DistributedSystem:
    """Row-wise partitioned sparse system over the interior global ids."""

    n_global: int
    row_starts: np.ndarray    # (P+1,) 1-based owned-range starts
    blocks: list              # per s: CSR of shape (n_owned, n_global)
    rhs: list                 # per s: (n_owned,)

    @classmethod
    def one_block(cls, A, b) -> "DistributedSystem":
        """A serial system ``(A, b)`` as the one-subdomain partition; ``A``
        is a ``CSR`` or any matrix ``CSR.of`` takes."""
        A = CSR.of(A)
        n = A.shape[0]
        return cls(n_global=n, row_starts=np.array([1, n + 1], dtype=np.int64),
                   blocks=[A], rhs=[np.asarray(b, dtype=np.float64)])

    @property
    def n_subdomains(self) -> int:
        return len(self.blocks)

    def gather(self):
        """Full (A, b) with globally ordered rows, A a ``CSR``."""
        A = CSR.vstack(self.blocks)
        b = np.concatenate(self.rhs)
        return A, b


def _ranges(starts, lens):
    """Concatenated ``arange(start, start + len)`` for every pair."""
    offsets = np.cumsum(lens) - lens
    return np.arange(int(np.sum(lens))) + np.repeat(starts - offsets, lens)


def _cell_sums(C, dofs, mats, vecs, n):
    """The nonzero sums C_c^T [b_e, A_e C_c] of a batch of cells with
    0-based DOFs ``dofs`` (nb, m), matrices ``mats`` and vectors ``vecs``:
    (cell 0..nb-1, key, value) in cell order, keyed row * (n + 1) + col +
    1, col -1 being the load.  G holds the cells' rows of C, each column
    renumbered to its place in its cell's union of system rows, then a
    unit row per cell at a load column of its own; T = [A_e, b_e] G, and
    the sums are G_C^T T, G_C the rows of C in G.  Each sum folds from 0
    in stored order, over the nodes b for T and the nodes a for the sums,
    as the dense local product does; a term not stored would add a zero,
    which changes no sum that is not zero."""
    nb, m = dofs.shape
    r = nb * m
    starts = C.indptr[dofs.ravel()]
    lens = C.indptr[dofs.ravel() + 1] - starts
    pos = _ranges(starts, lens)
    union, place = np.unique(
        np.repeat(np.arange(nb) * n, lens.reshape(nb, m).sum(axis=1))
        + C.indices[pos], return_inverse=True)
    k = union.size
    indptr = np.concatenate([[0], lens, np.ones(nb, dtype=lens.dtype)])
    G = CSR(np.concatenate([C.data[pos], np.ones(nb)]),
            np.concatenate([place, k + np.arange(nb)]), indptr.cumsum(),
            (r + nb, k + nb))
    # [A_e, b_e] by rows (cell, a): columns (cell, b), then the cell's load
    cols = np.where(np.arange(m + 1) < m,
                    np.arange(nb)[:, None, None] * m + np.arange(m + 1),
                    r + np.arange(nb)[:, None, None])
    E = CSR(np.concatenate([mats, vecs[:, :, None]], axis=2).ravel(),
            np.broadcast_to(cols, (nb, m, m + 1)).ravel(),
            np.arange(0, r * (m + 1) + 1, m + 1), (r, r + nb))
    del mats, vecs, place, cols    # the batch's arrays, not held further
    T = E.matmat(G)
    Gt = CSR(G.data[:pos.size], G.indices[:pos.size], G.indptr[:r + 1],
             (r, k + nb)).transpose()
    del E, G, pos
    S = Gt.matmat(T)
    del Gt, T
    cell, row = np.divmod(union, n)
    lens = np.diff(S.indptr[:k + 1])
    col = np.concatenate([row + 1, np.zeros(nb, dtype=np.int64)])
    return (np.repeat(cell, lens),
            np.repeat(row * (n + 1), lens) + col[S.indices], S.data)


@functools.cache
def _slot_table(d):
    """(m, m + 1) slots of a cell's sums in the rows of its corners, load
    first as in the keys: slot 3**d of row a holds the load, and
    column b the base-3 code of the lattice offset of corner b from
    corner a, one digit 0, 1 or 2 per axis.  Read-only, as every caller
    shares it."""
    bits = np.arange(2 ** d)[:, None] >> np.arange(d) & 1
    code = (bits[None, :, :] - bits[:, None, :] + 1) @ 3 ** np.arange(d)
    table = np.concatenate([np.full((2 ** d, 1), 3 ** d), code], axis=1)
    table.setflags(write=False)
    return table


def _shrink(a, n):
    """Cut ``a`` down to its first ``n`` entries in place, handing the rest
    of its memory back: ``a`` owns its data and no view of it is alive.
    numpy's reference check is off because a profiler's reference to the
    bound method would fail it."""
    a.resize(n, refcheck=False)


def _compact(keep, *arrays):
    """Keep the entries of ``arrays`` where ``keep`` holds, in order and in
    place, a chunk at a time, and cut the arrays down to them (as
    ``_shrink``)."""
    n = 0
    for sl in point_chunks(keep.size, 8 * KERNEL_CHUNK):
        at = np.flatnonzero(keep[sl]) + sl.start
        for a in arrays:
            a[n:n + at.size] = a[at]
        n += at.size
    for a in arrays:
        _shrink(a, n)


def _pattern(rows, table, extra, first, n_owned, stride, index):
    """Sorted keys (row - first) * stride + col + 1 of the owned rows,
    col -1 for the load, and the position in them of each slot of
    ``table`` in each row (n_owned * (3**d + 1), flat, of dtype ``index``;
    -1 where a row has no such key).  The slots are those of the 1-based
    rows ``rows`` (n_cells, m) of cells whose rows are all free and owned,
    joined with the distinct ascending keys ``extra``, a block of about
    ``CHUNK_POINTS`` slots at a time, each block sorting its own keys."""
    k = table.max() + 1
    cols = np.full(n_owned * k, stride, dtype=index)
    per = max(1, CHUNK_POINTS // table.size)
    for c0 in range(0, len(rows), per):
        r = rows[c0:c0 + per]
        cols[((r - 1 - first) * k)[:, :, None] + table] = np.concatenate(
            [np.zeros((len(r), 1), dtype=np.int64), r], axis=1)[:, None, :]
    cols = cols.reshape(n_owned, k)      # each block becomes its slots
    keys = np.empty(np.count_nonzero(cols < stride) + extra.size,
                    dtype=np.int64)
    per, nnz, e0 = max(1, CHUNK_POINTS // k), 0, 0
    for r0 in range(0, n_owned, per):
        block = cols[r0:r0 + per]
        r1 = r0 + len(block)
        held = block < stride
        stencil = (block + np.arange(r0, r1)[:, None] * stride)[held]
        e1 = np.searchsorted(extra, r1 * stride)
        uniq = _sorted_distinct(np.concatenate([stencil, extra[e0:e1]]))
        keys[nnz:nnz + uniq.size] = uniq
        block[held] = nnz + np.searchsorted(uniq, stencil)
        block[~held] = -1
        nnz, e0 = nnz + uniq.size, e1
    _shrink(keys, nnz)    # keys both sources hold were counted twice
    return keys, cols.ravel()


def _owned_pairs(s, src, payload, first, n_owned, stride):
    """The (keys less the owned base, values) that subdomain ``s`` got from
    ``src``, checked: a pair of vectors, as many integer keys as values,
    each key in an owned row (1-based ``first + 1..first + n_owned``), so
    that its column code, key mod ``stride``, lies in 0..n_global."""
    keys, values = payload if isinstance(payload, tuple) and \
        len(payload) == 2 else (None, None)
    if (not isinstance(keys, np.ndarray) or keys.dtype.kind not in "iu"
            or keys.ndim != 1 or np.shape(values) != keys.shape):
        raise RuntimeProtocolError(
            f"subdomain {s}: assembly payload from {src} is not a pair of "
            f"integer keys and as many values")
    keys = keys - first * stride
    end = n_owned * stride
    if keys.size and (keys.min() < 0 or keys.max() >= end):
        row = int(keys[(keys < 0) | (keys >= end)][0] // stride) + first + 1
        raise RuntimeProtocolError(
            f"subdomain {s}: assembly payload from {src} carries a key of "
            f"row {row}, outside the owned rows "
            f"{first + 1}..{first + n_owned}")
    return keys, values


def _assembly_body(proc, cell_dofs, cell_ids, row_of, constraints, mats, vecs,
                   n_global, row_starts):
    """Owned rows of one subdomain from its owned cells: their local DOFs
    ``cell_dofs`` (n_cells, m) and ascending global ids, the 1-based global
    row of each free local DOF ``row_of`` (else 0), the constraints of the
    others, and the element matrices and vectors of every active cell."""
    s = proc.rank
    C = extension_operator(row_of, constraints, n_global)
    if np.any(empty := np.diff(C.indptr)[cell_dofs - 1] == 0):
        raise AssemblyError(
            f"subdomain {s}: DOF {int(cell_dofs[empty][0])} has neither a "
            f"system row nor a constraint")
    del empty
    n_cells, m = cell_dofs.shape
    stride = n_global + 1
    first = int(row_starts[s - 1]) - 1
    n_owned = int(row_starts[s]) - 1 - first
    base = first * stride      # owned keys less base: the pattern's keys
    # stencil cells (rows all free and owned) add at their rows' slots;
    # every other cell, one with a constrained DOF (row 0) too, is keyed
    rows = row_of[cell_dofs - 1]
    keyed = np.any((rows <= first) | (rows > first + n_owned), axis=1)
    del rows    # formed again a window at a time
    kc = np.flatnonzero(keyed)
    per = 2 * KERNEL_CHUNK // m ** 2 + 1     # keyed cells per product

    def sums(at):
        """``_cell_sums`` of the keyed cells at positions ``at`` in kc, keys
        less base, and which of them lie in owned rows."""
        cells = kc[at]
        cell, key, val = _cell_sums(C, cell_dofs[cells] - 1,
                                    mats.take(cell_ids[cells]),
                                    vecs[cell_ids[cells] - 1], n_global)
        key -= base
        return cell, key, val, (key >= 0) & (key < n_owned * stride)

    # each keyed cell's owned keys and their count; its off-owner sums
    # leave in cell order, and joined in rank order every owner adds them
    # in global-cell order
    parts = [np.zeros(0, dtype=np.int64)]
    count = np.empty(kc.size, dtype=np.int64)
    off = [(np.zeros(0, dtype=np.int64), np.zeros(0))]
    for sl in point_chunks(kc.size, per):
        cell, key, val, mine = sums(sl)
        parts.append(_sorted_distinct(key[mine]))
        count[sl] = np.bincount(cell[mine], minlength=sl.stop - sl.start)
        off.append((key[~mine] + base, val[~mine]))
    key, val = (np.concatenate(a) for a in zip(*off))
    del off
    owner = np.searchsorted(row_starts, key // stride + 1, side="right")
    received = yield proc.routed_exchange(
        {int(dst): (key[owner == dst], val[owner == dst])
         for dst in _sorted_distinct(owner)})
    del key, val, owner
    pairs = [(r, *_owned_pairs(s, r, payload, first, n_owned, stride))
             for r, payload in sorted(received.items())]

    table = _slot_table(m.bit_length() - 1)
    k = table.max() + 1
    extra = _sorted_distinct(np.concatenate(
        parts + [pk for _, pk, _ in pairs]))
    del parts
    # positions in the keys fit int32 where the keys' count bound does
    index = np.int32 if max(n_owned * k + extra.size, stride) < 2 ** 31 \
        else np.int64
    keys, slots = _pattern(row_of[cell_dofs[~keyed] - 1], table, extra,
                           first, n_owned, stride, index)
    del extra

    # every key adds its sums in global-cell order: the lower ranks'
    # sums, this rank's cells a window at a time, the higher ranks'
    buf = np.zeros(keys.size)
    for r, pk, pv in pairs:
        if r < s:
            np.add.at(buf, np.searchsorted(keys, pk), pv)
    # each cell's place in the stream of its window, windows of about 4 *
    # KERNEL_CHUNK sums: table.size per stencil cell, its owned nonzero
    # sums per keyed cell
    size = np.full(n_cells, table.size)
    size[kc] = count
    stop = np.cumsum(size)
    start = stop - size
    cuts = np.flatnonzero(np.diff(stop // (4 * KERNEL_CHUNK))) + 1
    for w0, w1 in zip([0, *cuts], [*cuts, n_cells]):
        fc = np.flatnonzero(~keyed[w0:w1]) + w0
        fpos = np.take(slots, ((row_of[cell_dofs[fc] - 1] - 1 - first)
                               * k)[:, :, None] + table).ravel()
        fval = np.concatenate([vecs[cell_ids[fc] - 1, :, None],
                               mats.take(cell_ids[fc])], axis=2).ravel()
        i0, i1 = np.searchsorted(kc, [w0, w1])
        if i0 == i1:
            np.add.at(buf, fpos, fval)
            continue
        s0 = start[w0]
        pos = np.empty(stop[w1 - 1] - s0, dtype=index)
        val = np.empty(pos.size)
        dest = ((start[fc] - s0)[:, None] + np.arange(table.size)).ravel()
        pos[dest], val[dest] = fpos, fval
        del fpos, fval, dest
        for c0 in range(i0, i1, per):
            at = slice(c0, min(c0 + per, i1))
            _, key, kval, mine = sums(at)
            dest = _ranges(start[kc[at]] - s0, count[at])
            pos[dest] = np.searchsorted(keys, key[mine])
            val[dest] = kval[mine]
            del key, kval, mine, dest
        np.add.at(buf, pos, val)
        del pos, val    # not held while the next window is formed
    for r, pk, pv in pairs:
        if r > s:
            np.add.at(buf, np.searchsorted(keys, pk), pv)

    del slots    # freed before the CSR is cut out of buf
    load = keys % stride == 0
    b = np.zeros(n_owned)
    b[keys[load] // stride] = buf[load]
    _compact(~load & (buf != 0.0), keys, buf)
    indptr = np.searchsorted(keys, np.arange(n_owned + 1) * stride)
    keys %= stride
    keys -= 1
    return CSR(buf, keys, indptr, (n_owned, n_global)), b


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
    [(A, b)] = VirtualRuntime(1).run(
        _assembly_body,
        args=[(space.cell_dofs, cell_ids, row_of, constraints, *elements, n,
               np.array([1, n + 1]))],
        phase="assembly")
    return A, b


def assemble_distributed(runtime: VirtualRuntime, numbering, constraints_per_s,
                         elements) -> DistributedSystem:
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
    results = runtime.run(_assembly_body, args=args, phase="assembly")
    return DistributedSystem(
        n_global=numbering.n_global, row_starts=row_starts,
        blocks=[r[0] for r in results], rhs=[r[1] for r in results])


def export_matrix_coo(A: CSR, path):
    """Write a CSR matrix as 1-based 'row col value' text lines, one per
    stored entry in stored order."""
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(A.rows().tolist(), A.indices.tolist(),
                           A.data.tolist()):
            fh.write(f"{r + 1} {c + 1} {v!r}\n")
