"""Jacobi-preconditioned conjugate gradients, the exact condition number,
and discretization error norms.

The solver runs the same code path serially and distributed: a serial
system is wrapped as a one-process distributed system.  Each process
holds its rows as a ``CSR`` record, renumbered once to the columns it
touches, and multiplies with scipy's compiled ``csr_matvec``.  The
off-owned columns travel in a halo exchange the runtime plans once per
solve, from the one superstep in which each process asks their owners
for them: each matvec then posts one packed buffer per process and gets
back one read-only ghost block, with no message built per owner.  All inner
products reduce the concatenated per-process arrays in subdomain order
in a single summation, so iteration histories are bitwise identical for
every process count and scheduling choice.  r'r and r'z reduce in one
superstep, so an iteration takes three: the matvec exchange, p'Ap and
that pair.  Convergence is declared on the unpreconditioned residual,
||r||/||b|| < rtol, within maxit iterations; non-convergence is
reported, not raised.  The report's ``reason`` says why the iteration
ended: ``converged``, ``maxit``, ``breakdown`` (p'Ap not positive) or
``nonfinite`` (||b|| or p'Ap NaN or infinite).  The report's ``kappa``
is the condition number of the Jacobi-preconditioned operator, read off
the extreme Ritz values of the CG recurrence: a lower bound that
tightens as the iteration resolves both ends of the spectrum.
``condition_estimate`` gives the exact kappa(A) of a small matrix.
Error norms take the Q1 nodal values of every active cell, however the
space produced them, and read the cells of the ``CellClassification``
in one batched pass: interior cells through one reference element, its
points rebuilt a batch of cells at a time, and cut cells over the bulk
points of the flat quadrature store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (DistributedSystem, bulk_rows, interior_rows,
                       reference_tables)
from .fespace import q1_tables
from .geometry import point_chunks
from .partition import _sorted_distinct
from .runtime import RuntimeProtocolError, VirtualRuntime
from .sparse import CSR


class NotPositiveDefiniteError(ValueError):
    """A matrix expected to be SPD has a non-positive eigenvalue or
    diagonal entry."""


# largest order the dense condition estimate accepts
DENSE_LIMIT = 2000


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    converged: bool
    kappa: float | None   # Ritz kappa of D^-1 A from the recurrence, None
                          # before the first step or if a Ritz value <= 0
    reason: str           # converged, maxit, breakdown or nonfinite


def _ritz_from_recurrence(alphas, betas):
    k = len(alphas)
    if k == 0:
        return None
    alphas, betas = np.asarray(alphas), np.asarray(betas[:k - 1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return float(eig[-1] / eig[0]) if eig[0] > 0 else None


def _dot_terms(out, r, z):
    """``out`` with rows r*r and r*z, to be reduced in one superstep."""
    np.multiply(r, r, out=out[0])
    np.multiply(r, z, out=out[1])
    return out


def _pcg_body(proc, A, b, row_starts, rtol, maxit):
    s = proc.rank
    my_start, my_end = int(row_starts[s - 1]), int(row_starts[s])
    n_owned = my_end - my_start

    # halo setup: ask each owner for the off-owned columns we touch
    cols = _sorted_distinct(A.indices) + 1
    ext = cols[(cols < my_start) | (cols >= my_end)]
    owners = np.searchsorted(row_starts, ext, side="right")
    halo = yield proc.halo_setup(   # ascending gids per owner
        {int(p): ext[owners == p] for p in _sorted_distinct(owners)})
    # the packed send buffer: the entries each requester asked for,
    # requesters ascending
    send = [np.zeros(0, dtype=np.int64)]
    for src, gids in sorted(halo.requests.items()):
        gids = np.asarray(gids, dtype=np.int64)
        if gids.size and (gids.min() < my_start or gids.max() >= my_end):
            bad = gids[(gids < my_start) | (gids >= my_end)][0]
            raise RuntimeProtocolError(
                f"subdomain {s}: solve setup request from {src} names "
                f"global id {bad} outside the owned rows "
                f"{my_start}..{my_end - 1}")
        send.append(gids - my_start)
    send = np.concatenate(send)

    diag = A.diagonal(k=my_start - 1) if n_owned else np.zeros(0)
    # columns renumbered by rank among the touched ones: ghosts owned by
    # lower ranks, the owned range, ghosts owned by higher ranks, as the
    # ghost block holds them; the entry order is kept, so every row sums
    # as before
    touched = np.concatenate([ext[ext < my_start],
                              np.arange(my_start, my_end), ext[ext >= my_end]])
    n_lo = int(np.count_nonzero(ext < my_start))
    local = np.empty_like(A.indices)    # a chunk at a time, in its dtype
    for sl in point_chunks(local.size):
        local[sl] = np.searchsorted(touched, A.indices[sl] + 1)
    A = CSR(A.data, local, A.indptr, (n_owned, touched.size))

    if np.any(diag <= 0):
        raise NotPositiveDefiniteError(
            "Jacobi preconditioning needs positive diagonal")
    inv_diag = 1.0 / diag

    # r'r and r'z share a superstep: z is formed before the convergence
    # test, so the last r'z is computed and not used.  x, r, z and p are
    # updated in place, each entry from the same operands in the same
    # order as x + alpha p, r - alpha Ap, D^-1 r and z + beta p
    x = np.zeros(n_owned)
    r = b.copy()
    z = inv_diag * r
    terms = np.empty((2, n_owned))
    work = np.empty(n_owned)
    bb, rz = yield proc.sum_ordered(_dot_terms(terms, r, z))
    bnorm = np.sqrt(bb)
    history: list = []
    alphas: list = []
    betas: list = []
    iterations = 0
    reason = "converged" if bnorm == 0.0 else "maxit"
    if not np.isfinite(bnorm):
        reason = "nonfinite"
    elif bnorm > 0.0:
        p = z.copy()
        Ap = np.empty(n_owned)
        # p and its ghosts in column order; p itself where there are none
        full = np.empty(touched.size) if ext.size else p
        for it in range(1, maxit + 1):
            # one halo exchange per application
            ghosts = yield halo.exchange(p.take(send))
            if ext.size:
                np.concatenate([ghosts[:n_lo], p, ghosts[n_lo:]], out=full)
            A.matvec(full, Ap)
            pAp = yield proc.sum_ordered(np.multiply(p, Ap, out=work))
            if not math.isfinite(pAp):
                reason = "nonfinite"
                break
            if not pAp > 0.0:
                reason = "breakdown"  # not positive definite on p
                break
            alpha = rz / pAp
            alphas.append(alpha)
            x += np.multiply(alpha, p, out=work)
            Ap *= alpha
            r -= Ap
            np.multiply(inv_diag, r, out=z)
            rr, rz_new = yield proc.sum_ordered(_dot_terms(terms, r, z))
            rel = np.sqrt(rr) / bnorm
            history.append(rel)
            iterations = it
            if rel < rtol:
                reason = "converged"
                break
            beta = rz_new / rz
            betas.append(beta)
            p *= beta
            p += z
            rz = rz_new
    # every rank holds the same recurrence; the caller reads one
    return x, (iterations, history, alphas, betas, reason)


def pcg_jacobi(system, rtol: float = 1e-6, maxit: int = 500,
               runtime: VirtualRuntime | None = None):
    """Solve the SPD system; returns the global solution and a report.

    ``system`` is a ``DistributedSystem`` (give the runtime that owns its
    processes) or a serial ``(A, b)`` pair, ``A`` a ``CSR`` or any matrix
    ``CSR.of`` takes, such as scipy's ``csr_matrix``.
    """
    dist = system if isinstance(system, DistributedSystem) else \
        DistributedSystem.one_block(*system)
    if runtime is None:
        runtime = VirtualRuntime(dist.n_subdomains)
    results = runtime.run(
        _pcg_body,
        args=[(dist.blocks[i], dist.rhs[i], dist.row_starts, rtol, maxit)
              for i in range(dist.n_subdomains)],
        phase="solve")
    x = np.concatenate([r[0] for r in results])
    iterations, history, alphas, betas, reason = results[0][1]
    return x, SolveReport(iterations=iterations, residual_history=history,
                          converged=reason == "converged",
                          kappa=_ritz_from_recurrence(alphas, betas),
                          reason=reason)


def condition_estimate(system) -> float:
    """Exact spectral condition number of an SPD matrix of order at most
    ``DENSE_LIMIT``, a ``DistributedSystem`` or a CSR matrix as
    ``CSR.of`` takes it, from the extreme eigenvalues of its dense copy;
    raises
    ``NotPositiveDefiniteError`` when the smallest is not positive."""
    A = system.gather()[0] if isinstance(system, DistributedSystem) else \
        CSR.of(system)
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"dense estimate limited to n <= {DENSE_LIMIT}, "
                         f"got {n}")
    import scipy.linalg    # here: no solve needs it
    eig = scipy.linalg.eigvalsh(A.toarray())
    if not eig[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue "
            f"{float(eig[0])!r}")
    return float(eig[-1] / eig[0])


def _solution_chunks(cls, quad, nodal):
    """Points, weights, u_h and grad(u_h) over the bulk points in chunks:
    interior cells from their nodal values and the reference tables, cut
    cells point by point from the store."""
    d = cls.grid.d
    vals_ref, grads_ref = reference_tables(cls, quad)
    # (m, n_box * d): one product gives every cell's gradients at its points
    grads_ref = grads_ref.transpose(1, 0, 2).reshape(grads_ref.shape[1], -1)
    for cells, pts in interior_rows(cls, quad):
        values = nodal[cells - 1]
        yield (pts.reshape(-1, d), np.tile(quad.box_weights, cells.size),
               (values @ vals_ref.T).ravel(),
               (values @ grads_ref).reshape(-1, d))
    for cells, pts, w, factors in bulk_rows(cls, quad):
        vals, grads = q1_tables(factors)
        values = nodal[cells - 1]
        yield (pts, w, np.einsum("an,na->n", vals, values),
               np.einsum("dan,na->nd", grads, values) / cls.grid.h)


@dataclass
class ErrorNorms:
    l2: float
    h1_semi: float
    absolute: bool = False   # set when the exact norm vanishes


def error_norms(cls, quad, nodal, u_exact, grad_exact) -> ErrorNorms:
    """Relative L2 and H1-semi errors of a discrete solution given by the
    nodal values of every active cell of the ``CellClassification``
    ``cls``, ``nodal`` of shape (n_active, 2**d).

    For either space these come from each subdomain's extension operator
    (``distspace.nodal_values``); without constraints, as for the standard
    space, that reads ``x`` at the global ids of the cell's nodes.  The
    integrals run over the box rule of every interior cell, in batches of
    about ``CHUNK_POINTS`` points, and the bulk points of the quadrature
    store, in chunks of whole cells of at most ``KERNEL_CHUNK`` points, so
    only the physical domain contributes.  At interior points u_h and
    its gradient come from the cell's nodal values and the fixed reference
    tables of the shared box rule; cut-cell points evaluate the shape
    functions one by one.
    """
    nodal = np.asarray(nodal, dtype=np.float64)
    shape = (cls.n_active, 2 ** cls.grid.d)
    if nodal.shape != shape:
        raise ValueError(f"expected nodal values of shape {shape}, got "
                         f"{nodal.shape}")
    err2 = errg2 = base2 = baseg2 = 0.0
    for pts, w, uh, gh in _solution_chunks(cls, quad, nodal):
        ue = np.asarray(u_exact(pts))
        ge = np.asarray(grad_exact(pts))
        err2 += float(w @ (ue - uh) ** 2)
        errg2 += float(w @ np.sum((ge - gh) ** 2, axis=1))
        base2 += float(w @ ue**2)
        baseg2 += float(w @ np.sum(ge**2, axis=1))
    if base2 > 1e-28 and baseg2 > 1e-28:
        return ErrorNorms(l2=float(np.sqrt(err2 / base2)),
                          h1_semi=float(np.sqrt(errg2 / baseg2)))
    return ErrorNorms(l2=float(np.sqrt(err2)), h1_semi=float(np.sqrt(errg2)),
                      absolute=True)
