"""Jacobi-preconditioned conjugate gradients, the exact condition number,
and discretization error norms.

The solver runs the same code path serially and distributed: a serial
system is wrapped as a one-process distributed system.  All inner
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
in one batched pass over the bulk points of the flat quadrature store,
interior cells through one reference element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import DistributedSystem, reference_tables
from .fespace import shape_gradients, shape_values
from .runtime import VirtualRuntime


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
    ritz_min: float | None
    ritz_max: float | None
    kappa: float | None   # Ritz kappa of D^-1 A from the recurrence, None
                          # before the first step or if ritz_min <= 0
    rtol: float
    maxit: int
    reason: str           # converged, maxit, breakdown or nonfinite


def _ritz_from_recurrence(alphas, betas):
    k = len(alphas)
    if k == 0:
        return None, None, None
    alphas, betas = np.asarray(alphas), np.asarray(betas[:k - 1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    eig = diag if k == 1 else scipy.linalg.eigvalsh_tridiagonal(diag, off)
    lo, hi = float(eig[0]), float(eig[-1])
    kappa = hi / lo if lo > 0 else None
    return lo, hi, kappa


def _dot_terms(out, r, z):
    """``out`` with rows r*r and r*z, to be reduced in one superstep."""
    np.multiply(r, r, out=out[0])
    np.multiply(r, z, out=out[1])
    return out


def _pcg_body(proc, A, b, row_starts, rtol, maxit):
    s = proc.rank
    my_start, my_end = int(row_starts[s - 1]), int(row_starts[s])
    n_owned = my_end - my_start

    # scatter setup: ask each owner for the off-owned columns we touch
    cols = np.unique(A.indices) + 1 if A.nnz else np.zeros(0, dtype=np.int64)
    ext = cols[(cols < my_start) | (cols >= my_end)]
    owners = np.searchsorted(row_starts, ext, side="right")
    requests = {}
    for sp_ in np.unique(owners):
        requests[int(sp_)] = ext[owners == sp_]  # ascending gids
    incoming = yield proc.routed_exchange(requests)
    push_plan = {int(src): np.asarray(gids, dtype=np.int64) - my_start
                 for src, gids in incoming.items()}

    diag = A.diagonal(k=my_start - 1) if n_owned else np.zeros(0)
    # columns renumbered by rank among the touched ones: ghosts owned by
    # lower ranks, the owned range, ghosts owned by higher ranks; the
    # entry order is kept, so every row sums as before
    touched = np.concatenate([ext[ext < my_start],
                              np.arange(my_start, my_end), ext[ext >= my_end]])
    A = sp.csr_matrix((A.data, np.searchsorted(touched, A.indices + 1),
                       A.indptr), shape=(n_owned, touched.size))

    def run_matvec(x_own):
        # one exchange of off-owned entries per application
        payloads = {dst: x_own[idx] for dst, idx in push_plan.items()}
        received = yield proc.routed_exchange(payloads)
        return A @ np.concatenate(
            [received[src] for src in sorted(received) if src < s] + [x_own]
            + [received[src] for src in sorted(received) if src > s])

    if np.any(diag <= 0):
        raise NotPositiveDefiniteError(
            "Jacobi preconditioning needs positive diagonal")
    inv_diag = 1.0 / diag

    # r'r and r'z share a superstep: z is formed before the convergence
    # test, so the last r'z is computed and not used
    x = np.zeros(n_owned)
    r = b.copy()
    z = inv_diag * r
    terms = np.empty((2, n_owned))
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
        for it in range(1, maxit + 1):
            Ap = yield from run_matvec(p)
            pAp = yield proc.sum_ordered(p * Ap)
            if not np.isfinite(pAp):
                reason = "nonfinite"
                break
            if not pAp > 0.0:
                reason = "breakdown"  # not positive definite on p
                break
            alpha = rz / pAp
            alphas.append(alpha)
            x = x + alpha * p
            r = r - alpha * Ap
            z = inv_diag * r
            rr, rz_new = yield proc.sum_ordered(_dot_terms(terms, r, z))
            rel = np.sqrt(rr) / bnorm
            history.append(rel)
            iterations = it
            if rel < rtol:
                reason = "converged"
                break
            beta = rz_new / rz
            betas.append(beta)
            p = z + beta * p
            rz = rz_new
    # every rank holds the same recurrence; the caller reads one
    return x, (iterations, history, alphas, betas, reason)


def pcg_jacobi(system, rtol: float = 1e-6, maxit: int = 500,
               runtime: VirtualRuntime | None = None, phase: str = "solve"):
    """Solve the SPD system; returns the global solution and a report.

    ``system`` is a ``DistributedSystem`` (give the runtime that owns its
    processes) or a serial ``(A, b)`` pair.
    """
    dist = system if isinstance(system, DistributedSystem) else \
        DistributedSystem.one_block(*system)
    if runtime is None:
        runtime = VirtualRuntime(dist.n_subdomains)
    results = runtime.run(
        _pcg_body,
        args=[(dist.blocks[i], dist.rhs[i], dist.row_starts, rtol, maxit)
              for i in range(dist.n_subdomains)],
        phase=phase)
    x = np.concatenate([r[0] for r in results])
    iterations, history, alphas, betas, reason = results[0][1]
    lo, hi, kappa = _ritz_from_recurrence(alphas, betas)
    return x, SolveReport(iterations=iterations, residual_history=history,
                          converged=reason == "converged", ritz_min=lo,
                          ritz_max=hi, kappa=kappa, rtol=rtol, maxit=maxit,
                          reason=reason)


def condition_estimate(system) -> float:
    """Exact spectral condition number of an SPD matrix of order at most
    ``DENSE_LIMIT``, from its extreme eigenvalues; raises
    ``NotPositiveDefiniteError`` when the smallest is not positive."""
    A = system.gather()[0] if isinstance(system, DistributedSystem) else system
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"dense estimate limited to n <= {DENSE_LIMIT}, "
                         f"got {n}")
    eig = scipy.linalg.eigvalsh(sp.csr_matrix(A).toarray())
    if not eig[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue "
            f"{float(eig[0])!r}")
    return float(eig[-1] / eig[0])


def _solution_chunks(cls, quad, nodal):
    """Points, weights, u_h and grad(u_h) over the bulk rows of ``quad``
    in chunks: interior cells from their nodal values and the reference
    tables, cut cells point by point."""
    d, h = cls.grid.d, cls.grid.h
    vals_ref, grads_ref = reference_tables(cls, quad)
    for cells, rows in quad.interior_chunks(cls.interior_ids):
        values = nodal[cells - 1]
        rows = rows.ravel()
        yield (quad.points[rows], quad.weights[rows],
               (values @ vals_ref.T).ravel(),
               np.einsum("ca,nad->cnd", values, grads_ref).reshape(-1, d))
    for cells, rows in quad.cut_chunks(cls.cut_ids):
        values = nodal[cells - 1]
        pts = quad.points[rows]
        xi = cls.reference_coords(cells, pts)
        yield (pts, quad.weights[rows],
               np.einsum("na,na->n", shape_values(xi), values),
               np.einsum("nad,na->nd", shape_gradients(xi) / h, values))


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
    integrals run over the bulk points of the quadrature store, in chunks
    of about ``CHUNK_POINTS``, so only the physical domain contributes.
    At interior points u_h and its gradient come from the cell's nodal
    values and the fixed reference tables of the shared box rule; cut-cell
    points evaluate the shape functions one by one.
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
