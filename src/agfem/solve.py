"""Jacobi-preconditioned conjugate gradients, condition estimation, and
discretization error norms.

The solver runs the same code path serially and distributed: a serial
system is wrapped as a one-process distributed system.  All inner
products reduce the concatenated per-process arrays in subdomain order
in a single summation, so iteration histories are bitwise identical for
every process count and scheduling choice.  Convergence is declared on
the unpreconditioned residual, ||r||/||b|| < rtol, within maxit
iterations; non-convergence is reported, not raised.  The report's
``reason`` says why the iteration ended: ``converged``, ``maxit``,
``breakdown`` (p'Ap not positive) or ``nonfinite`` (||b|| or p'Ap NaN
or infinite).  Error norms run in one batched pass over the bulk points
of the flat quadrature store, interior cells through one reference
element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import DistributedSystem, reference_tables
from .fespace import prolongate, shape_gradients, shape_values
from .runtime import VirtualRuntime


class NotPositiveDefiniteError(ValueError):
    """A matrix expected to be SPD has a non-positive eigenvalue."""


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    converged: bool
    ritz_min: float | None
    ritz_max: float | None
    kappa: float | None   # preconditioned-operator estimate from the recurrence
    rtol: float
    maxit: int
    reason: str           # converged, maxit, breakdown or nonfinite


def _as_distributed(system) -> tuple:
    if isinstance(system, DistributedSystem):
        return system, None
    A, b = system
    A = sp.csr_matrix(A)
    n = A.shape[0]
    wrapped = DistributedSystem(
        n_global=n, row_starts=np.array([1, n + 1], dtype=np.int64),
        blocks=[A], rhs=[np.asarray(b, dtype=np.float64)], staged_counts=[0])
    return wrapped, VirtualRuntime(1)


def _ritz_from_recurrence(alphas, betas):
    k = len(alphas)
    if k == 0:
        return None, None, None
    diag = np.empty(k)
    off = np.empty(max(k - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for i in range(1, k):
        diag[i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
        off[i - 1] = np.sqrt(betas[i - 1]) / alphas[i - 1]
    if k == 1:
        eig = diag
    else:
        eig = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    lo, hi = float(eig[0]), float(eig[-1])
    kappa = hi / lo if lo > 0 else None
    return lo, hi, kappa


def _pcg_body(proc, A, b, row_starts, rtol, maxit, precondition):
    s = proc.rank
    my_start, my_end = int(row_starts[s - 1]), int(row_starts[s])
    n_owned = my_end - my_start
    n_global = A.shape[1]

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
    pull_order = {sp_: gids for sp_, gids in requests.items()}

    def run_matvec(x_own):
        # one exchange of off-owned entries per application
        payloads = {dst: x_own[idx] for dst, idx in push_plan.items()}
        received = yield proc.routed_exchange(payloads)
        x_full = np.zeros(n_global)
        x_full[my_start - 1:my_end - 1] = x_own
        for src in sorted(received):
            x_full[pull_order[src] - 1] = received[src]
        return A @ x_full

    diag = A.diagonal(k=my_start - 1) if n_owned else np.zeros(0)
    if precondition:
        if np.any(diag <= 0):
            raise ValueError("Jacobi preconditioning needs positive diagonal")
        inv_diag = 1.0 / diag
    else:
        inv_diag = np.ones(n_owned)

    x = np.zeros(n_owned)
    r = b.copy()
    bnorm = np.sqrt((yield proc.sum_ordered(b * b)))
    history: list = []
    alphas: list = []
    betas: list = []
    iterations = 0
    reason = "converged" if bnorm == 0.0 else "maxit"
    if not np.isfinite(bnorm):
        reason = "nonfinite"
    elif bnorm > 0.0:
        z = inv_diag * r
        p = z.copy()
        rz = yield proc.sum_ordered(r * z)
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
            rnorm = np.sqrt((yield proc.sum_ordered(r * r)))
            rel = rnorm / bnorm
            history.append(rel)
            iterations = it
            if rel < rtol:
                reason = "converged"
                break
            z = inv_diag * r
            rz_new = yield proc.sum_ordered(r * z)
            beta = rz_new / rz
            betas.append(beta)
            p = z + beta * p
            rz = rz_new
    lo, hi, kappa = _ritz_from_recurrence(alphas, betas)
    report = SolveReport(iterations=iterations, residual_history=history,
                         converged=reason == "converged", ritz_min=lo,
                         ritz_max=hi, kappa=kappa, rtol=rtol, maxit=maxit,
                         reason=reason)
    return x, report


def pcg_jacobi(system, rtol: float = 1e-6, maxit: int = 500,
               runtime: VirtualRuntime | None = None, precondition: bool = True,
               phase: str = "solve"):
    """Solve the SPD system; returns the global solution and a report.

    ``system`` is a ``DistributedSystem`` (give the runtime that owns its
    processes) or a serial ``(A, b)`` pair.
    """
    dist, own_runtime = _as_distributed(system)
    if runtime is None:
        runtime = own_runtime or VirtualRuntime(dist.n_subdomains)
    results = runtime.run(
        _pcg_body,
        args=[(dist.blocks[i], dist.rhs[i], dist.row_starts, rtol, maxit,
               precondition) for i in range(dist.n_subdomains)],
        phase=phase)
    x = np.concatenate([r[0] for r in results])
    return x, results[0][1]


def condition_estimate(system, method: str = "lanczos", maxit: int | None = None,
                       seed: int = 0) -> float:
    """Spectral condition number of an SPD matrix.

    ``dense`` computes the exact extreme eigenvalues (capped at n=2000)
    and raises ``NotPositiveDefiniteError`` when the smallest is not
    positive; ``lanczos`` runs an unpreconditioned CG recurrence against
    a seeded random right-hand side and reads the extreme Ritz values off
    the tridiagonal.
    """
    if isinstance(system, DistributedSystem):
        A, _ = system.gather()
    else:
        A = system
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if method == "dense":
        if n > 2000:
            raise ValueError(f"dense estimate limited to n <= 2000, got {n}")
        eig = scipy.linalg.eigvalsh(A.toarray())
        if not eig[0] > 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: smallest eigenvalue "
                f"{float(eig[0])!r}")
        return float(eig[-1] / eig[0])
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    _, report = pcg_jacobi((A, b), rtol=1e-300,
                           maxit=maxit if maxit is not None else n,
                           precondition=False)
    if report.kappa is None:
        raise ValueError("recurrence produced no Ritz values")
    return report.kappa


def _solution_chunks(space, quad, full):
    """Points, weights, u_h and grad(u_h) over the bulk rows of ``quad``
    in chunks: interior cells from their nodal values and the reference
    tables, cut cells point by point."""
    cls = space.classification
    d, h = cls.grid.d, cls.grid.h
    vals_ref, grads_ref = reference_tables(space, quad)
    for cells, rows in quad.interior_chunks(cls.interior_ids):
        nodal = full[space.cell_dofs[cells - 1] - 1]
        rows = rows.ravel()
        yield (quad.points[rows], quad.weights[rows],
               (nodal @ vals_ref.T).ravel(),
               np.einsum("ca,nad->cnd", nodal, grads_ref).reshape(-1, d))
    for cells, rows in quad.cut_chunks(cls.cut_ids):
        nodal = full[space.cell_dofs[cells - 1] - 1]
        pts = quad.points[rows]
        xi = space.reference_coords(cells, pts)
        yield (pts, quad.weights[rows],
               np.einsum("na,na->n", shape_values(space.q, d, xi), nodal),
               np.einsum("nad,na->nd",
                         shape_gradients(space.q, d, xi) / h, nodal))


@dataclass
class ErrorNorms:
    l2: float
    h1_semi: float
    absolute: bool = False   # set when the exact norm vanishes


def error_norms(space, dofs, constraints, quad, interior_values,
                u_exact, grad_exact) -> ErrorNorms:
    """Relative L2 and H1-semi errors of a reduced solution vector.

    The vector is prolongated through the constraints before evaluation
    and the integrals run over the bulk points of the quadrature store,
    in chunks of about ``CHUNK_POINTS``, so only the physical domain
    contributes.  At interior points u_h and its gradient come from the
    cell's nodal values and the fixed reference tables of the shared box
    rule; cut-cell points evaluate the shape functions one by one.  For
    an unconstrained (standard) space pass ``dofs=None`` and the full
    nodal vector.
    """
    if dofs is None:
        full = np.asarray(interior_values, dtype=np.float64)
        if full.shape != (space.n_dofs,):
            raise ValueError("standard-space vector must cover all DOFs")
    else:
        full = prolongate(dofs, constraints, interior_values)
    err2 = errg2 = base2 = baseg2 = 0.0
    for pts, w, uh, gh in _solution_chunks(space, quad, full):
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
