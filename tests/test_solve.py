from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from agfem.aggregation import aggregate_serial
from agfem.assembly import assemble_serial, nitsche_tau_agg, poisson_elements
from agfem.fespace import build_constraints_serial, build_std_space, classify_dofs
from agfem.experiments import ExperimentConfig, manufactured_solution
from agfem.geometry import cut_quadrature
from agfem.levelset import Popcorn, Sphere
from agfem.solve import (NotPositiveDefiniteError, condition_estimate,
                         error_norms, pcg_jacobi)

from conftest import all_points_norms, classified, prolongate


def test_identity_converges_immediately():
    A = sp.identity(20, format="csr")
    b = np.arange(1.0, 21.0)
    x, report = pcg_jacobi((A, b), rtol=1e-10)
    assert report.converged and report.iterations == 1
    assert report.reason == "converged"
    assert np.allclose(x, b, atol=1e-14)


def test_diagonal_system_closed_form():
    A = sp.diags([1.0, 100.0]).tocsr()
    b = np.array([1.0, 1.0])
    x, report = pcg_jacobi((A, b), rtol=1e-12)
    assert report.converged
    assert np.allclose(x, [1.0, 0.01], atol=1e-12)
    assert condition_estimate(A) == pytest.approx(100.0)


def test_nonconvergence_is_reported_not_raised():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40))
    A = sp.csr_matrix(M @ M.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    x, report = pcg_jacobi((A, b), rtol=1e-14, maxit=2)
    assert not report.converged and report.iterations == 2
    assert report.reason == "maxit"


def test_zero_rhs():
    A = sp.identity(5, format="csr")
    x, report = pcg_jacobi((A, np.zeros(5)))
    assert report.converged and report.iterations == 0
    assert np.array_equal(x, np.zeros(5))


def test_condition_estimates():
    assert condition_estimate(sp.identity(30, format="csr")) == \
        pytest.approx(1.0)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    assert condition_estimate(A) == pytest.approx(10.0)
    big = sp.identity(2001, format="csr")
    with pytest.raises(ValueError, match="2000"):
        condition_estimate(big)


def test_condition_estimate_rejects_an_indefinite_matrix():
    A = sp.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(ValueError, match="smallest eigenvalue -1.0"):
        condition_estimate(A)


def _circle_system(level, rtol=1e-6, g=None, f=None):
    ls = Sphere((0.5, 0.5), 0.3)
    grid, cls, fa = classified(level, ls)
    rm = aggregate_serial(cls)
    space = build_std_space(cls)
    dofs = classify_dofs(space, cls)
    cons = build_constraints_serial(space, dofs, rm)
    quad = cut_quadrature(grid, ls, cls, 4)
    taus = np.full(cls.n_active, nitsche_tau_agg(float(grid.h[0]), 10.0))
    elements = poisson_elements(cls, quad, taus, f, g)
    A, b = assemble_serial(space, dofs, cons, elements)
    return space, dofs, cons, quad, A, b


def _norms(space, dofs, cons, quad, x, u, gu):
    """Error norms of a reduced vector of the serial reference space."""
    nodal = prolongate(dofs, cons, x)[space.cell_dofs - 1]
    return error_norms(space.classification, quad, nodal, u, gu)


def test_interpolant_has_zero_error():
    u = lambda p: p[:, 0] + p[:, 1]
    gu = lambda p: np.ones_like(p)
    space, dofs, cons, quad, A, b = _circle_system(4, g=u)
    exact = u(space.node_coords[dofs.interior_ids - 1])
    norms = _norms(space, dofs, cons, quad, exact, u, gu)
    assert norms.l2 <= 1e-12 and norms.h1_semi <= 1e-12
    assert not norms.absolute


def test_zero_exact_solution_flags_absolute_norms():
    u = lambda p: np.zeros(p.shape[0])
    gu = lambda p: np.zeros_like(p)
    space, dofs, cons, quad, A, b = _circle_system(3, g=u)
    norms = _norms(space, dofs, cons, quad,
                        np.zeros(dofs.n_interior), u, gu)
    assert norms.absolute
    assert norms.l2 == 0.0


def test_error_tracks_solver_tolerance():
    u = lambda p: p[:, 0] + p[:, 1]
    gu = lambda p: np.ones_like(p)
    space, dofs, cons, quad, A, b = _circle_system(4, g=u)
    x6, rep6 = pcg_jacobi((A, b), rtol=1e-6)
    n6 = _norms(space, dofs, cons, quad, x6, u, gu)
    assert rep6.converged
    assert n6.l2 <= 10 * 1e-6
    x9, rep9 = pcg_jacobi((A, b), rtol=1e-9)
    n9 = _norms(space, dofs, cons, quad, x9, u, gu)
    assert rep9.converged
    assert n9.l2 <= n6.l2 / 100.0


def test_galerkin_consistency_for_in_span_solution():
    u = lambda p: p[:, 0] + p[:, 1]
    space, dofs, cons, quad, A, b = _circle_system(4, g=u)
    xstar = u(space.node_coords[dofs.interior_ids - 1])
    assert np.max(np.abs(A @ xstar - b)) <= 1e-12


def test_breakdown_stops_unconverged():
    # positive diagonal, indefinite: p'Ap = -2 in the first step, and the
    # iteration ends instead of dividing
    A = sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]])
    b = np.array([1.0, -1.0])
    x, report = pcg_jacobi((A, b), rtol=1e-10, maxit=10)
    assert not report.converged and report.reason == "breakdown"
    assert np.all(np.isfinite(x))
    assert np.all(np.isfinite(report.residual_history))


@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_nonfinite_values_stop_with_their_reason(where):
    A = sp.diags([2.0, 1.0, 4.0]).tocsr()
    b = np.array([1.0, 1.0, 1.0])
    if where == "rhs":
        b[1] = np.nan
    else:
        A.data[2] = np.inf
    x, report = pcg_jacobi((A, b), rtol=1e-10, maxit=10)
    assert not report.converged and report.reason == "nonfinite"
    assert report.iterations == 0


@pytest.mark.parametrize("level, ls, d", [
    (6, Sphere((0.5, 0.5), 0.3), 2), (3, Popcorn(), 3)],
    ids=["circle-2d-L6", "popcorn-3d-L3"])
def test_error_norms_match_all_points_oracle(level, ls, d):
    # interior points read u_h off the reference tables; the norms and,
    # with the cut-cell weights zeroed, the interior sums alone must
    # match point-by-point evaluation at every bulk point
    grid, cls, _ = classified(level, ls, d)
    space = build_std_space(cls)
    quad = cut_quadrature(grid, ls, cls, 4)
    u, gu, _ = manufactured_solution(ExperimentConfig(dimension=d,
                                                      solution="sine"))
    full = u(space.node_coords) + 0.01 * np.random.default_rng(5).standard_normal(
        space.n_dofs)
    interior = np.repeat(~cls.is_cut, np.diff(quad.offsets))
    zero, zero_grad = (lambda p: np.zeros(len(p))), np.zeros_like
    for q in (quad, replace(quad, weights=np.where(interior, quad.weights, 0.0))):
        for exact in ((u, gu), (zero, zero_grad)):
            got = error_norms(cls, q, full[space.cell_dofs - 1], *exact)
            want = all_points_norms(space, q, full, *exact)
            assert got.absolute == (exact[0] is zero)
            assert got.l2 == pytest.approx(want[0], rel=1e-13, abs=0)
            assert got.h1_semi == pytest.approx(want[1], rel=1e-13, abs=0)


def test_ritz_values_come_from_one_recurrence_per_solve(monkeypatch):
    # every rank runs the same recurrence; the report is built once, and
    # a row-wise split of the system gives the one-block report exactly
    import agfem.solve as solve
    from agfem.assembly import DistributedSystem

    rng = np.random.default_rng(1)
    M = rng.standard_normal((24, 24))
    A = sp.csr_matrix(M @ M.T + 24 * np.eye(24))
    b = rng.standard_normal(24)
    starts = np.array([1, 7, 13, 19, 25])
    split = DistributedSystem(
        n_global=24, row_starts=starts,
        blocks=[A[i - 1:j - 1] for i, j in zip(starts[:-1], starts[1:])],
        rhs=[b[i - 1:j - 1] for i, j in zip(starts[:-1], starts[1:])],
        staged_counts=[0] * 4)
    calls = []
    ritz = solve._ritz_from_recurrence
    monkeypatch.setattr(solve, "_ritz_from_recurrence",
                        lambda *args: calls.append(1) or ritz(*args))
    x4, report4 = pcg_jacobi(split, rtol=1e-10)
    assert len(calls) == 1
    x1, report1 = pcg_jacobi((A, b), rtol=1e-10)
    assert report4 == report1 and report4.kappa is not None
    assert x4.tobytes() == x1.tobytes()


def test_a_non_positive_diagonal_is_not_positive_definite():
    A = sp.diags([1.0, 0.0, 2.0]).tocsr()
    with pytest.raises(NotPositiveDefiniteError, match="positive diagonal"):
        pcg_jacobi((A, np.ones(3)))
