import dataclasses
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from analytic_problems import analytic_problems, infeasible_problem, unbounded_problem
from randamp.sdp import (
    SdpProblem,
    STATUS_CUTOFF,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve,
    verify,
)
from randamp.sdp import (
    CERT_QUALITY,
    CERT_WEAK_QUALITY,
    DIVERGENCE_LIMIT,
    SYMMETRY_TOL,
    _Lifted,
    _farkas_certificate,
    _nt_scaling,
    _scaled_step,
)

BATTERY = analytic_problems()
IDS = [name for name, _, _ in BATTERY]


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_analytic_optimum(name, problem, optimum):
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.objective_value - optimum) <= 1e-6


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_optimal_solution_invariants(name, problem, optimum):
    tol = 1e-8
    report = verify(problem, solve(problem, tol), tol)
    assert report["min_eigenvalue"] >= -tol
    assert report["max_constraint_residual"] <= tol
    # weak duality: the dual bound never undercuts the primal value
    assert report["duality_gap"] >= -tol


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_verify_passes_at_ten_times_tolerance(name, problem, optimum):
    tol = 1e-8
    sol = solve(problem, tol)
    report = verify(problem, sol, 10 * tol)
    assert report["passed"], report


def test_solver_is_deterministic():
    _, problem, _ = BATTERY[2]
    a = solve(problem)
    b = solve(problem)
    assert a.iterations == b.iterations
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.X, b.X)


def test_correlation_extreme_point_is_all_ones():
    _, problem, _ = BATTERY[1]
    sol = solve(problem)
    assert np.allclose(sol.X, np.ones((2, 2)), atol=1e-6)


def test_infeasible_problem_is_flagged_with_certificate():
    sol = solve(infeasible_problem())
    assert sol.status == STATUS_INFEASIBLE
    assert sol.certificate is not None
    assert sol.certificate["kind"] == "primal_infeasible"
    # the dual ray is the real certificate: check it from scratch
    y = sol.certificate["farkas_y"]
    assert sol.certificate["b_dot_y"] > 0
    assert sol.certificate["lambda_max_adjoint"] <= 1e-3


def test_unbounded_problem_is_flagged():
    sol = solve(unbounded_problem())
    assert sol.status == STATUS_UNBOUNDED
    assert sol.certificate is not None
    assert sol.certificate["kind"] == "unbounded"


def test_non_symmetric_inputs_rejected():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SdpProblem(skew, np.zeros((0, 2, 2)), [], ())
    with pytest.raises(ValueError, match="not symmetric"):
        SdpProblem(np.eye(2), np.array([np.eye(2), skew]), [1.0, 1.0], ("eq", "eq"))
    with pytest.raises(ValueError, match="relations"):
        SdpProblem(np.eye(2), np.array([np.eye(2)]), [1.0], ("le",))


def test_constraint_owns_the_symmetrized_matrix():
    """An asymmetry up to SYMMETRY_TOL in either triangle of a constraint
    slice is accepted and averaged away into a fresh array; one beyond
    it is rejected."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    M = M + M.T
    for i, j in ((1, 4), (4, 1)):
        A = np.array([np.eye(6), M])
        A[1, i, j] += 0.9 * SYMMETRY_TOL
        problem = SdpProblem(np.eye(6), A, [1.0, 1.0], ("eq", "leq"))
        assert np.array_equal(problem.constraints, (A + A.transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(problem.constraints[1], problem.constraints[1].T)
        assert not np.shares_memory(problem.constraints, A)
        A[1, i, j] += 0.2 * SYMMETRY_TOL
        with pytest.raises(ValueError, match="not symmetric"):
            SdpProblem(np.eye(6), A, [1.0, 1.0], ("eq", "leq"))


def test_constraint_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        SdpProblem(np.eye(2), np.array([np.eye(3)]), [1.0], ("eq",))
    with pytest.raises(ValueError, match="as many"):
        SdpProblem(np.eye(2), np.array([np.eye(2)]), [1.0, 2.0], ("eq",))
    with pytest.raises(ValueError, match="as many"):
        SdpProblem(np.eye(2), np.array([np.eye(2)]), [1.0], ("eq", "eq"))


def off_diagonal_problem(y_bound=(10.0,)) -> SdpProblem:
    """maximize -tr X subject to X_12 / 5 = 1, optimum -10 at X = 5 [[1, 1],
    [1, 1]].  The dual slack y [[0, 1/10], [1/10, 0]] + I is PSD exactly
    for |y| <= 10, the default y_bound."""
    A = np.array([[[0.0, 0.1], [0.1, 0.0]]])
    return SdpProblem(-np.eye(2), A, [1.0], ("eq",), y_bound)


def charged_objective(problem, X):
    return float(np.sum(problem.C * X)) - float(problem.y_bound @ problem.residuals(X))


def test_cutoff_is_returned_only_once_the_charged_objective_reaches_it():
    """The first iterate, X = I, reads -2 against the optimum -10 with
    residual 1: only a charge of 10 per unit of residual keeps it from
    claiming the false cutoff -9.99 (charging 1 per unit claims it).  A
    true cutoff stops the solve early, at an iterate whose charged
    objective reaches it; a false one leaves the solve as it was."""
    problem = off_diagonal_problem()
    full = solve(problem)
    assert full.status == STATUS_OPTIMAL
    assert abs(full.objective_value + 10.0) <= 1e-6
    cut = solve(problem, cutoff=-10.01)
    assert cut.status == STATUS_CUTOFF
    assert cut.iterations < full.iterations
    assert charged_objective(problem, cut.X) >= -10.01
    kept = solve(problem, cutoff=-9.99)
    assert kept.status == STATUS_OPTIMAL
    assert (kept.iterations, kept.objective_value) == (full.iterations, full.objective_value)
    assert np.array_equal(kept.X, full.X) and np.array_equal(kept.y, full.y)


def test_cutoff_needs_a_y_bound():
    with pytest.raises(ValueError, match="y_bound"):
        solve(dataclasses.replace(off_diagonal_problem(), y_bound=None), cutoff=-20.0)


@pytest.mark.parametrize("y_bound", [[10.0, 10.0], [[10.0]], [-1.0], [np.nan], [np.inf]])
def test_malformed_y_bound_rejected(y_bound):
    with pytest.raises(ValueError, match="y_bound"):
        off_diagonal_problem(y_bound)


def test_residuals_are_one_sided_for_inequalities():
    """<A_k, X> = 2 for every row: an equality misses b by |2 - b|, an
    inequality only on its violated side."""
    problem = SdpProblem(np.eye(2), np.array([np.eye(2)] * 6), [1.0, 3.0, 1.0, 3.0, 1.0, 3.0],
                         ("eq", "eq", "leq", "leq", "geq", "geq"))
    assert problem.residuals(np.eye(2)).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 1.0]


def test_verify_flags_corrupted_solution():
    name, problem, _ = BATTERY[1]
    sol = solve(problem)
    X_bad = sol.X.copy()
    X_bad[0, 0] += 0.1
    report = verify(problem, dataclasses.replace(sol, X=X_bad), 1e-6)
    assert not report["feasible_ok"]
    assert report["max_constraint_residual"] > 0.05
    # the violated constraint is identifiable from the residual list
    assert max(report["constraint_residuals"]) == report["max_constraint_residual"]


def test_verify_feasible_but_suboptimal_has_gap():
    name, problem, optimum = BATTERY[0]
    sol = solve(problem)
    interior = np.diag([0.5, 0.5])
    report = verify(problem, dataclasses.replace(sol, X=interior), 1e-6)
    assert report["feasible_ok"]
    assert not report["optimal_ok"]
    assert report["duality_gap"] > 0.5


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_solve_rejects_tolerance_not_positive_finite(tol):
    _, problem, _ = BATTERY[0]
    with pytest.raises(ValueError, match="positive and finite"):
        solve(problem, tol)


def cholesky_step_bound(M, dM):
    """Largest alpha <= 1 keeping M + alpha*dM >= 0, read from the
    eigenvalues of L^-1 dM L^-T with L = cholesky(M)."""
    L = np.linalg.cholesky(M)
    Y = np.linalg.solve(L, np.linalg.solve(L, dM).T)
    lam_min = np.linalg.eigvalsh((Y + Y.T) / 2.0).min()
    return 1.0 if lam_min >= -1e-14 else min(1.0, -1.0 / lam_min)


SQUARE_TRIPLES = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)) for _ in range(3)))
)


@settings(max_examples=200, deadline=None)
@given(SQUARE_TRIPLES, st.floats(0.1, 10.0))
def test_scaled_step_matches_the_cholesky_step_bound(mats, scale):
    """The step bound read in the Nesterov-Todd scaled space, where both
    iterates are diag(lam), is the bound of X + alpha*dX (Z + alpha*dZ)."""
    B, C, D = mats
    eye = np.eye(len(B))
    X, Z = B @ B.T + eye, C @ C.T + eye
    dM = scale * (D + D.T)
    lam, r, rti = _nt_scaling(np.linalg.cholesky(X), np.linalg.cholesky(Z))
    assert _scaled_step(lam, rti.T @ dM @ rti) == pytest.approx(cholesky_step_bound(X, dM), rel=1e-9, abs=0)
    assert _scaled_step(lam, r.T @ dM @ r) == pytest.approx(cholesky_step_bound(Z, dM), rel=1e-9, abs=0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-2.0, 2.0),
    st.integers(-14, 0),
    st.sampled_from([2.0, 1e3, 2e6]),
)
def test_farkas_check_skips_its_eigensolve_only_without_a_certificate(seed, ratio, mix, scale):
    """The Farkas check skips its eigensolve only when the eigensolve
    would find lambda_max(A*(yhat)) above the certificate threshold.

    The ray y is close to `scale` times the first unit vector, so A*(yhat)
    is close to the first constraint matrix, whose largest eigenvalue is
    `ratio` times the quality the threshold asks for (1e-6, or 1e-3 for a
    ray longer than 1e6) and b.yhat ~ 1.  X is that eigenvector's
    projector plus 10^`mix` times a random PSD matrix, so the lower bound
    <A*(yhat), X> / tr X reaches from far below to just under
    lambda_max."""
    rng = np.random.default_rng(seed)
    n, k = 5, 3
    quality = CERT_WEAK_QUALITY if scale > DIVERGENCE_LIMIT else CERT_QUALITY
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    first = q @ np.diag([ratio * quality, *-rng.uniform(0.1, 1.0, n - 1)]) @ q.T
    rest = rng.normal(size=(k - 1, n, n))
    constraints = np.concatenate([first[None], rest + np.swapaxes(rest, 1, 2)])
    b = np.array([1.0, *rng.normal(size=k - 1)])
    lifted = _Lifted(SdpProblem(np.zeros((n, n)), constraints, b, ("eq",) * k))
    y = scale * (np.eye(k)[0] + 1e-7 * rng.normal(size=k))
    g = rng.normal(size=(n, n))
    X = np.outer(q[:, 0], q[:, 0]) + 10.0 ** mix * g @ g.T
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        certificate = _farkas_certificate(lifted, y, X)
    yhat = y / np.linalg.norm(y)
    adjoint = np.tensordot(yhat, constraints, axes=1)
    threshold = quality * (b @ yhat)
    lam_max = np.linalg.eigvalsh((adjoint + adjoint.T) / 2.0).max()
    assert b @ yhat > 0.0  # past the checks that need no eigenvalue
    if eigvalsh.call_count == 0:
        assert certificate is None
        assert lam_max > threshold
    else:
        assert (certificate is not None) == (lam_max <= threshold)
