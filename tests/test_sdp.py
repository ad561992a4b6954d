import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from analytic_problems import analytic_problems, infeasible_problem, unbounded_problem
from randamp.sdp import (
    Constraint,
    SdpProblem,
    SolverSettings,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve,
    verify,
)
from randamp.sdp import SYMMETRY_TOL, _nt_scaling, _scaled_step

BATTERY = analytic_problems()
IDS = [name for name, _, _ in BATTERY]


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_analytic_optimum(name, problem, optimum):
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.objective_value - optimum) <= 1e-6


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_optimal_solution_invariants(name, problem, optimum):
    settings = SolverSettings(tolerance=1e-8)
    sol = solve(problem, settings)
    assert sol.min_eigenvalue >= -settings.tolerance
    assert sol.max_constraint_residual <= settings.tolerance
    # weak duality: the dual bound never undercuts the primal value
    assert sol.duality_gap >= -settings.tolerance


@pytest.mark.parametrize("name,problem,optimum", BATTERY, ids=IDS)
def test_verify_passes_at_ten_times_tolerance(name, problem, optimum):
    settings = SolverSettings(tolerance=1e-8)
    sol = solve(problem, settings)
    report = verify(problem, sol, 10 * settings.tolerance)
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
    with pytest.raises(ValueError):
        SdpProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), ())
    with pytest.raises(ValueError):
        Constraint(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, "eq")
    with pytest.raises(ValueError):
        Constraint(np.eye(2), 1.0, "le")


def test_constraint_owns_the_symmetrized_matrix():
    """An asymmetry up to SYMMETRY_TOL in either triangle is accepted and
    averaged away into a fresh array; one beyond it is rejected."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    M = M + M.T
    for i, j in ((1, 4), (4, 1)):
        A = M.copy()
        A[i, j] += 0.9 * SYMMETRY_TOL
        con = Constraint(A, 1.0, "eq")
        assert np.array_equal(con.A, (A + A.T) / 2.0)
        assert np.array_equal(con.A, con.A.T)
        assert not np.shares_memory(con.A, A)
        A[i, j] += 0.2 * SYMMETRY_TOL
        with pytest.raises(ValueError, match="not symmetric"):
            Constraint(A, 1.0, "eq")


def test_constraint_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SdpProblem(np.eye(2), (Constraint(np.eye(3), 1.0, "eq"),))


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


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=0)


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
