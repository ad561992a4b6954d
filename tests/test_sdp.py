import dataclasses
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from analytic_problems import analytic_problems, infeasible_problem, unbounded_problem
from randamp import sdp
from randamp.sdp import (
    SdpProblem,
    STATUS_CUTOFF,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve,
    solve_stack,
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
    _step_bounds,
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
    # the ray is the dense lifted matrix, unit Frobenius norm
    assert sol.certificate["ray"].shape == (2, 2)
    assert np.linalg.norm(sol.certificate["ray"]) == pytest.approx(1.0)


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


def test_each_problem_of_a_stack_ends_as_it_does_alone():
    """The analytic battery solved as one stack: its problems hold 1 to 6
    constraints in block layouts from one 5x5 slot to four 1x1 slots, so
    each is padded to 6 constraint rows and four 5x5 slots, yet each ends
    with the status and iteration count of its own solve, at a value
    within 10 tol of it."""
    tol = 1e-8
    problems = [problem for _, problem, _ in BATTERY]
    for problem, stacked in zip(problems, solve_stack(problems, tol)):
        alone = solve(problem, tol)
        assert (stacked.status, stacked.iterations) == (alone.status, alone.iterations)
        assert abs(stacked.objective_value - alone.objective_value) <= 10 * tol


def test_a_mixed_stack_returns_each_problem_its_own_certificate():
    """An infeasible, an unbounded, a cut and an optimal problem in one
    stack each leave it on their own iteration, with the status and
    certificate kind of their own solves."""
    problems = [infeasible_problem(), unbounded_problem(), off_diagonal_problem(), BATTERY[2][1]]
    cutoffs = [None, None, -10.01, None]
    stacked = solve_stack(problems, cutoffs=cutoffs)
    assert [s.status for s in stacked] == [STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_CUTOFF, STATUS_OPTIMAL]
    for problem, cutoff, s in zip(problems, cutoffs, stacked):
        alone = solve(problem, cutoff=cutoff)
        assert (s.status, s.iterations) == (alone.status, alone.iterations)
        assert (s.certificate or {}).get("kind") == (alone.certificate or {}).get("kind")


def test_stack_arguments_are_checked():
    problem = off_diagonal_problem()
    assert solve_stack([]) == []
    with pytest.raises(ValueError, match="as many cutoffs"):
        solve_stack([problem, problem], cutoffs=[-20.0])
    with pytest.raises(ValueError, match="y_bound"):
        solve_stack([problem, dataclasses.replace(problem, y_bound=None)], cutoffs=[None, -20.0])


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
    # a stack of one problem of one block
    lam, r, rti = _nt_scaling(np.linalg.cholesky(X)[None, None], np.linalg.cholesky(Z)[None, None])
    r, rti = r[0, 0], rti[0, 0]
    (ap,), (ad,) = _step_bounds(lam, np.array([[[rti.T @ dM @ rti]], [[r.T @ dM @ r]]]))
    assert ap == pytest.approx(cholesky_step_bound(X, dM), rel=1e-9, abs=0)
    assert ad == pytest.approx(cholesky_step_bound(Z, dM), rel=1e-9, abs=0)


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
        certificate = _farkas_certificate(lifted, y, lifted.stack(X), float(np.linalg.norm(y)))
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


BLOCKS = ([0, 1, 2], [3, 4], [5, 6])


def block_diagonal_problem(perm=None) -> SdpProblem:
    """maximize <C, X> over blocks of 3, 2 and 2 rows with traces 1, 2 and
    1/2, X[0, 0] >= 0.9 (a geq row) and X[3, 4] = 0.3, with rows and
    columns permuted by `perm` when given: row i is row perm[i] of the
    unpermuted form."""
    rng = np.random.default_rng(7)
    C = np.zeros((7, 7))
    constraints, b = [], []
    for block, trace in zip(BLOCKS, (1.0, 2.0, 0.5)):
        G = rng.normal(size=(len(block), len(block)))
        C[np.ix_(block, block)] = G + G.T
        A = np.zeros((7, 7))
        A[block, block] = 1.0
        constraints.append(A)
        b.append(trace)
    corner, coupling = np.zeros((7, 7)), np.zeros((7, 7))
    corner[0, 0] = 1.0
    coupling[3, 4] = coupling[4, 3] = 0.5
    constraints += [corner, coupling]
    b += [0.9, 0.3]
    A = np.array(constraints)
    if perm is not None:
        C, A = C[np.ix_(perm, perm)], A[:, perm][:, :, perm]
    return SdpProblem(C, A, b, ("eq", "eq", "eq", "geq", "eq"))


def test_block_diagonal_problem_solves_as_a_stack():
    """A problem block-diagonal up to a permutation of its rows runs as a
    stack of three 3x3 slots, the geq row's 1x1 slack sharing the slot of
    a 2-block.  It reaches the optimum of its unpermuted form, its
    solution passes `verify`, and its X is exactly 0 off the blocks."""
    perm = np.random.default_rng(3).permutation(7)
    plain, permuted = block_diagonal_problem(), block_diagonal_problem(perm)
    lifted = _Lifted(permuted)
    assert sorted(np.bincount(lifted.block_of)) == [1, 2, 2, 3]
    assert lifted.mask.shape == (3, 3, 3)
    reference, sol = solve(plain), solve(permuted)
    assert reference.status == sol.status == STATUS_OPTIMAL
    assert sol.objective_value == pytest.approx(reference.objective_value, abs=1e-7)
    assert verify(permuted, sol, 1e-7)["passed"]
    block = np.repeat([0, 1, 2], [3, 2, 2])[perm]
    off = block[:, None] != block[None, :]
    assert np.count_nonzero(sol.X[off]) == 0
    assert np.allclose(sol.X, reference.X[np.ix_(perm, perm)], atol=1e-6)


def test_iterates_hold_pad_rows_at_the_identity(monkeypatch):
    """Every iterate the solver factors, X's and Z's, is the identity on
    its pad rows and exactly 0 between blocks: each direction is masked."""
    iterates = []

    def recorded(M, L, dM, alpha):
        step = cholesky_step(M, L, dM, alpha)
        iterates.append(step[1])
        return step

    cholesky_step = sdp._cholesky_step
    monkeypatch.setattr(sdp, "_cholesky_step", recorded)
    problem = block_diagonal_problem(np.random.default_rng(3).permutation(7))
    lifted = _Lifted(problem)
    assert not lifted.real.all()
    assert solve(problem).status == STATUS_OPTIMAL
    assert len(iterates) > 10
    for M in iterates:  # stacks of one problem
        assert np.array_equal(M[0] * (1.0 - lifted.mask), lifted.pad)


def test_farkas_eigenvalue_of_a_block_problem_sees_no_pad():
    """No PSD X has negative trace on a block: tr = -1 on rows {0, 2, 4}
    and on rows {1, 3}, each block coupled by C.  The 2-block's slot
    holds a pad row, yet lambda_max_adjoint is the dense eigvalsh maximum
    of A*(yhat), which is negative, where a pad's eigenvalue would read 0."""
    C = np.eye(5)
    for i, j in ((0, 2), (2, 4), (1, 3)):
        C[i, j] = C[j, i] = 0.5
    A = np.zeros((2, 5, 5))
    A[0, [0, 2, 4], [0, 2, 4]] = 1.0
    A[1, [1, 3], [1, 3]] = 1.0
    problem = SdpProblem(C, A, [-1.0, -1.0], ("eq", "eq"))
    assert not _Lifted(problem).real.all()
    sol = solve(problem)
    assert sol.status == STATUS_INFEASIBLE
    dense = np.linalg.eigvalsh(np.tensordot(sol.certificate["farkas_y"], A, axes=1)).max()
    assert dense < 0.0
    assert sol.certificate["lambda_max_adjoint"] == pytest.approx(dense, rel=1e-12)


def test_a_block_and_a_slack_share_one_slot_rather_than_double():
    """Two 4x4 slots for a 4-block and the 1x1 slack of a geq row would
    hold more entries than the 5x5 lifted matrix, so it stays one slot
    with no pad."""
    problem = SdpProblem(np.ones((4, 4)), np.array([np.eye(4)]), [1.0], ("geq",))
    lifted = _Lifted(problem)
    assert sorted(np.bincount(lifted.block_of)) == [1, 4]
    assert lifted.mask.shape == (1, 5, 5) and lifted.real.all()
