"""Dense primal-dual interior-point solver for small semidefinite programs.

Problems are stated in maximization form over a symmetric PSD variable:

    maximize    <C, X>
    subject to  <A_k, X>  (=, >=, <=)  b_k      for each constraint k
                X >= 0  (positive semidefinite)

Internally the problem is converted to a standard-form minimization with
inequality slacks lifted into extra diagonal entries of one big PSD
block, then solved with Nesterov-Todd scaled Newton steps and a
Mehrotra predictor-corrector.  Step lengths are read in the scaled
space, where both iterates are diag(lam), from one eigenvalue problem
per direction; each step is then shortened until the new iterates pass
a plain Cholesky, and the centering target never drops below what the
gap tolerance needs.  A caller that only needs to know whether the
optimum reaches some value can pass it as a `cutoff`: the solve then
ends at the first iterate whose objective, less a charge for its
residuals, proves it does.  Everything is dense double precision;
intended scale is matrix dimension <= ~40 with <= ~100 constraints.

The solver is deterministic: no randomness, no warm starts, fixed
iteration logic, so identical inputs give identical outputs under one
BLAS configuration.  Its thread count changes the rounding, which moves
results within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SYMMETRY_TOL = 1e-12

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_CUTOFF = "cutoff"

RELATIONS = ("eq", "geq", "leq")

# Divergence/certificate thresholds (module-wide so behavior is stable).
DIVERGENCE_LIMIT = 1e6
HARD_DIVERGENCE_LIMIT = 1e9
CERT_QUALITY = 1e-6
CERT_WEAK_QUALITY = 1e-3

# The default relative gap and residual tolerance of `solve`, the one
# default of every bound, plan and command, and its iteration cap.
TOLERANCE = 1e-8
MAX_ITERATIONS = 200


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _check_symmetric(M: np.ndarray, what: str) -> np.ndarray:
    """M, or each matrix of a stack M, symmetrized into a fresh array."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    MT = np.swapaxes(M, -1, -2)
    # M - M.T holds -d wherever it holds d, so its max is its largest |d|
    out = M - MT
    if out.max(initial=0.0) > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric within {SYMMETRY_TOL}")
    np.add(M, MT, out=out)
    out *= 0.5  # equals (M + M.T) / 2 bit for bit: halving is exact
    return out


@dataclass(frozen=True)
class SdpProblem:
    """Maximize <C, X> over PSD X subject to <A_k, X> relations[k] b[k],
    with the A_k stacked as `constraints`, shape (K, m, m).

    `y_bound`, when given, is a vector w with |y_k| <= w_k for every
    dual-feasible y (sum_k y_k A_k - C PSD, with the relations' signs).
    For PSD X it turns the primal objective into a lower bound on the
    dual objective that charges the residuals r = residuals(X):
    <sum_k y_k A_k - C, X> >= 0 gives b.y >= <C, X> - sum_k w_k r_k, and
    `solve` uses it to stop at a `cutoff`."""

    C: np.ndarray
    constraints: np.ndarray
    b: np.ndarray
    relations: tuple[str, ...]
    y_bound: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        C = _check_symmetric(self.C, "objective matrix")
        A = _check_symmetric(self.constraints, "constraint matrices")
        b = np.asarray(self.b, dtype=float)
        relations = tuple(self.relations)
        m = C.shape[0]
        if A.ndim != 3 or A.shape[1:] != (m, m):
            raise ValueError(f"constraints have shape {A.shape}, expected (K, {m}, {m})")
        if b.shape != (len(A),) or len(relations) != len(A):
            raise ValueError(f"{len(A)} constraints need as many b and relations, "
                             f"got {b.shape} and {len(relations)}")
        bad = set(relations) - set(RELATIONS)
        if bad:
            raise ValueError(f"relations must be among {RELATIONS}, got {sorted(bad)}")
        if self.y_bound is not None:
            w = np.asarray(self.y_bound, dtype=float)
            if w.shape != b.shape or not (np.isfinite(w) & (w >= 0)).all():
                raise ValueError(f"y_bound must hold {len(b)} finite nonnegative entries")
            object.__setattr__(self, "y_bound", w)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "constraints", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "relations", relations)

    @property
    def dimension(self) -> int:
        return self.C.shape[0]

    def residuals(self, X: np.ndarray) -> np.ndarray:
        """Violation of each constraint at X (0 where satisfied)."""
        d = np.tensordot(self.constraints, X, axes=2) - self.b
        rel = np.array(self.relations, dtype=str)
        return np.where(rel == "eq", np.abs(d), np.maximum(np.where(rel == "leq", d, -d), 0.0))


@dataclass(frozen=True)
class SdpSolution:
    X: np.ndarray
    objective_value: float
    status: str
    duality_gap: float
    y: np.ndarray
    iterations: int
    certificate: Optional[dict] = None


class _Lifted:
    """Standard-form lift: min <C0, Xh>, <Ah_k, Xh> = b_k, Xh >= 0.

    Slack for each inequality occupies one extra diagonal entry:
    geq rows get coefficient -1 (surplus), leq rows +1 (slack).
    """

    def __init__(self, problem: SdpProblem):
        m = problem.dimension
        ineq = [k for k, rel in enumerate(problem.relations) if rel != "eq"]
        self.nhat = m + len(ineq)
        self.K = len(problem.b)
        self.b = problem.b

        self.C0 = np.zeros((self.nhat, self.nhat))
        self.C0[:m, :m] = -problem.C

        self.A = np.zeros((self.K, self.nhat, self.nhat))
        self.A[:, :m, :m] = problem.constraints
        for j, k in enumerate(ineq):
            self.A[k, m + j, m + j] = -1.0 if problem.relations[k] == "geq" else 1.0

        self.A_flat = self.A.reshape(self.K, self.nhat * self.nhat)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.A_flat @ X.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return (y @ self.A_flat).reshape(self.nhat, self.nhat)


def _chol_psd(M: np.ndarray) -> Optional[np.ndarray]:
    """Cholesky of the Schur complement with escalating jitter; None if hopeless."""
    scale = max(1.0, float(np.trace(M)) / max(1, M.shape[0]))
    for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(M + jitter * scale * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            continue
    return None


def _nt_scaling(Lx: np.ndarray, Lz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling of X = Lx Lx^T and Z = Lz Lz^T: lam, r and
    rti = r^-T with r^-1 X r^-T = r^T Z r = diag(lam)."""
    U, lam, Vt = np.linalg.svd(Lz.T @ Lx)
    lam = np.maximum(lam, 1e-300)
    sql = np.sqrt(lam)
    return lam, Lx @ Vt.T / sql, Lz @ U / sql


def _scaled_step(lam: np.ndarray, D: np.ndarray) -> float:
    """Largest alpha <= 1 keeping diag(lam) + alpha*D >= 0.

    With D the direction in the scaled space (rti^T dX rti for X,
    r^T dZ r for Z), this is the step bound of X + alpha*dX (Z + alpha*dZ),
    read without factoring either iterate."""
    sql = np.sqrt(lam)
    lam_min = float(np.linalg.eigvalsh(_sym(D / np.outer(sql, sql))).min())
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam_min)


def _cholesky_step(
    M: np.ndarray, L: np.ndarray, dM: np.ndarray, alpha: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Shrink alpha by 0.8 until M + alpha*dM passes a plain Cholesky.

    Returns the step, the new iterate and its factor, which the next
    iteration reuses; a step that never passes is 0, with M and L kept.
    The eigenvalue step bound of `_scaled_step` can admit an iterate that
    is PSD only within rounding, which could not be factored at all."""
    while alpha > 1e-10:
        M_next = M + alpha * dM
        try:
            return alpha, M_next, np.linalg.cholesky(M_next)
        except np.linalg.LinAlgError:
            alpha *= 0.8
    return 0.0, M, L


def _farkas_certificate(lifted: _Lifted, y: np.ndarray, X: np.ndarray) -> Optional[dict]:
    """Normalized dual ray proving primal infeasibility, if y encodes one.

    A vector y with A*(y) <= 0 and b.y > 0 certifies that no PSD Xh can
    satisfy A(Xh) = b.  Quality is judged by lambda_max(A*(yhat))
    relative to b.yhat on the normalized ray.

    The eigensolve is skipped when the PSD iterate X rules a certificate
    out: <A*(yhat), X> <= lambda_max(A*(yhat)) tr X, so a lower bound
    above the threshold by more than 1e-9 ||A*(yhat)||_F, far more than
    the rounding of the bound or of the eigenvalue, leaves lambda_max
    above it too.
    """
    ynorm = float(np.linalg.norm(y))
    if ynorm < 1.0:
        return None
    yhat = y / ynorm
    by = float(lifted.b @ yhat)
    if by <= 0.0:
        return None
    adjoint = _sym(lifted.adjoint(yhat))
    threshold = (CERT_WEAK_QUALITY if ynorm > DIVERGENCE_LIMIT else CERT_QUALITY) * by
    lower = float(np.sum(adjoint * X)) / float(np.trace(X))
    if lower - threshold > 1e-9 * float(np.linalg.norm(adjoint)):
        return None
    lam_max = float(np.linalg.eigvalsh(adjoint).max())
    if lam_max <= CERT_QUALITY * by:
        return {
            "kind": "primal_infeasible",
            "farkas_y": yhat,
            "b_dot_y": by,
            "lambda_max_adjoint": lam_max,
        }
    if ynorm > DIVERGENCE_LIMIT and lam_max <= CERT_WEAK_QUALITY * by:
        return {
            "kind": "primal_infeasible",
            "farkas_y": yhat,
            "b_dot_y": by,
            "lambda_max_adjoint": lam_max,
            "weak": True,
        }
    return None


def _unbounded_certificate(lifted: _Lifted, X: np.ndarray) -> Optional[dict]:
    """Normalized improving ray proving the objective is unbounded."""
    xnorm = float(np.linalg.norm(X))
    if xnorm < DIVERGENCE_LIMIT:
        return None
    Xhat = X / xnorm
    cx = float(np.sum(lifted.C0 * Xhat))
    ax = float(np.max(np.abs(lifted.apply(Xhat)))) if lifted.K else 0.0
    if cx < -CERT_WEAK_QUALITY and ax <= CERT_WEAK_QUALITY * abs(cx):
        return {"kind": "unbounded", "ray": Xhat, "objective_rate": -cx, "residual_rate": ax}
    return None


def solve(problem: SdpProblem, tol: float = TOLERANCE, cutoff: Optional[float] = None) -> SdpSolution:
    """Solve the SDP to relative gap and residuals of at most `tol`, a
    positive finite float; see module docstring for the algorithm
    outline.

    With a `cutoff` (which needs `problem.y_bound`), the solve also stops,
    with STATUS_CUTOFF, at the first iterate X that is not optimal yet
    whose charged objective <C, X> - sum_k y_bound_k |r_k| reaches the
    cutoff, r being its residuals in the slack-lifted form (for an
    equality-only problem, `residuals(X)`): then b.y >= cutoff for every
    dual-feasible y (see `SdpProblem`), and that X is returned.  It is
    PSD only up to the rounding of the plain Cholesky factorization it
    passed, so a cutoff is not a rigorous certificate."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"solver tolerance must be positive and finite, got {tol}")
    if cutoff is not None and problem.y_bound is None:
        raise ValueError("a cutoff needs the problem's y_bound")
    lifted = _Lifted(problem)
    nhat, K = lifted.nhat, lifted.K
    eye = np.eye(nhat)

    b_scale = max(1.0, float(np.max(np.abs(lifted.b))) if K else 1.0)
    c_scale = max(1.0, float(np.linalg.norm(lifted.C0)))
    X = b_scale * eye.copy()
    Z = max(1.0, c_scale / np.sqrt(nhat)) * eye.copy()
    Lx, Lz = np.linalg.cholesky(X), np.linalg.cholesky(Z)
    y = np.zeros(K)
    # Buffers of the Schur build: fresh (K, nhat, nhat) products on every
    # iteration cost more in page faults than in arithmetic.
    WA, WAW = np.empty_like(lifted.A), np.empty_like(lifted.A)

    status = STATUS_MAX_ITERATIONS
    certificate: Optional[dict] = None
    iterations = 0
    best_merit = np.inf
    best_X, best_y = X, y

    for it in range(MAX_ITERATIONS):
        iterations = it + 1
        r_p = lifted.b - lifted.apply(X)
        R_d = lifted.C0 - lifted.adjoint(y) - Z
        gap = float(np.sum(X * Z))
        mu = gap / nhat

        obj = float(np.sum(lifted.C0 * X))
        rel_gap = gap / max(1.0, abs(obj))
        pinf = (float(np.max(np.abs(r_p))) if K else 0.0) / b_scale
        dinf = float(np.linalg.norm(R_d)) / c_scale

        merit = max(rel_gap, pinf, dinf)
        if merit < best_merit:
            best_merit = merit
            best_X, best_y = X.copy(), y.copy()

        if rel_gap <= tol and pinf <= tol and dinf <= tol:
            status = STATUS_OPTIMAL
            break
        if cutoff is not None and -obj - float(problem.y_bound @ np.abs(r_p)) >= cutoff:
            status = STATUS_CUTOFF
            break

        cert = _farkas_certificate(lifted, y, X)
        if cert is not None:
            status = STATUS_INFEASIBLE
            certificate = cert
            break
        cert = _unbounded_certificate(lifted, X)
        if cert is not None:
            status = STATUS_UNBOUNDED
            certificate = cert
            break
        if float(np.linalg.norm(y)) > HARD_DIVERGENCE_LIMIT or float(np.linalg.norm(X)) > HARD_DIVERGENCE_LIMIT:
            status = STATUS_MAX_ITERATIONS
            certificate = {"kind": "divergence", "norm_y": float(np.linalg.norm(y)), "norm_X": float(np.linalg.norm(X))}
            break

        # Nesterov-Todd scaling point: r diag(lam) r^T = X, r^-T lam r^-1 = Z.
        lam, r_mat, rti = _nt_scaling(Lx, Lz)
        W = r_mat @ r_mat.T

        # Schur complement S[i,j] = <A_i, W A_j W>, shared by both passes.
        np.matmul(np.matmul(W, lifted.A, out=WA), W, out=WAW)
        S = lifted.A_flat @ WAW.reshape(K, nhat * nhat).T
        LS = _chol_psd(_sym(S)) if K else None
        if K and LS is None:
            certificate = {"kind": "schur_breakdown"}
            break

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            if not K:
                return np.zeros(0)
            t = np.linalg.solve(LS, rhs)
            return np.linalg.solve(LS.T, t)

        A_WRdW = lifted.apply(W @ R_d @ W)

        # Affine pass: target residual -Lam^2 collapses X_c to -X exactly.
        rhs_aff = r_p - lifted.apply(-X) + A_WRdW
        dy_aff = schur_solve(rhs_aff)
        dZ_aff = _sym(R_d - lifted.adjoint(dy_aff))
        dX_aff = _sym(-X - W @ dZ_aff @ W)

        # Directions in the scaled space, for the step bounds and the corrector.
        DX_aff = rti.T @ dX_aff @ rti
        DZ_aff = r_mat.T @ dZ_aff @ r_mat
        ap_aff = _scaled_step(lam, DX_aff)
        ad_aff = _scaled_step(lam, DZ_aff)
        mu_aff = float(np.sum((X + ap_aff * dX_aff) * (Z + ad_aff * dZ_aff))) / nhat
        # Aim no lower than half the complementarity the gap tolerance
        # allows: a smaller mu only grows the scaling W, and the rounding
        # error of the Schur solve, ~eps*||S||*|dy| with ||S|| ~ ||W||^2,
        # then keeps the primal residual above the tolerance.
        mu_floor = 0.5 * tol * max(1.0, abs(obj)) / nhat
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, mu_floor / mu)) if mu > 0 else 0.0

        # Corrector pass reuses the Schur factorization.
        Rc = sigma * mu * eye - np.diag(lam * lam) - _sym(DX_aff @ DZ_aff)
        Hinv = 2.0 * Rc / np.add.outer(lam, lam)
        X_c = _sym(r_mat @ Hinv @ r_mat.T)

        rhs = r_p - lifted.apply(X_c) + A_WRdW
        dy = schur_solve(rhs)
        dZ = _sym(R_d - lifted.adjoint(dy))
        dX = _sym(X_c - W @ dZ @ W)

        frac = 0.98
        ap_max = _scaled_step(lam, rti.T @ dX @ rti)
        ad_max = _scaled_step(lam, r_mat.T @ dZ @ r_mat)
        ap, X_next, Lx_next = _cholesky_step(X, Lx, dX, min(1.0, frac * ap_max))
        ad, Z_next, Lz_next = _cholesky_step(Z, Lz, dZ, min(1.0, frac * ad_max))
        if ap < 1e-10 and ad < 1e-10:
            certificate = {"kind": "stalled", "mu": mu}
            break

        X, Lx = X_next, Lx_next
        y = y + ad * dy
        Z, Lz = Z_next, Lz_next

    if status in (STATUS_OPTIMAL, STATUS_CUTOFF):
        best_X, best_y = X, y
    return _build_solution(problem, best_X, best_y, status, iterations, certificate)


def _build_solution(
    problem: SdpProblem,
    Xh: np.ndarray,
    y_internal: np.ndarray,
    status: str,
    iterations: int,
    certificate: Optional[dict],
) -> SdpSolution:
    m = problem.dimension
    X = _sym(Xh[:m, :m])
    obj = float(np.sum(problem.C * X))
    y = -y_internal
    gap = float(problem.b @ y - obj) if len(problem.b) else -obj
    return SdpSolution(
        X=X,
        objective_value=obj,
        status=status,
        duality_gap=gap,
        y=y,
        iterations=iterations,
        certificate=certificate,
    )


def verify(problem: SdpProblem, solution: SdpSolution, tol: float) -> dict:
    """Recompute all certificates of optimality from scratch.

    Returns a residual report; `feasible_ok` covers primal feasibility
    of solution.X, `optimal_ok` additionally checks dual feasibility,
    dual sign conditions and the duality gap, `passed` is their
    conjunction.  Never consults solver internals.
    """
    X = _sym(np.asarray(solution.X, dtype=float))
    residuals = problem.residuals(X)
    min_eig = float(np.linalg.eigvalsh(X).min()) if problem.dimension else 0.0
    max_res = float(residuals.max(initial=0.0))
    feasible_ok = min_eig >= -tol and max_res <= tol

    y = np.asarray(solution.y, dtype=float)
    rel = np.array(problem.relations, dtype=str)
    # a leq row needs y >= 0, a geq row y <= 0
    sign_violation = float(np.max(np.where(rel == "leq", -y, np.where(rel == "geq", y, 0.0)), initial=0.0))
    Z = _sym(np.tensordot(y, problem.constraints, axes=1) - problem.C)
    dual_slack_min_eig = float(np.linalg.eigvalsh(Z).min()) if problem.dimension else 0.0
    obj = float(np.sum(problem.C * X))
    gap = float(problem.b @ y - obj) if len(problem.b) else -obj
    optimal_ok = (
        feasible_ok
        and dual_slack_min_eig >= -tol
        and sign_violation <= tol
        and abs(gap) <= tol
    )
    return {
        "min_eigenvalue": min_eig,
        "constraint_residuals": residuals.tolist(),
        "max_constraint_residual": max_res,
        "objective_value": obj,
        "duality_gap": gap,
        "dual_slack_min_eigenvalue": dual_slack_min_eig,
        "dual_sign_violation": sign_violation,
        "feasible_ok": bool(feasible_ok),
        "optimal_ok": bool(optimal_ok),
        "passed": bool(feasible_ok and optimal_ok),
    }
