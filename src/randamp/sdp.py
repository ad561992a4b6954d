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
gap tolerance needs.  Everything is dense double precision;
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

RELATIONS = ("eq", "geq", "leq")

# Divergence/certificate thresholds (module-wide so behavior is stable).
DIVERGENCE_LIMIT = 1e6
HARD_DIVERGENCE_LIMIT = 1e9
CERT_QUALITY = 1e-6
CERT_WEAK_QUALITY = 1e-3


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _check_symmetric(M: np.ndarray, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {M.shape}")
    # M - M.T holds -d wherever it holds d, so its max is its largest |d|
    out = M - M.T
    if out.max() > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric within {SYMMETRY_TOL}")
    np.add(M, M.T, out=out)
    out *= 0.5  # equals (M + M.T) / 2 bit for bit: halving is exact
    return out


@dataclass(frozen=True)
class Constraint:
    """Single affine constraint <A, X> relation b."""

    A: np.ndarray
    b: float
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "A", _check_symmetric(self.A, "constraint matrix"))
        object.__setattr__(self, "b", float(self.b))

    def residual(self, X: np.ndarray) -> float:
        """Violation of this constraint at X (0 when satisfied)."""
        v = float(np.sum(self.A * X))
        if self.relation == "eq":
            return abs(v - self.b)
        if self.relation == "geq":
            return max(0.0, self.b - v)
        return max(0.0, v - self.b)


@dataclass(frozen=True)
class SdpProblem:
    """Maximize <C, X> over PSD X subject to affine constraints."""

    C: np.ndarray
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        C = _check_symmetric(self.C, "objective matrix")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        m = C.shape[0]
        for k, con in enumerate(self.constraints):
            if con.A.shape != (m, m):
                raise ValueError(f"constraint {k} has shape {con.A.shape}, expected {(m, m)}")

    @property
    def dimension(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SdpSolution:
    X: np.ndarray
    objective_value: float
    status: str
    duality_gap: float
    min_eigenvalue: float
    max_constraint_residual: float
    y: np.ndarray
    Z_dual: np.ndarray
    iterations: int
    certificate: Optional[dict] = None


class _Lifted:
    """Standard-form lift: min <C0, Xh>, <Ah_k, Xh> = b_k, Xh >= 0.

    Slack for each inequality occupies one extra diagonal entry:
    geq rows get coefficient -1 (surplus), leq rows +1 (slack).
    """

    def __init__(self, problem: SdpProblem):
        m = problem.dimension
        ineq = [k for k, c in enumerate(problem.constraints) if c.relation != "eq"]
        self.m = m
        self.nhat = m + len(ineq)
        self.K = len(problem.constraints)
        slack_of = {k: m + j for j, k in enumerate(ineq)}

        self.C0 = np.zeros((self.nhat, self.nhat))
        self.C0[:m, :m] = -problem.C

        self.A = np.zeros((self.K, self.nhat, self.nhat))
        self.b = np.zeros(self.K)
        for k, con in enumerate(problem.constraints):
            self.A[k, :m, :m] = con.A
            self.b[k] = con.b
            if con.relation == "geq":
                self.A[k, slack_of[k], slack_of[k]] = -1.0
            elif con.relation == "leq":
                self.A[k, slack_of[k], slack_of[k]] = 1.0

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


def _farkas_certificate(lifted: _Lifted, y: np.ndarray) -> Optional[dict]:
    """Normalized dual ray proving primal infeasibility, if y encodes one.

    A vector y with A*(y) <= 0 and b.y > 0 certifies that no PSD Xh can
    satisfy A(Xh) = b.  Quality is judged by lambda_max(A*(yhat))
    relative to b.yhat on the normalized ray.
    """
    ynorm = float(np.linalg.norm(y))
    if ynorm < 1.0:
        return None
    yhat = y / ynorm
    by = float(lifted.b @ yhat)
    if by <= 0.0:
        return None
    lam_max = float(np.linalg.eigvalsh(_sym(lifted.adjoint(yhat))).max())
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


def solve(problem: SdpProblem, settings: SolverSettings = SolverSettings()) -> SdpSolution:
    """Solve the SDP; see module docstring for the algorithm outline."""
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

    for it in range(settings.max_iterations):
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

        if rel_gap <= settings.tolerance and pinf <= settings.tolerance and dinf <= settings.tolerance:
            status = STATUS_OPTIMAL
            break

        cert = _farkas_certificate(lifted, y)
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
        mu_floor = 0.5 * settings.tolerance * max(1.0, abs(obj)) / nhat
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

    if status == STATUS_OPTIMAL:
        best_X, best_y = X, y
    return _build_solution(problem, lifted, best_X, best_y, status, iterations, certificate)


def _build_solution(
    problem: SdpProblem,
    lifted: _Lifted,
    Xh: np.ndarray,
    y_internal: np.ndarray,
    status: str,
    iterations: int,
    certificate: Optional[dict],
) -> SdpSolution:
    m = problem.dimension
    X = _sym(Xh[:m, :m])
    obj = float(np.sum(problem.C * X))
    y_user = -y_internal
    Z_user = np.zeros((m, m))
    for k, con in enumerate(problem.constraints):
        Z_user += y_user[k] * con.A
    Z_user = _sym(Z_user - problem.C)
    b_user = np.array([c.b for c in problem.constraints])
    gap = float(b_user @ y_user - obj) if len(b_user) else -obj
    min_eig = float(np.linalg.eigvalsh(X).min()) if m else 0.0
    max_res = max((c.residual(X) for c in problem.constraints), default=0.0)
    return SdpSolution(
        X=X,
        objective_value=obj,
        status=status,
        duality_gap=gap,
        min_eigenvalue=min_eig,
        max_constraint_residual=float(max_res),
        y=y_user,
        Z_dual=Z_user,
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
    residuals = [c.residual(X) for c in problem.constraints]
    min_eig = float(np.linalg.eigvalsh(X).min()) if problem.dimension else 0.0
    max_res = max(residuals, default=0.0)
    feasible_ok = min_eig >= -tol and max_res <= tol

    y = np.asarray(solution.y, dtype=float)
    sign_violation = 0.0
    Z = -problem.C.copy()
    for k, con in enumerate(problem.constraints):
        Z += y[k] * con.A
        if con.relation == "leq":
            sign_violation = max(sign_violation, -y[k])
        elif con.relation == "geq":
            sign_violation = max(sign_violation, y[k])
    dual_slack_min_eig = float(np.linalg.eigvalsh(_sym(Z)).min()) if problem.dimension else 0.0
    b_user = np.array([c.b for c in problem.constraints])
    obj = float(np.sum(problem.C * X))
    gap = float(b_user @ y - obj) if len(b_user) else -obj
    optimal_ok = (
        feasible_ok
        and dual_slack_min_eig >= -tol
        and sign_violation <= tol
        and abs(gap) <= tol
    )
    return {
        "min_eigenvalue": min_eig,
        "constraint_residuals": residuals,
        "max_constraint_residual": float(max_res),
        "objective_value": obj,
        "duality_gap": gap,
        "dual_slack_min_eigenvalue": dual_slack_min_eig,
        "dual_sign_violation": float(sign_violation),
        "feasible_ok": bool(feasible_ok),
        "optimal_ok": bool(optimal_ok),
        "passed": bool(feasible_ok and optimal_ok),
    }
