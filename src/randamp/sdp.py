"""Primal-dual interior-point solver for small semidefinite programs.

Problems are stated in maximization form over a symmetric PSD variable:

    maximize    <C, X>
    subject to  <A_k, X>  (=, >=, <=)  b_k      for each constraint k
                X >= 0  (positive semidefinite)

Internally the problem is converted to a standard-form minimization with
inequality slacks lifted into extra diagonal entries of one big PSD
block, then solved with Nesterov-Todd scaled Newton steps and a
Mehrotra predictor-corrector.  Step lengths are read in the scaled
space, where both iterates are diag(lam), from one eigenvalue problem
per pass; each step is then shortened until the new iterates pass a
plain Cholesky, and the centering target never drops below what the
gap tolerance needs.  A caller that only needs to know whether the
optimum reaches some value can pass it as a `cutoff`: the solve then
ends at the first iterate whose objective, less a charge for its
residuals, proves it does.

Several problems can be solved as one stack (`solve_stack`; `solve` is
a stack of one): one interior-point loop iterates them in lockstep, each
kernel below runs once over all of them, and each problem keeps its own
scalars and checks, stops on its own and leaves the stack.  Problems of
different sizes are padded to the largest constraint count and block
layout with zero constraint rows and pad rows.

The lifted matrices are held as a stack of diagonal blocks, (B, b, b).
The blocks are the connected components of the exact nonzero pattern of
the lifted objective and constraints, so each lifted inequality slack is
a 1x1 block; no rotation is needed, only a permutation of rows.  The
partition depends on that pattern alone and is built once per pattern in
a process.  Blocks are packed first-fit into slots of the largest
block's size b, several small blocks to a slot, and each slot is padded
to b rows.  When the stack would hold more entries than the dense lifted
matrix, the whole problem is one slot: a problem without structure is
the case B = 1 with no padding.  Pad rows are held at the identity in
both iterates and are masked out of every direction, so X and Z stay
exactly block-diagonal, and the gap, the norms, the traces and the
Farkas eigenvalue read real entries only.  Every kernel (the NT
scaling's svd, the Cholesky factorizations, the Schur build and its
inverse, the eigenvalue step bounds of a pass, X's and Z's together) is
one batched call over the blocks of every problem of the stack.  The
Schur complement is K x K whatever the blocks; its Cholesky factor is
inverted once per iteration, so each of its solves is two
matrix-vector products.  Everything is double precision;
intended scale is a lifted dimension <= ~40 with <= ~100 constraints, in
blocks of up to ~10 rows where the problem has them.

The solver is deterministic: no randomness, no warm starts, fixed
iteration logic, so identical inputs give identical outputs under one
BLAS configuration.  Its thread count changes the rounding, which moves
results within the tolerance.  Each problem's reductions (sums, norms,
matrix-vector products) are its own BLAS or pairwise calls, and its
scalars Python floats, so a stack of one gets the bits the loop gave
before it ran stacks; within a larger stack a problem may differ from
its own solve in the last bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

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
    """The symmetric part of M, or of each matrix of a stack M."""
    return (M + M.swapaxes(-1, -2)) * 0.5  # halving is exact


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


def _components(pattern: np.ndarray) -> np.ndarray:
    """The connected component of each row of a symmetric boolean pattern,
    components numbered in the order of their first rows."""
    reach = pattern | np.eye(len(pattern), dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    return np.unique(reach.argmax(axis=1), return_inverse=True)[1]


def _pack(sizes: list[int]) -> list[list[int]]:
    """Blocks of the given sizes packed first-fit, largest first, into
    slots of the largest block's size: the blocks of each slot."""
    size = max(sizes)
    slots: list[list[int]] = []
    for block in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        for slot in slots:
            if sum(sizes[i] for i in slot) + sizes[block] <= size:
                slot.append(block)
                break
        else:
            slots.append([block])
    return slots


@functools.lru_cache(maxsize=64)
def _layout(bits: bytes, n: int) -> tuple[np.ndarray, ...]:
    """The block stack of the n x n pattern packed in `bits`: block_of,
    rows, real, mask, eye and pad of `_Lifted`, and each lifted row's
    slot and position in the stack.  A pure function of the pattern,
    built once per pattern and read-only."""
    pattern = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=n * n).reshape(n, n).astype(bool)
    block_of = _components(pattern)
    sizes = np.bincount(block_of).tolist()
    slots = _pack(sizes)
    if len(slots) * max(sizes) ** 2 > n * n:
        slots = [list(range(len(sizes)))]
    size = max(sum(sizes[i] for i in slot) for slot in slots)
    rows = np.zeros((len(slots), size), dtype=int)
    real = np.zeros((len(slots), size), dtype=bool)
    for s, slot in enumerate(slots):
        members = np.flatnonzero(np.isin(block_of, slot))
        rows[s, :len(members)] = members
        real[s, :len(members)] = True
    slot, position = np.empty(n, dtype=int), np.empty(n, dtype=int)
    slot[rows[real]], position[rows[real]] = np.nonzero(real)
    block = np.where(real, block_of[rows], -1)
    mask = ((block[:, :, None] == block[:, None, :]) & real[:, :, None]).astype(float)
    eye = np.eye(size) * real[:, :, None]
    pad = np.eye(size) - eye
    arrays = (block_of, rows, real, mask, eye, pad, slot, position)
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Lifted:
    """Standard-form lift: min <C0, Xh>, <Ah_k, Xh> = b_k, Xh >= 0, held as
    a padded stack of diagonal blocks (see the module docstring).

    Slack for each inequality occupies one extra diagonal entry:
    geq rows get coefficient -1 (surplus), leq rows +1 (slack).
    `block_of` numbers each lifted row's block.  Slot s of the stack holds
    the lifted rows `rows[s, real[s]]`, ascending, and its other positions
    are pads.  `mask` is 1 on the entries of the stack that lie within
    one block, `eye` the identity on real rows and `pad` the identity on
    pad rows.
    """

    def __init__(self, problem: SdpProblem):
        m = problem.dimension
        ineq = [k for k, rel in enumerate(problem.relations) if rel != "eq"]
        self.nhat = m + len(ineq)
        self.K = len(problem.b)
        self.b = problem.b

        C0 = np.zeros((self.nhat, self.nhat))
        C0[:m, :m] = -problem.C
        A = np.zeros((self.K, self.nhat, self.nhat))
        A[:, :m, :m] = problem.constraints
        for j, k in enumerate(ineq):
            A[k, m + j, m + j] = -1.0 if problem.relations[k] == "geq" else 1.0

        pattern = (C0 != 0) | (A != 0).any(axis=0)
        (self.block_of, self.rows, self.real, self.mask, self.eye, self.pad,
         self._slot, self._position) = _layout(np.packbits(pattern).tobytes(), self.nhat)
        self.C0 = self.stack(C0)
        self.A = self.stack(A)
        self.A_flat = self.A.reshape(self.K, self.mask.size)

    def pad_to(self, K: int, B: int, b: int) -> None:
        """Grow the lift to K constraint rows and B slots of b rows, so that
        the lifts of several problems stack into one array: the new
        constraint rows are 0 with b_k = 0, and the new slots and rows are
        pad rows.  `K` stays the number of real constraints."""
        B0, b0 = self.real.shape
        if (B0, b0) != (B, b):
            rows, real = np.zeros((B, b), dtype=int), np.zeros((B, b), dtype=bool)
            rows[:B0, :b0], real[:B0, :b0] = self.rows, self.real
            mask, eye, C0 = np.zeros((3, B, b, b))
            mask[:B0, :b0, :b0], eye[:B0, :b0, :b0], C0[:B0, :b0, :b0] = self.mask, self.eye, self.C0
            self.rows, self.real, self.mask, self.eye, self.pad, self.C0 = rows, real, mask, eye, np.eye(b) - eye, C0
        if self.A.shape != (K, B, b, b):
            A, b_vec = np.zeros((K, B, b, b)), np.zeros(K)
            A[:self.K, :B0, :b0, :b0], b_vec[:self.K] = self.A, self.b
            self.A, self.A_flat, self.b = A, A.reshape(K, -1), b_vec

    def stack(self, M: np.ndarray) -> np.ndarray:
        """The block stack (..., B, b, b) of lifted matrices M (..., nhat, nhat),
        0 on pads and between blocks."""
        return self.mask * M[..., self.rows[:, :, None], self.rows[:, None, :]]

    def dense(self, X: np.ndarray) -> np.ndarray:
        """The lifted nhat x nhat matrix of a stack X, exactly 0 off the blocks."""
        s, i = self._slot[:, None], self._position
        same = self.block_of[:, None] == self.block_of[None, :]
        return np.where(same, X[s, i[:, None], i[None, :]], 0.0)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.A_flat @ X.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return (y @ self.A_flat).reshape(self.mask.shape)


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
    """Nesterov-Todd scaling of each X = Lx Lx^T and Z = Lz Lz^T of a
    stack: lam, r and rti = r^-T with r^-1 X r^-T = r^T Z r = diag(lam)."""
    U, lam, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Lx)
    lam = np.maximum(lam, 1e-300)
    sql = np.sqrt(lam)[..., None, :]
    return lam, Lx @ Vt.swapaxes(-1, -2) / sql, Lz @ U / sql


def _step_bounds(lam: np.ndarray, D: np.ndarray) -> tuple[list[float], list[float]]:
    """For each problem p of a stack, the largest alpha <= 1 keeping
    diag(lam[p]) + alpha*D[i, p] >= 0 on every matrix of p's blocks, for
    i = 0 and i = 1, from one eigvalsh call: two lists, one step per
    problem.

    With D[0] = rti^T dX rti and D[1] = r^T dZ r the directions in the
    scaled space, these are the step bounds of X + alpha*dX and
    Z + alpha*dZ, read without factoring either iterate.  A pad row of a
    direction is 0 and adds eigenvalue 0, which never binds a step."""
    sql = np.sqrt(lam)
    scaled = D / (sql[..., :, None] * sql[..., None, :])
    lam_min = np.linalg.eigvalsh(_sym(scaled)).reshape(2, len(lam), -1).min(axis=2)
    ap, ad = ([1.0 if m >= -1e-14 else min(1.0, -1.0 / m) for m in row] for row in lam_min.tolist())
    return ap, ad


def _cholesky_step(
    M: np.ndarray, L: np.ndarray, dM: np.ndarray, alpha: list[float]
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """For each problem p of a stack, shrink alpha[p] by 0.8 until every
    matrix of M[p] + alpha[p]*dM[p] passes a plain Cholesky.

    Returns the steps, the new iterates and their factors, which the next
    iteration reuses; a step that never passes is 0, with M[p] and L[p]
    kept.  The eigenvalue step bound of `_step_bounds` can admit an
    iterate that is PSD only within rounding, which could not be factored
    at all.  The whole stack is factored in one call while every step
    passes at once."""
    if min(alpha) > 1e-10:
        M_next = M + np.array(alpha)[:, None, None, None] * dM
        try:
            return alpha, M_next, np.linalg.cholesky(M_next)
        except np.linalg.LinAlgError:
            pass
    steps, M_next, L_next = [0.0] * len(alpha), M.copy(), L.copy()
    for p, a in enumerate(alpha):
        while a > 1e-10:
            M_p = M[p] + a * dM[p]
            try:
                L_next[p] = np.linalg.cholesky(M_p)
            except np.linalg.LinAlgError:
                a *= 0.8
                continue
            steps[p], M_next[p] = a, M_p
            break
    return steps, M_next, L_next


def _farkas_certificate(lifted: _Lifted, y: np.ndarray, X: np.ndarray, ynorm: float) -> Optional[dict]:
    """Normalized dual ray proving primal infeasibility, if y, of norm
    `ynorm`, encodes one.

    A vector y with A*(y) <= 0 and b.y > 0 certifies that no PSD Xh can
    satisfy A(Xh) = b.  Quality is judged by lambda_max(A*(yhat))
    relative to b.yhat on the normalized ray.  X is the stack of a PSD
    iterate with 0 on its pad rows.

    The eigensolve is skipped when X rules a certificate out:
    <A*(yhat), X> <= lambda_max(A*(yhat)) tr X, so a lower bound above
    the threshold by more than 1e-9 ||A*(yhat)||_F, far more than the
    rounding of the bound or of the eigenvalue, leaves lambda_max above
    it too.  In the eigensolve each pad row is held below every real
    eigenvalue, at -(1 + ||A*(yhat)||_F), so the largest eigenvalue of
    the stack is a real one.
    """
    if ynorm < 1.0:
        return None
    yhat = y / ynorm
    by = float(lifted.b @ yhat)
    if by <= 0.0:
        return None
    adjoint = _sym(lifted.adjoint(yhat))
    threshold = (CERT_WEAK_QUALITY if ynorm > DIVERGENCE_LIMIT else CERT_QUALITY) * by
    size = float(np.linalg.norm(adjoint))
    lower = float((adjoint * X).sum()) / float(np.einsum("sii->", X))
    if lower - threshold > 1e-9 * size:
        return None
    lam_max = float(np.linalg.eigvalsh(adjoint - (1.0 + size) * lifted.pad).max())
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


def _unbounded_certificate(lifted: _Lifted, X: np.ndarray, xnorm: float) -> Optional[dict]:
    """Normalized improving ray proving the objective is unbounded; X is
    the stack of an iterate with 0 on its pad rows, of norm `xnorm`, and
    the ray is the dense lifted matrix."""
    if xnorm < DIVERGENCE_LIMIT:
        return None
    Xhat = X / xnorm
    cx = float((lifted.C0 * Xhat).sum())
    ax = float(np.max(np.abs(lifted.apply(Xhat)))) if lifted.K else 0.0
    if cx < -CERT_WEAK_QUALITY and ax <= CERT_WEAK_QUALITY * abs(cx):
        return {"kind": "unbounded", "ray": lifted.dense(Xhat), "objective_rate": -cx, "residual_rate": ax}
    return None


def solve(problem: SdpProblem, tol: float = TOLERANCE, cutoff: Optional[float] = None) -> SdpSolution:
    """Solve the SDP to relative gap and residuals of at most `tol`, a
    positive finite float; see module docstring for the algorithm
    outline.  It is `solve_stack` on a stack of one.

    With a `cutoff` (which needs `problem.y_bound`), the solve also stops,
    with STATUS_CUTOFF, at the first iterate X that is not optimal yet
    whose charged objective <C, X> - sum_k y_bound_k |r_k| reaches the
    cutoff, r being its residuals in the slack-lifted form (for an
    equality-only problem, `residuals(X)`): then b.y >= cutoff for every
    dual-feasible y (see `SdpProblem`), and that X is returned.  It is
    PSD only up to the rounding of the plain Cholesky factorization it
    passed, so a cutoff is not a rigorous certificate."""
    return solve_stack((problem,), tol, (cutoff,))[0]


def _apply(A_flat: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A(X) of each problem of a stack, (P, K)."""
    return (A_flat @ X.reshape(len(X), -1, 1))[..., 0]


def _adjoint(A_flat: np.ndarray, y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A*(y) of each problem of a stack, as a stack of blocks of `shape`."""
    return (y[:, None, :] @ A_flat).reshape(shape)


def _sums(M: np.ndarray) -> list[float]:
    """The sum of each problem's entries of a stack."""
    return M.reshape(len(M), -1).sum(axis=1).tolist()


def _norms(M: np.ndarray) -> list[float]:
    """The Frobenius norm of each problem's entries of a stack, from one
    BLAS dot per problem, as `np.linalg.norm` computes it."""
    flat = M.reshape(len(M), -1)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0]).tolist()


def solve_stack(
    problems: Sequence[SdpProblem],
    tol: float = TOLERANCE,
    cutoffs: Optional[Sequence[Optional[float]]] = None,
) -> list[SdpSolution]:
    """Solve each problem as `solve` does, problem i with the cutoff
    `cutoffs[i]` (None for none, the default for all), in one
    interior-point loop that iterates them in lockstep.

    Every kernel runs once per iteration over the problems still
    iterating; each problem keeps its own scalars (gap, mu, sigma, step
    lengths, best iterate) and its own checks, stops on its own and then
    leaves the stack.  Problems are padded to the largest K and block
    layout: a padded constraint row is 0 with b_k = 0 and a unit Schur
    diagonal, so its dy is 0, and a padded block row is a pad row.
    Within a stack of several, a problem may differ from its own solve in
    the last bits."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"solver tolerance must be positive and finite, got {tol}")
    cutoffs = (None,) * len(problems) if cutoffs is None else tuple(cutoffs)
    if len(cutoffs) != len(problems):
        raise ValueError(f"{len(problems)} problems need as many cutoffs, got {len(cutoffs)}")
    if any(cutoff is not None and problem.y_bound is None for problem, cutoff in zip(problems, cutoffs)):
        raise ValueError("a cutoff needs the problem's y_bound")
    if not problems:
        return []
    lifts = [_Lifted(problem) for problem in problems]
    b_scale = [max(1.0, float(np.max(np.abs(lifted.b))) if lifted.K else 1.0) for lifted in lifts]
    c_scale = [max(1.0, float(np.linalg.norm(lifted.C0))) for lifted in lifts]
    K = max(lifted.K for lifted in lifts)
    B, b = np.max([lifted.real.shape for lifted in lifts], axis=0).tolist()
    for lifted in lifts:
        lifted.pad_to(K, B, b)
    diag, diag_K = np.arange(b), np.arange(K)
    padded = any(lifted.K < K for lifted in lifts)

    # pad rows stay at the identity: every direction is 0 on them
    eye, pad = np.stack([lifted.eye for lifted in lifts]), np.stack([lifted.pad for lifted in lifts])
    z_scale = [max(1.0, c / np.sqrt(lifted.nhat)) for c, lifted in zip(c_scale, lifts)]
    X = np.array(b_scale)[:, None, None, None] * eye + pad
    Z = np.array(z_scale)[:, None, None, None] * eye + pad
    # the stack of the problems still iterating, `on`, in stack order
    on = list(range(len(problems)))
    stack = (
        np.stack([lifted.C0 for lifted in lifts]),
        np.stack([lifted.A for lifted in lifts]),
        np.stack([lifted.b for lifted in lifts]),
        np.stack([lifted.mask for lifted in lifts]),
        pad,
        (diag_K >= np.array([[lifted.K] for lifted in lifts])).astype(float),
        X, np.linalg.cholesky(X), Z, np.linalg.cholesky(Z), np.zeros((len(problems), K)),
    )
    # Buffers of the Schur build and of the two directions in the scaled
    # space: fresh (K, B, b, b) products on every iteration cost more in
    # page faults than in arithmetic.
    WA = WAW = D = np.empty(0)

    solutions: list[Optional[SdpSolution]] = [None] * len(problems)
    iterations = [0] * len(problems)
    best_merit = [np.inf] * len(problems)
    best = [(X[p], stack[-1][p]) for p in on]

    def finish(p: int, status: str, certificate: Optional[dict] = None, iterate: tuple = ()) -> None:
        """Problem p's solution: the stopping `iterate` (X, y) when optimal
        or cut, else its best iterate by merit."""
        X_p, y_p = iterate if status in (STATUS_OPTIMAL, STATUS_CUTOFF) else best[p]
        solutions[p] = _build_solution(problems[p], lifts[p].dense(X_p), y_p[:lifts[p].K], status,
                                       iterations[p], certificate)

    def keep(going: list[int]) -> tuple[list[int], tuple[np.ndarray, ...]]:
        """The problems at stack positions `going` and their stack."""
        return [on[j] for j in going], tuple(a[going] for a in stack)

    it = 0
    while on and it < MAX_ITERATIONS:
        C0, A, b_vec, mask, pad, schur_pad, X, Lx, Z, Lz, y = stack
        if WA.shape != A.shape:
            WA, WAW, D = np.empty_like(A), np.empty_like(A), np.empty((2, *mask.shape))
        A_flat = A.reshape(len(on), K, -1)
        # the iterates' real entries, 0 on pad rows
        Xr, Zr = X - pad, Z - pad
        AX = _apply(A_flat, X)
        r_p = b_vec - AX
        R_d = C0 - _adjoint(A_flat, y, mask.shape) - Zr
        gap, obj = _sums(Xr * Zr), _sums(C0 * X)
        r_max = np.abs(r_p).max(axis=1, initial=0.0).tolist()
        norm_R, norm_y, norm_X = _norms(R_d), _norms(y), _norms(Xr)

        # Each problem's checks.  One that stops leaves the stack, and the
        # others run this iteration again without it.
        going, mu = [], []
        for j, p in enumerate(on):
            iterations[p] = it + 1
            rel_gap = gap[j] / max(1.0, abs(obj[j]))
            pinf = r_max[j] / b_scale[p]
            dinf = norm_R[j] / c_scale[p]
            merit = max(rel_gap, pinf, dinf)
            if merit < best_merit[p]:
                best_merit[p] = merit
                best[p] = X[j], y[j]

            if rel_gap <= tol and pinf <= tol and dinf <= tol:
                finish(p, STATUS_OPTIMAL, iterate=(X[j], y[j]))
                continue
            cutoff = cutoffs[p]
            if cutoff is not None and -obj[j] - float(problems[p].y_bound @ np.abs(r_p[j, :lifts[p].K])) >= cutoff:
                finish(p, STATUS_CUTOFF, iterate=(X[j], y[j]))
                continue
            cert = _farkas_certificate(lifts[p], y[j], Xr[j], norm_y[j])
            if cert is not None:
                finish(p, STATUS_INFEASIBLE, cert)
                continue
            cert = _unbounded_certificate(lifts[p], Xr[j], norm_X[j])
            if cert is not None:
                finish(p, STATUS_UNBOUNDED, cert)
                continue
            if norm_y[j] > HARD_DIVERGENCE_LIMIT or norm_X[j] > HARD_DIVERGENCE_LIMIT:
                finish(p, STATUS_MAX_ITERATIONS, {"kind": "divergence", "norm_y": norm_y[j], "norm_X": norm_X[j]})
                continue
            going.append(j)
            mu.append(gap[j] / lifts[p].nhat)
        if len(going) < len(on):
            on, stack = keep(going)
            continue

        # Nesterov-Todd scaling point: r diag(lam) r^T = X, r^-T lam r^-1 = Z.
        lam, r_mat, rti = _nt_scaling(Lx, Lz)
        r_T, rti_T = r_mat.swapaxes(-1, -2), rti.swapaxes(-1, -2)
        W = r_mat @ r_T

        # Schur complement S[i,j] = <A_i, W A_j W>, shared by both passes,
        # and the inverse of its Cholesky factor: each solve is then two
        # matrix-vector products.  A problem whose factorization breaks
        # down leaves the stack, and the others run this iteration again.
        if K:
            np.matmul(np.matmul(W[:, None], A, out=WA), W[:, None], out=WAW)
            S = A_flat @ WAW.reshape(A_flat.shape).swapaxes(-1, -2)
            if padded:
                S[:, diag_K, diag_K] += schur_pad
            S = _sym(S)
            try:
                LS = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                LS, going = np.empty_like(S), []
                for j, p in enumerate(on):
                    k = lifts[p].K
                    L = _chol_psd(S[j, :k, :k])
                    if L is None:
                        finish(p, STATUS_MAX_ITERATIONS, {"kind": "schur_breakdown"})
                        continue
                    LS[j] = np.eye(K)
                    LS[j, :k, :k] = L
                    going.append(j)
                if len(going) < len(on):
                    on, stack = keep(going)
                    continue
            LS_inv = np.linalg.inv(LS)
        else:
            LS_inv = np.zeros((len(on), 0, 0))

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            return (LS_inv.swapaxes(-1, -2) @ (LS_inv @ rhs[..., None]))[..., 0]

        def scaled(dX: np.ndarray, dZ: np.ndarray) -> np.ndarray:
            # into the buffer D, which the next call overwrites
            np.matmul(rti_T @ dX, rti, out=D[0])
            np.matmul(r_T @ dZ, r_mat, out=D[1])
            return D

        A_WRdW = _apply(A_flat, W @ R_d @ W)

        # Affine pass: target residual -Lam^2 collapses X_c to -X exactly.
        # Only dX needs the mask: R_d and every A_k, and so dZ, are already
        # 0 on pad rows and between blocks.
        dy_aff = schur_solve(r_p + AX + A_WRdW)
        dZ_aff = _sym(R_d - _adjoint(A_flat, dy_aff, mask.shape))
        dX_aff = mask * _sym(-Xr - W @ dZ_aff @ W)

        # Directions in the scaled space, for the step bounds and the corrector.
        DX_aff, DZ_aff = scaled(dX_aff, dZ_aff)
        ap_aff, ad_aff = _step_bounds(lam, D)
        mu_aff = _sums((Xr + np.array(ap_aff)[:, None, None, None] * dX_aff)
                       * (Zr + np.array(ad_aff)[:, None, None, None] * dZ_aff))
        # Aim no lower than half the complementarity the gap tolerance
        # allows: a smaller mu only grows the scaling W, and the rounding
        # error of the Schur solve, ~eps*||S||*|dy| with ||S|| ~ ||W||^2,
        # then keeps the primal residual above the tolerance.  sigma is a
        # Python float: numpy's vectorized cube rounds differently.
        target = []
        for j, p in enumerate(on):
            nhat = lifts[p].nhat
            mu_floor = 0.5 * tol * max(1.0, abs(obj[j])) / nhat
            sigma = (min(1.0, max((max(mu_aff[j] / nhat, 0.0) / mu[j]) ** 3, mu_floor / mu[j]))
                     if mu[j] > 0 else 0.0)
            target.append(sigma * mu[j])

        # Corrector pass reuses the Schur factorization.
        Rc = -_sym(DX_aff @ DZ_aff)
        Rc[..., diag, diag] += np.array(target)[:, None, None] - lam * lam
        Hinv = 2.0 * Rc / (lam[..., :, None] + lam[..., None, :])
        X_c = _sym(r_mat @ Hinv @ r_T)

        dy = schur_solve(r_p - _apply(A_flat, X_c) + A_WRdW)
        dZ = _sym(R_d - _adjoint(A_flat, dy, mask.shape))
        dX = mask * _sym(X_c - W @ dZ @ W)

        frac = 0.98
        ap_max, ad_max = _step_bounds(lam, scaled(dX, dZ))
        ap, X_next, Lx_next = _cholesky_step(X, Lx, dX, [min(1.0, frac * a) for a in ap_max])
        ad, Z_next, Lz_next = _cholesky_step(Z, Lz, dZ, [min(1.0, frac * a) for a in ad_max])
        going = []
        for j, p in enumerate(on):
            if ap[j] < 1e-10 and ad[j] < 1e-10:
                finish(p, STATUS_MAX_ITERATIONS, {"kind": "stalled", "mu": mu[j]})
            else:
                going.append(j)
        stack = (C0, A, b_vec, mask, pad, schur_pad,
                 X_next, Lx_next, Z_next, Lz_next, y + np.array(ad)[:, None] * dy)
        if len(going) < len(on):
            on, stack = keep(going)
        it += 1

    for p in on:
        finish(p, STATUS_MAX_ITERATIONS)
    return solutions


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
