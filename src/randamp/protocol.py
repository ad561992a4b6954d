"""Closed-form calculus for the amplification protocol.

The protocol runs the tripartite game N times on inputs drawn from an
epsilon-free source, estimates the win fraction, aborts below a
threshold, and uses further source bits to select one round whose first
party's outcome is the output bit.  This module holds the arithmetic
connecting the knobs:

  * a concentration bound relating the estimation slack x, the number
    of rounds N and a deviation probability,
  * the bound q on the fraction of rounds whose conditional bias can
    exceed the target,
  * the condition under which biased round selection still avoids the
    bad rounds with the desired confidence, and
  * the sufficient success threshold combining all of the above.

Convention: `delta` is the confidence level (close to 1 is good).  The
concentration bound budget for the estimate is 1 - delta, and the
overall guarantee on the emitted bit holds with probability at least
delta squared (once for the estimate, once for the selection).  The
literature states the same guarantee with both readings of the symbol;
we fix this one and say so here rather than in every docstring.

The selection-condition exponent uses the base-2 logarithm of q.  That
is the unique base under which the threshold formula below follows
algebraically from the selection condition and the q bound: with
L = log_{1/2+eps}(1 - delta), the worst q satisfying the condition is
2^{-L}, and P_est > 1 - (1 - P_crit) 2^{-L} + x forces q < 2^{-L}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .npa import critical_success
from .sdp import TOLERANCE
from .strategies import biased_mermin_classical_value

__all__ = [
    "ProtocolParams",
    "InfeasibleSlackError",
    "deviation_confidence",
    "rounds_needed",
    "bad_fraction_bound",
    "selection_condition",
    "threshold_gap",
    "threshold_success",
    "max_feasible_slack",
    "plan_protocol",
]


class InfeasibleSlackError(ValueError):
    """Raised when the estimation slack x pushes the threshold to 1 or
    beyond; carries the largest slack that still works."""

    def __init__(self, x: float, x_max: float):
        self.x = x
        self.x_max = x_max
        super().__init__(
            f"slack x={x} makes the success threshold reach 1; "
            f"reduce x below {x_max}"
        )


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2), got {epsilon}")


def _concentration_factor(epsilon: float) -> float:
    # 2 (1 + (1/2 - eps)^{-2})^2, the sub-gaussian scale of the win
    # estimate when round scores live in an interval of width
    # 1 + (1/2 - eps)^{-2}.
    _check_epsilon(epsilon)
    w = 1.0 + (0.5 - epsilon) ** -2
    return 2.0 * w * w


def deviation_confidence(x: float, n_rounds: int, epsilon: float) -> float:
    """Probability bound for the win-rate estimate overshooting the true
    per-round mean by more than x: exp(-x^2 N / (2 (1+(1/2-eps)^-2)^2)).

    x = 0 gives the vacuous bound 1.
    """
    if not x >= 0:
        raise ValueError(f"slack x must be nonnegative, got {x}")
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    return math.exp(-(x * x) * n_rounds / _concentration_factor(epsilon))


def rounds_needed(x: float, deviation_budget: float, epsilon: float) -> int:
    """Smallest N with deviation_confidence(x, N, epsilon) <= budget.

    The float estimate of N can miss that threshold by float roundoff, and
    at large N consecutive doubles lie far apart, so the float predicate
    is constant over long runs of integers.  It is nonincreasing in N, so
    a step doubled away from the estimate brackets the threshold and a
    bisection finds it, in O(log) evaluations of the predicate."""
    if not x > 0:
        raise ValueError(f"slack x must be positive, got {x}")
    if not 0.0 < deviation_budget < 1.0:
        raise ValueError(f"deviation budget must lie in (0, 1), got {deviation_budget}")

    def holds(n: int) -> bool:
        return deviation_confidence(x, n, epsilon) <= deviation_budget

    n = max(1, math.ceil(_concentration_factor(epsilon) * math.log(1.0 / deviation_budget) / (x * x)))
    # bracket the threshold: holds(hi), and not holds(lo) or lo == 0
    step = 1
    if holds(n):
        lo, hi = n - 1, n
        while lo >= 1 and holds(lo):
            hi, lo = lo, lo - step
            step *= 2
        lo = max(lo, 0)
    else:
        lo, hi = n, n + 1
        while not holds(hi):
            lo, hi = hi, hi + step
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bad_fraction_bound(p_est: float, x: float, p_crit: float) -> float:
    """Upper bound (1 - P_est + x)/(1 - P_crit) on the fraction of rounds
    whose conditional success can sit at or below the critical level,
    clamped below at 0."""
    if p_crit >= 1.0:
        raise ValueError(f"critical success must be below 1, got {p_crit}")
    return max(0.0, (1.0 - p_est + x) / (1.0 - p_crit))


def selection_condition(q: float, epsilon: float, delta: float) -> bool:
    """Whether biased round selection lands outside a bad fraction q with
    probability above delta: (1/2+eps)^(-log2 q) < 1 - delta.

    q <= 0 means no bad rounds and the condition holds vacuously; q is
    clamped above at 1 (where the condition fails for any delta >= 0).
    """
    _check_epsilon(epsilon)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"confidence delta must lie in [0, 1), got {delta}")
    if q <= 0.0:
        return True
    q = min(q, 1.0)
    return (0.5 + epsilon) ** (-math.log2(q)) < 1.0 - delta


def _selection_exponent(epsilon: float, delta: float) -> float:
    # L = log_{1/2+eps}(1 - delta) >= 0; the selection condition holds
    # exactly for q < 2^{-L}.
    return math.log(1.0 - delta) / math.log(0.5 + epsilon)


def threshold_gap(p_crit: float, epsilon: float, delta: float, x: float) -> float:
    """Distance 1 - P = (1 - P_crit) 2^{-L} - x of the threshold below 1,
    that is `max_feasible_slack` less x.

    The gap underflows double precision long before it reaches zero
    (strong bias and high confidence push it to 1e-30 and below), so the
    strictly-below-1 property of the threshold must be read off here
    rather than from 1 - threshold_success(...).
    """
    slack = max_feasible_slack(p_crit, epsilon, delta)
    if not x >= 0:
        raise ValueError(f"slack x must be nonnegative, got {x}")
    return slack - x


def threshold_success(p_crit: float, epsilon: float, delta: float, x: float) -> float:
    """Sufficient win-rate threshold P = 1 - (1 - P_crit) 2^{-L} + x with
    L = log_{1/2+eps}(1 - delta); estimates above it certify the bit."""
    return 1.0 - threshold_gap(p_crit, epsilon, delta, x)


def max_feasible_slack(p_crit: float, epsilon: float, delta: float) -> float:
    """Largest x keeping threshold_success strictly below 1."""
    if p_crit >= 1.0:
        raise ValueError(f"critical success must be below 1, got {p_crit}")
    _check_epsilon(epsilon)
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"confidence delta must lie in [0, 1), got {delta}")
    return (1.0 - p_crit) * 2.0 ** (-_selection_exponent(epsilon, delta))


@dataclass(frozen=True)
class ProtocolParams:
    """Complete parameter set for one protocol execution."""

    epsilon: float
    eps_prime_target: float
    delta: float
    x: float
    n_rounds: int
    p_crit: float
    p_threshold: float

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 < self.eps_prime_target <= 0.5:
            raise ValueError(f"target bias must lie in (0, 1/2], got {self.eps_prime_target}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"confidence delta must lie in [0, 1), got {self.delta}")
        if self.n_rounds < 1:
            raise ValueError(f"need at least one round, got {self.n_rounds}")
        if not 0.0 <= self.p_threshold <= 1.0 + self.x:
            raise ValueError(f"threshold {self.p_threshold} outside [0, 1 + x]")
        classical = biased_mermin_classical_value(self.epsilon)
        if not classical < self.p_crit < 1.0:
            raise ValueError(f"critical success {self.p_crit} outside ({classical}, 1)")


def plan_protocol(
    epsilon: float,
    eps_prime_target: float,
    delta: float,
    x: float | None = None,
    tol: float = TOLERANCE,
) -> ProtocolParams:
    """Derive a full parameter set from the triplet (eps, eps', delta).

    The critical success probability is `critical_success` at solver
    tolerance tol, `sdp.TOLERANCE` by default: one direct moment-matrix
    solve per target after an exact check at floor 1 on the success-1
    face, raising BracketingError when tol cannot separate it from 1.
    The threshold and round count follow from the closed forms above.
    When x is omitted, half the maximal feasible slack is used, and a
    threshold that rounds to 1 raises ValueError.  The estimate's
    deviation budget is 1 - delta, so both the estimate and
    the selection hold with probability delta each, giving the delta^2
    overall confidence.
    """
    p_crit = critical_success(epsilon, eps_prime_target, tol)
    x_max = max_feasible_slack(p_crit, epsilon, delta)
    if x is None:
        x = x_max / 2.0
    if not x > 0:
        raise ValueError(f"slack x must be positive, got {x}")
    if x >= x_max:
        raise InfeasibleSlackError(x, x_max)
    p_threshold = threshold_success(p_crit, epsilon, delta, x)
    if p_threshold >= 1.0:
        raise ValueError(f"at delta={delta} the success threshold lies {x_max - x:.3g} below 1 "
                         "and rounds to 1, where every run aborts")
    if delta > 0.0:
        n = rounds_needed(x, 1.0 - delta, epsilon)
    else:
        # vacuous confidence requirement; a single round suffices
        n = 1
    return ProtocolParams(
        epsilon=epsilon,
        eps_prime_target=eps_prime_target,
        delta=delta,
        x=x,
        n_rounds=n,
        p_crit=p_crit,
        p_threshold=p_threshold,
    )
