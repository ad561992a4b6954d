import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp import protocol
from randamp.protocol import (
    InfeasibleSlackError,
    ProtocolParams,
    bad_fraction_bound,
    deviation_confidence,
    max_feasible_slack,
    plan_protocol,
    rounds_needed,
    selection_condition,
    threshold_gap,
    threshold_success,
)

eps_values = st.floats(0.0, 0.45)
delta_values = st.floats(0.0, 0.999)
slack_values = st.floats(1e-4, 0.3)
budget_values = st.floats(1e-6, 0.99)


def test_deviation_confidence_closed_form_values():
    assert deviation_confidence(0.0, 100, 0.3) == 1.0
    # factor at eps=0 is 2 (1+4)^2 = 50, so x=0.1, N=5000 hits e^-1
    assert np.isclose(deviation_confidence(0.1, 5000, 0.0), math.exp(-1.0), atol=1e-15)
    assert deviation_confidence(0.1, 6000, 0.0) < deviation_confidence(0.1, 5000, 0.0)


def test_deviation_confidence_domain_errors():
    with pytest.raises(ValueError):
        deviation_confidence(-0.1, 100, 0.2)
    with pytest.raises(ValueError):
        deviation_confidence(0.1, 0, 0.2)
    with pytest.raises(ValueError):
        deviation_confidence(0.1, 100, 0.5)


def test_rounds_needed_inverts_the_example():
    assert rounds_needed(0.1, math.exp(-1.0), 0.0) == 5000


def test_rounds_needed_growth_with_bias():
    """Moving eps from 0 to 0.4 scales N by ((1+100)/(1+4))^2 = 408.04."""
    n0 = rounds_needed(0.01, 0.05, 0.0)
    n4 = rounds_needed(0.01, 0.05, 0.4)
    assert np.isclose(n4 / n0, (101.0 / 5.0) ** 2, rtol=1e-3)


def test_rounds_needed_domain_errors():
    with pytest.raises(ValueError):
        rounds_needed(0.0, 0.5, 0.2)
    with pytest.raises(ValueError):
        rounds_needed(0.1, 0.0, 0.2)
    with pytest.raises(ValueError):
        rounds_needed(0.1, 1.0, 0.2)


@given(slack_values, budget_values, eps_values)
@settings(max_examples=300)
def test_rounds_needed_is_exact_inverse(x, budget, eps):
    """N is the smallest round count meeting the budget."""
    n = rounds_needed(x, budget, eps)
    assert deviation_confidence(x, n, eps) <= budget
    if n > 1:
        assert deviation_confidence(x, n - 1, eps) > budget


def test_bad_fraction_examples():
    assert bad_fraction_bound(1.0, 0.0, 0.9) == 0.0
    assert bad_fraction_bound(0.9, 0.0, 0.9) == pytest.approx(1.0)
    assert bad_fraction_bound(0.99, 0.001, 0.9) == pytest.approx(0.11)
    with pytest.raises(ValueError):
        bad_fraction_bound(0.9, 0.0, 1.0)


def test_bad_fraction_clamps_at_zero():
    assert bad_fraction_bound(1.0 + 0.05, 0.0, 0.9) == 0.0


def test_selection_condition_examples():
    assert not selection_condition(1.0, 0.2, 0.0)
    assert not selection_condition(1.0, 0.2, 0.9)
    # unbiased selection reduces to q < 1 - delta
    assert selection_condition(2.0**-3, 0.0, 0.8)
    assert not selection_condition(2.0**-3, 0.0, 0.9)
    # biased example: (0.75)^{19.93} ~ 3.2e-3 < 0.01
    assert selection_condition(1e-6, 0.25, 0.99)
    assert selection_condition(0.0, 0.3, 0.99)
    assert selection_condition(-1.0, 0.3, 0.99)


def test_selection_condition_clamps_q_above_one():
    assert selection_condition(1.7, 0.2, 0.5) == selection_condition(1.0, 0.2, 0.5)


def test_threshold_success_examples():
    assert threshold_success(0.9, 0.3, 0.0, 0.02) == pytest.approx(0.92, abs=1e-15)
    value = threshold_success(0.9, 0.25, 0.99, 0.0)
    assert value == pytest.approx(0.9999985, abs=1e-6)
    # recompute the exponent independently
    L = math.log(0.01) / math.log(0.75)
    assert value == pytest.approx(1.0 - 0.1 * 2.0**-L, abs=1e-15)


def test_threshold_strictly_below_one_iff_slack_feasible():
    p_crit, eps, delta = 0.98, 0.3, 0.9
    x_max = max_feasible_slack(p_crit, eps, delta)
    assert threshold_gap(p_crit, eps, delta, 0.5 * x_max) > 0.0
    assert threshold_gap(p_crit, eps, delta, 2.0 * x_max) < 0.0


def test_threshold_gap_survives_double_rounding():
    """At strong bias and high confidence the gap sits around 1e-30;
    the threshold itself rounds to exactly 1.0 in doubles."""
    gap = threshold_gap(0.9978, 0.45, 0.99, 0.0)
    assert 0.0 < gap < 1e-25
    assert threshold_success(0.9978, 0.45, 0.99, 0.0) == 1.0


@given(
    st.floats(0.76, 0.999),
    eps_values,
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
)
@settings(max_examples=300)
def test_threshold_monotone_in_delta_and_epsilon(p_crit, eps, d1, d2):
    lo, hi = sorted((d1, d2))
    assert threshold_success(p_crit, eps, hi, 0.0) >= threshold_success(p_crit, eps, lo, 0.0) - 1e-12
    if eps + 0.04 < 0.5:
        assert (
            threshold_success(p_crit, eps + 0.04, lo, 0.0)
            >= threshold_success(p_crit, eps, lo, 0.0) - 1e-12
        )


@given(st.floats(0.76, 0.999), st.floats(0.76, 0.999), eps_values, delta_values)
@settings(max_examples=200)
def test_threshold_affine_in_critical_success(p1, p2, eps, delta):
    """Shifting P_crit moves the threshold affinely with slope 2^{-L}."""
    coeff = 2.0 ** (-math.log(1.0 - delta) / math.log(0.5 + eps)) if delta > 0 else 1.0
    t1 = threshold_success(p1, eps, delta, 0.0)
    t2 = threshold_success(p2, eps, delta, 0.0)
    assert np.isclose(t1 - t2, (p1 - p2) * coeff, atol=1e-12)


@given(
    st.floats(0.76, 0.9999),
    eps_values,
    delta_values,
    st.floats(0.0, 0.05),
    st.floats(0.5, 1.05),
)
@settings(max_examples=500)
def test_derivation_chain(p_crit, eps, delta, x, p_est):
    """An estimate above the threshold always certifies the selection."""
    p_est = min(p_est, 1.0 + x)
    if p_est > threshold_success(p_crit, eps, delta, x):
        q = bad_fraction_bound(p_est, x, p_crit)
        assert selection_condition(q, eps, delta)


@given(st.floats(0.76, 0.9999), eps_values, delta_values, st.floats(0.0, 0.05))
@settings(max_examples=300)
def test_formulas_stay_in_range(p_crit, eps, delta, x):
    t = threshold_success(p_crit, eps, delta, x)
    assert math.isfinite(t)
    assert 0.0 <= t <= 1.0 + x
    q = bad_fraction_bound(0.87, x, p_crit)
    assert math.isfinite(q) and q >= 0.0
    d = deviation_confidence(x, 1000, eps)
    assert 0.0 < d <= 1.0


def test_protocol_params_validation():
    good = dict(
        epsilon=0.3, eps_prime_target=0.29, delta=0.9, x=0.001,
        n_rounds=100, p_crit=0.99, p_threshold=0.9999,
    )
    ProtocolParams(**good)
    for key, bad in [
        ("epsilon", 0.5),
        ("eps_prime_target", 0.0),
        ("delta", 1.0),
        ("n_rounds", 0),
        ("p_threshold", 1.1),
        ("p_crit", 0.9),   # at eps=0.3 the classical value is 0.96
        ("p_crit", 1.0),
    ]:
        with pytest.raises(ValueError):
            ProtocolParams(**{**good, key: bad})


def test_plan_protocol_delta_zero_degenerates():
    params = plan_protocol(0.3, 0.29, 0.0, x=0.001, tol=5e-3)
    assert params.n_rounds == 1
    assert params.p_threshold == pytest.approx(params.p_crit + params.x, abs=1e-12)


def test_plan_protocol_auto_slack_and_scaling():
    params = plan_protocol(0.3, 0.29, 0.5, tol=5e-3)
    assert params.x == pytest.approx(max_feasible_slack(params.p_crit, 0.3, 0.5) / 2.0)
    assert params.p_threshold < 1.0
    halved = plan_protocol(0.3, 0.29, 0.5, x=params.x / 2.0, tol=5e-3)
    assert np.isclose(halved.n_rounds / params.n_rounds, 4.0, rtol=1e-3)


def test_plan_protocol_rejects_infeasible_slack():
    coarse = plan_protocol(0.3, 0.29, 0.5, tol=5e-3)
    x_max = max_feasible_slack(coarse.p_crit, 0.3, 0.5)
    with pytest.raises(InfeasibleSlackError) as exc_info:
        plan_protocol(0.3, 0.29, 0.5, x=2.0 * x_max, tol=5e-3)
    assert exc_info.value.x_max == pytest.approx(x_max, rel=0.2)
    with pytest.raises(ValueError):
        plan_protocol(0.3, 0.29, 0.5, x=-0.1, tol=5e-3)


def test_nan_slack_is_rejected():
    """nan passes x < 0 and x <= 0; each slack check rejects it."""
    nan = float("nan")
    with pytest.raises(ValueError, match="nonnegative"):
        deviation_confidence(nan, 100, 0.3)
    with pytest.raises(ValueError, match="positive"):
        rounds_needed(nan, 0.1, 0.3)
    with pytest.raises(ValueError, match="nonnegative"):
        threshold_gap(0.98, 0.3, 0.99, nan)
    with pytest.raises(ValueError, match="positive"):
        plan_protocol(0.3, 0.29, 0.5, x=nan, tol=5e-3)


def walked_rounds_needed(x, budget, epsilon):
    """The smallest N by unit steps from the float estimate: the
    reference for `rounds_needed` where the walk is short."""
    n = max(1, math.ceil(2.0 * (1.0 + (0.5 - epsilon) ** -2) ** 2 * math.log(1.0 / budget) / (x * x)))
    while n > 1 and deviation_confidence(x, n - 1, epsilon) <= budget:
        n -= 1
    while deviation_confidence(x, n, epsilon) > budget:
        n += 1
    return n


@settings(max_examples=300, deadline=None)
@given(slack_values, budget_values, eps_values)
def test_rounds_needed_matches_the_unit_walk(x, budget, epsilon):
    assert rounds_needed(x, budget, epsilon) == walked_rounds_needed(x, budget, epsilon)


@pytest.mark.parametrize("delta,x,n_rounds", [
    (0.999, 4.2231009008672344e-12, 523661588828544218899152896),
    (0.9999, 3.306341730047449e-15, 1139086998056592918445366632775680),
    (0.99999, 2.5885944694007324e-18, 2322920500192868763547867247947894751233),
])
def test_rounds_needed_ends_at_high_confidence(monkeypatch, delta, x, n_rounds):
    """The README plan's x at higher confidence puts N near 5e26 and
    beyond, where consecutive doubles lie 7e10 and more apart and the
    float bound is constant over long runs of integers.  The smallest N
    whose bound meets the budget is still found, in a bounded number of
    evaluations rather than one per integer."""
    calls = []

    def counted(x, n, epsilon):
        calls.append(n)
        return deviation_confidence(x, n, epsilon)

    monkeypatch.setattr(protocol, "deviation_confidence", counted)
    assert rounds_needed(x, 1.0 - delta, 0.3) == n_rounds
    assert len(calls) <= 200
    assert deviation_confidence(x, n_rounds, 0.3) <= 1.0 - delta < deviation_confidence(x, n_rounds - 1, 0.3)
