"""Acceptance battery: the ten guarantees the package ships with.

One test per criterion, in order, so `pytest -v tests/test_acceptance.py`
prints one verdict line each.  Tests print their measured numbers (visible
with -s) and enforce the stated numeric tolerances and wall-clock budgets.
The expensive critical-success curve is computed once and shared.
"""

import math
import time

import numpy as np
import pytest

from analytic_problems import analytic_problems, infeasible_problem
from randamp.games import (
    chsh_game,
    input_distribution_from_source,
    magic_square_game,
    mermin_game,
    uniform_distribution,
)
from randamp.npa import (
    LEVEL_Q1,
    LEVEL_Q2,
    critical_success,
    eps_prime,
    max_success_probability,
)
from randamp.protocol import (
    bad_fraction_bound,
    deviation_confidence,
    plan_protocol,
    rounds_needed,
    selection_condition,
    threshold_gap,
    threshold_success,
)
from randamp.sdp import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve, verify
from randamp.simulator import (
    MATERIALIZE_LIMIT,
    AdversarialDevice,
    HonestDevice,
    attack_suite,
    estimate_output_bias,
)
from randamp.sources import ExtremalSource, constant_sign
from randamp.strategies import biased_mermin_classical_value, classical_value, ghz_mermin_strategy

EPS_SET = (0.1, 0.3, 0.45)
ACCEPTANCE_SEED = 20260816


@pytest.fixture(scope="module")
def critical_curve():
    """critical_success(eps, eps) on the standard bias set, shared by the
    two curve criteria.  Returns (curve dict, build seconds)."""
    t0 = time.perf_counter()
    curve = {eps: critical_success(eps, eps) for eps in EPS_SET}
    return curve, time.perf_counter() - t0


def test_criterion_01_classical_game_values():
    t0 = time.perf_counter()
    values = {}
    for name, game in (
        ("chsh", chsh_game()),
        ("mermin", mermin_game()),
        ("magic-square", magic_square_game()),
    ):
        values[name], _ = classical_value(game, uniform_distribution(game))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {values} in {elapsed:.3f}s")
    assert abs(values["chsh"] - 0.75) <= 1e-12
    assert abs(values["mermin"] - 0.75) <= 1e-12
    assert abs(values["magic-square"] - 8.0 / 9.0) <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_pair_game_first_level_bound():
    game = chsh_game()
    t0 = time.perf_counter()
    value = max_success_probability(game, uniform_distribution(game), LEVEL_Q1)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: level-1 pair game bound {value:.9f} in {elapsed:.3f}s")
    assert abs(value - 0.853553) <= 1e-4
    assert elapsed < 1.0


def test_criterion_03_pair_game_bias_closes_the_gap():
    """At bias 1/sqrt(2)-1/2 the level-2 bound for the pair game drops to
    the known closed form 1-(1-1/sqrt(2))^2, meeting the classical value."""
    game = chsh_game()
    eps_c = 2.0**-0.5 - 0.5
    dist = input_distribution_from_source(game, ExtremalSource(eps_c, constant_sign(+1)))
    t0 = time.perf_counter()
    value = max_success_probability(game, dist, LEVEL_Q2)
    elapsed = time.perf_counter() - t0
    target = 1.0 - (1.0 - 2.0**-0.5) ** 2
    print(f"criterion 3: biased level-2 bound {value:.9f} vs {target:.9f} in {elapsed:.3f}s")
    assert abs(value - target) <= 1e-3
    assert elapsed < 10.0


def test_criterion_04_perfect_success_kills_the_bias():
    t0 = time.perf_counter()
    bounds = {eps: eps_prime(eps, 1.0) for eps in EPS_SET}
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: output bias at success floor 1: {bounds} in {elapsed:.3f}s")
    for eps, bound in bounds.items():
        assert bound <= 1e-4, (eps, bound)
    assert elapsed < 30.0


def test_criterion_05_classical_floor_certifies_nothing():
    t0 = time.perf_counter()
    bounds = {}
    for eps in EPS_SET:
        floor = biased_mermin_classical_value(eps)
        bounds[eps] = eps_prime(eps, floor, tol=1e-6)
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: output bias at the classical floor: {bounds} in {elapsed:.3f}s")
    for eps, bound in bounds.items():
        assert bound >= 0.5 - 1e-4, (eps, bound)
    assert elapsed < 30.0


def test_criterion_06_critical_curve_exists_below_one(critical_curve):
    curve, t_curve = critical_curve
    t0 = time.perf_counter()
    # tightening the output-bias target can only raise the demanded score
    targets = (0.29, 0.2, 0.1)
    ladder = [critical_success(0.3, t) for t in targets]
    elapsed = t_curve + (time.perf_counter() - t0)
    print(f"criterion 6: curve {curve}, target ladder {dict(zip(targets, ladder))} in {elapsed:.1f}s")
    for eps, p_crit in curve.items():
        assert biased_mermin_classical_value(eps) < p_crit < 1.0 - 1e-6, (eps, p_crit)
    assert ladder[1] >= ladder[0] - 5e-4
    assert ladder[2] >= ladder[1] - 5e-4
    assert ladder[2] > ladder[0]
    assert elapsed < 300.0


def test_criterion_07_threshold_curve_strictly_below_one(critical_curve):
    """delta=0.99, no slack: the sufficient threshold stays strictly below
    1 at every bias and never undercuts the critical curve.  Strictness is
    checked through the cancellation-free margin; at strong bias the
    threshold itself rounds to 1.0 in double precision."""
    curve, t_curve = critical_curve
    for eps, p_crit in curve.items():
        margin = threshold_gap(p_crit, eps, 0.99, 0.0)
        threshold = threshold_success(p_crit, eps, 0.99, 0.0)
        print(f"criterion 7: eps={eps} threshold={threshold!r} margin={margin:.3e}")
        assert margin > 0.0, (eps, margin)
        assert threshold >= p_crit - 1e-12, (eps, threshold, p_crit)
    assert t_curve < 300.0


def test_criterion_08_planner_calculus_consistency():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    violations = 0
    for _ in range(100):
        # confidence/round-count inversion: the planned N is minimal
        x = rng.uniform(1e-4, 0.3)
        budget = rng.uniform(1e-6, 0.99)
        eps = rng.uniform(0.0, 0.45)
        n = rounds_needed(x, budget, eps)
        if deviation_confidence(x, n, eps) > budget:
            violations += 1
        if n > 1 and deviation_confidence(x, n - 1, eps) <= budget:
            violations += 1

        # estimate above threshold always certifies the selection step
        p_crit = rng.uniform(0.76, 0.9999)
        delta = rng.uniform(0.0, 0.99)
        slack = rng.uniform(0.0, 0.05)
        threshold = threshold_success(p_crit, eps, delta, slack)
        u = rng.uniform(1e-6, 1.0)
        p_est = threshold + u * (1.0 + slack - threshold)
        if p_est > threshold:
            q = bad_fraction_bound(p_est, slack, p_crit)
            if not selection_condition(q, eps, delta):
                violations += 1
    print(f"criterion 8: {violations} violations over 100 grid points")
    assert violations == 0


def test_criterion_09_protocol_end_to_end_soundness():
    t0 = time.perf_counter()
    params = plan_protocol(0.3, 0.29, 0.9)
    assert params.n_rounds > MATERIALIZE_LIMIT
    print(f"criterion 9: planned N={params.n_rounds}, threshold={params.p_threshold:.9f}")

    honest = estimate_output_bias(params, HonestDevice(ghz_mermin_strategy()), 1000, ACCEPTANCE_SEED)
    print(f"criterion 9: honest abort_rate={honest.abort_rate} bias_ci={honest.bias_interval}")
    assert honest.abort_rate <= 2 * (1.0 - 0.9)
    assert honest.bias_interval[0] == 0.0

    for name, adversary in attack_suite().items():
        est = estimate_output_bias(params, AdversarialDevice(adversary), 200, ACCEPTANCE_SEED + 1)
        print(f"criterion 9: attack {name}: abort_rate={est.abort_rate} bias={est.bias}")
        if est.no_data or est.abort_rate >= 0.95:
            continue
        sigma = math.sqrt(0.25 / est.emitted)
        assert est.bias <= 0.29 + 3.0 * sigma, (name, est.bias)
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: finished in {elapsed:.1f}s")
    assert elapsed < 600.0


def test_criterion_10_analytic_sdp_battery():
    for name, problem, optimum in analytic_problems():
        sol = solve(problem)
        assert sol.status == STATUS_OPTIMAL, name
        assert abs(sol.objective_value - optimum) <= 1e-6, (name, sol.objective_value, optimum)
        report = verify(problem, sol, 1e-6)
        assert report["passed"], (name, report)
        print(f"criterion 10: {name}: {sol.objective_value:.9f} (target {optimum:.9f}) verified")
    bad = solve(infeasible_problem())
    assert bad.status == STATUS_INFEASIBLE
    assert bad.certificate["kind"] == "primal_infeasible"
    print("criterion 10: deliberate infeasible problem flagged with certificate")
