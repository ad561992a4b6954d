import math
import re
from functools import reduce

import numpy as np
import pytest

import randamp.simulator as sim
from randamp.protocol import ProtocolParams, deviation_confidence
from randamp.simulator import (
    AdversarialDevice,
    AdversaryModel,
    HonestDevice,
    ProtocolRun,
    ScheduleBlock,
    _wilson_interval,
    attack_suite,
    estimate_output_bias,
    run_protocol,
    transcript_lines,
)
from randamp.games import mermin_game
from randamp.sources import constant_sign, parity_sign, table_sign
from randamp.strategies import (
    PAULI_X,
    PAULI_Y,
    DeterministicStrategy,
    NoiseModel,
    QuantumStrategy,
    behavior_of_quantum,
    ghz_mermin_strategy,
    projective_pair,
    pure_state_density,
)

GHZ = ghz_mermin_strategy()
LINE_SHAPE = re.compile(r"^\d+ [01]{3} [01]{3} [01]$")


def make_params(n_rounds, p_threshold, epsilon=0.3, x=0.01, p_crit=0.97):
    return ProtocolParams(
        epsilon=epsilon, eps_prime_target=0.29, delta=0.9, x=x,
        n_rounds=n_rounds, p_crit=p_crit, p_threshold=p_threshold,
    )


def collect_runs(params, device, runs, seed):
    seeds = np.random.SeedSequence(seed).spawn(runs)
    wins = []
    aborts = 0
    zeros = 0
    emitted = 0
    for s in seeds:
        run = run_protocol(params, device, np.random.default_rng(s))
        wins.append(run.total_wins)
        if run.aborted:
            aborts += 1
        else:
            emitted += 1
            zeros += int(run.output_bit == 0)
    return np.asarray(wins), aborts / runs, zeros, emitted


def test_honest_noiseless_wins_every_round():
    params = make_params(300, 0.99)
    run = run_protocol(params, HonestDevice(GHZ), seed=7)
    assert run.p_est == 1.0
    assert run.total_wins == 300
    assert not run.aborted
    assert all(run.wins)
    assert run.output_bit in (0, 1)
    assert 0 <= run.selected_round < 300
    assert not run.aggregated
    assert np.isclose(run.p_avg, 1.0, atol=1e-12)


def test_single_round_run_selects_round_zero():
    """With one round no selection bits are needed, only the two inputs."""
    params = make_params(1, 0.0)
    run = run_protocol(params, HonestDevice(GHZ), seed=3)
    assert run.selected_round == 0
    assert run.selection_draws == 1
    assert run.source_bits_used == 2


def test_source_bit_accounting_is_exact():
    params = make_params(100, 0.9)
    run = run_protocol(params, HonestDevice(GHZ), seed=11)
    n_bits = (100 - 1).bit_length()
    assert run.source_bits_used == 2 * 100 + run.selection_draws * n_bits
    assert run.selection_draws >= 1


def test_aborted_run_draws_no_selection_bits():
    # honest p_est is exactly 1 and the abort test is p_est <= threshold
    params = make_params(100, 1.0)
    run = run_protocol(params, HonestDevice(GHZ), seed=11)
    assert run.aborted
    assert run.output_bit is None
    assert run.selected_round is None
    assert run.selection_draws == 0
    assert run.source_bits_used == 200


def test_selection_redraws_are_accounted():
    """N=3 uses 2-bit selection; index 3 forces a redraw often enough
    to observe over 50 unbiased runs."""
    params = make_params(3, 0.5, epsilon=0.0, p_crit=0.9)
    draws = []
    for seed in range(50):
        run = run_protocol(params, HonestDevice(GHZ), seed=seed)
        assert run.selected_round < 3
        assert run.source_bits_used == 6 + 2 * run.selection_draws
        draws.append(run.selection_draws)
    assert max(draws) >= 2


def test_runs_are_deterministic_given_seed():
    params = make_params(60, 0.9)
    device = AdversarialDevice(attack_suite()["lambda-mixture"])
    a = run_protocol(params, device, seed=123)
    b = run_protocol(params, device, seed=123)
    assert a == b
    c = run_protocol(params, device, seed=124)
    assert (a.inputs, a.outputs) != (c.inputs, c.outputs)


def loop_run_protocol(params, device, seed):
    """Reference for the materialized `run_protocol`: one round at a time,
    with three scalar uniforms, an input-cell distribution and a
    `searchsorted` per round."""
    game = mermin_game()
    rng = np.random.default_rng(seed)
    blocks, source = sim._resolve_schedule(params, device, rng, game)
    n = params.n_rounds
    counts = sim._block_round_counts(blocks, n)
    behaviors = [sim._block_behavior(b.strategy, game) for b in blocks]
    round_block = np.repeat(np.arange(len(blocks)), counts)
    cells = game.admissible_inputs()
    win_prob = [{x: sim._win_probability(bh, game, x) for x in cells} for bh in behaviors]
    flat_rows = [{x: np.cumsum(bh.table[x].ravel()) for x in cells} for bh in behaviors]
    out_shape = tuple(game.output_cardinalities)

    def round_input_distribution(history):
        dist = {}
        pa0 = source.next_bit_probability(history)
        for a in (0, 1):
            pa = pa0 if a == 0 else 1.0 - pa0
            pb0 = source.next_bit_probability(history + [a])
            for b in (0, 1):
                pb = pb0 if b == 0 else 1.0 - pb0
                dist[(a, b, a ^ b)] = pa * pb
        return dist

    stream = sim._SourceStream(source, rng)
    inputs, outputs, wins = [], [], []
    p_avg_sum = 0.0
    for j in range(n):
        k = int(round_block[j])
        dist_j = round_input_distribution(stream.history)
        p_avg_sum += sum(p * win_prob[k][x] for x, p in dist_j.items())
        a = stream.draw()
        b = stream.draw()
        x = (a, b, a ^ b)
        row = flat_rows[k][x]
        flat_idx = int(np.searchsorted(row, rng.random(), side="right"))
        o = tuple(int(v) for v in np.unravel_index(min(flat_idx, row.size - 1), out_shape))
        inputs.append(x)
        outputs.append(o)
        wins.append(bool(game.win(x, o)))

    total_wins = int(sum(wins))
    p_est = total_wins / n
    transcript = dict(
        n_rounds=n, total_wins=total_wins, p_est=p_est, p_avg=p_avg_sum / n,
        aggregated=False, inputs=tuple(inputs), outputs=tuple(outputs), wins=tuple(wins),
    )
    if p_est <= params.p_threshold:
        return ProtocolRun(
            aborted=True, selected_round=None, output_bit=None,
            source_bits_used=stream.count, selection_draws=0, **transcript,
        )
    n_bits = (n - 1).bit_length()
    draws = 0
    while True:
        draws += 1
        idx = 0
        for _ in range(n_bits):
            idx = (idx << 1) | stream.draw()
        if idx < n:
            break
    return ProtocolRun(
        aborted=False, selected_round=idx, output_bit=outputs[idx][0],
        source_bits_used=stream.count, selection_draws=draws, **transcript,
    )


def dipping_product_strategy():
    """Each party measures n.sigma, n at angle 1.552 in the X-Y plane, on
    the product of its +1 eigenstates.  The Born rule rounds two
    zero-probability outcomes at cell 000 to about -7e-18 and -9e-17,
    which `Behavior` sets to 0."""
    n = math.cos(1.552) * PAULI_X + math.sin(1.552) * PAULI_Y
    plus = np.linalg.eigh(n)[1][:, 1]
    per_party = (projective_pair(n), projective_pair(PAULI_Y))
    return QuantumStrategy(
        (2, 2, 2), pure_state_density(np.kron(np.kron(plus, plus), plus)), (per_party,) * 3
    )


LOSE_110 = DeterministicStrategy(((0, 1), (0, 1), (0, 0)))
REFERENCE_DEVICES = {
    "honest": HonestDevice(GHZ),
    "depolarized": HonestDevice(GHZ, NoiseModel(0.999)),
    **{name: AdversarialDevice(adversary) for name, adversary in attack_suite().items()},
    "parity-split": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(0.9, GHZ), ScheduleBlock(0.1, LOSE_110)),), (parity_sign(),)
    )),
    "table-depth-1": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, LOSE_110),),), (table_sign({(0,): -1, (1,): 1}, depth=1),)
    )),
    "dipping-row": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, dipping_product_strategy()),),), (constant_sign(+1),)
    )),
}


@pytest.mark.parametrize("epsilon", [0.3, 0.07])
@pytest.mark.parametrize("name", sorted(REFERENCE_DEVICES))
def test_materialized_runs_match_the_round_loop(name, epsilon):
    """Same transcript, p_avg and selection as the per-round loop, bit for
    bit, for emitted and aborted runs alike.  At epsilon 0.07 the
    depth-1 table adversary's p_avg changes if a round's four cell terms
    are summed in another order."""
    device = REFERENCE_DEVICES[name]
    for n in (1, 2, 3, 50, 777):
        for p_threshold in (0.5, 0.99):
            params = make_params(n, p_threshold, epsilon=epsilon, p_crit=0.999)
            for seed in range(3):
                assert run_protocol(params, device, seed) == loop_run_protocol(params, device, seed)


def test_behavior_rows_are_nonnegative_with_monotone_cumulative_sums():
    """The Born rule leaves negative rounding residue in the dipping
    product strategy's row at cell 000; its behavior clips it, so every
    row is nonnegative and its cumulative sum, which the materialized
    runs search, is non-decreasing."""
    game = mermin_game()
    strategy = dipping_product_strategy()
    born = [
        float(np.trace(strategy.state @ reduce(np.kron, [
            strategy.measurements[p][0][o[p]] for p in range(3)
        ])).real)
        for o in game.all_outputs()
    ]
    assert min(born) < 0.0
    behavior = behavior_of_quantum(strategy, game)
    for x in game.admissible_inputs():
        row = behavior.table[x].ravel()
        assert row.min() >= 0.0
        assert np.all(np.diff(np.cumsum(row)) >= 0.0)


def test_transcript_lines_shape():
    params = make_params(50, 0.9)
    run = run_protocol(params, HonestDevice(GHZ), seed=5)
    lines = transcript_lines(run)
    assert len(lines) == 50
    for j, line in enumerate(lines):
        assert LINE_SHAPE.match(line)
        assert line.split()[0] == str(j)
    parsed_wins = tuple(bool(int(line.split()[3])) for line in lines)
    assert parsed_wins == run.wins


def test_steered_deterministic_attack_quality():
    """Best classical strategy plus steering that starves its one losing
    input cell: per-round quality is exactly 0.96 at bias 0.3."""
    device = AdversarialDevice(attack_suite()["steered-deterministic"])
    params = make_params(2000, 0.9)
    run = run_protocol(params, device, seed=21)
    assert np.isclose(run.p_avg, 0.96, atol=1e-9)
    assert abs(run.p_est - 0.96) < 0.03
    assert not run.aborted

    strict = make_params(2000, 0.98)
    assert run_protocol(strict, device, seed=21).aborted


def test_all_zeros_attack_wins_only_one_cell():
    device = AdversarialDevice(attack_suite()["all-zeros"])
    params = make_params(500, 0.9)
    run = run_protocol(params, device, seed=2)
    assert np.isclose(run.p_avg, 0.64, atol=1e-9)
    assert run.aborted


def test_round_split_attack_average():
    device = AdversarialDevice(attack_suite()["round-split"])
    params = make_params(1000, 0.9)
    run = run_protocol(params, device, seed=9)
    # 999 perfect rounds and one steered classical round
    assert np.isclose(run.p_avg, (999 + 0.96) / 1000, atol=1e-9)


def test_threshold_riding_needs_planner_scale():
    """At 1e3 rounds the 1e-5 cheating fraction rounds away entirely."""
    device = AdversarialDevice(attack_suite()["threshold-riding"])
    params = make_params(1000, 0.9)
    run = run_protocol(params, device, seed=9)
    assert np.isclose(run.p_avg, 1.0, atol=1e-12)


def test_lambda_mixture_components_are_matched():
    """Both hidden values pair a strategy losing on one cell with
    steering that gives that cell probability 0.04."""
    device = AdversarialDevice(attack_suite()["lambda-mixture"])
    params = make_params(400, 0.9)
    for seed in range(6):
        run = run_protocol(params, device, seed=seed)
        assert np.isclose(run.p_avg, 0.96, atol=1e-9)


def test_zero_visibility_always_aborts():
    params = make_params(400, 0.9)
    device = HonestDevice(GHZ, NoiseModel(0.0))
    estimate = estimate_output_bias(params, device, runs=30, seed=4)
    assert estimate.abort_rate == 1.0
    assert estimate.no_data
    assert estimate.p_zero is None
    assert estimate.bias is None


def test_honest_output_bit_is_unbiased():
    params = make_params(50, 0.9)
    estimate = estimate_output_bias(params, HonestDevice(GHZ), runs=400, seed=8)
    assert estimate.abort_rate == 0.0
    assert estimate.emitted == 400
    lo, hi = estimate.p_zero_interval
    assert lo <= 0.5 <= hi
    assert estimate.bias_interval[0] == 0.0
    assert estimate.bias < 0.06


def test_wilson_interval_edges():
    lo, hi = _wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.06
    lo, hi = _wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and 0.94 < lo < 1.0
    lo, hi = _wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert np.isclose(lo + hi, 1.0, atol=1e-12)


def test_aggregated_path_matches_materialized_distribution(monkeypatch):
    """Forcing aggregation at a small round count must reproduce the
    materialized win-count and output statistics."""
    params = make_params(200, 0.8)
    device = HonestDevice(GHZ, NoiseModel(0.7))
    runs = 250

    wins_m, abort_m, zeros_m, emitted_m = collect_runs(params, device, runs, seed=31)
    monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    wins_a, abort_a, zeros_a, emitted_a = collect_runs(params, device, runs, seed=77)

    check = run_protocol(params, device, seed=0)
    assert check.aggregated
    assert check.inputs == ()

    # per-round success is 0.85; compare means within ~4.5 sigma
    sigma_mean = math.sqrt(200 * 0.85 * 0.15 / runs)
    assert abs(wins_m.mean() - 170.0) < 4.5 * sigma_mean
    assert abs(wins_a.mean() - 170.0) < 4.5 * sigma_mean
    assert abs(abort_m - abort_a) < 0.08
    for zeros, emitted in ((zeros_m, emitted_m), (zeros_a, emitted_a)):
        assert emitted > 0
        assert abs(zeros / emitted - 0.5) < 4.5 * math.sqrt(0.25 / emitted)


def test_aggregated_run_keeps_bit_accounting(monkeypatch):
    monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    params = make_params(100, 0.9)
    run = run_protocol(params, HonestDevice(GHZ), seed=13)
    assert run.aggregated
    n_bits = (100 - 1).bit_length()
    assert run.source_bits_used == 200 + run.selection_draws * n_bits
    with pytest.raises(ValueError):
        transcript_lines(run)


def test_aggregation_requires_round_local_steering(monkeypatch):
    monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    lose_110 = DeterministicStrategy(((0, 1), (0, 1), (0, 0)))
    adversary = AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, lose_110),),), (parity_sign(),)
    )
    params = make_params(64, 0.9)
    with pytest.raises(ValueError, match="aggregated"):
        run_protocol(params, AdversarialDevice(adversary), seed=1)


def test_abort_rate_obeys_concentration_bound(monkeypatch):
    """Empirical honest abort rate stays under the planner's deviation
    budget (the bound is loose, the margin is large)."""
    monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    params = make_params(2000, 0.75, epsilon=0.0, x=0.1, p_crit=0.9)
    device = HonestDevice(GHZ, NoiseModel(0.7))
    estimate = estimate_output_bias(params, device, runs=1000, seed=17)
    budget = deviation_confidence(0.1, 2000, 0.0)
    assert budget == pytest.approx(math.exp(-0.4), abs=1e-12)
    assert estimate.abort_rate <= budget + 0.05


def test_adversary_model_validation():
    block = (ScheduleBlock(1.0, GHZ),)
    sign = attack_suite()["steered-deterministic"].source_signs[0]
    with pytest.raises(ValueError):
        AdversaryModel((0.6, 0.3), (block, block), (sign, sign))
    with pytest.raises(ValueError):
        AdversaryModel((0.5, 0.5), (block,), (sign, sign))
    with pytest.raises(ValueError):
        AdversaryModel((), (), ())
    with pytest.raises(ValueError):
        AdversaryModel((1.5, -0.5), (block, block), (sign, sign))
    short = (ScheduleBlock(0.5, GHZ), ScheduleBlock(0.4, GHZ))
    with pytest.raises(ValueError):
        AdversaryModel((1.0,), (short,), (sign,))


def test_schedule_block_rejects_bad_fraction():
    with pytest.raises(ValueError):
        ScheduleBlock(1.2, GHZ)
    with pytest.raises(ValueError):
        ScheduleBlock(-0.1, GHZ)


def test_protocol_run_consistency_checks():
    base = dict(
        n_rounds=10, total_wins=10, p_est=1.0, aborted=False,
        selected_round=0, output_bit=1, p_avg=1.0,
        source_bits_used=24, selection_draws=1, aggregated=True,
    )
    ProtocolRun(**base)
    with pytest.raises(ValueError):
        ProtocolRun(**{**base, "total_wins": 9})
    with pytest.raises(ValueError):
        ProtocolRun(**{**base, "output_bit": None})
    with pytest.raises(ValueError):
        ProtocolRun(**{**base, "aborted": True})


def test_attack_suite_names():
    suite = attack_suite()
    assert set(suite) == {
        "steered-deterministic",
        "all-zeros",
        "round-split",
        "threshold-riding",
        "lambda-mixture",
    }
    for adversary in suite.values():
        assert isinstance(adversary, AdversaryModel)
        assert sum(adversary.lambda_weights) == pytest.approx(1.0)
