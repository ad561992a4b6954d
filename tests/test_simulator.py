import collections
import math
from functools import reduce

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import randamp.simulator as sim
import randamp.sources as sources
import randamp.strategies as strategies
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
    run_batch,
    run_protocol,
)
from randamp.games import mermin_game
from randamp.sources import SignPattern, constant_sign, parity_sign, round_position_sign, table_sign
from randamp.strategies import (
    DeterministicStrategy,
    NoiseModel,
    QuantumStrategy,
    behavior_of_deterministic,
    behavior_of_quantum,
    ghz_mermin_strategy,
)

from reference_behaviors import dipping_product_strategy, loop_behavior_of_quantum, random_qubit_strategy

GHZ = ghz_mermin_strategy()


def make_params(n_rounds, p_threshold, epsilon=0.3, x=0.01, p_crit=0.97):
    return ProtocolParams(
        epsilon=epsilon, eps_prime_target=0.29, delta=0.9, x=x,
        n_rounds=n_rounds, p_crit=p_crit, p_threshold=p_threshold,
    )


def collect_runs(params, device, runs, seed):
    wins = []
    aborts = 0
    zeros = 0
    emitted = 0
    for run in run_batch(params, device, runs, seed):
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
    `searchsorted` per round.  Its Born tables come from the per-cell
    loop and its win probabilities from its own sum over `game.win`, so
    none of the simulator's table helpers is compared with itself."""
    game = mermin_game()
    rng = np.random.default_rng(seed)
    blocks, source = sim._resolve_schedule(params, device, rng, game)
    n = params.n_rounds
    counts = sim._block_round_counts(blocks, n)
    behaviors = [
        behavior_of_deterministic(b.strategy, game) if isinstance(b.strategy, DeterministicStrategy)
        else loop_behavior_of_quantum(b.strategy, game)
        for b in blocks
    ]
    round_block = np.repeat(np.arange(len(blocks)), counts)
    cells = game.admissible_inputs()
    win_prob = [
        {x: float(sum(bh.table[x][o] for o in game.all_outputs() if game.win(x, o))) for x in cells}
        for bh in behaviors
    ]
    flat_rows = [{x: np.cumsum(bh.table[x].ravel()) for x in cells} for bh in behaviors]
    out_shape = tuple(game.output_cardinalities)

    succ = source.sign.succ

    def round_input_distribution(state):
        dist = {}
        pa0 = source.next_bit_probability(state)
        for a in (0, 1):
            pa = pa0 if a == 0 else 1.0 - pa0
            pb0 = source.next_bit_probability(succ[2 * state + a])
            for b in (0, 1):
                pb = pb0 if b == 0 else 1.0 - pb0
                dist[(a, b, a ^ b)] = pa * pb
        return dist

    # the pattern's state after the bits drawn so far, and their number
    state, bits_used = 0, 0

    def draw():
        nonlocal state, bits_used
        bit = 0 if rng.random() < source.next_bit_probability(state) else 1
        state, bits_used = succ[2 * state + bit], bits_used + 1
        return bit

    inputs, outputs, wins = [], [], []
    p_avg_sum = 0.0
    for j in range(n):
        k = int(round_block[j])
        dist_j = round_input_distribution(state)
        p_avg_sum += sum(p * win_prob[k][x] for x, p in dist_j.items())
        a = draw()
        b = draw()
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
            source_bits_used=bits_used, selection_draws=0, **transcript,
        )
    n_bits = (n - 1).bit_length()
    draws = 0
    while True:
        draws += 1
        idx = 0
        for _ in range(n_bits):
            idx = (idx << 1) | draw()
        if idx < n:
            break
    return ProtocolRun(
        aborted=False, selected_round=idx, output_bit=outputs[idx][0],
        source_bits_used=bits_used, selection_draws=draws, **transcript,
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
    "table-depth-0": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(0.8, GHZ), ScheduleBlock(0.2, LOSE_110)),), (table_sign({(): -1}, depth=0),)
    )),
    # 15 states: every history of up to three bits
    "table-depth-3": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, LOSE_110),),),
        (table_sign({(0, 1, 1): -1, (1, 0, 0): -1, (0, 1): -1, (1,): -1}, depth=3),)
    )),
    # parity-split with the losing block first: each state's round term
    # changes at the block boundary the other way round
    "parity-lose-first": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(0.3, LOSE_110), ScheduleBlock(0.7, GHZ)),), (parity_sign(),)
    )),
    # a constant +1 sign over the bits drawn counted mod 3: a round ends
    # back in the start state only every third round, so the pattern is
    # not round-local, though every round sees the same conditionals
    "drifting-counter": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, LOSE_110),),), (SignPattern((1, 1, 1), (1, 1, 2, 2, 0, 0)),)
    )),
    "dipping-row": AdversarialDevice(AdversaryModel(
        (1.0,), ((ScheduleBlock(1.0, dipping_product_strategy()),),), (constant_sign(+1),)
    )),
    "random-qubit": HonestDevice(random_qubit_strategy(1)[0]),
}


@pytest.mark.parametrize("epsilon", [0.3, 0.07])
@pytest.mark.parametrize("name", sorted(REFERENCE_DEVICES))
def test_materialized_runs_match_the_round_loop(name, epsilon):
    """Same transcript, p_avg and selection as the per-round loop, bit for
    bit, for emitted and aborted runs alike.  At epsilon 0.07 the
    depth-1 table adversary's p_avg changes if a round's four cell terms
    are summed in another order.  N = 2048, with one seed, lies in the
    benchmark's range of round counts."""
    device = REFERENCE_DEVICES[name]
    for n, seeds in ((1, 3), (2, 3), (3, 3), (50, 3), (777, 3), (2048, 1)):
        for p_threshold in (0.5, 0.99):
            params = make_params(n, p_threshold, epsilon=epsilon, p_crit=0.999)
            for seed in range(seeds):
                assert run_protocol(params, device, seed) == loop_run_protocol(params, device, seed)


@pytest.mark.parametrize("name", sorted(REFERENCE_DEVICES))
def test_materialized_transcripts_hold_python_ints_and_bools(name):
    """Run equality cannot see numpy scalars in a transcript (np.True_ ==
    True), so the types are pinned: tuples of tuples of int, and a tuple
    of bool."""
    for p_threshold in (0.5, 0.99):
        run = run_protocol(make_params(300, p_threshold), REFERENCE_DEVICES[name], seed=4)
        for rows in (run.inputs, run.outputs):
            assert type(rows) is tuple and len(rows) == run.n_rounds
            assert {type(row) for row in rows} == {tuple}
            assert {type(v) for row in rows for v in row} == {int}
        assert type(run.wins) is tuple and len(run.wins) == run.n_rounds
        assert {type(w) for w in run.wins} == {bool}


# Aggregated runs at N = 5000, threshold 0.9 and seed 0: total_wins,
# p_avg.hex(), selected_round, output_bit and selection_draws.
AGGREGATED_DRAWS = {
    "honest": (5000, "0x1.0000000000000p+0", 4352, 1, 1),
    "depolarized": (4996, "0x1.ffbe76c8b4399p-1", 4352, 1, 1),
    "steered-deterministic": (4768, "0x1.eb851eb851eb8p-1", 768, 0, 2),
    "all-zeros": (3177, "0x1.47ae147ae147cp-1", None, None, 0),
    "round-split": (5000, "0x1.fffac1d29dc72p-1", 512, 1, 1),
    "threshold-riding": (5000, "0x1.0000000000000p+0", 2176, 1, 1),
    "lambda-mixture": (4821, "0x1.eb851eb851ebap-1", 2234, 0, 2),
}


@pytest.mark.parametrize("name", sorted(AGGREGATED_DRAWS))
def test_aggregated_runs_keep_their_draws(name, monkeypatch):
    """The aggregated draws have no per-round reference, so these values
    pin them bit for bit: the multinomial and binomial counts, the order
    in which p_avg is summed, the selection and the selected round's
    cell, win and bit draws.  all-zeros aborts."""
    monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    run = run_protocol(make_params(5000, 0.9), REFERENCE_DEVICES[name], seed=0)
    assert run.aggregated
    got = (run.total_wins, run.p_avg.hex(), run.selected_round, run.output_bit, run.selection_draws)
    assert got == AGGREGATED_DRAWS[name]


# Materialized runs steered on the history at N = 2048, threshold 0.5,
# p_crit 0.999 and seed 0: total_wins, p_avg.hex(), selected_round,
# output_bit and selection_draws, keyed by device and epsilon.
HISTORY_DRAWS = {
    ("parity-split", 0.3): (2021, "0x1.f7ccccccccc84p-1", 1560, 0, 1),
    ("parity-lose-first", 0.3): (1956, "0x1.e770a3d70a3bap-1", 1560, 0, 1),
    ("table-depth-1", 0.3): (1862, "0x1.cc59999999979p-1", 1330, 0, 1),
    ("table-depth-3", 0.3): (1859, "0x1.cd5eb851eb835p-1", 1042, 0, 1),
    ("parity-split", 0.07): (2002, "0x1.f37049ba5e301p-1", 1562, 0, 1),
    ("parity-lose-first", 0.07): (1905, "0x1.da608ce703b11p-1", 1562, 0, 1),
    ("table-depth-1", 0.07): (1639, "0x1.91d841893749fp-1", 1562, 1, 1),
    ("table-depth-3", 0.07): (1631, "0x1.923c6dc5d6362p-1", 1818, 1, 1),
}


@pytest.mark.parametrize("name, epsilon", sorted(HISTORY_DRAWS))
def test_history_steered_runs_keep_their_draws(name, epsilon):
    """Pins the history-steered runs independently of `loop_run_protocol`,
    which shares the source reads with the run it checks: the input
    stream, p_avg summed in round order, and the selection continuing the
    pattern's state after the 2N round bits."""
    run = run_protocol(make_params(2048, 0.5, epsilon=epsilon, p_crit=0.999), REFERENCE_DEVICES[name], seed=0)
    assert not run.aggregated
    got = (run.total_wins, run.p_avg.hex(), run.selected_round, run.output_bit, run.selection_draws)
    assert got == HISTORY_DRAWS[name, epsilon]


@pytest.mark.parametrize("n", [500, 4000])
def test_a_run_reads_the_source_once_per_pattern_state(n, monkeypatch):
    """A materialized run reads `next_bit_probability` once per state of
    its pattern, however many rounds and selection bits it draws: one
    read for a constant sign, two for parity, three for a round-local
    pattern over three states, whose run aborts and draws no selection
    bits, and fifteen for a depth-3 table."""
    calls = collections.Counter()
    read = sources.ExtremalSource.next_bit_probability

    def counted(source, state):
        calls[state] += 1
        return read(source, state)

    monkeypatch.setattr(sources.ExtremalSource, "next_bit_probability", counted)
    for pattern, p_threshold in ((constant_sign(+1), 0.5), (parity_sign(), 0.5),
                                 (round_position_sign(+1, -1, +1), 1.0),
                                 (table_sign({(0, 1, 1): -1, (1,): -1}, depth=3), 0.5)):
        calls.clear()
        device = AdversarialDevice(AdversaryModel((1.0,), ((ScheduleBlock(1.0, LOSE_110),),), (pattern,)))
        run = run_protocol(make_params(n, p_threshold), device, seed=5)
        assert run.aborted == (p_threshold == 1.0)
        assert calls == collections.Counter(range(len(pattern.signs)))


def test_runs_beyond_int64_rounds_fail_before_any_draw(monkeypatch):
    """Aggregated round counts are drawn as int64: N = 2^63 - 1 runs, and
    one round more is refused before the run's first draw."""
    run = run_protocol(make_params(sim.AGGREGATE_LIMIT, 0.9), HonestDevice(GHZ), seed=0)
    assert run.aggregated and run.total_wins == run.n_rounds

    def no_draw(*args):
        raise AssertionError("drew the schedule")

    monkeypatch.setattr(sim, "_resolve_schedule", no_draw)
    with pytest.raises(ValueError, match=r"9223372036854775808 rounds exceed 2\^63 - 1"):
        run_protocol(make_params(sim.AGGREGATE_LIMIT + 1, 0.9), HonestDevice(GHZ), seed=0)


def fresh_devices():
    """The honest device, noiseless and depolarized, and the attack suite,
    built from new strategy objects, so no behavior is memoized on them."""
    ghz = ghz_mermin_strategy()
    return {
        "honest": HonestDevice(ghz),
        "depolarized": HonestDevice(ghz, NoiseModel(0.99999)),
        **{name: AdversarialDevice(adversary) for name, adversary in attack_suite().items()},
    }


def block_behaviors(device):
    """Every behavior a run against `device` reads: the memoized behaviors
    of its (depolarized) strategies, read through the strategies module."""
    game = mermin_game()
    if isinstance(device, HonestDevice):
        played = [device.strategy]
        if device.noise.visibility < 1.0:
            played = [strategies.apply_depolarizing(device.strategy, device.noise)]
    else:
        played = [b.strategy for blocks in device.adversary.device_blocks for b in blocks]
    return [
        strategies.behavior_of_deterministic(s, game) if isinstance(s, DeterministicStrategy)
        else strategies.behavior_of_quantum(s, game)
        for s in played
    ]


# a materialized and a planner-scale round count
BATCH_ROUNDS = (700, 65746814205468)


@pytest.mark.parametrize("name", sorted(fresh_devices()))
def test_a_batch_builds_each_behavior_once(name, monkeypatch):
    """Over the runs of batches at a materialized and at a planner-scale N,
    each (strategy, game) behavior, each (strategy, visibility)
    depolarized copy and each behavior's tables are built once, while
    every run still calls the public `behavior_of_quantum` per quantum
    block and `apply_depolarizing` per depolarized run, the calls the
    benchmark's coverage guard counts."""
    built = []
    for builder in ("_quantum_behavior", "_deterministic_behavior", "_depolarized"):
        def build(strategy, key, builder=builder, original=getattr(strategies, builder)):
            built.append((builder, id(strategy), key))
            return original(strategy, key)

        monkeypatch.setattr(strategies, builder, build)
    tabled = []

    def tables(behavior, original=sim._BehaviorTables):
        tabled.append(id(behavior))
        return original(behavior)

    monkeypatch.setattr(sim, "_BehaviorTables", tables)
    public = collections.Counter()
    for function in ("behavior_of_quantum", "apply_depolarizing"):
        def call(*args, function=function, original=getattr(sim, function)):
            public[function] += 1
            return original(*args)

        monkeypatch.setattr(sim, function, call)

    device = fresh_devices()[name]
    if isinstance(device, HonestDevice):
        played = [(device.strategy,)]
    else:
        played = [tuple(b.strategy for b in blocks) for blocks in device.adversary.device_blocks]
    runs = 0
    # every device here steers round-locally, so it can be aggregated
    for n in BATCH_ROUNDS:
        for run in run_batch(make_params(n, 0.9), device, 20, seed=3):
            assert run.aggregated == (n > sim.MATERIALIZE_LIMIT)
            runs += 1

    assert len(built) == len(set(built))
    assert sorted(tabled) == sorted({id(b): b for b in block_behaviors(device)})
    if name == "depolarized":
        assert sorted(b for b, _, _ in built) == ["_depolarized", "_quantum_behavior"]
        assert public == {"apply_depolarizing": runs, "behavior_of_quantum": runs}
        return
    distinct = {id(s): s for blocks in played for s in blocks}
    assert sorted(i for _, i, _ in built) == sorted(distinct)
    for builder, i, key in built:
        quantum = isinstance(distinct[i], QuantumStrategy)
        assert builder == ("_quantum_behavior" if quantum else "_deterministic_behavior")
        assert key is mermin_game()
    # every hidden value of the suite plays the same number of quantum blocks
    (quantum_blocks,) = {sum(isinstance(s, QuantumStrategy) for s in blocks) for blocks in played}
    assert public["behavior_of_quantum"] == runs * quantum_blocks
    assert public["apply_depolarizing"] == 0


@pytest.mark.parametrize("forced", [False, True], ids=["materialized", "aggregated"])
def test_runs_do_not_depend_on_what_ran_before(forced, monkeypatch):
    """A (device, seed) gives the same run, every field and p_avg to the
    bit, as the first run on new strategy objects, after the other
    devices' runs on shared ones, and again once every memo (behaviors,
    depolarized copies, behavior tables) is built."""
    if forced:
        monkeypatch.setattr(sim, "MATERIALIZE_LIMIT", 0)
    params = make_params(900, 0.9)
    seeds = (0, 1, 2)
    names = sorted(fresh_devices())
    first = {(name, seed): run_protocol(params, fresh_devices()[name], seed) for name in names for seed in seeds}
    shared = fresh_devices()
    for _ in range(2):
        for seed in seeds:
            for name in reversed(names):
                run = run_protocol(params, shared[name], seed)
                assert run.aggregated == forced
                expected = first[name, seed]
                assert run == expected
                assert run.p_avg.hex() == expected.p_avg.hex()


@pytest.mark.parametrize("seed", range(1, 40, 2))
def test_win_table_sums_match_the_per_output_loop(seed):
    """Win probabilities and P(first output 0 | win status), read off the
    win table, equal the sums over `game.win` output by output, bit for
    bit.  Random rows make the result depend on the summation order,
    which the transcripts' p_avg is too coarse to show."""
    strategy, game = random_qubit_strategy(seed)
    behavior = behavior_of_quantum(strategy, game)
    for x, wins in zip(sim._CELLS, sim._win_table(game)):
        row = behavior.table[x]
        expected = float(sum(row[o] for o in game.all_outputs() if game.win(x, o)))
        assert sim._win_probability(row, wins) == expected
        for won in (False, True):
            num = den = 0.0
            for o in game.all_outputs():
                if game.win(x, o) == won:
                    den += float(row[o])
                    if o[0] == 0:
                        num += float(row[o])
            if den <= 0.0:
                with pytest.raises(ValueError, match="zero-probability"):
                    sim._alice_zero_given_status(row, wins, won)
            else:
                assert sim._alice_zero_given_status(row, wins, won) == num / den


@pytest.mark.parametrize("name", sorted(REFERENCE_DEVICES))
def test_behavior_tables_equal_fresh_sums(name):
    """Each behavior's tables, built once and kept on it, hold the win
    probabilities `_win_probability` sums afresh, to the bit, their
    clipped copies, the cumulative rows and P(first output 0 | win
    status), which raises for a zero-probability status each time it is
    asked for.  Repr ignores the tables."""
    for behavior in block_behaviors(REFERENCE_DEVICES[name]):
        text = repr(behavior)
        tables = sim._tables(behavior)
        assert sim._tables(behavior) is tables
        assert repr(behavior) == text and "_tables" not in text
        for c, (x, wins) in enumerate(zip(sim._CELLS, sim._win_table(mermin_game()))):
            row = behavior.table[x]
            fresh = sim._win_probability(row, wins)
            assert tables.win_prob[c].hex() == fresh.hex()
            assert tables.clipped[c].hex() == min(max(fresh, 0.0), 1.0).hex()
            assert np.array_equal(tables.cumulative[c], np.cumsum(row.ravel()))
            for won in (False, True):
                try:
                    expected = sim._alice_zero_given_status(row, wins, won)
                except ValueError:
                    for _ in range(2):
                        with pytest.raises(ValueError, match="zero-probability"):
                            tables.p_zero(c, won)
                else:
                    assert tables.p_zero(c, won).hex() == expected.hex()
        for array in (tables.clipped, *tables.cumulative):
            with pytest.raises(ValueError):
                array[0] = 0.5


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


@pytest.mark.parametrize("weights", [(math.nan,), (0.5, math.nan), (math.nan, 1.0)])
def test_adversary_model_rejects_nan_weights(weights):
    block = (ScheduleBlock(1.0, GHZ),)
    sign = constant_sign(+1)
    with pytest.raises(ValueError, match="probability distribution"):
        AdversaryModel(weights, (block,) * len(weights), (sign,) * len(weights))


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
    with pytest.raises(ValueError, match="25 source bits used, expected 24"):
        ProtocolRun(**{**base, "source_bits_used": 25})
    with pytest.raises(ValueError, match="0 selection draws"):
        ProtocolRun(**{**base, "selection_draws": 0, "source_bits_used": 20})
    aborted = {**base, "aborted": True, "selected_round": None, "output_bit": None}
    ProtocolRun(**{**aborted, "selection_draws": 0, "source_bits_used": 20})
    with pytest.raises(ValueError, match="1 selection draws"):
        ProtocolRun(**aborted)


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


def test_block_counts_never_exceed_the_rounds():
    """Fractions accepted within 1e-12 of summing to 1 can put a block's
    rounded end past N; every end is clamped into [previous end, N]."""
    n = 65583499449540
    blocks = tuple(ScheduleBlock(f, GHZ) for f in (0.6, 0.4 + 9e-13, 0.0))
    AdversaryModel((1.0,), (blocks,), (constant_sign(+1),))
    counts = sim._block_round_counts(blocks, n)
    assert min(counts) >= 0 and sum(counts) == n


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.integers(1, 2**63),
       st.floats(-1e-12, 1e-12))
def test_block_counts_are_nonnegative_and_sum_to_n(weights, n, excess):
    """Over fraction vectors `AdversaryModel` accepts and N up to 2^63."""
    total = sum(weights)
    assume(total > 0.0)
    fractions = [w / total for w in weights]
    fractions[0] = min(1.0, max(0.0, fractions[0] + excess))
    assume(abs(sum(fractions) - 1.0) <= 1e-12)
    counts = sim._block_round_counts(tuple(ScheduleBlock(f, GHZ) for f in fractions), n)
    assert min(counts) >= 0 and sum(counts) == n


PLANNER_DEVICES = ("honest", "depolarized", "steered-deterministic", "all-zeros", "round-split",
                   "threshold-riding", "lambda-mixture", "table-depth-0")


@settings(max_examples=60, deadline=None)
@given(st.integers(sim.MATERIALIZE_LIMIT + 1, 2**53) | st.integers(2**53 + 1, 10**17),
       st.sampled_from(PLANNER_DEVICES), st.floats(0.5, 1.0), st.integers(0, 2**32 - 1))
def test_aggregated_runs_at_planner_scale(n, name, p_threshold, seed):
    """Aggregated runs at N up to 1e17, past 2^53 where a float no longer
    holds every win count, emitted and aborted: 0 <= p_est <= 1, at most
    N wins, and 2 N + draws * ceil(log2 N) source bits."""
    run = run_protocol(make_params(n, p_threshold), REFERENCE_DEVICES[name], seed)
    assert run.aggregated
    assert 0.0 <= run.p_est <= 1.0
    assert 0 <= run.total_wins <= n
    assert run.source_bits_used == 2 * n + run.selection_draws * (n - 1).bit_length()
    assert run.aborted == (run.selection_draws == 0)


def test_protocol_run_rejects_wins_or_a_round_outside_its_rounds():
    run = dict(n_rounds=10, total_wins=10, p_est=1.0, aborted=False, selected_round=9, output_bit=0,
               p_avg=1.0, source_bits_used=24, selection_draws=1, aggregated=True)
    ProtocolRun(**run)
    with pytest.raises(ValueError, match="11 wins in 10 rounds"):
        ProtocolRun(**{**run, "total_wins": 11, "p_est": 1.1})
    with pytest.raises(ValueError, match="selected round 10"):
        ProtocolRun(**{**run, "selected_round": 10})
