import copy
import math
import pickle

import numpy as np
import pytest

from randamp.games import (
    Behavior,
    InputDistribution,
    chsh_game,
    input_distribution_from_source,
    magic_square_game,
    mermin_game,
    success_probability,
    uniform_distribution,
)
from randamp.sources import canonical_mermin_source
from randamp.strategies import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DeterministicStrategy,
    NoiseModel,
    QuantumStrategy,
    apply_depolarizing,
    behavior_of_deterministic,
    behavior_of_quantum,
    biased_mermin_classical_value,
    classical_value,
    enumerate_deterministic,
    ghz_mermin_strategy,
    magic_square_quantum_strategy,
    projective_pair,
    pure_state_density,
    quantum_success,
)
from reference_behaviors import (
    dipping_product_strategy,
    loop_behavior_of_quantum,
    no_signalling_residual,
    random_qubit_strategy,
)


def chsh_optimal_strategy():
    """Singlet-frame optimal CHSH strategy, success (1 + 1/sqrt(2))/2.

    Bell state with A0=Z, A1=X, B0=(Z+X)/sqrt(2), B1=(Z-X)/sqrt(2).
    """
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    s = 1.0 / math.sqrt(2.0)
    alice = (projective_pair(PAULI_Z), projective_pair(PAULI_X))
    bob = (
        projective_pair(s * (PAULI_Z + PAULI_X)),
        projective_pair(s * (PAULI_Z - PAULI_X)),
    )
    return QuantumStrategy(
        local_dims=(2, 2),
        state=pure_state_density(phi),
        measurements=(alice, bob),
    )


REFERENCE_STRATEGIES = [
    (chsh_optimal_strategy, chsh_game),
    (ghz_mermin_strategy, mermin_game),
    (magic_square_quantum_strategy, magic_square_game),
]


BORN_CASES = {
    "ghz": lambda: (ghz_mermin_strategy(), mermin_game()),
    **{
        f"ghz-v{v}": lambda v=v: (apply_depolarizing(ghz_mermin_strategy(), NoiseModel(v)), mermin_game())
        for v in (1.0, 0.99995, 0.999, 0.5, 0.0)
    },
    "magic-square": lambda: (magic_square_quantum_strategy(), magic_square_game()),
    "chsh": lambda: (chsh_optimal_strategy(), chsh_game()),
    "dipping-product": lambda: (dipping_product_strategy(), mermin_game()),
    **{f"random-{seed}": lambda seed=seed: random_qubit_strategy(seed) for seed in range(50)},
}


@pytest.mark.parametrize("name", BORN_CASES)
def test_born_rule_matches_the_per_cell_loop(name):
    """The batched Born rule gives the per-cell loop's table bit for bit."""
    strategy, game = BORN_CASES[name]()
    batched = behavior_of_quantum(strategy, game)
    loop = loop_behavior_of_quantum(strategy, game)
    assert set(batched.table) == set(loop.table) == set(game.admissible_inputs())
    for x in game.admissible_inputs():
        assert np.array_equal(batched.table[x], loop.table[x]), x


def test_born_rule_rejects_a_mismatched_game():
    ghz = ghz_mermin_strategy()
    with pytest.raises(ValueError, match="number of parties"):
        behavior_of_quantum(ghz, chsh_game())
    x_pair, y_pair = ghz.measurements[0]
    one_input = QuantumStrategy(ghz.local_dims, ghz.state, ((x_pair,), *ghz.measurements[1:]))
    with pytest.raises(ValueError, match="one POVM per input"):
        behavior_of_quantum(one_input, mermin_game())
    three_outputs = tuple((p0, p1 / 2.0, p1 / 2.0) for p0, p1 in (x_pair, y_pair))
    wide = QuantumStrategy(ghz.local_dims, ghz.state, (three_outputs, *ghz.measurements[1:]))
    with pytest.raises(ValueError, match="one POVM element per output"):
        behavior_of_quantum(wide, mermin_game())


def test_enumeration_sizes():
    assert sum(1 for _ in enumerate_deterministic(chsh_game())) == 16
    assert sum(1 for _ in enumerate_deterministic(mermin_game())) == 64
    assert sum(1 for _ in enumerate_deterministic(magic_square_game())) == 4096


def test_unbiased_classical_values():
    assert abs(classical_value(chsh_game(), uniform_distribution(chsh_game()))[0] - 0.75) <= 1e-12
    assert abs(classical_value(mermin_game(), uniform_distribution(mermin_game()))[0] - 0.75) <= 1e-12
    ms = magic_square_game()
    assert abs(classical_value(ms, uniform_distribution(ms))[0] - 8.0 / 9.0) <= 1e-12


def test_classical_value_witness_attains_value():
    game = mermin_game()
    dist = uniform_distribution(game)
    value, witness = classical_value(game, dist)
    attained = success_probability(game, dist, behavior_of_deterministic(witness, game))
    assert np.isclose(attained, value, atol=1e-15)


def test_biased_mermin_classical_closed_form_matches_enumeration():
    """Closed form against brute-force enumeration on a 21-point grid."""
    game = mermin_game()
    for eps in np.linspace(0.0, 0.5, 21):
        dist = input_distribution_from_source(game, canonical_mermin_source(float(eps)))
        enumerated, _ = classical_value(game, dist)
        assert abs(biased_mermin_classical_value(float(eps)) - enumerated) <= 1e-12


@pytest.mark.parametrize("make_strategy,make_game", REFERENCE_STRATEGIES)
def test_quantum_behaviors_are_normalized_and_non_signalling(make_strategy, make_game):
    game = make_game()
    behavior = behavior_of_quantum(make_strategy(), game)
    for x in game.admissible_inputs():
        row = behavior.table[x]
        assert row.min() >= -1e-9
        assert abs(row.sum() - 1.0) <= 1e-9
    assert no_signalling_residual(behavior, game) <= 1e-9


@pytest.mark.parametrize("visibility", [0.0, 0.3, 0.7])
def test_depolarized_behaviors_are_normalized_and_non_signalling(visibility):
    game = mermin_game()
    noisy = apply_depolarizing(ghz_mermin_strategy(), NoiseModel(visibility))
    behavior = behavior_of_quantum(noisy, game)
    for x in game.admissible_inputs():
        assert abs(behavior.table[x].sum() - 1.0) <= 1e-9
    assert no_signalling_residual(behavior, game) <= 1e-9


def test_ghz_strategy_wins_every_admissible_input():
    game = mermin_game()
    behavior = behavior_of_quantum(ghz_mermin_strategy(), game)
    for x in game.admissible_inputs():
        win_mass = sum(
            behavior.prob(o, x) for o in game.all_outputs() if game.win(x, o)
        )
        assert np.isclose(win_mass, 1.0, atol=1e-10)


def test_chsh_optimal_strategy_attains_tsirelson():
    game = chsh_game()
    value = quantum_success(chsh_optimal_strategy(), game, uniform_distribution(game))
    assert np.isclose(value, 0.5 + math.sqrt(2) / 4.0, atol=1e-10)


def test_magic_square_strategy_is_perfect():
    game = magic_square_game()
    value = quantum_success(magic_square_quantum_strategy(), game, uniform_distribution(game))
    assert np.isclose(value, 1.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_classical_value_convex_in_distribution(seed):
    """max over a finite strategy set is convex: mixing distributions
    never beats mixing the optimal values."""
    game = chsh_game()
    rng = np.random.default_rng(seed)
    cells = game.admissible_inputs()

    def rand_dist():
        w = rng.random(len(cells))
        return InputDistribution(game, dict(zip(cells, w / w.sum())))

    d1, d2 = rand_dist(), rand_dist()
    t = rng.random()
    mixed = InputDistribution(
        game, {x: t * d1.prob(x) + (1 - t) * d2.prob(x) for x in cells}
    )
    v_mixed, _ = classical_value(game, mixed)
    v1, _ = classical_value(game, d1)
    v2, _ = classical_value(game, d2)
    assert v_mixed <= t * v1 + (1 - t) * v2 + 1e-12


@pytest.mark.parametrize("visibility", [0.0, 0.25, 0.6, 1.0])
def test_depolarizing_success_is_affine_in_visibility(visibility):
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.2))
    ideal = ghz_mermin_strategy()
    noisy = apply_depolarizing(ideal, NoiseModel(visibility))
    s_ideal = quantum_success(ideal, game, dist)
    s_mixed = quantum_success(apply_depolarizing(ideal, NoiseModel(0.0)), game, dist)
    expected = visibility * s_ideal + (1 - visibility) * s_mixed
    assert np.isclose(quantum_success(noisy, game, dist), expected, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("visibility", [0.0, 0.3, 0.99999, 1.0])
def test_depolarized_copy_equals_the_validated_construction(seed, visibility):
    """The copy skips re-checking its parent's measurements, yet equals the
    strategy built, and fully checked, from the same arrays."""
    strategy, _ = random_qubit_strategy(seed)
    dim = int(np.prod(strategy.local_dims))
    state = visibility * strategy.state + (1.0 - visibility) * np.eye(dim, dtype=complex) / dim
    expected = QuantumStrategy(strategy.local_dims, state, strategy.measurements)
    noisy = apply_depolarizing(strategy, NoiseModel(visibility))
    assert noisy.local_dims == expected.local_dims
    assert np.array_equal(noisy.state, expected.state)
    for per_input, expected_per_input in zip(noisy.measurements, expected.measurements):
        for povm, expected_povm in zip(per_input, expected_per_input):
            for E, expected_E in zip(povm, expected_povm, strict=True):
                assert np.array_equal(E, expected_E)


def test_invalid_strategies_still_raise():
    """Building a strategy checks its POVMs and its state."""
    ghz = ghz_mermin_strategy()
    (x0, x1), y_pair = ghz.measurements[0]
    short = ((x0, x1 / 2.0), y_pair)
    with pytest.raises(ValueError, match="does not sum to identity"):
        QuantumStrategy(ghz.local_dims, ghz.state, (short, *ghz.measurements[1:]))
    negative = ((x0 + x1, -x1), y_pair)
    with pytest.raises(ValueError, match="not PSD"):
        QuantumStrategy(ghz.local_dims, ghz.state, (negative, *ghz.measurements[1:]))
    with pytest.raises(ValueError, match="trace"):
        QuantumStrategy(ghz.local_dims, 2.0 * ghz.state, ghz.measurements)


def test_maximally_mixed_mermin_success_is_half():
    """The win predicate is parity-balanced, so uniform outputs win 1/2."""
    game = mermin_game()
    dist = uniform_distribution(game)
    flat = apply_depolarizing(ghz_mermin_strategy(), NoiseModel(0.0))
    assert np.isclose(quantum_success(flat, game, dist), 0.5, atol=1e-10)


def test_deterministic_strategy_lookup():
    s = DeterministicStrategy(((0, 1), (1, 0), (0, 0)))
    assert s.output(0, 1) == 1
    assert s.output(1, 0) == 1
    assert s.outputs((0, 0, 1)) == (0, 1, 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(1.5)
    with pytest.raises(ValueError):
        NoiseModel(-0.1)


def test_strategy_and_behavior_arrays_are_read_only():
    """A quantum strategy holds read-only copies of its state and
    operators, and behavior rows are read-only, so the memoized behaviors
    cannot go stale; the caller's own arrays stay writable."""
    state = pure_state_density(np.array([1, 0, 0, 0, 0, 0, 0, 1]))
    x_pair, y_pair = projective_pair(PAULI_X), projective_pair(PAULI_Y)
    strategy = QuantumStrategy((2, 2, 2), state, ((x_pair, y_pair),) * 3)
    noisy = apply_depolarizing(strategy, NoiseModel(0.5))
    game = mermin_game()
    rows = [
        behavior_of_quantum(strategy, game).table[(0, 0, 0)],
        behavior_of_quantum(noisy, game).table[(0, 1, 1)],
        behavior_of_deterministic(DeterministicStrategy(((0, 1), (0, 1), (0, 0))), game).table[(1, 1, 0)],
    ]
    for array in (strategy.state, strategy.measurements[2][1][0], noisy.state, *rows):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.25
    held = strategy.state.copy(), strategy.measurements[0][0][0].copy()
    state[0, 0] = x_pair[0][0, 0] = 0.25
    assert np.array_equal(strategy.state, held[0])
    assert np.array_equal(strategy.measurements[0][0][0], held[1])

    row = np.full((2, 2, 2), 0.125)
    behavior = Behavior(game, {x: row for x in game.admissible_inputs()})
    row[0, 0, 0] = 0.25
    assert behavior.table[(0, 0, 0)][0, 0, 0] == 0.125


DUPLICATES = {"pickle": lambda s: pickle.loads(pickle.dumps(s)), "deepcopy": copy.deepcopy, "copy": copy.copy}


@pytest.mark.parametrize("duplicate", DUPLICATES)
def test_copies_are_rebuilt_without_memos(duplicate):
    """A pickled or copied strategy is built anew from its fields: checked,
    read-only, equal in its behavior, and without its original's memos."""
    game = mermin_game()
    noisy = apply_depolarizing(ghz_mermin_strategy(), NoiseModel(0.9))
    lose_110 = DeterministicStrategy(((0, 1), (0, 1), (0, 0)))
    for strategy, behavior_of in ((noisy, behavior_of_quantum), (lose_110, behavior_of_deterministic)):
        original = behavior_of(strategy, game)
        twin = DUPLICATES[duplicate](strategy)
        assert type(twin) is type(strategy)
        assert not {"_behaviors", "_depolarized"} & set(vars(twin))
        rebuilt = behavior_of(twin, game)
        assert rebuilt is not original
        for x in game.admissible_inputs():
            assert np.array_equal(rebuilt.table[x], original.table[x])
    assert not DUPLICATES[duplicate](noisy).state.flags.writeable
