import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp.games import (
    Behavior,
    InputDistribution,
    chsh_game,
    input_distribution_from_source,
    magic_square_alice_bits,
    magic_square_bob_bits,
    magic_square_game,
    mermin_game,
    success_probability,
    uniform_distribution,
)
from randamp.sources import ExtremalSource, canonical_mermin_source, constant_sign, parity_sign
from reference_behaviors import no_signalling_residual

GAMES = [chsh_game, mermin_game, magic_square_game]


def uniformly_random_behavior(game):
    shape = tuple(game.output_cardinalities)
    row = np.full(shape, 1.0 / int(np.prod(shape)))
    return Behavior(game, {x: row for x in game.admissible_inputs()})


def random_behavior(game, rng):
    shape = tuple(game.output_cardinalities)
    table = {}
    for x in game.admissible_inputs():
        row = rng.random(shape)
        table[x] = row / row.sum()
    return Behavior(game, table)


def random_distribution(game, rng):
    cells = game.admissible_inputs()
    w = rng.random(len(cells))
    w = w / w.sum()
    return InputDistribution(game, dict(zip(cells, w)))


def test_promise_sets():
    assert len(chsh_game().admissible_inputs()) == 4
    assert mermin_game().admissible_inputs() == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert len(magic_square_game().admissible_inputs()) == 9


def test_win_predicates_spot_values():
    chsh = chsh_game()
    assert chsh.win((0, 0), (0, 0))
    assert chsh.win((1, 1), (0, 1))
    assert not chsh.win((1, 1), (0, 0))
    mermin = mermin_game()
    assert mermin.win((0, 0, 0), (0, 0, 0))
    assert mermin.win((0, 0, 0), (1, 1, 0))
    assert not mermin.win((0, 1, 1), (0, 0, 0))
    assert mermin.win((0, 1, 1), (1, 0, 0))


def test_magic_square_parity_accessors():
    """Reconstructed third bits give even rows and odd columns."""
    for s in range(4):
        assert sum(magic_square_alice_bits(s)) % 2 == 0
        assert sum(magic_square_bob_bits(s)) % 2 == 1


@pytest.mark.parametrize("make_game", GAMES)
def test_uniform_random_behavior_value_matches_counting(make_game):
    """Under the uniform distribution the uniformly random behavior wins
    exactly (number of winning pairs) / (number of pairs)."""
    game = make_game()
    wins = 0
    pairs = 0
    for x in game.admissible_inputs():
        for o in game.all_outputs():
            pairs += 1
            wins += int(game.win(x, o))
    value = success_probability(game, uniform_distribution(game), uniformly_random_behavior(game))
    assert np.isclose(value, wins / pairs, atol=1e-12)


@pytest.mark.parametrize("make_game", GAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_success_probability_affine_in_behavior(make_game, seed):
    game = make_game()
    rng = np.random.default_rng(seed)
    dist = random_distribution(game, rng)
    b1 = random_behavior(game, rng)
    b2 = random_behavior(game, rng)
    t = rng.random()
    mixed = Behavior(
        game, {x: t * b1.table[x] + (1 - t) * b2.table[x] for x in game.admissible_inputs()}
    )
    lhs = success_probability(game, dist, mixed)
    rhs = t * success_probability(game, dist, b1) + (1 - t) * success_probability(game, dist, b2)
    assert np.isclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("make_game", GAMES)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_success_probability_affine_in_distribution(make_game, seed):
    game = make_game()
    rng = np.random.default_rng(seed)
    behavior = random_behavior(game, rng)
    d1 = random_distribution(game, rng)
    d2 = random_distribution(game, rng)
    t = rng.random()
    cells = game.admissible_inputs()
    mixed = InputDistribution(
        game, {x: t * d1.prob(x) + (1 - t) * d2.prob(x) for x in cells}
    )
    lhs = success_probability(game, mixed, behavior)
    rhs = t * success_probability(game, d1, behavior) + (1 - t) * success_probability(game, d2, behavior)
    assert np.isclose(lhs, rhs, atol=1e-12)


@given(st.floats(0.0, 0.5), st.booleans())
@settings(max_examples=60)
def test_source_induced_distribution_normalized_on_promise(eps, flip):
    sign = constant_sign(-1 if flip else +1)
    game = mermin_game()
    dist = input_distribution_from_source(game, ExtremalSource(eps, sign))
    total = sum(dist.prob(x) for x in game.admissible_inputs())
    assert np.isclose(total, 1.0, atol=1e-12)
    for x in game.all_inputs():
        if not game.promise(x):
            assert dist.prob(x) == 0.0


def test_source_induced_distribution_values():
    """Two independent bits at bias 1/2+eps, third input their parity."""
    eps = 0.3
    dist = input_distribution_from_source(mermin_game(), canonical_mermin_source(eps))
    p0, p1 = 0.8, 0.2
    assert np.isclose(dist.prob((0, 0, 0)), p0 * p0, atol=1e-15)
    assert np.isclose(dist.prob((0, 1, 1)), p0 * p1, atol=1e-15)
    assert np.isclose(dist.prob((1, 0, 1)), p1 * p0, atol=1e-15)
    assert np.isclose(dist.prob((1, 1, 0)), p1 * p1, atol=1e-15)


def test_source_induced_distribution_chsh():
    eps = 0.2
    dist = input_distribution_from_source(chsh_game(), ExtremalSource(eps, parity_sign()))
    # parity pattern: first bit sign +1; after a 1 the sign flips
    assert np.isclose(dist.prob((0, 0)), 0.7 * 0.7, atol=1e-15)
    assert np.isclose(dist.prob((1, 0)), 0.3 * 0.3, atol=1e-15)
    assert np.isclose(sum(dist.prob(x) for x in dist.game.all_inputs()), 1.0, atol=1e-12)


def test_source_induced_distribution_rejects_ternary_inputs():
    with pytest.raises(ValueError):
        input_distribution_from_source(magic_square_game(), ExtremalSource(0.1))


def test_distribution_validation():
    game = chsh_game()
    with pytest.raises(ValueError):
        InputDistribution(game, {(0, 0): 0.5, (0, 1): 0.4})
    with pytest.raises(ValueError):
        InputDistribution(game, {(0, 0): 1.5, (0, 1): -0.5})
    mermin = mermin_game()
    with pytest.raises(ValueError):
        InputDistribution(mermin, {(1, 1, 1): 1.0})


def test_behavior_validation():
    game = chsh_game()
    good = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        Behavior(game, {(0, 0): good})
    bad = {x: good for x in game.admissible_inputs()}
    bad[(1, 1)] = np.array([[0.7, 0.4], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Behavior(game, bad)


def test_uniformly_random_behavior_has_no_signalling():
    for make_game in GAMES:
        game = make_game()
        assert no_signalling_residual(uniformly_random_behavior(game), game) <= 1e-12


def test_no_signalling_residual_detects_signalling():
    game = chsh_game()
    table = {x: np.full((2, 2), 0.25) for x in game.admissible_inputs()}
    # Alice's marginal depends on Bob's input: signalling
    table[(0, 1)] = np.array([[0.5, 0.0], [0.25, 0.25]])
    behavior = Behavior(game, table)
    assert no_signalling_residual(behavior, game) > 0.2


@pytest.mark.parametrize("make", GAMES)
def test_game_constructors_return_one_instance(make):
    """Each constructor returns one cached instance, the stable key of the
    caches kept per game."""
    assert make() is make()


def test_admissible_inputs_are_filtered_once_and_returned_as_a_new_list():
    """The promise is applied when the game is built; each call returns a
    new list, so a caller that mutates it leaves the next call unchanged,
    and an input distribution checks its support without the promise."""
    game = mermin_game()
    cells = game.admissible_inputs()
    cells.append((1, 1, 1))
    cells[0] = (0, 0, 1)
    assert game.admissible_inputs() == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert game.admissible_inputs() is not game.admissible_inputs()

    calls = []

    def promise(x):
        calls.append(x)
        return x[0] ^ x[1] ^ x[2] == 0

    counted = dataclasses.replace(mermin_game(), promise=promise)
    assert len(calls) == 8
    assert counted.admissible_inputs() == mermin_game().admissible_inputs()
    InputDistribution(counted, {x: 0.25 for x in counted.admissible_inputs()})
    with pytest.raises(ValueError, match="outside the promise"):
        InputDistribution(counted, {(1, 1, 1): 1.0})
    assert len(calls) == 8
