import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp.sources import (
    ExtremalSource,
    canonical_mermin_source,
    check_epsilon,
    constant_sign,
    parity_sign,
    round_position_sign,
    table_sign,
)

SIGN_BUILDERS = [
    lambda: constant_sign(+1),
    lambda: constant_sign(-1),
    parity_sign,
    lambda: round_position_sign(+1, -1, +1),
    lambda: table_sign({(0, 1): -1, (1, 1): -1}, depth=2),
    lambda: table_sign({(0,): -1, (1,): 1}, depth=1),
]

epsilons = st.floats(0.0, 0.5, allow_nan=False)
histories = st.lists(st.integers(0, 1), max_size=12).map(tuple)
sign_patterns = st.sampled_from(range(len(SIGN_BUILDERS))).map(lambda i: SIGN_BUILDERS[i]())


def test_check_epsilon_rejects_out_of_range():
    for bad in (-0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            check_epsilon(bad)


def test_sign_patterns_output_unit_signs():
    for build in SIGN_BUILDERS:
        pattern = build()
        for n in range(5):
            for h in itertools.product((0, 1), repeat=n):
                assert pattern(h) in (-1, 1)


def test_sign_pattern_rejects_non_sign():
    from randamp.sources import SignPattern

    bad = SignPattern(lambda state: 0, lambda state, bit: state, 0)
    with pytest.raises(ValueError):
        bad(())


def streamed_state(pattern, history):
    state = pattern.start
    for bit in history:
        state = pattern.step(state, bit)
    return state


@pytest.mark.parametrize("build", SIGN_BUILDERS)
def test_random_access_matches_the_streamed_state(build):
    """`pattern(history)`, which may fold only the last bits of the
    history, gives on every history of up to 8 bits the sign read after
    stepping through the whole history.  A round-local pattern gives that sign on
    the current round's bits alone, the promise that lets a round-local
    run read its three conditionals once."""
    pattern = build()
    for n in range(9):
        for h in itertools.product((0, 1), repeat=n):
            sign = pattern.at(streamed_state(pattern, h))
            assert pattern(h) == sign
            if pattern.round_local:
                assert pattern.at(streamed_state(pattern, h[n - n % 2:])) == sign


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_table_sign_reads_the_table_at_the_last_depth_bits(depth):
    """On every history of up to 8 bits, by random access and streamed,
    `table_sign(t, d)` gives t.get(h[-d:], default), h[-d:] read as ()
    when d = 0, with keys of every length up to d and some left out."""
    rng = np.random.default_rng(depth)
    keys = [k for n in range(depth + 1) for k in itertools.product((0, 1), repeat=n)]
    table = {k: int(rng.choice((-1, 1))) for k in keys if rng.random() < 0.7}
    for default in (1, -1):
        pattern = table_sign(table, depth, default)
        for n in range(9):
            for h in itertools.product((0, 1), repeat=n):
                expected = table.get(h[-depth:] if depth else (), default)
                assert pattern(h) == expected, h
                assert pattern.at(streamed_state(pattern, h)) == expected, h


@given(epsilons, sign_patterns, histories)
@settings(max_examples=200)
def test_conditional_probability_saturates_band(eps, sign, history):
    """Extremal sources sit exactly on the edge of the allowed band."""
    src = ExtremalSource(eps, sign)
    p0 = src.next_bit_probability(history)
    assert p0 == 0.5 + eps or p0 == 0.5 - eps


def sample_bits(source, n, seed):
    """`n` bits drawn in sequence, each 0 with the source's conditional
    probability given the bits before it."""
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(n):
        history.append(0 if rng.random() < source.next_bit_probability(history) else 1)
    return np.array(history, dtype=np.uint8)


def test_empirical_frequency_matches_conditional_probability():
    """Zero-bit frequency at n=1e5 within 3 sigma of the exact value.

    Every bit of a constant-sign source is an independent Bernoulli(p0)
    draw, so the stream mean estimates p0 directly."""
    n = 100_000
    for seed, eps in enumerate((0.0, 0.2, 0.45)):
        src = ExtremalSource(eps, constant_sign(+1))
        p0 = src.next_bit_probability(())
        bits = sample_bits(src, n, seed)
        freq = float(np.mean(bits == 0))
        sigma = np.sqrt(max(p0 * (1 - p0), 0.04) / n)
        assert abs(freq - p0) <= 3 * sigma


def test_sampling_is_deterministic_given_seed():
    src = ExtremalSource(0.25, round_position_sign(-1, +1, -1))
    a = sample_bits(src, 64, 123)
    b = sample_bits(src, 64, 123)
    assert np.array_equal(a, b)


def test_canonical_source_biases_both_round_bits_toward_zero():
    src = canonical_mermin_source(0.3)
    assert src.next_bit_probability(()) == 0.8
    assert src.next_bit_probability((0,)) == 0.8
    assert src.next_bit_probability((1,)) == 0.8
    assert src.sign.round_local
