import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp.simulator import _SourceStream
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

    bad = SignPattern(lambda h: 0)
    with pytest.raises(ValueError):
        bad(())


@given(epsilons, sign_patterns, histories)
@settings(max_examples=200)
def test_conditional_probability_saturates_band(eps, sign, history):
    """Extremal sources sit exactly on the edge of the allowed band."""
    src = ExtremalSource(eps, sign)
    p0 = src.next_bit_probability(history)
    assert p0 == 0.5 + eps or p0 == 0.5 - eps


def sample_bits(source, n, seed):
    """`n` bits drawn by the protocol's sequential source sampler."""
    stream = _SourceStream(source, np.random.default_rng(seed))
    return np.array([stream.draw() for _ in range(n)], dtype=np.uint8)


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
