import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp.sources import (
    ConvexSourceMixture,
    ExtremalSource,
    canonical_mermin_source,
    check_epsilon,
    conditional_bit_probability,
    constant_sign,
    next_bit_probability,
    parity_sign,
    round_position_sign,
    sample_sequence,
    sequence_probability,
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
    assert next_bit_probability(src, history) == p0


@given(epsilons, sign_patterns, st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_sequence_probabilities_normalize(eps, sign, n):
    src = ExtremalSource(eps, sign)
    total = sum(
        sequence_probability(src, bits) for bits in itertools.product((0, 1), repeat=n)
    )
    assert np.isclose(total, 1.0, atol=1e-12)


def test_sequence_probabilities_normalize_length_12():
    src = ExtremalSource(0.3, parity_sign())
    total = sum(
        sequence_probability(src, bits) for bits in itertools.product((0, 1), repeat=12)
    )
    assert np.isclose(total, 1.0, atol=1e-12)


def test_empirical_frequency_matches_conditional_probability():
    """Zero-bit frequency at n=1e5 within 3 sigma of the exact value.

    Every bit of a constant-sign source is an independent Bernoulli(p0)
    draw, so the stream mean estimates p0 directly."""
    n = 100_000
    for seed, eps in enumerate((0.0, 0.2, 0.45)):
        src = ExtremalSource(eps, constant_sign(+1))
        p0 = src.next_bit_probability(())
        bits = sample_sequence(src, n, seed)
        freq = float(np.mean(bits == 0))
        sigma = np.sqrt(max(p0 * (1 - p0), 0.04) / n)
        assert abs(freq - p0) <= 3 * sigma


def test_sampling_is_deterministic_given_seed():
    src = ExtremalSource(0.25, round_position_sign(-1, +1, -1))
    a = sample_sequence(src, 64, 123)
    b = sample_sequence(src, 64, 123)
    assert np.array_equal(a, b)


def test_sample_sequence_rejects_negative_length():
    with pytest.raises(ValueError):
        sample_sequence(canonical_mermin_source(0.1), -1, 0)


@given(st.floats(0.01, 0.45), st.floats(0.0, 1.0), st.integers(0, 255))
@settings(max_examples=40, deadline=None)
def test_mixture_stays_inside_band(eps, w, hbits):
    """A two-component mixture of eps-level sources never leaves the band,
    for every conditional probability up to depth 8 (brute force)."""
    comps = (
        ExtremalSource(eps, constant_sign(+1)),
        ExtremalSource(eps, parity_sign()),
    )
    mix = ConvexSourceMixture(comps, (w, 1.0 - w))
    history = tuple((hbits >> i) & 1 for i in range(8))
    for cut in range(len(history) + 1):
        p0 = conditional_bit_probability(mix, history[:cut])
        assert 0.5 - eps - 1e-12 <= p0 <= 0.5 + eps + 1e-12


def test_mixture_exhaustive_band_check_depth_8():
    eps = 0.3
    comps = (
        ExtremalSource(eps, constant_sign(+1)),
        ExtremalSource(eps, constant_sign(-1)),
        ExtremalSource(eps, parity_sign()),
    )
    mix = ConvexSourceMixture(comps, (0.5, 0.25, 0.25))
    for n in range(8):
        for h in itertools.product((0, 1), repeat=n):
            p0 = conditional_bit_probability(mix, h)
            assert 0.5 - eps - 1e-12 <= p0 <= 0.5 + eps + 1e-12


def test_mixture_epsilon_is_worst_component():
    mix = ConvexSourceMixture(
        (ExtremalSource(0.1), ExtremalSource(0.4)), (0.9, 0.1)
    )
    assert mix.epsilon == 0.4


def test_mixture_validation():
    c = ExtremalSource(0.2)
    with pytest.raises(ValueError):
        ConvexSourceMixture((), ())
    with pytest.raises(ValueError):
        ConvexSourceMixture((c,), (0.5,))
    with pytest.raises(ValueError):
        ConvexSourceMixture((c, c), (1.5, -0.5))


def test_mixture_sequence_probability_is_weighted_average():
    a = ExtremalSource(0.2, constant_sign(+1))
    b = ExtremalSource(0.2, constant_sign(-1))
    mix = ConvexSourceMixture((a, b), (0.3, 0.7))
    seq = (0, 1, 1, 0)
    expected = 0.3 * sequence_probability(a, seq) + 0.7 * sequence_probability(b, seq)
    assert np.isclose(sequence_probability(mix, seq), expected, atol=1e-15)


def test_canonical_source_biases_both_round_bits_toward_zero():
    src = canonical_mermin_source(0.3)
    assert src.next_bit_probability(()) == 0.8
    assert src.next_bit_probability((0,)) == 0.8
    assert src.next_bit_probability((1,)) == 0.8
    assert src.sign.round_local
