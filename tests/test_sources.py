import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp.sources import (
    ExtremalSource,
    SignPattern,
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


def streamed_state(pattern, history):
    state = 0
    for bit in history:
        state = pattern.succ[2 * state + bit]
    return state


def test_sign_patterns_output_unit_signs():
    for build in SIGN_BUILDERS:
        pattern = build()
        for n in range(5):
            for h in itertools.product((0, 1), repeat=n):
                assert pattern.signs[streamed_state(pattern, h)] in (-1, 1)


def test_sign_pattern_rejects_non_sign():
    """A sign other than +1 or -1 is refused when the pattern is built,
    whether it reaches the table directly or through a builder."""
    for signs in ((0,), (1, 2), (1, -1.5)):
        with pytest.raises(ValueError, match="signs must be"):
            SignPattern(signs, (0,) * 2 * len(signs))
    with pytest.raises(ValueError, match="signs must be"):
        constant_sign(0)
    with pytest.raises(ValueError, match="signs must be"):
        table_sign({(1,): 2}, depth=1)
    with pytest.raises(ValueError, match="signs must be"):
        round_position_sign(1, 1, 0)


@pytest.mark.parametrize("signs, succ, match", [
    ((), (), "at least one state"),
    ((1,), (0,), "need 2 successors"),
    ((1, -1), (0, 1, 1), "need 4 successors"),
    ((1, -1), (0, 1, 1, 0, 0), "need 4 successors"),
    ((1, -1), (0, 1, 2, 0), "successors must be states"),
    ((1,), (0, -1), "successors must be states"),
])
def test_sign_pattern_rejects_a_malformed_table(signs, succ, match):
    """Empty signs, a successor table not two per state, or a successor
    that names no state are refused when the pattern is built."""
    with pytest.raises(ValueError, match=match):
        SignPattern(signs, succ)


@pytest.mark.parametrize("build", SIGN_BUILDERS)
def test_random_access_matches_the_streamed_state(build):
    """A round-local run reads every round at random access, at state 0
    and at `succ[a]` whatever came before.  On every history of
    up to 8 bits that read gives the streamed sign exactly when the
    pattern derives `round_local`: each pattern here that is not
    round-local has a history where the two differ."""
    pattern = build()
    agree = all(
        pattern.signs[streamed_state(pattern, h)] == pattern.signs[streamed_state(pattern, h[n - n % 2:])]
        for n in range(9) for h in itertools.product((0, 1), repeat=n)
    )
    assert agree == pattern.round_local


ROUND_LOCAL = {
    "constant+1": lambda: constant_sign(+1),
    "constant-1": lambda: constant_sign(-1),
    **{f"round-position{signs}": lambda signs=signs: round_position_sign(*signs)
       for signs in itertools.product((1, -1), repeat=3)},
    "table-depth-0": lambda: table_sign({(): -1}, depth=0),
}
NOT_ROUND_LOCAL = {
    "parity": parity_sign,
    # a constant sign over the bits counted mod 3: the state drifts
    "counter-mod-3": lambda: SignPattern((1, 1, 1), (1, 1, 2, 2, 0, 0)),
    **{f"table-depth-{d}": lambda d=d: table_sign({(0,) * d: -1}, depth=d) for d in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(ROUND_LOCAL) + sorted(NOT_ROUND_LOCAL))
def test_round_locality_is_derived_from_the_state_machine(name):
    """`round_local` holds exactly for the patterns whose every two-bit
    round ends back in state 0, whatever their signs, and then, on every history of up to 8
    bits, the streamed state is the state after the current round's bits
    alone: the sign depends only on the position within the round and
    the round's first bit."""
    pattern = {**ROUND_LOCAL, **NOT_ROUND_LOCAL}[name]()
    assert pattern.round_local == (name in ROUND_LOCAL)
    if pattern.round_local:
        for n in range(9):
            for h in itertools.product((0, 1), repeat=n):
                assert streamed_state(pattern, h) == streamed_state(pattern, h[n - n % 2:]), h


def test_round_locality_is_not_an_init_argument():
    with pytest.raises(TypeError):
        SignPattern((1,), (0, 0), round_local=False)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_table_sign_reads_the_table_at_the_last_depth_bits(depth):
    """On every history of up to 8 bits, streamed, `table_sign(t, d)`
    gives t.get(h[-d:], default), h[-d:] read as () when d = 0, with keys
    of every length up to d and some left out."""
    rng = np.random.default_rng(depth)
    keys = [k for n in range(depth + 1) for k in itertools.product((0, 1), repeat=n)]
    table = {k: int(rng.choice((-1, 1))) for k in keys if rng.random() < 0.7}
    for default in (1, -1):
        pattern = table_sign(table, depth, default)
        for n in range(9):
            for h in itertools.product((0, 1), repeat=n):
                expected = table.get(h[-depth:] if depth else (), default)
                assert pattern.signs[streamed_state(pattern, h)] == expected, h


@pytest.mark.parametrize("key", [(0, 0), (1, 0, 1), (2,), (0, -1), 0, "0", None])
def test_table_sign_rejects_keys_it_cannot_read(key):
    """Every key must be a tuple of 0/1 bits no longer than `depth`: any
    other key names no history the pattern looks up, so it is refused
    rather than dropped."""
    with pytest.raises(ValueError, match="key"):
        table_sign({(1,): -1, key: -1}, depth=1)


@given(epsilons, sign_patterns, histories)
@settings(max_examples=200)
def test_conditional_probability_saturates_band(eps, sign, history):
    """Extremal sources sit exactly on the edge of the allowed band."""
    src = ExtremalSource(eps, sign)
    p0 = src.next_bit_probability(streamed_state(sign, history))
    assert p0 == 0.5 + eps or p0 == 0.5 - eps


def sample_bits(source, n, seed):
    """`n` bits drawn in sequence, each 0 with the source's conditional
    probability given the bits before it, read at the pattern's state
    streamed along with the bits."""
    rng = np.random.default_rng(seed)
    succ = source.sign.succ
    state = 0
    bits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bits[i] = bit = 0 if rng.random() < source.next_bit_probability(state) else 1
        state = succ[2 * state + bit]
    return bits


def test_empirical_frequency_matches_conditional_probability():
    """Zero-bit frequency at n=1e5 within 3 sigma of the exact value.

    Every bit of a constant-sign source is an independent Bernoulli(p0)
    draw, so the stream mean estimates p0 directly."""
    n = 100_000
    for seed, eps in enumerate((0.0, 0.2, 0.45)):
        src = ExtremalSource(eps, constant_sign(+1))
        p0 = src.next_bit_probability(0)
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
    succ = src.sign.succ
    assert src.next_bit_probability(0) == 0.8
    assert src.next_bit_probability(succ[0]) == 0.8
    assert src.next_bit_probability(succ[1]) == 0.8
    assert src.sign.round_local
