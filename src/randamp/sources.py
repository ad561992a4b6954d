"""Weak randomness sources with bounded conditional bias.

An epsilon-free (Santha-Vazirani) source emits bits whose conditional
probability of being 0, given the entire past and any side information,
always lies in [1/2 - eps, 1/2 + eps].  An *extremal* source saturates
the band at every step: the conditional probability is exactly
1/2 + sign * eps, the sign read from a sign pattern, a state machine
over the history.

Every epsilon-free source is a convex combination of extremal ones.
That decomposition theorem is taken as an assumption here (its proof is
not part of this package); all analysis code therefore works with
extremal sources, and a mixture of them is modelled by the weights of
`simulator.AdversaryModel`.  Sources are immutable and hold no RNG
state.  A source is read at a state of its pattern
(`ExtremalSource.next_bit_probability`); a reader streams the state
along with the bits it draws, so n bits cost O(n) whatever the pattern
reads of the past.  States are dictionary keys: a protocol run numbers
the states its stream reaches, reads the source once per state and
steps each (state, bit) once, so a pattern over few states costs a few
list lookups per bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

History = tuple[int, ...]


def check_epsilon(epsilon: float) -> float:
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    return float(epsilon)


@dataclass(frozen=True)
class SignPattern:
    """Sign of the next bit's bias as a state machine over the bit history.

    The state after a history is `step(state, bit)` folded over its bits
    from `start`, and `sign(state)` is the sign of the next bit.  `sign`
    and `step` must each take O(1) time, so streaming n bits costs O(n)
    whatever the pattern reads of the past.  States must be hashable,
    and equal states interchangeable: `sign` and `step` give equal
    results at equal states, because a reader keys what it has read by
    state and asks each state and each (state, bit) step once.

    `round_local` is derived when the pattern is built: it holds iff
    every two-bit round ends back in `start`, that is
    step(step(start, a), b) == start for all bits a and b.  Every round
    then starts in `start`, so the sign depends only on the position
    within the round and the round's first bit, and rounds are i.i.d.
    Aggregated protocol runs rely on this; a pattern whose state drifts
    is not round-local, even if its sign ignores the drift.
    """

    sign: Callable[[Any], int]
    step: Callable[[Any, int], Any]
    start: Any
    round_local: bool = field(init=False)

    def __post_init__(self) -> None:
        round_local = all(self.step(self.step(self.start, a), b) == self.start for a in (0, 1) for b in (0, 1))
        object.__setattr__(self, "round_local", round_local)


def constant_sign(sign: int) -> SignPattern:
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return SignPattern(lambda state: sign, lambda state, bit: 0, 0)


def parity_sign() -> SignPattern:
    """+1 after an even number of ones in the history, -1 otherwise.

    The state is the parity of the ones so far."""
    return SignPattern((1, -1).__getitem__, operator.xor, 0)


def round_position_sign(first: int, second_given_0: int, second_given_1: int) -> SignPattern:
    """Per-round steering: a sign for the round's first bit and one for its
    second bit conditioned on the first.  Used by adversaries that tilt the
    two input bits of each game round independently of earlier rounds.

    State 0 is the start of a round, state 1 + b follows a first bit b."""
    signs = (first, second_given_0, second_given_1)
    return SignPattern(signs.__getitem__, lambda state, bit: 0 if state else 1 + bit, 0)


def table_sign(table: dict[History, int], depth: int, default: int = 1) -> SignPattern:
    """Adversary-supplied pattern: explicit signs for histories up to `depth`
    (keyed by the trailing `depth` bits), `default` beyond the table.

    The state is an int: the last min(len(history), depth) bits, oldest
    first, below a leading 1 that marks how many there are, so the start
    is 1.  The signs of all 2^(depth+1) - 1 states are looked up in the
    table once, when the pattern is built.  At depth 0 the only state is
    the start, so the pattern is a constant sign and round-local."""
    full = 1 << depth
    # no state is 0; below its marker, bin(state)[3:] spells the bits
    signs = [default] + [table.get(tuple(map(int, bin(state)[3:])), default) for state in range(1, 2 * full)]

    def step(state: int, bit: int) -> int:
        state = 2 * state + bit
        # past depth bits, drop the oldest and keep the marker at bit `depth`
        return state if state < 2 * full else full | (state & (full - 1))

    return SignPattern(signs.__getitem__, step, 1)


@dataclass(frozen=True)
class ExtremalSource:
    """Source whose conditional bias is exactly +/- epsilon at every step."""

    epsilon: float
    sign: SignPattern = field(default_factory=lambda: constant_sign(+1))

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def next_bit_probability(self, state: Any) -> float:
        """Probability that the next bit is 0 in sign-pattern state `state`."""
        sign = self.sign.sign(state)
        if sign not in (-1, 1):
            raise ValueError(f"sign pattern returned {sign}, expected +1 or -1")
        return 0.5 + sign * self.epsilon


def canonical_mermin_source(epsilon: float) -> ExtremalSource:
    """The fixed extremal source used in the tripartite analysis.

    Constant +1 sign pattern: every bit is 0 with probability 1/2 + eps,
    so the two bits consumed per game round satisfy
    P(first = 0) = P(second = 0 | first) = 1/2 + eps.
    """
    return ExtremalSource(check_epsilon(epsilon), constant_sign(+1))
