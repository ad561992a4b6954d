"""Weak randomness sources with bounded conditional bias.

An epsilon-free (Santha-Vazirani) source emits bits whose conditional
probability of being 0, given the entire past and any side information,
always lies in [1/2 - eps, 1/2 + eps].  An *extremal* source saturates
the band at every step: the conditional probability is exactly
1/2 + sign(history) * eps for some sign pattern.

Every epsilon-free source is a convex combination of extremal ones.
That decomposition theorem is taken as an assumption here (its proof is
not part of this package); all analysis code therefore works with
extremal sources, and a mixture of them is modelled by the weights of
`simulator.AdversaryModel`.  Sources are immutable and hold no RNG
state.  A sign pattern is a state machine over the bits drawn so far,
so a stream of n bits costs O(n) whatever the pattern reads of the past.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Callable, Optional, Sequence

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
    whatever the pattern reads of the past.

    Random access through `__call__` folds only the bits that can matter:
    - `round_local=True` promises that the sign depends only on the
      position within the current two-bit round (len(history) mod 2) and
      the first bit of that round, never on earlier rounds.  The state
      after any history must then equal the state after the current
      round's bits alone, and only those bits are folded.  Aggregated
      protocol runs and round-local materialized runs rely on this.
    - `window`, if set, promises that the state after any history equals
      the state after its last `window` bits alone.
    Otherwise the whole history is folded.
    """

    sign: Callable[[Any], int]
    step: Callable[[Any, int], Any]
    start: Any
    round_local: bool = False
    window: Optional[int] = None

    def at(self, state: Any) -> int:
        """The sign in `state`, checked to be +1 or -1."""
        s = self.sign(state)
        if s not in (-1, 1):
            raise ValueError(f"sign pattern returned {s}, expected +1 or -1")
        return s

    def __call__(self, history: Sequence[int]) -> int:
        if self.round_local:
            # the current round's bits: none, or its first bit
            state = self.step(self.start, history[-1]) if len(history) % 2 else self.start
        else:
            if self.window is not None and len(history) > self.window:
                history = history[len(history) - self.window:]
            state = reduce(self.step, history, self.start)
        return self.at(state)


def constant_sign(sign: int) -> SignPattern:
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return SignPattern(lambda state: sign, lambda state, bit: 0, 0, round_local=True)


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
    return SignPattern(signs.__getitem__, lambda state, bit: 0 if state else 1 + bit, 0, round_local=True)


def table_sign(table: dict[History, int], depth: int, default: int = 1) -> SignPattern:
    """Adversary-supplied pattern: explicit signs for histories up to `depth`
    (keyed by the trailing `depth` bits), `default` beyond the table.

    The state is an int: the last min(len(history), depth) bits, oldest
    first, below a leading 1 that marks how many there are, so the start
    is 1.  The signs of all 2^(depth+1) - 1 states are looked up in the
    table once, when the pattern is built."""
    full = 1 << depth
    # no state is 0; below its marker, bin(state)[3:] spells the bits
    signs = [default] + [table.get(tuple(map(int, bin(state)[3:])), default) for state in range(1, 2 * full)]

    def step(state: int, bit: int) -> int:
        state = 2 * state + bit
        # past depth bits, drop the oldest and keep the marker at bit `depth`
        return state if state < 2 * full else full | (state & (full - 1))

    return SignPattern(signs.__getitem__, step, 1, window=depth)


@dataclass(frozen=True)
class ExtremalSource:
    """Source whose conditional bias is exactly +/- epsilon at every step."""

    epsilon: float
    sign: SignPattern = field(default_factory=lambda: constant_sign(+1))

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def next_bit_probability(self, history: Sequence[int]) -> float:
        """Probability that the next bit is 0 given `history`."""
        return 0.5 + self.sign(history) * self.epsilon

    def probability_at(self, state: Any) -> float:
        """Probability that the next bit is 0 in sign-pattern state `state`;
        the same double `next_bit_probability` gives for a history with
        that state."""
        return 0.5 + self.sign.at(state) * self.epsilon


def canonical_mermin_source(epsilon: float) -> ExtremalSource:
    """The fixed extremal source used in the tripartite analysis.

    Constant +1 sign pattern: every bit is 0 with probability 1/2 + eps,
    so the two bits consumed per game round satisfy
    P(first = 0) = P(second = 0 | first) = 1/2 + eps.
    """
    return ExtremalSource(check_epsilon(epsilon), constant_sign(+1))
