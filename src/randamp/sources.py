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
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

History = tuple[int, ...]


def check_epsilon(epsilon: float) -> float:
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    return float(epsilon)


@dataclass(frozen=True)
class SignPattern:
    """Total map from bit histories to the sign of the next bit's bias.

    `round_local=True` promises that the sign depends only on the
    position within the current two-bit round (len(history) mod 2) and
    the first bit of that round, never on earlier rounds.  Aggregated
    protocol simulation relies on this promise.
    """

    fn: Callable[[Sequence[int]], int]
    name: str = "custom"
    round_local: bool = False

    def __call__(self, history: Sequence[int]) -> int:
        # passed through without copying: histories grow bit by bit
        # during sampling and a per-call tuple() would be quadratic
        s = self.fn(history)
        if s not in (-1, 1):
            raise ValueError(f"sign pattern returned {s}, expected +1 or -1")
        return s


def constant_sign(sign: int) -> SignPattern:
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return SignPattern(lambda h: sign, name=f"const{sign:+d}", round_local=True)


def parity_sign() -> SignPattern:
    """+1 after an even number of ones in the history, -1 otherwise.

    Each call sums the whole history, so it costs O(len(history))."""
    return SignPattern(lambda h: 1 if sum(h) % 2 == 0 else -1, name="parity")


def round_position_sign(first: int, second_given_0: int, second_given_1: int) -> SignPattern:
    """Per-round steering: a sign for the round's first bit and one for its
    second bit conditioned on the first.  Used by adversaries that tilt the
    two input bits of each game round independently of earlier rounds."""
    table = {0: second_given_0, 1: second_given_1}

    def fn(h: Sequence[int]) -> int:
        if len(h) % 2 == 0:
            return first
        return table[h[-1]]

    return SignPattern(fn, name="round-steered", round_local=True)


def table_sign(table: dict[History, int], depth: int, default: int = 1) -> SignPattern:
    """Adversary-supplied pattern: explicit signs for histories up to `depth`
    (keyed by the trailing `depth` bits), `default` beyond the table."""

    def fn(h: Sequence[int]) -> int:
        return table.get(tuple(h[-depth:]) if depth else (), default)

    return SignPattern(fn, name=f"table(d={depth})")


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


def canonical_mermin_source(epsilon: float) -> ExtremalSource:
    """The fixed extremal source used in the tripartite analysis.

    Constant +1 sign pattern: every bit is 0 with probability 1/2 + eps,
    so the two bits consumed per game round satisfy
    P(first = 0) = P(second = 0 | first) = 1/2 + eps.
    """
    return ExtremalSource(check_epsilon(epsilon), constant_sign(+1))
