"""Weak randomness sources with bounded conditional bias.

An epsilon-free (Santha-Vazirani) source emits bits whose conditional
probability of being 0, given the entire past and any side information,
always lies in [1/2 - eps, 1/2 + eps].  An *extremal* source saturates
the band at every step: the conditional probability is exactly
1/2 + sign(history) * eps for some sign pattern.

Every epsilon-free source is a convex combination of extremal ones.
That decomposition theorem is taken as an assumption here (its proof is
not part of this package); all analysis code therefore works with
extremal sources and convex mixtures of them.

Sources are immutable; all sampling takes an explicit seed or
numpy Generator, so callers own the RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

History = tuple[int, ...]

NORMALIZATION_TOL = 1e-12


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


@dataclass(frozen=True)
class ConvexSourceMixture:
    """Convex combination of extremal sources.

    A draw first selects one component by weight, then the whole
    requested sequence comes from that component.
    """

    components: tuple[ExtremalSource, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    @property
    def epsilon(self) -> float:
        return max(c.epsilon for c in self.components)


Source = Union[ExtremalSource, ConvexSourceMixture]


def next_bit_probability(source: ExtremalSource, history: Sequence[int]) -> float:
    """Probability that `source` emits 0 after seeing `history`."""
    return source.next_bit_probability(history)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_sequence(source: Source, n: int, seed) -> np.ndarray:
    """Draw `n` bits.  For a mixture, one component is selected per call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = _as_rng(seed)
    if isinstance(source, ConvexSourceMixture):
        idx = rng.choice(len(source.components), p=np.asarray(source.weights))
        source = source.components[idx]
    bits = np.empty(n, dtype=np.uint8)
    history: list[int] = []
    for i in range(n):
        p0 = source.next_bit_probability(history)
        bit = 0 if rng.random() < p0 else 1
        bits[i] = bit
        history.append(bit)
    return bits


def sequence_probability(source: Source, bits: Iterable[int]) -> float:
    """Exact probability of emitting `bits`, in order.

    For mixtures this is the weight-averaged component probability,
    matching the draw-one-component sampling semantics.
    """
    seq = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in seq):
        raise ValueError("bits must be 0 or 1")
    if isinstance(source, ConvexSourceMixture):
        return float(
            sum(w * sequence_probability(c, seq) for c, w in zip(source.components, source.weights))
        )
    prob = 1.0
    for i, bit in enumerate(seq):
        p0 = source.next_bit_probability(seq[:i])
        prob *= p0 if bit == 0 else 1.0 - p0
    return prob


def conditional_bit_probability(source: Source, history: Sequence[int]) -> float:
    """P(next bit = 0 | history) for an extremal source or a mixture.

    For a mixture the components' weights are reweighted by how likely
    each component was to produce `history` (Bayes), which is what an
    observer of the stream experiences.
    """
    if isinstance(source, ExtremalSource):
        return source.next_bit_probability(history)
    h = tuple(int(b) for b in history)
    joint0 = sequence_probability(source, h + (0,))
    total = sequence_probability(source, h)
    if total == 0.0:
        # Unreachable history; any conditional is vacuous. Report 1/2.
        return 0.5
    return joint0 / total


def canonical_mermin_source(epsilon: float) -> ExtremalSource:
    """The fixed extremal source used in the tripartite analysis.

    Constant +1 sign pattern: every bit is 0 with probability 1/2 + eps,
    so the two bits consumed per game round satisfy
    P(first = 0) = P(second = 0 | first) = 1/2 + eps.
    """
    return ExtremalSource(check_epsilon(epsilon), constant_sign(+1))
