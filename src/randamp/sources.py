"""Weak randomness sources with bounded conditional bias.

An epsilon-free (Santha-Vazirani) source emits bits whose conditional
probability of being 0, given the entire past and any side information,
always lies in [1/2 - eps, 1/2 + eps].  An *extremal* source saturates
the band at every step: the conditional probability is exactly
1/2 + sign * eps, the sign read from a sign pattern, a finite automaton
over the history.

Every epsilon-free source is a convex combination of extremal ones.
That decomposition theorem is taken as an assumption here (its proof is
not part of this package); all analysis code therefore works with
extremal sources, and a mixture of them is modelled by the weights of
`simulator.AdversaryModel`.  Sources are immutable and hold no RNG
state.  A sign pattern is a finite automaton over the bits: a table of
signs, one per state, and a table of successors, two per state.  A
source is read at a state of its pattern
(`ExtremalSource.next_bit_probability`), and a reader streams the state
along with the bits it draws, one table lookup per bit, so n bits from
a pattern of S states cost O(n + S) whatever the pattern reads of the
past.
"""

from __future__ import annotations

from dataclasses import dataclass, field

History = tuple[int, ...]


def check_epsilon(epsilon: float) -> float:
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    return float(epsilon)


@dataclass(frozen=True)
class SignPattern:
    """Sign of the next bit's bias as a finite automaton over the bit history.

    State 0 is the start, `signs[s]` is the sign of the next bit in
    state s, and `succ[2 s + bit]` is the state after `bit` is read in
    state s; the state after a history is `succ` folded over its bits
    from 0.  The tables are checked when the pattern is built: at least
    one state, every sign +1 or -1, two successors per state and every
    successor a state.

    `round_local` is derived when the pattern is built: it holds iff
    every two-bit round ends back in the start, that is
    succ[2 succ[a] + b] == 0 for all bits a and b.  Every round then
    starts in state 0, so the sign depends only on the position within
    the round and the round's first bit, and rounds are i.i.d.
    Aggregated protocol runs rely on this; a pattern whose state drifts
    is not round-local, even if its sign ignores the drift.
    """

    signs: tuple[int, ...]
    succ: tuple[int, ...]
    round_local: bool = field(init=False)

    def __post_init__(self) -> None:
        signs, succ = self.signs, self.succ
        n = len(signs)
        if not n:
            raise ValueError("a sign pattern needs at least one state")
        if any(sign not in (-1, 1) for sign in signs):
            raise ValueError(f"signs must be +1 or -1, got {signs}")
        if len(succ) != 2 * n:
            raise ValueError(f"{n} states need {2 * n} successors, got {len(succ)}")
        if any(not 0 <= state < n for state in succ):
            raise ValueError(f"successors must be states 0..{n - 1}, got {succ}")
        object.__setattr__(self, "round_local", all(succ[2 * succ[a] + b] == 0 for a in (0, 1) for b in (0, 1)))


def constant_sign(sign: int) -> SignPattern:
    return SignPattern((sign,), (0, 0))


def parity_sign() -> SignPattern:
    """+1 after an even number of ones in the history, -1 otherwise.

    The state is the parity of the ones so far."""
    return SignPattern((1, -1), (0, 1, 1, 0))


def round_position_sign(first: int, second_given_0: int, second_given_1: int) -> SignPattern:
    """Per-round steering: a sign for the round's first bit and one for its
    second bit conditioned on the first.  Used by adversaries that tilt the
    two input bits of each game round independently of earlier rounds.

    State 0 is the start of a round, state 1 + b follows a first bit b."""
    return SignPattern((first, second_given_0, second_given_1), (1, 2, 0, 0, 0, 0))


def table_sign(table: dict[History, int], depth: int, default: int = 1) -> SignPattern:
    """Adversary-supplied pattern: explicit signs for histories up to `depth`
    (keyed by the trailing `depth` bits), `default` beyond the table.
    Every key must be a tuple of at most `depth` bits, 0 or 1.

    State s holds the last min(len(history), depth) bits, oldest first,
    as the binary digits of s + 1 below its leading 1, so the start is
    state 0 and there are 2^(depth+1) - 1 states.  At depth 0 the only
    state is the start, so the pattern is a constant sign and
    round-local."""
    for key in table:
        if not (isinstance(key, tuple) and len(key) <= depth and all(bit in (0, 1) for bit in key)):
            raise ValueError(f"table key {key!r} is not a tuple of at most {depth} bits")
    full = 1 << depth
    # below the leading 1 of s + 1, bin(s + 1)[3:] spells state s's bits
    signs = tuple(table.get(tuple(map(int, bin(s + 1)[3:])), default) for s in range(2 * full - 1))
    # the marked bits of state s with the next bit appended; past depth
    # bits, drop the oldest and keep the marker at bit `depth`
    marked = [2 * (s + 1) + bit for s in range(2 * full - 1) for bit in (0, 1)]
    succ = tuple((m if m < 2 * full else full | (m & (full - 1))) - 1 for m in marked)
    return SignPattern(signs, succ)


@dataclass(frozen=True)
class ExtremalSource:
    """Source whose conditional bias is exactly +/- epsilon at every step."""

    epsilon: float
    sign: SignPattern = field(default_factory=lambda: constant_sign(+1))

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def next_bit_probability(self, state: int) -> float:
        """Probability that the next bit is 0 in sign-pattern state `state`."""
        return 0.5 + self.sign.signs[state] * self.epsilon


def canonical_mermin_source(epsilon: float) -> ExtremalSource:
    """The fixed extremal source used in the tripartite analysis.

    Constant +1 sign pattern: every bit is 0 with probability 1/2 + eps,
    so the two bits consumed per game round satisfy
    P(first = 0) = P(second = 0 | first) = 1/2 + eps.
    """
    return ExtremalSource(check_epsilon(epsilon), constant_sign(+1))
