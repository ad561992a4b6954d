"""Nonlocal games: specifications, input distributions, behaviors.

A game is played by n parties who receive classical inputs drawn from a
(possibly biased) distribution over promise-satisfying input tuples and
reply with classical outputs without communicating.  A behavior is the
conditional table P(outputs | inputs); the game value of a behavior is
the win probability under the given input distribution.

Magic-square outputs are 4-symbol alphabets encoding each party's two
free bits; the constrained third bit is reconstructed by accessors so
the parity constraints are structurally unviolable.

Each game constructor returns one cached, immutable `GameSpec`, so the
caches keyed on a game (the behaviors memoized on a strategy, npa's
moment structures and per-pattern set-up, the simulator's win table)
find it on every call and stay bounded.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .sources import ExtremalSource

InputTuple = tuple[int, ...]
OutputTuple = tuple[int, ...]

DIST_TOL = 1e-12
BEHAVIOR_TOL = 1e-9


@dataclass(frozen=True)
class GameSpec:
    """An n-party game with an input promise and a win predicate."""

    name: str
    n_parties: int
    input_cardinalities: tuple[int, ...]
    output_cardinalities: tuple[int, ...]
    promise: Callable[[InputTuple], bool]
    win: Callable[[InputTuple, OutputTuple], bool]

    def __post_init__(self) -> None:
        if self.n_parties != len(self.input_cardinalities) or self.n_parties != len(
            self.output_cardinalities
        ):
            raise ValueError("cardinality tuples must have one entry per party")
        admissible = tuple(x for x in self.all_inputs() if self.promise(x))
        if not admissible:
            raise ValueError("promise admits no input tuple")
        # not a field: equality, hashing and repr ignore it
        object.__setattr__(self, "_admissible", admissible)

    def all_inputs(self) -> list[InputTuple]:
        return list(itertools.product(*(range(c) for c in self.input_cardinalities)))

    def admissible_inputs(self) -> list[InputTuple]:
        """The input tuples the promise admits, in `all_inputs` order: a new
        list of the tuple filtered once, when the game was built."""
        return list(self._admissible)

    def all_outputs(self) -> list[OutputTuple]:
        return list(itertools.product(*(range(c) for c in self.output_cardinalities)))


@dataclass(frozen=True)
class InputDistribution:
    """Distribution over a game's admissible input tuples."""

    game: GameSpec
    probabilities: Mapping[InputTuple, float]

    def __post_init__(self) -> None:
        admissible = self.game._admissible
        table = dict(self.probabilities)
        for x, p in table.items():
            if x not in admissible:
                if p != 0.0:
                    raise ValueError(f"probability {p} assigned outside the promise: {x}")
            if p < 0:
                raise ValueError(f"negative probability {p} at {x}")
        total = sum(table.get(x, 0.0) for x in admissible)
        if abs(total - 1.0) > DIST_TOL:
            raise ValueError(f"input distribution sums to {total}, expected 1")
        object.__setattr__(self, "probabilities", table)

    def prob(self, x: InputTuple) -> float:
        return self.probabilities.get(x, 0.0)


@dataclass(frozen=True)
class Behavior:
    """Conditional output table P(outputs | inputs) for admissible inputs.

    Each row is indexed by the output tuple via per-party output
    cardinalities (row shape = output_cardinalities).  Entries in
    [-BEHAVIOR_TOL, 0), which the Born rule leaves by rounding, are set
    to 0, so every row is nonnegative and its cumulative sum
    non-decreasing.  Each row is a read-only copy, so a behavior memoized
    on its strategy, and the simulator's tables kept on the behavior,
    cannot change under the runs that share it.
    """

    game: GameSpec
    table: Mapping[InputTuple, np.ndarray]

    def __post_init__(self) -> None:
        shape = tuple(self.game.output_cardinalities)
        rows = {}
        for x in self.game.admissible_inputs():
            if x not in self.table:
                raise ValueError(f"behavior missing admissible input {x}")
            row = np.array(self.table[x], dtype=float)
            if row.shape != shape:
                raise ValueError(f"row {x} has shape {row.shape}, expected {shape}")
            low = row.min()
            if low < -BEHAVIOR_TOL:
                raise ValueError(f"negative conditional probability at {x}")
            if low < 0.0:
                row = np.where(row < 0.0, 0.0, row)
            if abs(row.sum() - 1.0) > BEHAVIOR_TOL:
                raise ValueError(f"row {x} sums to {row.sum()}, expected 1")
            row.flags.writeable = False
            rows[x] = row
        object.__setattr__(self, "table", rows)

    def prob(self, outputs: OutputTuple, inputs: InputTuple) -> float:
        return float(self.table[inputs][outputs])


@functools.cache
def chsh_game() -> GameSpec:
    """Two parties, binary everything, win iff A xor B = a*b.

    Cached: every call returns the same immutable instance, the stable
    key of the caches kept per game.
    """
    return GameSpec(
        name="chsh",
        n_parties=2,
        input_cardinalities=(2, 2),
        output_cardinalities=(2, 2),
        promise=lambda x: True,
        win=lambda x, o: (o[0] ^ o[1]) == (x[0] & x[1]),
    )


@functools.cache
def mermin_game() -> GameSpec:
    """Three parties, binary in/out, promise a^b^c = 0.

    Win condition: A xor B xor C = (a or b or c).  On the 000 input the
    outputs must have even parity, on the other three admissible inputs
    odd parity.  Classically at most 3 of the 4 cells can be won; a GHZ
    state wins all 4.

    Cached: every call returns the same immutable instance, the stable
    key of the caches kept per game.
    """
    return GameSpec(
        name="mermin",
        n_parties=3,
        input_cardinalities=(2, 2, 2),
        output_cardinalities=(2, 2, 2),
        promise=lambda x: (x[0] ^ x[1] ^ x[2]) == 0,
        win=lambda x, o: (o[0] ^ o[1] ^ o[2]) == (x[0] | x[1] | x[2]),
    )


def bit_of(symbol: int, j: int) -> int:
    """j-th bit (LSB first) of an output symbol."""
    return (symbol >> j) & 1


def magic_square_alice_bits(symbol: int) -> tuple[int, int, int]:
    """Alice's three bits from her 2-bit output symbol; parity even."""
    b0, b1 = bit_of(symbol, 0), bit_of(symbol, 1)
    return (b0, b1, b0 ^ b1)


def magic_square_bob_bits(symbol: int) -> tuple[int, int, int]:
    """Bob's three bits from his 2-bit output symbol; parity odd."""
    b0, b1 = bit_of(symbol, 0), bit_of(symbol, 1)
    return (b0, b1, b0 ^ b1 ^ 1)


@functools.cache
def magic_square_game() -> GameSpec:
    """Two parties, ternary inputs, 4-symbol outputs.

    Each output symbol carries two free bits; the third bit is fixed by
    the parity constraint (even for Alice, odd for Bob).  Win iff
    Alice's b-th bit equals Bob's a-th bit.

    Cached: every call returns the same immutable instance, the stable
    key of the caches kept per game.
    """

    def win(x: InputTuple, o: OutputTuple) -> bool:
        a, b = x
        return magic_square_alice_bits(o[0])[b] == magic_square_bob_bits(o[1])[a]

    return GameSpec(
        name="magic-square",
        n_parties=2,
        input_cardinalities=(3, 3),
        output_cardinalities=(4, 4),
        promise=lambda x: True,
        win=win,
    )


def uniform_distribution(game: GameSpec) -> InputDistribution:
    cells = game.admissible_inputs()
    p = 1.0 / len(cells)
    return InputDistribution(game, {x: p for x in cells})


def success_probability(game: GameSpec, dist: InputDistribution, behavior: Behavior) -> float:
    """Win probability: sum over inputs of p(x) * P(win | x)."""
    if dist.game is not game and dist.game.name != game.name:
        raise ValueError("distribution built for a different game")
    if behavior.game is not game and behavior.game.name != game.name:
        raise ValueError("behavior built for a different game")
    total = 0.0
    for x in game.admissible_inputs():
        px = dist.prob(x)
        if px == 0.0:
            continue
        row = behavior.table[x]
        win_mass = sum(row[o] for o in game.all_outputs() if game.win(x, o))
        total += px * win_mass
    return float(total)


def input_distribution_from_source(game: GameSpec, source: ExtremalSource) -> InputDistribution:
    """Distribution induced by drawing the round's input bits from `source`.

    Two bits are consumed per round, Alice's first, then Bob's, read at
    the sign pattern's start and at its state after Alice's bit: the
    distribution of a round that starts in the start state, which every
    round does under a round-local pattern.  For the tripartite game the
    third input is set to a xor b, which lands the support exactly on
    the promise.  Only binary-input games are supported.
    """
    if any(c != 2 for c in game.input_cardinalities[:2]):
        raise ValueError(f"game {game.name} does not take two source bits as inputs")
    pattern = source.sign
    first = source.next_bit_probability(pattern.start)
    table: dict[InputTuple, float] = {}
    for a in (0, 1):
        pa = first if a == 0 else 1.0 - first
        second = source.next_bit_probability(pattern.step(pattern.start, a))
        for b in (0, 1):
            pb = second if b == 0 else 1.0 - second
            if game.n_parties == 2:
                cell: InputTuple = (a, b)
            elif game.n_parties == 3:
                cell = (a, b, a ^ b)
            else:
                raise ValueError(f"unsupported party count {game.n_parties}")
            if not game.promise(cell):
                raise ValueError(f"induced cell {cell} violates the promise")
            table[cell] = table.get(cell, 0.0) + pa * pb
    return InputDistribution(game, table)
