"""Deterministic and quantum strategies for the games in games.py.

Classical values are exact maxima over the full deterministic
enumeration (local randomness never helps, so deterministic strategies
suffice).  Quantum behaviors come from the Born rule on explicit
states and measurements; the two reference constructions are the
three-qubit GHZ strategy for the tripartite game and the two-pair
Pauli-grid strategy for the magic square.

A strategy's behavior in a game, and a quantum strategy's depolarized
copy at a visibility, are built once and memoized on the strategy
object, so a batch of protocol runs against one device builds them once
and neither build needs a fast path.  The memos are instance attributes
set with `object.__setattr__`, not fields: equality, hashing and repr
ignore them, and a pickled or copied strategy is rebuilt from its fields
without them.  They are sound because nothing they depend on can
change: strategies are frozen, a quantum strategy holds read-only copies
of its arrays, behavior rows are read-only, and the games are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from .games import (
    Behavior,
    GameSpec,
    InputDistribution,
    InputTuple,
    success_probability,
)

QUANTUM_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _memoized(strategy: object, name: str, key, build):
    """`build(strategy, key)`, built on the first call for `key` and kept
    in the dict attribute `name` of `strategy`, made on first use."""
    memo = strategy.__dict__.get(name)
    if memo is None:
        memo = {}
        object.__setattr__(strategy, name, memo)
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(strategy, key)
    return value


def _reduce_to_fields(strategy: object) -> tuple:
    """Pickle and copy a strategy as its constructor called on its fields,
    so the copy is checked and made read-only anew and starts without
    memos, which hold games and so their lambdas."""
    return type(strategy), tuple(getattr(strategy, f.name) for f in fields(strategy))


def _read_only_copy(a) -> np.ndarray:
    """A complex copy of `a` that cannot be written to."""
    copy = np.array(a, dtype=complex)
    copy.flags.writeable = False
    return copy


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-party lookup tables: assignments[party][input] = output."""

    assignments: tuple[tuple[int, ...], ...]

    __reduce__ = _reduce_to_fields

    def output(self, party: int, x: int) -> int:
        return self.assignments[party][x]

    def outputs(self, inputs: InputTuple) -> tuple[int, ...]:
        return tuple(self.assignments[p][x] for p, x in enumerate(inputs))


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing visibility: v=1 noiseless, v=0 maximally mixed."""

    visibility: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared state plus per-party, per-input POVMs.

    measurements[party][input] is a tuple of PSD operators, one per
    output symbol, summing to the identity on that party's local space.
    The strategy holds read-only complex copies of the state and the
    operators it is given, so the caller's arrays stay its own and the
    memos kept on the strategy stay valid.
    """

    local_dims: tuple[int, ...]
    state: np.ndarray
    measurements: tuple[tuple[tuple[np.ndarray, ...], ...], ...]

    __reduce__ = _reduce_to_fields

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", _read_only_copy(self.state))
        object.__setattr__(self, "measurements", tuple(
            tuple(tuple(_read_only_copy(E) for E in povm) for povm in per_input)
            for per_input in self.measurements
        ))
        dim = int(np.prod(self.local_dims))
        rho = self.state
        if rho.shape != (dim, dim):
            raise ValueError(f"state must be {dim}x{dim}, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > QUANTUM_TOL:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > QUANTUM_TOL:
            raise ValueError(f"state trace is {np.trace(rho).real}, expected 1")
        if np.linalg.eigvalsh(rho).min() < -QUANTUM_TOL:
            raise ValueError("state is not positive semidefinite")
        if len(self.measurements) != len(self.local_dims):
            raise ValueError("one measurement family per party required")
        for p, per_input in enumerate(self.measurements):
            d = self.local_dims[p]
            for x, povm in enumerate(per_input):
                for E in povm:
                    if E.shape != (d, d):
                        raise ValueError(f"party {p} input {x}: operator shape {E.shape}")
                    if np.max(np.abs(E - E.conj().T)) > QUANTUM_TOL:
                        raise ValueError(f"party {p} input {x}: non-Hermitian element")
                    if np.linalg.eigvalsh(E).min() < -QUANTUM_TOL:
                        raise ValueError(f"party {p} input {x}: element not PSD")
                if np.max(np.abs(sum(povm) - np.eye(d))) > QUANTUM_TOL:
                    raise ValueError(f"party {p} input {x}: POVM does not sum to identity")


def pure_state_density(vec: Sequence[complex]) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def projective_pair(observable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary POVM from a +/-1-valued observable: outcome bit m has
    projector (I + (-1)^m O)/2."""
    d = observable.shape[0]
    eye = np.eye(d, dtype=complex)
    return ((eye + observable) / 2.0, (eye - observable) / 2.0)


def behavior_of_deterministic(strategy: DeterministicStrategy, game: GameSpec) -> Behavior:
    """Point-mass conditional table of a deterministic strategy.

    Built once per (strategy, game) and memoized on the strategy, keyed
    by the game: every later call with an equal game returns the same
    read-only `Behavior`.
    """
    return _memoized(strategy, "_behaviors", game, _deterministic_behavior)


def _deterministic_behavior(strategy: DeterministicStrategy, game: GameSpec) -> Behavior:
    for p in range(game.n_parties):
        if len(strategy.assignments[p]) != game.input_cardinalities[p]:
            raise ValueError(f"party {p}: strategy not total on the input alphabet")
        if any(o >= game.output_cardinalities[p] for o in strategy.assignments[p]):
            raise ValueError(f"party {p}: output symbol out of range")
    shape = tuple(game.output_cardinalities)
    table = {}
    for x in game.admissible_inputs():
        row = np.zeros(shape)
        row[strategy.outputs(x)] = 1.0
        table[x] = row
    return Behavior(game, table)


def enumerate_deterministic(game: GameSpec) -> Iterator[DeterministicStrategy]:
    """All deterministic strategies, each exactly once."""
    per_party = [
        list(itertools.product(range(game.output_cardinalities[p]), repeat=game.input_cardinalities[p]))
        for p in range(game.n_parties)
    ]
    for combo in itertools.product(*per_party):
        yield DeterministicStrategy(tuple(combo))


def classical_value(game: GameSpec, dist: InputDistribution) -> tuple[float, DeterministicStrategy]:
    """Exact classical game value with an achieving witness."""
    cells = [(x, dist.prob(x)) for x in game.admissible_inputs()]
    best = -1.0
    witness = None
    for strat in enumerate_deterministic(game):
        value = sum(p for x, p in cells if p > 0.0 and game.win(x, strat.outputs(x)))
        if value > best:
            best = value
            witness = strat
    assert witness is not None
    return float(best), witness


def biased_mermin_classical_value(epsilon: float) -> float:
    """Closed form 1 - (1/2 - eps)^2 for the canonical input distribution.

    A deterministic strategy can win at most three of the four promise
    cells (the win parities 0,1,1,1 are incompatible with the linear
    relation the three one-bit functions impose), and the best choice
    sacrifices the least likely cell 110, which has probability
    (1/2 - eps)^2 under the canonical source.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    r = 0.5 - epsilon
    return 1.0 - r * r


def behavior_of_quantum(strategy: QuantumStrategy, game: GameSpec) -> Behavior:
    """Born-rule conditional table of a quantum strategy.

    Built once per (strategy, game) by `_quantum_behavior` and memoized on
    the strategy, keyed by the game: every later call with an equal game
    returns the same read-only `Behavior`.
    """
    return _memoized(strategy, "_behaviors", game, _quantum_behavior)


def _quantum_behavior(strategy: QuantumStrategy, game: GameSpec) -> Behavior:
    """The Born rule: one Kronecker product of the parties' POVM elements
    and one trace against the state per (input cell, output)."""
    if len(strategy.local_dims) != game.n_parties:
        raise ValueError("strategy and game disagree on the number of parties")
    for p in range(game.n_parties):
        if len(strategy.measurements[p]) != game.input_cardinalities[p]:
            raise ValueError(f"party {p}: one POVM per input required")
        for povm in strategy.measurements[p]:
            if len(povm) != game.output_cardinalities[p]:
                raise ValueError(f"party {p}: one POVM element per output required")
    table = {}
    for x in game.admissible_inputs():
        row = np.zeros(game.output_cardinalities)
        for o in game.all_outputs():
            # kron accumulates in party order, matching the state's factor order
            op = reduce(np.kron, [strategy.measurements[p][x[p]][o[p]] for p in range(game.n_parties)])
            row[o] = np.trace(strategy.state @ op).real
        table[x] = row
    return Behavior(game, table)


def ghz_mermin_strategy() -> QuantumStrategy:
    """GHZ state, Pauli-X for input 0 and Pauli-Y for input 1, all parties.

    The GHZ state is a +1 eigenstate of XXX and a -1 eigenstate of XYY,
    YXY, YYX, so the win probability is 1 on every promise cell.
    """
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    per_party = (projective_pair(PAULI_X), projective_pair(PAULI_Y))
    return QuantumStrategy(
        local_dims=(2, 2, 2),
        state=pure_state_density(ghz),
        measurements=(per_party, per_party, per_party),
    )


def _magic_square_grid() -> list[list[np.ndarray]]:
    """3x3 grid of commuting two-qubit observables.

    Rows multiply to +I, columns to -I, and every entry is
    transpose-invariant, so both parties can use the same matrices on
    the maximally entangled two-pair state and get perfectly correlated
    outcomes on the shared cell.
    """
    kron = np.kron
    return [
        [kron(I2, PAULI_Z), kron(PAULI_Z, I2), kron(PAULI_Z, PAULI_Z)],
        [kron(PAULI_X, I2), kron(I2, PAULI_X), kron(PAULI_X, PAULI_X)],
        [-kron(PAULI_X, PAULI_Z), -kron(PAULI_Z, PAULI_X), kron(PAULI_Y, PAULI_Y)],
    ]


def magic_square_quantum_strategy() -> QuantumStrategy:
    """Two maximally entangled qubit pairs and the Pauli-grid measurements.

    Alice on input a measures the first two observables of row a; her
    output symbol encodes those two bits (the row product +I fixes her
    third bit to even parity).  Bob on input b measures the first two
    observables of column b; the column product -I fixes his third bit
    to odd parity.
    """
    grid = _magic_square_grid()
    dim = 4
    psi = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        psi[k * dim + k] = 0.5

    def povm_from(o1: np.ndarray, o2: np.ndarray) -> tuple[np.ndarray, ...]:
        eye = np.eye(dim, dtype=complex)
        elems = []
        for symbol in range(4):
            m0, m1 = symbol & 1, (symbol >> 1) & 1
            p0 = (eye + (1 - 2 * m0) * o1) / 2.0
            p1 = (eye + (1 - 2 * m1) * o2) / 2.0
            elems.append(p0 @ p1)
        return tuple(elems)

    alice = tuple(povm_from(grid[a][0], grid[a][1]) for a in range(3))
    bob = tuple(povm_from(grid[0][b], grid[1][b]) for b in range(3))
    return QuantumStrategy(
        local_dims=(dim, dim),
        state=pure_state_density(psi),
        measurements=(alice, bob),
    )


def apply_depolarizing(strategy: QuantumStrategy, noise: NoiseModel) -> QuantumStrategy:
    """Mix the shared state with white noise; measurements unchanged.

    Built once per (strategy, visibility) and memoized on the strategy,
    keyed by `noise.visibility`: every later call at that visibility
    returns the same `QuantumStrategy`, whose own behavior memo then
    serves every run that plays it.
    """
    return _memoized(strategy, "_depolarized", noise.visibility, _depolarized)


def _depolarized(strategy: QuantumStrategy, v: float) -> QuantumStrategy:
    dim = int(np.prod(strategy.local_dims))
    state = v * strategy.state + (1.0 - v) * np.eye(dim, dtype=complex) / dim
    return QuantumStrategy(strategy.local_dims, state, strategy.measurements)


def quantum_success(strategy: QuantumStrategy, game: GameSpec, dist: InputDistribution) -> float:
    return success_probability(game, dist, behavior_of_quantum(strategy, game))
