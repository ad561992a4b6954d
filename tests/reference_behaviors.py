"""Reference checks and constructions that the behavior tests compare against."""

import math
from functools import reduce

import numpy as np

from randamp.games import Behavior, GameSpec, chsh_game, mermin_game
from randamp.strategies import PAULI_X, PAULI_Y, QuantumStrategy, projective_pair, pure_state_density


def loop_behavior_of_quantum(strategy: QuantumStrategy, game: GameSpec) -> Behavior:
    """Reference for `behavior_of_quantum`: one Kronecker product and one
    trace per (input cell, output)."""
    shape = tuple(game.output_cardinalities)
    table = {}
    for x in game.admissible_inputs():
        row = np.zeros(shape)
        for o in game.all_outputs():
            # kron accumulates in party order, matching the state's factor order
            op = reduce(np.kron, [strategy.measurements[p][x[p]][o[p]] for p in range(game.n_parties)])
            row[o] = float(np.trace(strategy.state @ op).real)
        table[x] = row
    return Behavior(game, table)


def dipping_product_strategy() -> QuantumStrategy:
    """Each party measures n.sigma, n at angle 1.552 in the X-Y plane, on
    the product of its +1 eigenstates.  The Born rule rounds two
    zero-probability outcomes at cell 000 to about -7e-18 and -9e-17,
    which `Behavior` sets to 0."""
    n = math.cos(1.552) * PAULI_X + math.sin(1.552) * PAULI_Y
    plus = np.linalg.eigh(n)[1][:, 1]
    per_party = (projective_pair(n), projective_pair(PAULI_Y))
    return QuantumStrategy(
        (2, 2, 2), pure_state_density(np.kron(np.kron(plus, plus), plus)), (per_party,) * 3
    )


def no_signalling_residual(behavior: Behavior, game: GameSpec) -> float:
    """Max discrepancy of any party's marginal across other-party inputs.

    Zero (to numerical precision) for all deterministic and quantum
    behaviors; strictly positive tables would require signalling.
    Only inputs inside the promise are compared, since conditionals
    outside it are undefined.
    """
    admissible = game.admissible_inputs()
    worst = 0.0
    for party in range(game.n_parties):
        others = [q for q in range(game.n_parties) if q != party]
        # Group admissible inputs by this party's own input symbol.
        for own in range(game.input_cardinalities[party]):
            cells = [x for x in admissible if x[party] == own]
            marginals = []
            for x in cells:
                row = behavior.table[x]
                marginals.append(np.asarray(row.sum(axis=tuple(others))))
            for m in marginals[1:]:
                worst = max(worst, float(np.max(np.abs(m - marginals[0]))))
    return worst


def random_qubit_strategy(seed: int) -> tuple[QuantumStrategy, GameSpec]:
    """Seeded random strategy for CHSH (even seeds) or Mermin (odd seeds):
    a random mixed state of random rank and, per party and input, a
    random binary qubit POVM that is projective for every third seed."""
    rng = np.random.default_rng(seed)
    n_parties = 2 if seed % 2 == 0 else 3
    dim = 2 ** n_parties
    rank = rng.integers(1, dim + 1)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real

    def povm():
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        weights = rng.integers(0, 2, size=2).astype(float) if seed % 3 == 0 else rng.random(2)
        e0 = u @ np.diag(weights) @ u.conj().T
        e0 = (e0 + e0.conj().T) / 2.0
        return (e0, np.eye(2) - e0)

    measurements = tuple((povm(), povm()) for _ in range(n_parties))
    game = chsh_game() if n_parties == 2 else mermin_game()
    return QuantumStrategy((2,) * n_parties, rho, measurements), game
