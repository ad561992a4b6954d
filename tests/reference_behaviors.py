"""Reference checks that the behavior tests compare against."""

import numpy as np

from randamp.games import Behavior, GameSpec


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
