import dataclasses
import itertools
from functools import reduce

import numpy as np
import pytest

from randamp import npa
from randamp.games import (
    DIST_TOL,
    chsh_game,
    input_distribution_from_source,
    magic_square_game,
    mermin_game,
    success_probability,
    uniform_distribution,
)
from randamp.npa import (
    LEVEL_Q1,
    LEVEL_Q1_ABC,
    LEVEL_Q2,
    LEVELS,
    BracketingError,
    InfeasibleSuccessError,
    MomentNotAvailableError,
    Relaxation,
    Scenario,
    SolverFailureError,
    SuccessFaceContext,
    UnsupportedScenarioError,
    build_basis,
    build_moment_structure,
    compile_problem,
    critical_success,
    eps_prime,
    invariant_moments,
    marginal_functional,
    max_success_probability,
    orbit_stabilizers,
    structure_for,
    success_functional,
    symmetry_group,
)
from randamp.sdp import STATUS_CUTOFF, STATUS_MAX_ITERATIONS, STATUS_OPTIMAL, TOLERANCE, _Lifted, solve, verify
from randamp.sources import ExtremalSource, canonical_mermin_source, round_position_sign
from randamp.strategies import (
    DeterministicStrategy,
    behavior_of_deterministic,
    behavior_of_quantum,
    enumerate_deterministic,
    ghz_mermin_strategy,
)

SWEEP_TOL = 1e-6


def moment_matrix_of_deterministic(structure, strategy):
    """Rank-1 PSD moment matrix embedding a deterministic strategy: the
    outer product of its basis-word values, where an observable is +1
    when the strategy answers 0 on that input, else -1."""

    def word_value(word):
        v = 1.0
        for party, sub in enumerate(word):
            for x in sub:
                v *= 1.0 if strategy.output(party, x) == 0 else -1.0
        return v

    v = np.array([word_value(w) for w in structure.basis.words])
    return np.outer(v, v)


def moments_of_matrix(structure, M):
    """One value per moment id, read from a (consistent) moment matrix."""
    return np.array([M[cells[0]] for cells in structure.id_cells])


def outcome_probability_functional(structure, outputs, inputs):
    """Coefficients over moment ids expressing P(outputs | inputs)."""
    c = np.zeros(len(structure.id_cells))
    for word, coef in zip(*npa._outcome_expansion(structure.basis.scenario.n_parties, outputs, inputs)):
        c[npa._moment_id(structure, word)] += coef
    return c


def outcome_operator_vector(structure, outputs, inputs):
    """The joint outcome operator's expansion over the basis words, for
    one (outputs, inputs) at a time."""
    index = {w: i for i, w in enumerate(structure.basis.words)}
    vec = np.zeros(len(structure.basis.words))
    for word, coef in zip(*npa._outcome_expansion(structure.basis.scenario.n_parties, outputs, inputs)):
        vec[index[word]] += coef
    return vec


def target_bound(game, dist, floor, target, stabilizer=(), face=None, tol=TOLERANCE):
    """One target's bound at a success floor: on the success-1 face at
    floor 1 (a fresh face unless one is given), else over the moments
    `stabilizer` fixes, every moment vector by default."""
    structure = structure_for(game, LEVEL_Q1_ABC)
    objective = marginal_functional(structure, *target)
    if floor == 1.0:
        return (face or SuccessFaceContext(structure, game, dist)).bound(objective)
    success = success_functional(structure, game, dist)
    problem = compile_problem(structure, objective, stabilizer, success, floor)
    return npa._upper_value(solve(problem, tol), unit_coefficient(structure, objective), str(target))


def unit_coefficient(structure, functional):
    """c.m0 for the unit vector m0: the `offset` of `npa._upper_value`."""
    return float(functional[structure.unit_id])


def test_basis_word_counts():
    tri = Scenario(3, (2, 2, 2), (2, 2, 2))
    duo = Scenario(2, (2, 2), (2, 2))
    assert len(build_basis(tri, LEVEL_Q1)) == 7
    assert len(build_basis(tri, LEVEL_Q1_ABC)) == 27
    assert len(build_basis(tri, LEVEL_Q2)) == 25
    assert len(build_basis(duo, LEVEL_Q1)) == 5
    assert len(build_basis(duo, LEVEL_Q2)) == 13


def test_basis_words_are_canonical():
    tri = Scenario(3, (2, 2, 2), (2, 2, 2))
    for level in (LEVEL_Q1_ABC, LEVEL_Q2):
        words = build_basis(tri, level).words
        assert len(set(words)) == len(words)
        for w in words:
            assert len(w) == 3
            for sub in w:
                # no adjacent repeats survive A A = 1
                assert all(a != b for a, b in zip(sub, sub[1:]))


def test_scenario_level_validation():
    duo = Scenario(2, (2, 2), (2, 2))
    assert LEVELS == (LEVEL_Q1, LEVEL_Q1_ABC, LEVEL_Q2)
    for level in ("Q3", "Q1+AB", "Q2+ABC"):
        with pytest.raises(ValueError, match="unknown level"):
            build_basis(Scenario(3, (2, 2, 2), (2, 2, 2)), level)
    with pytest.raises(UnsupportedScenarioError):
        build_basis(duo, LEVEL_Q1_ABC)
    with pytest.raises(UnsupportedScenarioError):
        build_basis(Scenario.from_game(magic_square_game()), LEVEL_Q1)


def test_moment_structure_is_symmetric_with_unit():
    structure = structure_for(mermin_game(), LEVEL_Q1_ABC)
    ids = structure.cell_ids
    assert np.array_equal(ids, ids.T)
    i0, j0 = structure.id_cells[structure.unit_id][0]
    assert (i0, j0) == (0, 0)


MOMENT_COUNTS = [
    (mermin_game, {LEVEL_Q1: 22, LEVEL_Q1_ABC: 76, LEVEL_Q2: 93}),
    (chsh_game, {LEVEL_Q1: 11, LEVEL_Q2: 31}),
]


def test_moment_counts_and_unit_diagonal():
    """Observable words span the same operators as outcome-0 projector
    words, so every level keeps the projector form's count of distinct
    moments; each diagonal cell w^dagger w reduces to the unit moment."""
    for make_game, counts in MOMENT_COUNTS:
        for level, count in counts.items():
            structure = structure_for(make_game(), level)
            assert len(structure.id_cells) == count, level
            assert np.all(np.diag(structure.cell_ids) == structure.unit_id), level


def test_query_validation():
    """A success floor outside [0, 1] is rejected before any solve;
    `randamp figure1 --ps 1.5` reaches this check."""
    game = mermin_game()
    relaxation = Relaxation(game, uniform_distribution(game))
    for floor in (1.5, -0.1):
        with pytest.raises(ValueError, match="success floor must lie in"):
            relaxation.p_max(floor)
        with pytest.raises(ValueError, match="success floor must lie in"):
            eps_prime(0.3, floor)


def test_mermin_success_needs_triple_moments():
    game = mermin_game()
    dist = uniform_distribution(game)
    structure = structure_for(game, LEVEL_Q1)
    with pytest.raises(MomentNotAvailableError):
        success_functional(structure, game, dist)


def test_deterministic_embedding_all_strategies():
    """Every deterministic strategy embeds as a rank-1 PSD moment matrix
    that honors all cell ties and reproduces the exact behavior."""
    game = mermin_game()
    structure = structure_for(game, LEVEL_Q1_ABC)
    for strategy in enumerate_deterministic(game):
        M = moment_matrix_of_deterministic(structure, strategy)
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() >= -1e-12
        assert sum(e > 1e-9 for e in eigs) == 1
        for cells in structure.id_cells:
            vals = {M[i, j] for i, j in cells}
            assert len(vals) == 1
        moments = moments_of_matrix(structure, M)
        assert moments[structure.unit_id] == 1.0
        behavior = behavior_of_deterministic(strategy, game)
        for x in game.admissible_inputs():
            for o in game.all_outputs():
                functional = outcome_probability_functional(structure, o, x)
                assert abs(functional @ moments - behavior.prob(o, x)) <= 1e-12


def test_success_functional_matches_game_evaluation():
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.25))
    structure = structure_for(game, LEVEL_Q1_ABC)
    functional = success_functional(structure, game, dist)
    from randamp.games import success_probability

    for strategy in itertools.islice(enumerate_deterministic(game), 0, 64, 7):
        M = moment_matrix_of_deterministic(structure, strategy)
        via_moments = functional @ moments_of_matrix(structure, M)
        direct = success_probability(game, dist, behavior_of_deterministic(strategy, game))
        assert abs(via_moments - direct) <= 1e-12


def ghz_moment_matrix(structure):
    """Exact quantum moment matrix of the perfect tripartite strategy."""
    strat = ghz_mermin_strategy()
    rho = strat.state
    eye = np.eye(2, dtype=complex)

    def party_op(party, sub):
        op = eye
        for x in sub:
            outcome_0, outcome_1 = strat.measurements[party][x]
            op = op @ (outcome_0 - outcome_1)
        return op

    def word_op(word):
        return reduce(np.kron, (party_op(p, sub) for p, sub in enumerate(word)))

    ops = [word_op(w) for w in structure.basis.words]
    m = len(ops)
    M = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            M[i, j] = float(np.real(np.trace(rho @ ops[i].conj().T @ ops[j])))
    return M


def test_perfect_strategy_lies_on_success_face():
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    structure = structure_for(game, LEVEL_Q1_ABC)
    M = ghz_moment_matrix(structure)

    losing = [
        outcome_operator_vector(structure, o, x)
        for x in game.admissible_inputs()
        for o in game.all_outputs()
        if not game.win(x, o)
    ]
    worst = max(float(np.max(np.abs(M @ u))) for u in losing)
    assert worst <= 1e-9
    # the face's one point is the GHZ strategy's moments
    point = SuccessFaceContext(structure, game, dist).point
    assert np.max(np.abs(point[structure.cell_ids] - M)) <= 1e-9


def test_face_bound_of_marginal_is_half():
    """On the success-1 face no outcome is predictable beyond 1/2."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.2))
    assert target_bound(game, dist, 1.0, (0, 0, 0)) == 0.5


@pytest.mark.parametrize("game,epsilon,level", [
    (mermin_game(), 0.0, LEVEL_Q1_ABC),
    (mermin_game(), 0.3, LEVEL_Q1_ABC),
    (mermin_game(), 0.45, LEVEL_Q1_ABC),
    (chsh_game(), None, LEVEL_Q2),
], ids=["mermin-0", "mermin-0.3", "mermin-0.45", "chsh-Q2"])
def test_losing_vectors_match_one_vector_per_outcome(game, epsilon, level):
    """The losing vectors, built per input cell, have the bytes of one
    `outcome_operator_vector` per losing (outputs, inputs)."""
    if epsilon is None:
        dist = uniform_distribution(game)
    else:
        dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, level)
    reference = np.array([
        outcome_operator_vector(structure, o, x)
        for x in game.admissible_inputs() if dist.prob(x) > 0.0
        for o in game.all_outputs() if not game.win(x, o)
    ])
    assert losing_vectors(structure, game, dist).tobytes() == reference.tobytes()


def losing_vectors(structure, game, dist):
    return npa._losing_vectors(structure.basis, game, npa._positive_inputs(game, dist))


def face_of(relaxation):
    """The success-1 face a floor-1 query of `relaxation` reads."""
    return SuccessFaceContext(relaxation.structure, relaxation.game, relaxation.dist)


def scaled_losing_vectors(structure, game, dist):
    """The losing outcome vectors times 2^3, an integer matrix."""
    scaled = 8 * losing_vectors(structure, game, dist)
    assert np.array_equal(scaled, np.rint(scaled))
    return scaled.astype(np.int64)


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3, 0.45, 0.499])
def test_face_point_is_exact(epsilon):
    """The success-1 face point has entries in {-1, 0, 1}, every losing
    vector annihilates its moment matrix in integer arithmetic, and
    every target marginal is exactly 1/2 there."""
    game, dist = canonical_distribution(epsilon)
    face = face_of(Relaxation(game, dist))
    structure, point = face.structure, face.point
    assert set(point.tolist()) <= {-1, 0, 1}
    assert not (scaled_losing_vectors(structure, game, dist) @ point[structure.cell_ids]).any()
    for target in npa._targets(game):
        assert marginal_functional(structure, *target) @ point == 0.5, target


def test_exact_psd_test():
    """Negative pivots and zero pivots with a nonzero row are rejected;
    a singular PSD matrix passes."""
    assert npa._is_psd(np.array([[2, 1, 0], [1, 1, 1], [0, 1, 1]])) is False
    assert npa._is_psd(np.array([[0, 1], [1, 0]])) is False
    assert npa._is_psd(np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]])) is True
    assert npa._is_psd(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 3]])) is True


def rank_mod_p(matrix, p=2147483629):
    """Rank over GF(p) by Gaussian elimination; every product of two
    residues stays below 2^62, inside int64."""
    a = np.asarray(matrix, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        rows = np.nonzero(a[rank:, c])[0]
        if not len(rows):
            continue
        a[[rank, rank + rows[0]]] = a[[rank + rows[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, c, None] * a[rank]) % p
        rank += 1
    return rank


def test_face_point_is_unique_at_every_epsilon():
    """The face system M(m) v = 0 over the losing vectors v, scaled by 8
    to integers, is a 432x75 matrix over the non-unit moments of full
    column rank: its rank modulo the prime 2147483629 is 75, and the rank
    over the rationals is at least that.  The system depends only on the
    support of the input distribution, which is every promise input at
    each epsilon < 1/2, so the face is one point at every such epsilon."""
    game, dist = canonical_distribution(0.3)
    structure = structure_for(game, LEVEL_Q1_ABC)
    scaled = scaled_losing_vectors(structure, game, dist)
    for epsilon in (0.0, 0.499):
        assert np.array_equal(scaled, scaled_losing_vectors(structure, *canonical_distribution(epsilon)))
    n = len(structure.id_cells)
    system = structure.indicators.astype(np.int64) @ scaled.T
    system = np.delete(system.reshape(n, -1).T, structure.unit_id, axis=1)
    assert system.shape == (432, 75)
    assert rank_mod_p(system) == 75


def test_face_with_free_moments_is_rejected():
    """When every output wins, no losing vector constrains the success-1
    face and all 75 non-unit moments stay free, which the exact face does
    not decide; it says so instead of returning a value."""
    game = dataclasses.replace(mermin_game(), win=lambda x, o: True)
    with pytest.raises(UnsupportedScenarioError, match="75 free moments"):
        Relaxation(game, uniform_distribution(game)).p_max(1.0)


def idle_party_chsh():
    """CHSH between parties 0 and 1 with an idle party 2, on every input,
    under uniform inputs: a second 3-party game for the relaxation."""
    chsh = chsh_game()
    game = dataclasses.replace(mermin_game(), name="chsh-idle", promise=lambda x: True,
                               win=lambda x, o: chsh.win(x[:2], o[:2]))
    return game, uniform_distribution(game)


def test_chsh_cannot_win_always():
    """No moment matrix at Q1+ABC lies on the CHSH success-1 face."""
    with pytest.raises(InfeasibleSuccessError):
        Relaxation(*idle_party_chsh()).p_max(1.0)


@pytest.mark.parametrize("floor", [0.86, 0.9, 0.99])
def test_chsh_floor_above_quantum_value_is_infeasible(floor):
    """A floor between the quantum value (~0.8536) and 1 leaves no
    moments; the full-form solve must report it, not fail."""
    with pytest.raises(InfeasibleSuccessError):
        Relaxation(*idle_party_chsh()).p_max(floor)


@pytest.mark.parametrize("floor", [0.75, 0.8])
def test_reduced_solves_match_unreduced_on_a_second_game(floor):
    """Each orbit representative's bound over its stabilizer's invariant
    moments equals its unreduced bound within 1e-7 on CHSH with an idle
    party, whose symmetry group differs from Mermin's.  The idle party
    is unconstrained and reads 1; at 0.8 the CHSH parties' targets read
    about 0.874 and need the reduction to be right."""
    game, dist = idle_party_chsh()
    values = {}
    for target, stabilizer in Relaxation(game, dist).orbits:
        values[target] = target_bound(game, dist, floor, target, stabilizer)
        assert abs(values[target] - target_bound(game, dist, floor, target)) <= 1e-7, target
    assert max(values.values()) == pytest.approx(1.0, abs=1e-7)
    if floor == 0.8:
        assert values[(0, 0, 0)] == pytest.approx(0.8741657424, abs=1e-7)


def test_chsh_level1_value():
    game = chsh_game()
    value = max_success_probability(game, uniform_distribution(game), LEVEL_Q1)
    assert abs(value - (0.5 + np.sqrt(2) / 4.0)) <= 1e-4


def test_mermin_relaxation_value_is_one():
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    value = max_success_probability(game, dist, LEVEL_Q1_ABC)
    assert abs(value - 1.0) <= 1e-6


def test_hierarchy_levels_never_loosen():
    """Tighter moment bases can only shrink the feasible set."""
    game = chsh_game()
    dist = uniform_distribution(game)
    q1 = max_success_probability(game, dist, LEVEL_Q1)
    q2 = max_success_probability(game, dist, LEVEL_Q2)
    assert q2 <= q1 + 1e-6


def test_symmetry_of_targets_under_party_permutation():
    """The game and the uniform distribution are invariant under party
    permutations, so every permuted target gives the same bound."""
    game = mermin_game()
    dist = uniform_distribution(game)
    for x, outcome in ((0, 0), (1, 1)):
        bounds = [
            target_bound(game, dist, 0.9, (party, x, outcome), tol=SWEEP_TOL)
            for party in range(3)
        ]
        assert max(bounds) - min(bounds) <= 2e-4


def test_symmetry_of_first_two_parties_under_source_distribution():
    """The induced input distribution treats the first two parties
    identically, so their targets are exchangeable."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    for x in (0, 1):
        for outcome in (0, 1):
            r0 = target_bound(game, dist, 0.97, (0, x, outcome), tol=SWEEP_TOL)
            r1 = target_bound(game, dist, 0.97, (1, x, outcome), tol=SWEEP_TOL)
            assert abs(r0 - r1) <= 2e-4


def target_orbits(game, dist):
    """The targets grouped into orbits of `symmetry_group(game, dist)`.

    Each orbit lists its targets in `_targets` order; the first is the
    orbit's representative.  Targets in one orbit have equal bounds at
    every level in LEVELS (see `symmetry_group`)."""
    return npa._orbits(game, symmetry_group(game, dist))


def test_target_orbits_of_the_three_scenarios():
    """The canonical source keeps 4 of the 12 Mermin targets distinct,
    the uniform distributions 2; the orbits partition the targets."""
    mermin, chsh = mermin_game(), chsh_game()
    canonical = input_distribution_from_source(mermin, canonical_mermin_source(0.3))
    cases = [
        (mermin, canonical, [(0, 0, 0), (0, 1, 0), (2, 0, 0), (2, 1, 0)]),
        (mermin, uniform_distribution(mermin), [(0, 0, 0), (0, 1, 0)]),
        (chsh, uniform_distribution(chsh), [(0, 0, 0), (0, 1, 0)]),
    ]
    for game, dist, representatives in cases:
        orbits = target_orbits(game, dist)
        assert [orbit[0] for orbit in orbits] == representatives
        members = [t for orbit in orbits for t in orbit]
        assert sorted(members) == list(npa._targets(game))


def loop_target_orbits(game, dist):
    """Reference for `target_orbits`: the flip search one pattern and one
    (x, o) at a time."""
    n = game.n_parties
    admissible = game.admissible_inputs()
    wins = {(x, o): game.win(x, o) for x in admissible for o in game.all_outputs()}
    slots = [(p, x) for p in range(n) for x in range(game.input_cardinalities[p])]
    shape = [(game.input_cardinalities[p], game.output_cardinalities[p]) for p in range(n)]
    orbit_of = {t: {t} for t in npa._targets(game)}
    for perm in itertools.permutations(range(n)):
        if any(shape[perm[p]] != shape[p] for p in range(n)):
            continue
        source = [perm.index(q) for q in range(n)]
        moved = {x: tuple(x[p] for p in source) for x in game.all_inputs()}
        if any(game.promise(moved[x]) != game.promise(x) for x in moved):
            continue
        if any(abs(dist.prob(moved[x]) - dist.prob(x)) > DIST_TOL for x in admissible):
            continue
        for bits in itertools.product((0, 1), repeat=len(slots)):
            flip = dict(zip(slots, bits))
            if all(
                wins[moved[x], tuple(o[p] ^ flip[p, x[p]] for p in source)] == won
                for (x, o), won in wins.items()
            ):
                for (party, x, outcome), orbit in orbit_of.items():
                    orbit.add((perm[party], x, outcome ^ flip[party, x]))
    return sorted({tuple(sorted(orbit)) for orbit in orbit_of.values()})


def test_target_orbits_match_the_loop_search():
    mermin, chsh, square = mermin_game(), chsh_game(), magic_square_game()
    cases = [(mermin, input_distribution_from_source(mermin, canonical_mermin_source(e)))
             for e in (0.0, 0.05, 0.3, 0.45)]
    cases += [(game, uniform_distribution(game)) for game in (mermin, chsh, square)]
    for game, dist in cases:
        assert target_orbits(game, dist) == loop_target_orbits(game, dist)


def canonical_distribution(epsilon):
    game = mermin_game()
    return game, input_distribution_from_source(game, canonical_mermin_source(epsilon))


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.2, 0.25, 0.3, 0.45, 0.499])
def test_canonical_symmetries_hold_exactly(epsilon):
    """Every symmetry the enumeration accepts under the canonical source
    keeps dist.prob bit for bit, not only within DIST_TOL, and keeps the
    win predicate on the promise; each stabilizer's average fixes the success
    functional and its target's marginal to within 1e-15."""
    game, dist = canonical_distribution(epsilon)
    group = symmetry_group(game, dist)
    assert group[0] == npa.Symmetry((0, 1, 2), ((0, 0), (0, 0), (0, 0)))
    for g in group:
        source = [g.perm.index(q) for q in range(3)]
        for x in game.all_inputs():
            moved = tuple(x[p] for p in source)
            assert dist.prob(moved) == dist.prob(x)
            if not game.promise(x):
                continue
            for o in game.all_outputs():
                image = tuple(o[p] ^ g.flips[p][x[p]] for p in source)
                assert game.win(moved, image) == game.win(x, o)
    structure = structure_for(game, LEVEL_Q1_ABC)
    success = success_functional(structure, game, dist)
    for target, stabilizer in orbit_stabilizers(game, group):
        average = sum(moment_action(structure, g) for g in stabilizer) / len(stabilizer)
        marginal = marginal_functional(structure, *target)
        assert np.max(np.abs(success @ average - success)) <= 1e-15
        assert np.max(np.abs(marginal @ average - marginal)) <= 1e-15


def signed_permutation_matrix(structure, g):
    """T with T[i, sigma(i)] = s_i, from `npa._signed_permutation`."""
    sigma, s = npa._signed_permutation(structure, g)
    T = np.zeros((len(sigma), len(sigma)))
    T[np.arange(len(sigma)), sigma] = s
    return T


def moment_action(structure, g):
    """G with moment k of the image s_i s_j times moment
    cell_ids[sigma(i), sigma(j)], read at k's first cell (i, j)."""
    sigma, s = npa._signed_permutation(structure, g)
    G = np.zeros((len(structure.id_cells),) * 2)
    for k, cells in enumerate(structure.id_cells):
        i, j = cells[0]
        G[k, structure.cell_ids[sigma[i], sigma[j]]] = s[i] * s[j]
    return G


def compose(g, h):
    """The symmetry applying h first, then g."""
    perm = tuple(g.perm[h.perm[p]] for p in range(len(h.perm)))
    flips = tuple(
        tuple(f ^ g.flips[h.perm[p]][x] for x, f in enumerate(h.flips[p]))
        for p in range(len(h.perm))
    )
    return npa.Symmetry(perm, flips)


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_symmetry_group_is_closed_under_composition(epsilon):
    """Averaging over a stabilizer projects onto its fixed moments only
    if the stabilizer is a group, so the enumeration must return one."""
    game, dist = canonical_distribution(epsilon)
    group = set(symmetry_group(game, dist))
    assert len(group) == (48 if epsilon == 0.0 else 16)
    for g in group:
        for h in group:
            composed = compose(g, h)
            assert composed in group
            for t in npa._targets(game):
                assert composed.target(t) == g.target(h.target(t))


@pytest.mark.parametrize("level", LEVELS)
def test_symmetries_act_on_moment_matrices_by_congruence(level):
    """The moment map G of a symmetry, read off one cell per moment, is
    the congruence M -> T M T^T of its signed permutation T of the basis
    words on every cell: M(G m) = T M(m) T^T for any moments m, so it
    keeps the cell ties, PSD matrices and the unit moment."""
    game, dist = canonical_distribution(0.0)
    structure = structure_for(game, level)
    B = structure.indicators
    m = np.random.default_rng(7).normal(size=len(structure.id_cells))
    for g in symmetry_group(game, dist):
        T = signed_permutation_matrix(structure, g)
        assert np.array_equal(np.abs(T).sum(axis=0), np.ones(len(T)))
        G = moment_action(structure, g)
        lhs = np.tensordot(G @ m, B, axes=1)
        assert np.max(np.abs(lhs - T @ np.tensordot(m, B, axes=1) @ T.T)) <= 1e-13
        assert np.array_equal(G[structure.unit_id], np.eye(len(m))[structure.unit_id])


def test_invariant_moments_of_the_canonical_source():
    """At epsilon 0.3 the group has order 16 and the representatives'
    stabilizers 4, 4, 8 and 8, leaving 19, 19, 14 and 14 free moments of
    75.  Each set is fixed by its stabilizer, with m0 the unit vector and
    +-1 directions of disjoint supports and unit coordinate 0; the
    trivial group gives the unit vector and the identity columns."""
    game, dist = canonical_distribution(0.3)
    structure = structure_for(game, LEVEL_Q1_ABC)
    group = symmetry_group(game, dist)
    assert len(group) == 16
    stabilizers = orbit_stabilizers(game, group)
    assert [t for t, _ in stabilizers] == [orbit[0] for orbit in target_orbits(game, dist)]
    unit = structure.unit_id
    free = []
    for target, stabilizer in stabilizers:
        N, coords, _ = invariant_moments(structure.basis, stabilizer)
        m0 = coords[:, 0]
        free.append(N.shape[1])
        assert np.array_equal(m0, np.eye(len(m0))[unit]) and not N[unit].any()
        assert np.array_equal(coords[:, 1:], N)
        assert set(np.abs(N).ravel().tolist()) == {0.0, 1.0}
        assert np.array_equal(np.abs(N).T @ np.abs(N), np.diag(np.count_nonzero(N, axis=0)))
        for g in stabilizer:
            G = moment_action(structure, g)
            assert np.max(np.abs(G @ m0 - m0)) <= 1e-15
            assert np.max(np.abs(G @ N - N)) <= 1e-14
    assert [len(s) for _, s in stabilizers] == [4, 4, 8, 8]
    assert free == [19, 19, 14, 14]
    N, coords, _ = invariant_moments(structure.basis, ())
    n = len(structure.id_cells)
    assert np.array_equal(coords[:, 0], np.eye(n)[unit])
    assert np.array_equal(N, np.delete(np.eye(n), unit, axis=1))


# Cells of the certify lattice (below) checked against unreduced solves.
LATTICE_SAMPLE = [
    (0.2, 0.97), (0.23, 0.98), (0.26, 0.975), (0.28, 0.985), (0.3, 0.97), (0.3, 0.975),
]


def test_reduced_solves_match_unreduced_on_the_certify_lattice():
    """Each representative's bound over its stabilizer's invariant
    moments equals the bound over every moment vector within 1e-7."""
    for epsilon, floor in LATTICE_SAMPLE:
        game, dist = canonical_distribution(epsilon)
        for target, stabilizer in orbit_stabilizers(game, symmetry_group(game, dist)):
            reduced = target_bound(game, dist, floor, target, stabilizer)
            unreduced = target_bound(game, dist, floor, target)
            assert abs(reduced - unreduced) <= 1e-7, (epsilon, floor, target)


def unreduced_critical_success(epsilon, target_eps_prime, tol):
    """critical_success's per-target solves over every moment vector."""
    game, dist = canonical_distribution(epsilon)
    structure = structure_for(game, LEVEL_Q1_ABC)
    success = success_functional(structure, game, dist)
    best = -np.inf
    for target, _ in orbit_stabilizers(game, symmetry_group(game, dist)):
        floor = marginal_functional(structure, *target)
        problem = compile_problem(structure, success, (), floor, 0.5 + target_eps_prime)
        solution = solve(problem, tol)
        best = max(best, npa._upper_value(solution, unit_coefficient(structure, success), str(target)))
    return best


@pytest.mark.parametrize("epsilon", [0.1, 0.275, 0.45])
def test_reduced_critical_success_matches_unreduced_on_the_figure2_grid(epsilon):
    tol = 1e-4
    reduced = critical_success(epsilon, epsilon, tol)
    assert abs(reduced - unreduced_critical_success(epsilon, epsilon, tol)) <= tol


def test_cells_that_failed_unreduced_solve_reduced():
    """(0.45, 0.998), (0.45, 0.999) and (0.45, 0.9995) stalled unreduced
    in the outcome-0 projector basis; reduced, they give finite bounds,
    non-increasing in the floor and no lower than the floor-1 bound."""
    values = [eps_prime(0.45, p_s) for p_s in (0.998, 0.999, 0.9995)]
    assert all(np.isfinite(v) for v in values)
    assert values[0] >= values[1] >= values[2] >= eps_prime(0.45, 1.0)


def unreduced_solution(epsilon, floor, target):
    """One target's p_max solve over every moment vector."""
    relaxation = Relaxation.canonical(epsilon)
    structure = relaxation.structure
    problem = compile_problem(structure, marginal_functional(structure, *target), (),
                              relaxation.success, floor)
    return solve(problem)


@pytest.mark.parametrize("floor", [0.998, 0.999, 0.9995])
def test_unreduced_solves_near_floor_one_reach_optimal(floor):
    """Solved over every moment vector, with no stabilizer, each orbit
    representative at epsilon 0.45 ends optimal; in the outcome-0
    projector coordinates one or two of them stopped at max_iterations."""
    for target, _ in Relaxation.canonical(0.45).orbits:
        assert unreduced_solution(0.45, floor, target).status == STATUS_OPTIMAL, target


def test_unreduced_solve_on_the_certify_lattice_converges_quickly():
    """At (0.28, 0.985) target (0, 1, 0) takes at most 25 iterations
    unreduced (47 in the outcome-0 projector coordinates)."""
    solution = unreduced_solution(0.28, 0.985, (0, 1, 0))
    assert solution.status == STATUS_OPTIMAL
    assert solution.iterations <= 25


def test_critical_success_builds_one_structure(monkeypatch):
    """Its floor-1 check and its orbit solves each build a relaxation, and
    both relaxations share one cached structure."""
    built = []

    def recording_structure_for(game, level):
        built.append((level, structure_for(game, level)))
        return built[-1][1]

    monkeypatch.setattr(npa, "structure_for", recording_structure_for)
    critical_success(0.3, 0.29)
    assert [level for level, _ in built] == [LEVEL_Q1_ABC, LEVEL_Q1_ABC]
    assert built[0][1] is built[1][1]


SHARED_SET_UP = (npa.build_basis, npa.build_moment_structure, npa.invariant_moments, npa._face_point,
                 npa._target_orbits, npa._success_rows)


def test_shared_set_up_never_changes_a_value():
    """The set-up built once per process (structures, invariant moments
    with their block stacks, and per source pattern the target orbits,
    success rows and face points) gives the values a cold process
    gives: eps_prime and critical_success at epsilon 0.3, then at 0, whose
    symmetry group has order 48 and other stabilizers, then at 0.3 again
    equal the values computed after every cache is cleared."""
    def values(epsilon):
        return eps_prime(epsilon, 0.97), eps_prime(epsilon, 1.0), critical_success(epsilon, 0.2)

    assert len(symmetry_group(*canonical_distribution(0.0))) == 48
    warm = [values(epsilon) for epsilon in (0.3, 0.0, 0.3)]
    cold = []
    for epsilon in (0.3, 0.0, 0.3):
        for cached in SHARED_SET_UP:
            cached.cache_clear()
        cold.append(values(epsilon))
    assert warm == cold


def test_shared_set_up_is_read_only():
    """Every shared array refuses writes, and a CHSH face at Q2 still has
    no point once Mermin faces are shared."""
    game, dist = canonical_distribution(0.3)
    relaxation = Relaxation(game, dist)
    structure, face = relaxation.structure, face_of(relaxation)
    shared = invariant_moments(structure.basis, relaxation.orbits[0][1])
    for array in (structure.cell_ids, structure.indicators, *shared, face.point):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(TypeError):
        structure.moment_index[()] = 0
    chsh = chsh_game()
    assert SuccessFaceContext(structure_for(chsh, LEVEL_Q2), chsh, uniform_distribution(chsh)).point is None


def test_one_face_point_per_source_pattern(monkeypatch):
    """Floors below 1 build no face point; the first floor-1 query of a
    source pattern builds it and every later one, at any epsilon of the
    pattern, reuses it.  Epsilon 0 has other orbits, but every input still
    has positive probability, so it shares the face point too."""
    built = []
    losing_vectors = npa._losing_vectors

    def counting_losing_vectors(*key):
        built.append(key)
        return losing_vectors(*key)

    monkeypatch.setattr(npa, "_losing_vectors", counting_losing_vectors)
    npa._face_point.cache_clear()
    Relaxation.canonical(0.3).p_max(0.97)
    assert built == []
    points = [face_of(Relaxation.canonical(epsilon)).point for epsilon in (0.3, 0.3, 0.1, 0.0)]
    assert eps_prime(0.2, 1.0) == 0.0
    assert len(built) == 1
    assert all(point is points[0] for point in points)


def test_floor_one_makes_no_solve(monkeypatch):
    """p_max at floor 1 is read off the face point with no sdp.solve
    call, and each bound equals a fresh context's bit for bit."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    solves = []

    def counting_solve(problem, tol):
        solves.append(problem)
        return solve(problem, tol)

    monkeypatch.setattr(npa, "solve", counting_solve)
    monkeypatch.setattr(npa, "solve_stack", lambda problems, tol, cutoffs: solves.extend(problems))
    assert Relaxation(game, dist).p_max(1.0) == 0.5
    shared = SuccessFaceContext(structure_for(game, LEVEL_Q1_ABC), game, dist)
    for orbit in target_orbits(game, dist):
        value = target_bound(game, dist, 1.0, orbit[0], face=shared)
        assert value == target_bound(game, dist, 1.0, orbit[0])
    assert solves == []


def test_floors_below_one_never_reach_the_face(monkeypatch):
    """Only a floor of exactly 1 is answered on the face.  Just below
    it the full solves answer, or stall at max_iterations and say so:
    the face's 1/2 would understate the relaxation there."""
    calls = []
    bound = SuccessFaceContext.bound

    def counting_bound(self, objective):
        calls.append(objective)
        return bound(self, objective)

    monkeypatch.setattr(SuccessFaceContext, "bound", counting_bound)
    relaxation = Relaxation.canonical(0.3)
    assert relaxation.p_max(1.0 - 1e-10) > 0.5
    with pytest.raises(SolverFailureError, match="max_iterations"):
        relaxation.p_max(1.0 - 5e-13)
    assert calls == []
    relaxation.p_max(1.0)
    assert len(calls) == len(relaxation.orbits)


@pytest.mark.parametrize("epsilon,floor", [(0.2, 0.97), (0.3, 0.975), (0.05, 0.95), (0.3, 1.0)])
def test_every_target_matches_its_orbit_representative(epsilon, floor):
    """The relaxation shares the symmetry: all 12 target bounds equal
    their representative's, below floor 1 and on the success-1 face alike."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    face = SuccessFaceContext(structure_for(game, LEVEL_Q1_ABC), game, dist) if floor == 1.0 else None
    for orbit in target_orbits(game, dist):
        values = [target_bound(game, dist, floor, target, face=face) for target in orbit]
        assert max(abs(v - values[0]) for v in values) <= 1e-6, orbit


def achieved_value(structure, objective, solution):
    """Objective value of the moments a compiled full-form solve reached:
    c.m0 - (objective + gap), with m0 the unit moment."""
    return objective[structure.unit_id] - (solution.objective_value + solution.duality_gap)


def test_compiled_orbit_problems_pass_verify():
    """Each orbit representative's problem at the certify reference cell
    (0.3, 0.97), as the orbit loop compiles it, solves to a point that
    `verify` accepts: X PSD, the moment matrix (the dual slack) PSD,
    residuals and gap within 1e-7."""
    relaxation = Relaxation.canonical(0.3)
    structure = relaxation.structure
    for target, stabilizer in relaxation.orbits:
        marginal = marginal_functional(structure, *target)
        problem = compile_problem(structure, marginal, stabilizer, relaxation.success, 0.97)
        report = verify(problem, solve(problem), 1e-7)
        assert report["passed"], (target, report)


def test_critical_success_form_matches_its_orbit_representative():
    """max{ win(M) : P_t(M) >= 1/2 + eps' } agrees across each orbit
    within the solver tolerance."""
    tol, epsilon, target = 1e-4, 0.3, 0.29
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, LEVEL_Q1_ABC)
    success = success_functional(structure, game, dist)
    for orbit in target_orbits(game, dist):
        values = []
        for t in orbit:
            floor = marginal_functional(structure, *t)
            problem = compile_problem(structure, success, (), floor, 0.5 + target)
            solution = solve(problem, tol)
            assert solution.status == STATUS_OPTIMAL
            values.append(achieved_value(structure, success, solution))
        assert max(abs(v - values[0]) for v in values) <= tol, orbit


def test_output_bias_bound_monotone_on_grid():
    """Nonincreasing in the success floor, nondecreasing in the source
    bias, on a 10x10 grid."""
    eps_grid = np.linspace(0.05, 0.45, 10)
    ps_grid = np.linspace(0.9, 1.0, 10)
    table = np.empty((10, 10))
    for i, eps in enumerate(eps_grid):
        for j, ps in enumerate(ps_grid):
            table[i, j] = eps_prime(float(eps), float(ps), tol=SWEEP_TOL)
    for i in range(10):
        col = table[i]
        assert all(col[j + 1] <= col[j] + 1e-5 for j in range(9)), f"eps={eps_grid[i]}"
    for j in range(10):
        row = table[:, j]
        assert all(row[i + 1] >= row[i] - 1e-5 for i in range(9)), f"ps={ps_grid[j]}"


# The benchmark's certify lattice: epsilon 0.20..0.30 x p_s 0.97..0.985.
CERTIFY_LATTICE = [
    (round(0.2 + 0.01 * i, 2), p_s) for i in range(11) for p_s in (0.97, 0.975, 0.98, 0.985)
]
# eps_prime at the default tolerance as computed by the tie-equality
# formulation that preceded the moment variables.
TIE_FORM_EPS_PRIME = {
    (0.2, 0.97): 0.30000000122540926,
    (0.28, 0.97): 0.3635304107278907,
    (0.29, 0.97): 0.38263153907261993,
    (0.3, 0.985): 0.26562501588692233,
}


def test_every_certify_lattice_cell_solves():
    """Each lattice cell returns a bias bound at the default tolerance,
    whatever the BLAS thread count: (0.28, 0.97) and (0.29, 0.97) once
    stalled on iterates that failed a plain Cholesky, and (0.21, 0.975)
    under one thread on a centering target far below the tolerance.
    Pinned cells keep their earlier values."""
    values = {cell: eps_prime(*cell) for cell in CERTIFY_LATTICE}
    assert all(0.0 <= v <= 0.5 for v in values.values())
    for cell, expected in TIE_FORM_EPS_PRIME.items():
        assert abs(values[cell] - expected) <= 1e-7, cell


@pytest.mark.parametrize("epsilon,floor", [(0.27, 0.965), (0.4, 0.999)])
def test_cells_that_stalled_in_the_tie_form_solve(epsilon, floor):
    assert 0.0 <= eps_prime(epsilon, floor) <= 0.5


def orbit_problems(relaxation, floor, floor_on_success=True):
    """(target, offset, problem) per orbit as `_orbit_max` compiles them,
    offset being the objective's unit coefficient: with the floor on the
    success functional, or on the marginal."""
    structure = relaxation.structure
    for target, stabilizer in relaxation.orbits:
        objective, floored = marginal_functional(structure, *target), relaxation.success
        if not floor_on_success:
            objective, floored = floored, objective
        problem = compile_problem(structure, objective, stabilizer, floored, floor)
        yield target, unit_coefficient(structure, objective), problem


def uncut_orbit_max(relaxation, floor, tol, floor_on_success=True):
    """The orbit loop's maximum with every orbit solved to the tolerance."""
    return max(npa._upper_value(solve(problem, tol), offset, str(target))
               for target, offset, problem in orbit_problems(relaxation, floor, floor_on_success))


FIGURE2_EPSILONS = [round(0.05 * k, 2) for k in range(1, 10)] + [0.275]


def test_cut_orbit_solves_keep_every_value():
    """eps_prime on the certify lattice and critical_success at the
    figure2 epsilons equal, bit for bit, the maximum of solves that run
    every orbit to the tolerance.  At 0.45 the two party-2 orbits tie."""
    cut, uncut = [], []
    for epsilon, floor in CERTIFY_LATTICE:
        cut.append(eps_prime(epsilon, floor))
        uncut.append(min(0.5, max(0.0, uncut_orbit_max(Relaxation.canonical(epsilon), floor, TOLERANCE) - 0.5)))
    for epsilon in FIGURE2_EPSILONS:
        cut.append(critical_success(epsilon, epsilon))
        uncut.append(uncut_orbit_max(Relaxation.canonical(epsilon), 0.5 + epsilon, TOLERANCE, False))
    assert list(map(repr, cut)) == list(map(repr, uncut))


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3, 0.45])
def test_orbit_problems_split_into_blocks_by_a_permutation(epsilon):
    """The exact zeros of each orbit problem's C and A_j leave blocks of 8,
    7, 6 and 6 rows plus the floor's 1x1 slack, with the floor on the
    success functional or on the marginal, so `sdp.solve` runs them as a
    stack of four 8x8 slots.  The trivial group's game-value problem stays
    one 27x27 block."""
    relaxation = Relaxation.canonical(epsilon)
    for floor, floor_on_success in ((0.97, True), (0.7, False)):
        for target, _, problem in orbit_problems(relaxation, floor, floor_on_success):
            lifted = _Lifted(problem)
            assert sorted(np.bincount(lifted.block_of), reverse=True) == [8, 7, 6, 6, 1], target
            assert lifted.mask.shape == (4, 8, 8), target
    lifted = _Lifted(compile_problem(relaxation.structure, relaxation.success))
    assert np.bincount(lifted.block_of).tolist() == [27]
    assert lifted.mask.shape == (1, 27, 27)


LEAD_GRID = [(float(e), float(t)) for e in np.linspace(0.0, 0.49, 7) for t in np.linspace(0.01, 0.49, 7)]


def test_target_000_leads_every_orbit():
    """On a 7x7 grid of (epsilon, eps'), each orbit of critical_success
    solved in full, with no cutoff, reads at most the (0, 0, 0) orbit's
    value plus 1e-9.  The orbit cutoffs rely on this ordering for their
    speed: (0, 0, 0) is solved first, so every later orbit is cut against
    the largest bound."""
    for epsilon, target_eps_prime in LEAD_GRID:
        problems = orbit_problems(Relaxation.canonical(epsilon), 0.5 + target_eps_prime, floor_on_success=False)
        values = {target: npa._upper_value(solve(problem), offset, str(target))
                  for target, offset, problem in problems}
        lead = values.pop((0, 0, 0))
        assert max(values.values()) <= lead + 1e-9, (epsilon, target_eps_prime, lead, values)


@pytest.mark.parametrize("epsilon,floor,floor_on_success,tol", [
    (0.2, 0.975, True, TOLERANCE), (0.3, 0.97, True, TOLERANCE), (0.45, 0.998, True, TOLERANCE),
    (0.1, 0.6, False, 1e-4), (0.3, 0.79, False, 1e-4), (0.45, 0.95, False, 1e-4),
])
def test_no_false_cutoff(epsilon, floor, floor_on_success, tol):
    """For every orbit, a cutoff claiming a value 3e-4 below the full
    solve's is never returned, and the solve is the full one; a cutoff
    claiming 1e-2 above it is returned, in fewer iterations."""
    for target, offset, problem in orbit_problems(Relaxation.canonical(epsilon), floor, floor_on_success):
        full = solve(problem, tol)
        value = npa._upper_value(full, offset, str(target))
        kept = solve(problem, tol, offset - (value - 3e-4))
        assert kept.status == STATUS_OPTIMAL, target
        assert (kept.iterations, kept.objective_value) == (full.iterations, full.objective_value)
        cut = solve(problem, tol, offset - (value + 1e-2))
        assert cut.status == STATUS_CUTOFF, target
        assert cut.iterations < full.iterations


@pytest.mark.parametrize("epsilon", [0.3, 0.0])
def test_residual_charge_covers_the_face_point_at_zero(epsilon):
    """At X = 0 each orbit's critical-success problem with floor 1/2 on
    the marginal has residuals |b|, and c.m0 - <C, X> + y_bound . |r|
    must bound the relaxation value from above.  That value is 1, the
    GHZ face point's win probability, whose marginals are all 1/2.  The
    bound is exactly 1 for the party-2 orbits at 0.3 and for both orbits
    at 0; the same charge over unit-norm columns of N gives 0.9531 and
    0.9268 there."""
    relaxation = Relaxation.canonical(epsilon)
    face_value = float(relaxation.success @ face_of(relaxation).point)
    assert face_value == 1.0
    bounds = {}
    for target, offset, problem in orbit_problems(relaxation, 0.5, floor_on_success=False):
        X = np.zeros_like(problem.C)
        assert np.array_equal(problem.residuals(X), np.abs(problem.b))
        charge = problem.y_bound @ problem.residuals(X)
        bounds[target] = offset - float(np.sum(problem.C * X)) + charge
        assert bounds[target] >= face_value, target
    exact = [(2, 0, 0), (2, 1, 0)] if epsilon else list(bounds)
    assert [bounds[t] for t in exact] == [1.0] * len(exact)


def test_y_bound_is_one():
    """Each moment on the orbit of column j is +-z_j, and every moment
    lies in [-1, 1], so |z_j| <= 1 for every orbit problem and for the
    trivial group; the column l1 norms, the orbit sizes, bound it more
    loosely."""
    relaxation = Relaxation.canonical(0.3)
    structure = relaxation.structure
    for target, stabilizer in [((0, 0, 0), ()), *relaxation.orbits]:
        N, _, _ = invariant_moments(structure.basis, stabilizer)
        problem = compile_problem(structure, marginal_functional(structure, *target), stabilizer,
                                  relaxation.success, 0.97)
        assert np.array_equal(problem.y_bound, np.ones(N.shape[1]))
        assert np.array_equal(np.abs(N).max(axis=0), problem.y_bound)
        assert np.array_equal(np.abs(N).sum(axis=0), np.count_nonzero(N, axis=0))
    trivial = compile_problem(structure, relaxation.success).y_bound
    assert np.array_equal(trivial, np.ones(len(structure.id_cells) - 1))


def test_perfect_success_gives_unbiased_outputs():
    """Exactly, at the acceptance battery's epsilons and next to 1/2."""
    for eps in (0.1, 0.3, 0.45, 0.499):
        assert eps_prime(eps, 1.0) == 0.0


def test_classical_floor_gives_full_bias():
    from randamp.strategies import biased_mermin_classical_value

    eps = 0.2
    floor = biased_mermin_classical_value(eps)
    assert eps_prime(eps, floor, tol=SWEEP_TOL) >= 0.5 - 1e-4


def test_critical_success_validation():
    with pytest.raises(ValueError):
        critical_success(0.2, 0.0)
    with pytest.raises(ValueError):
        critical_success(0.2, 0.6)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        critical_success(0.5, 0.2)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        critical_success(0.6, 0.6)


@pytest.mark.parametrize("epsilon,target", [(0.3, 0.29), (0.1, 0.1), (0.45, 0.45)])
def test_critical_success_is_the_threshold_floor(epsilon, target):
    """p_crit is where the bias bound crosses the target: a floor 1e-3
    above it certifies the target, one 1e-3 below does not.  It also
    sits at or above the value every target's solve achieved (the safe side)."""
    p = critical_success(epsilon, target, tol=1e-6)
    if p + 1e-3 < 1.0:
        assert eps_prime(epsilon, p + 1e-3, tol=SWEEP_TOL) < target
    assert target <= eps_prime(epsilon, p - 1e-3, tol=SWEEP_TOL)
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, LEVEL_Q1_ABC)
    success = success_functional(structure, game, dist)
    for party, x, outcome in itertools.product(range(3), range(2), range(2)):
        floor = marginal_functional(structure, party, x, outcome)
        problem = compile_problem(structure, success, (), floor, 0.5 + target)
        solution = solve(problem, SWEEP_TOL)
        assert solution.status == STATUS_OPTIMAL
        assert p >= achieved_value(structure, success, solution)


def test_critical_success_rejects_unresolvable_tolerance():
    """At eps=0.45 the critical success sits within 5e-3 of 1, so a
    solver tolerance of 5e-3 cannot separate the answer from 1."""
    with pytest.raises(BracketingError, match="tighten tol"):
        critical_success(0.45, 0.45, tol=5e-3)


def mixture_win_and_marginal(epsilon):
    """Win probability and target-(0,0,0) marginal of the GHZ strategy and
    of the deterministic strategy ((0,1),(0,1),(0,0)), which always
    answers 0 there: a mixture with weight w on the second predicts that
    outcome with probability 1/2 + w/2."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    behaviors = (behavior_of_quantum(ghz_mermin_strategy(), game),
                 behavior_of_deterministic(DeterministicStrategy(((0, 1), (0, 1), (0, 0))), game))
    return [(success_probability(game, dist, b), float(b.table[(0, 0, 0)][0].sum())) for b in behaviors]


@pytest.mark.parametrize("tol", [1e-1, 1e-4, 1e-8])
def test_bounds_are_at_least_what_a_strategy_attains(tol):
    """A quantum strategy mixed with a deterministic one lies in every
    relaxation, so at every tolerance critical_success(eps, e') is at
    least the mixture's win at weight 2e', and eps_prime(eps, p) at least
    its bias at floor p.  Where tol cannot separate p_crit from 1, no
    value is returned, and none is checked."""
    returned = 0
    for epsilon in (0.0, 0.1, 0.3, 0.45):
        (ghz_win, ghz_marginal), (det_win, det_marginal) = mixture_win_and_marginal(epsilon)
        assert (ghz_marginal, det_marginal) == pytest.approx((0.5, 1.0), abs=1e-12)
        for target in (0.05, 0.29, 0.5):
            weight = 2 * target
            try:
                p_crit = critical_success(epsilon, target, tol)
            except BracketingError:
                continue
            returned += 1
            assert p_crit >= (1 - weight) * ghz_win + weight * det_win - 1e-12, (epsilon, target)
        for floor in (det_win, (det_win + 1) / 2, 1 - (1 - det_win) / 10):
            weight = (ghz_win - floor) / (ghz_win - det_win)
            assert eps_prime(epsilon, floor, tol=tol) >= weight / 2 - 1e-12, (epsilon, floor)
    assert returned > 0


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_every_round_local_extremal_source_gives_the_canonical_bounds(epsilon):
    """The canonical source stands for all eight round-local extremal
    sources round_position_sign(s1, s2|0, s2|1): each one's relaxation
    gives the canonical critical success and output-bias bound."""
    game = mermin_game()
    canonical = Relaxation.canonical(epsilon)
    expected = (canonical.critical_success(epsilon), canonical.p_max(0.97))
    for signs in itertools.product((1, -1), repeat=3):
        dist = input_distribution_from_source(game, ExtremalSource(epsilon, round_position_sign(*signs)))
        relaxation = Relaxation(game, dist)
        bounds = (relaxation.critical_success(epsilon), relaxation.p_max(0.97))
        assert bounds == pytest.approx(expected, rel=0, abs=1e-9), signs


def stall(solution):
    """The solution as a solve that stopped at max_iterations."""
    return dataclasses.replace(solution, status=STATUS_MAX_ITERATIONS)


def test_stalled_solves_raise_solver_failure(monkeypatch):
    """A solve without a verdict is never read as a bound.  Floor 1 makes
    no solve, so only floors below it can stall."""
    monkeypatch.setattr(npa, "solve", lambda problem, tol, cutoff=None: stall(solve(problem, tol, cutoff)))
    with pytest.raises(SolverFailureError):
        eps_prime(0.3, 0.97)
    game = chsh_game()
    with pytest.raises(SolverFailureError, match="game value"):
        max_success_probability(game, uniform_distribution(game), LEVEL_Q2)


def test_a_stalled_orbit_of_the_stack_names_its_target(monkeypatch):
    """The orbits after (0, 0, 0) are solved in one stack; a stall there
    raises SolverFailureError naming the first stacked orbit's target."""
    stack = npa.solve_stack
    monkeypatch.setattr(npa, "solve_stack",
                        lambda problems, tol, cutoffs: [stall(s) for s in stack(problems, tol, cutoffs)])
    with pytest.raises(SolverFailureError, match=r"target \(0, 1, 0\)"):
        eps_prime(0.3, 0.97)
    with pytest.raises(SolverFailureError, match=r"target \(0, 1, 0\)"):
        critical_success(0.3, 0.29)


def loop_success_functional(structure, game, dist):
    """The success functional word by word in input-cell order: the
    reference for the shared per-cell rows of `success_functional`."""
    c = np.zeros(len(structure.id_cells))
    for x in game.admissible_inputs():
        px = dist.prob(x)
        wins = [o for o in game.all_outputs() if game.win(x, o)]
        if px == 0.0 or not wins:
            continue
        words, coefs = npa._outcome_expansion(game.n_parties, wins, x)
        for word, coef in zip(words, px * coefs.sum(axis=0)):
            c[npa._moment_id(structure, word)] += coef
    return c


@pytest.mark.parametrize("epsilon", [0.0, 1e-13, 0.05, 0.3, 0.499])
def test_canonical_relaxation_equals_a_fresh_set_up(epsilon):
    """`Relaxation.canonical` takes its orbits, success rows and face from
    the set-up shared per source pattern.  Its success functional, orbits
    and face point equal, bit for bit, those built from scratch for the
    same source: by the word-by-word loop, by `orbit_stabilizers` of
    `symmetry_group`, and by an uncached face solve."""
    relaxation = Relaxation.canonical(epsilon)
    game, dist = canonical_distribution(epsilon)
    structure = structure_for(game, LEVEL_Q1_ABC)
    assert relaxation.success.tobytes() == loop_success_functional(structure, game, dist).tobytes()
    assert list(relaxation.orbits) == orbit_stabilizers(game, symmetry_group(game, dist))
    fresh = npa._face_point.__wrapped__(structure.basis, game, npa._positive_inputs(game, dist))
    assert np.array_equal(face_of(relaxation).point, fresh)


def test_relaxations_of_one_source_pattern_share_their_orbits():
    """Two biases whose sources give the same equality pattern share one
    tuple of orbits; bias 0, where every input is equally likely, has a
    larger group and its own 2 orbits."""
    a, b, zero = (Relaxation.canonical(epsilon) for epsilon in (0.05, 0.3, 0.0))
    assert a.orbits is b.orbits and len(a.orbits) == 4
    assert zero.orbits is not a.orbits and len(zero.orbits) == 2


def test_critical_success_raises_on_a_stalled_target_solve(monkeypatch):
    """Every solve stalls, yet floor 1 makes no solve, so critical_success's
    floor-1 check passes and the failure comes from the per-target solves."""
    monkeypatch.setattr(npa, "solve", lambda problem, tol, cutoff=None: stall(solve(problem, tol, cutoff)))
    with pytest.raises(SolverFailureError, match="max_iterations for target"):
        critical_success(0.3, 0.29)

