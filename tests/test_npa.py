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
    uniform_distribution,
)
from randamp.npa import (
    LEVEL_Q1,
    LEVEL_Q1_AB,
    LEVEL_Q1_ABC,
    LEVEL_Q2,
    LEVEL_Q2_ABC,
    BracketingError,
    InfeasibleSuccessError,
    MomentNotAvailableError,
    RandomnessBoundQuery,
    Scenario,
    SolverFailureError,
    SuccessFaceContext,
    UnsupportedScenarioError,
    build_basis,
    build_moment_structure,
    compile_problem,
    critical_success,
    eps_prime,
    marginal_functional,
    max_outcome_probability,
    max_success_probability,
    outcome_probability_functional,
    outcome_operator_vector,
    p_max,
    structure_for,
    success_face_basis,
    success_functional,
    target_orbits,
)
from randamp.sdp import STATUS_MAX_ITERATIONS, STATUS_OPTIMAL, SolverSettings, solve
from randamp.sources import canonical_mermin_source
from randamp.strategies import (
    behavior_of_deterministic,
    enumerate_deterministic,
    ghz_mermin_strategy,
)

SWEEP_SETTINGS = SolverSettings(tolerance=1e-6)


def moment_matrix_of_deterministic(structure, strategy):
    """Rank-1 PSD moment matrix embedding a deterministic strategy: the
    outer product of its basis-word values, where a projector is 1 when
    the strategy answers 0 on that input, else 0."""

    def word_value(word):
        v = 1.0
        for party, sub in enumerate(word):
            for x in sub:
                v *= 1.0 if strategy.output(party, x) == 0 else 0.0
        return v

    v = np.array([word_value(w) for w in structure.basis.words])
    return np.outer(v, v)


def moments_of_matrix(structure, M):
    """One value per moment id, read from a (consistent) moment matrix."""
    return np.array([M[cells[0]] for cells in structure.id_cells])


def test_basis_word_counts():
    tri = Scenario(3, (2, 2, 2), (2, 2, 2))
    duo = Scenario(2, (2, 2), (2, 2))
    assert len(build_basis(tri, LEVEL_Q1)) == 7
    assert len(build_basis(tri, LEVEL_Q1_AB)) == 19
    assert len(build_basis(tri, LEVEL_Q1_ABC)) == 27
    assert len(build_basis(tri, LEVEL_Q2)) == 25
    assert len(build_basis(tri, LEVEL_Q2_ABC)) == 33
    assert len(build_basis(duo, LEVEL_Q1)) == 5
    assert len(build_basis(duo, LEVEL_Q2)) == 13


def test_basis_words_are_canonical():
    tri = Scenario(3, (2, 2, 2), (2, 2, 2))
    for level in (LEVEL_Q1_ABC, LEVEL_Q2_ABC):
        words = build_basis(tri, level).words
        assert len(set(words)) == len(words)
        for w in words:
            assert len(w) == 3
            for sub in w:
                # no adjacent repeats survive projector idempotence
                assert all(a != b for a, b in zip(sub, sub[1:]))


def test_scenario_level_validation():
    duo = Scenario(2, (2, 2), (2, 2))
    with pytest.raises(ValueError):
        build_basis(duo, "Q3")
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


def test_query_validation():
    game = mermin_game()
    dist = uniform_distribution(game)
    with pytest.raises(ValueError):
        RandomnessBoundQuery(game, dist, 1.5, (0, 0, 0))
    with pytest.raises(ValueError):
        RandomnessBoundQuery(game, dist, 0.5, (3, 0, 0))
    with pytest.raises(ValueError):
        RandomnessBoundQuery(game, dist, 0.5, (0, 2, 0))


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
            op = op @ strat.measurements[party][x][0]
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

    V = success_face_basis(structure, game, dist)
    assert V.shape == (27, 11)
    # M reconstructs exactly from its face coordinates
    Y = V.T @ M @ V
    assert np.max(np.abs(V @ Y @ V.T - M)) <= 1e-9


def test_face_bound_of_marginal_is_half():
    """On the success-1 face no outcome is predictable beyond 1/2."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.2))
    structure = structure_for(game, LEVEL_Q1_ABC)
    face = SuccessFaceContext(structure, game, dist)
    query = RandomnessBoundQuery(game, dist, 1.0, (0, 0, 0))
    result = max_outcome_probability(query, face=face, structure=structure)
    assert result.value is not None
    assert abs(result.value - 0.5) <= 1e-6


def test_chsh_cannot_win_always():
    game = chsh_game()
    dist = uniform_distribution(game)
    with pytest.raises(InfeasibleSuccessError):
        p_max(game, dist, 1.0, LEVEL_Q2)


@pytest.mark.parametrize("level", [LEVEL_Q1_AB, LEVEL_Q2])
@pytest.mark.parametrize("floor", [0.86, 0.9, 0.99])
def test_chsh_floor_above_quantum_value_is_infeasible(floor, level):
    """A floor between the quantum value (~0.8536) and 1 leaves no
    moments; the full-form solve must report it, not fail."""
    game = chsh_game()
    with pytest.raises(InfeasibleSuccessError):
        p_max(game, uniform_distribution(game), floor, level)


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
    floor = 0.97
    loose = eps_prime(0.3, floor, LEVEL_Q1_AB, SWEEP_SETTINGS)
    mid = eps_prime(0.3, floor, LEVEL_Q1_ABC, SWEEP_SETTINGS)
    tight = eps_prime(0.3, floor, LEVEL_Q2_ABC, SWEEP_SETTINGS)
    assert mid <= loose + 1e-5
    assert tight <= mid + 1e-5

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
    structure = structure_for(game, LEVEL_Q1_ABC)
    for x, outcome in ((0, 0), (1, 1)):
        bounds = []
        for party in range(3):
            query = RandomnessBoundQuery(game, dist, 0.9, (party, x, outcome))
            result = max_outcome_probability(query, settings=SWEEP_SETTINGS, structure=structure)
            bounds.append(result.value)
        assert max(bounds) - min(bounds) <= 2e-4


def test_symmetry_of_first_two_parties_under_source_distribution():
    """The induced input distribution treats the first two parties
    identically, so their targets are exchangeable."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    structure = structure_for(game, LEVEL_Q1_ABC)
    for x in (0, 1):
        for outcome in (0, 1):
            r0 = max_outcome_probability(
                RandomnessBoundQuery(game, dist, 0.97, (0, x, outcome)),
                settings=SWEEP_SETTINGS, structure=structure,
            )
            r1 = max_outcome_probability(
                RandomnessBoundQuery(game, dist, 0.97, (1, x, outcome)),
                settings=SWEEP_SETTINGS, structure=structure,
            )
            assert abs(r0.value - r1.value) <= 2e-4


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


def test_point_face_is_solved_once_per_context(monkeypatch):
    """Under the canonical source the face holds one moment matrix, so
    p_max at floor 1 solves the face problem once for all four orbit
    representatives, and each bound equals a fresh context's bit for bit."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(0.3))
    dims = []

    def counting_solve(problem, settings):
        dims.append(problem.dimension)
        return solve(problem, settings)

    monkeypatch.setattr(npa, "solve", counting_solve)
    p_max(game, dist, 1.0)
    assert dims == [11]
    structure = structure_for(game, LEVEL_Q1_ABC)
    shared = SuccessFaceContext(structure, game, dist)
    for orbit in target_orbits(game, dist):
        query = RandomnessBoundQuery(game, dist, 1.0, orbit[0])
        fresh = SuccessFaceContext(structure, game, dist)
        value = max_outcome_probability(query, structure=structure, face=shared).value
        assert value == max_outcome_probability(query, structure=structure, face=fresh).value
    assert len(dims) == 1 + 1 + 4  # the shared context once, each fresh one once


@pytest.mark.parametrize("epsilon,floor", [(0.2, 0.97), (0.3, 0.975), (0.05, 0.95), (0.3, 1.0)])
def test_every_target_matches_its_orbit_representative(epsilon, floor):
    """The relaxation shares the symmetry: all 12 target bounds equal
    their representative's, full and face-reduced alike."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, LEVEL_Q1_ABC)
    face = SuccessFaceContext(structure, game, dist) if floor == 1.0 else None
    for orbit in target_orbits(game, dist):
        values = [
            max_outcome_probability(
                RandomnessBoundQuery(game, dist, floor, target), structure=structure, face=face
            ).value
            for target in orbit
        ]
        assert max(abs(v - values[0]) for v in values) <= 1e-6, orbit


def achieved_value(structure, objective, solution):
    """Objective value of the moments a compiled full-form solve reached:
    c.m0 - (objective + gap), with m0 the unit moment."""
    return objective[structure.unit_id] - (solution.objective_value + solution.duality_gap)


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
            problem = compile_problem(structure, success, floor, 0.5 + target)
            solution = solve(problem, SolverSettings(tolerance=tol))
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
            table[i, j] = eps_prime(float(eps), float(ps), settings=SWEEP_SETTINGS)
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


def test_perfect_success_gives_unbiased_outputs():
    for eps in (0.1, 0.45):
        assert eps_prime(eps, 1.0) <= 1e-6


def test_classical_floor_gives_full_bias():
    from randamp.strategies import biased_mermin_classical_value

    eps = 0.2
    floor = biased_mermin_classical_value(eps)
    assert eps_prime(eps, floor, settings=SWEEP_SETTINGS) >= 0.5 - 1e-4


def test_critical_success_validation():
    with pytest.raises(ValueError):
        critical_success(0.2, 0.0)
    with pytest.raises(ValueError):
        critical_success(0.2, 0.6)
    with pytest.raises(ValueError):
        critical_success(0.5, 0.2)


@pytest.mark.parametrize("epsilon,target", [(0.3, 0.29), (0.1, 0.1), (0.45, 0.45)])
def test_critical_success_is_the_threshold_floor(epsilon, target):
    """p_crit is where the bias bound crosses the target: a floor 1e-3
    above it certifies the target, one 1e-3 below does not.  It also
    sits at or above the value every target's solve achieved (the safe side)."""
    p = critical_success(epsilon, target, tol=1e-6)
    if p + 1e-3 < 1.0:
        assert eps_prime(epsilon, p + 1e-3, settings=SWEEP_SETTINGS) < target
    assert target <= eps_prime(epsilon, p - 1e-3, settings=SWEEP_SETTINGS)
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, LEVEL_Q1_ABC)
    success = success_functional(structure, game, dist)
    for party, x, outcome in itertools.product(range(3), range(2), range(2)):
        floor = marginal_functional(structure, party, x, outcome)
        solution = solve(compile_problem(structure, success, floor, 0.5 + target), SWEEP_SETTINGS)
        assert solution.status == STATUS_OPTIMAL
        assert p >= achieved_value(structure, success, solution)


def test_critical_success_rejects_unresolvable_tolerance():
    """At eps=0.45 the critical success sits within 5e-3 of 1, so a
    solver tolerance of 5e-3 cannot separate the answer from 1."""
    with pytest.raises(BracketingError, match="tighten tol"):
        critical_success(0.45, 0.45, tol=5e-3)


def stall(solution):
    """The solution as a solve that stopped at max_iterations."""
    return dataclasses.replace(solution, status=STATUS_MAX_ITERATIONS)


def test_stalled_solves_raise_solver_failure(monkeypatch):
    """A solve without a verdict is never read as a bound, at full and
    face-reduced floors alike."""
    monkeypatch.setattr(npa, "solve", lambda problem, settings: stall(solve(problem, settings)))
    for floor in (0.97, 1.0):
        with pytest.raises(SolverFailureError):
            eps_prime(0.3, floor)
    game = chsh_game()
    with pytest.raises(SolverFailureError, match="game value"):
        max_success_probability(game, uniform_distribution(game), LEVEL_Q2)
    with pytest.raises(SolverFailureError):
        critical_success(0.3, 0.29)


def test_critical_success_raises_on_a_stalled_target_solve(monkeypatch):
    """Only the full-form solves stall, so the floor-1 check passes and the
    failure comes from the per-target solves."""
    def stall_full(problem, settings):
        solution = solve(problem, settings)
        return stall(solution) if problem.constraints else solution

    monkeypatch.setattr(npa, "solve", stall_full)
    with pytest.raises(SolverFailureError, match="max_iterations for target"):
        critical_success(0.3, 0.29)
