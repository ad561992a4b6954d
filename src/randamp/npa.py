"""Moment-matrix relaxations bounding outcome predictability in games.

The quantum set is relaxed by a hierarchy of moment matrices indexed by
a list of operator words.  Binary outcomes are represented by a single
outcome-0 projector per (party, input); the outcome-1 operator is
identity minus it.  A word is a product of projectors, stored as one
subword per party (parties commute, same-party factors do not).

The moment matrix M[i,j] = <w_i^dagger w_j> is real symmetric positive
semidefinite.  Algebraically equal entries (idempotence, commutation,
adjoint symmetry) share one moment variable, so M(m) = sum_k m_k B_k is
linear in the distinct moments m, with the unit moment fixed to 1.  A
linear functional of the moments (an outcome probability, a marginal,
the win probability) is a dense coefficient vector c over the moment
ids, with value c @ m.  Maximizing a functional subject to a
success-probability floor gives an upper bound on how predictable any
single party's outcome can be, which is the quantity that drives all
the amplification curves.  Each problem is solved over the moments
themselves (the standard form of the NPA hierarchy): they are the dual
variables of an `sdp.solve` problem, see `_moment_problem`.

Levels: Q1 (identity + single projectors), Q1+AB (plus cross-party
pairs), Q1+ABC (cross-party pairs plus one-projector-per-party
triples), Q2 (all words of length <= 2), Q2+ABC (Q2 plus the triples).
Q1+ABC must include the pair words: without them the relaxation admits
pseudo-moment matrices whose "win probability" exceeds 1, and the
success floor loses all force.  With them, every outcome probability is
a PSD quadratic form of the moment matrix, so win probabilities stay in
[0, 1] and a success floor of exactly 1 pins the matrix to the face
where every losing outcome has probability zero.  Queries at floor 1
are solved on that face directly (facial reduction): the unreduced
problem has no interior there and interior-point accuracy collapses.
The moments whose matrix lies on the face form an affine set m0 + N z,
solved for once per context; under the canonical source it is a single
point, and the face solve only checks that its matrix is PSD.

Q2 and Q2+ABC exceed the smallest useful level and exist for
cross-checking that bounds tighten down the hierarchy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .games import DIST_TOL, GameSpec, InputDistribution
from .sdp import (
    Constraint,
    SdpProblem,
    SdpSolution,
    SolverSettings,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve,
)
from .sources import canonical_mermin_source
from .games import input_distribution_from_source, mermin_game

LEVEL_Q1 = "Q1"
LEVEL_Q1_AB = "Q1+AB"
LEVEL_Q1_ABC = "Q1+ABC"
LEVEL_Q2 = "Q2"
LEVEL_Q2_ABC = "Q2+ABC"
LEVELS = (LEVEL_Q1, LEVEL_Q1_AB, LEVEL_Q1_ABC, LEVEL_Q2, LEVEL_Q2_ABC)

# A word is a tuple over parties; each per-party subword is an ordered
# tuple of input indices (outcome-0 projectors), adjacent-duplicate free.
Word = tuple[tuple[int, ...], ...]


class UnsupportedScenarioError(ValueError):
    """Scenario outside the projector-per-input representation."""


class MomentNotAvailableError(ValueError):
    """Requested functional needs a moment the basis does not generate."""


class SolverFailureError(RuntimeError):
    """The SDP solver failed to reach a conclusive status."""


class InfeasibleSuccessError(RuntimeError):
    """The success floor exceeds the scenario's quantum maximum."""


class BracketingError(RuntimeError):
    """No critical success below 1 can be certified: the bias bound at
    floor 1 misses the target, or the solver tolerance cannot separate
    the critical success from 1."""


@dataclass(frozen=True)
class Scenario:
    n_parties: int
    input_cardinalities: tuple[int, ...]
    output_cardinalities: tuple[int, ...]

    @classmethod
    def from_game(cls, game: GameSpec) -> "Scenario":
        return cls(game.n_parties, tuple(game.input_cardinalities), tuple(game.output_cardinalities))


@dataclass(frozen=True)
class MonomialBasis:
    scenario: Scenario
    level: str
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class MomentMatrixStructure:
    basis: MonomialBasis
    moment_index: Mapping[Word, int]
    cell_ids: np.ndarray
    id_cells: tuple[tuple[tuple[int, int], ...], ...]
    unit_id: int

    @property
    def dimension(self) -> int:
        return len(self.basis.words)


@dataclass(frozen=True)
class RandomnessBoundQuery:
    game: GameSpec
    dist: InputDistribution
    success_floor: float
    target: tuple[int, int, int]

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_floor <= 1.0:
            raise ValueError(f"success floor must lie in [0, 1], got {self.success_floor}")
        party, x, outcome = self.target
        if not 0 <= party < self.game.n_parties:
            raise ValueError(f"target party {party} out of range")
        if not 0 <= x < self.game.input_cardinalities[party]:
            raise ValueError(f"target input {x} out of range for party {party}")
        if not 0 <= outcome < self.game.output_cardinalities[party]:
            raise ValueError(f"target outcome {outcome} out of range for party {party}")


@dataclass(frozen=True)
class BoundResult:
    value: Optional[float]
    status: str
    solution: SdpSolution


def _identity_word(n_parties: int) -> Word:
    return tuple(() for _ in range(n_parties))


def _single(n_parties: int, party: int, x: int) -> Word:
    return tuple((x,) if p == party else () for p in range(n_parties))


def build_basis(scenario: Scenario, level: str) -> MonomialBasis:
    """Canonical ordered word list for the requested hierarchy level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}, expected one of {LEVELS}")
    if any(c != 2 for c in scenario.output_cardinalities):
        raise UnsupportedScenarioError(
            "moment bases use one outcome-0 projector per (party, input); "
            f"outputs {scenario.output_cardinalities} are not binary"
        )
    n = scenario.n_parties
    if level in (LEVEL_Q1_ABC, LEVEL_Q2_ABC) and n != 3:
        raise UnsupportedScenarioError(f"level {level} requires 3 parties, scenario has {n}")
    if level == LEVEL_Q1_AB and n < 2:
        raise UnsupportedScenarioError(f"level {level} requires at least 2 parties")

    words: list[Word] = [_identity_word(n)]
    for p in range(n):
        for x in range(scenario.input_cardinalities[p]):
            words.append(_single(n, p, x))

    def cross_pairs() -> Iterable[Word]:
        for p, q in itertools.combinations(range(n), 2):
            for x in range(scenario.input_cardinalities[p]):
                for y in range(scenario.input_cardinalities[q]):
                    w = list(_identity_word(n))
                    w[p], w[q] = (x,), (y,)
                    yield tuple(w)

    def same_party_pairs() -> Iterable[Word]:
        for p in range(n):
            for x1, x2 in itertools.permutations(range(scenario.input_cardinalities[p]), 2):
                w = list(_identity_word(n))
                w[p] = (x1, x2)
                yield tuple(w)

    def triples() -> Iterable[Word]:
        for xs in itertools.product(*(range(scenario.input_cardinalities[p]) for p in range(3))):
            yield tuple((x,) for x in xs)

    if level == LEVEL_Q1_AB:
        words.extend(cross_pairs())
    elif level == LEVEL_Q1_ABC:
        words.extend(cross_pairs())
        words.extend(triples())
    elif level == LEVEL_Q2:
        words.extend(same_party_pairs())
        words.extend(cross_pairs())
    elif level == LEVEL_Q2_ABC:
        words.extend(same_party_pairs())
        words.extend(cross_pairs())
        words.extend(triples())
    return MonomialBasis(scenario, level, tuple(words))


def _collapse(seq: Iterable[int]) -> tuple[int, ...]:
    # projector^2 = projector: merge adjacent duplicates in one pass
    out: list[int] = []
    for s in seq:
        if not out or out[-1] != s:
            out.append(s)
    return tuple(out)


def _word_adjoint(word: Word) -> Word:
    return tuple(tuple(reversed(sub)) for sub in word)


def _cell_word(w_i: Word, w_j: Word) -> Word:
    """Reduced word of w_i^dagger w_j, party by party."""
    return tuple(
        _collapse(tuple(reversed(si)) + sj) for si, sj in zip(w_i, w_j)
    )


def canonical_moment(word: Word) -> Word:
    """Representative of {word, adjoint}: real moment matrices make the
    two moments equal, so they share one variable."""
    adj = _word_adjoint(word)
    return word if word <= adj else adj


def build_moment_structure(basis: MonomialBasis) -> MomentMatrixStructure:
    m = len(basis.words)
    moment_index: dict[Word, int] = {}
    cells_of: list[list[tuple[int, int]]] = []
    cell_ids = np.empty((m, m), dtype=int)
    for i in range(m):
        for j in range(i, m):
            word = canonical_moment(_cell_word(basis.words[i], basis.words[j]))
            idx = moment_index.get(word)
            if idx is None:
                idx = len(moment_index)
                moment_index[word] = idx
                cells_of.append([])
            cells_of[idx].append((i, j))
            cell_ids[i, j] = cell_ids[j, i] = idx
    unit = moment_index[_identity_word(basis.scenario.n_parties)]
    return MomentMatrixStructure(
        basis=basis,
        moment_index=dict(moment_index),
        cell_ids=cell_ids,
        id_cells=tuple(tuple(c) for c in cells_of),
        unit_id=unit,
    )


def _moment_id(structure: MomentMatrixStructure, word: Word) -> int:
    idx = structure.moment_index.get(canonical_moment(word))
    if idx is None:
        raise MomentNotAvailableError(
            f"moment {word} is not generated by basis level {structure.basis.level}"
        )
    return idx


def _outcome_words(
    n_parties: int, outputs: tuple[int, ...], inputs: tuple[int, ...]
) -> Iterator[tuple[Word, float]]:
    """Signed projector words summing to the joint outcome operator.

    The product of per-party outcome operators (projector for outcome 0,
    identity minus projector for outcome 1) expands by inclusion-exclusion
    over the parties that answered 1: one word per subset of them, with
    sign (-1)^(subset size)."""
    if len(outputs) != n_parties or len(inputs) != n_parties:
        raise ValueError("outputs and inputs must have one entry per party")
    zeros = [p for p in range(n_parties) if outputs[p] == 0]
    ones = [p for p in range(n_parties) if outputs[p] == 1]
    for k in range(len(ones) + 1):
        for subset in itertools.combinations(ones, k):
            parties = sorted(zeros + list(subset))
            yield tuple((inputs[p],) if p in parties else () for p in range(n_parties)), (-1.0) ** k


def outcome_probability_functional(
    structure: MomentMatrixStructure, outputs: tuple[int, ...], inputs: tuple[int, ...]
) -> np.ndarray:
    """Coefficients over moment ids expressing P(outputs | inputs)."""
    c = np.zeros(len(structure.id_cells))
    for word, sign in _outcome_words(structure.basis.scenario.n_parties, outputs, inputs):
        c[_moment_id(structure, word)] += sign
    return c


def marginal_functional(
    structure: MomentMatrixStructure, party: int, x: int, outcome: int
) -> np.ndarray:
    """P(party answers `outcome` on input x), as moment coefficients."""
    c = np.zeros(len(structure.id_cells))
    single = _moment_id(structure, _single(structure.basis.scenario.n_parties, party, x))
    if outcome == 0:
        c[single] += 1.0
    else:
        c[structure.unit_id] += 1.0
        c[single] -= 1.0
    return c


def success_functional(
    structure: MomentMatrixStructure, game: GameSpec, dist: InputDistribution
) -> np.ndarray:
    """Win probability under `dist` as moment coefficients."""
    c = np.zeros(len(structure.id_cells))
    for x in game.admissible_inputs():
        px = dist.prob(x)
        if px == 0.0:
            continue
        for o in game.all_outputs():
            if game.win(x, o):
                c += px * outcome_probability_functional(structure, o, x)
    return c


def _cell_indicators(structure: MomentMatrixStructure) -> np.ndarray:
    """B[k] has a 1 on each cell of moment k, so M(m) = sum_k m_k B[k]."""
    ids = np.arange(len(structure.id_cells))
    return (structure.cell_ids == ids[:, None, None]).astype(float)


def _moment_problem(
    structure: MomentMatrixStructure,
    objective: np.ndarray,
    V: Optional[np.ndarray],
    m0: np.ndarray,
    N: np.ndarray,
    success: Optional[np.ndarray] = None,
    success_floor: float = 0.0,
) -> SdpProblem:
    """The relaxation over moment variables, as an `sdp.solve` problem
    (V None stands for the identity, which is not multiplied through):

        maximize c.m  over  m = m0 + N z
        subject to  V^T M(m) V >= 0  and, with a success functional, s.m >= floor,

    where M(m) = sum_k m_k B_k and B_k has a 1 on each cell of moment k.
    It is stated as the dual of the returned problem, whose y are the
    free coordinates z: with A_j = blockdiag(V^T M(N_j) V, s.N_j),
    b_j = -c.N_j and C = -blockdiag(V^T M(m0) V, s.m0 - floor), the dual
    slack sum_j z_j A_j - C is the constrained block and the floor's
    slack.  The relaxation's maximum is c.m0 minus the dual optimum, so
    c.m0 - objective_value bounds it from above (weak duality) and
    c.m0 - (objective_value + duality_gap) is the objective at the
    moments m0 + N y the solve reached.  An unbounded sdp form means no
    moments are feasible.
    """
    coords = np.column_stack([m0, N])
    blocks = np.tensordot(coords.T, _cell_indicators(structure), axes=1)
    if V is not None:
        blocks = V.T @ blocks @ V
    rhs = -(objective @ N)
    if success is not None:
        d = blocks.shape[1]
        slack = success @ coords
        slack[0] -= success_floor
        lmi = np.zeros((len(blocks), d + 1, d + 1))
        lmi[:, :d, :d] = blocks
        lmi[:, d, d] = slack
        blocks = lmi
    constraints = tuple(Constraint(A, b, "eq") for A, b in zip(blocks[1:], rhs))
    return SdpProblem(-blocks[0], constraints)


def _unit_moments(structure: MomentMatrixStructure) -> np.ndarray:
    """The moments with unit 1 and every other moment 0."""
    m0 = np.zeros(len(structure.id_cells))
    m0[structure.unit_id] = 1.0
    return m0


def compile_problem(
    structure: MomentMatrixStructure,
    objective: np.ndarray,
    success: Optional[np.ndarray] = None,
    success_floor: float = 0.0,
) -> SdpProblem:
    """Assemble the moment SDP: maximize `objective` over PSD moment
    matrices with unit normalization, and optionally a
    success-probability floor.  Every non-unit moment is free (m0 is the
    unit vector), so the relaxation's maximum is objective @ m0 minus
    the dual optimum; see `_moment_problem`."""
    m0 = _unit_moments(structure)
    N = np.eye(len(m0))[:, m0 == 0.0]
    return _moment_problem(structure, objective, None, m0, N, success, success_floor)


def structure_for(game: GameSpec, level: str) -> MomentMatrixStructure:
    return build_moment_structure(build_basis(Scenario.from_game(game), level))


def outcome_operator_vector(
    structure: MomentMatrixStructure, outputs: tuple[int, ...], inputs: tuple[int, ...]
) -> np.ndarray:
    """Expansion of the joint outcome operator over the basis words.

    The joint outcome operator is itself a projector Q, and
    P(outputs|inputs) = <Q> = v^T M v with this vector v, provided every
    word of its expansion is a basis word.
    """
    index = {w: i for i, w in enumerate(structure.basis.words)}
    vec = np.zeros(len(structure.basis.words))
    for word, sign in _outcome_words(structure.basis.scenario.n_parties, outputs, inputs):
        if word not in index:
            raise MomentNotAvailableError(
                f"word {word} is not a basis word at level {structure.basis.level}"
            )
        vec[index[word]] += sign
    return vec


def _numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above the relative cut-off, largest first."""
    return int(np.sum(s > max(1.0, s[0]) * 1e-10))


def success_face_basis(
    structure: MomentMatrixStructure, game: GameSpec, dist: InputDistribution
) -> np.ndarray:
    """Orthonormal basis V of the face where the win probability is 1.

    Win probabilities cannot exceed 1 on this relaxation (each losing
    probability is a PSD quadratic form), so success = 1 forces
    M v = 0 for every losing outcome vector v; feasible matrices are
    exactly M = V Y V^T with Y PSD.  Columns of V span the orthogonal
    complement of the losing vectors.
    """
    rows = []
    for x in game.admissible_inputs():
        if dist.prob(x) <= 0.0:
            continue
        for o in game.all_outputs():
            if not game.win(x, o):
                rows.append(outcome_operator_vector(structure, o, x))
    if not rows:
        return np.eye(structure.dimension)
    N = np.vstack(rows)
    _, s, vt = np.linalg.svd(N)
    return vt[_numerical_rank(s):].T.copy()


def _face_moments(
    structure: MomentMatrixStructure, V: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Affine parameterization m = m0 + N z of the moments whose matrix
    lives on the face: M(m) (I - V V^T) = 0 with unit normalization, a
    linear system A m = rhs.  N is an orthonormal basis of its null
    space; None when the system is inconsistent (no moment matrix lies on
    the face), that is when [A | rhs] has a larger numerical rank than A.

    [A | rhs] = Q [R_A | q] is factored once; A and [A | rhs] share their
    singular values with the small triangular R_A and [R_A | q], whose
    SVDs give both ranks and the least-squares solution."""
    n, d = len(structure.id_cells), structure.dimension
    P = np.eye(d) - V @ V.T
    MP = _cell_indicators(structure) @ P
    A = np.vstack([MP.reshape(n, d * d).T, np.eye(n)[structure.unit_id]])
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    R = np.linalg.qr(np.column_stack([A, rhs]), mode="r")
    u, s, vt = np.linalg.svd(R[:, :n])
    rank = _numerical_rank(s)
    if _numerical_rank(np.linalg.svd(R, compute_uv=False)) > rank:
        return None
    m0 = vt[:rank].T @ ((u[:, :rank].T @ R[:, n]) / s[:rank])
    return m0, vt[rank:].T.copy()


def _empty_face_solution() -> SdpSolution:
    """Sdp-form solution of a face that holds no moment matrix: like any
    moment problem without feasible moments, it reads as unbounded."""
    return SdpSolution(
        X=np.zeros((0, 0)),
        objective_value=float("nan"),
        status=STATUS_UNBOUNDED,
        duality_gap=float("nan"),
        min_eigenvalue=0.0,
        max_constraint_residual=0.0,
        y=np.zeros(0),
        Z_dual=np.zeros((0, 0)),
        iterations=0,
        certificate={"kind": "empty_face"},
    )


class SuccessFaceContext:
    """Reusable facial reduction data for success-floor-1 queries: the
    face basis V and the moments m = m0 + N z whose matrix lies on it,
    with m0 and N None when no moment matrix does.

    When N has no columns the face problem has no constraints and its
    objective matrix -V^T M(m0) V does not depend on the queried
    functional, so it is solved once per settings and its solution
    shared by every query through this context."""

    def __init__(self, structure: MomentMatrixStructure, game: GameSpec, dist: InputDistribution):
        self.structure = structure
        self.V = success_face_basis(structure, game, dist)
        self.m0, self.N = _face_moments(structure, self.V) or (None, None)
        self._point_solutions: dict[SolverSettings, SdpSolution] = {}

    def bound(self, objective: np.ndarray, settings: SolverSettings) -> SdpSolution:
        """Sdp-form solution of max objective over the face; the
        relaxation's bound is objective @ m0 minus its objective value."""
        if self.m0 is None:
            return _empty_face_solution()
        problem = _moment_problem(self.structure, objective, self.V, self.m0, self.N)
        if self.N.shape[1]:
            return solve(problem, settings)
        if settings not in self._point_solutions:
            self._point_solutions[settings] = solve(problem, settings)
        return self._point_solutions[settings]


FULL_SUCCESS_FLOOR = 1.0 - 1e-12


def max_outcome_probability(
    query: RandomnessBoundQuery,
    level: str = LEVEL_Q1_ABC,
    settings: SolverSettings = SolverSettings(),
    structure: Optional[MomentMatrixStructure] = None,
    face: Optional[SuccessFaceContext] = None,
) -> BoundResult:
    """Upper bound on P(target outcome | target input) over all quantum
    behaviors winning with probability at least the success floor.

    Floors at 1 are solved on the face where every losing probability
    vanishes; the unreduced problem has no interior there and loses the
    interior-point method several digits of accuracy.
    """
    if structure is None:
        structure = structure_for(query.game, level)
    party, x, outcome = query.target
    objective = marginal_functional(structure, party, x, outcome)
    if query.success_floor >= FULL_SUCCESS_FLOOR:
        if face is None:
            face = SuccessFaceContext(structure, query.game, query.dist)
        solution = face.bound(objective, settings)
        m0 = face.m0
    else:
        success = success_functional(structure, query.game, query.dist)
        problem = compile_problem(structure, objective, success, query.success_floor)
        solution = solve(problem, settings)
        m0 = _unit_moments(structure)
    what = f"target {query.target} at success floor {query.success_floor}"
    value = _upper_value(solution, objective, m0, what, floor_may_be_infeasible=True)
    return BoundResult(value, STATUS_INFEASIBLE if value is None else solution.status, solution)


def max_success_probability(
    game: GameSpec,
    dist: InputDistribution,
    level: str = LEVEL_Q1_ABC,
    settings: SolverSettings = SolverSettings(),
) -> float:
    """Upper bound on the quantum game value under `dist`."""
    structure = structure_for(game, level)
    success = success_functional(structure, game, dist)
    solution = solve(compile_problem(structure, success), settings)
    return _upper_value(solution, success, _unit_moments(structure), "game value")


def _targets(game: GameSpec) -> Iterable[tuple[int, int, int]]:
    """Every (party, input, outcome) whose predictability the bounds cover."""
    for party in range(game.n_parties):
        for x in range(game.input_cardinalities[party]):
            for outcome in range(game.output_cardinalities[party]):
                yield party, x, outcome


def target_orbits(
    game: GameSpec, dist: InputDistribution
) -> list[tuple[tuple[int, int, int], ...]]:
    """The targets grouped into orbits of the symmetries of (game, dist).

    A candidate symmetry sends party p to perm[p], which must have the
    same input and output cardinalities, and flips the binary output of
    party p on input x when flip[p][x] is set.  It is kept when it maps
    the promise onto itself, keeps dist.prob within DIST_TOL and keeps
    game.win on every admissible (x, o).  Target (p, x, o) then maps to
    (perm[p], x, o ^ flip[p][x]).  Each orbit lists its targets in
    `_targets` order; the first is the orbit's representative.

    Targets in one orbit have equal bounds at every level in LEVELS.  A
    symmetry acts on the projectors by P[p, x] -> P[perm[p], x], or
    1 - P[perm[p], x] when flipped, which is an automorphism of the
    operator algebra: projectors stay projectors and parties still
    commute, so algebraically equal moments stay equal.  It keeps the
    span of every level's word set, because each level contains every
    word obtained by dropping factors from one of its words (so the
    expansion of 1 - P stays inside) and permuting parties of equal
    cardinality permutes its words.  It therefore acts on the basis by an
    invertible matrix T, and M -> T M T^T maps feasible moment matrices
    to feasible ones (PSD, tied, normalized) with the same win
    probability, sending the marginal of a target to that of its image.
    """
    n = game.n_parties
    admissible = game.admissible_inputs()
    row_of = {x: i for i, x in enumerate(admissible)}
    outputs = game.all_outputs()
    out_shape = tuple(game.output_cardinalities)
    # win table over (admissible input, raveled output), and its entries as arrays
    table = np.array([[game.win(x, o) for o in outputs] for x in admissible], dtype=bool)
    entry_x = np.array(admissible).repeat(len(outputs), axis=0)
    entry_o = np.tile(np.array(outputs), (len(admissible), 1))
    # every flip pattern at once, one row per pattern, one column per
    # (party, input) slot; slot (p, x) is column slot_offset[p] + x
    slot_offset = np.cumsum([0, *game.input_cardinalities[:-1]])
    n_slots = sum(game.input_cardinalities)
    flips = (np.arange(2 ** n_slots)[:, None] >> np.arange(n_slots)) & 1
    shape = [(game.input_cardinalities[p], game.output_cardinalities[p]) for p in range(n)]
    orbit_of = {t: {t} for t in _targets(game)}
    for perm in itertools.permutations(range(n)):
        if any(shape[perm[p]] != shape[p] for p in range(n)):
            continue
        source = [perm.index(q) for q in range(n)]  # party whose role q takes
        moved = {x: tuple(x[p] for p in source) for x in game.all_inputs()}
        if any(game.promise(moved[x]) != game.promise(x) for x in moved):
            continue
        if any(abs(dist.prob(moved[x]) - dist.prob(x)) > DIST_TOL for x in admissible):
            continue
        moved_rows = np.array([row_of[moved[x]] for x in admissible]).repeat(len(outputs))
        # image outputs, (pattern, entry, role): o[p] ^ flip[p, x[p]] with p = source[q]
        image = entry_o[:, source] ^ flips[:, slot_offset[source] + entry_x[:, source]]
        kept = (table[moved_rows, np.ravel_multi_index(np.moveaxis(image, -1, 0), out_shape)]
                == table.ravel()).all(axis=1)
        for bits in flips[kept]:
            for (party, x, outcome), orbit in orbit_of.items():
                orbit.add((perm[party], x, outcome ^ int(bits[slot_offset[party] + x])))
    return sorted({tuple(sorted(orbit)) for orbit in orbit_of.values()})


def _upper_value(
    solution: SdpSolution,
    objective: np.ndarray,
    m0: np.ndarray,
    what: str,
    floor_may_be_infeasible: bool = False,
) -> Optional[float]:
    """The bound a solve of `_moment_problem` gives on max objective @ m:
    the larger of the relaxation values read from the sdp form's primal
    and dual objective, objective @ m0 minus each, so that an inexact
    solve errs on the safe side of an upper bound.

    An unbounded sdp form means no moments are feasible: with
    `floor_may_be_infeasible` that is the answer (None), since a success
    floor may exceed the quantum maximum.  Any other status but optimal
    raises SolverFailureError; its message names the solve by `what`."""
    if solution.status == STATUS_OPTIMAL:
        offset = float(objective @ m0)
        return offset - min(solution.objective_value, solution.objective_value + solution.duality_gap)
    if floor_may_be_infeasible and solution.status == STATUS_UNBOUNDED:
        return None
    raise SolverFailureError(f"solver returned {solution.status} for {what}")


def p_max(
    game: GameSpec,
    dist: InputDistribution,
    success_floor: float,
    level: str = LEVEL_Q1_ABC,
    settings: SolverSettings = SolverSettings(),
) -> float:
    """Worst-case single-outcome predictability at the given success floor.

    Maximizes over every (party, input, outcome) target by solving one
    representative per orbit of `target_orbits`; each contributes its
    safe-side value (`_upper_value`).
    """
    structure = structure_for(game, level)
    face = None
    if success_floor >= FULL_SUCCESS_FLOOR:
        face = SuccessFaceContext(structure, game, dist)
    best = -np.inf
    for orbit in target_orbits(game, dist):
        query = RandomnessBoundQuery(game, dist, success_floor, orbit[0])
        result = max_outcome_probability(query, level, settings, structure, face)
        if result.status == STATUS_INFEASIBLE:
            raise InfeasibleSuccessError(
                f"success floor {success_floor} exceeds the quantum maximum"
            )
        best = max(best, result.value)
    return float(best)


def eps_prime(
    epsilon: float,
    success_floor: float,
    level: str = LEVEL_Q1_ABC,
    settings: SolverSettings = SolverSettings(),
) -> float:
    """Output bias bound for the tripartite protocol at the given
    observed success probability: p_max - 1/2, clamped to [0, 1/2]."""
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    bound = p_max(game, dist, success_floor, level, settings)
    return float(min(0.5, max(0.0, bound - 0.5)))


def critical_success(
    epsilon: float,
    target_eps_prime: float,
    tol: float = 1e-4,
    level: str = LEVEL_Q1_ABC,
) -> float:
    """Smallest success floor whose output-bias bound is below target.

    The relaxation is convex and eps_prime is monotone in the floor, so
    the floors whose bias bound reaches the target form exactly
    [.., p_crit] with

        p_crit = max over targets t of max{ win(M) : P_t(M) >= 1/2 + eps' },

    one SDP per orbit representative of `target_orbits` at solver
    tolerance tol.  Each solve contributes the larger of the values read
    from its primal and dual objective, so inexact-solve error lands on
    the larger, safe side.

    Floor 1 is checked first on the face-reduced problem, which decides
    win = 1 where an interior-point solve cannot: if the bias bound there
    is not below the target, BracketingError is raised.  A p_crit within
    tol of 1 cannot be separated from 1 and raises BracketingError too.
    """
    if not 0.0 < target_eps_prime <= 0.5:
        raise ValueError(f"target bias must lie in (0, 1/2], got {target_eps_prime}")
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    settings = SolverSettings(tolerance=tol)
    if eps_prime(epsilon, 1.0, level, settings) >= target_eps_prime:
        raise BracketingError(
            f"output bias bound at success floor 1 is not below {target_eps_prime}"
        )
    game = mermin_game()
    dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
    structure = structure_for(game, level)
    success = success_functional(structure, game, dist)
    m0 = _unit_moments(structure)
    best = -np.inf
    for orbit in target_orbits(game, dist):
        floor = marginal_functional(structure, *orbit[0])
        problem = compile_problem(structure, success, floor, 0.5 + target_eps_prime)
        best = max(best, _upper_value(solve(problem, settings), success, m0, f"target {orbit[0]}"))
    if 1.0 - best <= tol:
        raise BracketingError(
            f"tolerance {tol} cannot certify a critical success below 1 "
            f"at epsilon {epsilon}: the bound {best:.9g} lies within tol of 1; tighten tol"
        )
    return float(best)
