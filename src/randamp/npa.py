"""Moment-matrix relaxations bounding outcome predictability in games.

The quantum set is relaxed by a hierarchy of moment matrices indexed by
a list of operator words.  Binary outcomes are represented by one +-1
observable A = P0 - P1 per (party, input), the standard form of
Navascues, Pironio and Acin (New J. Phys. 10, 073013, 2008).  A word is
a product of observables, stored as one subword per party (parties
commute, same-party factors do not); A A = 1, so adjacent duplicates
cancel in pairs.

The moment matrix M[i,j] = <w_i^dagger w_j> is real symmetric positive
semidefinite with unit diagonal (each word is unitary).  Algebraically
equal entries (A A = 1, commutation, adjoint symmetry) share one moment
variable, so M(m) = sum_k m_k B_k is linear in the distinct moments m,
with the unit moment fixed to 1.  A linear functional of the moments (an
outcome probability, a marginal (1 +- <A>)/2, the win probability) is a
dense coefficient vector c over the moment ids, with value c @ m.
Maximizing a functional subject to a success-probability floor gives an
upper bound on how predictable any single party's outcome can be, which
is the quantity that drives all the amplification curves.  Each problem
is solved over the moments themselves (the standard form of the NPA
hierarchy): they are the dual variables of an `sdp.solve` problem, see
`compile_problem`.

Levels: Q1 (identity + single observables), Q1+ABC (plus cross-party
pairs and one-observable-per-party triples) and Q2 (all words of length
<= 2).  Every `Relaxation` is solved at Q1+ABC, whose basis holds the
triple words that a 3-party success functional and success-1 face
need; Q1 and Q2 serve game values (`max_success_probability`).  Q1+ABC
must include the pair words: without them the relaxation admits
pseudo-moment matrices whose "win probability" exceeds 1, and the
success floor loses all force.  With them, every outcome probability is
a PSD quadratic form of the moment matrix, so win probabilities stay in
[0, 1] and a success floor of exactly 1 pins the matrix to the face
where every losing outcome has probability zero.  Queries at floor 1
are answered on that face with no solve (`SuccessFaceContext`): the
face condition is linear in the moments, and under the canonical
source, at every epsilon < 1/2, it leaves one integer moment point,
checked exactly, at which every marginal is 1/2.

A `Relaxation` holds what one (game, dist) needs: the structure, the
success functional and the target orbits of the symmetry group of
(game, dist) (`symmetry_group`), each with its representative's
stabilizer; a floor-1 query reads the face point.  Its one
orbit loop solves one representative per orbit, below floor 1 over the
moments its stabilizer fixes (`invariant_moments`: a symmetry maps each
basis word to +- a basis word, so the fixed moments are spanned by the
unit vector and +-1 orbit indicators), and takes the largest bound.
The first orbit is solved alone; the others are solved together in one
lockstep stack (`sdp.solve_stack`), each stopping as soon as it shows
that its orbit cannot beat the first bound (`Relaxation._orbit_max`).
`p_max` runs it with the
target's marginal as objective and the floor on the win probability,
`critical_success` with the two swapped.  Objective and floor
functional are fixed by the stabilizer, so averaging an optimum over it
keeps the value (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).
For the Mermin game under the canonical source that leaves 14 to 19
free moments of 75.

What does not depend on the input probabilities is built once per
process and shared read-only: the basis and structure per (scenario,
level) and each stabilizer's invariant moments with their block stack
per (basis, stabilizer).  What depends on them only through their
pattern is built once per source pattern: the target orbits per (game,
which admissible inputs have equal probabilities within DIST_TOL), and
the success functional's per-cell rows and the success-1 face point per
(game, which have positive probability).  No key holds epsilon, so every
relaxation after the first of its pattern reuses them and is cheap to
build (`eps_prime` builds one per call), and a value never depends on
what the process computed before.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .games import DIST_TOL, GameSpec, InputDistribution, input_distribution_from_source, mermin_game
from .sdp import (
    SdpProblem,
    SdpSolution,
    STATUS_CUTOFF,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    TOLERANCE,
    solve,
    solve_stack,
)
from .sources import canonical_mermin_source

LEVEL_Q1 = "Q1"
LEVEL_Q1_ABC = "Q1+ABC"
LEVEL_Q2 = "Q2"
LEVELS = (LEVEL_Q1, LEVEL_Q1_ABC, LEVEL_Q2)

# A word is a tuple over parties; each per-party subword is an ordered
# tuple of input indices (+-1 observables), adjacent-duplicate free.
Word = tuple[tuple[int, ...], ...]


class UnsupportedScenarioError(ValueError):
    """Scenario outside the observable-per-input representation."""


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
    """The moment ids of a basis's cells.  `indicators[k]` has a 1 on
    each cell of moment k, so M(m) = sum_k m_k indicators[k]."""

    basis: MonomialBasis
    moment_index: Mapping[Word, int]
    cell_ids: np.ndarray
    id_cells: tuple[tuple[tuple[int, int], ...], ...]
    unit_id: int
    indicators: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis.words)


def _identity_word(n_parties: int) -> Word:
    return tuple(() for _ in range(n_parties))


def _single(n_parties: int, party: int, x: int) -> Word:
    return tuple((x,) if p == party else () for p in range(n_parties))


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.cache
def build_basis(scenario: Scenario, level: str) -> MonomialBasis:
    """Canonical ordered word list for the requested hierarchy level,
    built once per (scenario, level)."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}, expected one of {LEVELS}")
    if any(c != 2 for c in scenario.output_cardinalities):
        raise UnsupportedScenarioError(
            "moment bases use one +-1 observable per (party, input); "
            f"outputs {scenario.output_cardinalities} are not binary"
        )
    n = scenario.n_parties
    if level == LEVEL_Q1_ABC and n != 3:
        raise UnsupportedScenarioError(f"level {level} requires 3 parties, scenario has {n}")

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

    if level == LEVEL_Q1_ABC:
        words.extend(cross_pairs())
        # the triples, one observable per party
        inputs = (range(scenario.input_cardinalities[p]) for p in range(3))
        words.extend(tuple((x,) for x in xs) for xs in itertools.product(*inputs))
    elif level == LEVEL_Q2:
        for p in range(n):
            for x1, x2 in itertools.permutations(range(scenario.input_cardinalities[p]), 2):
                w = list(_identity_word(n))
                w[p] = (x1, x2)
                words.append(tuple(w))
        words.extend(cross_pairs())
    return MonomialBasis(scenario, level, tuple(words))


def _cancel(seq: Iterable[int]) -> tuple[int, ...]:
    # A A = 1: adjacent duplicates cancel in pairs, innermost first
    out: list[int] = []
    for s in seq:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _word_adjoint(word: Word) -> Word:
    return tuple(tuple(reversed(sub)) for sub in word)


def _cell_word(w_i: Word, w_j: Word) -> Word:
    """Reduced word of w_i^dagger w_j, party by party."""
    return tuple(
        _cancel(tuple(reversed(si)) + sj) for si, sj in zip(w_i, w_j)
    )


def canonical_moment(word: Word) -> Word:
    """Representative of {word, adjoint}: real moment matrices make the
    two moments equal, so they share one variable."""
    adj = _word_adjoint(word)
    return word if word <= adj else adj


@functools.cache
def build_moment_structure(basis: MonomialBasis) -> MomentMatrixStructure:
    """The basis's moment structure, built once per basis; its arrays are
    read-only, since every caller shares them."""
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
    indicators = (cell_ids == np.arange(len(cells_of))[:, None, None]).astype(float)
    _read_only(cell_ids, indicators)
    return MomentMatrixStructure(
        basis=basis,
        moment_index=MappingProxyType(moment_index),
        cell_ids=cell_ids,
        id_cells=tuple(tuple(c) for c in cells_of),
        unit_id=unit,
        indicators=indicators,
    )


def _moment_id(structure: MomentMatrixStructure, word: Word) -> int:
    idx = structure.moment_index.get(canonical_moment(word))
    if idx is None:
        raise MomentNotAvailableError(
            f"moment {word} is not generated by basis level {structure.basis.level}"
        )
    return idx


def _outcome_expansion(
    n_parties: int, outputs, inputs: tuple[int, ...]
) -> tuple[list[Word], np.ndarray]:
    """The joint outcome operator prod_p (1 + (-1)^o_p A[p, x_p]) / 2 of
    input cell `inputs`, expanded over the subsets s of the parties as
    sum_s (-1)^(o . s) / 2^n times the word of A[p, x_p] for p in s: the
    2^n words, and the coefficients of each row o of `outputs`."""
    if np.shape(outputs)[-1] != n_parties or len(inputs) != n_parties:
        raise ValueError("outputs and inputs must have one entry per party")
    subsets = (np.arange(2 ** n_parties)[:, None] >> np.arange(n_parties)) & 1
    words = [tuple((x,) if bit else () for x, bit in zip(inputs, s)) for s in subsets.tolist()]
    return words, (-1.0) ** (np.asarray(outputs) @ subsets.T) / 2 ** n_parties


def marginal_functional(
    structure: MomentMatrixStructure, party: int, x: int, outcome: int
) -> np.ndarray:
    """P(party answers `outcome` on input x) = (1 +- <A>)/2, as moment
    coefficients."""
    c = np.zeros(len(structure.id_cells))
    single = _moment_id(structure, _single(structure.basis.scenario.n_parties, party, x))
    c[structure.unit_id] += 0.5
    c[single] += 0.5 if outcome == 0 else -0.5
    return c


def _positive_inputs(game: GameSpec, dist: InputDistribution) -> tuple[bool, ...]:
    """Which admissible inputs of `game` have positive probability."""
    return tuple(dist.prob(x) > 0.0 for x in game.admissible_inputs())


def _equal_inputs(game: GameSpec, dist: InputDistribution) -> tuple[tuple[bool, ...], ...]:
    """Which pairs of admissible inputs of `game` have probabilities
    within DIST_TOL of each other, as a matrix."""
    p = [dist.prob(x) for x in game.admissible_inputs()]
    return tuple(tuple(abs(a - b) <= DIST_TOL for b in p) for a in p)


@functools.lru_cache(maxsize=64)
def _success_rows(
    basis: MonomialBasis, game: GameSpec, positive: tuple[bool, ...]
) -> tuple[tuple[tuple[int, ...], np.ndarray, np.ndarray], ...]:
    """Each admissible input cell x with positive probability (`positive`)
    and a winning output, with the moment ids of its outcome expansion
    and the winning outputs' coefficients summed on them, built once per
    (basis, game, positive pattern) and read-only."""
    structure = build_moment_structure(basis)
    rows = []
    for x, px_positive in zip(game.admissible_inputs(), positive):
        wins = [o for o in game.all_outputs() if game.win(x, o)]
        if not px_positive or not wins:
            continue
        words, coefs = _outcome_expansion(game.n_parties, wins, x)
        ids, coefs = np.array([_moment_id(structure, word) for word in words]), coefs.sum(axis=0)
        _read_only(ids, coefs)
        rows.append((x, ids, coefs))
    return tuple(rows)


def success_functional(
    structure: MomentMatrixStructure, game: GameSpec, dist: InputDistribution
) -> np.ndarray:
    """Win probability under `dist` as moment coefficients: per input
    cell, the winning outputs' coefficients are summed before they are
    placed on the moments, cell by cell (`_success_rows`)."""
    c = np.zeros(len(structure.id_cells))
    for x, ids, coefs in _success_rows(structure.basis, game, _positive_inputs(game, dist)):
        np.add.at(c, ids, dist.prob(x) * coefs)
    return c


def compile_problem(
    structure: MomentMatrixStructure,
    objective: np.ndarray,
    stabilizer: tuple[Symmetry, ...] = (),
    floor_functional: Optional[np.ndarray] = None,
    floor: float = 0.0,
) -> SdpProblem:
    """The relaxation over the moments m = m0 + N z that `stabilizer`
    fixes (`invariant_moments`; every moment vector for the empty
    tuple), as an `sdp.solve` problem:

        maximize c.m  subject to  M(m) >= 0  and, with a floor
        functional f, f.m >= floor,

    where M(m) = sum_k m_k B_k and B_k has a 1 on each cell of moment k
    (`MomentMatrixStructure.indicators`).  It is stated as the dual of
    the returned problem, whose y are the free coordinates z: with
    A_j = blockdiag(M(N_j), f.N_j), b_j = -c.N_j and
    C = -blockdiag(M(m0), f.m0 - floor), the dual slack
    sum_j z_j A_j - C is the constrained block and the floor's slack.
    C and the A_j come out of one stack of blocks, one per column of
    [m0, N], built with the moments once per (basis, stabilizer), whose
    tail is passed on as the problem's (K, d, d) constraint stack, every
    row an equality.  The relaxation's maximum is c.m0 minus the dual
    optimum, so c.m0 - objective_value bounds it from above (weak
    duality) and c.m0 - (objective_value + duality_gap) is the objective
    at the moments m0 + N y the solve reached.  An unbounded sdp form
    means no moments are feasible.

    The problem's y_bound is 1 in every coordinate: every moment on the
    orbit of N_j is +-z_j, and every moment lies in [-1, 1] (M(m) is PSD
    with unit diagonal).  For PSD X with residuals r, c.m0 - <C, X> +
    sum_j |r_j| then bounds the relaxation's maximum from above
    (Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46, 2007).
    """
    N, coords, blocks = invariant_moments(structure.basis, stabilizer)
    rhs = -(objective @ N)
    if floor_functional is not None:
        d = blocks.shape[1]
        slack = floor_functional @ coords
        slack[0] -= floor
        lmi = np.zeros((len(blocks), d + 1, d + 1))
        lmi[:, :d, :d] = blocks
        lmi[:, d, d] = slack
        blocks = lmi
    return SdpProblem(-blocks[0], blocks[1:], rhs, ("eq",) * len(rhs), np.ones(len(rhs)))


def structure_for(game: GameSpec, level: str) -> MomentMatrixStructure:
    return build_moment_structure(build_basis(Scenario.from_game(game), level))


def _numerical_rank(s: np.ndarray) -> int:
    """Number of singular values above the relative cut-off, largest first."""
    return int(np.sum(s > max(1.0, s[0]) * 1e-10))


def _losing_vectors(basis: MonomialBasis, game: GameSpec, positive: tuple[bool, ...]) -> np.ndarray:
    """One row per losing (outputs, inputs) whose inputs have positive
    probability (`positive`, over the admissible inputs): its outcome
    operator vector v over the basis words.

    The joint outcome operator is itself a projector Q, and
    P(outputs|inputs) = <Q> = v^T M v, provided every word of its
    expansion (`_outcome_expansion`) is a basis word.  The words of one
    input cell are distinct, so each row holds one coefficient per word."""
    index = {w: i for i, w in enumerate(basis.words)}
    blocks = []
    for x, px_positive in zip(game.admissible_inputs(), positive):
        losing = [o for o in game.all_outputs() if not game.win(x, o)]
        if not px_positive or not losing:
            continue
        words, coefs = _outcome_expansion(basis.scenario.n_parties, losing, x)
        missing = [w for w in words if w not in index]
        if missing:
            raise MomentNotAvailableError(f"word {missing[0]} is not a basis word at level {basis.level}")
        block = np.zeros((len(losing), len(basis.words)))
        block[:, [index[w] for w in words]] = coefs
        blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, len(basis.words)))


def _face_moments(
    structure: MomentMatrixStructure, losing: np.ndarray
) -> Optional[tuple[np.ndarray, int]]:
    """The moments whose matrix lives on the face: M(m) v = 0 for each row
    v of `losing`, with unit normalization, a linear system A m = rhs.
    Returns its minimum-norm solution m0 and the number of free moments,
    the dimension of A's null space; None when the system is inconsistent,
    that is when [A | rhs] has a larger numerical rank than A.

    [A | rhs] = Q [R_A | q] is factored once; A and [A | rhs] share their
    singular values with the small triangular R_A and [R_A | q], whose
    SVDs give both ranks and the least-squares solution."""
    n = len(structure.id_cells)
    # row (i, v) holds (B_k v)_i over the moments k, so A m stacks the M(m) v
    face = (structure.indicators @ losing.T).reshape(n, -1).T
    A = np.vstack([face, np.eye(n)[structure.unit_id]])
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    R = np.linalg.qr(np.column_stack([A, rhs]), mode="r")
    u, s, vt = np.linalg.svd(R[:, :n])
    rank = _numerical_rank(s)
    if _numerical_rank(np.linalg.svd(R, compute_uv=False)) > rank:
        return None
    m0 = vt[:rank].T @ ((u[:, :rank].T @ R[:, n]) / s[:rank])
    return m0, n - rank


def _is_psd(matrix: np.ndarray) -> bool:
    """Exact PSD test of an integer symmetric matrix by LDL^T elimination
    in Fractions over the upper triangle: no pivot may be negative, and a
    zero pivot's row must be zero."""
    a = [[Fraction(int(v)) for v in row] for row in matrix]
    for k, row in enumerate(a):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1:])):
            return False
        for i in range(k + 1, len(a)):
            if row[k] and row[i]:
                factor = row[i] / row[k]
                for j in range(i, len(a)):
                    a[i][j] -= factor * row[j]
    return True


@functools.lru_cache(maxsize=64)
def _face_point(basis: MonomialBasis, game: GameSpec, positive: tuple[bool, ...]) -> Optional[np.ndarray]:
    """`SuccessFaceContext.point` of a distribution whose inputs with
    positive probability are `positive`, built once per (basis, game,
    positive pattern) and read-only."""
    structure = build_moment_structure(basis)
    losing = _losing_vectors(basis, game, positive)
    moments = _face_moments(structure, losing)
    if moments is None:
        return None
    m0, free = moments
    if free:
        raise UnsupportedScenarioError(f"the success-1 face has {free} free moments, not one point")
    point = np.rint(m0).astype(np.int64)
    matrix = point[structure.cell_ids]
    scaled = np.rint(losing * 2 ** basis.scenario.n_parties).astype(np.int64)
    if point[structure.unit_id] != 1 or (scaled @ matrix).any():
        raise UnsupportedScenarioError("the success-1 face point is not an integer point")
    if not _is_psd(matrix):
        return None
    _read_only(point)
    return point


class SuccessFaceContext:
    """The success-1 face of (game, dist), decided in exact arithmetic.

    Each losing probability is the PSD quadratic form v^T M v of its
    outcome operator vector v, so win 1 forces M(m) v = 0 for every
    losing v (`_face_moments`).  Under the canonical source that leaves
    one point at every epsilon < 1/2, the GHZ strategy's moments
    (Kaniewski, Phys. Rev. Lett. 117, 070402, 2016).  Its m0 is rounded
    to the integer `point` and checked exactly: unit moment 1, 2^n L
    M(point) == 0 for the losing vectors L of n parties (entries in
    2^-n Z) and M(point) PSD.  `point` is None when no PSD moment matrix
    lies on the face; free moments or a rounded point off the face raise
    UnsupportedScenarioError.

    The face depends on dist only through which inputs have positive
    probability, so the point is found once per (basis, game, positive
    pattern), the same key at every epsilon < 1/2, and shared read-only."""

    def __init__(self, structure: MomentMatrixStructure, game: GameSpec, dist: InputDistribution):
        self.structure = structure
        self.point = _face_point(structure.basis, game, _positive_inputs(game, dist))

    def bound(self, objective: np.ndarray) -> Optional[float]:
        """max objective @ m over the face, objective @ point (exact for
        the dyadic coefficients of a marginal), or None when no PSD moment
        matrix lies on the face."""
        return None if self.point is None else float(objective @ self.point)


def max_success_probability(
    game: GameSpec,
    dist: InputDistribution,
    level: str = LEVEL_Q1_ABC,
    tol: float = TOLERANCE,
) -> float:
    """Upper bound on the quantum game value under `dist`."""
    structure = structure_for(game, level)
    success = success_functional(structure, game, dist)
    solution = solve(compile_problem(structure, success), tol)
    return _upper_value(solution, float(success[structure.unit_id]), "game value")


def _targets(game: GameSpec) -> Iterable[tuple[int, int, int]]:
    """Every (party, input, outcome) whose predictability the bounds cover."""
    for party in range(game.n_parties):
        for x in range(game.input_cardinalities[party]):
            for outcome in range(game.output_cardinalities[party]):
                yield party, x, outcome


@dataclass(frozen=True, order=True)
class Symmetry:
    """A relabelling of a game: party p takes the role of party perm[p],
    and its binary output on input x is flipped when flips[p][x] is set.
    Target (p, x, o) maps to (perm[p], x, o ^ flips[p][x])."""

    perm: tuple[int, ...]
    flips: tuple[tuple[int, ...], ...]

    def target(self, target: tuple[int, int, int]) -> tuple[int, int, int]:
        party, x, outcome = target
        return self.perm[party], x, outcome ^ self.flips[party][x]


def symmetry_group(game: GameSpec, dist: InputDistribution) -> tuple[Symmetry, ...]:
    """Every symmetry of (game, dist), sorted, the identity first.

    A candidate sends party p to perm[p], which must have the same input
    and output cardinalities, and flips outputs by some pattern.  It is
    kept when it maps the promise onto itself, keeps dist.prob within
    DIST_TOL and keeps game.win on every admissible (x, o).  The kept
    candidates are closed under composition, so they form a group.

    A symmetry acts on the observables by A[p, x] -> A[perm[p], x], or
    -A[perm[p], x] when flipped, which is an automorphism of the operator
    algebra: observables stay +-1 valued and parties still commute, so
    algebraically equal moments stay equal.  Permuting parties of equal
    cardinality permutes every level's words, so the symmetry maps each
    basis word to +- a basis word (`_signed_permutation`; Tavakoli,
    Rosset & Renou, Phys. Rev. Lett. 122, 070501, 2019).  It therefore
    acts on the basis by a signed permutation matrix T, and M -> T M T^T
    maps feasible moment matrices to feasible ones (PSD, tied,
    normalized) with the same win probability, sending the marginal of a
    target to that of its image.
    """
    return _symmetry_group(game, _equal_inputs(game, dist))


def _symmetry_group(game: GameSpec, equal: tuple[tuple[bool, ...], ...]) -> tuple[Symmetry, ...]:
    """`symmetry_group` of a distribution whose equality pattern over the
    admissible inputs is `equal` (`_equal_inputs`), the only way it
    depends on the distribution.  Each admissible party permutation tries
    every flip pattern, one (x, o) at a time; the search runs once per
    (game, pattern) behind `_target_orbits`' cache."""
    n = game.n_parties
    admissible = game.admissible_inputs()
    row_of = {x: i for i, x in enumerate(admissible)}
    wins = {(x, o): game.win(x, o) for x in admissible for o in game.all_outputs()}
    shape = [(game.input_cardinalities[p], game.output_cardinalities[p]) for p in range(n)]
    group = []
    for perm in itertools.permutations(range(n)):
        if any(shape[perm[p]] != shape[p] for p in range(n)):
            continue
        source = [perm.index(q) for q in range(n)]  # party whose role q takes
        moved = {x: tuple(x[p] for p in source) for x in game.all_inputs()}
        if any(game.promise(moved[x]) != game.promise(x) for x in moved):
            continue
        if not all(equal[row_of[moved[x]]][row_of[x]] for x in admissible):
            continue
        for flips in itertools.product(*(itertools.product((0, 1), repeat=c) for c in game.input_cardinalities)):
            if all(wins[moved[x], tuple(o[p] ^ flips[p][x[p]] for p in source)] == won
                   for (x, o), won in wins.items()):
                group.append(Symmetry(perm, flips))
    return tuple(sorted(group))


def _orbits(
    game: GameSpec, group: tuple[Symmetry, ...]
) -> list[tuple[tuple[int, int, int], ...]]:
    return sorted({tuple(sorted({g.target(t) for g in group})) for t in _targets(game)})


def orbit_stabilizers(
    game: GameSpec, group: tuple[Symmetry, ...]
) -> list[tuple[tuple[int, int, int], tuple[Symmetry, ...]]]:
    """Each orbit's representative with its stabilizer: the symmetries
    of `group` that map the representative to itself."""
    return [
        (orbit[0], tuple(g for g in group if g.target(orbit[0]) == orbit[0]))
        for orbit in _orbits(game, group)
    ]


@functools.lru_cache(maxsize=64)
def _target_orbits(
    game: GameSpec, equal: tuple[tuple[bool, ...], ...]
) -> tuple[tuple[tuple[int, int, int], tuple[Symmetry, ...]], ...]:
    """`orbit_stabilizers` of the symmetry group of a distribution with
    equality pattern `equal`, built once per (game, pattern) and shared."""
    return tuple(orbit_stabilizers(game, _symmetry_group(game, equal)))


def _signed_permutation(
    structure: MomentMatrixStructure, g: Symmetry
) -> tuple[np.ndarray, np.ndarray]:
    """sigma and s with w_i(A') = s_i w_sigma(i)(A) for the observables A'
    that `g` makes of A (A'[p, x] is A[perm[p], x], negated when flipped),
    so the moment matrix of A' is T M T^T with T[i, sigma(i)] = s_i."""
    words = structure.basis.words
    index = {w: i for i, w in enumerate(words)}
    sigma = np.empty(len(words), dtype=int)
    flipped = np.zeros(len(words), dtype=int)
    for i, word in enumerate(words):
        image: list = [()] * len(word)
        for p, sub in enumerate(word):
            image[g.perm[p]] = sub
            for x in sub:
                flipped[i] ^= g.flips[p][x]
        sigma[i] = index[tuple(image)]
    return sigma, 1.0 - 2.0 * flipped


@functools.cache
def invariant_moments(
    basis: MonomialBasis, stabilizer: tuple[Symmetry, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moments fixed by every symmetry of the group `stabilizer`, with
    unit 1, as m = m0 + N z, m0 the unit vector: N, the columns [m0, N]
    and their block stack M([m0, N]) of `compile_problem`, built once per
    (basis, stabilizer) and read-only.  Each column of N is +-1 on one
    orbit of the other moments and 0 elsewhere.  The empty tuple stands
    for the trivial group, whose N is the identity columns of the other
    moments.

    A symmetry maps moment k, at cell (i, j), to s_i s_j times moment
    cell_ids[sigma(i), sigma(j)] (`_signed_permutation`), so a fixed
    vector is constant up to sign on each orbit; an orbit that meets its
    own negation sums to zero and is forced to 0.  A problem whose
    objective, success functional and floor are all fixed by the group
    has the same optimum over this set as over every moment vector:
    averaging an optimum over the group gives a fixed optimum of the
    same value."""
    structure = build_moment_structure(basis)
    n = len(structure.id_cells)
    ids = np.arange(n)
    rows, cols = np.array([cells[0] for cells in structure.id_cells]).T
    sums = np.zeros((n, n)) if stabilizer else np.eye(n)
    orbit = sums != 0
    for g in stabilizer:
        sigma, s = _signed_permutation(structure, g)
        image = structure.cell_ids[sigma[rows], sigma[cols]]
        sums[image, ids] += s[rows] * s[cols]
        orbit[image, ids] = True
    # one column per orbit, its smallest member's; the unit's and zero sums are left out
    keep = (orbit.argmax(axis=0) == ids) & (ids != structure.unit_id) & sums.any(axis=0)
    N = sums[:, keep]
    N /= np.abs(N).max(axis=0)  # an orbit's sums share one magnitude, so N is +-1 exactly
    coords = np.column_stack([np.eye(n)[structure.unit_id], N])
    blocks = np.tensordot(coords.T, structure.indicators, axes=1)
    _read_only(N, coords, blocks)
    return N, coords, blocks


def _upper_value(
    solution: SdpSolution,
    offset: float,
    what: str,
    floor_may_be_infeasible: bool = False,
) -> Optional[float]:
    """The bound a solve of `compile_problem` gives on max c.m: the larger
    of the relaxation values read from the sdp form's primal and dual
    objective, `offset` = c.m0 (c's unit coefficient) minus each, so that
    an inexact solve errs on the safe side of an upper bound.

    An unbounded sdp form means no moments are feasible: with
    `floor_may_be_infeasible` that is the answer (None), since a success
    floor may exceed the quantum maximum.  Any other status but optimal
    raises SolverFailureError; its message names the solve by `what`."""
    if solution.status == STATUS_OPTIMAL:
        return offset - min(solution.objective_value, solution.objective_value + solution.duality_gap)
    if floor_may_be_infeasible and solution.status == STATUS_UNBOUNDED:
        return None
    raise SolverFailureError(f"solver returned {solution.status} for {what}")


class Relaxation:
    """The relaxation of (game, dist), for any 3-party game with binary
    outputs, at level Q1+ABC: the moment structure (shared per scenario),
    the success functional and each target orbit's representative with
    its stabilizer (`orbit_stabilizers`).  A floor-1 query reads the
    success-1 face (`SuccessFaceContext`).

    What these need of dist is set up once per source pattern and shared
    read-only: the orbits per (game, which admissible inputs have equal
    probabilities within DIST_TOL), the success functional's per-cell
    rows and the face point per (game, which have positive
    probability).  A relaxation only weighs the rows by dist's
    probabilities, so each is the one a fresh set-up gives, bit for bit.

    `p_max` and `critical_success` run the one orbit loop, `_orbit_max`:
    the first with each target's marginal as objective and the floor on
    the success functional, the second with the two swapped.  An orbit
    that cannot beat the first orbit's bound stops at a cutoff instead of
    being solved to the tolerance."""

    def __init__(self, game: GameSpec, dist: InputDistribution):
        self.game = game
        self.dist = dist
        self.structure = structure_for(game, LEVEL_Q1_ABC)
        self.success = success_functional(self.structure, game, dist)
        self.orbits = _target_orbits(game, _equal_inputs(game, dist))

    @classmethod
    def canonical(cls, epsilon: float) -> "Relaxation":
        """The tripartite protocol's relaxation: the Mermin game under the
        canonical source of bias `epsilon`.  It stands for all eight
        round-local extremal sources `round_position_sign(s1, s2|0, s2|1)`:
        at epsilon 0.1 and 0.3 they give the same bounds within 1e-9."""
        game = mermin_game()
        return cls(game, input_distribution_from_source(game, canonical_mermin_source(epsilon)))

    def p_max(self, success_floor: float, tol: float = TOLERANCE) -> float:
        """Worst-case single-outcome predictability at the given success
        floor: the max over targets t of max{ P_t(M) : win(M) >= floor }.
        Raises InfeasibleSuccessError when the floor exceeds the quantum
        maximum."""
        if not 0.0 <= success_floor <= 1.0:
            raise ValueError(f"success floor must lie in [0, 1], got {success_floor}")
        return self._orbit_max(success_floor, tol, floor_on_success=True)

    def critical_success(self, target_eps_prime: float, tol: float = TOLERANCE) -> float:
        """The max over targets t of max{ win(M) : P_t(M) >= 1/2 + target_eps_prime }."""
        return self._orbit_max(0.5 + target_eps_prime, tol, floor_on_success=False)

    def _orbit_max(self, floor: float, tol: float, floor_on_success: bool) -> float:
        """The one orbit loop: for each orbit representative t, the bound
        (`_upper_value`) on max c.m subject to f.m >= floor over the
        moments t's stabilizer fixes, and the largest of these.  With
        `floor_on_success`, c is t's marginal and f the success
        functional, and a floor of exactly 1 is answered on the face
        instead (it leaves the full problem no interior); otherwise the
        two are swapped.  Both are fixed by the stabilizer, so the
        reduction keeps each value (see `invariant_moments`).

        Orbits are taken in sorted order, so (0, 0, 0) comes first and is
        solved alone (`solve`), to the bound `first`.  The other orbits are
        solved together in one lockstep stack (`solve_stack`), each with
        the cutoff c.m0 - first, c.m0 being c's unit coefficient: an
        orbit's solve ends as soon as an iterate shows, by
        `compile_problem`'s residual charge, that its value is at most
        `first`, and that orbit is then left out.  One that ends optimal
        instead enters the maximum.  The answer stays an upper bound: a
        left-out orbit's value is at most its charged bound, which is at
        most `first`.  It is the maximum full solves give unless a cut
        orbit's full solve would have read above `first`.  The cutting
        iterate is PSD only up to the rounding of a plain Cholesky
        factorization, so, like every value here, a cut is not rigorously
        certified."""
        marginals = [marginal_functional(self.structure, *target) for target, _ in self.orbits]
        if floor_on_success and floor == 1.0:
            face = SuccessFaceContext(self.structure, self.game, self.dist)
            values: Iterable[Optional[float]] = (face.bound(marginal) for marginal in marginals)
        else:
            problems, offsets = [], []
            for (_, stabilizer), marginal in zip(self.orbits, marginals):
                objective, floored = marginal, self.success
                if not floor_on_success:
                    objective, floored = floored, objective
                problems.append(compile_problem(self.structure, objective, stabilizer, floored, floor))
                offsets.append(float(objective[self.structure.unit_id]))
            solutions = [solve(problems[0], tol)]
            first = _upper_value(solutions[0], offsets[0], f"target {self.orbits[0][0]}", floor_on_success)
            if first is not None:
                solutions += solve_stack(problems[1:], tol, [offset - first for offset in offsets[1:]])
            values = (
                _upper_value(solution, offset, f"target {target}", floor_may_be_infeasible=floor_on_success)
                for solution, offset, (target, _) in zip(solutions, offsets, self.orbits)
                if solution.status != STATUS_CUTOFF
            )
        best = -np.inf
        for value in values:
            if value is None:
                raise InfeasibleSuccessError(f"success floor {floor} exceeds the quantum maximum")
            best = max(best, value)
        return float(best)


def eps_prime(epsilon: float, success_floor: float, tol: float = TOLERANCE) -> float:
    """Output bias bound for the tripartite protocol at the given
    observed success probability: p_max - 1/2, clamped to [0, 1/2]."""
    bound = Relaxation.canonical(epsilon).p_max(success_floor, tol)
    return float(min(0.5, max(0.0, bound - 0.5)))


def critical_success(
    epsilon: float,
    target_eps_prime: float,
    tol: float = TOLERANCE,
) -> float:
    """Smallest success floor whose output-bias bound is below target.

    The relaxation is convex and eps_prime is monotone in the floor, so
    the floors whose bias bound reaches the target form exactly
    [.., p_crit] with

        p_crit = max over targets t of max{ win(M) : P_t(M) >= 1/2 + eps' },

    one SDP per orbit representative of the symmetry group at solver
    tolerance tol (by default `sdp.TOLERANCE`, as for every bound here),
    over the moments its stabilizer fixes: the success functional and the
    floor on P_t are fixed by it.  Each solve contributes the larger of
    the values read from its primal and dual objective, so inexact-solve
    error lands on the larger, safe side.

    Floor 1 is checked first, exactly and with no solve, on the success-1
    face (`SuccessFaceContext`): if the bias bound there is not below the
    target, BracketingError is raised.  A p_crit within
    tol of 1 cannot be separated from 1 and raises BracketingError too.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    if not 0.0 < target_eps_prime <= 0.5:
        raise ValueError(f"target bias must lie in (0, 1/2], got {target_eps_prime}")
    if eps_prime(epsilon, 1.0, tol=tol) >= target_eps_prime:
        raise BracketingError(
            f"output bias bound at success floor 1 is not below {target_eps_prime}"
        )
    best = Relaxation.canonical(epsilon).critical_success(target_eps_prime, tol)
    if 1.0 - best <= tol:
        raise BracketingError(
            f"tolerance {tol} cannot certify a critical success below 1 "
            f"at epsilon {epsilon}: the bound {best:.9g} lies within tol of 1; tighten tol"
        )
    return best
