"""End-to-end protocol execution against device models.

Two device families: honest devices holding one quantum strategy (with
optional depolarizing noise) replayed i.i.d. every round, and
adversarial devices holding a hidden variable lambda that jointly picks
a per-round strategy schedule and a steering pattern for the input
source.  The schedule is a list of blocks (fraction of rounds, strategy)
so an adversary can look perfect for most rounds and cheat in the rest.

`run_protocol` takes every run through one set-up, abort test and round
selection; only the draw of the N rounds comes in two ways.  Round data
is materialized for small round counts.  Planner-sized runs (N can reach
1e13 and beyond) are drawn in aggregated form instead:
per input cell, round counts are multinomial and win counts binomial,
which is distribution-exact for i.i.d. rounds within each schedule
block.  The selected round's content is then drawn from the realized
per-block empirical counts; by exchangeability of rounds within a block
this matches the materialized distribution exactly, including the
correlation between survival of the abort test and the selected round's
win status.  Aggregation requires a round-local steering pattern, one
whose every two-bit round ends back in its start state
(`SignPattern.round_local`), which keeps rounds i.i.d.; materialized
runs accept any pattern.
`run_batch` runs a batch, run i on the i-th child of SeedSequence(seed).

Every run asks `strategies` for its blocks' behaviors, and for an honest
device's depolarized strategy, through `behavior_of_quantum`,
`behavior_of_deterministic` and `apply_depolarizing`.  Those memoize
on the strategy, keyed by the shared `mermin_game()` instance and the
visibility, so the runs of a batch against one device build each once
and later runs read the same read-only tables.  What the draws read of
a behavior (per input cell: the win probability, its clipped copy, the
cumulative output row, and P(first output 0 | win status) once that
status is drawn) is computed on its first run and kept on the
`Behavior` (`_tables`).  The win table and the output tuples are built
once per game.  No result depends on which runs came before.

A materialized run draws its 3 N round uniforms in one call: round j
reads uniforms 3j and 3j + 1 for its two input bits and 3j + 2 for its
outputs, the doubles that 3 N scalar draws would give, in the same
order.  Every run reads its source through a table of the pattern
states its stream reaches (`_StateTable`): a state is read once, when
first reached, and each (state, bit) is stepped once, the first time
the stream needs it, so states are dictionary keys and equal states are
interchangeable.  A round-local pattern gives every round the same
three input conditionals, those of the pattern's start and its two
successors, and the run compares all 2 N input uniforms with them in
bulk.  Any other pattern is streamed: one Python loop walks the table,
a few list lookups per round, and a new state adds at most three reads
and three steps, so every run costs O(N) in time and its table O(states
reached) in memory.  The rounds' win probabilities are summed in round
order, one schedule block at a time, and outputs are drawn after the
inputs, one search per (schedule block, input cell).  The transcript's
inputs and outputs are gathered from object arrays of the input cells
and of the game's output tuples, one `take` each, so every round holds
one of those tuples of Python ints.

Selection bits are drawn from the same source stream after all round
bits, continuing the pattern's state, most significant bit first,
redrawing whenever the index falls outside the round range; each index
reads its bits' uniforms in one call.  A run consumes exactly
2 N + (selection draws) * ceil(log2 N) source bits, with at least one
draw when it emits a bit and none when it aborts; `ProtocolRun` rejects
any other count.  An aggregated run draws its round counts as int64,
so it refuses N above 2^63 - 1 before drawing anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from .games import Behavior, GameSpec, InputTuple, input_distribution_from_source, mermin_game
from .protocol import ProtocolParams
from .sources import ExtremalSource, SignPattern, canonical_mermin_source, constant_sign, round_position_sign
from .strategies import (
    DeterministicStrategy,
    NoiseModel,
    QuantumStrategy,
    apply_depolarizing,
    behavior_of_deterministic,
    behavior_of_quantum,
    ghz_mermin_strategy,
)

__all__ = [
    "MATERIALIZE_LIMIT",
    "AGGREGATE_LIMIT",
    "HonestDevice",
    "ScheduleBlock",
    "AdversaryModel",
    "AdversarialDevice",
    "DeviceModel",
    "ProtocolRun",
    "BiasEstimate",
    "run_protocol",
    "run_batch",
    "summarize_output_bits",
    "estimate_output_bias",
    "attack_suite",
]

MATERIALIZE_LIMIT = 1 << 20
# numpy draws aggregated round counts as int64
AGGREGATE_LIMIT = (1 << 63) - 1

Strategy = Union[DeterministicStrategy, QuantumStrategy]


@dataclass(frozen=True)
class HonestDevice:
    """One quantum strategy, optionally depolarized, replayed i.i.d."""

    strategy: QuantumStrategy
    noise: NoiseModel = NoiseModel(1.0)


@dataclass(frozen=True)
class ScheduleBlock:
    """A contiguous fraction of rounds played with one strategy."""

    fraction: float
    strategy: Strategy

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"block fraction must lie in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class AdversaryModel:
    """Hidden variable jointly steering the source and the devices.

    Index k plays the role of lambda: with probability lambda_weights[k]
    the devices run device_blocks[k] and the source is the extremal
    source steered by source_signs[k].  Steering patterns never exceed
    the declared bias level because the extremal source construction
    pins the conditional bias to exactly the protocol's epsilon.
    """

    lambda_weights: tuple[float, ...]
    device_blocks: tuple[tuple[ScheduleBlock, ...], ...]
    source_signs: tuple[SignPattern, ...]

    def __post_init__(self) -> None:
        if not (len(self.lambda_weights) == len(self.device_blocks) == len(self.source_signs)):
            raise ValueError("lambda weights, schedules and steering patterns must align")
        if not self.lambda_weights:
            raise ValueError("need at least one hidden value")
        # written so that a NaN weight fails both comparisons and is rejected
        if not min(self.lambda_weights) >= 0 or not abs(sum(self.lambda_weights) - 1.0) <= 1e-12:
            raise ValueError("lambda weights must be a probability distribution")
        for blocks in self.device_blocks:
            if abs(sum(b.fraction for b in blocks) - 1.0) > 1e-12:
                raise ValueError("schedule block fractions must sum to 1")


@dataclass(frozen=True)
class AdversarialDevice:
    adversary: AdversaryModel


DeviceModel = Union[HonestDevice, AdversarialDevice]


@dataclass(frozen=True)
class ProtocolRun:
    """Transcript and verdict of one protocol execution.

    Materialized runs carry per-round inputs/outputs/win flags;
    aggregated runs carry only the counts.  p_avg is the true mean
    per-round success probability, a simulation-side diagnostic that the
    protocol logic itself never sees.
    """

    n_rounds: int
    total_wins: int
    p_est: float
    aborted: bool
    selected_round: Optional[int]
    output_bit: Optional[int]
    p_avg: float
    source_bits_used: int
    selection_draws: int
    aggregated: bool
    inputs: tuple = ()
    outputs: tuple = ()
    wins: tuple = ()

    def __post_init__(self) -> None:
        if not 0 <= self.total_wins <= self.n_rounds:
            raise ValueError(f"{self.total_wins} wins in {self.n_rounds} rounds")
        if self.p_est != self.total_wins / self.n_rounds:
            raise ValueError("win fraction does not match win count")
        if self.selected_round is not None and not 0 <= self.selected_round < self.n_rounds:
            raise ValueError(f"selected round {self.selected_round} outside the {self.n_rounds} rounds")
        if self.aborted != (self.output_bit is None):
            raise ValueError("aborted runs and only aborted runs lack an output bit")
        if self.aborted != (self.selection_draws == 0):
            raise ValueError(f"{self.selection_draws} selection draws: an aborted run "
                             "makes none and an emitted one at least one")
        bits = 2 * self.n_rounds + self.selection_draws * _selection_bit_count(self.n_rounds)
        if self.source_bits_used != bits:
            raise ValueError(f"{self.source_bits_used} source bits used, expected {bits}")


def _selection_bit_count(n_rounds: int) -> int:
    return (n_rounds - 1).bit_length()


class _StateTable:
    """The sign-pattern states a source stream reaches from `start`,
    numbered in the order reached, `start` first.  `prob[i]` is the
    source's probability of a 0 bit in state i, read once when the state
    is first reached; `succ[2 i + bit]` numbers step(state i, bit), or is
    -1 until the stream first needs it.  Equal states share one number."""

    def __init__(self, source: ExtremalSource, start: Any) -> None:
        self._read, self._step = source.next_bit_probability, source.sign.step
        self._numbers: dict[Any, int] = {start: 0}
        self.states: list[Any] = [start]
        self.prob: list[float] = [self._read(start)]
        self.succ: list[int] = [-1, -1]

    def successor(self, i: int, bit: int) -> int:
        """The number of step(state i, bit), stepping the pattern the first time."""
        k = 2 * i + bit
        j = self.succ[k]
        if j < 0:
            state = self._step(self.states[i], bit)
            numbers = self._numbers
            if state in numbers:
                j = self.succ[k] = numbers[state]
            else:
                j = self.succ[k] = numbers[state] = len(self.states)
                self.states.append(state)
                self.prob.append(self._read(state))
                self.succ += (-1, -1)
        return j


def _select_round(table: _StateTable, state: int, rng: np.random.Generator, n_rounds: int) -> tuple[int, int]:
    """The selected round and the number of index draws: each draw reads
    `_selection_bit_count` source bits, continuing the stream from table
    state `state`, until the index they spell is below n_rounds."""
    n_bits = _selection_bit_count(n_rounds)
    prob = table.prob
    draws = 0
    while True:
        draws += 1
        idx = 0
        # one call gives the doubles that n_bits scalar draws would
        for u in rng.random(n_bits).tolist():
            bit = u >= prob[state]
            state = table.successor(state, bit)
            idx = 2 * idx + bit
        if idx < n_rounds:
            return idx, draws


def _resolve_schedule(
    params: ProtocolParams, device: DeviceModel, rng: np.random.Generator, game: GameSpec
) -> tuple[tuple[ScheduleBlock, ...], ExtremalSource]:
    if isinstance(device, HonestDevice):
        strategy = device.strategy
        if device.noise.visibility < 1.0:
            strategy = apply_depolarizing(strategy, device.noise)
        return (ScheduleBlock(1.0, strategy),), canonical_mermin_source(params.epsilon)
    adv = device.adversary
    lam = int(rng.choice(len(adv.lambda_weights), p=np.asarray(adv.lambda_weights)))
    source = ExtremalSource(params.epsilon, adv.source_signs[lam])
    return adv.device_blocks[lam], source


def _block_behavior(strategy: Strategy, game: GameSpec) -> Behavior:
    if isinstance(strategy, DeterministicStrategy):
        return behavior_of_deterministic(strategy, game)
    return behavior_of_quantum(strategy, game)


def _block_round_counts(blocks: tuple[ScheduleBlock, ...], n_rounds: int) -> list[int]:
    """Rounds per block: each block ends at its rounded cumulative
    fraction of n_rounds, clamped into [the previous end, n_rounds], and
    the last at n_rounds, so the counts are nonnegative and sum to
    n_rounds even when fractions summing to 1 within 1e-12 overshoot."""
    counts = []
    prev = 0
    cum = 0.0
    for i, b in enumerate(blocks):
        cum += b.fraction
        end = n_rounds if i == len(blocks) - 1 else min(max(round(cum * n_rounds), prev), n_rounds)
        counts.append(end - prev)
        prev = end
    return counts


# input cells indexed by 2a + b, where a and b are the round's source bits
_CELLS: tuple[InputTuple, ...] = tuple((a, b, a ^ b) for a in (0, 1) for b in (0, 1))


def _object_array(items: Sequence[Any]) -> np.ndarray:
    """A read-only 1-d object array of the objects in `items` themselves,
    so that `take(idx).tolist()` gathers those objects in one C pass."""
    array = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        array[i] = item
    array.flags.writeable = False
    return array


_CELL_ARRAY = _object_array(_CELLS)


@functools.cache
def _win_table(game: GameSpec) -> np.ndarray:
    """wins[c, i]: whether the i-th output of `game.all_outputs()` wins at
    _CELLS[c]; built once per game and read-only."""
    wins = np.array([[bool(game.win(x, o)) for o in game.all_outputs()] for x in _CELLS])
    wins.flags.writeable = False
    return wins


@functools.cache
def _output_array(game: GameSpec) -> np.ndarray:
    """`game.all_outputs()` as a read-only object array, built once per game."""
    return _object_array(game.all_outputs())


def _win_probability(row: np.ndarray, wins: np.ndarray) -> float:
    """Sum of a behavior row's winning entries, added one by one in output order."""
    return float(sum(row.ravel()[wins]))


def _alice_zero_given_status(row: np.ndarray, wins: np.ndarray, won: bool) -> float:
    """P(first party outputs 0 | input cell, round win status) from the
    cell's behavior row and win-table row."""
    # flat output indices below this one have the first party output 0
    first_zero = row.size // row.shape[0]
    num = 0.0
    den = 0.0
    for i in np.flatnonzero(wins == won).tolist():
        p = float(row.flat[i])
        den += p
        if i < first_zero:
            num += p
    if den <= 0.0:
        raise ValueError("conditioning on a zero-probability win status")
    return num / den


class _BehaviorTables:
    """What the draws read of one behavior, per cell of `_CELLS`: its win
    probability (`_win_probability`), that clipped into [0, 1] for the
    aggregated draws, its flat row summed cumulatively for the output
    search, and P(first party outputs 0 | cell, win status), filled as
    each (cell, status) is first drawn.  Built once per `Behavior` by
    `_tables`."""

    def __init__(self, behavior: Behavior) -> None:
        self._rows = [behavior.table[x] for x in _CELLS]
        self._wins = _win_table(behavior.game)
        self.win_prob = tuple(_win_probability(row, w) for row, w in zip(self._rows, self._wins))
        self.clipped = np.clip(self.win_prob, 0.0, 1.0)
        self.cumulative = [np.cumsum(row.ravel()) for row in self._rows]
        for array in (self.clipped, *self.cumulative):
            array.flags.writeable = False
        self._p_zero: dict[tuple[int, bool], float] = {}

    def p_zero(self, c: int, won: bool) -> float:
        """P(first party outputs 0 | cell c, win status `won`); raises
        ValueError, and keeps nothing, for a zero-probability status."""
        p = self._p_zero.get((c, won))
        if p is None:
            p = self._p_zero[c, won] = _alice_zero_given_status(self._rows[c], self._wins[c], won)
        return p


def _tables(behavior: Behavior) -> _BehaviorTables:
    """The behavior's `_BehaviorTables`, built on first use and kept on it
    as the attribute `_tables` (not a field, so equality and repr ignore
    it).  Its rows are read-only and its game immutable, so the tables
    cannot go stale."""
    tables = behavior.__dict__.get("_tables")
    if tables is None:
        tables = _BehaviorTables(behavior)
        object.__setattr__(behavior, "_tables", tables)
    return tables


def run_protocol(params: ProtocolParams, device: DeviceModel, seed) -> ProtocolRun:
    """Execute the three protocol steps against a device model.

    Steps: (1) N rounds of the tripartite game on source-drawn inputs,
    (2) abort iff the win fraction is at or below the planned threshold,
    (3) select a round with further source bits and emit the first
    party's outcome from it.  Aborts are data, not errors.  Step (1) is
    drawn materialized or aggregated; either draw yields the total wins,
    p_avg, the state table and table state that selection continues
    from, `emit` (the selected round's output bit) and the transcript.
    """
    n = params.n_rounds
    if n > AGGREGATE_LIMIT:
        raise ValueError(f"{n} rounds exceed 2^63 - 1, the most an aggregated run can draw")
    aggregated = n > MATERIALIZE_LIMIT
    game = mermin_game()
    rng = np.random.default_rng(seed)
    blocks, source = _resolve_schedule(params, device, rng, game)
    if aggregated and not source.sign.round_local:
        raise ValueError(
            f"{n} rounds exceed the materialization limit and the steering "
            "pattern is not round-local, so the run cannot be aggregated"
        )
    counts = _block_round_counts(blocks, n)
    tables = [_tables(_block_behavior(b.strategy, game)) for b in blocks]

    if aggregated:
        dist = input_distribution_from_source(game, source)
        p_vec = np.array([dist.prob(x) for x in _CELLS])
        p_vec = p_vec / p_vec.sum()
        cell_counts, cell_wins = [], []
        p_avg = 0.0
        for nb, t in zip(counts, tables):
            nc = rng.multinomial(nb, p_vec) if nb else np.zeros(len(_CELLS), dtype=np.int64)
            cell_counts.append(nc)
            cell_wins.append(rng.binomial(nc, t.clipped))
            p_avg += (nb / n) * float(p_vec @ t.clipped)
        total_wins = sum(int(wc.sum()) for wc in cell_wins)
        # every round of a round-local pattern ends back in its start state,
        # so selection continues from it after the 2N round bits
        table, state = _StateTable(source, source.sign.start), 0
        transcript = {}

        def emit(idx: int) -> int:
            """The selected round's block, then its cell and win status from
            the block's realized counts, then the first party's bit."""
            k = int(np.searchsorted(np.cumsum(counts), idx, side="right"))
            nc, wc = cell_counts[k], cell_wins[k]
            c = int(rng.choice(len(_CELLS), p=nc / nc.sum()))
            won = rng.random() < (wc[c] / nc[c])
            return 0 if rng.random() < tables[k].p_zero(c, bool(won)) else 1
    else:
        # round j reads uniforms 3j and 3j + 1 for its input bits, 3j + 2 for its outputs
        uniforms = rng.random(3 * n)
        cell_index, p_avg_sum, table, state = _draw_inputs(
            source, counts, [t.win_prob for t in tables], uniforms[0::3], uniforms[1::3])
        u_out = uniforms[2::3]
        out_array = _output_array(game)
        flat = np.empty(n, dtype=np.intp)
        start = 0
        for count, t in zip(counts, tables):
            block_cells = cell_index[start:start + count]
            for c, cumulative in enumerate(t.cumulative):
                rounds = start + np.flatnonzero(block_cells == c)
                flat[rounds] = np.searchsorted(cumulative, u_out[rounds], side="right")
            start += count
        np.minimum(flat, len(out_array) - 1, out=flat)
        won = _win_table(game)[cell_index, flat]
        total_wins = int(won.sum())
        p_avg = p_avg_sum / n
        # object-array gathers: the same tuple objects, one C pass each
        outputs = tuple(out_array.take(flat).tolist())
        transcript = {"inputs": tuple(_CELL_ARRAY.take(cell_index).tolist()), "outputs": outputs,
                      "wins": tuple(won.tolist())}

        def emit(idx: int) -> int:
            return outputs[idx][0]

    p_est = total_wins / n
    aborted = p_est <= params.p_threshold
    selected, draws = (None, 0) if aborted else _select_round(table, state, rng, n)
    return ProtocolRun(
        n_rounds=n, total_wins=total_wins, p_est=p_est, aborted=aborted,
        selected_round=selected, output_bit=None if aborted else emit(selected), p_avg=p_avg,
        source_bits_used=2 * n + draws * _selection_bit_count(n), selection_draws=draws,
        aggregated=aggregated, **transcript,
    )


def run_batch(params: ProtocolParams, device: DeviceModel, runs: int, seed) -> Iterator[ProtocolRun]:
    """`runs` protocol runs, run i on the i-th child of SeedSequence(seed),
    each executed as it is iterated."""
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    return (run_protocol(params, device, s) for s in np.random.SeedSequence(seed).spawn(runs))


def _round_win_probability(pa, pb_0, pb_1, w: tuple[float, ...]):
    """A round's win probability from its input-bit conditionals and the
    block's win probabilities at cells 000, 011, 101 and 110, summed in
    that order; elementwise, and so the same doubles, for arrays of
    conditionals."""
    w000, w011, w101, w110 = w
    qa = 1.0 - pa
    return ((pa * pb_0) * w000 + (pa * (1.0 - pb_0)) * w011
            + (qa * pb_1) * w101 + (qa * (1.0 - pb_1)) * w110)


def _draw_inputs(
    source: ExtremalSource,
    counts: list[int],
    win_prob: list[tuple[float, ...]],
    u_first: np.ndarray,
    u_second: np.ndarray,
) -> tuple[np.ndarray, float, _StateTable, int]:
    """Every round's input cell 2a + b, the sum of the rounds' win
    probabilities in round order, and the state table and table state
    that the stream reaches after the 2N input bits.  Round j's first bit
    is 1 iff u_first[j] >= pa, its second iff u_second[j] >= pb_a, where
    pa and pb_a are the source's conditionals before each bit."""
    table = _StateTable(source, source.sign.start)
    prob, succ, successor = table.prob, table.succ, table.successor
    if source.sign.round_local:
        # every round starts in state 0 and sees the same three conditionals
        pa, pb_0, pb_1 = prob[0], prob[successor(0, 0)], prob[successor(0, 1)]
        first = u_first >= pa
        second = u_second >= np.where(first, pb_1, pb_0)
        p_avg_sum = 0.0
        for count, w in zip(counts, win_prob):
            p_avg_sum = _sum_in_order(np.full(count, _round_win_probability(pa, pb_0, pb_1, w)), p_avg_sum)
        return 2 * first.astype(np.intp) + second, p_avg_sum, table, 0

    # each round appends 4 i + 2 a + b, i its start state and 2a + b its cell
    codes = []
    append = codes.append
    i = 0
    for ua, ub in zip(u_first.tolist(), u_second.tolist()):
        a = ua >= prob[i]
        k = 2 * i + a
        m = succ[k]
        if m < 0:
            m = successor(i, a)
        b = ub >= prob[m]
        e = succ[2 * m + b]
        if e < 0:
            e = successor(m, b)
        append(2 * k + b)
        i = e
    starts = np.array(codes, dtype=np.intp)
    del codes, append
    cells = starts & 3
    starts >>= 2
    # a round's win probability reads both first-bit successors of its start
    firsts = np.flatnonzero(np.bincount(starts)).tolist()
    pa = np.array([prob[f] for f in firsts])
    pb_0 = np.array([prob[successor(f, 0)] for f in firsts])
    pb_1 = np.array([prob[successor(f, 1)] for f in firsts])
    # term_of[block, state]: the win probability of a round from that state in that block
    term_of = np.empty((len(win_prob), len(prob)))
    term_of[:, firsts] = [_round_win_probability(pa, pb_0, pb_1, w) for w in win_prob]
    p_avg_sum, stop = 0.0, 0
    for terms, count in zip(term_of, counts):
        start, stop = stop, stop + count
        p_avg_sum = _sum_in_order(terms[starts[start:stop]], p_avg_sum)
    return cells, p_avg_sum, table, i


def _sum_in_order(terms: np.ndarray, total: float) -> float:
    """total + terms[0] + terms[1] + ..., added one by one from the left
    as a scalar loop adds them: `np.add.accumulate` is sequential."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


@dataclass(frozen=True)
class BiasEstimate:
    """Empirical output-bit bias over repeated protocol runs."""

    runs: int
    emitted: int
    abort_rate: float
    p_zero: Optional[float]
    p_zero_interval: Optional[tuple[float, float]]
    bias: Optional[float]
    bias_interval: Optional[tuple[float, float]]

    @property
    def no_data(self) -> bool:
        return self.emitted == 0


def _wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * float(np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def summarize_output_bits(output_bits: Sequence[Optional[int]]) -> BiasEstimate:
    """Empirical bias of the emitted bit with a Wilson confidence
    interval, plus the abort rate, over the output bits of a batch of
    runs (None for an aborted run).  All runs aborting yields an
    explicit no-data estimate."""
    runs = len(output_bits)
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    emitted = sum(1 for bit in output_bits if bit is not None)
    zeros = sum(1 for bit in output_bits if bit == 0)
    abort_rate = (runs - emitted) / runs
    if emitted == 0:
        return BiasEstimate(runs, 0, abort_rate, None, None, None, None)
    p_zero = zeros / emitted
    lo, hi = _wilson_interval(zeros, emitted)
    bias = abs(p_zero - 0.5)
    hi_b = max(abs(lo - 0.5), abs(hi - 0.5))
    lo_b = 0.0 if lo <= 0.5 <= hi else min(abs(lo - 0.5), abs(hi - 0.5))
    return BiasEstimate(runs, emitted, abort_rate, p_zero, (lo, hi), bias, (lo_b, hi_b))


def estimate_output_bias(
    params: ProtocolParams, device: DeviceModel, runs: int, seed
) -> BiasEstimate:
    """Summarize the emitted bits of `run_batch(params, device, runs, seed)`,
    the batch `randamp simulate` prints."""
    return summarize_output_bits([run.output_bit for run in run_batch(params, device, runs, seed)])


def attack_suite() -> dict[str, AdversaryModel]:
    """Named adversaries exercising the known cheating angles.

    steered-deterministic: the best classical strategy (loses only on
      input cell 110) with the source steered to make that cell rarest.
    all-zeros: constant outputs; wins only the all-zeros cell, steered
      to make that cell as likely as possible.
    round-split: looks perfect on most rounds (a winning quantum block)
      while a small deterministic block drags the per-round quality; the
      mean win rate stays below the planner's threshold.
    threshold-riding: same split with the cheating block shrunk until
      the mean win rate clears realistic thresholds; the emitted bit
      then almost always comes from the honest block.
    lambda-mixture: two-point hidden variable mixing two steered
      deterministic strategies that lose on different cells, each with
      matched steering.
    """
    lose_110 = DeterministicStrategy(((0, 1), (0, 1), (0, 0)))
    lose_011 = DeterministicStrategy(((0, 0), (0, 1), (0, 1)))
    zeros = DeterministicStrategy(((0, 0), (0, 0), (0, 0)))
    ghz = ghz_mermin_strategy()
    steer_110 = constant_sign(+1)
    steer_011 = round_position_sign(-1, +1, +1)

    def single(strategy: Strategy, sign: SignPattern) -> AdversaryModel:
        return AdversaryModel((1.0,), ((ScheduleBlock(1.0, strategy),),), (sign,))

    def split(f_honest: float, sign: SignPattern) -> AdversaryModel:
        blocks = (ScheduleBlock(f_honest, ghz), ScheduleBlock(1.0 - f_honest, lose_110))
        return AdversaryModel((1.0,), (blocks,), (sign,))

    return {
        "steered-deterministic": single(lose_110, steer_110),
        "all-zeros": single(zeros, steer_110),
        "round-split": split(0.999, steer_110),
        "threshold-riding": split(1.0 - 1e-5, steer_110),
        "lambda-mixture": AdversaryModel(
            (0.5, 0.5),
            ((ScheduleBlock(1.0, lose_110),), (ScheduleBlock(1.0, lose_011),)),
            (steer_110, steer_011),
        ),
    }
