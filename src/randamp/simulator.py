"""End-to-end protocol execution against device models.

Two device families: honest devices holding one quantum strategy (with
optional depolarizing noise) replayed i.i.d. every round, and
adversarial devices holding a hidden variable lambda that jointly picks
a per-round strategy schedule and a steering pattern for the input
source.  The schedule is a list of blocks (fraction of rounds, strategy)
so an adversary can look perfect for most rounds and cheat in the rest.

Round data is materialized for small round counts.  Planner-sized runs
(N can reach 1e13 and beyond) are executed in aggregated form instead:
per input cell, round counts are multinomial and win counts binomial,
which is distribution-exact for i.i.d. rounds within each schedule
block.  The selected round's content is then drawn from the realized
per-block empirical counts; by exchangeability of rounds within a block
this matches the materialized distribution exactly, including the
correlation between survival of the abort test and the selected round's
win status.  Aggregation requires a round-local steering pattern (the
sign may depend only on the position within the current two-bit round),
which keeps rounds i.i.d.; materialized runs accept any pattern.

A materialized run draws its 3 N round uniforms in one call: round j
reads uniforms 3j and 3j + 1 for its two input bits and 3j + 2 for its
outputs, the doubles that 3 N scalar draws would give, in the same
order.  The Python loop over rounds then evaluates the steering pattern
three times per round, on the history h, h + [0] and h + [1]; both bit
draws and the round's p_avg term reuse those three values.  Outputs are
drawn after the loop, one search per (schedule block, input cell).  A
history-dependent pattern costs whatever its own evaluation costs:
`parity_sign` reads the whole history, so its runs are quadratic in N.

Selection bits are drawn from the same source stream after all round
bits, most significant bit first, redrawing whenever the index falls
outside the round range.  A run consumes exactly
2 N + (selection draws) * ceil(log2 N) source bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Union

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
    "HonestDevice",
    "ScheduleBlock",
    "AdversaryModel",
    "AdversarialDevice",
    "DeviceModel",
    "ProtocolRun",
    "BiasEstimate",
    "run_protocol",
    "transcript_lines",
    "summarize_output_bits",
    "estimate_output_bias",
    "attack_suite",
]

MATERIALIZE_LIMIT = 1 << 20

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
        if min(self.lambda_weights) < 0 or abs(sum(self.lambda_weights) - 1.0) > 1e-12:
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
        if self.total_wins != round(self.p_est * self.n_rounds):
            raise ValueError("win fraction does not match win count")
        if self.aborted != (self.output_bit is None):
            raise ValueError("aborted runs and only aborted runs lack an output bit")


class _SourceStream:
    """Sequential bit sampler holding the full history across rounds."""

    def __init__(self, source: ExtremalSource, rng: np.random.Generator):
        self.source = source
        self.rng = rng
        self.history: list[int] = []

    def draw(self) -> int:
        p0 = self.source.next_bit_probability(self.history)
        bit = 0 if self.rng.random() < p0 else 1
        self.history.append(bit)
        return bit

    @property
    def count(self) -> int:
        return len(self.history)


def _selection_bit_count(n_rounds: int) -> int:
    return (n_rounds - 1).bit_length()


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
    bounds = []
    cum = 0.0
    for b in blocks:
        cum += b.fraction
        bounds.append(round(cum * n_rounds))
    bounds[-1] = n_rounds
    counts = []
    prev = 0
    for bd in bounds:
        counts.append(max(0, bd - prev))
        prev = max(prev, bd)
    return counts


def _win_probability(behavior: Behavior, game: GameSpec, x: InputTuple) -> float:
    row = behavior.table[x]
    return float(sum(row[o] for o in game.all_outputs() if game.win(x, o)))


def _alice_zero_given_status(
    behavior: Behavior, game: GameSpec, x: InputTuple, won: bool
) -> float:
    """P(first party outputs 0 | input cell, round win status)."""
    num = 0.0
    den = 0.0
    row = behavior.table[x]
    for o in game.all_outputs():
        if game.win(x, o) == won:
            den += float(row[o])
            if o[0] == 0:
                num += float(row[o])
    if den <= 0.0:
        raise ValueError(f"conditioning on a zero-probability win status at {x}")
    return num / den


def run_protocol(params: ProtocolParams, device: DeviceModel, seed) -> ProtocolRun:
    """Execute the three protocol steps against a device model.

    Steps: (1) N rounds of the tripartite game on source-drawn inputs,
    (2) abort iff the win fraction is at or below the planned threshold,
    (3) select a round with further source bits and emit the first
    party's outcome from it.  Aborts are data, not errors.
    """
    game = mermin_game()
    rng = np.random.default_rng(seed)
    blocks, source = _resolve_schedule(params, device, rng, game)
    n = params.n_rounds
    if n <= MATERIALIZE_LIMIT:
        return _run_materialized(params, blocks, source, rng, game)
    if not source.sign.round_local:
        raise ValueError(
            f"{n} rounds exceed the materialization limit and the steering "
            "pattern is not round-local, so the run cannot be aggregated"
        )
    return _run_aggregated(params, blocks, source, rng, game)


def _run_materialized(
    params: ProtocolParams,
    blocks: tuple[ScheduleBlock, ...],
    source: ExtremalSource,
    rng: np.random.Generator,
    game: GameSpec,
) -> ProtocolRun:
    n = params.n_rounds
    counts = _block_round_counts(blocks, n)
    behaviors = [_block_behavior(b.strategy, game) for b in blocks]
    # input cells indexed by 2a + b, where a and b are the round's source bits
    cells = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]
    win_prob = [tuple(_win_probability(bh, game, x) for x in cells) for bh in behaviors]

    # round j reads uniforms 3j and 3j + 1 for its input bits, 3j + 2 for its outputs
    uniforms = rng.random(3 * n)
    u_first = uniforms[0::3].tolist()
    u_second = uniforms[1::3].tolist()
    stream = _SourceStream(source, rng)
    history = stream.history
    p_avg_sum = 0.0
    stop = 0
    for count, (w000, w011, w101, w110) in zip(counts, win_prob):
        start, stop = stop, stop + count
        for j in range(start, stop):
            pa = source.next_bit_probability(history)
            history.append(0)
            pb_0 = source.next_bit_probability(history)
            history[-1] = 1
            pb_1 = source.next_bit_probability(history)
            qa = 1.0 - pa
            p_avg_sum += ((pa * pb_0) * w000 + (pa * (1.0 - pb_0)) * w011
                          + (qa * pb_1) * w101 + (qa * (1.0 - pb_1)) * w110)
            if u_first[j] < pa:
                history[-1] = 0
                history.append(0 if u_second[j] < pb_0 else 1)
            else:
                history.append(0 if u_second[j] < pb_1 else 1)

    bits = np.array(history, dtype=np.intp)
    cell_index = 2 * bits[0::2] + bits[1::2]
    u_out = uniforms[2::3]
    out_cells = game.all_outputs()
    flat = np.empty(n, dtype=np.intp)
    start = 0
    for count, bh in zip(counts, behaviors):
        for c, x in enumerate(cells):
            rounds = start + np.flatnonzero(cell_index[start:start + count] == c)
            flat[rounds] = np.searchsorted(np.cumsum(bh.table[x].ravel()), u_out[rounds], side="right")
        start += count
    np.minimum(flat, len(out_cells) - 1, out=flat)
    win_table = np.array([[bool(game.win(x, o)) for o in out_cells] for x in cells])
    won = win_table[cell_index, flat]

    inputs = tuple(cells[c] for c in cell_index.tolist())
    outputs = tuple(out_cells[i] for i in flat.tolist())
    wins = tuple(won.tolist())
    total_wins = int(won.sum())
    p_est = total_wins / n
    p_avg = p_avg_sum / n
    if p_est <= params.p_threshold:
        return ProtocolRun(
            n_rounds=n, total_wins=total_wins, p_est=p_est, aborted=True,
            selected_round=None, output_bit=None, p_avg=p_avg,
            source_bits_used=stream.count, selection_draws=0, aggregated=False,
            inputs=inputs, outputs=outputs, wins=wins,
        )

    n_bits = _selection_bit_count(n)
    draws = 0
    while True:
        draws += 1
        idx = 0
        for _ in range(n_bits):
            idx = (idx << 1) | stream.draw()
        if idx < n:
            break
    return ProtocolRun(
        n_rounds=n, total_wins=total_wins, p_est=p_est, aborted=False,
        selected_round=idx, output_bit=outputs[idx][0], p_avg=p_avg,
        source_bits_used=stream.count, selection_draws=draws, aggregated=False,
        inputs=inputs, outputs=outputs, wins=wins,
    )


def _run_aggregated(
    params: ProtocolParams,
    blocks: tuple[ScheduleBlock, ...],
    source: ExtremalSource,
    rng: np.random.Generator,
    game: GameSpec,
) -> ProtocolRun:
    n = params.n_rounds
    counts = _block_round_counts(blocks, n)
    behaviors = [_block_behavior(b.strategy, game) for b in blocks]

    dist = input_distribution_from_source(game, source)
    cells = game.admissible_inputs()
    p_vec = np.array([dist.prob(x) for x in cells])
    p_vec = p_vec / p_vec.sum()

    cell_counts = []
    cell_wins = []
    p_avg = 0.0
    for k, nb in enumerate(counts):
        nc = rng.multinomial(nb, p_vec) if nb else np.zeros(len(cells), dtype=np.int64)
        wp = np.clip([_win_probability(behaviors[k], game, x) for x in cells], 0.0, 1.0)
        wc = rng.binomial(nc, wp)
        cell_counts.append(nc)
        cell_wins.append(wc)
        p_avg += (nb / n) * float(p_vec @ wp)

    total_wins = int(sum(int(w.sum()) for w in cell_wins))
    p_est = total_wins / n
    base_bits = 2 * n
    if p_est <= params.p_threshold:
        return ProtocolRun(
            n_rounds=n, total_wins=total_wins, p_est=p_est, aborted=True,
            selected_round=None, output_bit=None, p_avg=p_avg,
            source_bits_used=base_bits, selection_draws=0, aggregated=True,
        )

    # Selection bits: round-local steering means their conditionals never
    # reach back into the round bits (even stream positions restart each
    # round's pattern, and 2N is even), so an empty virtual history with
    # the right parity is exact.
    n_bits = _selection_bit_count(n)
    virtual = _SourceStream(source, rng)
    draws = 0
    while True:
        draws += 1
        idx = 0
        for _ in range(n_bits):
            idx = (idx << 1) | virtual.draw()
        if idx < n:
            break

    bounds = np.cumsum(counts)
    k = int(np.searchsorted(bounds, idx, side="right"))
    nc, wc = cell_counts[k], cell_wins[k]
    cell_idx = int(rng.choice(len(cells), p=nc / nc.sum()))
    x = cells[cell_idx]
    won = rng.random() < (wc[cell_idx] / nc[cell_idx])
    p_zero = _alice_zero_given_status(behaviors[k], game, x, bool(won))
    bit = 0 if rng.random() < p_zero else 1

    return ProtocolRun(
        n_rounds=n, total_wins=total_wins, p_est=p_est, aborted=False,
        selected_round=idx, output_bit=bit, p_avg=p_avg,
        source_bits_used=base_bits + draws * n_bits, selection_draws=draws,
        aggregated=True,
    )


def transcript_lines(run: ProtocolRun) -> list[str]:
    """Line-oriented record per round: index, inputs, outputs, win flag."""
    if run.aggregated:
        raise ValueError("aggregated runs carry no per-round transcript")
    lines = []
    for j, (x, o, w) in enumerate(zip(run.inputs, run.outputs, run.wins)):
        xs = "".join(str(v) for v in x)
        os_ = "".join(str(v) for v in o)
        lines.append(f"{j} {xs} {os_} {int(w)}")
    return lines


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
    """Run the protocol `runs` times, run i on the i-th child of
    SeedSequence(seed), and summarize the emitted bits."""
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    seeds = np.random.SeedSequence(seed).spawn(runs)
    return summarize_output_bits(
        [run_protocol(params, device, np.random.default_rng(s)).output_bit for s in seeds]
    )


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
