"""Trace-detection metrics, the rank experiment, and the
with/without-prosody runtime benchmark.

Zero-denominator conventions (degenerate turns must not poison corpus
aggregates): recall := 1 when there are no gold positions, precision :=
1 when nothing was proposed, error := 0 when the position universe is
empty. Percentages render at one decimal, half-up, matching the
reporting style of the reference results; internal values stay at full
precision.

Inputs are checked where they enter, by the corpus loader, the
parse-report reader in ``cli`` and ``prosogate rank``; code here
assumes them (see each function).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from decimal import Decimal, ROUND_HALF_UP

from .chart import MAX_READINGS, gaps_by_score, parse, trace_gaps


class EvalError(ValueError):
    pass


def fmt_pct(fraction, decimals=1):
    """Format a fraction as a percentage string, half-up rounding."""
    q = Decimal(1).scaleb(-decimals)
    return str((Decimal(repr(float(fraction))) * 100).quantize(
        q, rounding=ROUND_HALF_UP))


@dataclass
class ConfusionCounts:
    correct: int = 0
    false_alarm: int = 0
    miss: int = 0
    reject: int = 0  # neither gold nor proposed

    @property
    def total(self):
        return sum(astuple(self))


@dataclass
class MetricReport:
    recall: float
    precision: float
    error: float

    def as_pct(self):
        return {k: fmt_pct(v) for k, v in asdict(self).items()}


def score_trace_hypotheses(gold_per_turn, proposed_per_turn, universe_per_turn):
    """Confusion counts over parallel per-turn gap-index sets, each
    turn's gold and proposed gaps inside its universe.

    correct = gold AND proposed, false_alarm = proposed only, miss =
    gold only, reject = neither; summed over turns.
    """
    counts = ConfusionCounts()
    for gold, proposed, universe in zip(gold_per_turn, proposed_per_turn,
                                        universe_per_turn):
        gold, proposed, universe = set(gold), set(proposed), set(universe)
        counts.correct += len(gold & proposed)
        counts.false_alarm += len(proposed - gold)
        counts.miss += len(gold - proposed)
        counts.reject += len(universe - (gold | proposed))
    return counts


def metrics(c):
    """Recall / precision / error with the documented zero conventions."""
    recall = c.correct / (c.correct + c.miss) if c.correct + c.miss else 1.0
    precision = (c.correct / (c.correct + c.false_alarm)
                 if c.correct + c.false_alarm else 1.0)
    error = (c.miss + c.false_alarm) / c.total if c.total else 0.0
    return MetricReport(recall=recall, precision=precision, error=error)


MAX_RANK = 7


def rank_experiment(sentences):
    """Histogram of the gold trace gap's score rank per sentence: the
    number of sentences at each rank 1..MAX_RANK, then at f">{MAX_RANK}",
    in that order.

    Each sentence is (gap_scores, gold_gap), gold_gap in
    1..len(gap_scores); gaps are ranked by score descending with ties
    broken by lower gap index first.
    """
    beyond = f">{MAX_RANK}"
    counts = dict.fromkeys([*range(1, MAX_RANK + 1), beyond], 0)
    for scores, gold_gap in sentences:
        rank = gaps_by_score(scores).index(gold_gap) + 1
        counts[rank if rank <= MAX_RANK else beyond] += 1
    return counts


@dataclass
class BenchReport:
    overall_with: float  # seconds, prosody gating on
    overall_without: float
    turn_count: int
    empty_edges_with: int = 0
    empty_edges_without: int = 0
    proposed_sites_with: int = 0
    proposed_sites_without: int = 0
    average_with: float = field(init=False)
    average_without: float = field(init=False)
    speedup: float = field(init=False)

    def __post_init__(self):
        n, without = self.turn_count, self.overall_without
        self.average_with = self.overall_with / n if n else 0.0
        self.average_without = without / n if n else 0.0
        self.speedup = 1.0 - self.overall_with / without if without else 0.0


REPEATS = 3  # parses of each turn per side; each side keeps its fastest


def bench(corpus, grammar, config_on, config_off):
    """Parse the corpus under both configs and time it.

    Each turn is parsed gated, then ungated, ``REPEATS`` times before the
    next turn, so a drift in host speed weighs on both totals alike.
    Each side keeps its fastest parse of the turn (as ``timeit`` advises
    taking the minimum), so a collection, a host stall or what a first
    parse fills in (the grammar's quick-check table) lands in a repeat
    that the minimum discards. Each side's totals are the statistics of
    its kept parses, summed over the turns. The gated readings must be
    exactly the ungated readings whose traces all sit at gated proposed
    sites (a turn whose ungated readings reach ``MAX_READINGS``, and so
    may be truncated, is exempt); the first turn that fails, by a
    reading mismatch (EvalError) or a parse error (ParseError), aborts
    with an error naming it. No gold trace is read.
    """
    on, off = Counter(), Counter()  # summed parse statistics per side
    for turn in corpus:
        runs = [(parse(turn, grammar, config_on),
                 parse(turn, grammar, config_off)) for _ in range(REPEATS)]
        gated, ungated = (min(side, key=lambda r: r.stats["elapsed_ms"])
                          for side in zip(*runs))
        on.update(gated.stats)
        off.update(ungated.stats)
        sites = set(gated.proposed_sites)
        if len(ungated.readings) < MAX_READINGS and gated.readings != [
                r for r in ungated.readings if trace_gaps(r) <= sites]:
            raise EvalError(
                f"turn {turn.turn_id!r}: gated readings are not the ungated "
                f"ones whose traces sit at proposed sites")
    return BenchReport(
        overall_with=on["elapsed_ms"] / 1000.0,
        overall_without=off["elapsed_ms"] / 1000.0,
        turn_count=len(corpus),
        empty_edges_with=on["empty_edges"],
        empty_edges_without=off["empty_edges"],
        proposed_sites_with=on["proposed_sites"],
        proposed_sites_without=off["proposed_sites"])
