import itertools
import random

import pytest

from prosogate.chart import EdgeCapExceeded, ParseConfig
from prosogate.evaluation import (BenchReport, ConfusionCounts, EvalError,
                                  bench, fmt_pct, metrics, rank_experiment,
                                  score_trace_hypotheses)
from test_acceptance import crosstab


class TestMetrics:
    def test_reference_counts_fixture(self):
        # corpus-level result used as a pure formula fixture
        report = metrics(ConfusionCounts(138, 274, 6, 703))
        assert report.as_pct() == {"recall": "95.8", "precision": "33.5",
                                   "error": "25.0"}

    def test_hand_arithmetic(self):
        report = metrics(ConfusionCounts(3, 1, 1, 5))
        assert report.recall == 0.75
        assert report.precision == 0.75
        assert report.error == 0.2

    def test_zero_conventions(self):
        report = metrics(ConfusionCounts(0, 0, 0, 10))
        assert (report.recall, report.precision, report.error) == (1.0, 1.0, 0.0)
        empty = metrics(ConfusionCounts())
        assert (empty.recall, empty.precision, empty.error) == (1.0, 1.0, 0.0)

    def test_random_sets_stay_in_range(self):
        rng = random.Random(0)
        for _ in range(200):
            universe = set(range(1, rng.randint(1, 8) + 1))
            gold = {g for g in universe if rng.random() < 0.3}
            proposed = {g for g in universe if rng.random() < 0.5}
            counts = score_trace_hypotheses([gold], [proposed], [universe])
            r = metrics(counts)
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.error <= 1.0
            assert (r.error == 0.0) == (proposed == gold)
            assert (r.recall == 1.0) == (gold <= proposed)


class TestScoreTraceHypotheses:
    def test_single_turn_set_arithmetic(self):
        counts = score_trace_hypotheses([{3}], [{2, 3}], [{1, 2, 3}])
        assert (counts.correct, counts.false_alarm,
                counts.miss, counts.reject) == (1, 1, 0, 1)

    def test_propose_everything(self):
        counts = score_trace_hypotheses([{1}], [{1, 2, 3}], [{1, 2, 3}])
        assert counts.miss == 0 and counts.reject == 0

    def test_counts_sum_over_turns(self):
        counts = score_trace_hypotheses(
            [{1}, {2}], [{1}, set()], [{1, 2}, {1, 2}])
        assert counts.total == 4
        assert counts.correct == 1 and counts.miss == 1


class TestFmtPct:
    def test_half_up(self):
        assert fmt_pct(0.2545) == "25.5"
        assert fmt_pct(0.4596, 2) == "45.96"
        assert fmt_pct(1.0) == "100.0"
        assert fmt_pct(0.335, 0) == "34"


class TestCrosstab:
    def test_even_split(self):
        rows = crosstab(["S3+", "S3+"], ["B3", "not-B3"])
        assert rows == [("S3+", 2, {"B3": 50.0, "not-B3": 50.0})]

    def test_identity(self):
        rows = crosstab(["a", "b", "a"], ["a", "b", "a"])
        for label, _, cells in rows:
            assert cells[label] == 100.0

    def test_reference_row_shape(self):
        # 110 reference items, 76% recognized correctly
        labels_a = ["S3+"] * 110
        labels_b = ["S3+"] * 84 + ["S3-"] * 26
        (label, cases, cells), = crosstab(labels_a, labels_b)
        assert label == "S3+" and cases == 110
        assert fmt_pct(cells["S3+"] / 100, 0) == "76"
        assert fmt_pct(cells["S3-"] / 100, 0) == "24"

    def test_rows_sum_to_100(self):
        rng = random.Random(1)
        a = [rng.choice("xyz") for _ in range(97)]
        b = [rng.choice("pq") for _ in range(97)]
        for _, _, cells in crosstab(a, b):
            assert sum(cells.values()) == pytest.approx(100.0, abs=0.1)

    def test_errors(self):
        with pytest.raises(EvalError):
            crosstab(["a"], ["a", "b"])


class TestRankExperiment:
    def test_clear_winner(self):
        counts = rank_experiment([([0.1, 0.9, 0.3], 2)])
        assert counts[1] == 1 and sum(counts.values()) == 1

    def test_tie_break_by_index(self):
        counts = rank_experiment([([0.5, 0.5, 0.5], 3)])
        assert counts[3] == 1

    def test_overflow_bucket(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
        counts = rank_experiment([(scores, 8)])
        assert counts[">7"] == 1

    def test_bucket_sum_equals_total(self):
        rng = random.Random(2)
        sentences = []
        for _ in range(50):
            n = rng.randint(1, 10)
            sentences.append(([rng.random() for _ in range(n)],
                              rng.randint(1, n)))
        counts = rank_experiment(sentences)
        assert list(counts) == [1, 2, 3, 4, 5, 6, 7, ">7"]
        assert sum(counts.values()) == 50

    def test_permutation_safe(self):
        rng = random.Random(3)
        sentences = [([rng.random() for _ in range(5)], rng.randint(1, 5))
                     for _ in range(8)]
        base = rank_experiment(sentences)
        for perm in itertools.islice(itertools.permutations(sentences), 20):
            assert rank_experiment(list(perm)) == base


class TestBenchReport:
    def test_reference_speedup_fixture(self):
        report = BenchReport(overall_with=704.8, overall_without=1304.2,
                             turn_count=109)
        assert fmt_pct(report.speedup, 2) == "45.96"
        assert report.average_with == pytest.approx(704.8 / 109)

    def test_swap_identity(self):
        a = BenchReport(overall_with=3.0, overall_without=4.0, turn_count=1)
        b = BenchReport(overall_with=4.0, overall_without=3.0, turn_count=1)
        # speedup(a) = -speedup(b) / (1 - speedup(b)) on the recorded totals
        assert a.speedup == pytest.approx(-b.speedup / (1 - b.speedup))

    def test_zero_division_guard(self):
        assert BenchReport(0.0, 0.0, 0).speedup == 0.0
        assert BenchReport(0.0, 0.0, 0).average_with == 0.0


def test_bench_identical_configs(grammar, demo_corpus):
    config = ParseConfig(threshold=0.01)
    report = bench(demo_corpus, grammar, config, config)
    assert report.turn_count == len(demo_corpus)
    assert report.empty_edges_with == report.empty_edges_without
    assert report.proposed_sites_with == report.proposed_sites_without


def test_bench_gating_reduces_work(grammar, demo_corpus):
    report = bench(demo_corpus, grammar, ParseConfig(threshold=0.01),
                   ParseConfig(mode="off"))
    assert report.empty_edges_with < report.empty_edges_without
    assert report.proposed_sites_with < report.proposed_sites_without
    assert report.overall_with > 0 and report.overall_without > 0


def test_bench_keeps_each_sides_fastest_parse_per_turn(monkeypatch):
    from types import SimpleNamespace
    from prosogate import evaluation
    from prosogate.chart import ParseResult
    gated, ungated = ParseConfig(threshold=0.01), ParseConfig(mode="off")
    # elapsed_ms of each turn's parses per side; the first is never the
    # fastest on both sides, so a single timed pass reads other totals
    times = {("a", "on"): [5.0, 2.0, 3.0], ("a", "off"): [4.0, 6.0, 1.0],
             ("b", "on"): [1.0, 7.0, 9.0], ("b", "off"): [8.0, 2.5, 3.5]}
    counts = {"on": {"empty_edges": 2, "proposed_sites": 1},
              "off": {"empty_edges": 5, "proposed_sites": 3}}

    def scripted_parse(turn, grammar, config):
        side = "on" if config is gated else "off"
        stats = {**counts[side],
                 "elapsed_ms": times[turn.turn_id, side].pop(0)}
        return ParseResult(["r"], [], stats, [], [])

    monkeypatch.setattr(evaluation, "parse", scripted_parse)
    corpus = [SimpleNamespace(turn_id=t, gold_traces=[]) for t in "ab"]
    report = bench(corpus, None, gated, ungated)
    assert not any(times.values())  # three parses a side per turn
    assert report.overall_with == pytest.approx((2.0 + 1.0) / 1000)
    assert report.overall_without == pytest.approx((1.0 + 2.5) / 1000)
    assert (report.empty_edges_with, report.empty_edges_without) == (4, 10)
    assert (report.proposed_sites_with, report.proposed_sites_without) == \
        (2, 6)


def _turns(*lines):
    from prosogate.corpus import loads_corpus
    return loads_corpus("\n".join(lines))


def test_bench_rejects_lost_readings_when_gold_sites_pass(grammar,
                                                          monkeypatch):
    from prosogate import evaluation
    # the gate drops the trace site at gap 5, and with it every reading;
    # no gold trace is read, so a gold list that names no gap is no
    # reason to object
    lost = ('{"id": "a", "words": ["gestern", "reparierte", "er", "den", '
            '"wagen"], "gap_scores": [0.5, 0.5, 0.5, 0.5, 0.0], '
            '"gold_traces": []}')
    # the gate keeps the verb-final reading and drops the V2 one
    v2 = ('{"id": "c", "words": ["er", "schlief"], "gap_scores": [0, 0], '
          '"gold_traces": []}')
    gated, ungated = ParseConfig(threshold=0.01), ParseConfig(mode="off")
    bench(_turns(lost, v2), grammar, gated, ungated)
    # a gated parse that keeps a reading whose trace sits at no proposed
    # site breaks the rule; turns are checked in order, so the mismatch
    # is raised before a later turn's parse error
    real_parse = evaluation.parse

    def keeps_a_dropped_reading(turn, grammar, config):
        result = real_parse(turn, grammar, config)
        if config is gated:
            result.readings = real_parse(turn, grammar, ungated).readings
        return result

    monkeypatch.setattr(evaluation, "parse", keeps_a_dropped_reading)
    unknown = '{"id": "b", "words": ["zzz"], "gap_scores": [0.5]}'
    with pytest.raises(EvalError, match="^turn 'a': gated readings are not "
                       "the ungated ones whose traces sit at proposed sites$"):
        bench(_turns(lost, unknown), grammar, gated, ungated)


def test_bench_exempts_turns_whose_ungated_readings_reach_the_cap(
        grammar, monkeypatch):
    from prosogate import evaluation
    # with the cap at 1, a turn with any ungated reading may be truncated,
    # so a gated parse that breaks the rule is not held against it
    lost = ('{"id": "a", "words": ["gestern", "reparierte", "er", "den", '
            '"wagen"], "gap_scores": [0.5, 0.5, 0.5, 0.5, 0.0]}')
    gated, ungated = ParseConfig(threshold=0.01), ParseConfig(mode="off")
    real_parse = evaluation.parse

    def keeps_a_dropped_reading(turn, grammar, config):
        result = real_parse(turn, grammar, config)
        if config is gated:
            result.readings = real_parse(turn, grammar, ungated).readings
        return result

    monkeypatch.setattr(evaluation, "parse", keeps_a_dropped_reading)
    monkeypatch.setattr(evaluation, "MAX_READINGS", 1)
    report = bench(_turns(lost), grammar, gated, ungated)
    assert report.turn_count == 1


def test_bench_passes_edge_cap_on_with_its_stats(grammar, monkeypatch):
    turn = '{"id": "q2", "words": ["im", "im"], "gap_scores": [0.5, 0.5]}'
    monkeypatch.setattr("prosogate.chart.MAX_EDGES", 1)
    with pytest.raises(EdgeCapExceeded,
                       match="^turn 'q2': edge cap 1 exceeded$") as info:
        bench(_turns(turn), grammar, ParseConfig(), ParseConfig(mode="off"))
    assert info.value.stats["lexical_edges"] == 2
