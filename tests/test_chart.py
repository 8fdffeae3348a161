import json

import pytest

from bruteforce import enumerate_readings
from prosogate import demo_grammar_text, fs
from prosogate.chart import (Chart, EdgeCapExceeded, InputFormatError,
                             ParseConfig, ParseError, UnknownWordError,
                             extract_pred_arg, parse, parse_corpus,
                             propose_trace_sites)
from prosogate.corpus import TurnRecord
from prosogate.fs import unify
from prosogate.grammar import RuleSchema, load_grammar


def _turn(words, scores, turn_id="t"):
    return TurnRecord(turn_id=turn_id, words=words, gap_scores=scores)


def _by_id(corpus):
    return {t.turn_id: t for t in corpus}


class TestProposeTraceSites:
    def test_threshold(self):
        t = _turn(["a", "b", "c"], [0.001, 0.2, 0.9])
        assert propose_trace_sites(t, ParseConfig(threshold=0.01)) == [2, 3]

    def test_threshold_zero_passes_all(self):
        t = _turn(["a", "b", "c"], [0.0, 0.0, 0.0])
        assert propose_trace_sites(t, ParseConfig(threshold=0.0)) == [1, 2, 3]

    def test_threshold_is_inclusive(self):
        t = _turn(["a", "b"], [0.01, 0.0099])
        assert propose_trace_sites(t, ParseConfig(threshold=0.01)) == [1]

    def test_off_mode(self):
        t = _turn(["a", "b", "c"], [0.0, 0.0, 0.0])
        assert propose_trace_sites(t, ParseConfig(mode="off")) == [1, 2, 3]
        assert ParseConfig(mode="off") == ParseConfig(threshold=0.0)

    def test_rank_mode_orders_by_score(self):
        t = _turn(["a", "b", "c", "d"], [0.1, 0.9, 0.3, 0.05])
        cfg = ParseConfig(mode="rank", rank_limit=2)
        assert propose_trace_sites(t, cfg) == [2, 3]

    def test_rank_tie_breaks_by_lower_gap(self):
        t = _turn(["a", "b", "c"], [0.5, 0.5, 0.5])
        cfg = ParseConfig(mode="rank", rank_limit=2)
        assert propose_trace_sites(t, cfg) == [1, 2]

    def test_missing_scores_rejected(self):
        t = TurnRecord(turn_id="t", words=["a", "b"])
        with pytest.raises(InputFormatError):
            propose_trace_sites(t, ParseConfig())
        t = _turn(["a", "b"], [0.5])
        with pytest.raises(InputFormatError):
            propose_trace_sites(t, ParseConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ParseConfig(mode="sometimes")
        with pytest.raises(ValueError):
            ParseConfig(threshold=1.5)
        with pytest.raises(ValueError):
            ParseConfig(mode="rank", rank_limit=0)
        with pytest.raises(ValueError):
            ParseConfig(max_edges=0)


def test_v2_tree_bracketing(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
    assert result.readings == [
        "(filler-head gestern/gestern (v2-selection reparierte/reparierte_f_v2"
        " (head-subject er/er (head-complement (head-complement den/den"
        " wagen/wagen) t/reparierte_f_v2@5))))"]


def test_trace_edge_loc_shared_with_dsl(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
    empties = [e for e in result._chart.edges if e.kind == "empty"]
    assert len(empties) == 1
    edge = empties[0]
    assert edge.start == edge.end == 5
    # the trace's LOC is the DSL element itself (structure sharing per the
    # head-trace description) and carries the final form's valence
    assert edge.category.get("LOC") is edge.category.get("DSL").items[0]
    final = grammar.entries_by_id["reparierte_f"]
    assert unify(edge.category.get("LOC"), final.category.get("LOC")) is not None
    assert len(edge.category.get("LOC", "SUBCAT").items) == 2


def test_licenser_ordering_and_fidelity(grammar, demo_corpus):
    for turn in demo_corpus:
        edges = parse(turn, grammar, ParseConfig(mode="off"))._chart.edges
        for edge in edges:
            if edge.kind != "empty":
                continue
            assert edge.entry.is_v2
            # constraint a: a lexical edge of the same V2 entry ends at or
            # before the gap
            assert any(e.kind == "lexical" and e.entry is edge.entry
                       and e.end <= edge.start for e in edges)
            # constraint c: the edge instantiates that entry's template
            assert edge.category is edge.entry.trace_template


def test_monotone_gating(grammar, demo_corpus):
    for turn in demo_corpus:
        prev_readings, prev_empty = None, None
        for tau in (0.0, 0.01, 0.5, 1.0):
            r = parse(turn, grammar, ParseConfig(threshold=tau))
            if prev_readings is not None:
                assert set(r.readings) <= prev_readings
                assert r.stats["empty_edges"] <= prev_empty
            prev_readings, prev_empty = set(r.readings), r.stats["empty_edges"]


def test_verb_final_clause_needs_no_trace(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d03"], grammar, ParseConfig())
    assert len(result.readings) == 1
    assert result.stats["empty_edges"] == 0


def test_gate_blocks_everything(grammar):
    t = _turn(["gestern", "reparierte", "er", "den", "wagen"], [0.0] * 5)
    result = parse(t, grammar, ParseConfig(threshold=0.01))
    assert result.readings == []
    assert result.stats["empty_edges"] == 0
    with pytest.raises(IndexError, match="no reading"):
        extract_pred_arg(result, 0)


def test_unknown_word(grammar):
    t = _turn(["gestern", "explodierte", "er"], [0.0, 0.0, 0.9])
    with pytest.raises(UnknownWordError, match="explodierte"):
        parse(t, grammar, ParseConfig())


def test_parse_corpus_names_failing_turn(grammar, demo_corpus):
    good = _by_id(demo_corpus)["d01"]
    bad = _turn(["gestern", "explodierte"], [0.0, 0.9], turn_id="x7")
    results = parse_corpus([good, bad], grammar, ParseConfig())
    assert next(results).turn_id == "d01"
    with pytest.raises(ParseError,
                       match="turn 'x7': unknown word 'explodierte'"):
        next(results)


@pytest.mark.parametrize("config", [ParseConfig(mode="off"),
                                    ParseConfig(threshold=0.01)],
                         ids=["off", "gated"])
def test_each_adjacent_pair_combined_once(grammar, demo_corpus, monkeypatch,
                                          config):
    """Every adjacent pair is offered to the quick check of every schema
    exactly once, and apply runs right after each offer the check passes
    and never otherwise."""
    log = []
    admits, apply = RuleSchema.admits, RuleSchema.apply

    def counting_admits(schema, left, right):
        passed = admits(schema, left, right)
        log.append(("offer", id(schema), passed))
        return passed

    def counting_apply(schema, left, right):
        log.append(("apply", id(schema)))
        return apply(schema, left, right)

    monkeypatch.setattr(RuleSchema, "admits", counting_admits)
    monkeypatch.setattr(RuleSchema, "apply", counting_apply)
    for turn in demo_corpus:
        log.clear()
        edges = parse(turn, grammar, config)._chart.edges
        pairs = sum(1 for left in edges if left.kind != "empty"
                    for right in edges if right.start == left.end)
        offers = [entry for entry in log if entry[0] == "offer"]
        assert ([schema for _, schema, _ in offers]
                == [id(schema) for schema in grammar.schemata] * pairs), \
            turn.turn_id
        expected = []
        for offer in offers:
            expected.append(offer)
            if offer[2]:
                expected.append(("apply", offer[1]))
        assert log == expected, turn.turn_id
        for edge in edges:
            keys = [(id(schema), l, r) for schema, l, r in edge.derivations]
            assert len(set(keys)) == len(keys), turn.turn_id


@pytest.mark.parametrize("config", [ParseConfig(mode="off"),
                                    ParseConfig(threshold=0.01)],
                         ids=["off", "gated"])
def test_quick_check_rejects_only_failing_applications(grammar, demo_corpus,
                                                       config):
    rejected = 0
    for turn in demo_corpus:
        edges = parse(turn, grammar, config)._chart.edges
        for left in edges:
            if left.kind == "empty":
                continue
            for right in edges:
                if right.start != left.end:
                    continue
                for schema in grammar.schemata:
                    if not schema.admits(left.summaries, right.summaries):
                        rejected += 1
                        assert schema.apply(left.category,
                                            right.category) is None
    assert rejected


def test_schema_applications_over_demo_corpus(grammar, demo_corpus,
                                              monkeypatch):
    """With the gate off, the quick check leaves 215 of the 5,616 offers
    for apply; 169 of them succeed."""
    outcomes = []
    apply = RuleSchema.apply

    def counting_apply(schema, left, right):
        mother = apply(schema, left, right)
        outcomes.append(mother is not None)
        return mother

    monkeypatch.setattr(RuleSchema, "apply", counting_apply)
    for turn in demo_corpus:
        parse(turn, grammar, ParseConfig(mode="off"))
    assert len(outcomes) == 215
    assert sum(outcomes) == 169


def test_edge_cap(grammar, demo_corpus):
    turn = _by_id(demo_corpus)["d02"]
    with pytest.raises(EdgeCapExceeded) as exc_info:
        parse(turn, grammar, ParseConfig(mode="off", max_edges=12))
    stats = exc_info.value.stats
    assert stats["lexical_edges"] > 0
    assert stats["elapsed_ms"] >= 0


def test_edge_cap_counts_leaves(grammar):
    turn = _turn(["im", "im"], [0.5, 0.5])
    with pytest.raises(EdgeCapExceeded) as exc_info:
        parse(turn, grammar, ParseConfig(mode="off", max_edges=1))
    stats = exc_info.value.stats
    assert stats["lexical_edges"] == 2
    assert stats["derived_edges"] == 0
    assert stats["elapsed_ms"] >= 0


def test_packing_keys_only_collisions(grammar, monkeypatch):
    """fs.canonical keys a derived category only when an edge of the same
    span and summary vector is already in the chart."""
    er, sie, im = (grammar.entries(w)[0].category for w in ("er", "sie", "im"))
    assert grammar.summaries(er) == grammar.summaries(sie)
    assert grammar.summaries(er) != grammar.summaries(im)
    assert fs.canonical(er) != fs.canonical(sie)  # SEM INDEX differs
    calls = []
    canonical = fs.canonical

    def counting(node):
        calls.append(node)
        return canonical(node)

    monkeypatch.setattr(fs, "canonical", counting)
    chart = Chart(grammar)

    def add(start, end, cat):
        return chart.add(start, end, cat, "derived",
                         derivation=("s", len(chart.edges), 0))

    first, is_new = add(0, 2, er)
    assert is_new and first.summaries == grammar.summaries(er)
    assert add(0, 3, er)[1] and add(1, 2, er)[1] and add(0, 2, im)[1]
    assert calls == []
    # equal vectors, different SEM: both keyed, and kept apart
    other, is_new = add(0, 2, sie)
    assert is_new and other is not first
    assert calls == [er, sie]
    # an equivalent copy packs; the keyed edges are not keyed again
    again, is_new = add(0, 2, fs.copy_fs(er))
    assert not is_new and again is first
    assert len(calls) == 3
    assert len(first.derivations) == 2


class TestPredArg:
    def test_main_clause_record(self, grammar, demo_corpus):
        result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
        assert extract_pred_arg(result, 0) == (
            ("fix", (("AGENT", "er"), ("THEME", "wagen"))),
            ("yesterday", (("EVENT", "fix"),)),
        )

    def test_index_out_of_range(self, grammar, demo_corpus):
        result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
        with pytest.raises(IndexError):
            extract_pred_arg(result, 5)

    def test_reading_cap_keeps_whole_trees(self, grammar, demo_corpus,
                                           monkeypatch):
        turn = _by_id(demo_corpus)["d22"]
        full = parse(turn, grammar, ParseConfig(mode="off"))
        assert len(full.readings) == 2
        monkeypatch.setattr("prosogate.chart.MAX_READINGS", 1)
        capped = parse(turn, grammar, ParseConfig(mode="off"))
        (reading,) = capped.readings
        assert extract_pred_arg(capped, 0) == \
            extract_pred_arg(full, full.readings.index(reading))


def test_readings_are_sorted_and_deterministic(grammar, demo_corpus):
    for turn in demo_corpus:
        a = parse(turn, grammar, ParseConfig())
        b = parse(turn, grammar, ParseConfig())
        assert a.readings == b.readings == sorted(a.readings)


def test_single_word_turn(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d21"], grammar, ParseConfig())
    assert result.readings == ["er/er"]


def _lexicon_entry(entry_id):
    doc = json.loads(demo_grammar_text())
    return next(e for e in doc["lexicon"] if e["id"] == entry_id)


@pytest.mark.parametrize("original, entry", [
    # er_odd's HEAD is one atom spelling out er's HEAD features
    ("er", {"id": "er_odd", "orth": "er", "avm": {
        "PHON": ["er"], "DSL": [],
        "LOC": {"HEAD": {"CASE": "nom CLS:'- POS:'noun"}, "SUBCAT": [],
                "SEM": {"INDEX": "er"}}}}),
    # homographs whose categories (and V2 trace templates) equal the
    # original's: each entry keeps its own lexical and empty edges
    ("er", {**_lexicon_entry("er"), "id": "er_b"}),
    ("schlief_f", {**_lexicon_entry("schlief_f"), "id": "schlief_f_b"}),
], ids=["er_odd", "er_b", "schlief_f_b"])
def test_packing_tells_an_odd_atom_from_structure(demo_corpus, original,
                                                  entry):
    """An entry inserted before the one it imitates: every short demo
    turn still gives exactly the oracle's readings."""
    doc = json.loads(demo_grammar_text())
    at = next(i for i, e in enumerate(doc["lexicon"]) if e["id"] == original)
    doc["lexicon"].insert(at, entry)
    grammar = load_grammar(json.dumps(doc))
    for turn in demo_corpus:
        if len(turn.words) > 6:
            continue
        for config in (ParseConfig(mode="off"), ParseConfig(threshold=0.01),
                       ParseConfig(mode="rank")):
            assert set(parse(turn, grammar, config).readings) == \
                enumerate_readings(turn, grammar, config), \
                (turn.turn_id, config)
