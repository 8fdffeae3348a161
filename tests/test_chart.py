import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import enumerate_readings
from prosogate import demo_corpus_text, demo_grammar_text, fs
from prosogate.chart import (MAX_READINGS, RANK_LIMIT, Chart,
                             EdgeCapExceeded, InputFormatError, ParseConfig,
                             ParseError, UnknownWordError, parse,
                             propose_trace_sites, trace_gaps)
from prosogate.corpus import TurnRecord, loads_corpus
from prosogate.grammar import RuleSchema, load_grammar
from prosogate.synth import synth_corpus
from references import _label_tree, _trees, extract_pred_arg, unify


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
        cfg = ParseConfig(mode="rank")
        assert propose_trace_sites(t, cfg) == [2, 3]

    def test_rank_tie_breaks_by_lower_gap(self):
        t = _turn(["a", "b", "c"], [0.5, 0.5, 0.5])
        cfg = ParseConfig(mode="rank")
        assert propose_trace_sites(t, cfg) == [1, 2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_mode_keeps_at_most_rank_limit_gaps(self, n):
        # scores rise with the gap index, so the best gap is the last
        t = _turn(["w"] * n, [0.1 * g for g in range(1, n + 1)])
        sites = propose_trace_sites(t, ParseConfig(mode="rank"))
        assert sites == list(range(n, 0, -1))[:RANK_LIMIT]
        assert len(sites) == min(n, RANK_LIMIT)

    def test_missing_scores_rejected(self):
        t = TurnRecord(turn_id="t", words=["a", "b"])
        with pytest.raises(InputFormatError):
            propose_trace_sites(t, ParseConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ParseConfig(mode="sometimes")
        with pytest.raises(ValueError):
            ParseConfig(threshold=1.5)


def test_v2_tree_bracketing(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
    assert result.readings == [
        "(filler-head gestern/gestern (v2-selection reparierte/reparierte_f_v2"
        " (head-subject er/er (head-complement (head-complement den/den"
        " wagen/wagen) t/reparierte_f_v2@5))))"]


def test_trace_edge_loc_shared_with_dsl(grammar, demo_corpus):
    result = parse(_by_id(demo_corpus)["d01"], grammar, ParseConfig())
    empties = [e for e in result.edges if e.kind == "empty"]
    assert len(empties) == 1
    edge = empties[0]
    assert edge.start == edge.end == 5
    # the trace's LOC is the DSL element itself (structure sharing per the
    # head-trace description) and carries the final form's valence
    assert edge.category.get("LOC") is edge.category.get("DSL").attrs[0]
    final = grammar.entries_by_id["reparierte_f"]
    assert unify(edge.category.get("LOC"), final.category.get("LOC")) is not None
    assert len(edge.category.get("LOC", "SUBCAT").attrs) == 2


def test_list_children_keyed_by_position(grammar, demo_corpus):
    """Every list reachable from the lexicon, the schema patterns and the
    chart categories keeps its children under 0..n-1, in order; an atom
    has no children, an AVM only feature names."""
    roots = [e.category for e in grammar.entries_by_id.values()]
    roots += [e.trace_template for e in grammar.entries_by_id.values()
              if e.is_v2]
    roots += [s.pattern for s in grammar.schemata]
    for turn in demo_corpus:
        roots += [e.category for e in
                  parse(turn, grammar, ParseConfig(mode="off")).edges]
    seen, todo, lists = set(), roots, 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind == fs.ATOM:
            assert node.attrs is None
            continue
        if node.kind == fs.LIST:
            lists += 1
            assert list(node.attrs) == list(range(len(node.attrs)))
        else:
            assert all(type(f) is str for f in node.attrs)
        todo.extend(node.attrs.values())
    assert lists > 100


def test_licenser_ordering_and_fidelity(grammar, demo_corpus):
    for turn in demo_corpus:
        edges = parse(turn, grammar, ParseConfig(mode="off")).edges
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


GATES = [ParseConfig(threshold=0.01), ParseConfig(threshold=0.5),
         ParseConfig(mode="rank")]


def _gating_rule_holds(turn, grammar):
    """Whether each gate keeps exactly the ungated readings whose traces
    all sit at its proposed sites. None for a turn whose ungated
    readings reach MAX_READINGS (truncated, so exempt)."""
    ungated = parse(turn, grammar, ParseConfig(mode="off")).readings
    if len(ungated) >= MAX_READINGS:
        return None
    for config in GATES:
        gated = parse(turn, grammar, config)
        sites = set(gated.proposed_sites)
        kept = [r for r in ungated if trace_gaps(r) <= sites]
        if gated.readings != kept:
            return False
    return True


def test_trace_gaps_reads_only_trace_leaves():
    assert trace_gaps("t/sollst@1") == {1}
    assert trace_gaps("(a (b t/x@3 sollst/y) t/x@12)") == {3, 12}
    # a word ending in t, an entry id with an @, a gap with a suffix
    assert trace_gaps("(a geht/x@1 (b t/x@2a t/x))") == set()


@pytest.mark.parametrize("corpus", ["demo", "synth-42"])
def test_gated_readings_are_the_ungated_ones_with_proposed_traces(
        grammar, demo_corpus, corpus):
    # no turn of these corpora reaches MAX_READINGS, so none is exempt
    turns = demo_corpus if corpus == "demo" else synth_corpus(seed=42)
    assert [t.turn_id for t in turns
            if _gating_rule_holds(t, grammar) is not True] == []


DEMO_WORDS = sorted(load_grammar(demo_grammar_text()).lexicon)
SHORT_DEMO_WORDS = [t.words for t in loads_corpus(demo_corpus_text())
                    if len(t.words) <= 6]


@st.composite
def _demo_vocabulary_turns(draw):
    """At most 6 words: drawn from the demo lexicon, or a short demo
    turn's words in any order (which parse far more often)."""
    words = draw(st.one_of(
        st.lists(st.sampled_from(DEMO_WORDS), min_size=1, max_size=6),
        st.sampled_from(SHORT_DEMO_WORDS).flatmap(st.permutations)))
    scores = draw(st.lists(st.sampled_from([0.0, 0.005, 0.3, 0.5, 0.9]),
                           min_size=len(words), max_size=len(words)))
    return TurnRecord(turn_id="h", words=list(words), gap_scores=scores)


@settings(max_examples=100)
@given(_demo_vocabulary_turns())
# the gate keeps the verb-final reading and drops the V2 one (trace at 2)
@example(TurnRecord(turn_id="h", words=["er", "schlief"],
                    gap_scores=[0.0, 0.0]))
def test_gating_rule_on_random_turns(grammar, turn):
    assert _gating_rule_holds(turn, grammar) is not False


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


def test_parse_names_failing_turn(grammar, demo_corpus, monkeypatch):
    bad = _turn(["gestern", "explodierte"], [0.0, 0.9], turn_id="x7")
    with pytest.raises(ParseError,
                       match="turn 'x7': unknown word 'explodierte'"):
        parse(bad, grammar, ParseConfig())
    monkeypatch.setattr("prosogate.chart.MAX_EDGES", 12)
    with pytest.raises(EdgeCapExceeded,
                       match="^turn 'd02': edge cap 12 exceeded$"):
        parse(_by_id(demo_corpus)["d02"], grammar, ParseConfig(mode="off"))
    with pytest.raises(InputFormatError, match="^turn 'q3': need one gap"):
        parse(_turn(["er"], None, turn_id="q3"), grammar, ParseConfig())


def _combination_order(edges):
    """The adjacent pairs (non-empty left edge, any right edge) in the
    order the closure combines them: it walks the edges in id order, and
    combines each as a left daughter with the edges walked before it,
    then as a right daughter."""
    for edge in edges:
        earlier = edges[:edge.edge_id]
        if edge.kind != "empty":
            yield from ((edge, right) for right in earlier
                        if right.start == edge.end)
        yield from ((left, edge) for left in earlier
                    if left.kind != "empty" and left.end == edge.start)


def _vectors(grammar, left, right):
    """The summary vectors of two edges, read by their vector ids."""
    return grammar.vectors[left.vector], grammar.vectors[right.vector]


def _check_applications(turns, grammar, config, monkeypatch):
    """For every turn, apply runs on each adjacent pair exactly for the
    schemata whose quick check admits it, in schema order, pair after
    pair in combination order, and no pair is combined twice."""
    log = []
    apply = RuleSchema.apply

    def logging_apply(schema, left, right):
        log.append((schema, left, right))
        return apply(schema, left, right)

    monkeypatch.setattr(RuleSchema, "apply", logging_apply)
    for turn in turns:
        log.clear()
        edges = parse(turn, grammar, config).edges
        pairs = list(_combination_order(edges))
        assert len({(l.edge_id, r.edge_id) for l, r in pairs}) == len(pairs)
        expected = [(schema, left, right) for left, right in pairs
                    for schema in grammar.schemata
                    if schema.admits(*_vectors(grammar, left, right))]
        assert len(log) == len(expected), turn.turn_id
        for (schema, lcat, rcat), (want, left, right) in zip(log, expected):
            assert schema is want and lcat is left.category, turn.turn_id
            # a right daughter that may share a leaf's nodes is a copy
            if left.shares & right.shares:
                assert fs.canonical(rcat) == fs.canonical(right.category)
            else:
                assert rcat is right.category, turn.turn_id
        for edge in edges:
            keys = [(id(schema), l, r) for schema, l, r in edge.derivations]
            assert len(set(keys)) == len(keys), turn.turn_id


@pytest.mark.parametrize("config", [ParseConfig(mode="off"),
                                    ParseConfig(threshold=0.01)],
                         ids=["off", "gated"])
def test_each_adjacent_pair_combined_once(grammar, demo_corpus, monkeypatch,
                                          config):
    """Each adjacent pair is combined once, by exactly the schemata whose
    quick check admits it, in schema order."""
    _check_applications(demo_corpus, grammar, config, monkeypatch)


@pytest.mark.parametrize("config", [ParseConfig(mode="off"),
                                    ParseConfig(threshold=0.01),
                                    ParseConfig(mode="rank")],
                         ids=["off", "gated", "rank"])
def test_admitted_schemata_across_corpora(demo_corpus, monkeypatch, config):
    """One fresh grammar parses the demo corpus, then synth seeds 42 and
    7: schemata decided for a vector pair in an earlier turn or corpus
    are still exactly those whose quick check admits the pair."""
    grammar = load_grammar(demo_grammar_text())
    for turns in (demo_corpus, synth_corpus(seed=42), synth_corpus(seed=7)):
        _check_applications(turns, grammar, config, monkeypatch)
    assert grammar.admitted


def _chart_snapshot(turns, grammar):
    return [[(e.edge_id, (e.start, e.end), e.kind, fs.canonical(e.category),
              [(s.name, l, r) for s, l, r in e.derivations])
             for e in parse(turn, grammar, config).edges]
            for config in (ParseConfig(mode="off"), ParseConfig(threshold=0.01),
                           ParseConfig(mode="rank"))
            for turn in turns]


def test_warmed_grammar_gives_fresh_charts(demo_corpus):
    """A grammar that has parsed another corpus builds the same demo
    charts as a fresh one, although it numbers the demo's vectors in
    another order, and its tables are no part of its value."""
    warmed = load_grammar(demo_grammar_text())
    for turn in synth_corpus(seed=7):
        parse(turn, warmed, ParseConfig(mode="off"))
    fresh = load_grammar(demo_grammar_text())
    assert len(warmed.admitted) > len(fresh.admitted) == 0
    assert len(warmed.vectors) > len(fresh.vectors)
    assert repr(warmed) == repr(fresh)
    assert dataclasses.replace(warmed, admitted={}, vector_ids={},
                               vectors=[]) == warmed
    assert _chart_snapshot(demo_corpus, warmed) == \
        _chart_snapshot(demo_corpus, fresh)
    assert any(warmed.vector_ids[vector] != vid
               for vector, vid in fresh.vector_ids.items())


def test_quick_check_runs_once_per_vector_pair(demo_corpus, monkeypatch):
    """With the gate off, a fresh demo grammar evaluates the quick check
    2,296 times over the demo corpus (8 schemata for each of the 287
    vector pairs first seen), not once per (edge pair, schema) offer,
    5,616 of them."""
    calls = []
    admits = RuleSchema.admits

    def counting_admits(schema, left, right):
        calls.append(schema)
        return admits(schema, left, right)

    monkeypatch.setattr(RuleSchema, "admits", counting_admits)
    grammar = load_grammar(demo_grammar_text())
    for turn in demo_corpus:
        parse(turn, grammar, ParseConfig(mode="off"))
    assert len(calls) == 8 * len(grammar.admitted) == 2296


@pytest.mark.parametrize("config", [ParseConfig(mode="off"),
                                    ParseConfig(threshold=0.01)],
                         ids=["off", "gated"])
def test_quick_check_rejects_only_failing_applications(grammar, demo_corpus,
                                                       config):
    rejected = 0
    for turn in demo_corpus:
        edges = parse(turn, grammar, config).edges
        for left in edges:
            if left.kind == "empty":
                continue
            for right in edges:
                if right.start != left.end:
                    continue
                for schema in grammar.schemata:
                    if not schema.admits(*_vectors(grammar, left, right)):
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


def _thetas(edges, scores):
    """Each edge's survival threshold θ, the largest τ at which a gated
    parse still builds it (the bottleneck semiring over the packed
    forest): +∞ for a lexical edge, its gap's score for an empty one,
    and for a derived edge the max over its derivations of the min of
    its daughters' θ. Memoized, since a packed derivation may name
    daughters created after its edge."""
    theta = {}

    def of(edge):
        if edge.edge_id not in theta:
            if edge.kind == "lexical":
                theta[edge.edge_id] = math.inf
            elif edge.kind == "empty":
                theta[edge.edge_id] = scores[edge.start - 1]
            else:
                theta[edge.edge_id] = max(min(of(edges[lid]), of(edges[rid]))
                                          for _, lid, rid in edge.derivations)
        return theta[edge.edge_id]

    return [of(edge) for edge in edges]


def _predicted_work(turn, ungated, grammar, tau):
    """(derived edges, schema applications) of the parse gated at tau,
    read from the ungated parse alone: the gated chart holds exactly the
    edges with θ >= tau, and closure offers each adjacent pair of them
    (left not empty) to the schemata the grammar admits for its vectors,
    a table the ungated parse has filled."""
    live = [edge for edge, theta in
            zip(ungated.edges, _thetas(ungated.edges, turn.gap_scores))
            if theta >= tau]
    applications = sum(
        len(grammar.admitted[left.vector, right.vector])
        for left in live if left.kind != "empty"
        for right in live if right.start == left.end)
    return sum(edge.kind == "derived" for edge in live), applications


def _gated_work(turn, grammar, config):
    """(derived edges, schema applications) of the parse under config."""
    applications = []
    apply = RuleSchema.apply

    def counting_apply(schema, left, right):
        applications.append(schema)
        return apply(schema, left, right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RuleSchema, "apply", counting_apply)
        gated = parse(turn, grammar, config)
    return gated.stats["derived_edges"], len(applications)


SYNTH_TURNS = [*synth_corpus(seed=42), *synth_corpus(seed=7)]


@settings(max_examples=200)
@given(st.sampled_from(range(len(SYNTH_TURNS))), st.data())
def test_one_ungated_parse_predicts_the_gated_work_load(grammar, index, data):
    """At any τ, the derived edges and schema applications of a gated
    parse are those that θ, read from one ungated parse, predicts. A
    turn is drawn by index, so a failure's report stays short."""
    turn = SYNTH_TURNS[index]
    tau = data.draw(st.one_of(st.floats(0.0, 1.0),
                              st.sampled_from(turn.gap_scores)), label="tau")
    ungated = parse(turn, grammar, ParseConfig(mode="off"))
    assert _predicted_work(turn, ungated, grammar, tau) == \
        _gated_work(turn, grammar, ParseConfig(threshold=tau))


def test_one_ungated_parse_predicts_the_rank_mode_work_load(grammar):
    """A rank gate is a threshold gate over scores of 1.0 at the gaps it
    picks and 0.0 elsewhere, so θ at τ 0.5 predicts its work-load too."""
    for turn in SYNTH_TURNS:
        sites = propose_trace_sites(turn, ParseConfig(mode="rank"))
        picked = dataclasses.replace(turn, gap_scores=[
            float(gap in sites) for gap in range(1, len(turn.words) + 1)])
        ungated = parse(picked, grammar, ParseConfig(mode="off"))
        assert _predicted_work(picked, ungated, grammar, 0.5) == \
            _gated_work(turn, grammar, ParseConfig(mode="rank")), turn.turn_id


def test_edge_cap(grammar, demo_corpus, monkeypatch):
    turn = _by_id(demo_corpus)["d02"]
    monkeypatch.setattr("prosogate.chart.MAX_EDGES", 12)
    with pytest.raises(EdgeCapExceeded) as exc_info:
        parse(turn, grammar, ParseConfig(mode="off"))
    stats = exc_info.value.stats
    assert stats["lexical_edges"] > 0
    assert stats["elapsed_ms"] >= 0


def test_edge_cap_counts_leaves(grammar, monkeypatch):
    turn = _turn(["im", "im"], [0.5, 0.5])
    monkeypatch.setattr("prosogate.chart.MAX_EDGES", 1)
    with pytest.raises(EdgeCapExceeded) as exc_info:
        parse(turn, grammar, ParseConfig(mode="off"))
    stats = exc_info.value.stats
    assert stats["lexical_edges"] == 2
    assert stats["derived_edges"] == 0
    assert stats["elapsed_ms"] >= 0


def test_packing_keys_only_collisions(grammar, monkeypatch):
    """fs.canonical keys a derived category only when an edge of the same
    span and summary vector is already in the chart."""
    er, sie, im = (grammar.lexicon[w][0].category for w in ("er", "sie", "im"))
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
        return chart.add(start, end, cat, ("s", len(chart.edges), 0), 0)

    first, is_new = add(0, 2, er)
    assert is_new and grammar.vectors[first.vector] == grammar.summaries(er)
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

    def test_reading_cap_reached_before_the_last_root(self, grammar,
                                                      monkeypatch):
        # ungated, "er schlief" has two root edges, the verb-final and
        # the V2 clause, with one reading each: a cap of 1 is reached on
        # the first, and the second contributes nothing
        turn = _turn(["er", "schlief"], [0.5, 0.5])
        full = parse(turn, grammar, ParseConfig(mode="off"))
        first = [r for r in full.readings
                 if _trees(full.roots[0], _label_tree(r), full.edges)]
        assert len(full.roots) == len(full.readings) == 2
        assert len(first) == 1
        monkeypatch.setattr("prosogate.chart.MAX_READINGS", 1)
        capped = parse(turn, grammar, ParseConfig(mode="off"))
        assert len(capped.roots) == 2
        assert capped.readings == first

    def test_capped_readings_nest(self, grammar, demo_corpus, monkeypatch):
        # every cap N up to a turn's reading count keeps N of its
        # readings, and a larger cap keeps those and more
        off = ParseConfig(mode="off")
        for turn in [*demo_corpus, *synth_corpus(seed=42)]:
            full = set(parse(turn, grammar, off).readings)
            kept = set()
            for cap in range(1, len(full) + 1):
                with monkeypatch.context() as patch:
                    patch.setattr("prosogate.chart.MAX_READINGS", cap)
                    capped = parse(turn, grammar, off).readings
                assert len(capped) == len(set(capped)) == cap
                assert kept < set(capped) <= full
                kept = set(capped)
        # d04's one root derivation has a daughter with two readings, so
        # a cap of 1 is reached inside that derivation's product
        monkeypatch.setattr("prosogate.chart.MAX_READINGS", 1)
        assert parse(_by_id(demo_corpus)["d04"], grammar, off).readings == [
            "(head-subject ich/ich (v2-selection glaube/glaube_f_v2 "
            "(head-complement (head-subject du/du (v2-selection "
            "sollst/sollst_f_v2 (head-complement (head-adjunct nicht/nicht "
            "töten/toeten) t/sollst_f_v2@6))) t/glaube_f_v2@6)))"]


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
