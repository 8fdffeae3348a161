import json
import re

import pytest
from hypothesis import example, given, strategies as st

from prosogate import demo_grammar_text, fs
from prosogate.chart import derivation_label, trace_gaps
from prosogate.cli import run
from prosogate.grammar import (GrammarError, LexEntry, apply_v2_lexical_rule,
                               load_grammar)
from prosogate.fs import avm, fs_list, is_elist, parse_avm
from references import subsumes, unify


def generic_trace_description():
    """The generic head-trace description: empty phonology, LOCAL value
    shared with the single DSL element."""
    loc = fs.top()
    return avm(PHON=fs_list(), LOC=loc, DSL=fs_list(loc))


def _entry(entry_id, orth, avm_obj):
    return LexEntry(entry_id=entry_id, orth=orth, category=parse_avm(avm_obj))


FINAL_TRANS = {
    "PHON": ["reparierte"],
    "LOC": {
        "HEAD": {"POS": "verb", "FIN": "+"},
        "SUBCAT": [{"LOC": {"HEAD": {"POS": "noun", "CASE": "nom"}}},
                   {"LOC": {"HEAD": {"POS": "noun", "CASE": "acc"}}}],
        "SEM": {"RELN": "fix"},
    },
    "DSL": [],
}


def test_lexical_rule_builds_v2_entry():
    v2 = apply_v2_lexical_rule(_entry("reparierte_f", "reparierte", FINAL_TRANS))
    assert v2 is not None
    assert v2.entry_id == "reparierte_f_v2"
    assert v2.orth == "reparierte"
    head = v2.category.get("LOC", "HEAD")
    assert head.get("V2").atom == "+"
    assert head.get("FIN").atom == "+"
    # selects exactly one complement: a verbal projection carrying the trace
    subcat = v2.category.get("LOC", "SUBCAT")
    assert len(subcat.attrs) == 1
    assert subcat.attrs[0].get("LOC", "HEAD", "POS").atom == "verb"


def test_trace_subcat_equals_final_subcat():
    entry = _entry("reparierte_f", "reparierte", FINAL_TRANS)
    v2 = apply_v2_lexical_rule(entry)
    trace_subcat = v2.trace_template.get("LOC", "SUBCAT")
    assert fs.canonical(trace_subcat) == fs.canonical(
        entry.category.get("LOC", "SUBCAT"))
    assert len(trace_subcat.attrs) == 2


def test_trace_loc_node_identical_to_selected_dsl():
    v2 = apply_v2_lexical_rule(_entry("reparierte_f", "reparierte", FINAL_TRANS))
    complement = v2.category.get("LOC", "SUBCAT").attrs[0]
    assert complement.get("DSL").attrs[0] is v2.trace_template.get("LOC")
    assert v2.trace_template.get("DSL").attrs[0] is v2.trace_template.get("LOC")


def test_trace_matches_generic_description():
    v2 = apply_v2_lexical_rule(_entry("reparierte_f", "reparierte", FINAL_TRANS))
    assert is_elist(v2.trace_template.get("PHON"))
    assert unify(v2.trace_template, generic_trace_description()) is not None
    assert subsumes(generic_trace_description(), v2.trace_template)


def test_rule_inapplicable_for_infinitive():
    inf = dict(FINAL_TRANS)
    inf["LOC"] = {"HEAD": {"POS": "verb", "FIN": "-", "VFORM": "inf"},
                  "SUBCAT": [], "SEM": {"RELN": "fix"}}
    assert apply_v2_lexical_rule(_entry("reparieren_i", "reparieren", inf)) is None


def test_rule_inapplicable_for_noun():
    noun = {"PHON": ["wagen"],
            "LOC": {"HEAD": {"POS": "noun"}, "SUBCAT": []}, "DSL": []}
    assert apply_v2_lexical_rule(_entry("wagen", "wagen", noun)) is None


def test_rule_skips_entries_already_in_second_position():
    v2 = apply_v2_lexical_rule(_entry("reparierte_f", "reparierte", FINAL_TRANS))
    assert apply_v2_lexical_rule(v2) is None


def test_modal_trace_keeps_modal_subcat():
    modal = {
        "PHON": ["sollst"],
        "LOC": {"HEAD": {"POS": "verb", "FIN": "+"},
                "SUBCAT": [{"LOC": {"HEAD": {"POS": "noun", "CASE": "nom"}}},
                           {"LOC": {"HEAD": {"POS": "verb", "VFORM": "inf"}}}],
                "SEM": {"RELN": "shall"}},
        "DSL": [],
    }
    v2 = apply_v2_lexical_rule(_entry("sollst_f", "sollst", modal))
    args = v2.trace_template.get("LOC", "SUBCAT").attrs
    assert args[1].get("LOC", "HEAD", "VFORM").atom == "inf"


def _doc(**overrides):
    doc = {
        "features": ["PHON", "LOC", "DSL", "HEAD", "SUBCAT", "SEM",
                     "POS", "CASE", "FIN", "RELN"],
        "lexicon": [{"id": "reparierte_f", "orth": "reparierte",
                     "avm": FINAL_TRANS}],
        "schemata": [],
    }
    doc.update(overrides)
    return doc


def test_finite_verb_yields_two_entries():
    grammar = load_grammar(json.dumps(_doc()))
    assert {e.entry_id for e in grammar.lexicon["reparierte"]} == {
        "reparierte_f", "reparierte_f_v2"}


@pytest.mark.parametrize("overrides, message", [
    ({"lexicon": [{"id": "x", "orth": "x", "avm": {"LOC": {"FOO": "bar"}}}]},
     "lexicon[0]: undeclared feature 'FOO'"),
    # an arc into a node already reached through a declared feature
    ({"lexicon": [{"id": "x", "orth": "x", "avm": {"LOC": "#1", "FOO": "#1"}}]},
     "lexicon[0]: undeclared feature 'FOO'"),
    ({"schemata": [{"name": "s", "daughters": [{"LOC": "#1"}, {"FOO": "bar"}],
                    "mother": {"LOC": "#1"}}]},
     "schemata[0].RIGHT: undeclared feature 'FOO'"),
    # a list's positions are not features, but its elements' arcs are
    ({"lexicon": [{"id": "x", "orth": "x",
                   "avm": {"LOC": {"SUBCAT": [{"FOO": "bar"}]}}}]},
     "lexicon[0]: undeclared feature 'FOO'"),
], ids=["lexicon", "lexicon-shared-node", "schema-daughter", "list-element"])
def test_undeclared_feature_names_offender(overrides, message):
    with pytest.raises(GrammarError) as exc:
        load_grammar(json.dumps(_doc(**overrides)))
    assert str(exc.value) == message


def test_duplicate_entry_id_rejected():
    bad = _doc()
    bad["lexicon"] = bad["lexicon"] * 2
    with pytest.raises(GrammarError, match="reparierte_f"):
        load_grammar(json.dumps(bad))


@pytest.mark.parametrize("overrides, message", [
    # the word label t/x@1 would read as a trace at gap 1
    ({"lexicon": [{"id": "x@1", "orth": "t", "avm": {}}]},
     "lexicon[0]: id 'x@1' contains '@'"),
    ({"lexicon": [{"id": "a b", "orth": "x", "avm": {}}]},
     "lexicon[0]: id 'a b' contains ' '"),
    ({"lexicon": [{"id": "x", "orth": "(x", "avm": {}}]},
     "lexicon[0]: orth '(x' contains '('"),
    ({"schemata": [{"name": "s)", "daughters": [{}, {}], "mother": {}}]},
     "schemata[0]: name 's)' contains ')'"),
    # the schema label (t/x@1 ...) would read as a trace at gap 1
    ({"schemata": [{"name": "t/x@1", "daughters": [{}, {}], "mother": {}}]},
     "schemata[0]: name 't/x@1' contains '@'"),
], ids=["id-at", "id-space", "orth-paren", "schema-paren", "schema-at"])
def test_label_delimiters_in_names_rejected(tmp_path, capsys, overrides,
                                            message):
    text = json.dumps(_doc(**overrides))
    with pytest.raises(GrammarError) as exc:
        load_grammar(text)
    assert str(exc.value) == message
    path = tmp_path / "g.json"
    path.write_text(text)
    for command in ("parse", "bench"):
        assert run([command, "--grammar", str(path)]) == 2
        assert message in capsys.readouterr().err


# a name is two runs of text a label can hold with, one time in four, a
# delimiter or "@" between them: most documents load, and names such as
# t/x@1 are trace-shaped
_SAFE = st.lists(st.sampled_from(["t/", "x", "1"]), min_size=1,
                 max_size=3).map("".join)
_NAME = st.builds("{}{}{}".format, _SAFE,
                  st.sampled_from([""] * 12 + list("@ ()")), _SAFE)


@given(entry_id=_NAME, orth=_NAME, name=_NAME, gap=st.integers(0, 99))
@example(entry_id="x", orth="t", name="t/x@1", gap=1)
@example(entry_id="x@1", orth="t", name="s", gap=1)
@example(entry_id="x", orth="t/x@1", name="s", gap=1)
def test_accepted_names_keep_labels_readable(entry_id, orth, name, gap):
    doc = _doc(lexicon=[{"id": entry_id, "orth": orth, "avm": FINAL_TRANS}],
               schemata=[{"name": name, "daughters": [{}, {}],
                          "mother": {}}])
    try:
        grammar = load_grammar(json.dumps(doc))
    except GrammarError as exc:  # only the name rule rejects this document
        assert " contains " in str(exc)
        return
    entry, v2 = grammar.lexicon[orth]
    words = [derivation_label("lexical", e, None) for e in (entry, v2)]
    trace = derivation_label("empty", v2, gap)
    for word in words:
        assert trace_gaps(word) == set()
        assert trace_gaps(derivation_label("derived", None, None, name,
                                           word, word)) == set()
        assert trace_gaps(derivation_label("derived", None, None, name,
                                           word, trace)) == {gap}
    assert trace_gaps(trace) == {gap}


def test_malformed_json_rejected():
    for text in ("{not json", '{"features": [' + "1" * 5000 + "]}"):
        with pytest.raises(GrammarError, match="JSON"):
            load_grammar(text)


def test_missing_section_rejected():
    with pytest.raises(GrammarError, match="schemata"):
        load_grammar(json.dumps({"features": [], "lexicon": []}))


def test_non_binary_schema_rejected():
    bad = _doc(schemata=[{"name": "x", "daughters": [{}], "mother": {}}])
    with pytest.raises(GrammarError, match="binary"):
        load_grammar(json.dumps(bad))


def test_cyclic_lexicon_entry_rejected(tmp_path):
    bad = _doc(lexicon=[{"id": "x", "orth": "x",
                         "avm": {"#1": {"LOC": {"HEAD": "#1"}}}}])
    with pytest.raises(GrammarError, match=r"lexicon\[0\]"):
        load_grammar(json.dumps(bad))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(bad))
    assert run(["parse", "--grammar", str(path)]) == 2


@pytest.mark.parametrize("section, depth, message", [
    ("lexicon", 500, r"lexicon\[0\]: nested too deeply"),
    ("lexicon", 5000, "grammar is nested too deeply to decode"),
    ("schemata", 500, r"schemata\[0\]: nested too deeply"),
], ids=["lexicon-500", "lexicon-5000", "schema-500"])
def test_deeply_nested_avm_rejected(tmp_path, capsys, section, depth,
                                    message):
    item = ({"id": "x", "orth": "x", "avm": {"PHON": "DEEP"}}
            if section == "lexicon"
            else {"name": "s", "daughters": [{}, {"PHON": "DEEP"}],
                  "mother": {}})
    text = json.dumps(_doc(**{section: [item]})).replace(
        '"DEEP"', "[" * depth + '"x"' + "]" * depth)
    with pytest.raises(GrammarError, match=message):
        load_grammar(text)
    path = tmp_path / "g.json"
    path.write_text(text)
    assert run(["parse", "--grammar", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)


def test_demo_grammar_quick_check_paths(grammar):
    base = (("LOC", "HEAD", "POS"), ("LOC", "SUBCAT"), ("DSL",),
            ("LOC", "HEAD", "V2"), ("LOC", "HEAD", "FIN"))
    below = ((), *base)
    # nodes shared by a schema's daughters: the left root with a SUBCAT
    # element of the right one (or the other way round), compared below
    # it at every first path, and MOD with RELN, compared at the node
    s0, s1 = ("LOC", "SUBCAT", 0), ("LOC", "SUBCAT", 1)
    mod, reln = ("LOC", "HEAD", "MOD"), ("LOC", "SEM", "RELN")
    assert grammar.quick_paths == (
        *base, (), *(s0 + q for q in below), *(s1 + q for q in below),
        mod, reln)
    assert len(grammar.quick_paths) == 20
    pairs = {s.name: len(s.shared) for s in grammar.schemata}
    assert pairs["head-adjunct"] == pairs["filler-head"] == 1
    assert sum(len(s.shared) for s in grammar.schemata) == 38


# One entry and one schema per kind at path X: an atom spelled like the
# kind name "avm", a non-top AVM, a list, and top (no information).
KINDS = {"atom": "avm", "avm": {"Y": "y"}, "list": ["y"], "top": {}}
KIND_GRAMMAR = {
    "features": ["X", "Y"],
    "lexicon": [{"id": kind, "orth": kind, "avm": {"X": value}}
                for kind, value in KINDS.items()],
    "schemata": [{"name": kind, "daughters": [{"X": value}, {}], "mother": {}}
                 for kind, value in KINDS.items()],
}


@pytest.mark.parametrize("schema_kind", KINDS)
@pytest.mark.parametrize("entry_kind", KINDS)
def test_quick_check_rejects_kind_clashes(schema_kind, entry_kind):
    g = load_grammar(json.dumps(KIND_GRAMMAR))
    assert g.quick_paths == (("X",), ("X", "Y"))
    schema = {s.name: s for s in g.schemata}[schema_kind]
    cat, top = g.entries_by_id[entry_kind].category, fs.top()
    admitted = schema.admits(g.summaries(cat), g.summaries(top))
    assert admitted == (schema_kind == entry_kind
                        or "top" in (schema_kind, entry_kind))
    assert (schema.apply(cat, top) is not None) == admitted


# Values for a node that LEFT shares with the one element of RIGHT's
# list X: two atoms, lists of two lengths, an AVM and top. Below that
# node (at its feature X) Y atoms may clash too.
SHARED = ["a", "b", ["a"], ["a", "a"], {"Y": "a"}, {}]
BELOW = [*SHARED, {"Y": "b"}]
SHARED_VALUES = SHARED + [{"X": value} for value in BELOW]
SHARED_GRAMMAR = {
    "features": ["X", "Y"],
    "lexicon": [{"id": f"{side}{i}", "orth": f"{side}{i}",
                 "avm": value if side == "l" else {"X": [value]}}
                for side in "lr" for i, value in enumerate(SHARED_VALUES)],
    # the kind schemata give the quick paths X and X.Y below the node,
    # which is LEFT's root
    "schemata": KIND_GRAMMAR["schemata"] + [
        {"name": "shared", "daughters": ["#1", {"X": ["#1"]}],
         "mother": {}}],
}


def test_quick_check_compares_nodes_shared_across_daughters():
    g = load_grammar(json.dumps(SHARED_GRAMMAR))
    schema = g.schemata[-1]
    x, x0 = ("X",), ("X", 0)
    assert [(g.quick_paths[i], g.quick_paths[j]) for i, j in schema.shared] \
        == [((), x0), (x, x0 + x), (("X", "Y"), x0 + ("X", "Y"))]
    rejected = 0
    for i in range(len(SHARED_VALUES)):
        left = g.entries_by_id[f"l{i}"]
        for j in range(len(SHARED_VALUES)):
            right = g.entries_by_id[f"r{j}"]
            admitted = schema.admits(left.summaries, right.summaries)
            rejected += not admitted
            assert admitted == (schema.apply(left.category, right.category)
                                is not None), (SHARED_VALUES[i],
                                               SHARED_VALUES[j])
    assert 0 < rejected < len(SHARED_VALUES) ** 2


def test_quick_check_compares_a_shared_inner_node_only_at_itself():
    # X of LEFT is no daughter's root, so no first path is defined below it
    doc = dict(KIND_GRAMMAR, schemata=KIND_GRAMMAR["schemata"] + [
        {"name": "inner", "daughters": [{"X": "#1"}, {"X": ["#1"]}],
         "mother": {}}])
    g = load_grammar(json.dumps(doc))
    assert [(g.quick_paths[i], g.quick_paths[j])
            for i, j in g.schemata[-1].shared] == [(("X",), ("X", 0))]


def test_shared_pattern_nodes_are_visited_once():
    # each of LEFT's 16 levels reaches the next through both X and Y:
    # 2**16 paths to the atom at the bottom, but 17 nodes, each visited
    # once, at its first path
    chain = "z"
    for level in range(16):
        chain = {"X": {f"#{level}": chain}, "Y": f"#{level}"}
    doc = {"features": ["X", "Y"], "lexicon": [],
           "schemata": [{"name": "chain", "daughters": [chain, {"X": "z"}],
                         "mother": {}}]}
    g = load_grammar(json.dumps(doc))
    assert g.quick_paths == (("X",) * 16, ("X",))
    assert len(g.schemata[0].pattern_nodes) == 21


def test_demo_grammar_loads_clean(grammar):
    assert len(grammar.schemata) >= 5
    # every V2 entry produced by the rule passes the generic description
    v2_entries = [e for e in grammar.entries_by_id.values() if e.is_v2]
    assert v2_entries
    for e in v2_entries:
        assert unify(e.trace_template, generic_trace_description()) is not None


def test_demo_grammar_deterministic_load():
    a = load_grammar(demo_grammar_text())
    b = load_grammar(demo_grammar_text())
    assert sorted(a.entries_by_id) == sorted(b.entries_by_id)
    for eid in a.entries_by_id:
        assert fs.canonical(a.entries_by_id[eid].category) == fs.canonical(
            b.entries_by_id[eid].category)
