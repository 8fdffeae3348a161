"""In-place (quasi-destructive) unification against a copy-then-unify
reference.

``RuleSchema.apply`` and ``references.unify`` unify their inputs in place,
writing only generation-stamped scratch slots. The reference below
does what the parser did before: it copies the inputs into private
nodes, merges the copies destructively, and reads the result back.
Both must agree, by ``canonical`` form and by failure, and no input may
change.
"""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from prosogate import fs
from prosogate.chart import ParseConfig, parse
from prosogate.corpus import TurnRecord
from prosogate.grammar import LexEntry, apply_v2_lexical_rule, load_grammar
from prosogate.synth import synth_corpus
from references import unify


class _Node:
    """A private, mutable copy of one FS node."""

    __slots__ = ("kind", "atom", "attrs", "items", "forward")


def _copy(node, memo):
    if id(node) in memo:
        return memo[id(node)]
    new = memo[id(node)] = _Node()
    new.kind, new.atom, new.forward = node.kind, node.atom, None
    new.attrs = ({k: _copy(v, memo) for k, v in node.attrs.items()}
                 if node.kind == fs.AVM else None)
    new.items = ([_copy(v, memo) for v in node.attrs.values()]
                 if node.kind == fs.LIST else None)
    return new


def _deref(n):
    while n.forward is not None:
        n = n.forward
    return n


def _unify(x, y):
    """Destructive unification of private copies."""
    x, y = _deref(x), _deref(y)
    if x is y:
        return x
    if x.kind == fs.AVM and not x.attrs:
        x.forward = y
        return y
    if y.kind == fs.AVM and not y.attrs:
        y.forward = x
        return x
    if x.kind != y.kind:
        raise fs.UnificationFailure
    if x.kind == fs.ATOM:
        if x.atom != y.atom:
            raise fs.UnificationFailure
        y.forward = x
        return x
    if x.kind == fs.LIST:
        if len(x.items) != len(y.items):
            raise fs.UnificationFailure
        y.forward = x
        for a, b in zip(x.items, y.items):
            _unify(a, b)
        return x
    y.forward = x
    for feat, val in y.attrs.items():
        if feat in x.attrs:
            _unify(x.attrs[feat], val)
        else:
            x.attrs[feat] = val
    return x


def _read_back(node, memo):
    """The forward-free FS of a merged copy; a cycle is a failure."""
    node = _deref(node)
    if id(node) in memo:
        if memo[id(node)] is None:
            raise fs.UnificationFailure
        return memo[id(node)]
    memo[id(node)] = None
    new = fs.FS(node.kind, atom=node.atom)
    if node.kind == fs.AVM:
        new.attrs = {k: _read_back(v, memo) for k, v in node.attrs.items()}
    elif node.kind == fs.LIST:
        new.attrs = dict(enumerate(_read_back(v, memo) for v in node.items))
    memo[id(node)] = new
    return new


def reference_apply(schema, left, right):
    """Copy the pattern and each daughter separately, then unify."""
    inst = _copy(schema.pattern, {})
    try:
        _unify(inst.attrs["LEFT"], _copy(left, {}))
        _unify(inst.attrs["RIGHT"], _copy(right, {}))
        return _read_back(inst.attrs["MOTHER"], {})
    except fs.UnificationFailure:
        return None


def reference_unify(a, b):
    """Copy both inputs with one memo (sharing across them is kept)."""
    memo = {}
    try:
        return _read_back(_unify(_copy(a, memo), _copy(b, memo)), {})
    except fs.UnificationFailure:
        return None


def _form(node):
    return None if node is None else fs.canonical(node)


def _snapshot(*roots):
    """Identity and contents of every node reachable from the roots."""
    seen, out = set(), []

    def walk(n):
        if id(n) in seen:
            return
        seen.add(id(n))
        out.append((id(n), n.kind, n.atom,
                    None if n.attrs is None
                    else tuple((k, id(v)) for k, v in n.attrs.items())))
        for child in (n.attrs or {}).values():
            walk(child)

    for root in roots:
        walk(root)
    return out, [fs.canonical(r) for r in roots]


def _nodes(root):
    seen, todo = {}, [root]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            todo.extend((n.attrs or {}).values())
    return seen


@pytest.fixture(scope="module")
def structures(grammar, demo_corpus):
    """Every demo lexicon category and trace template, and a copy of
    one category per distinct derived category of the demo parses
    (chart categories share lexicon nodes; apply's daughters must not)."""
    cats = []
    for entry in grammar.entries_by_id.values():
        cats.append(entry.category)
        if entry.is_v2:
            cats.append(entry.trace_template)
    derived = {}
    for turn in demo_corpus:
        for edge in parse(turn, grammar, ParseConfig(mode="off"))._chart.edges:
            if edge.kind == "derived":
                derived.setdefault(fs.canonical(edge.category),
                                   fs.copy_fs(edge.category))
    return cats + list(derived.values())


def _raw_v2_pairs(grammar):
    """(category, trace template) of the lexical rule's own output,
    which share the template's LOC node."""
    pairs = []
    for entry in grammar.entries_by_id.values():
        if not entry.is_v2:
            v2 = apply_v2_lexical_rule(
                LexEntry(entry.entry_id, entry.orth, entry.category))
            if v2 is not None:
                pairs.append((v2.category, v2.trace_template))
    return pairs


def test_apply_matches_copy_then_unify(grammar, structures):
    triples = [(s, left, right) for s in grammar.schemata
               for left in structures for right in structures]
    raw = _raw_v2_pairs(grammar)
    assert raw and all(set(_nodes(cat)) & set(_nodes(template))
                       for cat, template in raw)
    for cat, template in raw:
        triples += [(s, left, right) for s in grammar.schemata
                    for left, right in ((cat, template), (template, cat),
                                        (cat, cat), (template, template))]
    mismatches, successes = [], 0
    for s, left, right in triples:
        got = s.apply(left, right)
        successes += got is not None
        if _form(got) != _form(reference_apply(s, left, right)):
            mismatches.append((s.name, fs.canonical(left),
                               fs.canonical(right)))
    assert mismatches == []
    assert 0 < successes < len(triples)


def test_apply_leaves_inputs_unchanged(grammar, structures):
    before = _snapshot(*structures, *(s.pattern for s in grammar.schemata))
    outcomes = set()
    for s in grammar.schemata:
        for left in structures:
            for right in structures:
                outcomes.add(s.apply(left, right) is None)
    assert outcomes == {True, False}
    after = _snapshot(*structures, *(s.pattern for s in grammar.schemata))
    assert after == before


def test_identical_daughters_stay_disjoint():
    # A word that occurs twice puts one category object on two edges;
    # the chart's leaf masks must still unify each daughter as a copy of
    # its own.
    g = load_grammar(json.dumps({
        "features": ["PHON", "LOC", "SEM"],
        "lexicon": [{"id": "ja", "orth": "ja",
                     "avm": {"PHON": ["ja"], "LOC": {"SEM": "yes"}}}],
        "schemata": [{"name": "pair",
                      "daughters": [{"LOC": "#l"}, {"LOC": "#r"}],
                      "mother": {"PHON": ["#l", "#r"]}}]}))
    turn = TurnRecord(turn_id="t", words=["ja", "ja"], gap_scores=[0.0, 0.0])
    edges = parse(turn, g, ParseConfig(mode="off"))._chart.edges
    (mother,) = [e for e in edges if e.kind == "derived"]
    left, right = edges[0], edges[1]
    assert left.category is right.category
    got = mother.category
    first, second = got.get("PHON").attrs.values()
    assert first is not second
    want = reference_apply(g.schemata[0], left.category, right.category)
    assert fs.canonical(got) == fs.canonical(want)


def test_unify_leaves_inputs_unchanged():
    a = fs.parse_avm({"A": {"#1": {"F": "x"}}, "B": "#1", "L": ["#1", "y"]})
    good = fs.parse_avm({"B": {"G": "z"}, "C": "w"})
    bad = fs.parse_avm({"B": {"F": "q"}})
    shared = fs.avm(B=a.get("A"), D=fs.top())
    before = _snapshot(a, good, bad, shared)
    assert unify(a, good) is not None
    assert unify(a, bad) is None
    assert unify(a, shared) is not None
    assert unify(shared, bad) is None
    assert _snapshot(a, good, bad, shared) == before


CHILDLESS = {"atom": lambda: fs.atom("x"), "top": fs.top,
             "empty list": fs.fs_list}


def _forward(node):
    """Forward a childless node, in this generation, to a new node it
    unifies with; returns that node."""
    other = fs.atom("x") if node.kind == fs.AVM else fs.copy_fs(node)
    fs.unify_mut(other, node)
    assert node.forward is other
    return other


@pytest.mark.parametrize("make", CHILDLESS.values(), ids=CHILDLESS)
def test_resolve_shares_unforwarded_childless_children(make):
    # resolve with keep takes an unforwarded childless child outside
    # keep as itself: never unified, forwarded in an earlier generation,
    # or the representative of a unification in this one
    stale = make()
    fs.new_generation()
    _forward(stale)
    fs.new_generation()
    rep = fs.unify_mut(make(), make())
    assert rep.forward is None
    daughter = fs.avm(N=make(), S=stale, R=rep)
    assert fs.resolve(daughter, keep=frozenset()) is daughter


@pytest.mark.parametrize("make", CHILDLESS.values(), ids=CHILDLESS)
def test_resolve_copies_kept_or_forwarded_childless_children(make):
    kept, forwarded = make(), make()
    daughter = fs.avm(K=kept, F=forwarded, A=fs.atom("y"))
    fs.new_generation()
    target = _forward(forwarded)
    got = fs.resolve(daughter, keep=frozenset([kept, target]))
    assert got is not daughter and got.attrs["A"] is daughter.attrs["A"]
    for feat, want in (("K", kept), ("F", target)):
        assert got.attrs[feat] not in (kept, forwarded, target)
        assert fs.canonical(got.attrs[feat]) == fs.canonical(want)


@pytest.fixture(scope="module")
def charts(grammar, demo_corpus):
    """The chart of every demo and ``synth --seed 42`` turn, in each gate
    mode."""
    turns = [*demo_corpus, *synth_corpus(seed=42)]
    return [parse(turn, grammar, ParseConfig(mode=mode))._chart
            for mode in ("off", "threshold", "rank") for turn in turns]


def _derived(charts):
    """(edge, schema, left edge, right edge) of each derived edge's
    first derivation, whose daughters gave it its category."""
    for chart in charts:
        for edge in chart.edges:
            if edge.kind == "derived":
                schema, left, right = edge.derivations[0]
                yield edge, schema, chart.edges[left], chart.edges[right]


def test_chart_categories_match_copy_then_unify(charts):
    # daughters that share a lexicon structure's nodes must still be
    # unified as private copies, or the mother is over-constrained
    mismatches, n = [], 0
    for edge, schema, left, right in _derived(charts):
        n += 1
        want = reference_apply(schema, left.category, right.category)
        if fs.canonical(edge.category) != _form(want):
            mismatches.append(((edge.start, edge.end), schema.name))
    assert n > 0 and mismatches == []


def test_mothers_share_no_pattern_node(grammar, charts):
    pattern = set()
    for schema in grammar.schemata:
        pattern |= set(_nodes(schema.pattern))
    for edge, _, _, _ in _derived(charts):
        assert not pattern & set(_nodes(edge.category)), (
            edge.start, edge.end)


def test_mothers_share_unchanged_daughter_nodes(charts):
    assert any(set(_nodes(edge.category))
               & (set(_nodes(left.category)) | set(_nodes(right.category)))
               for edge, _, left, right in _derived(charts))


def test_lexicon_structures_share_no_node(grammar):
    structures = {}
    for entry in grammar.entries_by_id.values():
        for root in (entry.category, entry.trace_template):
            if root is not None:
                structures[id(root)] = root
    for schema in grammar.schemata:
        structures[id(schema.pattern)] = schema.pattern
    owner = {}
    for key, root in structures.items():
        for node_id in _nodes(root):
            assert owner.setdefault(node_id, key) == key


def test_stored_template_is_the_lexical_rule_output(grammar):
    for entry in grammar.entries_by_id.values():
        if entry.is_v2:
            base = grammar.entries_by_id[entry.entry_id[:-len("_v2")]]
            raw = apply_v2_lexical_rule(
                LexEntry(base.entry_id, base.orth, base.category))
            assert fs.canonical(entry.trace_template) == fs.canonical(
                raw.trace_template)
            loc = entry.trace_template.get("LOC")
            assert entry.trace_template.get("DSL").attrs[0] is loc


def tagged_avms(atoms, features):
    """Random AVMs with tags: "#n" strings reference a tag, {"#n": value}
    defines one, so nodes are shared inside a structure."""
    tags = ["#1", "#2", "#3"]
    return st.recursive(
        st.sampled_from(atoms + tags),
        lambda kids: st.one_of(
            st.lists(kids, max_size=3),
            st.dictionaries(st.sampled_from(features), kids, min_size=1,
                            max_size=3),
            st.builds(lambda tag, v: {tag: v}, st.sampled_from(tags), kids)),
        max_leaves=10)


_avms = tagged_avms(["a", "b", "+"], ["F", "G", "H"])


def _parse(obj):
    try:
        return fs.parse_avm(obj)
    except fs.AvmFormatError:
        assume(False)


def _some_node(root, pick):
    nodes = list(_nodes(root).values())
    return nodes[pick % len(nodes)]


@settings(max_examples=300)
@given(_avms, _avms, st.integers(0, 50), st.booleans())
def test_unify_matches_copy_then_unify(xa, xb, pick, share):
    a, b = _parse(xa), _parse(xb)
    if share:
        # a node of a shared with b as well
        b = fs.avm(F=b, G=_some_node(a, pick))
    before = _snapshot(a, b)
    assert _form(unify(a, b)) == _form(reference_unify(a, b))
    assert _snapshot(a, b) == before


@settings(max_examples=200)
@given(_avms, _avms)
def test_unify_result_shares_no_input_node(xa, xb):
    a, b = _parse(xa), _parse(xb)
    got = unify(a, b)
    assume(got is not None)
    assert not set(_nodes(got)) & (set(_nodes(a)) | set(_nodes(b)))
