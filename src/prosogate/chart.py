"""Bottom-up chart parser with prosody-gated empty verbal heads.

A parse has four phases: lexical edges, empty edges, closure under the
schemata, then unpacking, which makes the root edges' reading labels one
at a time (``_unpack``) and keeps the first ``MAX_READINGS``; its edge
statistics are counted from the chart. The result keeps the packed
forest (the edge list and its root edges) and nothing else of the chart.
This module alone states the reading-label syntax: ``derivation_label``
writes it, ``trace_gaps`` reads traces back, and ``label_breaker`` is
the rule the grammar loader applies to every id, orth and schema name.

Positions are inter-word gaps: word i (1-based) spans (i-1, i); gap i is
the position after word i, so a zero-width empty edge hypothesized at
gap g has span (g, g). Three constraints govern empty edges:

a) an empty edge only appears at or to the right of the end of a
   lexical edge of the V2 entry that licenses it;
b) the trace must sit inside the projection its licensing verb selects —
   enforced structurally, since the v2-selection schema can only
   discharge a DSL value that unifies with the verb's own trace LOCAL;
c) every empty edge instantiates the precomputed trace template of an
   overt verb in the input, never an underspecified skeleton.

Empty edges may only serve as right daughters (right-periphery
restriction), which also guarantees termination: no derived edge is ever
zero-width, so empty edges cannot feed each other. But a mother over an
empty edge keeps its left daughter's span, so a grammar can make an edge
derive itself: a ParseError, checked only where such a mother packs.

The closure is one walk over the edge list in id order, and combining
appends new edges to the list being walked. Each edge is combined with
the edges walked before it, then indexed; an empty edge is never
indexed by its end (``by_end``), as a left daughter. So each adjacent
pair (non-empty left edge, any right edge) is combined exactly once. A
leaf (lexical or empty) edge, one lexicon entry at one span, is keyed
by its entry; only derived edges are packed by category, with distinct
derivations.

A pair is offered only to the schemata whose quick check (see
``grammar``) the edges' summary vectors pass: a clash means unification
would fail, so the check changes no result. The check reads the two
vectors alone, so it is decided once per vector pair, not once per
edge pair: ``parse`` reads and fills the grammar's ``admitted``
table in one place. A leaf takes its vector from its lexicon entry; a
derived edge's is computed when it is added, and keys its packing
bucket, so that ``fs.canonical`` keys only categories whose span and
vector collide.

A mother shares the nodes of its daughters that its schema left
unchanged (see ``grammar``), so a category may share nodes with the
lexicon structures below it, and two occurrences of one lexicon entry
are one structure. Adjacent daughters must share no node, and
``apply`` does not check, so each edge carries a bitmask of the leaf
structures, one bit per (kind, lexicon entry) in the turn, whose nodes
its category may share; a derived edge takes its first derivation's
daughters' bits. When an admitted pair's masks meet (as they do for two
occurrences of one word), the right category is copied once for that
pair; nothing else keeps daughters disjoint.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice

from . import fs


class ParseError(ValueError):
    """A turn that cannot be parsed; the message names the turn."""

    def __init__(self, turn, message):
        super().__init__(f"turn {turn.turn_id!r}: {message}")


class UnknownWordError(ParseError):
    """A word with no lexicon entry."""


class EdgeCapExceeded(ParseError):
    def __init__(self, turn, cap, stats):
        super().__init__(turn, f"edge cap {cap} exceeded")
        self.stats = stats


class InputFormatError(ParseError):
    """A turn without gap scores."""


MAX_READINGS = 2000  # readings unpacked per turn
MAX_EDGES = 20000  # chart edges per turn, leaves included
RANK_LIMIT = 2  # gaps a rank gate keeps


@dataclass
class ParseConfig:
    """Gating configuration for empty-edge introduction.

    mode "threshold" keeps the gaps scoring at least ``threshold``, mode
    "rank" the ``RANK_LIMIT`` best-scoring gaps (``threshold`` unused).
    mode "off" is stored as threshold mode with tau = 0 (every gap
    passes, since scores are non-negative), so the two are one config.
    """

    mode: str = "threshold"  # threshold | rank | off (-> threshold 0)
    threshold: float = 0.01

    def __post_init__(self):
        if self.mode not in ("threshold", "rank", "off"):
            raise ValueError(f"bad gate mode {self.mode!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.mode == "off":
            self.mode, self.threshold = "threshold", 0.0


@dataclass(slots=True)
class Edge:
    """One chart edge over (start, end).

    A derived edge's category is its first derivation's mother, which
    shares the nodes its daughters' categories left unchanged; ``shares``
    has a bit for every leaf structure (kind, lexicon entry) below that
    derivation, so two edges whose masks are disjoint share no node.
    """

    edge_id: int
    start: int
    end: int
    category: object  # FS
    kind: str  # lexical | empty | derived
    entry: object = None  # LexEntry for lexical/empty edges
    # (schema name, left edge id, right edge id) alternatives; a packed
    # forest node may collect several derivations of the same category.
    derivations: list = field(default_factory=list)
    summaries: tuple = None  # quick-check summary vector of category
    shares: int = 0  # leaf-structure bitmask, see above


def propose_trace_sites(turn, config):
    """Select the gap indices eligible for empty-edge introduction.

    Threshold mode returns gaps with score >= tau in ascending order;
    rank mode the ``RANK_LIMIT`` top scores (ties broken by lower gap
    index first) in descending-score order. The corpus loader checks
    that scores, where a turn has them, are one per word.
    """
    n = len(turn.words)
    scores = turn.gap_scores
    if scores is None:
        raise InputFormatError(
            turn, f"need one gap score per word (got 0 for {n} words)")
    if config.mode == "rank":
        return gaps_by_score(scores)[:RANK_LIMIT]
    return [g for g in range(1, n + 1) if scores[g - 1] >= config.threshold]


def gaps_by_score(scores):
    """Gap indices 1..n by descending score, ties to the lower gap."""
    return sorted(range(1, len(scores) + 1), key=lambda g: (-scores[g - 1], g))


def is_root_category(cat):
    """Saturated and trace-free: empty SUBCAT and empty (bound) DSL."""
    subcat = cat.get("LOC", "SUBCAT")
    dsl = cat.get("DSL")
    return (
        subcat is not None and fs.is_elist(subcat)
        and (dsl is None or fs.is_elist(dsl))
    )


class Chart:
    def __init__(self, grammar):
        self.grammar = grammar
        self.edges = []
        # (start, end, kind, entry id) -> leaf; (start, end, summary
        # vector) -> {canonical category, None while alone -> derived}
        self.seen = {}
        self.bits = {}  # (kind, entry id) -> its bit in Edge.shares

    def add(self, start, end, category, kind, entry=None, derivation=None,
            shares=0):
        """Add a leaf or add or pack a derived edge. Returns (edge, is_new).
        ``fs.canonical`` keys a category once its (span, vector) collides.
        A leaf's ``shares`` is its own bit; a new derived edge keeps the
        ``shares`` passed with its first derivation."""
        if kind == "derived":
            vector = self.grammar.summaries(category)
            table = self.seen.get((start, end, vector))
            if table is None:
                table = self.seen[start, end, vector] = {}
            if None in table:
                lone = table.pop(None)
                table[fs.canonical(lone.category)] = lone
            key = fs.canonical(category) if table else None
        else:
            vector = entry.trace_summaries if kind == "empty" else entry.summaries
            table, key = self.seen, (start, end, kind, entry.entry_id)
            shares = self.bits.setdefault(key[2:], 1 << len(self.bits))
        edge = table.get(key)
        is_new = edge is None
        if is_new:
            edge = table[key] = Edge(len(self.edges), start, end, category,
                                     kind, entry, [], vector, shares)
            self.edges.append(edge)
        if derivation is not None:
            edge.derivations.append(derivation)
        return edge, is_new


@dataclass
class ParseResult:
    """A parse's readings and the packed forest they come from: the
    chart's edges (``edges[i].edge_id == i``) and its root edges."""

    readings: list  # bracketed derivation strings, sorted
    proposed_sites: list
    stats: dict
    edges: list = field(repr=False, compare=False)
    roots: list = field(repr=False, compare=False)


def parse(turn, grammar, config):
    """Exhaustively parse one turn; see module docstring for the phases.

    Raises a ParseError naming the turn: UnknownWordError,
    InputFormatError, EdgeCapExceeded (with the partial chart's
    statistics), or a plain one for an edge that derives itself.
    An unparseable turn yields an empty reading list, not an error.
    """
    t0 = time.perf_counter()
    sites = propose_trace_sites(turn, config)
    chart = Chart(grammar)

    def statistics():
        kinds = Counter(e.kind for e in chart.edges)
        stats = {f"{kind}_edges": kinds[kind]
                 for kind in ("lexical", "empty", "derived")}
        return {**stats, "proposed_sites": len(sites),
                "elapsed_ms": (time.perf_counter() - t0) * 1000.0}

    def check_cap():
        if len(chart.edges) > MAX_EDGES:
            raise EdgeCapExceeded(turn, MAX_EDGES, statistics())

    # (i) lexical edges
    for i, word in enumerate(turn.words):
        entries = grammar.lexicon.get(word)
        if not entries:
            raise UnknownWordError(turn, f"unknown word {word!r}")
        for entry in entries:
            chart.add(i, i + 1, entry.category, "lexical", entry)

    # (ii) empty edges at eligible gaps, one per (gap, V2 entry), placed
    # from the V2 lexical edges in chart order (a repeated V2 word packs)
    v2_edges = [e for e in chart.edges if e.entry.is_v2]
    for g in sorted(sites):
        for lexical in v2_edges:
            if g >= lexical.end:  # constraint a
                chart.add(g, g, lexical.entry.trace_template, "empty",
                          lexical.entry)
    check_cap()

    # (iii) close under the schemata; empty edges only as right daughters.
    admitted = grammar.admitted

    def combine(left, right):
        key = (left.summaries, right.summaries)
        schemata = admitted.get(key)
        if schemata is None:  # a vector pair not seen before
            schemata = admitted[key] = tuple(
                s for s in grammar.schemata if s.admits(*key))
        if not schemata:
            return
        right_cat = right.category
        overlap = left.shares & right.shares
        for schema in schemata:
            if overlap:  # the daughters may share a leaf's nodes
                right_cat, overlap = fs.copy_fs(right_cat), 0
            mother = schema.apply(left.category, right_cat)
            if mother is None:
                continue
            edge, is_new = chart.add(
                left.start, right.end, mother, "derived", None,
                (schema, left.edge_id, right.edge_id),
                left.shares | right.shares)
            if (right.kind == "empty" and not is_new
                    and _reaches(left, edge, chart.edges)):
                raise ParseError(turn, f"cyclic derivation: {schema.name} "
                                 f"derives edge {edge.edge_id} from itself")
            check_cap()

    by_start, by_end = {}, {}  # start -> [edge]; end -> [non-empty edge]
    for edge in chart.edges:  # combine appends to the list walked here
        if edge.kind != "empty":  # a left daughter, so indexed by its end
            for right in by_start.get(edge.end, []):
                combine(edge, right)
            by_end.setdefault(edge.end, []).append(edge)
        for left in by_end.get(edge.start, []):
            combine(left, edge)
        by_start.setdefault(edge.start, []).append(edge)

    # (iv) unpack the first MAX_READINGS readings of the root edges
    n = len(turn.words)
    roots = [e for e in chart.edges
             if e.start == 0 and e.end == n and is_root_category(e.category)]
    labels = chain.from_iterable(_unpack(root, chart.edges) for root in roots)
    readings = sorted(islice(labels, MAX_READINGS))
    return ParseResult(readings, sites, statistics(), chart.edges, roots)


def _reaches(edge, target, edges):
    """Whether ``target`` is ``edge`` or below it along derivations with
    an empty right daughter, the only ones whose mother keeps a span.
    A loop, not a recursion: such a chain may be thousands deep."""
    stack, seen = [edge], set()
    while stack:
        edge = stack.pop()
        if edge is target:
            return True
        if edge.edge_id not in seen:
            seen.add(edge.edge_id)
            stack.extend(edges[lid] for _, lid, rid in edge.derivations
                         if edges[rid].kind == "empty")
    return False


def derivation_label(kind, entry, start, schema=None, left=None, right=None):
    """Shared bracketed-string format for chart and oracle derivations."""
    if kind == "lexical":
        return f"{entry.orth}/{entry.entry_id}"
    if kind == "empty":
        return f"t/{entry.entry_id}@{start}"
    return f"({schema} {left} {right})"


_TRACE_LABEL = re.compile(r"(?<![^ (])t/[^ ()]+@(\d+)(?![^ )])")


def trace_gaps(label):
    """The gaps of the traces (``t/<entry>@<gap>``) in a derivation
    label, as a set."""
    return {int(gap) for gap in _TRACE_LABEL.findall(label)}


def label_breaker(name, ends_token):
    """The first character of ``name`` that a label cannot hold, or
    None: a space or parenthesis, which delimit label tokens, or, in a
    name that ends a token (an entry id, a schema name), "@", which
    would let the token read as a trace ``t/<entry>@<gap>``."""
    breakers = " ()@" if ends_token else " ()"
    return next((c for c in breakers if c in name), None)


def _unpack(edge, edges):
    """The edge's reading labels, made one at a time: by derivation,
    then by left daughter reading, then by right daughter reading."""
    if edge.kind != "derived":  # a leaf, which has no derivations
        yield derivation_label(edge.kind, edge.entry, edge.start)
    for schema, lid, rid in edge.derivations:
        for left in _unpack(edges[lid], edges):
            for right in _unpack(edges[rid], edges):
                yield derivation_label("derived", None, None, schema.name,
                                       left, right)
