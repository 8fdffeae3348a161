"""German V2 fragment grammar: lexicon, binary rule schemata, lexical rule.

Category geometry (a reconstruction; the formalism fixes only PHON, LOC
and DSL at the outside):

    category  = [PHON <...>  LOC local  DSL <>|<local>]
    local     = [HEAD head  SUBCAT <synsem...>  SEM sem]
    synsem    = [LOC local  DSL ...]          # SUBCAT elements
    head      = [POS CASE FIN VFORM V2 CLS MOD]
    sem       = [RELN atom  ARGS [role: value ...]  INDEX atom]

DSL holds at most one LOCAL value and percolates like a head feature:
every schema copies the head daughter's DSL to the mother, except
v2-selection, which discharges it. The V2 lexical rule turns each finite
verb-final entry into a second-position entry that selects a verbal
projection whose DSL element is the trace's LOCAL value; the fully
specified empty head is precomputed here and stored on the entry.

Loading also compiles the quick check (Kiefer et al. 1999): every path
from a daughter root through AVM attributes to a schema's atom or list,
then for each topmost node a schema's daughters share, at left path lp
and right path rp (an int steps into a list), lp+q and rp+q for q empty
or, where the node is a daughter's root (lp or rp empty), a first path.
An edge's summary at such a path (see ``Grammar.summaries``) that
clashes with the daughter's, or with the other edge's at the paired
path, means unification must fail, so ``RuleSchema.admits`` rejects the
pair. It reads only the two summary vectors, so the parser decides
each vector pair once, for every schema, and keeps the schemata that
pass in the grammar's ``admitted`` table: a parse has few distinct
vectors (65 in an ungated pass over the seed-42 benchmark corpus, in
305 pairs), and the table fills as pairs are first seen.

``RuleSchema.apply`` unifies each daughter with the stored pattern in
place, daughter first, in a generation of its own (see ``fs``), and
reads out only the mother of a successful application. A daughter that
the schema selects whole (its pattern root is a node of the other
daughter's pattern, as a subject is a SUBCAT element of the head) is
unified last, so the other's SUBCAT element is merged into it rather
than it into that element, and its nodes stay the representatives;
loading finds these schemata with the shared nodes of the quick check.
The mother reuses every daughter node the unification left unchanged and
copies the rest, and every node of the pattern. Its result equals
unifying private copies of the pattern and of each daughter: the
daughters must share no node, so the lexicon keeps every structure
disjoint from every other (a V2 entry's trace template is stored as a
copy), and the chart copies a right daughter that may share a lexicon
structure with the left one, such as a second occurrence of one entry.

Sharing stays exact because of two facts. A mother shares nodes only
with its own sub-derivation (the daughters' categories, themselves
mothers or lexicon structures) and with lexicon structures, never with
a schema pattern. Lexicon structures are never written outside scratch
slots, so a node shared by many categories means the same in each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fs, loads_json
from .chart import label_breaker
from .fs import FS, atom, avm, fs_list, copy_fs, parse_avm


class GrammarError(ValueError):
    """Malformed grammar document (bad feature, bad schema, duplicate id)."""


# The summary of a non-top AVM: unequal to every atom value (a string,
# which may well be spelled "avm") and to every list length (an int).
AVM_SUMMARY = object()


@dataclass
class LexEntry:
    entry_id: str
    orth: str
    category: FS
    trace_template: FS | None = None
    summaries: tuple = None  # quick-check vectors, set at load
    trace_summaries: tuple = None

    @property
    def is_v2(self):
        return self.trace_template is not None


@dataclass
class RuleSchema:
    name: str
    # One structure holding LEFT / RIGHT / MOTHER with shared tags.
    pattern: FS
    # Quick-check tables, (path index, summary) pairs each daughter
    # requires; compiled by load_grammar.
    left_requires: tuple = ()
    right_requires: tuple = ()
    shared: tuple = ()  # (left, right) index pairs: one shared node
    # unify the right daughter first: the left one is selected whole (its
    # pattern root is a node of the right pattern)
    right_first: bool = False
    # the pattern's nodes, which no mother shares
    pattern_nodes: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.pattern_nodes = frozenset(n for _, n in _tree_paths(self.pattern))

    def admits(self, left_summaries, right_summaries):
        """Quick check of two daughter summary vectors: False when a
        defined summary clashes with the one its daughter requires or
        with the other's at a shared node (apply would return None)."""
        for i, value in self.left_requires:
            have = left_summaries[i]
            if have is not None and have != value:
                return False
        for i, value in self.right_requires:
            have = right_summaries[i]
            if have is not None and have != value:
                return False
        for i, j in self.shared:
            have, other = left_summaries[i], right_summaries[j]
            if have is not None and other is not None and have != other:
                return False
        return True

    def apply(self, left_cat, right_cat):
        """Instantiate the schema on two daughter categories, which must
        share no node.

        Returns the mother category or None. Each daughter category is
        unified with its pattern daughter, category first, so its nodes
        stay the representatives and, where the pattern adds nothing,
        unchanged: the mother shares the daughter nodes the unification
        left unchanged, and no node of the pattern. The left daughter is
        unified first unless the schema selects it whole
        (``right_first``): the daughter unified second meets the other
        daughter's nodes where its pattern root is shared, so unifying
        the selected one last keeps its nodes the representatives there
        too. The order changes which nodes the mother shares, not its
        value or whether the application fails. Neither the daughters
        nor the pattern change, and a failing application copies
        nothing.
        """
        arcs = self.pattern.attrs
        fs.new_generation()
        try:
            if self.right_first:
                fs.unify_mut(right_cat, arcs["RIGHT"])
                fs.unify_mut(left_cat, arcs["LEFT"])
            else:
                fs.unify_mut(left_cat, arcs["LEFT"])
                fs.unify_mut(right_cat, arcs["RIGHT"])
            return fs.resolve(arcs["MOTHER"], keep=self.pattern_nodes)
        except fs.UnificationFailure:
            return None


@dataclass
class Grammar:
    lexicon: dict = field(default_factory=dict)  # orth -> [LexEntry]
    entries_by_id: dict = field(default_factory=dict)
    schemata: list = field(default_factory=list)
    quick_paths: tuple = ()  # paths the quick check compares
    # the same paths as a trie: [position or None, {step: subtrie}]
    quick_trie: list = field(default_factory=lambda: [None, {}])
    # (left vector, right vector) -> the schemata that admit them, filled
    # by the parser as pairs are first seen; a cache, so not part of the
    # grammar's value
    admitted: dict = field(default_factory=dict, compare=False, repr=False)

    def summaries(self, cat):
        """A category's summary at each of quick_paths, in one walk."""
        out = [None] * len(self.quick_paths)
        _summarize_into(cat, self.quick_trie, out)
        return tuple(out)


def _summarize_into(node, trie, out):
    """Write the summary at each path of trie below node into out. A
    node's quick-check summary is its atom value, its list length,
    AVM_SUMMARY for a non-top AVM, or None (no information) for top."""
    i, steps = trie
    attrs = node.attrs
    if i is not None:
        if node.kind == fs.ATOM:
            out[i] = node.atom
        elif node.kind == fs.LIST:
            out[i] = len(attrs)
        else:
            out[i] = AVM_SUMMARY if attrs else None
    if attrs:
        for step, sub in steps.items():
            child = attrs.get(step)
            if child is not None:
                _summarize_into(child, sub, out)


def _is_finite_final_verb(cat):
    head = cat.get("LOC", "HEAD")
    if head is None:
        return False
    pos = head.get("POS")
    fin = head.get("FIN")
    v2 = head.get("V2")
    return (
        pos is not None and pos.atom == "verb"
        and fin is not None and fin.atom == "+"
        and (v2 is None or v2.atom == "-")
    )


def apply_v2_lexical_rule(entry):
    """Derive the second-position entry for a finite verb-final entry.

    Returns a new LexEntry whose category selects exactly one complement,
    a verbal projection carrying DSL = <L>, and whose trace_template is
    the precomputed empty head: PHON empty, LOC a copy of the input
    entry's LOCAL, DSL = <that same LOC>. Returns None when the rule is
    inapplicable (non-finite or non-verb input).
    """
    if not _is_finite_final_verb(entry.category):
        return None
    trace_loc = copy_fs(entry.category.attrs["LOC"])
    trace_template = avm(PHON=fs_list(), LOC=trace_loc, DSL=fs_list(trace_loc))
    complement = avm(
        LOC=avm(HEAD=avm(POS=atom("verb"))),
        DSL=fs_list(trace_loc),
    )
    sem = trace_loc.get("SEM") or fs.top()
    v2_cat = avm(
        PHON=fs_list(atom(entry.orth)),
        LOC=avm(
            HEAD=avm(
                POS=atom("verb"), FIN=atom("+"), V2=atom("+"), CLS=atom("+")
            ),
            SUBCAT=fs_list(complement),
            SEM=sem,
        ),
        DSL=fs_list(),
    )
    return LexEntry(
        entry_id=entry.entry_id + "_v2",
        orth=entry.orth,
        category=v2_cat,
        trace_template=trace_template,
    )


def _tree_paths(node, path=(), seen=None):
    """Each node below node once, as (first path, node), parents first."""
    seen = set() if seen is None else seen
    seen.add(id(node))
    yield path, node
    for step, child in (node.attrs or {}).items():
        if id(child) not in seen:
            yield from _tree_paths(child, path + (step,), seen)


def _check_name(text, what, where, ends_token=False):
    """GrammarError at where for a name that a reading label cannot
    hold (``chart.label_breaker``)."""
    bad = label_breaker(text, ends_token)
    if bad is not None:
        raise GrammarError(f"{where}: {what} {text!r} contains {bad!r}")


def _check_features(node, declared, where):
    """GrammarError at where for the first attribute below node that is
    not a declared feature (a list's positions are not features)."""
    for _, n in _tree_paths(node):
        for f in n.attrs if n.kind == fs.AVM else ():
            if f not in declared:
                raise GrammarError(f"{where}: undeclared feature {f!r}")


def _compile_quick_check(grammar):
    """Collect the schemata's quick-check paths into the grammar, and
    store daughter requirements and shared-node pairs on each schema,
    and whether its left daughter is selected whole (a topmost shared
    node is the left daughter's root), which apply then unifies last."""
    index = {}  # path -> position in the vector

    def position(path):
        if path not in index:
            trie = grammar.quick_trie
            for step in path:
                trie = trie[1].setdefault(step, [None, {}])
            trie[0] = index[path] = len(index)
        return index[path]

    for schema in grammar.schemata:
        for side in ("LEFT", "RIGHT"):
            for path, node in _tree_paths(schema.pattern.attrs[side]):
                if node.kind != fs.AVM and all(type(s) is str for s in path):
                    position(path)
    below = [(), *index]
    for schema in grammar.schemata:
        left, met = {}, []  # met: (left, right) paths of topmost shared nodes
        for path, node in _tree_paths(schema.pattern.attrs["LEFT"]):
            left[id(node)] = path
        for rp, node in _tree_paths(schema.pattern.attrs["RIGHT"]):
            if id(node) in left and not any(rp[:len(p)] == p for _, p in met):
                met.append((left[id(node)], rp))
        schema.right_first = any(lp == () for lp, _ in met)
        # only a daughter's root holds a category, where the first paths
        # can be defined
        schema.shared = tuple((position(lp + q), position(rp + q))
                              for lp, rp in met
                              for q in (below if () in (lp, rp) else [()]))
    grammar.quick_paths = tuple(index)

    def requires(daughter):
        vector = grammar.summaries(daughter)
        return tuple((i, v) for i, v in enumerate(vector) if v is not None)

    for schema in grammar.schemata:
        schema.left_requires = requires(schema.pattern.attrs["LEFT"])
        schema.right_requires = requires(schema.pattern.attrs["RIGHT"])


def load_grammar(text):
    """Parse a grammar document (JSON text) into a Grammar.

    The V2 lexical rule is run eagerly over every finite verb-final
    entry, so second-position entries and their trace templates exist at
    load ("compile") time, and so does the quick check of the schemata.
    Feature names are validated against the declared set, and ids,
    orths and schema names against ``chart.label_breaker``; violations,
    and values nested too deeply to build, raise GrammarError with a
    location.
    """
    try:  # ValueError: a JSONDecodeError or an int over the digit limit
        doc = loads_json(text)
    except ValueError as exc:
        raise GrammarError(f"grammar is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GrammarError("grammar is nested too deeply to decode") from exc
    if not isinstance(doc, dict):
        raise GrammarError("grammar document is not a JSON object")
    for key in ("features", "lexicon", "schemata"):
        if key not in doc:
            raise GrammarError(f"grammar document missing {key!r}")
        if not isinstance(doc[key], list):
            raise GrammarError(f"grammar {key!r} is not a list")
    if not all(isinstance(f, str) for f in doc["features"]):
        raise GrammarError("grammar 'features' are not all strings")
    features = frozenset(doc["features"])
    grammar = Grammar()

    def register(entry, where):
        if entry.entry_id in grammar.entries_by_id:
            raise GrammarError(f"duplicate entry id {entry.entry_id!r} ({where})")
        grammar.entries_by_id[entry.entry_id] = entry
        grammar.lexicon.setdefault(entry.orth, []).append(entry)

    def add_entry(item, where):
        cat = parse_avm(item["avm"])
        _check_features(cat, features, where)
        entry = LexEntry(item["id"], item["orth"], cat)
        if not isinstance(entry.entry_id, str) or not isinstance(entry.orth, str):
            raise GrammarError(f"{where}: id and orth must be strings")
        _check_name(entry.entry_id, "id", where, ends_token=True)
        _check_name(entry.orth, "orth", where)
        register(entry, where)
        v2 = apply_v2_lexical_rule(entry)
        if v2 is not None:
            # the template shares its LOC with the category; apply needs
            # the two disjoint, since they meet as daughters
            v2.trace_template = copy_fs(v2.trace_template)
            register(v2, where + " (lexical rule)")

    def add_schema(item, where):
        if not isinstance(item["name"], str):
            raise GrammarError(f"{where}: name must be a string")
        _check_name(item["name"], "name", where, ends_token=True)
        daughters = item["daughters"]
        if not isinstance(daughters, list) or len(daughters) != 2:
            raise GrammarError(f"{where}: schemata are binary")
        pattern = parse_avm({"LEFT": daughters[0], "RIGHT": daughters[1],
                             "MOTHER": item["mother"]})
        for part in ("LEFT", "RIGHT", "MOTHER"):
            _check_features(pattern.attrs[part], features, f"{where}.{part}")
        grammar.schemata.append(RuleSchema(name=item["name"], pattern=pattern))

    for key, add in (("lexicon", add_entry), ("schemata", add_schema)):
        for i, item in enumerate(doc[key]):
            where = f"{key}[{i}]"
            if not isinstance(item, dict):
                raise GrammarError(f"{where}: not a JSON object")
            try:
                add(item, where)
            except fs.AvmFormatError as exc:
                raise GrammarError(f"{where}: {exc}") from exc
            except KeyError as exc:
                raise GrammarError(f"{where}: missing key {exc}") from exc
            except RecursionError as exc:
                raise GrammarError(f"{where}: nested too deeply") from exc
    _compile_quick_check(grammar)
    for entry in grammar.entries_by_id.values():
        entry.summaries = grammar.summaries(entry.category)
        if entry.is_v2:
            entry.trace_summaries = grammar.summaries(entry.trace_template)
    return grammar
