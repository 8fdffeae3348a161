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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import fs
from .fs import FS, atom, avm, fs_list, copy_fs, parse_avm, check_features


class GrammarError(Exception):
    """Malformed grammar document (bad feature, bad schema, duplicate id)."""


@dataclass
class LexEntry:
    entry_id: str
    orth: str
    category: FS
    trace_template: FS | None = None

    @property
    def is_v2(self):
        return self.trace_template is not None


@dataclass
class RuleSchema:
    name: str
    # One structure holding LEFT / RIGHT / MOTHER with shared tags.
    pattern: FS

    def mother(self, left, right):
        """Unify a copy of the pattern with two workspace daughters.

        ``left`` and ``right`` are merged in place, so they must be
        private copies. Returns the unresolved MOTHER; raises
        fs.UnificationFailure on a clash.
        """
        inst = copy_fs(self.pattern)
        fs.unify_mut(inst.attrs["LEFT"], left)
        fs.unify_mut(fs._deref(inst).attrs["RIGHT"], right)
        return fs._deref(inst).attrs["MOTHER"]

    def apply(self, left_cat, right_cat):
        """Instantiate the schema on two daughter categories.

        Returns the mother category (a fresh structure) or None. The
        daughters are not mutated.
        """
        try:
            return fs.resolve(self.mother(copy_fs(left_cat),
                                          copy_fs(right_cat)))
        except fs.UnificationFailure:
            return None


@dataclass
class Grammar:
    features: frozenset
    lexicon: dict = field(default_factory=dict)  # orth -> [LexEntry]
    entries_by_id: dict = field(default_factory=dict)
    schemata: list = field(default_factory=list)

    def entries(self, orth):
        return self.lexicon.get(orth, [])


# The generic head-trace description: empty phonology, LOCAL value
# shared with the single DSL element.
def generic_trace_description():
    loc = fs.top()
    return avm(PHON=fs_list(), LOC=loc, DSL=fs_list(loc))


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


def load_grammar(text):
    """Parse a grammar document (JSON text) into a Grammar.

    The V2 lexical rule is run eagerly over every finite verb-final
    entry, so second-position entries and their trace templates exist at
    load ("compile") time. Feature names are validated against the
    declared set; violations raise GrammarError with a location.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GrammarError(f"grammar is not valid JSON: {exc}") from exc
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
    grammar = Grammar(features=features)

    def register(entry, where):
        if entry.entry_id in grammar.entries_by_id:
            raise GrammarError(f"duplicate entry id {entry.entry_id!r} ({where})")
        grammar.entries_by_id[entry.entry_id] = entry
        grammar.lexicon.setdefault(entry.orth, []).append(entry)

    for i, item in enumerate(doc["lexicon"]):
        where = f"lexicon[{i}]"
        if not isinstance(item, dict):
            raise GrammarError(f"{where}: not a JSON object")
        try:
            cat = parse_avm(item["avm"])
            check_features(cat, features, where)
            entry = LexEntry(item["id"], item["orth"], cat)
        except (fs.AvmFormatError, KeyError) as exc:
            raise GrammarError(f"{where}: {exc}") from exc
        if not isinstance(entry.entry_id, str) or not isinstance(entry.orth, str):
            raise GrammarError(f"{where}: id and orth must be strings")
        register(entry, where)
        v2 = apply_v2_lexical_rule(entry)
        if v2 is not None:
            register(v2, where + " (lexical rule)")

    for i, item in enumerate(doc["schemata"]):
        where = f"schemata[{i}]"
        if not isinstance(item, dict):
            raise GrammarError(f"{where}: not a JSON object")
        try:
            daughters = item["daughters"]
            if not isinstance(daughters, list) or len(daughters) != 2:
                raise GrammarError(f"{where}: schemata are binary")
            tags = {}
            pattern = parse_avm(
                {"LEFT": daughters[0], "RIGHT": daughters[1], "MOTHER": item["mother"]},
                tags,
            )
            for part in ("LEFT", "RIGHT", "MOTHER"):
                check_features(pattern.attrs[part], features, f"{where}.{part}")
            schema = RuleSchema(name=item["name"], pattern=pattern)
        except fs.AvmFormatError as exc:
            raise GrammarError(f"{where}: {exc}") from exc
        except KeyError as exc:
            raise GrammarError(f"{where}: missing key {exc}") from exc
        grammar.schemata.append(schema)

    # Every trace template must instantiate the generic description.
    for entry in grammar.entries_by_id.values():
        if entry.trace_template is not None:
            if fs.unify(entry.trace_template, generic_trace_description()) is None:
                raise GrammarError(
                    f"trace template of {entry.entry_id!r} does not match "
                    f"the generic head-trace description"
                )
    return grammar


def load_grammar_file(path):
    with open(path, encoding="utf-8") as f:
        return load_grammar(f.read())
