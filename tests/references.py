"""Reference operations that only the tests run.

Each rebuilds from the package's own parts something the package itself
never needs: general unification and subsumption of feature structures,
the predicate-argument record of a reading, the classifier's output
layer as one out-of-place numpy expression, one syllable's feature
vector built from its context window's records one by one, and the
corpus loader's keyword-call syllable reader.
"""

import re

import numpy as np

from prosogate import fs
from prosogate.chart import derivation_label
from prosogate.corpus import CorpusError, Syllable, _finite, _scalar_features
from prosogate.prosody import (CONTEXT_RADIUS, PER_SYLLABLE_VALUES,
                               REGRESSION_LEN, SyllableRecord)


def unify(a, b):
    """Unify two feature structures; returns a fresh FS (every node a
    copy, none shared with an input) or None on failure.

    Neither input is changed. Reentrancy within and across the inputs is
    preserved (nodes literally shared between ``a`` and ``b`` remain
    shared in the result).
    """
    fs.new_generation()
    try:
        return fs.copy_fs(fs.resolve(fs.unify_mut(a, b), frozenset()))
    except fs.UnificationFailure:
        return None


def subsumes(a, b):
    """True iff ``a`` is at least as general as ``b``.

    Every piece of information in ``a`` (atoms, attributes, list shape,
    sharing) must be present in ``b``; sharing in ``a`` must map to
    identical nodes in ``b``.
    """
    mapping = {}

    def walk(x, y):
        if id(x) in mapping:
            return mapping[id(x)] is y
        mapping[id(x)] = y
        if x.kind == fs.AVM and not x.attrs:  # top
            return True
        if x.kind != y.kind:
            return False
        if x.kind == fs.ATOM:
            return x.atom == y.atom
        if x.kind == fs.LIST and len(x.attrs) != len(y.attrs):
            return False
        return all(f in y.attrs and walk(v, y.attrs[f])
                   for f, v in x.attrs.items())

    return walk(a, b)


def _label_tree(label):
    """A reading label as nested (schema name, left, right) tuples whose
    leaves are the labels of words and traces."""
    tokens = iter(re.findall(r"[()]|[^ ()]+", label))

    def node():
        token = next(tokens)
        if token != "(":
            return token
        schema, left, right = next(tokens), node(), node()
        if next(tokens) != ")":
            raise ValueError(f"unbalanced reading label {label!r}")
        return schema, left, right

    tree = node()
    if next(tokens, None) is not None:
        raise ValueError(f"trailing text in reading label {label!r}")
    return tree


def _trees(edge, label, edges):
    """Every derivation tree of ``edge`` whose label is ``label`` (a
    ``_label_tree``): (edge, schema, left, right), or (edge, None, None,
    None) for a word or a trace."""
    if edge.kind != "derived":
        if label == derivation_label(edge.kind, edge.entry, edge.start):
            return [(edge, None, None, None)]
        return []
    if isinstance(label, str):
        return []
    name, left, right = label
    return [(edge, schema, lt, rt)
            for schema, lid, rid in edge.derivations if schema.name == name
            for lt in _trees(edges[lid], left, edges)
            for rt in _trees(edges[rid], right, edges)]


def extract_pred_arg(result, reading_index):
    """Read the flat predicate-argument record off one reading.

    The reading's derivation is found in the chart from its label: the
    label must match exactly one derivation of one root edge. It is
    replayed in one unification generation so that every lexical SEM
    block ends up fully instantiated; records are (relation, ((role,
    value), ...)) tuples with deterministic order. Raises
    IndexError("no reading") on an empty forest or bad index.
    """
    if not 0 <= reading_index < len(result.readings):
        raise IndexError("no reading")
    label = result.readings[reading_index]
    tree, edges = _label_tree(label), result._chart.edges
    found = [t for root in result.forest for t in _trees(root, tree, edges)]
    if len(found) != 1:
        raise ValueError(f"{len(found)} derivations match reading {label!r}")
    sems = []
    fs.new_generation()

    def build(tree):
        edge, schema, left, right = tree
        if edge.kind != "derived":
            cat = fs.copy_fs(edge.category)
            sem = cat.get("LOC", "SEM")
            if sem is not None:
                sems.append(sem)
            return cat
        # a schema may occur twice in one derivation: unify a copy
        return schema.mother(build(left), build(right),
                             fs.copy_fs(schema.pattern))

    build(found[0])
    records = set()
    for sem in sems:
        sem = fs.resolve(sem, frozenset())
        reln = sem.get("RELN")
        if reln is None or reln.kind != fs.ATOM:
            continue
        args = sem.get("ARGS")
        roles = []
        if args is not None and args.kind == fs.AVM:
            for role in sorted(args.attrs):
                val = args.attrs[role]
                roles.append((role, val.atom if val.kind == fs.ATOM else "_"))
        records.add((reln.atom, tuple(roles)))
    return tuple(sorted(records))


def sigmoid_outputs(clf, x):
    """The classifier's two sigmoid outputs, 1 / (1 + e^-z), as one
    out-of-place expression over its hidden activations. Overwrites the
    activation buffers ``_forward`` writes."""
    hidden = clf._forward(x)[-1]
    return 1.0 / (1.0 + np.exp(-(hidden @ clf.params[-2] + clf.params[-1])))


def squared_error(clf, x, target):
    """The loss ``gradients`` differentiates: half the summed squared
    error of the two outputs against ``target``."""
    out = sigmoid_outputs(clf, x)
    return 0.5 * float(np.sum((out - target) ** 2))


def syllable_features(syllables, index):
    """The feature vector of the syllable at ``index``, assembled for it
    alone: each context position's block or a zero block, the validity
    flags, then its pauses and regression blocks."""
    if not 0 <= index < len(syllables):
        raise IndexError(f"syllable index {index} out of range")
    values = []
    flags = []
    for off in range(-CONTEXT_RADIUS, CONTEXT_RADIUS + 1):
        j = index + off
        if 0 <= j < len(syllables):
            values.extend(syllables[j].block())
            flags.append(1.0)
        else:
            values.extend([0.0] * PER_SYLLABLE_VALUES)
            flags.append(0.0)
    cur = syllables[index]
    return np.array(
        values + flags + [cur.pause_before, cur.pause_after]
        + list(cur.f0_regression) + list(cur.energy_regression),
        dtype=np.float64)


def syllable_record_from_dict(d):
    """A record from its fields by keyword: TypeError for an unknown
    field, the dataclass default for a missing one."""
    return SyllableRecord(**d)


def syllable_from_dict(i, s):
    """Syllable ``i`` of a turn from its JSON object, with its word,
    feature types and pauses checked: the one check a record gets. Both
    regression blocks are required."""
    try:
        rec = syllable_record_from_dict(s["features"])
        f0, energy = rec.f0_regression, rec.energy_regression
        ok = (type(s["word"]) is int and type(f0) is type(energy) is list
              and len(f0) == len(energy) == REGRESSION_LEN
              and type(rec.accent) is type(rec.word_final) is bool
              and _finite((*_scalar_features(rec), *f0, *energy))
              and rec.pause_before >= 0 <= rec.pause_after)
    except TypeError:  # not a mapping, or an unknown field
        ok = False
    if not ok:
        raise CorpusError(
            f"syllables[{i}]: needs an integer word, and features that are "
            f"finite numbers (pauses >= 0), true/false flags and two lists "
            f"of {REGRESSION_LEN} finite numbers")
    return Syllable(s["word"], rec)
