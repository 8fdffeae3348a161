"""Brute-force bracketing enumerator used as a parser oracle.

Independent of the chart: it enumerates every distinct item sequence
once (the words plus each multiset of licensed empty items, a (gap, V2
entry) item at most as often as that entry has tokens at or before the
gap, with same-gap empties in every distinct relative order) and every
binary bracketing of it, applying the grammar schemata directly. Empty
items may only ever appear as right daughters and a left part must
contain at least one word, mirroring the right-periphery restriction. The number of
empty items per sequence is bounded by the number of second-position
verb tokens in the input: every empty head introduces a DSL value that
only the v2-selection step of a distinct overt verb can discharge, so
two tokens of one verb may each leave a trace at the same gap.

Readings use the same bracketed label format as the chart parser, so the
two reading sets are directly comparable.
"""

from itertools import combinations_with_replacement, permutations, product

from prosogate import fs
from prosogate.chart import (derivation_label, is_root_category,
                             propose_trace_sites)


def _leaf_options(item, grammar):
    """The (category, label) options of one item occurrence. Each is a
    copy of its own: apply's daughters must share no node, and a word or
    a trace may occur twice in a sequence. A mother shares nodes only
    with the leaves below it, so two adjacent spans' categories never
    share one."""
    kind = item[0]
    if kind == "word":
        _, orth = item
        return [(fs.copy_fs(e.category), derivation_label("lexical", e, None))
                for e in grammar.lexicon.get(orth, [])]
    _, gap, entry = item
    return [(fs.copy_fs(entry.trace_template),
             derivation_label("empty", entry, gap))]


def _derive(seq, grammar):
    """All (category, label) derivations over the full item sequence."""
    memo = {}

    def span(lo, hi):
        key = (lo, hi)
        if key in memo:
            return memo[key]
        if hi - lo == 1:
            out = _leaf_options(seq[lo], grammar)
        else:
            out = []
            seen = set()
            for mid in range(lo + 1, hi):
                if not any(it[0] == "word" for it in seq[lo:mid]):
                    continue  # left daughters are never zero-width
                for lcat, llab in span(lo, mid):
                    for rcat, rlab in span(mid, hi):
                        for schema in grammar.schemata:
                            mother = schema.apply(lcat, rcat)
                            if mother is None:
                                continue
                            lab = derivation_label("derived", None, None,
                                                   schema.name, llab, rlab)
                            dkey = (fs.canonical(mother), lab)
                            if dkey not in seen:
                                seen.add(dkey)
                                out.append((mother, lab))
        memo[key] = out
        return out

    return span(0, len(seq))


def item_sequences(turn, grammar, config):
    """Every distinct item sequence of a turn, each once: the words with
    a multiset of licensed empty items interleaved, same-gap empties in
    each distinct relative order."""
    sites = sorted(propose_trace_sites(turn, config))
    # (gap, entry id) -> the V2 tokens of that entry ending at or before
    # the gap, each of which may leave a trace there
    bounds, v2_tokens = {}, 0
    for i, word in enumerate(turn.words, start=1):
        for entry in grammar.lexicon.get(word, []):
            if not entry.is_v2:
                continue
            v2_tokens += 1
            for gap in sites:
                if gap >= i:
                    key = (gap, entry.entry_id)
                    bounds[key] = bounds.get(key, 0) + 1
    for size in range(v2_tokens + 1):
        for chosen in combinations_with_replacement(sorted(bounds), size):
            if any(chosen.count(key) > bounds[key] for key in chosen):
                continue
            by_gap = {}
            for gap, entry_id in chosen:
                by_gap.setdefault(gap, []).append(entry_id)
            gaps = sorted(by_gap)
            orders = (sorted(set(permutations(by_gap[g]))) for g in gaps)
            for placed in product(*orders):
                placed = dict(zip(gaps, placed))
                seq = []
                for i, w in enumerate(turn.words, start=1):
                    seq.append(("word", w))
                    seq.extend(("empty", i, grammar.entries_by_id[entry_id])
                               for entry_id in placed.get(i, ()))
                yield seq


def enumerate_readings(turn, grammar, config):
    """The full reading set of a turn, by exhaustive enumeration."""
    readings = set()
    for seq in item_sequences(turn, grammar, config):
        for cat, label in _derive(seq, grammar):
            if is_root_category(cat):
                readings.add(label)
    return readings
