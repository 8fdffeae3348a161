"""Brute-force bracketing enumerator used as a parser oracle.

Independent of the chart: it enumerates every item sequence (the words
plus each subset of licensed empty items, with same-gap empties in every
relative order) and every binary bracketing of it, applying the grammar
schemata directly. Empty items may only ever appear as right daughters
and a left part must contain at least one word, mirroring the
right-periphery restriction. The number of empty items per sequence is
bounded by the number of second-position verb entries in the input:
every empty head introduces a DSL value that only the v2-selection step
of a distinct overt verb can discharge.

Readings use the same bracketed label format as the chart parser, so the
two reading sets are directly comparable.
"""

from itertools import combinations, permutations

from prosogate import fs
from prosogate.chart import (derivation_label, is_root_category,
                             propose_trace_sites)


def _leaf_options(item, grammar):
    kind = item[0]
    if kind == "word":
        _, orth = item
        return [(e.category, derivation_label("lexical", e, None))
                for e in grammar.entries(orth)]
    _, gap, entry = item
    return [(entry.trace_template, derivation_label("empty", entry, gap))]


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
                            # a mother shares its daughters' nodes; keep
                            # it private, as apply's daughters must be
                            mother = fs.copy_fs(mother)
                            lab = f"({schema.name} {llab} {rlab})"
                            dkey = (fs.canonical(mother), lab)
                            if dkey not in seen:
                                seen.add(dkey)
                                out.append((mother, lab))
        memo[key] = out
        return out

    return span(0, len(seq))


def _sequences(words, empties):
    """Interleave each same-gap permutation of the empty items."""
    by_gap = {}
    for gap, entry in empties:
        by_gap.setdefault(gap, []).append(entry)
    pools = [permutations(by_gap[g]) for g in sorted(by_gap)]

    def build(pool_index, chosen):
        if pool_index == len(pools):
            placed = dict(zip(sorted(by_gap), chosen))
            seq = []
            for i, w in enumerate(words, start=1):
                seq.append(("word", w))
                for entry in placed.get(i, ()):
                    seq.append(("empty", i, entry))
            yield seq
            return
        for perm in pools[pool_index]:
            yield from build(pool_index + 1, chosen + [perm])

    yield from build(0, [])


def enumerate_readings(turn, grammar, config):
    """The full reading set of a turn, by exhaustive enumeration."""
    sites = set(propose_trace_sites(turn, config))
    candidates = []
    v2_tokens = 0
    seen_ids = set()
    for i, word in enumerate(turn.words, start=1):
        for entry in grammar.entries(word):
            if not entry.is_v2:
                continue
            v2_tokens += 1
            for gap in sorted(sites):
                if gap >= i and (gap, entry.entry_id) not in seen_ids:
                    seen_ids.add((gap, entry.entry_id))
                    candidates.append((gap, entry))
    readings = set()
    for size in range(0, min(v2_tokens, len(candidates)) + 1):
        for subset in combinations(candidates, size):
            for seq in _sequences(turn.words, subset):
                for cat, label in _derive(seq, grammar):
                    if is_root_category(cat):
                        readings.add(label)
    return readings
