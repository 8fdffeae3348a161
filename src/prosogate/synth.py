"""Synthetic corpus generator.

Stands in for the labelled speech data this kind of experiment normally
runs on: turns are composed from sentence templates over the shipped
fragment grammar's vocabulary, word-final syllables at syntactic
boundaries draw their measurements from the S3+ distribution (others
from S3-), and gap scores are calibrated so that every gold trace gap
scores >= 0.01 while most non-boundary gaps fall below any reasonable
threshold. Deterministic given the seed.
"""

from __future__ import annotations

import math
import random

from . import check_seed
from .corpus import Corpus, Syllable, TurnRecord
from .prosody import MEASUREMENTS, REGRESSION_LEN, SyllableRecord

PRONOUNS = ["er", "sie", "ich", "du"]
DETS = ["den", "das"]
NOUNS = {"den": "wagen", "das": "auto"}
ADVS = ["gestern", "heute"]
TRANS = ["reparierte", "kaufte"]
# Slot -> words to draw; a NOUN is its DET's noun, a non-slot is itself.
SLOTS = {"PRON": PRONOUNS, "PRON3": ["er", "sie"], "ADV": ADVS, "VT": TRANS,
         "DET": DETS}

# (pattern, gold final trace?) -- slot names are expanded per turn.
V2_PATTERNS = [
    (["ADV", "VT", "PRON", "DET", "NOUN"], True),
    (["PRON", "VT", "ADV", "DET", "NOUN"], True),
    (["ADV", "schlief", "PRON3"], True),
    (["PRON3", "schlief", "ADV"], True),
    (["ich", "glaube", "du", "sollst", "nicht", "töten"], True),
    (["ich", "glaube", "daß", "du", "nicht", "töten", "sollst"], True),
    (["PRON3", "dachte", "daß", "PRON3", "ADV", "DET", "NOUN", "VT"], True),
    (["ich", "glaube", "daß", "PRON3", "schlief"], True),
]
NO_TRACE_PATTERNS = [
    (["daß", "PRON3", "ADV", "DET", "NOUN", "VT"], False),
    (["daß", "PRON3", "schlief"], False),
    (["im", "april"], False),
]

# Rough syllable counts so turns have realistic syllable streams.
SYLLABLE_COUNT = {
    "er": 1, "sie": 1, "ich": 1, "du": 1, "den": 1, "das": 1,
    "wagen": 2, "auto": 2, "april": 2, "gestern": 2, "heute": 2,
    "nicht": 1, "daß": 1, "im": 1, "reparierte": 4, "kaufte": 2,
    "schlief": 1, "dachte": 2, "glaube": 2, "sollst": 1, "töten": 2,
}


def _expand(pattern, rng):
    words = []
    for slot in pattern:
        if slot == "NOUN":
            slot = NOUNS[words[-1]]
        elif slot in SLOTS:
            slot = rng.choice(SLOTS[slot])
        words.append(slot)
    return words


def _syllable(rng, mean, word_final):
    def draw(n):
        return [rng.gauss(mean, 1.0) for _ in range(n)]

    return SyllableRecord(
        **dict(zip(MEASUREMENTS, draw(len(MEASUREMENTS)))),
        accent=rng.random() < 0.4,
        word_final=word_final,
        pause_after=max(0.0, rng.gauss(0.15 * mean, 0.05)) if word_final else 0.0,
        f0_regression=draw(REGRESSION_LEN),
        energy_regression=draw(REGRESSION_LEN),
    )


def _gap_score(rng, label, is_gold):
    if is_gold:
        return 0.3 + 0.69 * rng.random()  # calibrated: never below 0.01
    if label == "S3+":
        return 0.2 + 0.7 * rng.random()
    if label == "S3?":
        return 10.0 ** (-4.0 * rng.random())
    return 10.0 ** (-9.0 * rng.random())  # mostly far below 0.01


def synth_corpus(seed=42, turns=104, separation=2.0, v2_only=False):
    """Generate a corpus of template sentences with syllables, S3 labels,
    calibrated gap scores, and gold trace positions.

    Each V2 turn has its gold trace at its clause-final gap, and the V2
    templates are mixed with trace-less subordinate and fragment turns.
    v2_only restricts to V2 templates, so each turn has exactly one gold
    gap, as the rank experiment needs.
    """
    check_seed(seed)
    if turns <= 0:
        raise ValueError("need at least one turn")
    if not math.isfinite(separation):
        raise ValueError("separation must be a finite number")
    rng = random.Random(seed)
    pool = V2_PATTERNS if v2_only else V2_PATTERNS * 2 + NO_TRACE_PATTERNS

    corpus = Corpus(provenance={
        "generator": "synth", "seed": seed,
        "params": {"turns": turns, "separation": separation,
                   "v2_only": v2_only}})
    for k in range(turns):
        pattern, has_trace = pool[rng.randrange(len(pool))]
        words = _expand(pattern, rng)
        n = len(words)
        gold = [n] if has_trace else []
        labels = []
        for gap in range(1, n + 1):
            if gap == n:
                labels.append("S3+")  # clause boundary at the turn end
            elif rng.random() < 0.05:
                labels.append("S3?")
            else:
                labels.append("S3-")
        scores = [
            round(_gap_score(rng, labels[g - 1], g in gold), 6)
            for g in range(1, n + 1)]
        syllables = []
        for w, word in enumerate(words, start=1):
            count = SYLLABLE_COUNT.get(word, 2)
            for s in range(count):
                final = s == count - 1
                if final and labels[w - 1] == "S3+":
                    mean = separation / 2.0
                elif final and labels[w - 1] == "S3?":
                    mean = 0.0
                else:
                    mean = -separation / 2.0
                syllables.append(
                    Syllable(word=w, features=_syllable(rng, mean, final)))
        corpus.turns.append(TurnRecord(
            turn_id=f"s{k:04d}", words=words, gap_scores=scores,
            gold_traces=gold, s3_labels=labels, syllables=syllables))
    return corpus
