"""Turn records and JSON Lines corpus I/O.

Gap indexing is 1-based: gap i is the position after word i, and gap n
(n = word count) is the turn-final gap. ``gap_scores[i-1]`` is the score
of gap i. Exact line schema:

    {"id": str, "words": [str], "gap_scores": [num]?,
     "gold_traces": [int]?, "s3_labels": [str]?,
     "syllables": [{"word": int, "features": {...}}]?}

An optional leading line ``{"_meta": {...}}``, with no other key,
carries provenance (generator seed or source description); a ``_meta``
key anywhere else is a data error.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from operator import attrgetter

from . import load_file
from .prosody import REGRESSION_LEN, SyllableRecord

S3_LABELS = ("S3+", "S3-", "S3?")


class CorpusError(ValueError):
    pass


def _finite(values):
    """Ints or floats (not bools), each convertible to a finite float."""
    try:
        return (set(map(type, values)) <= {int, float}
                and all(map(math.isfinite, values)))
    except OverflowError:  # an int too large for a float
        return False


_scalar_features = attrgetter(*(f.name for f in fields(SyllableRecord)
                                if type(f.default) is float))


def _syllable_from_dict(i, s):
    """Syllable ``i`` of a turn from its JSON object, with its word and
    feature types checked. Both regression blocks are required."""
    try:
        rec = SyllableRecord.from_dict(s["features"])
        f0, energy = rec.f0_regression, rec.energy_regression
        ok = (type(s["word"]) is int and type(f0) is type(energy) is list
              and len(f0) == len(energy) == REGRESSION_LEN
              and type(rec.accent) is type(rec.word_final) is bool
              and _finite((*_scalar_features(rec), *f0, *energy)))
    except (TypeError, ValueError):  # not a mapping, unknown field, pause < 0
        ok = False
    if not ok:
        raise CorpusError(
            f"syllables[{i}]: needs an integer word, and features that are "
            f"finite numbers (pauses >= 0), true/false flags and two lists "
            f"of {REGRESSION_LEN} finite numbers")
    return Syllable(s["word"], rec)


@dataclass
class Syllable:
    word: int  # 1-based index of the word this syllable belongs to
    features: SyllableRecord


@dataclass
class TurnRecord:
    turn_id: str
    words: list
    gap_scores: list | None = None
    gold_traces: list | None = None  # sorted 1-based gap indices
    s3_labels: list | None = None  # one label per gap
    syllables: list | None = None  # [Syllable]

    def validate(self):
        where = f"turn {self.turn_id!r}"
        if not isinstance(self.turn_id, str):
            raise CorpusError(f"{where}: id is not a string")
        if not isinstance(self.words, list):
            raise CorpusError(f"{where}: words is not a list")
        if not self.words:
            raise CorpusError(f"{where}: empty word list")
        n = len(self.words)
        for name, ok, what in (
                ("words", lambda w: isinstance(w, str), "strings"),
                ("gap_scores", lambda x: _finite((x,)) and x >= 0,
                 "finite numbers >= 0"),
                ("gold_traces", lambda g: isinstance(g, numbers.Integral)
                 and not isinstance(g, bool) and 1 <= g <= n, f"gaps 1..{n}"),
                ("s3_labels", lambda label: label in S3_LABELS, "S3 labels")):
            values = getattr(self, name)
            if values is not None and not isinstance(values, list):
                raise CorpusError(f"{where}: {name} is not a list")
            bad = [v for v in values or [] if not ok(v)]
            if bad:
                raise CorpusError(f"{where}: {name} {bad} are not {what}")
        for name in ("gap_scores", "s3_labels"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise CorpusError(f"{where}: {name} has {len(values)} entries "
                                  f"for {n} words")
        bad = [s.word for s in self.syllables or [] if not 1 <= s.word <= n]
        if bad:
            raise CorpusError(f"{where}: syllables reference words {bad} "
                              f"outside 1..{n}")

    def word_final_syllables(self):
        """Per word (1-based), the index into self.syllables of its final
        syllable. Raises CorpusError for a word with no final-flagged
        syllable."""
        final = {}
        for i, s in enumerate(self.syllables or []):
            if s.features.word_final:
                final[s.word] = i
        missing = [w for w in range(1, len(self.words) + 1) if w not in final]
        if missing:
            raise CorpusError(
                f"turn {self.turn_id!r}: words {missing} have no "
                f"word-final syllable")
        return [final[w] for w in range(1, len(self.words) + 1)]

    def to_dict(self):
        d = {"id": self.turn_id, "words": list(self.words)}
        if self.gap_scores is not None:
            # up to 6 fractional digits on the wire
            d["gap_scores"] = [round(float(s), 6) for s in self.gap_scores]
        if self.gold_traces is not None:
            d["gold_traces"] = sorted(self.gold_traces)
        if self.s3_labels is not None:
            d["s3_labels"] = list(self.s3_labels)
        if self.syllables is not None:
            d["syllables"] = [{"word": s.word, "features": s.features.to_dict()}
                              for s in self.syllables]
        return d

    @classmethod
    def from_dict(cls, d):
        try:
            syllables = d.get("syllables")
            if syllables is not None:
                if not isinstance(syllables, list):
                    raise CorpusError("syllables is not a list")
                syllables = [_syllable_from_dict(i, s)
                             for i, s in enumerate(syllables)]
            turn = cls(
                turn_id=d["id"],
                words=d["words"],
                gap_scores=d.get("gap_scores"),
                gold_traces=d.get("gold_traces"),
                s3_labels=d.get("s3_labels"),
                syllables=syllables,
            )
            turn.validate()
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"bad turn record: {exc}") from exc
        if turn.gold_traces is not None:
            turn.gold_traces = sorted(turn.gold_traces)
        return turn


@dataclass
class Corpus:
    turns: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.turns)

    def __len__(self):
        return len(self.turns)


def loads_corpus(text):
    corpus = Corpus()
    seen = set()
    leading = True  # no non-blank line read yet
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CorpusError(f"line {lineno}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"line {lineno}: expected a JSON object")
        if "_meta" in obj:
            if not (leading and len(obj) == 1
                    and isinstance(obj["_meta"], dict)):
                raise CorpusError(f'line {lineno}: "_meta" is allowed only '
                                  f'in a leading {{"_meta": {{...}}}} line')
            corpus.provenance = obj["_meta"]
        else:
            try:
                turn = TurnRecord.from_dict(obj)
                if turn.turn_id in seen:
                    raise CorpusError(f"duplicate turn id {turn.turn_id!r}")
            except CorpusError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from exc
            seen.add(turn.turn_id)
            corpus.turns.append(turn)
        leading = False
    return corpus


def load_corpus(path):
    return load_file(path, loads_corpus)


def dumps_corpus(corpus):
    lines = []
    if corpus.provenance:
        lines.append(json.dumps({"_meta": corpus.provenance}, sort_keys=True))
    for t in corpus.turns:
        lines.append(json.dumps(t.to_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"
