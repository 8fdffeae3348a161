"""Turn records and JSON Lines corpus I/O.

Gap indexing is 1-based: gap i is the position after word i, and gap n
(n = word count) is the turn-final gap. ``gap_scores[i-1]`` is the score
of gap i. Exact line schema:

    {"id": str, "words": [str], "gap_scores": [num]?,
     "gold_traces": [int]?, "s3_labels": [str]?,
     "syllables": [{"word": int, "features": {...}}]?}

Lines are split on "\n" alone, as JSON Lines defines: a JSON string
may hold a raw U+2028, U+2029 or U+0085, at which ``str.splitlines``
would split it. A file is read with universal newlines, so "\r\n"
arrives as "\n", and a "\r" left before one is JSON whitespace. A line
of only JSON whitespace (spaces, tabs, carriage returns) is blank and
skipped; any other line, even one ``str.strip`` would empty, is decoded
as JSON, exactly as ``json.loads`` decodes it (``loads_json``).

An optional leading line ``{"_meta": {...}}``, with no other key,
carries provenance (generator seed or source description); a ``_meta``
key anywhere else is a data error.

A syllable is checked where it is read, by ``_syllable_from_dict``: an
integer word, and features that are an object with no unknown field,
finite numbers, pauses >= 0, true/false flags and both regression
blocks; a missing scalar field takes its default (0 or false).
``TurnRecord.validate`` then checks that the word is one of the turn's,
and ``word_final_syllables`` that a turn has syllables where they are read.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from operator import attrgetter, itemgetter

from . import loads_json
from .prosody import MEASUREMENTS, REGRESSION_LEN, SyllableRecord

S3_LABELS = ("S3+", "S3-", "S3?")


class CorpusError(ValueError):
    pass


def _finite(values):
    """Ints or floats (not bools), each convertible to a finite float.

    A finite sum proves every value finite: an inf or a NaN makes the sum
    inf or NaN. The sum starts from 0.0, so each int is converted to a
    float as it is added, and one too large for a float raises
    OverflowError instead of cancelling against another. Only a sum that
    is not finite checks the values one by one.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return (math.isfinite(sum(values, 0.0))
                or all(map(math.isfinite, values)))
    except OverflowError:  # an int too large for a float
        return False


_scalar_features = attrgetter(*MEASUREMENTS, "pause_before", "pause_after")

# Each record field, in order, with the value an omitted feature takes:
# its default, or None for a regression block (a default_factory).
_FEATURE_DEFAULTS = {f.name: None if f.default is MISSING else f.default
                     for f in fields(SyllableRecord)}
_in_field_order = itemgetter(*_FEATURE_DEFAULTS)


def _syllable_from_dict(i, s):
    """Syllable ``i`` of a turn from its JSON object, with its word,
    feature types and pauses checked: the one check a record gets.

    The features merge over ``_FEATURE_DEFAULTS`` (a TypeError if they
    are not an object) and the record is built from the merged values in
    field order. So a missing scalar field takes its default, a missing
    regression block is None and fails the list check, and a key beyond
    the record's fields, an unknown field, makes the merge too long. A
    missing ``word`` or ``features`` key is a KeyError for the caller.
    """
    try:
        merged = {**_FEATURE_DEFAULTS, **s["features"]}
        rec = SyllableRecord(*_in_field_order(merged))
        f0, energy = rec.f0_regression, rec.energy_regression
        ok = (len(merged) == len(_FEATURE_DEFAULTS)
              and type(s["word"]) is int and type(f0) is type(energy) is list
              and len(f0) == len(energy) == REGRESSION_LEN
              and type(rec.accent) is type(rec.word_final) is bool
              and _finite((*_scalar_features(rec), *f0, *energy))
              and rec.pause_before >= 0 <= rec.pause_after)
    except TypeError:  # not a mapping
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
        # Each rule holds of a whole list; the bad values are listed only
        # to word the error.
        for name, ok, what in (
                ("words", lambda ws: all(isinstance(w, str) for w in ws),
                 "strings"),
                ("gap_scores",
                 lambda xs: _finite(xs) and min(xs, default=0) >= 0,
                 "finite numbers >= 0"),
                ("gold_traces",
                 lambda gs: all(type(g) is int and 1 <= g <= n for g in gs),
                 f"gaps 1..{n}"),
                ("s3_labels", lambda ls: all(x in S3_LABELS for x in ls),
                 "S3 labels")):
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, list):
                raise CorpusError(f"{where}: {name} is not a list")
            if not ok(values):
                bad = [v for v in values if not ok([v])]
                raise CorpusError(f"{where}: {name} {bad} are not {what}")
        gold = self.gold_traces or []
        if len(set(gold)) < len(gold):
            raise CorpusError(f"{where}: gold_traces {gold} repeat a gap")
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
        syllable. CorpusError for a turn with no syllables (the one check
        of that) and for a word with no final-flagged syllable."""
        if not self.syllables:
            raise CorpusError(f"turn {self.turn_id!r} has no syllables")
        final = {}
        for i, s in enumerate(self.syllables):
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
            d["syllables"] = [{"word": s.word, "features": asdict(s.features)}
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
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:  # ValueError: a JSONDecodeError or an int over the digit limit
            obj = loads_json(line)
        except (ValueError, RecursionError) as exc:
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


def dumps_corpus(corpus):
    lines = []
    if corpus.provenance:
        lines.append(json.dumps({"_meta": corpus.provenance}, sort_keys=True))
    for t in corpus.turns:
        lines.append(json.dumps(t.to_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"
