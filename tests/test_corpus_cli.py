import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import platform
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prosogate import (_orjson_reads_alike, demo_grammar_text, fs, load_file,
                       loads_json)
from prosogate.chart import ParseConfig, ParseError, parse
from prosogate.cli import build_parser, run
from prosogate.corpus import (Corpus, CorpusError, TurnRecord, _finite,
                              dumps_corpus, loads_corpus)
from prosogate.evaluation import BenchReport
from prosogate.grammar import GrammarError, load_grammar
from prosogate.mlp import MlpClassifier
from prosogate.prosody import (FEATURE_DIM, MEASUREMENTS, REGRESSION_LEN,
                               SyllableRecord, extract_features)
from prosogate.synth import synth_corpus
from references import (extract_pred_arg, finite, orjson_reads_alike,
                        syllable_from_dict)


def _valid_turn(n):
    features = {"word_final": True, "f0_regression": [0.0] * REGRESSION_LEN,
                "energy_regression": [0.0] * REGRESSION_LEN}
    return {"id": "t", "words": ["x"] * n, "gap_scores": [0.5] * n,
            "gold_traces": [n], "s3_labels": ["S3-"] * n,
            "syllables": [{"word": w, "features": dict(features)}
                          for w in range(1, n + 1)]}


def _with_syllable(word=1, **features):
    """Fields of a valid one-word turn whose syllable has this word and
    these features."""
    syllable = _valid_turn(1)["syllables"][0]
    syllable["word"] = word
    syllable["features"].update(features)
    return '"words": ["x"], "syllables": ' + json.dumps([syllable])


class TestCorpusIO:
    def test_round_trip(self):
        corpus = synth_corpus(seed=5, turns=8)
        again = loads_corpus(dumps_corpus(corpus))
        assert dumps_corpus(again) == dumps_corpus(corpus)
        assert again.provenance == corpus.provenance
        for a, b in zip(corpus, again):
            assert a.turn_id == b.turn_id
            assert a.words == b.words
            assert a.gold_traces == b.gold_traces

    @pytest.mark.parametrize("line", [
        "{oops", "[" * 100000,
        pytest.param('{"id": "b", "words": ["x"], "gap_scores": ['
                     + "1" * 5000 + "]}", id="5000-digit-int"),
        # str.strip removes these, but JSON does not count them as
        # whitespace: a line of one is not blank
        pytest.param("\xa0", id="U+00A0"), pytest.param("\u2028", id="U+2028"),
        pytest.param("\x0c", id="form-feed")])
    def test_malformed_json_reports_line(self, line):
        text = '{"id": "a", "words": ["x"]}\n' + line + '\n'
        with pytest.raises(CorpusError, match="line 2: malformed JSON"):
            loads_corpus(text)

    def test_blank_lines_are_skipped(self):
        text = ' \t\r\n\n{"id": "a", "words": ["x"]}\n\t\n'
        assert [t.turn_id for t in loads_corpus(text)] == ["a"]

    @pytest.mark.parametrize("end, char", [
        ("\n", "\u2028"), ("\n", "\u2029"), ("\n", "\x85"), ("\r\n", "")],
        ids=["U+2028", "U+2029", "U+0085", "CRLF"])
    def test_lines_end_only_at_newline(self, tmp_path, end, char):
        # JSON Lines ends a line at "\n" only; str.splitlines would also
        # split at U+2028, U+2029 and U+0085, inside a valid JSON string
        text = ('{"id": "a' + char + 'b", "words": ["x"]}' + end
                + '{"id": "c", "words": ["y"]}' + end)
        path = tmp_path / "c.jsonl"
        path.write_bytes(text.encode("utf-8"))
        for corpus in (loads_corpus(text), load_file(path, loads_corpus)):
            assert [t.turn_id for t in corpus] == ["a" + char + "b", "c"]

    def test_bad_record_reports_line(self):
        text = '{"id": "a", "words": ["x"], "gap_scores": [0.1, 0.2]}\n'
        with pytest.raises(CorpusError, match="line 1"):
            loads_corpus(text)

    def test_gold_trace_out_of_range(self):
        with pytest.raises(CorpusError, match="gold_traces"):
            loads_corpus('{"id": "a", "words": ["x"], "gold_traces": [2]}\n')

    def test_bad_s3_label(self):
        with pytest.raises(CorpusError, match="s3_labels"):
            loads_corpus('{"id": "a", "words": ["x"], "s3_labels": ["S4"]}\n')

    def test_duplicate_turn_id(self):
        line = '{"id": "a", "words": ["x"]}\n'
        with pytest.raises(CorpusError, match="line 2: duplicate turn id"):
            loads_corpus(line + line)

    @pytest.mark.parametrize("turn_id", ["5", '["a"]', "null"])
    def test_non_string_id_rejected(self, turn_id):
        with pytest.raises(CorpusError, match="line 1: .*id is not a string"):
            loads_corpus('{"id": ' + turn_id + ', "words": ["x"]}\n')

    @pytest.mark.parametrize("line", ["5", "[]", '"x"'])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(CorpusError, match="line 2: expected a JSON object"):
            loads_corpus('{"id": "a", "words": ["x"]}\n' + line + "\n")

    @pytest.mark.parametrize("fields", [
        '"words": ["x", 3]',
        '"words": "xy"',
        '"words": ["x", "y"], "gap_scores": [0.1, "0.2"]',
        '"words": ["x", "y"], "gap_scores": [-0.5, 0.2]',
        '"words": ["x", "y"], "gap_scores": [0.5, NaN]',
        '"words": ["x", "y"], "gap_scores": [0.5, Infinity]',
        '"words": ["x", "y"], "gap_scores": [true, 0.2]',
        '"words": ["x", "y"], "gap_scores": 0.5',
        '"words": ["x", "y"], "gold_traces": ["2"]',
        '"words": ["x", "y"], "gold_traces": [1.0]',
        '"words": ["x", "y"], "gold_traces": [true]',
        '"words": ["x", "y"], "gold_traces": [2, 2]',
        '"words": ["x"], "gap_scores": [1' + "0" * 400 + "]",
        _with_syllable(pause_before=-1),
        _with_syllable(pause_after=-1),
        _with_syllable(f0_regression=5),
        _with_syllable(energy_regression=[0.0] * (REGRESSION_LEN - 1)),
        _with_syllable(f0_regression=["0"] * REGRESSION_LEN),
        _with_syllable(nucleus_dur="x"),
        _with_syllable(f0_min=float("nan")),
        _with_syllable(accent=1),
        _with_syllable(word=True),
        _with_syllable(word=1.0),
        '"words": ["x"], "syllables": [{"word": 1, "features": {}}]',
        '"words": ["x"], "syllables": [{"word": 1, "features": []}]',
        '"words": 5',
        '"words": null',
        '"words": ["x"], "syllables": 5',
        '"words": ["x", "y"], "gold_traces": [1, "x"]',
        '"words": ["x", "y"], "gap_scores": [0.5]',
        '"words": ["x"], "s3_labels": ["S3+", "S3-"]',
    ])
    def test_bad_field_values_rejected(self, fields):
        bad_field = list(json.loads("{" + fields + "}"))[-1]
        with pytest.raises(CorpusError, match="line 1") as info:
            loads_corpus('{"id": "a", ' + fields + '}\n')
        assert bad_field in str(info.value)

    @pytest.mark.parametrize("fields, message", [
        ('"words": ["x", 3, null]', "words [3, None] are not strings"),
        ('"words": ["x", "y"], "gap_scores": [-0.5, 0.2, NaN, true]',
         "gap_scores [-0.5, nan, True] are not finite numbers >= 0"),
        ('"words": ["x", "y"], "gold_traces": [3, 1, 0, "2"]',
         "gold_traces [3, 0, '2'] are not gaps 1..2"),
        ('"words": ["x"], "s3_labels": ["S4", "S3+", ["S3-"]]',
         "s3_labels ['S4', ['S3-']] are not S3 labels"),
    ])
    def test_bad_list_values_are_named(self, fields, message):
        with pytest.raises(CorpusError) as info:
            loads_corpus('{"id": "a", ' + fields + '}\n')
        assert str(info.value) == f"line 1: turn 'a': {message}"

    def test_empty_word_list(self):
        with pytest.raises(CorpusError, match="empty"):
            TurnRecord(turn_id="a", words=[]).validate()

    def test_valid_syllable_loads(self):
        turn = loads_corpus('{"id": "a", ' + _with_syllable() + '}\n').turns[0]
        assert turn.syllables[0].features == SyllableRecord(
            word_final=True, f0_regression=[0.0] * REGRESSION_LEN,
            energy_regression=[0.0] * REGRESSION_LEN)

    def test_meta_line_is_provenance(self):
        corpus = loads_corpus('{"_meta": {"seed": 3}}\n'
                              '{"id": "a", "words": ["x"]}\n')
        assert corpus.provenance == {"seed": 3}
        assert len(corpus) == 1

    @pytest.mark.parametrize("text, line", [
        ('{"id": "a", "words": ["x"]}\n'
         '{"id": "b", "words": ["sie"], "_meta": {}}\n', 2),
        ('{"_meta": {"seed": 3}}\n{"_meta": 5}\n', 2),
        ('{"_meta": {}}\n\n{"_meta": {}}\n', 3),
        ('{"id": "a", "words": ["x"]}\n{"_meta": {"seed": 3}}\n', 2),
        ('\n{"_meta": 5}\n', 2),
        ('{"_meta": {}, "id": "a", "words": ["x"]}\n', 1),
    ])
    def test_meta_only_as_leading_line(self, text, line):
        with pytest.raises(CorpusError, match=f"line {line}: .*_meta"):
            loads_corpus(text)


# Any JSON value, including non-finite floats and integers beyond float
# range.
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)

_FEATURE_NAMES = sorted(f.name for f in dataclasses.fields(SyllableRecord))


@st.composite
def _corrupted_turns(draw):
    """A valid turn in which one field of the turn, of a syllable, of its
    features or of a regression block holds any JSON value."""
    n = draw(st.integers(1, 3))
    turn = _valid_turn(n)
    syllable = turn["syllables"][draw(st.integers(0, n - 1))]
    owner, keys = draw(st.sampled_from([
        (turn, sorted(turn)),
        (syllable, ["word", "features"]),
        (syllable["features"], _FEATURE_NAMES),
        (syllable["features"]["f0_regression"], range(REGRESSION_LEN))]))
    owner[draw(st.sampled_from(keys))] = draw(_json_values)
    return turn


_FLAGS = ("accent", "word_final")
_PAUSES = ("pause_before", "pause_after")
_BLOCKS = ("f0_regression", "energy_regression")
_finite_numbers = (st.floats(allow_nan=False, allow_infinity=False)
                   | st.integers(-10 ** 6, 10 ** 6))
# Lists that _finite may be given: any floats, bools and ints, and pairs
# of same-signed floats and ints near the largest double, whose sum
# overflows though each value is finite.
_near_max = st.floats(min_value=1.6e308, max_value=sys.float_info.max)
_number_lists = (
    st.lists(st.floats() | st.booleans() | st.integers(-10 ** 400, 10 ** 400),
             max_size=6)
    | st.builds(lambda a, b, sign: [sign * a, sign * b], _near_max,
                _near_max | _near_max.map(int), st.sampled_from([1, -1])))


@st.composite
def _mutated_syllable(draw):
    """A syllable object of a valid record with, mostly, one mutation the
    loader must accept or reject as the keyword-call reader does."""
    pause = st.floats(min_value=0, allow_infinity=False)
    features = {
        **{name: draw(_finite_numbers) for name in MEASUREMENTS},
        **{name: draw(st.booleans()) for name in _FLAGS},
        **{name: draw(pause) for name in _PAUSES},
        **{name: draw(st.lists(_finite_numbers, min_size=REGRESSION_LEN,
                               max_size=REGRESSION_LEN)) for name in _BLOCKS}}
    syllable = {"word": draw(st.integers(1, 3)), "features": features}
    mutation = draw(st.sampled_from([
        None, "drop", "unknown", "value", "negative-pause", "block-length",
        "features", "word"]))
    if mutation == "drop":
        del features[draw(st.sampled_from(_FEATURE_NAMES))]
    elif mutation == "unknown":
        name = draw(st.text(max_size=6).filter(
            lambda k: k not in _FEATURE_NAMES))
        features[name] = draw(_finite_numbers)
    elif mutation == "value":
        features[draw(st.sampled_from(_FEATURE_NAMES))] = draw(st.sampled_from(
            [True, False, "0.5", None, [0.5], math.nan, math.inf, -math.inf,
             10 ** 400]))
    elif mutation == "negative-pause":
        features[draw(st.sampled_from(_PAUSES))] = -draw(
            st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    elif mutation == "block-length":
        features[draw(st.sampled_from(_BLOCKS))] = [0.5] * draw(
            st.sampled_from([REGRESSION_LEN - 1, REGRESSION_LEN + 1]))
    elif mutation == "features":
        syllable["features"] = draw(st.sampled_from(
            [list(features.values()), "features"]))
    elif mutation == "word":
        value = draw(st.sampled_from([True, 1.0, "missing"]))
        if value == "missing":
            del syllable["word"]
        else:
            syllable["word"] = value
    return syllable


def _loaded(text):
    """The turns ``loads_corpus`` returns for ``text``, or its error
    message."""
    try:
        return loads_corpus(text).turns
    except CorpusError as exc:
        return str(exc)


def _check_loads(text):
    """loads_corpus yields a Corpus or a CorpusError, nothing else, and a
    loaded syllable always yields a finite feature vector."""
    try:
        corpus = loads_corpus(text)
    except CorpusError:
        return
    assert isinstance(corpus, Corpus)
    for turn in corpus:
        records = [s.features for s in turn.syllables or []]
        for i in range(len(records)):
            vec = extract_features(records, [i])[0]
            assert vec.shape == (FEATURE_DIM,) and np.isfinite(vec).all()


class TestCorpusFuzz:
    @settings(max_examples=200)
    @given(st.text())
    def test_any_text(self, text):
        _check_loads(text)

    @settings(max_examples=300)
    @given(_corrupted_turns())
    def test_turn_objects_with_wrong_value_types(self, turn):
        _check_loads(json.dumps(turn))

    @settings(max_examples=300)
    @given(st.lists(_mutated_syllable(), min_size=1, max_size=3))
    def test_syllables_load_as_the_keyword_reader_loads_them(self, syllables):
        text = json.dumps({"id": "t", "words": ["x"] * 3,
                           "syllables": syllables}) + "\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("prosogate.corpus._syllable_from_dict",
                          syllable_from_dict)
            expected = _loaded(text)
        assert _loaded(text) == expected

    @settings(max_examples=1000)
    @given(_number_lists)
    @example([])
    @example([10 ** 308, 10 ** 308])
    @example([10 ** 400, -10 ** 400])
    @example([1.7e308, 1.7e308, -1.7e308])
    @example([math.inf, -math.inf])
    def test_finite_is_the_value_by_value_check(self, values):
        assert _finite(values) == finite(values)


def _decoded(loads, text):
    """What ``loads`` returns for ``text``, or the class and message of
    the exception it raises."""
    try:
        return loads(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _alike(a, b):
    """The same type at every level, the same float bits, the same dict
    key order and the same values."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is dict:
        return list(a) == list(b) and all(_alike(a[k], b[k]) for k in a)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_alike, a, b))
    return a == b


_CORPUS_LINE = dumps_corpus(synth_corpus(seed=42, turns=1)).splitlines()[-1]
_digits = st.text(alphabet="0123456789", min_size=1, max_size=25)


@st.composite
def _mutated_corpus_line(draw):
    """A seed-42 corpus line with up to 4 characters replaced by a run of
    digits or by characters that start numbers, nesting, escapes and
    surrogates."""
    start = draw(st.integers(0, len(_CORPUS_LINE)))
    end = draw(st.integers(start, start + 4))
    insert = draw(_digits | st.text(
        alphabet='0123456789.-eE[]{}",:\\u \ud800\xa0\x0c', max_size=6))
    return _CORPUS_LINE[:start] + insert + _CORPUS_LINE[end:]


def _nested(depth, opener):
    return opener * depth + "0" + ("]" if opener == "[" else "}") * depth


# Texts on each side of each rule by which loads_json chooses a decoder.
_json_texts = st.one_of(
    st.builds(json.dumps, _json_values),
    st.builds("{}{}{}e{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 10 ** 19),
              st.just("") | _digits.map(".{}".format),
              st.integers(-350, 330)),
    st.builds(str, st.integers(-2 ** 63 - 1000, -2 ** 63 + 1000)
              | st.integers(2 ** 63 - 1000, 2 ** 63 + 1000)
              | st.integers(2 ** 64 - 1000, 2 ** 64 + 1000)),
    st.builds(lambda a, lone, b, ascii_only: json.dumps(
                  [a + lone + b], ensure_ascii=ascii_only),
              st.text(max_size=3), st.characters(min_codepoint=0xD800,
                                                 max_codepoint=0xDFFF),
              st.text(max_size=3), st.booleans()),
    st.builds(_nested, st.integers(1, 499) | st.integers(499, 520)
              | st.integers(2000, 3000), st.sampled_from(["[", '{"k": '])),
    _mutated_corpus_line())


class TestLoadsJson:
    @settings(max_examples=1000)
    @given(_json_texts)
    @example("-9223372036854775809")
    @example("18446744073709551616")
    @example('"\ud800"')
    @example('["\\udc00"]')
    @example("[" * 2000 + "]" * 2000)
    @example("NaN")
    @example("1e400")
    @example(_CORPUS_LINE)
    def test_decodes_as_json_loads(self, text):
        assert _alike(_decoded(loads_json, text), _decoded(json.loads, text))

    @settings(max_examples=1000)
    @given(_json_texts)
    @example("[0.1234567890123456789012, 1234567890123456789]")
    @example("1234567890123456789")
    @example("1234567890123456789 0.")  # index 0 has no byte before it
    @example("[1234567890123456789]")
    @example("-1234567890123456789")
    @example("1e1234567890123456789")
    @example('{"k":1234567890123456789}')
    @example("[0.1234567890123456789012, 1.%s]" % ("1234567890" * 4))
    def test_guard_sends_the_reference_texts_to_orjson(self, text):
        data = text.encode("utf-8", "surrogatepass")
        assert _orjson_reads_alike(data) == orjson_reads_alike(data)

    def test_depth_rule_follows_the_recursion_limit(self):
        # under a lowered limit json.loads raises at a depth orjson
        # decodes, so the depth rule must read the limit of the moment
        text = "[" * 400 + "]" * 400
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            expected = _decoded(json.loads, text)
            decoded = _decoded(loads_json, text)
        finally:
            sys.setrecursionlimit(limit)
        assert expected[0] is RecursionError
        assert decoded == expected


def _paths(node, path=()):
    """The path of every value below a JSON value, the value excluded."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield path + (key,)
            yield from _paths(child, path + (key,))


@st.composite
def _one_field_replaced(draw, doc):
    """A copy of a JSON document in which one value, at any depth, is
    any JSON value; often {}, which as a feature structure is top and
    lets the most grammars load."""
    doc = copy.deepcopy(doc)
    *steps, last = draw(st.sampled_from(list(_paths(doc))))
    owner = doc
    for step in steps:
        owner = owner[step]
    owner[last] = draw(st.just({}) | _json_values)
    return doc


_FUZZ_TURNS = ("d01", "d02", "d03")


def _cyclic_grammar():
    """The demo grammar with head-subject's right daughter unconstrained,
    so a subject over an empty edge rebuilds its own category: on turn
    d01 the mother packs into its left daughter."""
    doc = json.loads(demo_grammar_text())
    doc["schemata"][0]["daughters"][1] = {}
    return doc


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory, demo_corpus):
    """A gold corpus of the fuzzed demo turns and its parse report."""
    gold = tmp_path_factory.mktemp("eval") / "gold.jsonl"
    gold.write_text(dumps_corpus(Corpus([
        turn for turn in demo_corpus if turn.turn_id in _FUZZ_TURNS])))
    report = gold.with_name("report.json")
    assert run(["parse", "--format", "json", "--mode", "off", "--corpus",
                str(gold), "--out", str(report)]) == 0
    return gold, report


class TestInputFuzz:
    """One field of a valid grammar, classifier or parse report replaced
    by any JSON value: loading gives the input's own ValueError subclass
    or succeeds, and what loads works."""

    @settings(max_examples=150)
    @given(doc=_one_field_replaced(json.loads(demo_grammar_text())))
    @example(doc=_cyclic_grammar())
    def test_grammar_field(self, doc, demo_corpus):
        try:
            grammar = load_grammar(json.dumps(doc))
        except GrammarError:
            return
        config = ParseConfig(mode="off")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("prosogate.chart.MAX_EDGES", 300)
            for turn in demo_corpus:
                if turn.turn_id in _FUZZ_TURNS:
                    try:
                        parse(turn, grammar, config)
                    except ParseError as exc:
                        assert str(exc).startswith(f"turn {turn.turn_id!r}: ")

    @settings(max_examples=150)
    @given(_one_field_replaced(
        json.loads(MlpClassifier(FEATURE_DIM, 2, 2).to_json())))
    def test_model_field(self, doc):
        try:
            clf = MlpClassifier.from_json(json.dumps(doc))
        except ValueError:
            return
        assert MlpClassifier.from_json(clf.to_json()).to_json() == \
            clf.to_json()

    @settings(max_examples=150)
    @given(data=st.data())
    def test_report_field(self, eval_files, data):
        gold, path = eval_files
        bad = path.with_name("bad.json")
        doc = data.draw(_one_field_replaced(json.loads(path.read_text())))
        bad.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["eval", "--gold", str(gold), "--proposed", str(bad),
                        "--out", str(bad.with_name("eval.txt"))])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith(
                f"prosogate eval: error: {bad}: ")


class TestSynth:
    def test_deterministic_bytes(self):
        a = dumps_corpus(synth_corpus(seed=9, turns=12))
        b = dumps_corpus(synth_corpus(seed=9, turns=12))
        assert a == b

    def test_seed_changes_content(self):
        assert dumps_corpus(synth_corpus(seed=1, turns=5)) != \
            dumps_corpus(synth_corpus(seed=2, turns=5))

    def test_gold_gaps_pass_default_threshold(self):
        corpus = synth_corpus(seed=3, turns=60)
        for turn in corpus:
            for g in turn.gold_traces:
                assert turn.gap_scores[g - 1] >= 0.01

    def test_v2_only_has_one_gold_gap_each(self):
        corpus = synth_corpus(seed=3, turns=10, v2_only=True)
        assert all(len(t.gold_traces) == 1 for t in corpus)

    def test_meta_records_its_settings(self):
        corpus = synth_corpus(seed=5, turns=3, separation=1.5, v2_only=True)
        assert corpus.provenance == {
            "generator": "synth", "seed": 5,
            "params": {"turns": 3, "separation": 1.5, "v2_only": True}}

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(turns=0)
        # random.Random seeds from |seed|: -1 would write the turns of 1
        with pytest.raises(ValueError, match="seed -1 is negative"):
            synth_corpus(seed=-1)
        for separation in (math.nan, math.inf):
            with pytest.raises(ValueError, match="separation"):
                synth_corpus(separation=separation)

    def test_syllables_align_with_words(self):
        corpus = synth_corpus(seed=4, turns=15)
        for turn in corpus:
            assert len(turn.word_final_syllables()) == len(turn.words)


_MODEL = json.loads(MlpClassifier(FEATURE_DIM, 3, 3).to_json())


class TestCliExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["parse", "--frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        for argv in (["train"], ["rank"]):
            assert run(argv) == 1

    @pytest.mark.parametrize("argv", [["parse", "--seed", "3"],
                                      ["synth", "--format", "json"]])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, capsys,
                                                               argv):
        assert run(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in \
            capsys.readouterr().err

    def test_missing_file_is_data_error(self, capsys):
        assert run(["parse", "--corpus", "/no/such/file.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_object_corpus_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text("5\n")
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert "line 1: expected a JSON object" in capsys.readouterr().err

    def test_misplaced_meta_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"id": "b", "words": ["sie"], "_meta": {}}\n')
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert "line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["parse", "bench"])
    def test_edge_cap_error_names_turn(self, tmp_path, capsys, monkeypatch,
                                       command):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "q2", "words": ["im", "im"], '
                          '"gap_scores": [0.5, 0.5]}\n')
        monkeypatch.setattr("prosogate.chart.MAX_EDGES", 1)
        assert run([command, "--corpus", str(corpus)]) == 2
        assert "turn 'q2': edge cap 1 exceeded" in capsys.readouterr().err

    def test_cyclic_grammar_error_names_turn(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps(_cyclic_grammar()))
        assert run(["parse", "--mode", "off", "--grammar", str(bad)]) == 2
        assert ("prosogate parse: error: turn 'd01': cyclic derivation: "
                "head-subject derives edge 10 from itself"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, text, message", [
        ("--corpus", '{"id": "a"\n', "line 1: malformed JSON"),
        ("--gold", '{"id": "a"\n', "line 1: malformed JSON"),
        ("--grammar", json.dumps({"features": [], "schemata": [],
                                  "lexicon": [{"orth": "x", "avm": {}}]}),
         "lexicon[0]: missing key 'id'"),
    ], ids=["corpus", "gold", "grammar"])
    def test_data_error_names_file(self, tmp_path, capsys, flag, text,
                                   message):
        bad = tmp_path / "bad"
        bad.write_text(text)
        command = (["eval", "--proposed", str(tmp_path / "r.json")]
                   if flag == "--gold" else ["parse"])
        assert run([*command, flag, str(bad)]) == 2
        assert f"prosogate {command[0]}: error: {bad}: {message}" in \
            capsys.readouterr().err

    def test_unknown_word_error_names_turn(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"id": "q1", "words": ["zzz"], "gap_scores": [0.5]}\n')
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert "turn 'q1': unknown word 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ({"features": []}, "missing 'lexicon'"),
        ({"features": [], "lexicon": [{"orth": "x", "avm": {}}],
          "schemata": []}, "lexicon[0]: missing key 'id'"),
        ({"features": [], "lexicon": [{"id": "x", "avm": {}}],
          "schemata": []}, "lexicon[0]: missing key 'orth'"),
        ({"features": [], "lexicon": [],
          "schemata": [{"daughters": [{}, {}], "mother": {}}]},
         "schemata[0]: missing key 'name'"),
        (5, "not a JSON object"),
        ({"features": 5, "lexicon": [], "schemata": []},
         "'features' is not a list"),
        ({"features": [1], "lexicon": [], "schemata": []},
         "'features' are not all strings"),
        ({"features": [], "lexicon": ["x"], "schemata": []},
         "lexicon[0]: not a JSON object"),
        ({"features": [], "lexicon": [{"id": ["a"], "orth": "x", "avm": {}}],
          "schemata": []}, "lexicon[0]: id and orth must be strings"),
        ({"features": [], "lexicon": [], "schemata": ["x"]},
         "schemata[0]: not a JSON object"),
        ({"features": [], "lexicon": [],
          "schemata": [{"name": "s", "daughters": 5, "mother": {}}]},
         "schemata[0]: schemata are binary"),
        *(({"features": [], "lexicon": [],
            "schemata": [{"name": name, "daughters": [{}, {}], "mother": {}}]},
           "schemata[0]: name must be a string")
          for name in (5, None, ["x"], {"a": 1})),
    ], ids=["no-lexicon", "entry-without-id", "entry-without-orth",
            "schema-without-name", "not-object", "features-not-list",
            "features-not-strings", "entry-not-object", "unhashable-id",
            "schema-not-object", "daughters-not-list", "name-int",
            "name-null", "name-list", "name-object"])
    def test_bad_grammar_is_data_error(self, tmp_path, capsys, doc, where):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps(doc))
        assert run(["parse", "--grammar", str(bad)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("model, where", [
        ("{}", "malformed classifier: "),
        ("[]", "malformed classifier: "),
        (json.dumps({**_MODEL, "layout_id": "other-242"}),
         "classifier layout 'other-242'"),
        (json.dumps({**_MODEL, "weights": []}), "classifier weight shapes"),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM]}),
         "malformed classifier: dims"),
        (json.dumps({**_MODEL, "weights": [_MODEL["weights"][0],
                                           [math.nan] * 3,
                                           *_MODEL["weights"][2:]]}),
         "classifier weights must be finite"),
        ("not json", "malformed classifier: "),
        ('{"a": ' * 200_000 + "0" + "}" * 200_000, "malformed classifier: "),
        (json.dumps({**_MODEL, "weights": [[[1.0], [1.0, 2.0]],
                                           *_MODEL["weights"][1:]]}),
         "malformed classifier: "),
        (json.dumps({**_MODEL, "weights": [_MODEL["weights"][0], ["a"] * 3,
                                           *_MODEL["weights"][2:]]}),
         "malformed classifier: "),
        (json.dumps({**_MODEL, "weights": [_MODEL["weights"][0],
                                           [10 ** 400] * 3,
                                           *_MODEL["weights"][2:]]}),
         "malformed classifier: "),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM, 3, 3, 3]}),
         "malformed classifier: dims"),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM, 3, 3, 2, 2]}),
         "malformed classifier: dims"),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM, 0, 3, 2]}),
         "malformed classifier: dims"),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM, 3.0, 3, 2]}),
         "malformed classifier: dims"),
        (json.dumps({**_MODEL, "dims": [FEATURE_DIM, True, 3, 2]}),
         "malformed classifier: dims"),
        (MlpClassifier(3, 2, 2).to_json(),
         "malformed classifier: dims [3, 2, 2, 2]"),
        (json.dumps({**_MODEL, "weights": [*_MODEL["weights"][:-1],
                                           [True, False]]}),
         "malformed classifier: every weight must be a JSON number"),
        (json.dumps({**_MODEL, "weights": [*_MODEL["weights"][:-1],
                                           [0.5, True]]}),
         "malformed classifier: every weight must be a JSON number"),
        (json.dumps({**_MODEL, "weights": [*_MODEL["weights"][:-1],
                                           ["0.5", "1e3"]]}),
         "malformed classifier: every weight must be a JSON number"),
        (json.dumps({**_MODEL, "seed": {"x": [1]}}),
         "malformed classifier: seed {'x': [1]} is not an int"),
        (json.dumps({**_MODEL, "seed": 1.0}),
         "malformed classifier: seed 1.0 is not an int"),
        (json.dumps({**_MODEL, "seed": True}),
         "malformed classifier: seed True is not an int"),
        (json.dumps({**_MODEL, "seed": -5}), "seed -5 is negative"),
    ], ids=["empty", "not-object", "other-layout", "no-weights", "short-dims",
            "nan-weight", "not-json", "deep", "ragged-weights",
            "non-numeric-weight", "overflowing-weight", "dims-not-ending-in-2",
            "long-dims", "zero-dim", "float-dim", "bool-dim", "short-input",
            "bool-weights", "bool-among-weights", "numeric-string-weight",
            "object-seed", "float-seed", "bool-seed", "negative-seed"])
    def test_bad_model_is_data_error(self, tmp_path, capsys, model, where):
        corpus, bad = tmp_path / "c.jsonl", tmp_path / "m.json"
        assert run(["synth", "--turns", "2", "--out", str(corpus)]) == 0
        bad.write_text(model)
        assert run(["score", "--corpus", str(corpus), "--model",
                    str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"prosogate score: error: {bad}: " in err
        assert where in err

    @pytest.mark.parametrize("flag", ["--corpus", "--grammar", "--proposed"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, flag):
        from prosogate import demo_corpus_text
        gold, bad = tmp_path / "gold.jsonl", tmp_path / "bad"
        gold.write_text(demo_corpus_text())
        bad.write_bytes(b"\xff\xfe{}\n")
        command = (["eval", "--gold", str(gold)] if flag == "--proposed"
                   else ["parse"])
        assert run([*command, flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and "can't decode byte 0xff" in err

    def test_underflowing_model_scores_finite(self, tmp_path, capsys):
        corpus, model = tmp_path / "c.jsonl", tmp_path / "m.json"
        scored = tmp_path / "s.jsonl"
        assert run(["synth", "--turns", "4", "--out", str(corpus)]) == 0
        model.write_text(json.dumps(
            {**_MODEL, "weights": [*_MODEL["weights"][:-1], [-1000.0] * 2]}))
        capsys.readouterr()
        assert run(["score", "--corpus", str(corpus), "--model", str(model),
                    "--out", str(scored)]) == 0
        assert capsys.readouterr().err == ""
        for turn in loads_corpus(scored.read_text()):
            assert all(math.isfinite(s) for s in turn.gap_scores)
        assert run(["parse", "--corpus", str(scored)]) == 0

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "2"], ["train", "--learning-rate", "0.1"],
        ["train", "--hidden1", "8"], ["train", "--hidden2", "4"],
        ["parse", "--mode", "rank", "--rank-limit", "1"],
    ], ids=["epochs", "learning-rate", "hidden1", "hidden2", "rank-limit"])
    def test_fixed_setting_flag_is_usage_error(self, tmp_path, capsys, argv):
        # the training recipe and rank mode's N are module constants
        out = tmp_path / "out"
        command, *flags = argv
        extra = (["--corpus", str(tmp_path / "c.jsonl")]
                 if command == "train" else [])
        assert run([command, *extra, "--out", str(out), *flags]) == 1
        assert not out.exists()
        assert f"unrecognized arguments: {' '.join(flags[-2:])}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, command):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "out"
        assert run(["synth", "--turns", "2", "--out", str(corpus)]) == 0
        read = ["--corpus", str(corpus)] if command == "train" else []
        assert run([command, *read, "--seed", "-5", "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"prosogate {command}: error: seed -5 is negative: a seed "
                f"must be a non-negative integer") in capsys.readouterr().err

    def test_syllable_outside_turn_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"id": "a", ' + _with_syllable(word=2) + '}\n')
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert (f"{bad}: line 1: turn 'a': syllables reference words [2] "
                f"outside 1..1") in capsys.readouterr().err

    @pytest.mark.parametrize("missing, message", [
        ("syllables", "turn 'u' has no syllables"),
        ("s3_labels", "turn 'u': training needs s3_labels"),
    ], ids=["syllables", "s3_labels"])
    def test_training_turn_without_syllables_or_labels_is_data_error(
            self, tmp_path, capsys, missing, message):
        corpus, model = tmp_path / "c.jsonl", tmp_path / "m.json"
        turns = [_valid_turn(2), {**_valid_turn(1), "id": "u"}]
        del turns[1][missing]
        corpus.write_text("".join(json.dumps(t) + "\n" for t in turns))
        assert run(["train", "--corpus", str(corpus), "--out",
                    str(model)]) == 2
        assert not model.exists()
        assert (f"prosogate train: error: {corpus}: {message}\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("model", ["valid", "missing"])
    def test_score_turn_without_syllables_names_corpus(self, tmp_path,
                                                       capsys, model):
        # the corpus is checked in full before the model is read
        corpus, path = tmp_path / "c.jsonl", tmp_path / "m.json"
        out = tmp_path / "s.jsonl"
        turns = [_valid_turn(2), {**_valid_turn(1), "id": "u"}]
        del turns[1]["syllables"]
        corpus.write_text("".join(json.dumps(t) + "\n" for t in turns))
        if model == "valid":
            path.write_text(json.dumps(_MODEL))
        assert run(["score", "--corpus", str(corpus), "--model", str(path),
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"prosogate score: error: {corpus}: turn 'u' has no "
                f"syllables\n" == capsys.readouterr().err)

    @pytest.mark.parametrize("labels, absent", [
        (["S3?", "S3?"], "S3+ and no S3-"),
        (["S3+", "S3?"], "S3-"),
    ], ids=["all-S3?", "all-labelled-S3+"])
    def test_training_corpus_without_both_classes_is_data_error(
            self, tmp_path, capsys, labels, absent):
        corpus, model = tmp_path / "c.jsonl", tmp_path / "m.json"
        turn = {**_valid_turn(2), "s3_labels": labels}
        corpus.write_text(json.dumps(turn) + "\n")
        assert run(["train", "--corpus", str(corpus), "--out",
                    str(model)]) == 2
        assert not model.exists()
        assert (f"prosogate train: error: {corpus}: training needs both an "
                f"S3+ gap and an S3- gap (S3? gaps are held out); there is "
                f"no {absent} gap\n") == capsys.readouterr().err

    def test_report_without_a_gold_turn_is_data_error(self, tmp_path, capsys):
        from prosogate import demo_corpus_text
        gold, report = tmp_path / "gold.jsonl", tmp_path / "r.json"
        gold.write_text(demo_corpus_text())
        assert run(["parse", "--corpus", str(gold), "--format", "json",
                    "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        dropped = doc["turns"].pop(1)["id"]
        report.write_text(json.dumps(doc))
        assert run(["eval", "--gold", str(gold), "--proposed",
                    str(report)]) == 2
        assert f"{report}: turn {dropped!r} missing from the report" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("report, message", [
        ("{}", "not a parse report"), ("[]", "not a parse report"),
        ('{"turns": [{"id": "d01"}]}', "not a parse report"),
        ('{"turns": [{"id": "d01", "proposed_sites": 5}]}',
         "not a parse report"),
        ('{"turns": [{"id": "d01", "proposed_sites": [0, "a"]}]}',
         "not a parse report: turn 'd01'"),
        ('{"turns": [{"id": "d01", "proposed_sites": [true]}]}',
         "not a parse report: turn 'd01'"),
        ('{"turns": [{"id": "d01", "proposed_sites": [0, 5]}]}',
         "turn 'd01' proposes sites [0] outside its gaps 1..5"),
        ('{"turns": [{"id": "d01", "proposed_sites": [99]}]}',
         "turn 'd01' proposes sites [99] outside its gaps 1..5"),
        ("not json", "not a parse report: JSONDecodeError('Expecting value"),
        ("[" * 200_000 + "]" * 200_000, "not a parse report: RecursionError("),
        ('{"turns": [{"id": "d01", "proposed_sites": [' + "1" * 5000 + "]}]}",
         "not a parse report: ValueError('Exceeds the limit"),
        ('{"turns": [{"id": "d01", "proposed_sites": [1]}, '
         '{"id": "d01", "proposed_sites": [2]}]}',
         "not a parse report: turn 'd01' is listed twice")],
        ids=["no-turns", "not-object", "no-sites", "sites-not-list",
             "site-not-int", "site-bool", "site-zero", "site-past-end",
             "not-json", "deep", "5000-digit-int", "turn-twice"])
    def test_bad_report_is_data_error(self, tmp_path, capsys, report,
                                      message):
        from prosogate import demo_corpus_text
        gold, bad = tmp_path / "gold.jsonl", tmp_path / "r.json"
        gold.write_text(demo_corpus_text())
        bad.write_text(report)
        assert run(["eval", "--gold", str(gold), "--proposed",
                    str(bad)]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_success(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["parse", "--format", "json", "--out", str(out)]) == 0
        assert out.exists()


# The pinned digests hold on the toolchain they were taken on; elsewhere a
# different digest may mean a different host, not a defect.
TOOLCHAIN = "CPython 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31"


def _toolchain_note(what):
    return (f"{what} changed; it was pinned on {TOOLCHAIN}, and this run has "
            f"CPython {platform.python_version()}, numpy {np.__version__}")


def _sha256(data):
    return hashlib.sha256(
        data if isinstance(data, bytes) else data.encode()).hexdigest()


def _synth_and_train(tmp, seed):
    """The corpus `synth --seed S` writes and the model `train --seed S`
    fits to it."""
    corpus, model = tmp / f"c{seed}.jsonl", tmp / f"m{seed}.json"
    assert run(["synth", "--seed", str(seed), "--out", str(corpus)]) == 0
    assert run(["train", "--corpus", str(corpus), "--seed", str(seed),
                "--out", str(model)]) == 0
    return corpus, model


@pytest.fixture(scope="module")
def seed_42(tmp_path_factory):
    return _synth_and_train(tmp_path_factory.mktemp("seed-42"), 42)


def _synth(tmp_path_factory, *flags):
    """The corpus `synth` writes with these flags."""
    corpus = tmp_path_factory.mktemp("synth") / "c.jsonl"
    assert run(["synth", *flags, "--out", str(corpus)]) == 0
    return corpus


@pytest.fixture(scope="session")
def corpus_7_300(tmp_path_factory):
    return _synth(tmp_path_factory, "--seed", "7", "--turns", "300")


@pytest.fixture(scope="session")
def corpus_3_v2(tmp_path_factory):
    return _synth(tmp_path_factory, "--seed", "3", "--turns", "500",
                  "--v2-only")


# Unchanged behaviour, artefact by artefact: `parse --format json` without
# `elapsed_ms`, `bench --format json` without its timings and `speedup`,
# every `extract_pred_arg` record of every gate-off reading, the seed-42
# and seed-7 models, the turn lines of three `synth` corpora (their
# `_meta` line, which records the settings, dropped), the seed-42 corpus
# after `score` (which rounds scores, so the models' own digests are what
# pin each weight), and `rank --format json` of the seed-3 corpus. A
# change that moves one of them on purpose updates its digest and says
# why.
BEHAVIOUR_DIGESTS = {
    "model seed-42":
        "ad7921ea6c2fb68854d2920fd6cb560f1dc376f262bd96356b115420a0d3af69",
    "model seed-7":
        "cf31e4e24aeb89c62f115eed920371564362a81009d34e272b0fedc513de684d",
    "parse off demo":
        "0bae16defce942ffbd139a0911aebc7164cb12cbc5c2ce3f5d7955d22e43ddb0",
    "parse threshold demo":
        "7b870cdae269ef55c8bdbe12ffdcb2b6e9eb4ce3b4dadddfeeb5a0638f8625d6",
    "parse rank demo":
        "8a0c6bd90457670a2e480718d04b20a1fa4ff199f1d03163031289f55d634eee",
    "bench demo":
        "4779658d616ed29adf4639f15a7c541fb63980693c89840cfeb0f90306ea8c07",
    "pred-arg demo":
        "0eb4f565d5432b9a7396283f251e0ee49438dc1d29ba64624a6f055ede7ba5ca",
    "parse off seed-42":
        "794a9feeb6bc8eb141b3f5e4ff0ed336142758095d51081bebd320336b3a48da",
    "parse threshold seed-42":
        "2bd7a6864b61995d47fa8877bac93e4cd784c9304bfe734c129d6067a8c43f29",
    "parse rank seed-42":
        "3170524c9a9320326af7e817e540912b76bd9c6c962f0144062aafa3ba454aa9",
    "bench seed-42":
        "31615a8208ef3a62b19fdd0dedd4cd65d962b07bf80a1124599c2bf78e7b45b6",
    "pred-arg seed-42":
        "4a50d46c6108a6962d62f727ce4e1c0727613d9379d6fbc41b1c2b7b88732646",
    "parse off seed-7":
        "894c63f17a6a4f3187459391f155ca13b7680908b114edd5ecf68980fbc84493",
    "parse threshold seed-7":
        "49bed8df17b5f72416471ed3143647c65ec2f17e77aca46901db7d4eb6374445",
    "parse rank seed-7":
        "c14bb364369e64b20ddd8f4a23c4d750ee41e9144662ee766323229fbea63c62",
    "bench seed-7":
        "8d62764cba2fcce5569f299c8ee5b1e2726c1414700e08943d2f1f10960b2597",
    "pred-arg seed-7":
        "f2cfe0e080f4f77b9207457b7db9725e61950af1f7d2dfdd1cedf113fc1177fb",
    "score seed-42":
        "d25685fa1143bc5765a36dec3152683e23ae9fc98f350299f5c3d823887e6e59",
    "synth seed-42":
        "21e3d1a1410fe22293ba7ff9bcfe05d115f8b2a33d2d132181ed4f992af71184",
    "synth seed-7":
        "2588a2076fa8f6a7b39036bb55b512a4487b64ff230d54d8ba87e4ca0022c2c4",
    "synth seed-3":
        "b0a1c5587f14051764fbbb3486d7fe9eca09b3c3657c62079d113973f597b0a4",
    "rank seed-3":
        "4c0059b02a1d01bb343053b155c66b64226af3a4f8e164b40bbe7c13650243fa",
}

# The same for the text reports and for `eval` in both formats:
# `parse --format text` in each mode, `bench --format text` without its
# five timing lines, `eval` of the seed-42 gold against the seed-42
# threshold-mode parse report, and `rank --format text` of the seed-3
# corpus.
REPORT_DIGESTS = {
    "parse text off demo":
        "9da75f6737fe2000dfe113f3d501a350c4e8ff12693e98e05e9166c0ca416cf7",
    "parse text threshold demo":
        "5612a0f82b2a546a827eebd85d61fc794fadc1b45f11e4cd6bd8c49588227add",
    "parse text rank demo":
        "152a0ffc3cae8643bc93018c32cd85442b1e6aabb6c94336e48d767570f0e3d0",
    "bench text demo":
        "6528bed0d7029ceb725aa01a8c4cfb63d6671c5a5446a97efee38ff773ddd274",
    "parse text off seed-42":
        "c5a2587147fe2bf212caa6257611af3f6b7515cdf1ca15e11920ee46c7e3045f",
    "parse text threshold seed-42":
        "9a0435e9c4f03944c82e024da43be469e61d26c122731222267ef2096a78c095",
    "parse text rank seed-42":
        "12a958a4fabff92d62a4379107557f883a12061359803149ce97cc9052ae62aa",
    "bench text seed-42":
        "7d76ad9a1bd09232b59358ec2bd225027e2c62b71d4cde2413bcf56505f81212",
    "eval text seed-42":
        "2739e0a5c426f677504ae695dd7cceaaada1f37ce8cacf7ad2b63bb367e4d3cc",
    "eval json seed-42":
        "a792fc3c6a5c44696d0571cb74c7a0f5bc470e9d9eaabdcb4cfb143f00613a10",
    "rank text seed-3":
        "8cb010bc003dfb138a0acb05014b3beefb312218fe13ab0a0d2fc4a87d6d20a7",
}

# The charts themselves, corpus by corpus and mode by mode: every edge's
# id, span, kind, entry id, leaf-structure mask (`shares`), canonical
# category and derivations, in chart order. The fixed turn repeats a V2
# verb, so two of its lexical edges license the empty edge at its last
# gap, which is placed once.
CHART_DIGESTS = {
    "chart off demo":
        "e18abc1d6d5fa9860203c1a2128fb5da9e80f6f081ac850627067a572a03955e",
    "chart threshold demo":
        "a979deb872983596aef12b6e298612c5619c2a4695b09f44727230179501fb9f",
    "chart rank demo":
        "706fb11c4abd6353614b13018e2b09502466435796ad7c3d6e815db7aeaa6743",
    "chart off seed-42":
        "3fd99e66d4e5279b86399d668a72814a89170912720801ff187d68be76553766",
    "chart threshold seed-42":
        "725ac13c50a80837bb968aa9408fc17df6e313f369f64c31d2c505dcd2feac1a",
    "chart rank seed-42":
        "17760a597cb340efab6a4067f68794783c4bf4d308c6782e0442dbe3944469f9",
    "chart off seed-7":
        "21e68cda0348a556b354affb0ff0d9612f83b00d783d4cacd54b90ba6a922fdd",
    "chart threshold seed-7":
        "9884518be3ce7a61512086e5b6720421cec138a0e15ccf1418855bfde121d3d2",
    "chart rank seed-7":
        "262b7784135543783c2a5dda049fb6eefb9e389567915a0b97e92716acf46c0c",
    "chart off fixed":
        "2a15397bd4bac54967cf9b053fa309f192b439e442266e0bcd9c4403defd556d",
    "chart threshold fixed":
        "cf1f32eaeb16f53973e7234d59b1af5cec21da6255a34f960c4533b6c41e4260",
    "chart rank fixed":
        "407ee20c1dcbe4ff5e16677875e21dd08e31f9be89d0dc8265fa8fba2471d217",
}
FIXED_TURN = TurnRecord(turn_id="fixed",
                        words=["sollst", "er", "schlief", "sollst"],
                        gap_scores=[0.2, 0.005, 0.6, 0.9])


def _chart_digest(turns, grammar, config):
    return _sha256(repr([
        [(e.edge_id, e.start, e.end, e.kind,
          e.entry.entry_id if e.entry else None, e.shares,
          fs.canonical(e.category),
          [(schema.name, left, right) for schema, left, right in e.derivations])
         for e in parse(turn, grammar, config).edges]
        for turn in turns]))


class TestCliPipeline:
    def test_parse_report_shape(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["parse", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["tool_version"]
        turn = report["turns"][0]
        assert set(turn) == {"id", "readings", "proposed_sites", "statistics"}
        ids = [t["id"] for t in report["turns"]]
        assert ids == sorted(ids)

    def test_parse_report_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["parse", "--format", "json", "--out", str(out)])
            report = json.loads(out.read_text())
            for t in report["turns"]:
                t["statistics"].pop("elapsed_ms")
            outs.append(report)
        assert outs[0] == outs[1]

    def test_synth_train_score_round(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        model = tmp_path / "m.json"
        scored = tmp_path / "s.jsonl"
        assert run(["synth", "--turns", "12", "--out", str(corpus)]) == 0
        assert run(["train", "--corpus", str(corpus), "--out",
                    str(model)]) == 0
        assert run(["score", "--corpus", str(corpus), "--model", str(model),
                    "--out", str(scored)]) == 0
        rescored = loads_corpus(scored.read_text())
        for turn in rescored:
            assert len(turn.gap_scores) == len(turn.words)

    def test_seed_42_model_digest(self, seed_42):
        # Unchanged behaviour: the weights trained for a seed are fixed.
        _, model = seed_42
        assert _sha256(model.read_bytes()) == BEHAVIOUR_DIGESTS[
            "model seed-42"], _toolchain_note("seed-42 model digest")

    def test_seed_42_model_has_no_negative_zero(self, seed_42):
        # the invariant that keeps a BLAS outer product's +0.0 (where
        # np.outer gives -0.0) from moving a weight; JSON keeps the sign
        _, model = seed_42
        for p in load_file(model, MlpClassifier.from_json).params:
            assert not (np.signbit(p) & (p == 0)).any()

    def test_behaviour_digests(self, seed_42, corpus_7_300, corpus_3_v2,
                               tmp_path, grammar, demo_corpus):
        corpus_42, model = seed_42
        out = tmp_path / "out"
        corpora = {"demo": None, "seed-42": corpus_42, "seed-7": corpus_7_300}
        _, model_7 = _synth_and_train(tmp_path, 7)
        digests = {"model seed-42": _sha256(model.read_bytes()),
                   "model seed-7": _sha256(model_7.read_bytes())}
        for name, path in corpora.items():
            flags = ["--corpus", str(path)] if path else []
            for mode in ("off", "threshold", "rank"):
                assert run(["parse", "--format", "json", "--mode", mode,
                            *flags, "--out", str(out)]) == 0
                report = json.loads(out.read_text())
                for turn in report["turns"]:
                    del turn["statistics"]["elapsed_ms"]
                digests[f"parse {mode} {name}"] = _sha256(
                    json.dumps(report, sort_keys=True, indent=2))
            assert run(["bench", "--format", "json", *flags,
                        "--out", str(out)]) == 0
            report = {k: v for k, v in json.loads(out.read_text()).items()
                      if not k.startswith(("overall_", "average_", "speedup"))}
            digests[f"bench {name}"] = _sha256(json.dumps(report,
                                                          sort_keys=True))
            turns = load_file(path, loads_corpus) if path else demo_corpus
            results = ((turn.turn_id,
                        parse(turn, grammar, ParseConfig(mode="off")))
                       for turn in turns)
            records = [(turn_id, i, extract_pred_arg(result, i))
                       for turn_id, result in results
                       for i in range(len(result.readings))]
            digests[f"pred-arg {name}"] = _sha256(repr(records))
        assert run(["score", "--corpus", str(corpus_42), "--model", str(model),
                    "--out", str(out)]) == 0
        digests["score seed-42"] = _sha256(out.read_bytes())
        assert run(["rank", "--format", "json", "--corpus", str(corpus_3_v2),
                    "--out", str(out)]) == 0
        digests["rank seed-3"] = _sha256(out.read_bytes())
        for name, path in (("seed-42", corpus_42), ("seed-7", corpus_7_300),
                           ("seed-3", corpus_3_v2)):
            _meta, turns = path.read_text().split("\n", 1)
            digests[f"synth {name}"] = _sha256(turns)
        assert digests == BEHAVIOUR_DIGESTS, _toolchain_note(
            "a behaviour digest")

    def test_report_digests(self, seed_42, corpus_3_v2, tmp_path):
        corpus_42, _ = seed_42
        out = tmp_path / "out"
        digests = {}
        for name, path in {"demo": None, "seed-42": corpus_42}.items():
            flags = ["--corpus", str(path)] if path else []
            for mode in ("off", "threshold", "rank"):
                assert run(["parse", "--format", "text", "--mode", mode,
                            *flags, "--out", str(out)]) == 0
                digests[f"parse text {mode} {name}"] = _sha256(
                    out.read_bytes())
            assert run(["bench", "--format", "text", *flags,
                        "--out", str(out)]) == 0
            lines = out.read_text().splitlines(keepends=True)
            digests[f"bench text {name}"] = _sha256("".join(
                line for line in lines
                if not line.startswith(("overall ", "average ", "speedup"))))
        report = tmp_path / "r42.json"
        assert run(["parse", "--format", "json", "--mode", "threshold",
                    "--corpus", str(corpus_42), "--out", str(report)]) == 0
        for fmt in ("text", "json"):
            assert run(["eval", "--format", fmt, "--gold", str(corpus_42),
                        "--proposed", str(report), "--out", str(out)]) == 0
            digests[f"eval {fmt} seed-42"] = _sha256(out.read_bytes())
        assert run(["rank", "--format", "text", "--corpus", str(corpus_3_v2),
                    "--out", str(out)]) == 0
        digests["rank text seed-3"] = _sha256(out.read_bytes())
        assert digests == REPORT_DIGESTS, _toolchain_note("a report digest")

    def test_chart_digests(self, seed_42, corpus_7_300, grammar,
                           demo_corpus):
        corpora = {"demo": demo_corpus,
                   "seed-42": load_file(seed_42[0], loads_corpus),
                   "seed-7": load_file(corpus_7_300, loads_corpus),
                   "fixed": [FIXED_TURN]}
        digests = {f"chart {mode} {name}": _chart_digest(
                       turns, grammar, ParseConfig(mode=mode))
                   for name, turns in corpora.items()
                   for mode in ("off", "threshold", "rank")}
        assert digests == CHART_DIGESTS, _toolchain_note("a chart digest")

    def test_synth_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["synth", "--turns", "6", "--seed", "7", "--out", str(a)])
        run(["synth", "--turns", "6", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_eval_against_parse_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        run(["parse", "--format", "json", "--out", str(report)])
        gold = tmp_path / "gold.jsonl"
        from prosogate import demo_corpus_text
        gold.write_text(demo_corpus_text())
        assert run(["eval", "--gold", str(gold), "--proposed", str(report),
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["miss"] == 0
        assert payload["metrics"]["recall"] == 1.0

    def test_rank_subcommand(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run(["synth", "--turns", "10", "--v2-only", "--out", str(corpus)])
        assert run(["rank", "--corpus", str(corpus), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 10
        assert sum(payload["counts"].values()) == 10

    def test_rank_requires_single_gold_gap(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run(["synth", "--turns", "10", "--out", str(corpus)])
        assert run(["rank", "--corpus", str(corpus)]) == 2

    @pytest.mark.parametrize("fields, message", [
        ('"gap_scores": [0.5, 0.5]',
         "turn 'a': rank experiment needs exactly one gold trace gap, got 0"),
        ('"gap_scores": [0.5, 0.5], "gold_traces": [1, 2]',
         "turn 'a': rank experiment needs exactly one gold trace gap, got 2"),
        ('"gold_traces": [2]', "turn 'a': no gap scores")],
        ids=["no-gold", "two-gold", "no-scores"])
    def test_rank_rejects_sentence_it_cannot_rank(self, tmp_path, capsys,
                                                  fields, message):
        # rank_experiment assumes one scored gold gap per sentence; the
        # rank command is where that rule is enforced
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "words": ["x", "y"], ' + fields + "}\n")
        assert run(["rank", "--corpus", str(corpus)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ('"gap_scores": [0.5, 0.5]',
         "turn 'a': rank experiment needs exactly one gold trace gap, got 0"),
        ('"gold_traces": [2]', "turn 'a': no gap scores")],
        ids=["no-gold", "no-scores"])
    def test_rank_error_names_corpus(self, tmp_path, capsys, fields,
                                     message):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "b", "words": ["x"], "gap_scores": [0.5], '
                          '"gold_traces": [1]}\n'
                          '{"id": "a", "words": ["x", "y"], ' + fields + "}\n")
        assert run(["rank", "--corpus", str(corpus)]) == 2
        assert (f"prosogate rank: error: {corpus}: {message}\n"
                == capsys.readouterr().err)

    def test_eval_text_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["parse", "--format", "json", "--out", str(report)]) == 0
        gold = tmp_path / "gold.jsonl"
        from prosogate import demo_corpus_text
        gold.write_text(demo_corpus_text())
        capsys.readouterr()
        assert run(["eval", "--gold", str(gold), "--proposed",
                    str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in lines] == [
            "correct", "false alarm", "miss", "reject", "recall",
            "precision", "error"]
        assert "recall       100.0 %" in lines

    def test_rank_text_report(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        assert run(["synth", "--turns", "10", "--v2-only", "--out",
                    str(corpus)]) == 0
        assert run(["rank", "--corpus", str(corpus)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank  sentences"
        assert lines[-1] == "total 10"
        assert sum(int(line.split()[1]) for line in lines[1:-1]) == 10

    def test_bench_json_report(self, capsys):
        assert run(["bench", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        fields = {f.name for f in dataclasses.fields(BenchReport)}
        assert set(payload) == fields | {"tool_version"}
        assert payload["turn_count"] == 22
        assert payload["empty_edges_with"] < payload["empty_edges_without"]

    def test_bench_text_report(self, capsys):
        assert run(["bench"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "empty edges" in out


# The long options of each subcommand: exactly those its handler reads.
CLI_FLAGS = {
    "synth": {"--seed", "--out", "--turns", "--separation", "--v2-only"},
    "train": {"--seed", "--out", "--corpus"},
    "score": {"--out", "--corpus", "--model"},
    "parse": {"--format", "--out", "--grammar", "--corpus", "--mode",
              "--threshold"},
    "eval": {"--format", "--out", "--gold", "--proposed"},
    "rank": {"--format", "--out", "--corpus"},
    "bench": {"--format", "--out", "--grammar", "--corpus", "--threshold"},
}


def test_cli_surface():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in p._actions for s in a.option_strings
                    if s.startswith("--") and s != "--help"}
             for name, p in sub.choices.items()}
    assert flags == CLI_FLAGS
