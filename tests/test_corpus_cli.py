import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosogate.cli import run
from prosogate.corpus import (Corpus, CorpusError, TurnRecord, dumps_corpus,
                              loads_corpus)
from prosogate.mlp import MlpClassifier
from prosogate.prosody import (FEATURE_DIM, REGRESSION_LEN, SyllableRecord,
                               extract_features)
from prosogate.synth import synth_corpus


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

    @pytest.mark.parametrize("line", ["{oops", "[" * 100000])
    def test_malformed_json_reports_line(self, line):
        text = '{"id": "a", "words": ["x"]}\n' + line + '\n'
        with pytest.raises(CorpusError, match="line 2: malformed JSON"):
            loads_corpus(text)

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
        '"words": ["x"], "gap_scores": [1' + "0" * 400 + "]",
        _with_syllable(pause_before=-1),
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
    ])
    def test_bad_field_values_rejected(self, fields):
        bad_field = list(json.loads("{" + fields + "}"))[-1]
        with pytest.raises(CorpusError, match="line 1") as info:
            loads_corpus('{"id": "a", ' + fields + '}\n')
        assert bad_field in str(info.value)

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
            vec = extract_features(records, i)
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

    def test_placement_none_has_no_traces(self):
        corpus = synth_corpus(seed=3, turns=10, placement="none")
        assert all(t.gold_traces == [] for t in corpus)

    def test_v2_only_has_one_gold_gap_each(self):
        corpus = synth_corpus(seed=3, turns=10, v2_only=True)
        assert all(len(t.gold_traces) == 1 for t in corpus)

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(turns=0)
        with pytest.raises(ValueError):
            synth_corpus(placement="everywhere")
        with pytest.raises(ValueError):
            synth_corpus(max_words=1)
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
        assert run(["train"]) == 1

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

    def test_edge_cap_error_names_turn(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "q2", "words": ["im", "im"], '
                          '"gap_scores": [0.5, 0.5]}\n')
        assert run(["parse", "--corpus", str(corpus), "--max-edges", "1"]) == 2
        assert "turn 'q2': edge cap 1 exceeded" in capsys.readouterr().err

    def test_unknown_word_error_names_turn(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"id": "q1", "words": ["zzz"], "gap_scores": [0.5]}\n')
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert "turn 'q1': unknown word 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ({"features": []}, "missing 'lexicon'"),
        ({"features": [], "lexicon": [{"orth": "x", "avm": {}}],
          "schemata": []}, "lexicon[0]: 'id'"),
        ({"features": [], "lexicon": [{"id": "x", "avm": {}}],
          "schemata": []}, "lexicon[0]: 'orth'"),
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
    ], ids=["no-lexicon", "entry-without-id", "entry-without-orth",
            "schema-without-name", "not-object", "features-not-list",
            "features-not-strings", "entry-not-object", "unhashable-id",
            "schema-not-object", "daughters-not-list"])
    def test_bad_grammar_is_data_error(self, tmp_path, capsys, doc, where):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps(doc))
        assert run(["parse", "--grammar", str(bad)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        "{}",
        "[]",
        json.dumps({**_MODEL, "layout_id": "other-242"}),
        json.dumps({**_MODEL, "weights": []}),
        json.dumps({**_MODEL, "dims": [FEATURE_DIM]}),
        json.dumps({**_MODEL, "weights": [_MODEL["weights"][0], [math.nan] * 3,
                                          *_MODEL["weights"][2:]]}),
    ], ids=["empty", "not-object", "other-layout", "no-weights", "short-dims",
            "nan-weight"])
    def test_bad_model_is_data_error(self, tmp_path, capsys, model):
        corpus, bad = tmp_path / "c.jsonl", tmp_path / "m.json"
        assert run(["synth", "--turns", "2", "--out", str(corpus)]) == 0
        bad.write_text(model)
        assert run(["score", "--corpus", str(corpus), "--model",
                    str(bad)]) == 2
        assert "classifier" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [
        ["--hidden1", "0"], ["--hidden2", "0"], ["--epochs", "-1"],
        ["--learning-rate", "0"], ["--learning-rate", "nan"],
        ["--learning-rate", "inf"],
    ], ids=["hidden1-0", "hidden2-0", "negative-epochs", "rate-0", "rate-nan",
            "rate-inf"])
    def test_bad_train_setting_is_data_error(self, tmp_path, capsys, flags):
        corpus, model = tmp_path / "c.jsonl", tmp_path / "m.json"
        assert run(["synth", "--turns", "2", "--out", str(corpus)]) == 0
        assert run(["train", "--corpus", str(corpus), "--out", str(model),
                    *flags]) == 2
        assert not model.exists()
        assert "prosogate train: error: " in capsys.readouterr().err

    @pytest.mark.parametrize("report", [
        "{}", "[]", '{"turns": [{"id": "d01"}]}',
        '{"turns": [{"id": "d01", "proposed_sites": 5}]}'],
        ids=["no-turns", "not-object", "no-sites", "sites-not-list"])
    def test_bad_report_is_data_error(self, tmp_path, capsys, report):
        from prosogate import demo_corpus_text
        gold, bad = tmp_path / "gold.jsonl", tmp_path / "r.json"
        gold.write_text(demo_corpus_text())
        bad.write_text(report)
        assert run(["eval", "--gold", str(gold), "--proposed",
                    str(bad)]) == 2
        assert "not a parse report" in capsys.readouterr().err

    def test_success(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["parse", "--format", "json", "--out", str(out)]) == 0
        assert out.exists()


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
        assert run(["train", "--corpus", str(corpus), "--epochs", "2",
                    "--out", str(model)]) == 0
        assert run(["score", "--corpus", str(corpus), "--model", str(model),
                    "--out", str(scored)]) == 0
        rescored = loads_corpus(scored.read_text())
        for turn in rescored:
            assert len(turn.gap_scores) == len(turn.words)

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

    def test_bench_text_report(self, capsys):
        assert run(["bench"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "empty edges" in out
