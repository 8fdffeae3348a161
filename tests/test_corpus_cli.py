import json

import pytest

from prosogate.cli import run
from prosogate.corpus import (Corpus, CorpusError, TurnRecord, dumps_corpus,
                              loads_corpus)
from prosogate.synth import synth_corpus


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

    def test_malformed_json_reports_line(self):
        text = '{"id": "a", "words": ["x"]}\n{oops\n'
        with pytest.raises(CorpusError, match="line 2"):
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
        with pytest.raises(CorpusError, match="duplicate"):
            loads_corpus(line + line)

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
    ])
    def test_bad_field_values_rejected(self, fields):
        with pytest.raises(CorpusError, match="line 1"):
            loads_corpus('{"id": "a", ' + fields + '}\n')

    def test_empty_word_list(self):
        with pytest.raises(CorpusError, match="empty"):
            TurnRecord(turn_id="a", words=[]).validate()

    def test_meta_line_is_provenance(self):
        corpus = loads_corpus('{"_meta": {"seed": 3}}\n'
                              '{"id": "a", "words": ["x"]}\n')
        assert corpus.provenance == {"seed": 3}
        assert len(corpus) == 1


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

    def test_syllables_align_with_words(self):
        corpus = synth_corpus(seed=4, turns=15)
        for turn in corpus:
            assert len(turn.word_final_syllables()) == len(turn.words)


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

    def test_unknown_word_error_names_turn(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"id": "q1", "words": ["zzz"], "gap_scores": [0.5]}\n')
        assert run(["parse", "--corpus", str(bad)]) == 2
        assert "turn 'q1': unknown word 'zzz'" in capsys.readouterr().err

    def test_bad_grammar_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_text('{"features": []}')
        assert run(["parse", "--grammar", str(bad)]) == 2

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
