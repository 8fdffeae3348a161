"""The benchmark tracer (perfbench/tracing.py) patches program functions
by name, and the benchmark's workloads (perfbench/workloads.py) import
and call them; renaming or inlining one of them must fail here, not only
in a benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

from prosogate import chart, corpus, demo_corpus_text, fs, mlp, synth, \
    grammar as grammar_module
from prosogate.chart import ParseConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import tracing  # noqa: E402  (no __pycache__ left in perfbench/)
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode


def test_tracer_targets_resolve_and_restore(grammar, demo_corpus):
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    turn = next(t for t in demo_corpus if t.turn_id == "d01")
    tracer = tracing.Tracer()
    tracer.name_schemata(grammar.schemata)
    with tracer.installed():
        for (owner, attr, _, _), original in zip(tracing.TARGETS, originals):
            assert getattr(owner, attr) is not original, attr
        with tracer.root("bench.op") as block:
            chart.parse(turn, grammar, ParseConfig(mode="off"))
    assert block["grammar.apply_calls"] > 0
    assert block["fs.unify_nodes"] > 0
    assert block["fs.resolve_nodes"] > 0
    # at most one packing key per derived add: leaf edges are keyed by
    # entry, and a derived edge only once another of its span shares its
    # summary vector (d01 has no such collision)
    assert block.get("fs.canonical_calls", 0) <= sum(
        n for key, n in block.items()
        if key.startswith("grammar.apply_successes."))
    for (owner, attr, _, _), original in zip(tracing.TARGETS, originals):
        assert getattr(owner, attr) is original, attr
    assert grammar_module.copy_fs is fs.copy_fs


def test_traced_training_counts_one_gradients_call_per_step():
    # the benchmark's mlp.sgd_steps is the count of gradients calls
    rng = np.random.default_rng(0)
    data = [(rng.normal(size=4), "S3+") for _ in range(5)]
    data += [(rng.normal(size=4), "S3-") for _ in range(12)]
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("bench.setup") as block:
        clf = mlp.train(data)
    presented = sum(n for entry in clf.train_log
                    for n in entry["presented"].values())
    assert presented == mlp.EPOCHS * 2 * 12
    assert block["mlp.gradients_calls"] == presented
    assert block["mlp.train_calls"] == 1


def test_benchmark_workloads_run():
    """Both workloads set up, run a pass, and pass the benchmark's own
    check: every reading set against the oracle and, gated, the
    ``evaluation.bench`` agreement check."""
    ungated = workloads.setup_parse(0, demo_corpus_text(), gated=False)
    op = workloads.parse_pass(ungated, workloads.UNGATED[0])
    assert None not in op.outputs
    # the gated set-up trains and scores: it needs syllables and labels
    text = corpus.dumps_corpus(synth.synth_corpus(seed=0, turns=8))
    gated = workloads.setup_parse(0, text, gated=True)
    gated_op = workloads.parse_pass(gated, workloads.GATED[0])
    assert len(gated_op.outputs) == 8 and None not in gated_op.outputs
    for state, ops, configs in ((ungated, [op], workloads.UNGATED),
                                (gated, [gated_op], workloads.GATED)):
        result, info = workloads.Result(), {}
        workloads.check_parse(state, ops, configs, result, info)
        assert result.attempted > 0
        assert result.failed == 0, result.problems


# The counter block of one traced pass over the benchmark's seed-42
# corpus: gate off, and threshold 0.01 on the corpus's own gap scores.
# Every count is an operation count of the parser, so a change that
# claims to leave the work unchanged must leave these unchanged. The
# fs.*_nodes counts are calls: they leave out the nodes a walker handles
# inline, so a new fast path lowers them without changing the work.
# chart.add_calls counts derived edges added or packed; leaves are
# placed without Chart.add.
PASS_COUNTERS = {
    "ungated": {
        "chart.add_calls": 972, "chart.add_packed": 32,
        "chart.edges_derived": 940, "chart.edges_empty": 421,
        "chart.edges_lexical": 639, "chart.parse_calls": 104,
        "chart.proposed_sites": 498, "chart.readings": 125,
        "fs.canonical_calls": 84, "fs.copy_calls": 90, "fs.copy_nodes": 3444,
        "fs.resolve_calls": 972, "fs.resolve_nodes": 16110,
        "fs.unify_calls": 2548, "fs.unify_failures": 302,
        "fs.unify_nodes": 24233, "grammar.apply_attempts.0.head-subject": 254,
        "grammar.apply_attempts.1.head-complement": 521,
        "grammar.apply_attempts.2.head-complement": 29,
        "grammar.apply_attempts.3.head-complement": 49,
        "grammar.apply_attempts.4.head-complement": 7,
        "grammar.apply_attempts.5.head-adjunct": 100,
        "grammar.apply_attempts.6.v2-selection": 297,
        "grammar.apply_attempts.7.filler-head": 17,
        "grammar.apply_calls": 1274,
        "grammar.apply_successes.0.head-subject": 254,
        "grammar.apply_successes.1.head-complement": 273,
        "grammar.apply_successes.2.head-complement": 29,
        "grammar.apply_successes.3.head-complement": 49,
        "grammar.apply_successes.4.head-complement": 7,
        "grammar.apply_successes.5.head-adjunct": 100,
        "grammar.apply_successes.6.v2-selection": 243,
        "grammar.apply_successes.7.filler-head": 17},
    "gated": {
        "chart.add_calls": 893, "chart.add_packed": 32,
        "chart.edges_derived": 861, "chart.edges_empty": 213,
        "chart.edges_lexical": 639, "chart.parse_calls": 104,
        "chart.proposed_sites": 207, "chart.readings": 125,
        "fs.canonical_calls": 84, "fs.copy_calls": 90, "fs.copy_nodes": 3444,
        "fs.resolve_calls": 893, "fs.resolve_nodes": 14501,
        "fs.unify_calls": 2134, "fs.unify_failures": 174,
        "fs.unify_nodes": 20116, "grammar.apply_attempts.0.head-subject": 245,
        "grammar.apply_attempts.1.head-complement": 400,
        "grammar.apply_attempts.2.head-complement": 29,
        "grammar.apply_attempts.3.head-complement": 49,
        "grammar.apply_attempts.4.head-complement": 7,
        "grammar.apply_attempts.5.head-adjunct": 100,
        "grammar.apply_attempts.6.v2-selection": 220,
        "grammar.apply_attempts.7.filler-head": 17,
        "grammar.apply_calls": 1067,
        "grammar.apply_successes.0.head-subject": 245,
        "grammar.apply_successes.1.head-complement": 273,
        "grammar.apply_successes.2.head-complement": 29,
        "grammar.apply_successes.3.head-complement": 49,
        "grammar.apply_successes.4.head-complement": 7,
        "grammar.apply_successes.5.head-adjunct": 100,
        "grammar.apply_successes.6.v2-selection": 173,
        "grammar.apply_successes.7.filler-head": 17},
}


@pytest.mark.parametrize("name", PASS_COUNTERS)
def test_traced_pass_counters_are_pinned(name):
    state = workloads.setup_parse(42, workloads.synth_text(42), gated=False)
    config = {"ungated": workloads.UNGATED, "gated": workloads.GATED}[name][0]
    tracer = tracing.Tracer()
    tracer.name_schemata(state["grammar"].schemata)
    with tracer.installed(), tracer.root("bench.op") as block:
        for turn in state["corpus"]:
            chart.parse(turn, state["grammar"], config)
    del block["_root"]
    assert block == PASS_COUNTERS[name]


# The counter block of one traced set-up on the same corpus: grammar and
# corpus load and, gated, classifier training, re-scoring and scoring
# the gate against gold.
_UNGATED_SETUP = {
    "corpus.bytes": 902745, "corpus.loads_calls": 1, "fs.copy_calls": 12,
    "fs.copy_nodes": 404, "fs.resolve_calls": 29, "fs.resolve_nodes": 272,
    "fs.unify_calls": 11, "fs.unify_nodes": 11}
SETUP_COUNTERS = {
    "ungated": _UNGATED_SETUP,
    "gated": {**_UNGATED_SETUP, "evaluation.score_calls": 1,
              "mlp.classify_calls": 498, "mlp.gradients_calls": 14880,
              "mlp.train_calls": 1, "prosody.extract_calls": 208},
}


@pytest.mark.parametrize("name", SETUP_COUNTERS)
def test_traced_setup_counters_are_pinned(name):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("bench.setup") as block:
        workloads.setup_parse(42, workloads.synth_text(42),
                              gated=name == "gated")
    del block["_root"]
    assert block == SETUP_COUNTERS[name]
