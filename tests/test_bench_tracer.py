"""The benchmark tracer (perfbench/tracing.py) patches program functions
by name, and the benchmark's workloads (perfbench/workloads.py) import
and call them; renaming or inlining one of them must fail here, not only
in a benchmark run."""

import sys
from pathlib import Path

import numpy as np

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
        clf = mlp.train(data, mlp.TrainConfig(epochs=3, hidden1=2, hidden2=2))
    presented = sum(n for entry in clf.train_log
                    for n in entry["presented"].values())
    assert presented == 3 * 2 * 12
    assert block["mlp.gradients_calls"] == presented
    assert block["mlp.train_calls"] == 1


def test_benchmark_workloads_run():
    ungated = workloads.setup_parse(0, demo_corpus_text(), gated=False)
    op = workloads.parse_pass(ungated, workloads.UNGATED[0])
    assert None not in op.outputs
    # the gated set-up trains and scores: it needs syllables and labels
    text = corpus.dumps_corpus(synth.synth_corpus(seed=0, turns=8))
    gated = workloads.setup_parse(0, text, gated=True)
    op = workloads.parse_pass(gated, workloads.GATED[0])
    assert len(op.outputs) == 8 and None not in op.outputs
