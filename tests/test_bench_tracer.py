"""The benchmark tracer (perfbench/tracing.py) patches program functions
by name; renaming or inlining one of them must fail here, not only in a
traced benchmark run."""

import sys
from pathlib import Path

from prosogate import chart, fs, grammar as grammar_module
from prosogate.chart import ParseConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import tracing  # noqa: E402  (no __pycache__ left in perfbench/)
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
