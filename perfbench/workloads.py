"""The workloads of the prosogate benchmark, their checks and metrics.

Each workload starts from corpus text made from the seed (not timed), has
a set-up, timed as ``setup_s``, and an operation; the run repeats set-up
then operation, one after another in one process (a closed loop with one
caller), and each operation uses the set-up just before it:

- ``parse-ungated``: one pass over the seeded synthetic corpus with
  every gap proposed for empty heads (the paper's "without prosody"
  condition). Passes alternate gate ``off`` and threshold 0, which must
  agree.
- ``parse-gated``: one pass over the same corpus after set-up has
  trained the boundary classifier with the workload seed and re-scored
  every gap with it, gated at threshold 0.01 ("with prosody").

Every reading set is compared with the brute-force oracle of
``tests/bruteforce.py``, computed once per run after the timed loop.

Every timed piece of work (a set-up, the parse of one turn) is paired
with a probe of the host's speed taken just before it, the reference
copy below, and is reported at reference speed: its seconds times
REFERENCE_S over the probe's. The host this was built on runs identical
work at speeds a third apart for a minute at a time, and the probe
slows with it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from bruteforce import enumerate_readings
from prosogate import (chart, corpus, demo_grammar_text, evaluation, grammar,
                       mlp, synth)
from prosogate.chart import ParseConfig
from prosogate.cli import _training_pairs

from tracing import Tracer

TURNS = 104
THRESHOLD = 0.01
UNGATED = (ParseConfig(mode="off"), ParseConfig(mode="threshold", threshold=0.0))
GATED = (ParseConfig(mode="threshold", threshold=THRESHOLD),)
PAPER = {"seconds_without": 1304.2, "seconds_with": 704.8,
         "sites_without": 1121, "sites_with": 412}


@dataclass
class Op:
    """One timed operation: a pass over the corpus."""
    index: int
    latencies: list  # seconds per turn
    references: list  # seconds of the reference copy just before each turn
    outputs: list  # (sites, readings) per turn; None where an exception hit
    block: dict | None = None  # tracer counters, traced operations only


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# -- the corpus ---------------------------------------------------------

OPEN_CLASS = {**{w: "P" for w in synth.PRONOUNS}, **{w: "A" for w in synth.ADVS},
              **{w: "V" for w in synth.TRANS}, **{w: "D" for w in synth.DETS},
              **{w: "N" for w in synth.NOUNS.values()}}
# (sentence shape, number of S3? gaps) of the turns of `prosogate synth
# --seed 42 --turns 104`. Every seed gets this mix, so the seed picks the
# words within each shape and the acoustics, but not how many long turns
# there are, nor how many ambiguous gaps each shape has: left to synth,
# the shapes alone move an ungated pass by a third between seeds, and the
# ambiguous gaps, which the gate mostly lets through, move the gated
# median turn between two cost classes.
SHAPE_MIX = {
    ("P glaube daß P schlief", 0): 12, ("P glaube daß P schlief", 1): 1,
    ("P schlief A", 0): 12, ("P schlief A", 1): 1,
    ("A schlief P", 0): 10, ("A schlief P", 1): 1,
    ("daß P schlief", 0): 10,
    ("P glaube daß P nicht töten sollst", 0): 8,
    ("P glaube daß P nicht töten sollst", 1): 1,
    ("P glaube daß P nicht töten sollst", 2): 2,
    ("im april", 0): 7,
    ("P V A D N", 0): 6, ("P V A D N", 1): 1, ("P V A D N", 2): 1,
    ("P dachte daß P A D N V", 0): 6, ("P dachte daß P A D N V", 1): 4,
    ("P glaube P sollst nicht töten", 0): 5,
    ("P glaube P sollst nicht töten", 1): 5,
    ("daß P A D N V", 0): 5,
    ("A V P D N", 0): 4, ("A V P D N", 1): 2,
}
CHUNK_SEED_STRIDE = 1_000_000
# Seeds 1 to 100 need 1 to 27 chunks to fill the mix.
MAX_CHUNKS = 200


def sentence_shape(words):
    """The word sequence with each open-class word replaced by its class."""
    return " ".join(OPEN_CLASS.get(w, w) for w in words)


def synth_text(seed):
    """Corpus text of TURNS synthetic turns in SHAPE_MIX proportions.

    Turns come in generation order from ``synth_corpus`` chunks seeded
    ``seed``, ``seed + CHUNK_SEED_STRIDE``, ...; a turn whose class is
    already full is skipped. For seed 42 the first chunk fills the mix
    exactly, so its turns are those of the plain synth corpus.
    """
    quota = Counter(SHAPE_MIX)
    picked, provenance = [], None
    for n in range(MAX_CHUNKS):
        # One chunk at a time, so that the skipped turns are freed and do
        # not raise the run's peak memory.
        chunk = synth.synth_corpus(seed=seed + CHUNK_SEED_STRIDE * n,
                                   turns=TURNS)
        provenance = provenance or chunk.provenance
        for turn in chunk:
            key = (sentence_shape(turn.words), turn.s3_labels.count("S3?"))
            if quota[key]:
                quota[key] -= 1
                turn.turn_id = f"s{len(picked):04d}"
                picked.append(turn)
        if not sum(quota.values()):
            provenance = dict(provenance, chunks=n + 1)
            return corpus.dumps_corpus(corpus.Corpus(picked, provenance))
    raise RuntimeError(f"seed {seed}: shape mix not filled")


def input_shape(turns):
    lengths = Counter(len(t.words) for t in turns)
    distinct = len({tuple(t.words) for t in turns})
    return {"turns": len(turns),
            "length_histogram": dict(sorted(lengths.items())),
            "distinct_word_sequences": distinct,
            "distinct_share": distinct / len(turns),
            "gold_traces": sum(len(t.gold_traces or []) for t in turns)}


# -- parse workloads ----------------------------------------------------

def setup_parse(seed, text, gated):
    """Grammar load and corpus load; for the gated workload also
    classifier training, re-scoring, and scoring the gate against gold."""
    state = {"grammar": grammar.load_grammar(demo_grammar_text()),
             "corpus": corpus.loads_corpus(text)}
    if gated:
        turns = state["corpus"]
        clf = mlp.train(_training_pairs(turns), seed=seed)
        for turn in turns:
            mlp.score_turn(clf, turn)
        sites = [chart.propose_trace_sites(t, GATED[0]) for t in turns]
        state["gate"] = evaluation.score_trace_hypotheses(
            [t.gold_traces for t in turns], sites,
            [range(1, len(t.words) + 1) for t in turns])
    return state


def parse_op(state, configs, index):
    return parse_pass(state, configs[index % len(configs)], index)


def parse_pass(state, config, index=0):
    turns = state["corpus"].turns
    latencies, references, outputs = [], [], []
    for turn in turns:
        references.append(reference_s())
        t0 = time.perf_counter()
        try:
            res = chart.parse(turn, state["grammar"], config)
            out = (tuple(res.proposed_sites), tuple(res.readings))
        except Exception:
            traceback.print_exc()
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return Op(index, latencies, references, outputs)


def check_parse(state, ops, configs, result, info):
    """Every reading set against the oracle and against the first pass.
    On the gated workload ``evaluation.bench`` also parses the corpus
    gated and ungated and checks that the readings agree wherever every
    gold gap passes the gate."""
    turns, g = state["corpus"].turns, state["grammar"]
    if "gate" in state:
        info["gate"] = state["gate"]
        result.attempted += 1
        try:
            info["bench"] = evaluation.bench(state["corpus"], g, GATED[0],
                                             UNGATED[0])
        except Exception as exc:
            result.fail(f"evaluation.bench: {exc}")
    oracle = {}
    t0 = time.perf_counter()
    for op in ops:
        config = configs[op.index % len(configs)]
        for k, (turn, out) in enumerate(zip(turns, op.outputs)):
            result.attempted += 1
            if out is None:
                result.fail(f"pass {op.index} turn {turn.turn_id}: exception")
                continue
            key = (tuple(turn.words), out[0])
            if key not in oracle:
                oracle[key] = enumerate_readings(turn, g, config)
            if set(out[1]) != oracle[key]:
                result.fail(f"pass {op.index} turn {turn.turn_id}: readings "
                            f"differ from the oracle")
            elif out != ops[0].outputs[k]:
                result.fail(f"pass {op.index} turn {turn.turn_id}: differs "
                            f"from pass 0 ({configs[0]} vs {config})")
    info["oracle_s"] = time.perf_counter() - t0
    info["oracle_keys"] = len(oracle)


# name -> (set-up, operation, check, parse configurations)
WORKLOADS = {
    "parse-ungated": (lambda seed, text: setup_parse(seed, text, gated=False),
                      parse_op, check_parse, UNGATED),
    "parse-gated": (lambda seed, text: setup_parse(seed, text, gated=True),
                    parse_op, check_parse, GATED),
}


# -- host speed reference -----------------------------------------------

class _Node:
    __slots__ = ("atom", "attrs")


def _tree(depth):
    node = _Node()
    node.atom = depth
    node.attrs = ({f"f{i}": _tree(depth - 1) for i in range(4)}
                  if depth else None)
    return node


def _copy(node, memo):
    key = id(node)
    if key in memo:
        return memo[key]
    new = memo[key] = _Node()
    new.atom = node.atom
    new.attrs = (None if node.attrs is None
                 else {k: _copy(v, memo) for k, v in node.attrs.items()})
    return new


# 1,365 nodes: a copy allocates and walks small objects and dicts, as
# the parser's feature-structure copying does, and takes about REFERENCE_S
# on a quiet stretch of the build host (2-vCPU cloud VM, Python 3.11).
REFERENCE_TREE = _tree(5)
REFERENCE_S = 0.0005


def reference_s():
    """Seconds of the faster of two copies of REFERENCE_TREE, with the
    collector off so that the program's heap cannot move it. Nothing the
    program does runs inside it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _copy(REFERENCE_TREE, {})
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


# -- running ------------------------------------------------------------

def run_timed(setup_fn, op_fn, seed, text, configs, seconds, min_ops):
    """Set up, then run one operation on that set-up, until ``seconds``
    have passed and at least ``min_ops`` operations have completed;
    (seconds of each set-up, the operations, the last state). Set-ups
    spread over the whole run, like the operations, so that a slow
    stretch of the host moves a few of them, not the median. Each set-up's
    seconds are at reference speed."""
    setups, ops, state = [], [], None
    t0 = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - t0 < seconds:
        state = None
        gc.collect()
        reference = reference_s()
        t = time.perf_counter()
        state = setup_fn(seed, text)
        setups.append((time.perf_counter() - t) * REFERENCE_S / reference)
        gc.collect()
        ops.append(op_fn(state, configs, len(ops)))
    return setups, ops, state


def run_ops(op_fn, state, configs, seconds, min_ops, start=0, tracer=None):
    """Repeat the operation on one set-up until ``seconds`` have passed
    and at least ``min_ops`` have completed. Each operation starts from a
    collected heap, so garbage left by the one before does not land in
    its time."""
    ops = []
    t0 = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - t0 < seconds:
        index = start + len(ops)
        gc.collect()
        if tracer is None:
            ops.append(op_fn(state, configs, index))
        else:
            with tracer.root("bench.op") as block:
                op = op_fn(state, configs, index)
            op.block = block
            ops.append(op)
    return ops


def per_turn(ops):
    """Each turn's latency at reference speed: the median over the run's
    passes of its seconds over those of the reference copy just before
    it, times REFERENCE_S."""
    return [REFERENCE_S * statistics.median(l / r for l, r in zip(lats, refs))
            for lats, refs in zip(zip(*(op.latencies for op in ops)),
                                  zip(*(op.references for op in ops)))]


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) distribution.
    Unlike a single order statistic it does not jump when the quantile
    falls between two classes of turns of different cost."""
    x = np.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def turns_per_s(ops):
    """Turns over the time of one pass: the sum of the per-turn latencies."""
    latencies = per_turn(ops)
    return len(latencies) / sum(latencies)


def end_to_end(setups, ops):
    latencies = per_turn(ops)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "turns_per_s": (turns_per_s(ops), "1/s"),
        "turn_ms_p50": (1000 * hd_quantile(latencies, 0.5), "ms"),
        "turn_ms_p90": (1000 * hd_quantile(latencies, 0.9), "ms"),
    }


def run_workload(name, seed, seconds, trace, root):
    """Run one workload; (metrics, result, info, input shape)."""
    setup_fn, op_fn, check_fn, configs = WORKLOADS[name]
    result, info = Result(), {}
    # The input, made once and not timed: how many synth chunks it takes
    # to fill SHAPE_MIX depends on the seed.
    text = synth_text(seed)
    if not trace:
        setups, ops, state = run_timed(setup_fn, op_fn, seed, text, configs,
                                       seconds, min_ops=3)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_fn(state, ops, configs, result, info)
        metrics = end_to_end(setups, ops)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        info["latency_samples"] = (
            f"{len(per_turn(ops))} turns, each the median of "
            f"{len(ops)} operations")
        info["wall"] = (
            len(ops[0].latencies) / statistics.median(
                sum(op.latencies) for op in ops),
            statistics.median(r for op in ops for r in op.references))
        info["operations"] = f"{len(setups)} set-ups, {len(ops)} timed"
    else:
        tracer = Tracer()
        with tracer.installed(), tracer.root("bench.setup") as setup_block:
            state = setup_fn(seed, text)
        tracer.name_schemata(state["grammar"].schemata)
        untraced = run_ops(op_fn, state, configs, seconds / 2, min_ops=1)
        with tracer.installed():
            traced = run_ops(op_fn, state, configs, seconds / 2, min_ops=2,
                             start=len(untraced), tracer=tracer)
        check_fn(state, untraced + traced, configs, result, info)
        metrics, info["counters_sha256"] = layer_metrics(
            tracer, setup_block, traced, result)
        untraced_rate = turns_per_s(untraced)
        traced_rate = turns_per_s(traced)
        metrics["trace.untraced_turns_per_s"] = (untraced_rate, "1/s")
        metrics["trace.turns_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        out_dir = Path(root) / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{name}-seed{seed}.npz"
        info["spans"] = (tracer.save(path), str(path.relative_to(root)))
        info["operations"] = f"{len(untraced)} untraced, {len(traced)} traced"
    return metrics, result, info, input_shape(state["corpus"].turns)


# -- per-layer metrics --------------------------------------------------

def layer_metrics(tracer, setup_block, traced, result):
    """Per-layer values for one set-up plus one operation: counters of
    the set-up and of the first traced operation (every traced operation
    must repeat them exactly), times of the set-up plus the median over
    the traced operations. Also the digest of the counter block."""
    blocks = [json.dumps({k: v for k, v in op.block.items() if k != "_root"},
                         sort_keys=True) for op in traced]
    for op, block in zip(traced, blocks):
        if block != blocks[0]:
            result.fail(f"traced operation {op.index}: counter block differs "
                        f"from the first traced operation")
    counts = Counter({k: v for k, v in setup_block.items() if k != "_root"})
    counts.update(json.loads(blocks[0]))
    setup_total, setup_own = tracer.times(setup_block["_root"])
    per_op = [tracer.times(op.block["_root"]) for op in traced]

    def seconds(span, own=False):
        base = (setup_own if own else setup_total)[span]
        return base + statistics.median(t[1 if own else 0][span] for t in per_op)

    attempts, successes = counts["grammar.apply_calls"], 0
    per_schema = {}
    for label in tracer.schema_labels.values():
        per_schema[f"grammar.apply_attempts.{label}"] = (
            counts[f"grammar.apply_attempts.{label}"], "count")
        per_schema[f"grammar.apply_successes.{label}"] = (
            counts[f"grammar.apply_successes.{label}"], "count")
        successes += counts[f"grammar.apply_successes.{label}"]
    metrics = {
        "fs.copy_nodes": (counts["fs.copy_nodes"], "count"),
        "fs.copy_s": (seconds("fs.copy"), "s"),
        "fs.unify_calls": (counts["fs.unify_calls"], "count"),
        "fs.unify_failures": (counts["fs.unify_failures"], "count"),
        "fs.unify_nodes": (counts["fs.unify_nodes"], "count"),
        "fs.resolve_nodes": (counts["fs.resolve_nodes"], "count"),
        "fs.resolve_s": (seconds("fs.resolve"), "s"),
        "fs.canonical_calls": (counts["fs.canonical_calls"], "count"),
        "fs.canonical_s": (seconds("fs.canonical"), "s"),
        "grammar.apply_attempts": (attempts, "count"),
        "grammar.apply_successes": (successes, "count"),
        "grammar.apply_success_ratio": (
            successes / attempts if attempts else 0.0, "ratio"),
        "grammar.apply_s": (seconds("grammar.apply"), "s"),
        **per_schema,
        "chart.parse_s": (seconds("chart.parse"), "s"),
        "chart.self_s": (seconds("chart.parse", own=True)
                         + seconds("chart.add", own=True), "s"),
        "chart.add_calls": (counts["chart.add_calls"], "count"),
        "chart.add_packed": (counts["chart.add_packed"], "count"),
        "chart.edges_lexical": (counts["chart.edges_lexical"], "count"),
        "chart.edges_empty": (counts["chart.edges_empty"], "count"),
        "chart.edges_derived": (counts["chart.edges_derived"], "count"),
        "chart.proposed_sites": (counts["chart.proposed_sites"], "count"),
        "chart.readings": (counts["chart.readings"], "count"),
        "prosody.extract_calls": (counts["prosody.extract_calls"], "count"),
        "prosody.extract_s": (seconds("prosody.extract"), "s"),
        "mlp.train_s": (seconds("mlp.train"), "s"),
        "mlp.sgd_steps": (counts["mlp.gradients_calls"], "count"),
        "mlp.classify_calls": (counts["mlp.classify_calls"], "count"),
        "mlp.classify_s": (seconds("mlp.classify"), "s"),
        "corpus.loads_s": (seconds("corpus.loads"), "s"),
        "corpus.bytes": (counts["corpus.bytes"], "B"),
        "evaluation.score_s": (seconds("evaluation.score"), "s"),
    }
    digest = hashlib.sha256(
        json.dumps(dict(sorted(counts.items()))).encode()).hexdigest()
    return metrics, digest
