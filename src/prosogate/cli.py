"""Command-line surface tying the pipeline together.

Subcommands: synth, train, score, parse, eval, rank, bench. Exit codes:
0 success, 1 usage error, 2 data or grammar error. Each subcommand
takes only the flags it reads: randomness (synth, train) is driven by
--seed (default 42), and identical invocations produce identical output
bytes except for wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__, load_demo_corpus, load_demo_grammar, load_file
from .chart import ParseConfig, parse
from .corpus import CorpusError, load_corpus, dumps_corpus
from .evaluation import EvalError, bench, fmt_pct, metrics, rank_experiment, \
    score_trace_hypotheses
from .grammar import load_grammar_file
from .mlp import MlpClassifier, TrainConfig, gap_vectors, score_turn, train
from .synth import synth_corpus

# CorpusError, GrammarError, ParseError and EvalError are ValueErrors
DATA_ERRORS = (OSError, ValueError)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_grammar(path):
    return load_grammar_file(path) if path else load_demo_grammar()


def _load_corpus(path):
    return load_corpus(path) if path else load_demo_corpus()


def _report_json(payload):
    payload = dict(payload)
    payload["tool_version"] = __version__
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_synth(args):
    corpus = synth_corpus(seed=args.seed, turns=args.turns,
                          separation=args.separation, v2_only=args.v2_only)
    _write(dumps_corpus(corpus), args.out)
    return 0


def _training_pairs(corpus):
    pairs = []
    for turn in corpus:
        if turn.syllables is None or turn.s3_labels is None:
            raise CorpusError(
                f"turn {turn.turn_id!r}: training needs syllables and "
                f"s3_labels")
        pairs.extend(zip(gap_vectors(turn), turn.s3_labels))
    return pairs


def cmd_train(args):
    corpus = load_corpus(args.corpus)
    config = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                         hidden1=args.hidden1, hidden2=args.hidden2)
    clf = train(_training_pairs(corpus), config, seed=args.seed)
    _write(clf.to_json() + "\n", args.out)
    return 0


def cmd_score(args):
    corpus = load_corpus(args.corpus)
    clf = MlpClassifier.load(args.model)
    for turn in corpus:
        score_turn(clf, turn)
    _write(dumps_corpus(corpus), args.out)
    return 0


def cmd_parse(args):
    grammar = _load_grammar(args.grammar)
    corpus = _load_corpus(args.corpus)
    config = ParseConfig(mode=args.mode, threshold=args.threshold,
                         rank_limit=args.rank_limit)
    turns = []
    for turn in sorted(corpus, key=lambda t: t.turn_id):
        result = parse(turn, grammar, config)
        turns.append({"id": result.turn_id, "readings": result.readings,
                      "proposed_sites": result.proposed_sites,
                      "statistics": result.stats})
    if args.format == "json":
        _write(_report_json({"turns": turns}), args.out)
    else:
        lines = []
        for t in turns:
            s = t["statistics"]
            lines.append(f"{t['id']}: {len(t['readings'])} reading(s), "
                         f"sites {t['proposed_sites']}, "
                         f"edges {s['lexical_edges']}/{s['empty_edges']}"
                         f"/{s['derived_edges']}")
            for r in t["readings"]:
                lines.append(f"  {r}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _proposed_sites(gold_corpus, text):
    """Each gold turn's proposed sites, in corpus order, read from the
    text of a parse report."""
    try:
        report = json.loads(text)["turns"]
        by_id = {t["id"]: set(t["proposed_sites"]) for t in report}
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        raise EvalError(f"not a parse report: {exc!r}") from exc
    if len(by_id) < len(report):
        ids = [t["id"] for t in report]
        twice = next(i for i in by_id if ids.count(i) > 1)
        raise EvalError(f"not a parse report: turn {twice!r} is listed twice")
    for turn_id, sites in by_id.items():
        if not all(type(site) is int for site in sites):
            raise EvalError(f"not a parse report: turn {turn_id!r} has a "
                            f"site that is not a gap index")
    for turn in gold_corpus:
        if turn.turn_id not in by_id:
            raise EvalError(f"turn {turn.turn_id!r} missing from the report")
        n = len(turn.words)
        outside = sorted(site for site in by_id[turn.turn_id]
                         if not 1 <= site <= n)
        if outside:
            raise EvalError(f"turn {turn.turn_id!r} proposes sites {outside} "
                            f"outside its gaps 1..{n}")
    return [by_id[turn.turn_id] for turn in gold_corpus]


def cmd_eval(args):
    gold_corpus = load_corpus(args.gold)
    proposed = load_file(args.proposed,
                         lambda text: _proposed_sites(gold_corpus, text))
    gold = [set(turn.gold_traces or []) for turn in gold_corpus]
    universe = [set(range(1, len(turn.words) + 1)) for turn in gold_corpus]
    counts = score_trace_hypotheses(gold, proposed, universe)
    report = metrics(counts)
    if args.format == "json":
        _write(_report_json({"counts": asdict(counts),
                             "metrics": asdict(report)}), args.out)
    else:
        pct = report.as_pct()
        _write(
            f"correct      {counts.correct}\n"
            f"false alarm  {counts.false_alarm}\n"
            f"miss         {counts.miss}\n"
            f"reject       {counts.reject}\n"
            f"recall       {pct['recall']} %\n"
            f"precision    {pct['precision']} %\n"
            f"error        {pct['error']} %\n", args.out)
    return 0


def cmd_rank(args):
    corpus = _load_corpus(args.corpus)
    sentences = []
    for turn in corpus:
        gold = turn.gold_traces or []
        if len(gold) != 1:
            raise EvalError(
                f"turn {turn.turn_id!r}: rank experiment needs exactly one "
                f"gold trace gap, got {len(gold)}")
        if turn.gap_scores is None:
            raise EvalError(f"turn {turn.turn_id!r}: no gap scores")
        sentences.append((turn.gap_scores, gold[0]))
    hist = rank_experiment(sentences)
    if args.format == "json":
        _write(_report_json({
            "counts": {str(k): v for k, v in hist.counts.items()},
            "total": hist.total}), args.out)
    else:
        lines = ["rank  sentences"]
        for k, v in hist.counts.items():
            lines.append(f"{k!s:>4}  {v}")
        lines.append(f"total {hist.total}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bench(args):
    grammar = _load_grammar(args.grammar)
    corpus = _load_corpus(args.corpus)
    config_on = ParseConfig(mode="threshold", threshold=args.threshold)
    config_off = ParseConfig(mode="off")
    report = bench(corpus, grammar, config_on, config_off)
    if args.format == "json":
        _write(_report_json(asdict(report)), args.out)
    else:
        _write(
            f"turns                 {report.turn_count}\n"
            f"overall with (s)      {report.overall_with:.3f}\n"
            f"overall without (s)   {report.overall_without:.3f}\n"
            f"average with (s)      {report.average_with:.4f}\n"
            f"average without (s)   {report.average_without:.4f}\n"
            f"empty edges with      {report.empty_edges_with}\n"
            f"empty edges without   {report.empty_edges_without}\n"
            f"speedup               {fmt_pct(report.speedup, 2)} %\n",
            args.out)
    return 0


def build_parser():
    top = Parser(prog="prosogate",
                 description="Prosody-gated head-trace parsing toolkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seed=False, report=False, grammar=False, corpus=False):
        if seed:
            p.add_argument("--seed", type=int, default=42)
        if report:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)
        if grammar:
            p.add_argument("--grammar", default=None,
                           help="grammar JSON (default: packaged demo)")
        if corpus:
            p.add_argument("--corpus", default=None,
                           help="corpus JSONL (default: packaged demo)")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p, seed=True)
    p.add_argument("--turns", type=int, default=104)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--v2-only", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the boundary classifier")
    common(p, seed=True)
    p.add_argument("--corpus", required=True,
                   help="corpus JSONL with syllables and s3_labels")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.2)
    p.add_argument("--hidden1", type=int, default=40)
    p.add_argument("--hidden2", type=int, default=20)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="write classifier gap scores into a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="classifier JSON file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("parse", help="parse a corpus, emit a reading report")
    common(p, report=True, grammar=True, corpus=True)
    p.add_argument("--mode", choices=("threshold", "rank", "off"),
                   default="threshold")
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--rank-limit", type=int, default=2)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score a parse report against gold traces")
    common(p, report=True)
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--proposed", required=True, help="parse report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="rank histogram of gold gaps by score")
    common(p, report=True, corpus=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", help="time gated vs ungated parsing")
    common(p, report=True, grammar=True, corpus=True)
    p.add_argument("--threshold", type=float, default=0.01)
    p.set_defaults(func=cmd_bench)
    return top


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error from Parser.error, or argparse's --help/--version
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"prosogate {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
