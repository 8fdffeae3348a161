"""Command-line surface tying the pipeline together.

Subcommands: synth, train, score, parse, eval, rank, bench. Exit codes:
0 success, 1 usage error, 2 data or grammar error. Each subcommand
takes only the flags it reads: randomness (synth, train) is driven by
--seed (default 42), and identical invocations produce identical output
bytes except for wall-clock fields. A report command (parse, eval, rank,
bench) builds one payload: --format json writes it with the tool
version, --format text a fixed view of it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import (__version__, demo_corpus_text, demo_grammar_text, load_file,
               loads_json)
from .chart import ParseConfig, parse
from .corpus import CorpusError, dumps_corpus, loads_corpus
from .evaluation import EvalError, bench, fmt_pct, metrics, rank_experiment, \
    score_trace_hypotheses
from .grammar import load_grammar
from .mlp import LABEL_INDEX, MlpClassifier, gap_vectors, score_turn, train
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


def _grammar_and_corpus(args):
    """The grammar and corpus of ``parse`` and ``bench``: each read from
    its file if given, else the packaged demo."""
    grammar = (load_file(args.grammar, load_grammar) if args.grammar
               else load_grammar(demo_grammar_text()))
    corpus = (load_file(args.corpus, loads_corpus) if args.corpus
              else loads_corpus(demo_corpus_text()))
    return grammar, corpus


def _report(args, payload, text):
    """Write a report: ``payload`` and the tool version as sorted,
    indented JSON under ``--format json``, else ``text``."""
    if args.format == "json":
        text = json.dumps({**payload, "tool_version": __version__},
                          sort_keys=True, indent=2) + "\n"
    _write(text, args.out)


def cmd_synth(args):
    corpus = synth_corpus(seed=args.seed, turns=args.turns,
                          separation=args.separation, v2_only=args.v2_only)
    _write(dumps_corpus(corpus), args.out)
    return 0


def _training_pairs(corpus):
    """(gap vector, S3 label) pairs; the one check that S3+ and S3- occur."""
    pairs = []
    for turn in corpus:
        if turn.s3_labels is None:
            raise CorpusError(f"turn {turn.turn_id!r}: training needs "
                              f"s3_labels")
        pairs.extend(zip(gap_vectors(turn), turn.s3_labels))
    missing = set(LABEL_INDEX).difference(label for _, label in pairs)
    if missing:
        raise CorpusError(f"training needs both an S3+ gap and an S3- gap "
                          f"(S3? gaps are held out); there is no "
                          f"{' and no '.join(sorted(missing))} gap")
    return pairs


def cmd_train(args):
    pairs = load_file(args.corpus,
                      lambda text: _training_pairs(loads_corpus(text)))
    clf = train(pairs, seed=args.seed)
    _write(clf.to_json() + "\n", args.out)
    return 0


def _scorable_corpus(text):
    """The corpus of ``text``, each turn checked to have the syllables
    its gap vectors are read from."""
    corpus = loads_corpus(text)
    for turn in corpus:
        turn.word_final_syllables()
    return corpus


def cmd_score(args):
    corpus = load_file(args.corpus, _scorable_corpus)
    clf = load_file(args.model, MlpClassifier.from_json)
    for turn in corpus:
        score_turn(clf, turn)
    _write(dumps_corpus(corpus), args.out)
    return 0


def cmd_parse(args):
    grammar, corpus = _grammar_and_corpus(args)
    config = ParseConfig(mode=args.mode, threshold=args.threshold)
    turns, lines = [], []
    for turn in sorted(corpus, key=lambda t: t.turn_id):
        result = parse(turn, grammar, config)
        s = result.stats
        turns.append({"id": turn.turn_id, "readings": result.readings,
                      "proposed_sites": result.proposed_sites,
                      "statistics": s})
        lines.append(f"{turn.turn_id}: {len(result.readings)} reading(s), "
                     f"sites {result.proposed_sites}, "
                     f"edges {s['lexical_edges']}/{s['empty_edges']}"
                     f"/{s['derived_edges']}")
        lines.extend(f"  {r}" for r in result.readings)
    _report(args, {"turns": turns}, "\n".join(lines) + "\n")
    return 0


def _proposed_sites(gold_corpus, text):
    """Each gold turn's proposed sites, in corpus order, read from the
    text of a parse report."""
    try:
        report = loads_json(text)["turns"]
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
    gold_corpus = load_file(args.gold, loads_corpus)
    proposed = load_file(args.proposed,
                         lambda text: _proposed_sites(gold_corpus, text))
    gold = [set(turn.gold_traces or []) for turn in gold_corpus]
    universe = [set(range(1, len(turn.words) + 1)) for turn in gold_corpus]
    counts = score_trace_hypotheses(gold, proposed, universe)
    report = metrics(counts)
    pct = report.as_pct()
    _report(args, {"counts": asdict(counts), "metrics": asdict(report)},
            f"correct      {counts.correct}\n"
            f"false alarm  {counts.false_alarm}\n"
            f"miss         {counts.miss}\n"
            f"reject       {counts.reject}\n"
            f"recall       {pct['recall']} %\n"
            f"precision    {pct['precision']} %\n"
            f"error        {pct['error']} %\n")
    return 0


def _rank_sentences(text):
    """(gap scores, gold gap) of each turn of the corpus of ``text``;
    the one check that each turn has scores and one gold gap."""
    sentences = []
    for turn in loads_corpus(text):
        gold = turn.gold_traces or []
        if len(gold) != 1:
            raise EvalError(
                f"turn {turn.turn_id!r}: rank experiment needs exactly one "
                f"gold trace gap, got {len(gold)}")
        if turn.gap_scores is None:
            raise EvalError(f"turn {turn.turn_id!r}: no gap scores")
        sentences.append((turn.gap_scores, gold[0]))
    return sentences


def cmd_rank(args):
    counts = rank_experiment(load_file(args.corpus, _rank_sentences))
    total = sum(counts.values())
    _report(args, {"counts": {str(k): v for k, v in counts.items()},
                   "total": total},
            "\n".join(["rank  sentences",
                       *(f"{k!s:>4}  {v}" for k, v in counts.items()),
                       f"total {total}"]) + "\n")
    return 0


def cmd_bench(args):
    grammar, corpus = _grammar_and_corpus(args)
    report = bench(corpus, grammar,
                   ParseConfig(mode="threshold", threshold=args.threshold),
                   ParseConfig(mode="off"))
    _report(args, asdict(report),
            f"turns                 {report.turn_count}\n"
            f"overall with (s)      {report.overall_with:.3f}\n"
            f"overall without (s)   {report.overall_without:.3f}\n"
            f"average with (s)      {report.average_with:.4f}\n"
            f"average without (s)   {report.average_without:.4f}\n"
            f"empty edges with      {report.empty_edges_with}\n"
            f"empty edges without   {report.empty_edges_without}\n"
            f"speedup               {fmt_pct(report.speedup, 2)} %\n")
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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="write classifier gap scores into a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="classifier JSON file")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("parse", help="parse a corpus, emit a reading report")
    common(p, report=True, grammar=True, corpus=True)
    p.add_argument("--mode", choices=("threshold", "rank", "off"),
                   default=ParseConfig.mode)
    p.add_argument("--threshold", type=float, default=ParseConfig.threshold)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score a parse report against gold traces")
    common(p, report=True)
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--proposed", required=True, help="parse report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="rank histogram of gold gaps by score")
    common(p, report=True)
    p.add_argument("--corpus", required=True,
                   help="corpus JSONL, one gold gap per turn")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", help="time gated vs ungated parsing")
    common(p, report=True, grammar=True, corpus=True)
    p.add_argument("--threshold", type=float, default=ParseConfig.threshold)
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
