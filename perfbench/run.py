"""prosogate benchmark: one command for every workload, run from the
root of a source checkout.

    python3 perfbench/run.py --workload parse-ungated --seed 42 \\
        --seconds 40 --trace 0

Workloads: parse-ungated and parse-gated (see ``WORKLOADS.md``). The
seed drives the synthetic corpus and the classifier training; the
program only ever sees the generated inputs. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``tracing.py``), whose spans are
written to ``.perfbench/`` under the checkout.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 when the run completed, whether or
not its checks passed (``correct`` says which), and 2 when the program
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("parse-ungated", "parse-gated")


def _print_block(name, seed, trace, metrics, result, info, shape, w):
    attempted = max(result.attempted, 1)
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"operations {info.get('operations')}")
    print(f"input: {shape['turns']} turns, {shape['gold_traces']} gold traces, "
          f"{shape['distinct_word_sequences']} distinct word sequences "
          f"({shape['distinct_share']:.3f}), words per turn "
          f"{shape['length_histogram']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {key:<44} {value:>16} {unit}")
    if "latency_samples" in info:
        print(f"  latency samples: {info['latency_samples']}")
        rate, reference = info["wall"]
        print(f"  times above at reference speed ({w.REFERENCE_S * 1e3:.3f} ms "
              f"a reference copy); as timed: median reference copy "
              f"{reference * 1e3:.3f} ms, median pass {rate:.3f} turns/s")
    print(f"  {'fail_ratio':<44} {result.failed / attempted:>16.6f} ratio "
          f"({result.failed} of {result.attempted} operations)")
    if "oracle_keys" in info:
        print(f"  oracle: {info['oracle_keys']} distinct (words, sites) inputs "
              f"in {info['oracle_s']:.2f} s")
    if "counters_sha256" in info:
        print(f"  counter block sha256 {info['counters_sha256']}")
        print(f"  spans: {info['spans'][0]} written to {info['spans'][1]}")
    if "gate" in info:
        gate = info["gate"]
        gold = gate.correct + gate.miss
        print(f"  gate at threshold {w.THRESHOLD}: {gate.miss} of {gold} gold "
              f"traces missed, {gate.correct + gate.false_alarm} sites proposed")
    if "bench" in info and not trace:
        bench = info["bench"]
        paper = w.PAPER
        print("  comparison with the paper (informational, not a metric):")
        print(f"    gate_speedup   {bench.speedup:.4f} = "
              f"1 - {bench.overall_with:.3f} s gated / "
              f"{bench.overall_without:.3f} s "
              f"ungated per {shape['turns']}-turn pass;  paper "
              f"{1 - paper['seconds_with'] / paper['seconds_without']:.4f} = "
              f"1 - {paper['seconds_with']} s / {paper['seconds_without']} s")
        print(f"    site ratio     "
              f"{bench.proposed_sites_with / bench.proposed_sites_without:.4f} = "
              f"{bench.proposed_sites_with} gated / "
              f"{bench.proposed_sites_without} ungated proposed sites;  paper "
              f"{paper['sites_with'] / paper['sites_without']:.4f} = "
              f"{paper['sites_with']} / {paper['sites_without']}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import workloads as w
    except ImportError as exc:
        print(f"run.py: cannot import the program from {ROOT}: {exc}",
              file=sys.stderr)
        return 2

    metrics, result, info, shape = w.run_workload(
        args.workload, args.seed, args.seconds, args.trace, ROOT)
    _print_block(args.workload, args.seed, args.trace, metrics, result, info,
                 shape, w)
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": max(result.attempted, 1), "failed": result.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
