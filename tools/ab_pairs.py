"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage, from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE --workload triod_relax --pairs 10

PARENT and CHANGE are checkout roots (each holds src/ and perfbench/).
Each pair runs ``perfbench/run.py --trace 0`` once in each of them, one
after the other, for the run length that CHANGE's BENCHMARK.json sets.
The side that goes first alternates from pair to pair, and each pair
gets a seed of its own (both sides run it), drawn afresh on every
invocation.  For each end-to-end metric it prints both sides' median and
quartiles, the parent's interquartile range, and in how many pairs the
change read lower (ties count for neither side).  Standard library only.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout):
    """(correct, {metric: value}) from the last line run.py prints."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return last["correct"], {name: m["value"] for name, m in last["metrics"].items()}


def quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs):
    """Per metric, both sides' quartiles and how often the change read lower.

    pairs is a list of (parent, change) dicts {metric: value}; returns
    {metric: {"parent": quartiles, "change": quartiles, "lower": count,
    "ties": count, "pairs": count}} over the metrics both sides report.
    """
    summary = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "lower": sum(c < p for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def format_summary(summary):
    """The summary as text lines, one block per metric."""
    lines = []
    for name, s in summary.items():
        (_, parent, _), (_, change, _) = s["parent"], s["change"]
        shift = f"{100.0 * (change - parent) / parent:+.1f} %" if parent else "n/a"
        lines.append(f"{name}: change lower in {s['lower']}/{s['pairs']} pairs "
                     f"(ties {s['ties']}); median {parent:.6g} -> {change:.6g} "
                     f"({shift}); parent IQR {s['parent'][2] - s['parent'][0]:.6g}")
        for side in ("parent", "change"):
            q1, median, q3 = s[side]
            lines.append(f"  {side}: median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g}")
    return lines


def run_once(checkout, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]
    first_seed = random.SystemRandom().randrange(10**6, 10**9)
    pairs = []
    for k in range(args.pairs):
        seed = first_seed + k
        sides = {}
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            correct, metrics = run_once(getattr(args, side), args.workload, seed,
                                        seconds)
            if not correct:
                print(f"pair {k} (seed {seed}): {side} run reported failures")
            sides[side] = metrics
        pairs.append((sides["parent"], sides["change"]))
        print(f"pair {k} (seed {seed}, {order[0]} first): " + ", ".join(
            f"{name} {sides['parent'][name]:.6g} -> {sides['change'][name]:.6g}"
            for name in sides["parent"]), flush=True)
    print("\n".join(format_summary(summarize(pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
