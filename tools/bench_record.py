"""Append one entry for a checkout to the benchmark trend, BENCH_trend.json.

Usage, from anywhere:

    python3 tools/bench_record.py CHECKOUT [--trend PATH]

CHECKOUT is the root of a git checkout (it holds src/, perfbench/ and
BENCHMARK.json).  For each workload its BENCHMARK.json lists, the
recorder runs ``perfbench/run.py --trace 0`` once per seed in SEEDS, for
the run length that file sets, then runs the tier-1 test suite once.
The entry holds the commit, whether the measured files (src/, tests/,
perfbench/, BENCHMARK.json) differ from it, the last commit that changed
the harness (perfbench/ or BENCHMARK.json), the environment line of the
runs, the tier-1 wall time and summary line, and per workload whether
every run was correct and the median and quartiles of each end-to-end
metric.
PATH defaults to BENCH_trend.json at the root of the repository that
holds this script.  Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ab_pairs import parse_result, quartiles, run_once

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
MEASURED = ("src", "tests", "perfbench", "BENCHMARK.json")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_environment(stdout):
    """The machine run.py prints on its environment line, without the seed."""
    line = next(line for line in stdout.splitlines() if line.startswith("environment "))
    environment = json.loads(line.removeprefix("environment "))
    del environment["seed"]
    return environment


def make_entry(source, runs, metrics, tier1):
    """The trend entry of one checkout.

    source is a dict of what was measured (commit, uncommitted, harness)
    and leads the entry; runs maps each workload to the standard outputs
    of its runs, in seed order; metrics names the end-to-end metrics to
    summarize; tier1 is (wall seconds, pytest's summary line).
    """
    workloads = {}
    for name, outputs in runs.items():
        parsed = [parse_result(stdout) for stdout in outputs]
        workloads[name] = {"correct": all(correct for correct, _ in parsed)}
        for metric in metrics:
            q1, median, q3 = quartiles([values[metric] for _, values in parsed])
            workloads[name][metric] = {"median": median, "q1": q1, "q3": q3}
    first = next(iter(runs.values()))[0]
    return {**source, "environment": parse_environment(first), "seeds": list(SEEDS),
            "tier1": {"wall_s": tier1[0], "summary": tier1[1]},
            "workloads": workloads}


def _git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_tier1(checkout):
    """(wall seconds, last output line) of the tier-1 suite in checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return wall, done.stdout.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--trend", type=Path, default=ROOT / "BENCH_trend.json")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs[name] = [run_once(checkout, name, seed, spec["run_seconds"])
                      for seed in SEEDS]
        print(f"{name}: {len(SEEDS)} runs done", flush=True)
    source = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted": bool(_git(checkout, "status", "--porcelain", "--", *MEASURED)),
        "harness": _git(checkout, "log", "-1", "--format=%H", "--",
                        "perfbench", "BENCHMARK.json"),
    }
    entry = make_entry(source, runs, [metric["name"] for metric in spec["end_to_end"]],
                       run_tier1(checkout))
    trend = json.loads(args.trend.read_text()) if args.trend.exists() else []
    trend.append(entry)
    args.trend.write_text(json.dumps(trend, indent=1) + "\n")
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
