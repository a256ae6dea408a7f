"""Benchmark of the elastic-networks package: whole jobs timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload triod_relax --seed 1 --seconds 25 --trace 0

Workloads: triod_relax, fine_grid, certificate (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics, its times scaled
to the speed of a reference host (calibrate.py); with ``--trace 1``
it runs the jobs once untraced and once with spans around the package's
layer boundaries and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers for a
reader.  Each run also writes its result, with the machine it ran on,
to .perfbench_work/results/.
"""

import os

# One BLAS/OpenMP thread: the machine the benchmark is tuned on has two
# cores, and the job itself is single-threaded.  Must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
WARM_KERNELS = 3


def benchmark_spec():
    """BENCHMARK.json: the workload names and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units():
    """Units of the end-to-end and of the per-layer metrics, by name."""
    spec = benchmark_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_path():
    if not (SRC / "elastic_networks" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'elastic_networks'}; "
                 "run from the root of an elastic-networks checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def probe_setup(name, spec_path):
    """Child-process entry: time imports, loading and warm-up; print seconds."""
    start = time.perf_counter()
    import workloads

    with open(spec_path) as fh:
        spec = json.load(fh)
    workloads.WORKLOADS[name].setup(spec)
    print(time.perf_counter() - start)


class HostSpeed:
    """Scales measured times to the reference host's speed.

    The reference kernel (calibrate.py) is timed before the first timed
    item and after each one, so every job or set-up probe lies between
    two readings with nothing but bookkeeping in between.  A time t is
    reported as t * REFERENCE_S / (mean of the two kernel times).
    """

    def __init__(self, kernel=None):
        import calibrate

        self.reference_s = calibrate.REFERENCE_S
        self.kernel = kernel if kernel is not None else calibrate.Kernel()
        for _ in range(WARM_KERNELS):
            self.kernel.seconds()
        self.last = self.kernel.seconds()
        self.readings = [self.last]

    def scale(self, seconds):
        """A time measured since the last reading, in reference seconds."""
        before = self.last
        self.last = self.kernel.seconds()
        self.readings.append(self.last)
        return seconds * self.reference_s / (0.5 * (before + self.last))


class SetupProbes:
    """Set-up times of fresh child processes, run one at a time between jobs.

    Probe i runs once the jobs have been measured for i/SETUP_PROBES of
    the run, so the samples span the run rather than one moment of it.
    """

    def __init__(self, name, spec_paths, seconds, speed):
        self.name = name
        self.spec_paths = spec_paths
        self.seconds = seconds
        self.speed = speed
        self.times = []
        self.scaled = []

    def __call__(self, measured):
        while (len(self.times) < SETUP_PROBES
               and measured >= len(self.times) * self.seconds / SETUP_PROBES):
            self._probe()

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.scaled)

    def _probe(self):
        spec = self.spec_paths[len(self.times) % len(self.spec_paths)]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             self.name, str(spec)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.scaled.append(self.speed.scale(self.times[-1]))


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Tally:
    """Jobs and steps attempted and failed over a run."""

    def __init__(self):
        self.jobs = self.failed_jobs = self.steps = self.failed_steps = 0
        self.violations = []

    def add(self, outcome):
        self.jobs += 1
        self.steps += outcome.steps + outcome.failed_steps
        self.failed_steps += outcome.failed_steps
        if not outcome.ok:
            self.failed_jobs += 1
            self.violations += outcome.violations

    @property
    def attempted(self):
        return self.jobs + self.steps

    @property
    def failed(self):
        return self.failed_jobs + self.failed_steps


def run_jobs(workload, contexts, out_dir, seconds, tally, before=None, between=None):
    """Run whole passes over the contexts until jobs have taken seconds.

    Returns the wall time of each job, from the first step to the checked
    result, and the outcomes.  before(j, ctx) runs ahead of job j, outside
    its wall time, and returns the context the job uses; between(wall,
    measured) runs after each job with its wall time and the job time
    measured so far.
    """
    walls, outcomes = [], []
    measured = 0.0
    j = 0
    while j == 0 or j % len(contexts) or measured < seconds:
        ctx = contexts[j % len(contexts)]
        if before is not None:
            ctx = before(j, ctx)
        t0 = time.perf_counter()
        outcome = workload.job(ctx, out_dir)
        workload.check_finals(outcome, ctx["spec"]["k"])
        walls.append(time.perf_counter() - t0)
        outcome.finals = None  # checked; keeping them would inflate peak RSS
        measured += walls[-1]
        tally.add(outcome)
        outcomes.append(outcome)
        j += 1
        if between is not None:
            between(walls[-1], measured)
    return walls, outcomes


def step_intervals_ms(outcomes):
    out = []
    for outcome in outcomes:
        for clock in outcome.clocks:
            out += [1e3 * (b - a) for a, b in zip(clock.times, clock.times[1:])]
    return out


def traced_metrics(workload, contexts, out_dir, seconds, tally, run_tag):
    """Untraced then traced passes; returns per-layer metrics and run details."""
    import tracing

    untraced, _ = run_jobs(workload, contexts, out_dir, seconds / 2, tally)
    tracer = tracing.Tracer()
    starts = []

    def reload(j, ctx):
        # a traced job first reloads its inputs, so that io.load_network is
        # seen; shares are taken over reload plus job
        tracer.start_run(f"{run_tag}/job{j}")
        starts.append(time.perf_counter())
        return workload.load(ctx["spec"])

    with tracing.Wrappers(tracer) as wrappers:
        traced, outcomes = run_jobs(workload, contexts, out_dir, seconds / 2,
                                    tally, before=reload)
        starts.append(time.perf_counter())
    per_job = [tracing.job_metrics(spans, (starts[j + 1] - starts[j]) * 1e9)
               for j, (_, spans) in enumerate(tracer.runs)]
    metrics = {key: statistics.mean(m[key] for m in per_job) for key in per_job[0]}
    steps_ms = step_intervals_ms(outcomes)
    metrics["solver.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
    metrics["solver.step_ms_p99"] = (statistics.quantiles(steps_ms, n=100)[98]
                                     if len(steps_ms) > 1 else 0.0)
    metrics["trace_overhead_s"] = statistics.mean(traced) - statistics.mean(untraced)
    metrics["trace.missing_wrappers"] = len(wrappers.missing)
    tracing.write_spans(WORK / "results" / f"spans-{run_tag}.csv", tracer.runs)
    details = {"untraced_wall_s": untraced, "traced_wall_s": traced,
               "step_samples": len(steps_ms), "missing": wrappers.missing}
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", nargs=2, metavar=("WORKLOAD", "SPEC"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_path()
    if args.probe_setup:
        probe_setup(*args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    end_to_end_units, per_layer_units = metric_units()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = WORK / f"{run_tag}-p{os.getpid()}"
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    order = workloads.draw_order(args.seed)
    result = {"workload": args.workload, "trace": args.trace,
              "drawn": [workload.parameters(k) for k in order],
              "environment": environment(args.seed)}
    tally = Tally()
    try:
        specs = [workload.write_inputs(k, str(run_dir)) for k in order]
        spec_paths = []
        for spec in specs:
            spec_paths.append(run_dir / f"spec_{spec['k']}.json")
            spec_paths[-1].write_text(json.dumps(spec))
        contexts = [workload.setup(spec) for spec in specs]
        if args.trace:
            metrics, result["jobs"] = traced_metrics(
                workload, contexts, str(out_dir), args.seconds, tally, run_tag)
            units = per_layer_units
        else:
            speed = HostSpeed()
            probes = SetupProbes(args.workload, spec_paths, args.seconds, speed)
            scaled = []

            def between(wall, measured):
                scaled.append(speed.scale(wall))
                probes(measured)

            walls, _ = run_jobs(workload, contexts, str(out_dir), args.seconds, tally,
                                between=between)
            metrics = {
                # reference seconds: see "Method" in README.md
                "wall_s": statistics.median(scaled),
                "setup_s": probes.finish(),
                "ok_ratio": 1.0 - tally.failed / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = end_to_end_units
            result["jobs"] = {"wall_s": walls, "wall_ref_s": scaled,
                              "setup_s": probes.times, "setup_ref_s": probes.scaled,
                              "kernel_s": speed.readings}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = tally.failed == 0
    result.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  violations=tally.violations[:20], metrics=metrics)
    (WORK / "results" / f"{run_tag}.json").write_text(json.dumps(result, indent=1))
    print_summary(args, result, units)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def print_summary(args, result, units):
    jobs = result["jobs"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={result['drawn']}")
    print("environment " + json.dumps(result["environment"]))
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} steps and jobs)")
    if args.trace:
        print(f"  {len(jobs['untraced_wall_s'])} untraced and "
              f"{len(jobs['traced_wall_s'])} traced jobs; "
              f"{jobs['step_samples']} step intervals")
        if jobs["missing"]:
            print(f"  missing wrapped names: {', '.join(jobs['missing'])}")
    else:
        walls, kernel = jobs["wall_s"], jobs["kernel_s"]
        p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]
        print(f"  measured: {len(walls)} jobs, median {statistics.median(walls):.4f} s, "
              f"mean {statistics.mean(walls):.4f} s, p90 {p90:.4f} s; set-up over "
              f"{len(jobs['setup_s'])} processes, median "
              f"{statistics.median(jobs['setup_s']):.4f} s: "
              + ", ".join(f"{t:.4f}" for t in jobs["setup_s"]))
        print(f"  reference kernel: {len(kernel)} readings, median "
              f"{statistics.median(kernel):.5f} s, min {min(kernel):.5f} s, max "
              f"{max(kernel):.5f} s; wall_s and setup_s below are in seconds at "
              "the reference host's speed")
    missing = jobs.get("missing", [])
    for name, unit in units.items():
        mark = "  MISSING" if any(name.startswith(m) for m in missing) else ""
        print(f"  {name} = {result['metrics'][name]:.6g} {unit}{mark}")
    for line in result["violations"]:
        print(f"  check failed: {line}")


if __name__ == "__main__":
    sys.exit(main())
