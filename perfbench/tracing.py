"""Spans around calls into the package's modules, for the traced run.

The traced run replaces chosen module attributes of ``elastic_networks``
(and ``scipy.sparse.linalg.splu``, which the solver calls) with wrappers
that record one span per call: name, start, end, parent span and run id.
Nothing inside ``src/`` is edited; the wrappers are installed from here
and the original attributes are put back when the run ends.  A name that
a later version of the package no longer has is reported as missing and
skipped.  Spans stay in memory until :func:`write_spans` dumps them.

Only calls made through a module attribute are seen: a function that
the package imports by name into another module is not wrapped there.
"""

import bisect
import csv
import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

# (module, attribute) pairs wrapped in the traced run.  The span name is
# "<module>.<attribute>"; each one is a public function at a layer
# boundary that a per-layer metric reads.
TARGETS = (
    ("geometry", "finite_differences"),
    ("junction", "linearize_boundary"),
    ("junction", "span_dimension"),
    ("wellposed", "check_compat_order0"),
    ("wellposed", "parabolicity_margin"),
    ("solver", "evolve"),
    ("solver", "picard_step"),
    ("solver", "regularity_guard"),
    ("diagnostics", "record_state"),
    ("repar", "geometric_equivalence"),
    ("repar", "tangential_ode"),
    ("repar", "resample"),
    ("repar", "const_speed_reparam"),
    ("io", "load_network"),
    ("io", "save_trajectory"),
)
FACTOR = "solver.superlu.factor"
SOLVE = "solver.superlu.solve"
PREFLIGHT = ("junction.span_dimension", "wellposed.check_compat_order0",
             "wellposed.parabolicity_margin")
LAYERS = ("geometry", "junction", "wellposed", "solver", "superlu",
          "diagnostics", "repar", "io")
# SuperLU keeps a float64 value and an int32 row index per stored entry
BYTES_PER_FACTOR_ENTRY = 12

# span record fields, kept as plain lists for speed
NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """In-memory span recorder for a single-threaded benchmark process.

    Each job is one run: start_run opens a fresh span list, so parent
    indices point into the list of the same run.
    """

    def __init__(self):
        self.runs = []  # (run_id, spans)
        self.spans = []
        self._stack = []

    def start_run(self, run_id):
        self.spans = []
        self._stack = []
        self.runs.append((run_id, self.spans))

    def call(self, name, fn, args, kwargs, annotate=None):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter_ns(), None, parent, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        if annotate is not None:
            span[EXTRA] = annotate(args, result)
        return result


def _nodes_key(args, result):
    # identifies the node array a derivative bundle was built from
    nodes = args[0].nodes
    return hash((nodes.shape, nodes.tobytes()))


def _saved_bytes(args, result):
    return os.path.getsize(args[0])


ANNOTATE = {
    "geometry.finite_differences": _nodes_key,
    "io.save_trajectory": _saved_bytes,
}


class _TracedFactor:
    """SuperLU factor whose solve calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call(SOLVE, self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _wrap(tracer, name, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, annotate)
    return traced


def _wrap_splu(tracer, splu):
    @functools.wraps(splu)
    def traced(*args, **kwargs):
        lu = tracer.call(FACTOR, splu, args, kwargs, lambda a, lu: lu.nnz)
        return _TracedFactor(lu, tracer)
    return traced


class Wrappers:
    """Context manager that wraps TARGETS and restores them on exit.

    ``missing`` lists the span names whose module or attribute does not
    exist, so the caller can report them instead of failing.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr in TARGETS:
                name = f"{module_name}.{attr}"
                try:
                    module = importlib.import_module(f"elastic_networks.{module_name}")
                except ImportError:
                    self.missing.append(name)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                self._patch(module, attr, _wrap(self.tracer, name, fn))
            linalg = importlib.import_module("scipy.sparse.linalg")
            self._patch(linalg, "splu", _wrap_splu(self.tracer, linalg.splu))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_of(name):
    return "superlu" if name.startswith("solver.superlu.") else name.split(".")[0]


def job_metrics(job, window_ns):
    """Per-layer metrics of the spans of one traced job.

    window_ns is the job's wall time, the base of every share.
    """
    selfs = self_times(job)
    by_name = defaultdict(list)
    self_by_name = defaultdict(int)
    for span, own in zip(job, selfs):
        by_name[span[NAME]].append(span)
        self_by_name[span[NAME]] += own

    def seconds(name):
        return sum(s[END] - s[START] for s in by_name[name]) / 1e9

    # one step runs from the start of picard_step to the start of the next
    # one (or the end of evolve), so it holds the guard and the observers
    windows = []
    for run in by_name["solver.evolve"]:
        starts = sorted(s[START] for s in by_name["solver.picard_step"]
                        if run[START] <= s[START] <= run[END])
        windows.extend(zip(starts, starts[1:] + [run[END]]))
    windows.sort()
    window_starts = [w[0] for w in windows]
    per_step = defaultdict(list)
    for s in by_name["geometry.finite_differences"]:
        k = bisect.bisect_right(window_starts, s[START]) - 1
        if k >= 0 and s[START] < windows[k][1]:
            per_step[k].append(s[EXTRA])
    step_calls = sum(len(keys) for keys in per_step.values())
    distinct = sum(len(set(keys)) for keys in per_step.values())
    steps = len(windows)

    # _step_matrix calls junction.linearize_boundary once per step and
    # _step_rhs once per Picard iterate, so iterates = calls - 1 per step
    boundary_starts = sorted(s[START] for s in by_name["junction.linearize_boundary"])
    iterates = 0
    for s in by_name["solver.picard_step"] if boundary_starts else ():
        inside = (bisect.bisect_right(boundary_starts, s[END])
                  - bisect.bisect_left(boundary_starts, s[START]))
        iterates += inside - 1

    factors = by_name[FACTOR]
    solves = len(by_name[SOLVE])
    fill = statistics.median(s[EXTRA] for s in factors) if factors else 0
    evolve_ids = {i for i, s in enumerate(job) if s[NAME] == "solver.evolve"}
    preflight = sum(
        s[END] - s[START] for s in job
        if s[NAME] in PREFLIGHT and s[PARENT] in evolve_ids
    ) / 1e9
    top_level = sum(s[END] - s[START] for s in job if s[PARENT] is None) / 1e9
    layer_self = defaultdict(int)
    for name, own in self_by_name.items():
        layer_self[layer_of(name)] += own
    window = window_ns / 1e9

    metrics = {
        "geometry.finite_differences.s": seconds("geometry.finite_differences"),
        "geometry.finite_differences.calls_per_step": step_calls / steps if steps else 0.0,
        "geometry.finite_differences.distinct_ratio": distinct / step_calls if step_calls else 0.0,
        "solver.self_s": (self_by_name["solver.evolve"]
                          + self_by_name["solver.picard_step"]) / 1e9,
        "solver.picard_iters_per_step": iterates / steps if steps else 0.0,
        "solver.superlu.factor_s": seconds(FACTOR),
        "solver.superlu.solve_s": seconds(SOLVE),
        "solver.superlu.solves_per_factor": solves / len(factors) if factors else 0.0,
        "solver.superlu.fill_nnz": fill,
        "solver.superlu.fill_bytes_computed": fill * BYTES_PER_FACTOR_ENTRY,
        "solver.regularity_guard.s": seconds("solver.regularity_guard"),
        "junction.linearize_boundary.s": seconds("junction.linearize_boundary"),
        "junction.linearize_boundary.calls": len(by_name["junction.linearize_boundary"]),
        "wellposed.preflight_s": preflight,
        "diagnostics.record_state.s": seconds("diagnostics.record_state"),
        "diagnostics.record_state.calls": len(by_name["diagnostics.record_state"]),
        "repar.geometric_equivalence.self_s": self_by_name["repar.geometric_equivalence"] / 1e9,
        "repar.tangential_ode.s": seconds("repar.tangential_ode"),
        "repar.resample.calls": len(by_name["repar.resample"]),
        "repar.const_speed_reparam.s": seconds("repar.const_speed_reparam"),
        "io.load_network.s": seconds("io.load_network"),
        "io.save_trajectory.s": seconds("io.save_trajectory"),
        "io.bytes_written": sum(s[EXTRA] or 0 for s in by_name["io.save_trajectory"]),
        "trace.unattributed_share": 1.0 - top_level / window,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = layer_self[layer] / 1e9 / window
    return metrics


def write_spans(path, runs):
    """Write the spans of all runs as CSV: run, index, name, start, end, parent."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run", "index", "name", "start_ns", "end_ns", "parent"))
        for run_id, spans in runs:
            for i, s in enumerate(spans):
                writer.writerow((run_id, i, s[NAME], s[START], s[END],
                                 "" if s[PARENT] is None else s[PARENT]))
