"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402
from elastic_networks import geometry, io, solver  # noqa: E402


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 30, 0),
        _span("b", 20, 50, 0),  # overlaps a: the root loses 40, not 50
        _span("a.inner", 12, 15, 1),  # a grandchild does not touch the root
        _span("c", 90, 120, 0),  # runs past the root's end: only 10 count
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 3, 30, 3, 30]


def test_job_metrics_derive_steps_iterates_and_rebuilds_from_spans():
    spans = [
        _span("solver.evolve", 0, 100, None),
        _span("wellposed.check_compat_order0", 1, 3, 0),
        _span("solver.picard_step", 10, 40, 0),
        _span("junction.linearize_boundary", 11, 12, 2),
        _span("junction.linearize_boundary", 20, 21, 2),
        _span("junction.linearize_boundary", 30, 31, 2),
        _span("geometry.finite_differences", 13, 14, 2, "a"),
        _span("geometry.finite_differences", 22, 23, 2, "a"),
        _span("solver.regularity_guard", 41, 45, 0),
        _span("geometry.finite_differences", 42, 43, 8, "c"),
        _span("solver.picard_step", 50, 90, 0),
        _span("junction.linearize_boundary", 51, 52, 10),
        _span("junction.linearize_boundary", 60, 61, 10),
        _span("geometry.finite_differences", 62, 63, 10, "b"),
    ]
    metrics = tracing.job_metrics(spans, window_ns=200)
    # step 1 runs from 10 to 50, so it holds the guard's bundle "c"
    assert metrics["geometry.finite_differences.calls_per_step"] == 4 / 2
    assert metrics["geometry.finite_differences.distinct_ratio"] == 3 / 4
    assert metrics["solver.picard_iters_per_step"] == (2 + 1) / 2
    assert metrics["wellposed.preflight_s"] == 2e-9
    assert metrics["trace.unattributed_share"] == 0.5


def test_wrappers_restore_originals_and_report_missing_names(monkeypatch):
    import scipy.sparse.linalg as linalg

    before = (geometry.finite_differences, solver.picard_step, linalg.splu)
    tracer = tracing.Tracer()
    tracer.start_run("test")
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("solver", "no_such_function"),))
    with tracing.Wrappers(tracer) as wrappers:
        assert geometry.finite_differences is not before[0]
        assert linalg.splu is not before[2]
        state, params = workloads.fixtures.triod_bent(N=16)
        solver.picard_step(state, params, solver.SolverConfig(dt=1e-6))
    assert (geometry.finite_differences, solver.picard_step, linalg.splu) == before
    assert wrappers.missing == ["solver.no_such_function"]
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"solver.picard_step", "geometry.finite_differences",
            tracing.FACTOR, tracing.SOLVE} <= names


def test_wrappers_restore_originals_when_the_run_raises():
    original = solver.evolve
    with pytest.raises(RuntimeError):
        with tracing.Wrappers(tracing.Tracer()):
            raise RuntimeError("job failed")
    assert solver.evolve is original


def _input_bytes(name, seed, directory):
    """Serialized inputs of every job a run with this seed makes, in order."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(directory)
    blobs = []
    for k in workloads.draw_order(seed):
        ctx = workload.load(workload.write_inputs(k, directory))
        blobs.append(json.dumps(io.network_to_dict(ctx["state"], ctx["params"])))
        blobs.append(json.dumps(dataclasses.asdict(ctx["config"])))
    return "".join(blobs).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(name, tmp_path):
    first = _input_bytes(name, 7, str(tmp_path / "a"))
    assert first == _input_bytes(name, 7, str(tmp_path / "b"))
    assert first != _input_bytes(name, 8, str(tmp_path / "c"))


def test_reference_check_rejects_a_final_state_perturbed_by_1e9():
    workload = workloads.WORKLOADS["triod_relax"]
    reference = workload.reference("k0_final0")
    exact = workloads.Outcome(finals=[reference.copy()])
    workload.check_finals(exact, 0)
    assert exact.ok

    perturbed = reference.copy()
    perturbed[1, 40, 0] += 1e-9
    outcome = workloads.Outcome(finals=[perturbed])
    workload.check_finals(outcome, 0)
    assert not outcome.ok
    assert "differs from the reference" in outcome.violations[0]


class _FakeKernel:
    def __init__(self, times):
        self.times = iter(times)

    def seconds(self):
        return next(self.times)


def test_host_speed_scales_by_the_kernel_times_around_each_item():
    import run

    warm = [1.0] * run.WARM_KERNELS
    speed = run.HostSpeed(_FakeKernel(warm + [0.02, 0.03, 0.05]))
    ref = speed.reference_s
    # a job between readings 0.02 and 0.03 ran at 0.025 s per kernel
    assert speed.scale(2.0) == pytest.approx(2.0 * ref / 0.025)
    assert speed.scale(2.0) == pytest.approx(2.0 * ref / 0.04)
    assert speed.readings == [0.02, 0.03, 0.05]


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_of_benchmark_json(trace, capsys):
    import run

    end_to_end, per_layer = run.metric_units()
    assert run.main(["--workload", "triod_relax", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    expected = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
