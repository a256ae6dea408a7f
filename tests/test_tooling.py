"""The benchmark loads the package's names: its traced run wraps package
functions by name, and its workloads import and call them."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from elastic_networks import repar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # the traced run skips a missing name and only reports it, so a
    # renamed function would silently drop out of the per-layer split
    tracing = _load(TRACING)
    missing = [f"{module}.{attr}" for module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"elastic_networks.{module}"), attr, None))]
    assert tracing.TARGETS and missing == []


def test_workloads_load_and_every_package_attribute_they_call_exists():
    # loading runs the workloads' imports, among them solver.NetworkState
    # and geometry.CurveSamples; the jobs then call package modules by
    # attribute, which only fails once a benchmark run reaches the call
    workloads = _load(WORKLOADS)
    assert set(workloads.WORKLOADS) == {"triod_relax", "fine_grid", "certificate"}
    modules = {name for name, value in vars(workloads).items()
               if getattr(value, "__name__", "").startswith("elastic_networks.")}
    used = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(getattr(workloads, module), attr)]
    assert modules and used and missing == []


def test_certificate_per_curve_resampling_equals_the_network_call():
    # the certificate workload resamples its networks one curve at a time,
    # as the package once did; its callers now resample a network at once
    workloads = _load(WORKLOADS)
    certificate = workloads.Certificate()
    for k in range(len(certificate.grid)):
        state, _ = certificate.network(k)
        per_curve = workloads.NetworkState(
            curves=[repar.const_speed_reparam(c)[0] for c in state.curves],
            time=state.time,
        )
        assert np.array_equal(per_curve.nodes, repar.const_speed_reparam(state)[0])
