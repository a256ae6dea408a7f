"""The benchmark's traced run wraps package functions by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    # the traced run skips a missing name and only reports it, so a
    # renamed function would silently drop out of the per-layer split
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"elastic_networks.{module}"), attr, None))]
    assert tracing.TARGETS and missing == []
