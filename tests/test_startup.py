"""Start-up cost: which SciPy modules a run loads.

Checked in a fresh interpreter, since the test process has long since
imported everything.
"""

import os
import subprocess
import sys
import textwrap

import elastic_networks

SCRIPT = textwrap.dedent("""
    import pkgutil
    import sys

    import elastic_networks
    from elastic_networks import fixtures, repar, solver

    for module in pkgutil.iter_modules(elastic_networks.__path__):
        __import__(f"elastic_networks.{module.name}")
    state, params = fixtures.triod_bent(N=32)
    solver.evolve(state, params, solver.SolverConfig(dt=1e-5, t_end=1e-5))
    deferred = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
    print(sorted(name for name in deferred if name in sys.modules))
    repar.const_speed_reparam(state.curves[0])
    print("scipy.interpolate" in sys.modules)
""")


def test_a_run_loads_no_integrate_interpolate_or_optimize():
    src = os.path.dirname(os.path.dirname(elastic_networks.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    loaded_by_run, loaded_by_reparam = done.stdout.split()
    assert loaded_by_run == "[]"
    # the interpolator is imported on first use, not never
    assert loaded_by_reparam == "True"
