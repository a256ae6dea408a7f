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

    deferred = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
                "scipy.special", "scipy.spatial")

    def loaded():
        return sorted(name for name in deferred if name in sys.modules)

    for module in pkgutil.iter_modules(elastic_networks.__path__):
        __import__(f"elastic_networks.{module.name}")
    state, params = fixtures.triod_bent(N=32)
    config = solver.SolverConfig(dt=1e-5, t_end=2e-5)
    run_a = solver.evolve(state, params, config)
    print(loaded())
    repar.const_speed_reparam(state.curves[0])
    resampled = solver.NetworkState(repar.const_speed_reparam(state)[0])
    run_b = solver.evolve(resampled, params, config, preflight="warn")
    repar.geometric_equivalence(run_a, run_b, params.lam)
    print(loaded())
""")


def test_a_run_loads_no_integrate_interpolate_or_optimize():
    src = os.path.dirname(os.path.dirname(elastic_networks.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    loaded_by_run, loaded_by_reparam = done.stdout.splitlines()
    assert loaded_by_run == "[]"
    # nor does reparametrizing: one curve, a network and the certificate
    assert loaded_by_reparam == "[]"
