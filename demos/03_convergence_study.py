"""Measure the convergence orders of the time stepper.

Runs the clamped single-curve problem on a sequence of refined grids
against a finer reference (spatial order, expected ~2 from the centered
stencils) and on a sequence of refined time steps (temporal order,
expected ~1 from implicit Euler).
"""

from elastic_networks import studies

print("spatial refinement (fixed tiny time step):")
spatial = studies.spatial_convergence()
for N, err in zip(spatial.levels, spatial.errors):
    print(f"  N = {N:4d}: error vs reference {err:.6e}")
print(f"  fitted orders between levels: "
      + ", ".join(f"{r:.2f}" for r in spatial.rates))

print("temporal refinement (fixed grid):")
temporal = studies.temporal_convergence()
for dt, err in zip(temporal.levels, temporal.errors):
    print(f"  dt = {dt:.1e}: error vs reference {err:.6e}")
print(f"  fitted orders between levels: "
      + ", ".join(f"{r:.2f}" for r in temporal.rates))

assert spatial.order >= studies.SPATIAL_MIN_ORDER
assert temporal.order >= studies.TEMPORAL_MIN_ORDER
print("orders meet the expected second-order space / first-order time rates")
