"""Inspect the well-posedness structure of a junction network.

Walks through the checks the solver preflight performs and a few it does
not: discrete compatibility of the initial data with the boundary
conditions, the non-collinearity (NC) functional at the junction, the
algebraic complementary (Lopatinskii) condition of the linearized
boundary value problem, and the uniform parabolicity margin.
"""

import numpy as np

from elastic_networks import fixtures, geometry, junction, wellposed

for name, (state, params) in (
    ("bent triod", fixtures.triod_bent(N=64)),
    ("collinear pair", fixtures.collinear_bad(N=64)),
    ("4 curves in R^3", fixtures.q4_spatial(N=64)),
):
    print(f"=== {name} ===")
    bundle = geometry.finite_differences(state)
    records = wellposed.check_compat_order0(state, params)
    failing = [rec for rec in records if not rec.passed]
    print(f"order-0 compatibility: {'FAIL' if failing else 'ok'} "
          f"({len(records)} conditions)")
    for rec in failing:
        print(f"  failing: {rec}")

    tangents = junction.tangents(bundle)
    nc = junction.nc_value(tangents)
    span = junction.span_dimension(tangents)
    print(f"junction tangents span a {span}-dimensional space, nc = {nc:.4f}")

    if span >= 2:
        coeffs = 1.0 / bundle.speed[:, 0]
        verdicts = [
            wellposed.junction_complementary(tangents, coeffs, p)
            for p in wellposed.SPECTRAL_PARAMETERS
        ]
        print(f"complementary condition at the junction: "
              f"{'ok' if all(verdicts) else 'FAIL'}")
    else:
        print("complementary condition fails: the junction system is "
              "singular exactly when the tangents are collinear")

    margin = wellposed.parabolicity_margin(bundle.speed)
    print(f"uniform parabolicity margin min(1/|f'|)^4 = {margin:.4e}")
    print()

# the complementary condition is an algebraic fact about tangents alone:
# it holds if and only if the tangents are non-collinear, for every
# admissible spectral parameter p
rng = np.random.default_rng(0)
agree = 0
for _ in range(100):
    t = rng.normal(size=(3, 2))
    t /= np.linalg.norm(t, axis=1)[:, None]
    expected = junction.span_dimension(t) >= 2
    p = complex(rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)) or 1.0
    agree += wellposed.junction_complementary(t, np.ones(3), p) is expected
print(f"complementary == non-collinear on {agree}/100 random frames")
