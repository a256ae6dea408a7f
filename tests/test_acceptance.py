"""Acceptance gate: the twelve stated criteria at their stated tolerances.

Each test prints one PASS line with the measured quantity so the gate
reads as a checklist under `pytest -v -s tests/test_acceptance.py`.
Criteria 2-4 share one simulation of the bent triod; it is run once and
cached at module scope.
"""

import time

import numpy as np
import pytest

from elastic_networks import (
    cli,
    diagnostics,
    fixtures,
    geometry,
    io,
    junction,
    repar,
    solver,
    studies,
    wellposed,
)
from elastic_networks.solver import FlowParams, SolverConfig


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# --- criterion 1: equilibrium fixation ------------------------------------


def test_01_equilibrium_fixation():
    state, params = fixtures.triod_equilibrium(N=64, lam=0.0)
    config = SolverConfig(dt=1e-5, t_end=1e-2)  # 1000 steps
    trajectory = solver.evolve(state, params, config)
    drift = max(
        float(np.max(np.abs(c1.nodes - c0.nodes)))
        for c0, c1 in zip(state.curves, trajectory[-1].curves)
    )
    energy = max(
        abs(diagnostics.network_energy(s, params)) for s in trajectory
    )
    assert drift <= 1e-8
    assert energy <= 1e-10
    _report(1, f"drift {drift:.3e} <= 1e-8, |energy| {energy:.3e} <= 1e-10")


# --- criteria 2-4: one bent-triod run, three monitored properties ---------


@pytest.fixture(scope="module")
def bent_run():
    state, params = fixtures.triod_bent(N=64)
    params = FlowParams(endpoints=params.endpoints,
                        lam=np.array([0.1, 0.1, 0.1]))
    config = SolverConfig(dt=1e-5, t_end=1e-2)
    records = []

    def observer(s):
        records.append({
            "energy": diagnostics.network_energy(s, params),
            "residuals": diagnostics.boundary_residuals(s, params),
            "nc": junction.nc_value(np.stack([
                b.d1[0] / b.speed[0]
                for b in (geometry.finite_differences(c) for c in s.curves)
            ])),
        })
    trajectory = solver.evolve(state, params, config, observers=(observer,))
    e0 = diagnostics.network_energy(state, params)
    return state, params, trajectory, records, e0


def test_02_energy_decay(bent_run):
    state, params, trajectory, records, e0 = bent_run
    energies = [e0] + [r["energy"] for r in records]
    increments = np.diff(energies)
    slack = 1e-8 * (1.0 + e0)
    assert np.all(increments <= slack)
    assert energies[-1] < energies[0]
    _report(2, f"max energy increment {np.max(increments):.3e} <= {slack:.3e}, "
               f"E {energies[0]:.4f} -> {energies[-1]:.4f}")


def test_03_constraint_preservation(bent_run):
    state, params, trajectory, records, e0 = bent_run
    worst = max(max(r["residuals"].values()) for r in records)
    assert worst <= 1e-8
    _report(3, f"worst boundary residual over {len(records)} steps "
               f"{worst:.3e} <= 1e-8")


def test_04_non_collinearity_persistence(bent_run):
    state, params, trajectory, records, e0 = bent_run
    nc0 = junction.nc_value(np.stack([
        b.d1[0] / b.speed[0]
        for b in (geometry.finite_differences(c) for c in state.curves)
    ]))
    values = [nc0] + [r["nc"] for r in records]
    assert nc0 == pytest.approx(7.0 / 8.0, abs=1e-3)
    assert min(values) >= 0.5
    _report(4, f"nc starts {nc0:.4f} (7/8), min over run {min(values):.4f} >= 0.5")


# --- criterion 5: parabolic vs geometric velocity -------------------------


def test_05_geometric_form_consistency():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        N = 256
        x = np.linspace(0.0, 1.0, N + 1)
        n = int(rng.integers(2, 5))
        nodes = np.zeros((N + 1, n))
        for j in range(n):
            nodes[:, j] = rng.normal() * x
            for k in range(1, 5):
                nodes[:, j] += rng.normal(scale=0.3 / k**2) * np.sin(
                    np.pi * k * x + rng.uniform(0.0, 2.0 * np.pi))
        bundle = geometry.finite_differences(geometry.CurveSamples(nodes))
        lam = rng.uniform(0.0, 2.0)
        v1 = geometry.flow_velocity(bundle, lam)
        v2 = geometry.geometric_velocity(bundle, lam)
        scale = np.max(np.linalg.norm(v1, axis=1))
        worst = max(worst, float(np.max(np.linalg.norm(v1 - v2, axis=1)) / scale))
    assert worst <= 1e-8
    _report(5, f"worst relative velocity-form gap over 20 curves "
               f"{worst:.3e} <= 1e-8")


# --- criterion 6: circle curvature and energy oracles ---------------------


def test_06_circle_oracles():
    R = 1.3
    errs = []
    for N in (128, 256):
        bundle = geometry.finite_differences(fixtures.circle(radius=R, N=N))
        kappa = geometry.curvature(bundle)
        errs.append(float(np.max(np.abs(np.linalg.norm(kappa, axis=1) - 1.0 / R))))
    order = float(np.log2(errs[0] / errs[1]))
    assert order >= 1.9
    gaps = []
    for R in (0.5, 1.0, 2.0):
        N = 256
        e = diagnostics.elastic_energy(fixtures.circle(radius=R, N=N))
        gap = abs(e - np.pi / R)
        # second-order quadrature/stencil error, constant measured ~42/R
        assert gap <= 50.0 / (R * N**2)
        gaps.append(gap)
    _report(6, f"curvature order {order:.2f} >= 1.9, energy gaps "
               + ", ".join(f"{g:.2e}" for g in gaps) + " within O(N^-2)")


# --- criterion 7: Q-system equivalence ------------------------------------


def test_07_q_system_equivalence():
    rng = np.random.default_rng(17)
    worst = 0.0
    solvable = 0
    for _ in range(1000):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        collinear = rng.random() < 0.25
        if collinear:
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            t = np.array([s * d for s in rng.choice([-1.0, 1.0], q)])
        else:
            t = rng.normal(size=(q, n))
            t /= np.linalg.norm(t, axis=1)[:, None]
        a = rng.normal(size=(q, n))
        a -= np.einsum("ij,ij->i", a, t)[:, None] * t
        frame = junction.JunctionFrame(tangents=t, a_vectors=a)
        expected = junction.span_dimension(t) >= 2
        try:
            phi = junction.junction_phi(frame)
        except junction.NonCollinearError:
            assert not expected
            continue
        assert expected
        solvable += 1
        for i in range(q):
            lhs = (q - 1) * phi[i] - sum(
                phi[j] * float(t[j] @ t[i]) for j in range(q) if j != i)
            rhs = sum(-float(a[j] @ t[i]) for j in range(q) if j != i)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    _report(7, f"solvability matched the span criterion on 1000 frames; "
               f"worst componentwise residual on {solvable} solvable "
               f"instances {worst:.3e} <= 1e-10")


# --- criterion 8: Lopatinskii equivalence ---------------------------------


def test_08_lopatinskii_equivalence():
    rng = np.random.default_rng(8)
    agreements = 0
    total = 0
    for trial in range(200):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        if trial % 4 == 0:
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            t = np.array([s * d for s in rng.choice([-1.0, 1.0], q)])
        else:
            t = rng.normal(size=(q, n))
            t /= np.linalg.norm(t, axis=1)[:, None]
        D = rng.uniform(0.5, 2.0, size=q)
        expected = junction.span_dimension(t) >= 2
        for p in (1.0, 1.0j, 1.0 + 1.0j, 4.0, 2.0j):
            total += 1
            agreements += (
                wellposed.junction_complementary(t, D, p) is expected
            )
    assert agreements == total
    _report(8, f"junction complementary condition matched the span criterion "
               f"in {agreements}/{total} cases")


# --- criterion 9: convergence orders --------------------------------------


def test_09_convergence_orders():
    start = time.monotonic()
    spatial = studies.spatial_convergence()
    temporal = studies.temporal_convergence()
    elapsed = time.monotonic() - start
    assert spatial.order >= 1.9
    assert temporal.order >= 0.9
    assert elapsed <= 300.0
    _report(9, f"spatial order {spatial.order:.2f} >= 1.9, temporal order "
               f"{temporal.order:.2f} >= 0.9, runtime {elapsed:.0f}s <= 300s")


# --- criterion 10: reparametrization certificate --------------------------


def test_10_reparametrization_certificate():
    state, params = fixtures.triod_bent_skewed(N=128)
    config = SolverConfig(dt=5e-6, t_end=5e-3, store_every=2)
    # warn, not strict: the skewed parametrization and the resampled curves
    # satisfy the boundary conditions analytically but not to the strict
    # discrete preflight tolerance
    with pytest.warns(UserWarning, match="incompatible initial network"):
        run_a = solver.evolve(state, params, config, preflight="warn")
        resampled = solver.NetworkState(
            [repar.const_speed_reparam(c)[0] for c in state.curves])
        run_b = solver.evolve(resampled, params, config, preflight="warn")
    certificate, _ = repar.geometric_equivalence(run_a, run_b, params.lam)
    raw = max(
        float(np.max(np.linalg.norm(a.nodes - b.nodes, axis=1)))
        for a, b in zip(run_a[-1].curves, run_b[-1].curves)
    )
    assert certificate <= 1e-3
    _report(10, f"certificate {certificate:.3e} <= 1e-3 over [0, 0.005] "
                f"(raw parametrization mismatch {raw:.3e})")


# --- criterion 11: first variations ---------------------------------------


def test_11_first_variation_agreement():
    rng = np.random.default_rng(11)
    worst = {"elastic": 0.0, "length": 0.0}
    # gentle perturbations of a straight segment: the comparison carries an
    # absolute O(h^2) discretization gap, and the 1e-6 tolerance floor
    # requires that gap to stay small even where the analytic value nearly
    # cancels
    amp = 0.05
    for _ in range(50):
        N = 512
        x = np.linspace(0.0, 1.0, N + 1)
        nodes = np.stack([
            x + amp * 0.05 * np.sin(np.pi * x * rng.uniform(0.5, 1.5)),
            amp * (0.15 * np.sin(np.pi * x)
                   + 0.03 * np.sin(2.0 * np.pi * x
                                   + rng.uniform(0.0, 2.0 * np.pi))),
        ], axis=1)
        cutoff = (x * (1.0 - x)) ** 5 / 0.25**5
        direction = np.stack([
            cutoff * np.sin(3.0 * x + rng.uniform(0.0, 2.0)),
            cutoff * np.cos(2.0 * x + rng.uniform(0.0, 2.0)),
        ], axis=1)
        curve = geometry.CurveSamples(nodes)
        for functional in ("elastic", "length"):
            analytic, numeric = diagnostics.first_variation_check(
                curve, direction, functional=functional)
            tol = max(1e-6, 1e-4 * abs(analytic))
            gap = abs(analytic - numeric)
            assert gap <= tol, (functional, analytic, numeric)
            worst[functional] = max(worst[functional], gap / tol)
    _report(11, "worst gap/tolerance over 50 pairs: elastic "
                f"{worst['elastic']:.2f}, length {worst['length']:.2f} (<= 1)")


# --- criterion 12: failure surfacing --------------------------------------


def test_12_failure_surfacing(tmp_path, capsys):
    state, params = fixtures.collinear_bad(N=64)
    net = str(tmp_path / "collinear.json")
    io.save_network(net, state, params)

    code_check = cli.main(["check", "--network", net])
    out_check = capsys.readouterr().out
    assert code_check == cli.EXIT_INVALID
    assert "(NC)" in out_check

    out_dir = str(tmp_path / "run")
    code_sim = cli.main(["simulate", "--network", net, "--out", out_dir,
                         "--strict"])
    err_sim = capsys.readouterr().err
    assert code_sim == cli.EXIT_INVALID
    assert "(NC)" in err_sim
    import os
    assert not os.path.exists(os.path.join(out_dir, "trajectory.json"))
    _report(12, "collinear fixture rejected by check (exit 1) and by "
                "simulate --strict before any step, naming (NC)")
