"""Reparametrization, recovered diffeomorphisms and the equivalence certificate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastic_networks import fixtures, repar, solver
from elastic_networks.errors import ConfigurationError, DiffeoBreakdownError
from elastic_networks.geometry import CurveSamples
from elastic_networks.solver import SolverConfig


def test_diffeomorphism_validation_and_inverse():
    grid = np.linspace(0.0, 1.0, 17)
    phi = repar.Diffeomorphism(grid=grid, values=0.5 * (grid + grid**2))
    x = np.linspace(0.0, 1.0, 50)
    assert np.allclose(phi.inverse(phi(x)), x, atol=5e-4)
    with pytest.raises(DiffeoBreakdownError):
        repar.Diffeomorphism(grid=grid, values=np.zeros(17))
    with pytest.raises(ConfigurationError):
        repar.Diffeomorphism(grid=grid, values=grid[:5])


def test_resample_exact_on_cubics():
    # the local 4-point Lagrange interpolant reproduces cubics exactly
    x = np.linspace(0.0, 1.0, 33)
    nodes = np.stack([1.0 + x - x**3, x**2 + 0.5 * x**3], axis=1)
    y = np.linspace(0.0, 1.0, 101)
    out = repar.resample(nodes, y)
    assert np.allclose(out[:, 0], 1.0 + y - y**3, atol=1e-12)
    assert np.allclose(out[:, 1], y**2 + 0.5 * y**3, atol=1e-12)
    # scalar fields keep their shape
    assert repar.resample(x**2, y).shape == y.shape


def test_arclength_map_exact_oracle():
    # f(x) = P (x^2 + x)/2 has |f'| = |P|(x + 1/2): the trapezoidal rule
    # and the centered stencils are exact, so the normalized arclength is
    # exactly (x^2 + x)/ 2 / (value at 1) = (x^2 + x)/1.5... computed below
    x = np.linspace(0.0, 1.0, 65)
    profile = 0.5 * (x**2 + x)
    nodes = np.outer(profile, [3.0, 4.0])
    phi = repar.arclength_map(CurveSamples(nodes))
    exact = profile / profile[-1]
    assert np.allclose(phi.values, exact, atol=1e-10)


def test_const_speed_reparam_properties():
    state, _ = fixtures.triod_bent_skewed(N=128)
    curve = state.curves[0]
    resampled, phi = repar.const_speed_reparam(curve)
    # endpoints preserved
    assert np.allclose(resampled.nodes[0], curve.nodes[0], atol=1e-12)
    assert np.allclose(resampled.nodes[-1], curve.nodes[-1], atol=1e-12)
    # the resampled curve has nearly uniform speed
    from elastic_networks import geometry
    speed = geometry.finite_differences(resampled).speed
    assert np.max(speed) / np.min(speed) < 1.0 + 1e-3
    # phi is the arclength map of the original curve
    assert np.all(np.diff(phi.values) > 0)


def test_tangential_ode_identity_case():
    # same trajectory on both sides with the identity initial maps: every
    # curve's recovered diffeomorphisms stay the identity
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    trajectory = solver.evolve(state, params, config)
    times = [s.time for s in trajectory]
    fields = [repar._tangential_speed_fields(s, params.lam) for s in trajectory]
    grid = np.linspace(0.0, 1.0, 49)
    history = repar.tangential_ode(times, fields, fields, np.tile(grid, (3, 1)))
    assert history.shape == (3, len(trajectory), 49)
    assert np.max(np.abs(history - grid)) < 1e-12


def test_tangential_ode_breakdown_reported():
    # an artificial field with a huge tangential-speed mismatch destroys
    # monotonicity within one step and must raise with the failure time
    N = 32
    grid = np.linspace(0.0, 1.0, N + 1)
    speed = np.ones((1, N + 1))
    push = np.sin(2.0 * np.pi * grid) * 50.0
    fields_a = [(np.zeros((1, N + 1)), speed)] * 2
    fields_b = [(push[None, :], speed)] * 2
    with pytest.raises(DiffeoBreakdownError) as exc_info:
        repar.tangential_ode([0.0, 0.1], fields_a, fields_b, grid[None, :])
    assert exc_info.value.time == pytest.approx(0.1)
    assert exc_info.value.curve == 0
    # two curves, only curve 1 pushed: the breakdown names curve 1
    speed = np.ones((2, N + 1))
    fields_a = [(np.zeros((2, N + 1)), speed)] * 2
    fields_b = [(np.stack([np.zeros(N + 1), push]), speed)] * 2
    with pytest.raises(DiffeoBreakdownError) as exc_info:
        repar.tangential_ode([0.0, 0.1], fields_a, fields_b, np.tile(grid, (2, 1)))
    assert exc_info.value.curve == 1
    assert exc_info.value.time == 0.1
    assert "curve 1" in str(exc_info.value)


def test_geometric_equivalence_identical_runs():
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    trajectory = solver.evolve(state, params, config)
    cert, maps = repar.geometric_equivalence(trajectory, trajectory, params.lam)
    assert cert < 1e-10
    assert maps.shape == (3, len(trajectory), 49)


def test_geometric_equivalence_validates_frames():
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    trajectory = solver.evolve(state, params, config)
    with pytest.raises(ConfigurationError):
        repar.geometric_equivalence(trajectory, trajectory[:-1], params.lam)


@pytest.mark.parametrize("other", [
    # another curve count
    lambda triod: fixtures.single_clamped(N=48)[0],
    # another ambient dimension
    lambda triod: solver.NetworkState([
        CurveSamples(np.pad(c.nodes, ((0, 0), (0, 1)))) for c in triod.curves]),
])
def test_geometric_equivalence_rejects_other_network_shapes(other):
    triod, params = fixtures.triod_bent(N=48)
    mismatched = other(triod)
    with pytest.raises(ConfigurationError) as exc_info:
        repar.geometric_equivalence([triod], [mismatched], params.lam)
    assert str(triod.nodes.shape) in str(exc_info.value)
    assert str(mismatched.nodes.shape) in str(exc_info.value)


def test_geometric_equivalence_constant_speed_pair():
    # a short raw/reparametrized pair: the certificate must beat the raw
    # parametrization mismatch by a wide margin
    with pytest.warns(UserWarning, match="incompatible initial network"):
        traj_a, traj_b, params = _skewed_pair(0.4)
    cert, _ = repar.geometric_equivalence(traj_a, traj_b, params.lam)
    raw = max(
        float(np.max(np.linalg.norm(a.nodes - b.nodes, axis=1)))
        for a, b in zip(traj_a[-1].curves, traj_b[-1].curves)
    )
    assert raw > 1e-2  # the parametrizations genuinely differ
    assert cert < raw / 10.0
    assert cert < 2e-3


# --- the certificate computed one curve, one field at a time (oracle) ------


def _resample_oracle(nodes, positions):
    """One curve (N+1, n) or field (N+1,) at a time, stencil node by node."""
    v = np.asarray(nodes, dtype=float)
    scalar_field = v.ndim == 1
    if scalar_field:
        v = v[:, None]
    N = v.shape[0] - 1
    y = np.clip(np.asarray(positions, dtype=float), 0.0, 1.0)
    u = y * N
    k0 = np.clip(np.floor(u).astype(int) - 1, 0, N - 3)
    out = np.zeros((y.size, v.shape[1]))
    for m in range(4):
        weight = np.ones_like(u)
        for other in range(4):
            if other == m:
                continue
            weight *= (u - (k0 + other)) / ((m - other))
        out += weight[:, None] * v[k0 + m]
    return out[:, 0] if scalar_field else out


def _tangential_ode_oracle(times, fields_a, fields_b, phi0, curve_index):
    """The diffeomorphism ODE of one curve; fields are per frame, per curve."""
    times = np.asarray(times, dtype=float)
    phi = np.array(phi0, dtype=float)
    history = [phi.copy()]

    def rate(frame_lo, frame_hi, weight, x_vals, y_vals):
        def field_at(frames, pick):
            lo = frames[frame_lo][curve_index][pick]
            hi = frames[frame_hi][curve_index][pick]
            return (1.0 - weight) * lo + weight * hi

        phi_star_b = _resample_oracle(field_at(fields_b, 0), x_vals)
        phi_star_a = _resample_oracle(field_at(fields_a, 0), y_vals)
        speed_a = _resample_oracle(field_at(fields_a, 1), y_vals)
        return (phi_star_b - phi_star_a) / speed_a

    grid = np.linspace(0.0, 1.0, phi.size)
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        k1 = rate(k, k + 1, 0.0, grid, phi)
        k2 = rate(k, k + 1, 0.5, grid, np.clip(phi + 0.5 * dt * k1, 0.0, 1.0))
        k3 = rate(k, k + 1, 0.5, grid, np.clip(phi + 0.5 * dt * k2, 0.0, 1.0))
        k4 = rate(k, k + 1, 1.0, grid, np.clip(phi + dt * k3, 0.0, 1.0))
        phi = phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[0], phi[-1] = 0.0, 1.0
        phi = np.clip(phi, 0.0, 1.0)
        history.append(phi.copy())
    return np.array(history)


def _certificate_oracle(trajectory_a, trajectory_b, lam):
    times = np.array([s.time for s in trajectory_a])
    fields_a = [list(zip(*repar._tangential_speed_fields(s, lam))) for s in trajectory_a]
    fields_b = [list(zip(*repar._tangential_speed_fields(s, lam))) for s in trajectory_b]
    certificate = 0.0
    maps = []
    for i in range(trajectory_a[0].q):
        sigma_a = repar.arclength_map(trajectory_a[0].curves[i])
        sigma_b = repar.arclength_map(trajectory_b[0].curves[i])
        phi0 = np.clip(sigma_a.inverse(sigma_b.values), 0.0, 1.0)
        phi0[0], phi0[-1] = 0.0, 1.0
        history = _tangential_ode_oracle(times, fields_a, fields_b, phi0, i)
        maps.append(history)
        for k, phi in enumerate(history):
            warped = _resample_oracle(trajectory_a[k].curves[i].nodes, phi)
            gap = np.linalg.norm(warped - trajectory_b[k].curves[i].nodes, axis=1)
            certificate = max(certificate, float(np.max(gap)))
    return certificate, np.array(maps)


def _skewed_pair(skew):
    state, params = fixtures.triod_bent_skewed(N=64, skew=skew)
    config = SolverConfig(dt=1e-5, t_end=2e-4)
    resampled = solver.NetworkState(
        [repar.const_speed_reparam(c)[0] for c in state.curves])
    return (solver.evolve(state, params, config, preflight="warn"),
            solver.evolve(resampled, params, config, preflight="warn"), params)


def _cross_grid_pair():
    # the same network on two grids, N = 48 against N = 64
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    coarse, params = fixtures.triod_bent(N=48)
    fine, _ = fixtures.triod_bent(N=64)
    return (solver.evolve(coarse, params, config),
            solver.evolve(fine, params, config), params)


@pytest.mark.filterwarnings("ignore:incompatible initial network")
@pytest.mark.parametrize("pair", [
    lambda: _skewed_pair(0.3),
    lambda: _skewed_pair(0.5),
    _cross_grid_pair,
])
def test_certificate_equals_per_curve_oracle(pair):
    run_a, run_b, params = pair()
    certificate, maps = repar.geometric_equivalence(run_a, run_b, params.lam)
    expected, expected_maps = _certificate_oracle(run_a, run_b, params.lam)
    assert certificate == expected
    assert maps.shape == (3, len(run_a), run_b[0].N + 1)
    assert np.array_equal(maps, expected_maps)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), frames=st.integers(0, 3), N=st.integers(8, 64),
       M=st.integers(1, 80), n=st.sampled_from([None, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_resample_equals_per_row_loop_bit_for_bit(q, frames, N, M, n, seed):
    # frames = 0 stacks q fields; otherwise q x frames, as the certificate does
    rng = np.random.default_rng(seed)
    lead = (q,) if frames == 0 else (q, frames)
    nodes = rng.standard_normal(lead + (N + 1,) + (() if n is None else (n,)))
    # parameters outside [0, 1] are clipped, and some sit exactly on nodes
    positions = rng.uniform(-0.1, 1.1, lead + (M,))
    positions[..., ::3] = rng.integers(0, N + 1, positions[..., ::3].shape) / N
    batched = repar.resample(nodes, positions)
    rows = np.array([
        _resample_oracle(field, y)
        for field, y in zip(nodes.reshape((-1,) + nodes.shape[len(lead):]),
                            positions.reshape(-1, M))
    ]).reshape(batched.shape)
    assert batched.shape == lead + (M,) + (() if n is None else (n,))
    assert np.array_equal(batched.view(np.uint64), rows.view(np.uint64))


def test_resample_rejects_mismatched_leading_axes():
    with pytest.raises(ConfigurationError):
        repar.resample(np.zeros((3, 33, 2)), np.zeros((2, 10)))
