"""Reparametrization, recovered diffeomorphisms and the equivalence certificate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastic_networks import fixtures, geometry, repar, solver
from elastic_networks.errors import ConfigurationError, DiffeoBreakdownError
from elastic_networks.geometry import CurveSamples
from elastic_networks.solver import SolverConfig


def test_arclength_map_rejects_a_zero_speed_stretch():
    # two intervals of zero speed leave the map flat there
    speed = np.ones((2, 17))
    speed[1, 5:8] = 0.0
    with pytest.raises(DiffeoBreakdownError, match="not strictly increasing"):
        repar.arclength_map(speed, 1.0 / 16)
    with pytest.raises(DiffeoBreakdownError):
        repar.arclength_map(speed[1], 1.0 / 16)
    assert np.all(np.diff(repar.arclength_map(speed[0], 1.0 / 16)) > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_arclength_map_rejects_a_non_finite_speed(bad):
    # a NaN speed would give an all-NaN map, an inf one an inf / inf; both
    # fail as a map that is not strictly increasing, with no RuntimeWarning
    speed = np.ones((3, 17))
    speed[2, 6] = bad
    with pytest.raises(DiffeoBreakdownError, match="not strictly increasing"):
        repar.arclength_map(speed, 1.0 / 16)


@pytest.mark.parametrize("row", [
    np.linspace(1.0, 0.0, 17),
    np.r_[np.linspace(0.0, 0.5, 8), np.linspace(0.5, 1.0, 9)],
    np.r_[np.linspace(0.0, 1.0, 16), np.nan],
    np.r_[np.linspace(0.0, 1.0, 16), np.inf],
], ids=["decreasing", "flat", "nan", "inf"])
def test_inverse_map_rejects_a_map_not_strictly_increasing(row):
    grid = np.linspace(0.0, 1.0, 17)
    with pytest.raises(DiffeoBreakdownError, match="not strictly increasing"):
        repar.inverse_map(row, grid)
    # one bad row fails the whole stack
    with pytest.raises(DiffeoBreakdownError, match="not strictly increasing"):
        repar.inverse_map(np.stack([grid, row]), grid)


def test_inverse_map_round_trip():
    # phi(x) = (x + x^2)/2 sampled on 17 nodes, inverted at phi(x)
    grid = np.linspace(0.0, 1.0, 17)
    x = np.linspace(0.0, 1.0, 50)
    phi = 0.5 * (grid + grid**2)
    assert np.allclose(repar.inverse_map(phi, 0.5 * (x + x**2)), x, atol=5e-4)
    # a stack of maps, each inverted at its own points or all at the same
    stacked = repar.inverse_map(np.stack([phi, grid]), np.stack([0.5 * (x + x**2), x]))
    assert stacked.shape == (2, 50)
    assert np.allclose(stacked, x, atol=5e-4)
    shared = repar.inverse_map(np.stack([grid, grid]), x)
    assert np.allclose(shared, x, atol=1e-15)
    assert shared[:, 0].tolist() == [0.0, 0.0] and shared[:, -1].tolist() == [1.0, 1.0]


# --- the monotone cubic against scipy.interpolate.PchipInterpolator -------


def _pchip_oracle(x, y, at):
    """SciPy's PCHIP interpolant of each row (x, y), at each row's points."""
    from scipy.interpolate import PchipInterpolator

    x, y = np.broadcast_arrays(x, y)
    at = np.broadcast_to(at, x.shape[:-1] + np.shape(at)[-1:])
    return np.reshape([PchipInterpolator(*row)(points) for *row, points in zip(
        x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1]),
        at.reshape(-1, at.shape[-1]))], at.shape)


def _inverse_oracle(values, at):
    """inverse_map's contract with SciPy's PCHIP: clipped, ends pinned."""
    grid = np.linspace(0.0, 1.0, values.shape[-1])
    out = np.clip(_pchip_oracle(values, grid, at), 0.0, 1.0)
    out[..., 0], out[..., -1] = 0.0, 1.0
    return out


def test_monotone_cubic_at_its_breakpoints_and_beyond_its_ends():
    x = np.array([0.0, 0.05, 0.3, 0.35, 0.8, 1.0])
    rows = {"increasing": x + 0.4 * x**2, "peaked": np.sin(3.0 * x),
            "flat piece": np.array([0.0, 0.2, 0.2, 0.5, 0.6, 0.6])}
    for y in rows.values():
        for at in (x, np.array([-0.1, -0.01, 1.01, 1.1])):
            assert np.array_equal(repar._monotone_cubic(x, y, at), _pchip_oracle(x, y, at))
    # the inverse at the map's own breakpoints
    values = rows["increasing"] / rows["increasing"][-1]
    assert np.array_equal(repar.inverse_map(values, values), _inverse_oracle(values, values))


def test_monotone_cubic_stacked_rows_equal_scipy_per_row():
    rng = np.random.default_rng(7)
    values = np.cumsum(rng.uniform(0.1, 1.0, (2, 3, 12)), axis=-1)
    values = (values - values[..., :1]) / (values[..., -1:] - values[..., :1])
    own = rng.uniform(-0.1, 1.1, (2, 3, 40))
    shared = np.linspace(-0.1, 1.1, 25)
    grid = np.linspace(0.0, 1.0, 12)
    assert np.array_equal(repar._monotone_cubic(values, grid, own),
                          _pchip_oracle(values, grid, own))
    assert np.array_equal(repar.inverse_map(values, own), _inverse_oracle(values, own))
    assert np.array_equal(repar.inverse_map(values, shared),
                          _inverse_oracle(values, shared))


@pytest.mark.parametrize("N, skew", [(16, 0.1), (64, 0.5), (1000, 0.8)])
def test_monotone_cubic_inverts_skewed_arclength_maps_as_scipy_does(N, skew):
    state, _ = fixtures.triod_bent_skewed(N=N, skew=skew)
    phi = repar.arclength_map(geometry.finite_differences(state).speed, 1.0 / N)
    grid = np.broadcast_to(np.linspace(0.0, 1.0, N + 1), phi.shape)
    at = np.concatenate([grid, phi, np.linspace(-0.1, 1.1, 3 * N)[None].repeat(3, 0)],
                        axis=-1)
    # the arclength map inverted, and the map itself through its inverse
    for x, y in ((phi, grid), (grid, phi)):
        assert np.array_equal(repar._monotone_cubic(x, y, at), _pchip_oracle(x, y, at))
    assert np.array_equal(repar.inverse_map(phi, grid), _inverse_oracle(phi, grid))


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 3), K=st.integers(3, 30), M=st.integers(1, 30),
       shape=st.sampled_from(["monotone", "random", "steps"]),
       seed=st.integers(0, 2**32 - 1))
def test_monotone_cubic_equals_scipy_pchip_bit_for_bit(rows, K, M, shape, seed):
    # strictly increasing x with uneven gaps; y rising, arbitrary or with
    # flat pieces, so every slope case and both end clamps are reached
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.0, 1.0, (rows, K)) ** 3 + 1e-3, axis=-1)
    if shape == "monotone":
        y = np.cumsum(rng.uniform(0.0, 1.0, (rows, K)), axis=-1)
    elif shape == "random":
        y = rng.standard_normal((rows, K))
    else:
        y = np.cumsum(rng.integers(-1, 2, (rows, K)), axis=-1).astype(float)
    span = x[:, -1:] - x[:, :1]
    at = x[:, :1] + span * rng.uniform(-0.2, 1.2, (rows, M))
    at = np.concatenate([at, x], axis=-1)  # and every breakpoint
    assert np.array_equal(repar._monotone_cubic(x, y, at), _pchip_oracle(x, y, at))


def test_resample_exact_on_cubics():
    # the local 4-point Lagrange interpolant reproduces cubics exactly
    x = np.linspace(0.0, 1.0, 33)
    nodes = np.stack([1.0 + x - x**3, x**2 + 0.5 * x**3], axis=1)
    y = np.linspace(0.0, 1.0, 101)
    out = repar.resample(nodes, y)
    assert np.allclose(out[:, 0], 1.0 + y - y**3, atol=1e-12)
    assert np.allclose(out[:, 1], y**2 + 0.5 * y**3, atol=1e-12)


def test_arclength_map_exact_oracle():
    # f(x) = P (x^2 + x)/2 has |f'| = |P|(x + 1/2): the trapezoidal rule
    # and the centered stencils are exact, so the normalized arclength is
    # exactly (x^2 + x)/ 2 / (value at 1) = (x^2 + x)/1.5... computed below
    x = np.linspace(0.0, 1.0, 65)
    profile = 0.5 * (x**2 + x)
    speed = geometry.finite_differences(CurveSamples(np.outer(profile, [3.0, 4.0]))).speed
    exact = profile / profile[-1]
    assert np.allclose(repar.arclength_map(speed, 1.0 / 64), exact, atol=1e-10)


# h = 1/N is a power of two at N = 8, 128 and 2048, where multiplying by
# it is exact, so N = 37 also checks where the factor h sits in the sum
@pytest.mark.parametrize("N", [8, 37, 128, 2048])
def test_arclength_map_equals_scipy_cumulative_trapezoid(N):
    x = np.linspace(0.0, 1.0, N + 1)
    network = solver.NetworkState([
        np.stack([x + 0.3 * x**2, np.sin(3.0 * x)], axis=-1),
        np.stack([np.cos(2.0 * x), x - 0.4 * x**3], axis=-1),
    ])
    speed = geometry.finite_differences(network).speed
    expected = np.array([_arclength_oracle(curve) for curve in network.curves])
    # one curve at a time and the stacked (q, N+1) speeds alike
    for i, curve in enumerate(network.curves):
        assert np.array_equal(repar.arclength_map(speed[i], curve.h), expected[i])
    assert np.array_equal(repar.arclength_map(speed, 1.0 / N), expected)


def test_const_speed_reparam_properties():
    state, _ = fixtures.triod_bent_skewed(N=128)
    resampled, phi = repar.const_speed_reparam(state)
    assert resampled.shape == state.nodes.shape and phi.shape == (3, 129)
    # endpoints preserved
    assert np.allclose(resampled[:, [0, -1]], state.nodes[:, [0, -1]], atol=1e-12)
    # the resampled curves have nearly uniform speed
    speed = geometry.finite_differences(solver.NetworkState(resampled)).speed
    assert np.all(np.max(speed, axis=1) / np.min(speed, axis=1) < 1.0 + 1e-3)
    # phi holds the arclength maps of the original curves
    assert np.array_equal(
        phi, repar.arclength_map(geometry.finite_differences(state).speed, 1.0 / 128))
    # one curve on its own gives that curve's row
    nodes, phi_0 = repar.const_speed_reparam(state.curves[0])
    assert np.array_equal(nodes, resampled[0]) and np.array_equal(phi_0, phi[0])


def test_tangential_ode_identity_case():
    # same trajectory on both sides with the identity initial maps: every
    # curve's recovered diffeomorphisms stay the identity
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    trajectory = solver.evolve(state, params, config)
    times = [s.time for s in trajectory]
    fields = repar._fields(trajectory, params.lam)
    grid = np.linspace(0.0, 1.0, 49)
    history = repar.tangential_ode(times, fields, fields[..., 0], np.tile(grid, (3, 1)))
    assert history.shape == (3, len(trajectory), 49)
    assert np.max(np.abs(history - grid)) < 1e-12


def test_tangential_ode_breakdown_reported():
    # an artificial field with a huge tangential-speed mismatch destroys
    # monotonicity within one step and must raise with the failure time
    N = 32
    grid = np.linspace(0.0, 1.0, N + 1)
    # run a has phi_star 0 and speed 1 at both frames, (frames, q, N+1, 2)
    fields_a = np.stack([np.zeros((2, 1, N + 1)), np.ones((2, 1, N + 1))], axis=-1)
    push = np.sin(2.0 * np.pi * grid) * 50.0
    star_b = np.broadcast_to(push, (2, 1, N + 1))
    with pytest.raises(DiffeoBreakdownError) as exc_info:
        repar.tangential_ode([0.0, 0.1], fields_a, star_b, grid[None, :])
    assert exc_info.value.time == pytest.approx(0.1)
    assert exc_info.value.curve == 0
    # two curves, only curve 1 pushed: the breakdown names curve 1
    fields_a = np.stack([np.zeros((2, 2, N + 1)), np.ones((2, 2, N + 1))], axis=-1)
    star_b = np.broadcast_to([np.zeros(N + 1), push], (2, 2, N + 1))
    with pytest.raises(DiffeoBreakdownError) as exc_info:
        repar.tangential_ode([0.0, 0.1], fields_a, star_b, np.tile(grid, (2, 1)))
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


def test_geometric_equivalence_rejects_times_a_relative_5e_6_apart():
    # 2e-10 apart at t = 4e-5: within NumPy's default relative tolerance
    # of 1e-5, far beyond the 1e-12 the frame times must match to
    state, params = fixtures.triod_bent(N=32)
    trajectory = solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=4e-5))
    later = [solver.NetworkState(s.nodes, time=s.time * (1.0 + 5e-6))
             for s in trajectory]
    with pytest.raises(ConfigurationError, match="trajectories must store matching times"):
        repar.geometric_equivalence(trajectory, later, params.lam)


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


def _arclength_oracle(curve):
    """Normalized arclength of one curve, by SciPy's trapezoid sum."""
    from scipy.integrate import cumulative_trapezoid

    arc = cumulative_trapezoid(geometry.finite_differences(curve).speed,
                               dx=curve.h, initial=0.0)
    values = arc / arc[-1]
    values[0], values[-1] = 0.0, 1.0
    return values


def _curve_fields(curve, lam):
    """(phi_star, speed) of one curve, each (N+1,)."""
    bundle = geometry.finite_differences(curve)
    return geometry.phi_star(bundle, lam), bundle.speed


def _certificate_oracle(trajectory_a, trajectory_b, lam):
    from scipy.interpolate import PchipInterpolator

    times = np.array([s.time for s in trajectory_a])
    fields_a = [[_curve_fields(curve, lam[i]) for i, curve in enumerate(s.curves)]
                for s in trajectory_a]
    fields_b = [[_curve_fields(curve, lam[i]) for i, curve in enumerate(s.curves)]
                for s in trajectory_b]
    certificate = 0.0
    maps = []
    for i in range(trajectory_a[0].q):
        sigma_a = _arclength_oracle(trajectory_a[0].curves[i])
        sigma_b = _arclength_oracle(trajectory_b[0].curves[i])
        grid_a = np.linspace(0.0, 1.0, sigma_a.size)
        phi0 = np.clip(PchipInterpolator(sigma_a, grid_a)(sigma_b), 0.0, 1.0)
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
    resampled = solver.NetworkState(repar.const_speed_reparam(state)[0])
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


def test_certificate_differentiates_each_stored_frame_once(monkeypatch):
    # the initial maps read the speeds of the frame-0 fields, so no state
    # is differentiated twice
    run_a, run_b, params = _cross_grid_pair()
    differentiate = geometry.finite_differences
    calls = []

    def counting(curves):
        calls.append(curves)
        return differentiate(curves)

    monkeypatch.setattr(geometry, "finite_differences", counting)
    repar.geometric_equivalence(run_a, run_b, params.lam)
    assert (len(run_a), len(run_b)) == (11, 11)
    assert len(calls) == 22
    assert {id(state) for state in calls} == {id(s) for s in run_a + run_b}


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), frames=st.integers(0, 3), N=st.integers(8, 64),
       M=st.integers(1, 80), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_resample_equals_per_row_loop_bit_for_bit(q, frames, N, M, n, seed):
    # frames = 0 stacks q curves; otherwise q x frames, as the certificate does
    rng = np.random.default_rng(seed)
    lead = (q,) if frames == 0 else (q, frames)
    nodes = rng.standard_normal(lead + (N + 1, n))
    # parameters outside [0, 1] are clipped, and some sit exactly on nodes
    positions = rng.uniform(-0.1, 1.1, lead + (M,))
    positions[..., ::3] = rng.integers(0, N + 1, positions[..., ::3].shape) / N
    batched = repar.resample(nodes, positions)
    rows = np.array([
        _resample_oracle(field, y)
        for field, y in zip(nodes.reshape((-1,) + nodes.shape[len(lead):]),
                            positions.reshape(-1, M))
    ]).reshape(batched.shape)
    assert batched.shape == lead + (M, n)
    assert np.array_equal(batched.view(np.uint64), rows.view(np.uint64))


def test_resample_rejects_mismatched_leading_axes():
    with pytest.raises(ConfigurationError):
        repar.resample(np.zeros((3, 33, 2)), np.zeros((2, 10)))
    # a scalar field is no curve: it needs a column axis, (N+1, 1)
    with pytest.raises(ConfigurationError):
        repar.resample(np.zeros(33), np.zeros(10))
