"""Implicit stepper: validation, equilibria, energy decay and failure modes."""

import gc
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import scipy.sparse as sp

from elastic_networks import diagnostics, fixtures, geometry, io, junction, solver, wellposed
from elastic_networks.errors import (
    ConfigurationError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from elastic_networks.geometry import CurveSamples, stencil
from elastic_networks.solver import FlowParams, NetworkState, SolverConfig


def test_network_state_validation():
    with pytest.raises(ConfigurationError):
        NetworkState([])
    a = CurveSamples(np.outer(np.linspace(0, 1, 17), [1.0, 0.0]))
    b = CurveSamples(np.outer(np.linspace(0, 1, 33), [0.0, 1.0]))
    with pytest.raises(ConfigurationError, match="share the node count"):
        NetworkState([a, b])
    ragged = [[[0.0, 0.0]] * 9, [[0.0, 0.0]] * 10]
    with pytest.raises(ConfigurationError, match="share the node count"):
        NetworkState(ragged)
    with pytest.raises(ConfigurationError, match=r"a \(q, N\+1, n\) array"):
        NetworkState([[0.0, 0.0]] * 9)  # one curve's nodes, not a network
    for not_curves in (5, None, [[[{"x": 1.0}, 0.0]] * 9]):
        with pytest.raises(ConfigurationError, match="sequence of curves"):
            NetworkState(not_curves)
    with pytest.raises(ConfigurationError, match="ambient dimension"):
        NetworkState(np.zeros((2, 9, 1)))  # n = 1
    with pytest.raises(ConfigurationError, match="intervals"):
        NetworkState(np.zeros((2, 8, 2)))  # N = 7
    nodes = fixtures.triod_bent(N=32)[0].nodes
    for bad in (np.nan, -np.inf):
        spoiled = nodes.copy()
        spoiled[1, 7, 0] = bad
        with pytest.raises(ConfigurationError, match="coordinates and time must be finite"):
            NetworkState(spoiled)
        with pytest.raises(ConfigurationError, match="coordinates and time must be finite"):
            NetworkState(nodes, time=-bad)
    for not_real in ("0.5", None, True, 1j):
        with pytest.raises(ConfigurationError, match="time must be a real number"):
            NetworkState(nodes, time=not_real)


def test_network_state_stores_one_read_only_array():
    source = fixtures.triod_bent(N=32)[0].nodes.copy()
    curves = [CurveSamples(x.copy()) for x in source]
    state = NetworkState(source, time=0.5)
    from_curves = NetworkState(curves=curves, time=0.5)
    assert state.nodes is state.nodes
    assert not state.nodes.flags.writeable
    with pytest.raises(ValueError):
        state.nodes[0, 0, 0] = 1.0
    assert np.array_equal(from_curves.nodes, state.nodes)
    # the inputs were copied: changing them leaves both states as built
    expected = source.copy()
    source += 1.0
    curves[0].nodes[0] += 1.0
    assert np.array_equal(state.nodes, expected)
    assert np.array_equal(from_curves.nodes, expected)
    assert (state.q, state.N, state.n) == (3, 32, 2)
    for i, curve in enumerate(state.curves):
        assert np.array_equal(curve.nodes, state.nodes[i])


def test_flow_params_validation():
    with pytest.raises(ConfigurationError):
        FlowParams(endpoints=np.zeros((3, 2)), lam=np.zeros(2))
    with pytest.raises(ConfigurationError):
        FlowParams(endpoints=np.zeros((2, 2)), lam=np.array([1.0, -1.0]))
    # a nested lam would broadcast as (q, 1); a flat endpoint list has no n
    with pytest.raises(ConfigurationError, match=r"shapes \(3, 2\) and \(3, 1\)"):
        FlowParams(endpoints=np.zeros((3, 2)), lam=[[1.0], [1.0], [1.0]])
    with pytest.raises(ConfigurationError, match=r"shapes \(2,\) and \(2,\)"):
        FlowParams(endpoints=np.zeros(2), lam=np.ones(2))
    with pytest.raises(ConfigurationError, match=r"shapes \(1, 2\) and \(\)"):
        FlowParams(endpoints=np.zeros((1, 2)), lam=1.0)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(store_every=0)
    # t_end / dt overflows to inf: no step count, rather than OverflowError
    with pytest.raises(ConfigurationError, match="step count"):
        SolverConfig(dt=1e-300, t_end=1e10)


_TOO_LARGE = 10**400  # an int that no float holds


def _network_with_a_huge_node():
    nodes = fixtures.triod_bent(N=16)[0].nodes.tolist()
    nodes[1][3][0] = _TOO_LARGE
    return NetworkState(nodes)


@pytest.mark.parametrize("build", [
    lambda: NetworkState(fixtures.triod_bent(N=16)[0].nodes, time=_TOO_LARGE),
    _network_with_a_huge_node,
    lambda: FlowParams(endpoints=[[_TOO_LARGE, 0.0]], lam=[1.0]),
    lambda: FlowParams(endpoints=[[1.0, 0.0]], lam=[_TOO_LARGE]),
    lambda: SolverConfig(dt=_TOO_LARGE),
    lambda: SolverConfig(dt=1e-6, t_end=_TOO_LARGE),
], ids=["time", "node", "endpoint", "lam", "dt", "t_end"])
def test_an_int_past_the_float_range_is_a_configuration_error(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("time", [np.int64(0), np.float32(0.5)],
                         ids=["int64", "float32"])
def test_a_numpy_scalar_time_is_stored_as_a_float(time, tmp_path):
    state, params = fixtures.triod_bent(N=16)
    state = NetworkState(state.nodes, time=time)
    assert type(state.time) is float and state.time == time
    io.save_network(tmp_path / "network.json", state, params)
    io.save_trajectory(tmp_path / "trajectory.json", [state], params)
    assert io.load_network(tmp_path / "network.json")[0].time == time


def test_equilibrium_is_fixed_point():
    # the symmetric straight triod is stationary: after many steps the
    # nodes must not have drifted
    state, params = fixtures.triod_equilibrium(N=32)
    config = SolverConfig(dt=1e-5, t_end=2e-4)
    trajectory = solver.evolve(state, params, config)
    drift = max(
        np.max(np.abs(c1.nodes - c0.nodes))
        for c0, c1 in zip(state.curves, trajectory[-1].curves)
    )
    assert drift < 1e-9


def test_energy_decays_on_bent_triod():
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=5e-4)
    trajectory = solver.evolve(state, params, config)
    energies = [diagnostics.network_energy(s, params) for s in trajectory]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10 * (1.0 + energies[0]))
    assert energies[-1] < energies[0]


def _dissipation(state, params):
    """D = sum_i int |V_i^perp|^2 ds, V^perp = -(energy_gradient - lam kappa),
    by the trapezoidal rule at state."""
    bundle = geometry.finite_differences(state)
    normal = -(geometry.energy_gradient(bundle)
               - params.lam[:, None, None] * geometry.curvature(bundle))
    density = np.einsum("...j,...j->...", normal, normal) * bundle.speed
    return float(np.sum(np.trapezoid(density, dx=1.0 / state.N, axis=-1)))


def _median_dissipation_gap(state, params, dt, t_end):
    # |(E_{n+1} - E_n)/dt + D_{n+1}| / D_{n+1} over the steps of a run
    trajectory = solver.evolve(state, params, SolverConfig(dt=dt, t_end=t_end))
    energies = [diagnostics.network_energy(s, params) for s in trajectory]
    gaps = []
    for before, after, frame in zip(energies, energies[1:], trajectory[1:]):
        dissipation = _dissipation(frame, params)
        gaps.append(abs((after - before) / dt + dissipation) / dissipation)
    return float(np.median(gaps))


@pytest.mark.parametrize("network, dt, t_end", [
    (lambda: fixtures.triod_bent(N=64), 1e-5, 5e-4),
    (lambda: fixtures.single_clamped(N=64), 2e-6, 1e-4),
], ids=["triod_bent", "single_clamped"])
def test_energy_dissipation_identity_holds_to_first_order_in_time(network, dt, t_end):
    # dE/dt = -D along the flow: an oracle the step does not use, tying
    # the integrated energy to the geometric form of the velocity.  Over
    # 54 runs (N 48/64/96, bump 0.04/0.05/0.06, three (dt, t_end) pairs
    # per fixture) the observed order was 1.010 to 2.287
    state, params = network()
    coarse = _median_dissipation_gap(state, params, dt, t_end)
    fine = _median_dissipation_gap(state, params, dt / 2, t_end)
    assert np.log2(coarse / fine) >= 0.8, (coarse, fine)


def test_boundary_rows_hold_after_each_step():
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    for s in solver.evolve(state, params, config)[1:]:
        res = diagnostics.boundary_residuals(s, params)
        assert max(res.values()) < 1e-8, res


def test_single_clamped_curve_mode():
    # q = 1: both ends pinned with vanishing second derivatives; the
    # penalized flow straightens the bump
    state, params = fixtures.single_clamped(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-3)
    trajectory = solver.evolve(state, params, config)
    first, last = trajectory[0], trajectory[-1]
    assert np.allclose(last.curves[0].nodes[0], first.curves[0].nodes[0],
                       atol=1e-12)
    assert np.allclose(last.curves[0].nodes[-1], first.curves[0].nodes[-1],
                       atol=1e-12)
    e0 = diagnostics.network_energy(first, params)
    e1 = diagnostics.network_energy(last, params)
    assert e1 < e0


def test_spatial_network_in_three_dimensions():
    state, params = fixtures.q4_spatial(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    trajectory = solver.evolve(state, params, config)
    last = trajectory[-1]
    base = last.curves[0].nodes[0]
    for c in last.curves[1:]:
        assert np.linalg.norm(c.nodes[0] - base) < 1e-10


def test_preflight_rejects_collinear_network():
    state, params = fixtures.collinear_bad(N=32)
    config = SolverConfig(dt=1e-6, t_end=2e-6)
    for preflight in ("strict", "warn"):
        with pytest.raises(ConfigurationError, match="(NC)"):
            solver.evolve(state, params, config, preflight=preflight)


def test_singular_step_is_a_step_error():
    # collinear junction tangents make the junction rows singular, so a
    # step taken past the preflight fails in its first factorization
    state, params = fixtures.collinear_bad(N=32)
    config = SolverConfig(dt=1e-6, t_end=2e-6)
    with pytest.raises(StepError, match="cannot be factored"):
        solver.picard_step(state, params, config)


def test_guard_trip_is_a_regularity_error_with_time_and_partial_trajectory(monkeypatch):
    # the strongly skewed triod loses over 2 % of its parabolicity margin
    # in its second step
    monkeypatch.setattr(solver, "GUARD_FACTOR", 0.98)
    state, params = fixtures.triod_bent_skewed(N=64, skew=0.8)
    config = SolverConfig(dt=5e-6, t_end=1e-4)
    with pytest.warns(UserWarning, match="incompatible initial network"):
        with pytest.raises(RegularityError, match="parabolicity margin") as exc_info:
            solver.evolve(state, params, config, preflight="warn")
    err = exc_info.value
    assert err.time == 1e-5
    assert [frame.time for frame in err.trajectory] == [0.0, 5e-6]
    assert err.trajectory[0] is state
    # the ratio is printed, not two margins that round alike
    ratio = float(str(err).split(" fell to ")[1].split()[0])
    assert ratio < 0.98


def test_guard_names_the_node_of_the_largest_speed():
    state, _ = fixtures.triod_bent_skewed(N=64, skew=0.8)
    bundle = geometry.finite_differences(state)
    margin = wellposed.parabolicity_margin(bundle.speed)
    solver.regularity_guard(bundle, 2.0 * margin)  # exactly at the factor 0.5
    with pytest.raises(RegularityError, match="parabolicity margin") as exc_info:
        solver.regularity_guard(bundle, 2.01 * margin)
    err = exc_info.value
    curve, node = np.unravel_index(np.argmax(bundle.speed), bundle.speed.shape)
    assert (err.curve, err.node) == (curve, node)
    assert str(err).endswith(f", at node {node} of curve {curve}")
    # 1/|f'| there is the margin's
    assert float(1.0 / bundle.speed[curve, node])**4 == margin


def test_picard_floor_accepts_an_update_that_shrank_by_less_than_half(monkeypatch):
    # scripted updates: 1e-6, then below PICARD_FLOOR with ratios 0.04, 0.4,
    # 0.6 and 0.8 to the update before; the rule (ratio > 0.5) stops at the
    # fourth iterate, where a threshold of 0.25 would stop at the third and
    # one of 0.75 at the fifth
    state, params = fixtures.triod_bent(N=32)
    offsets = np.cumsum([1e-6, 4e-8, 1.6e-8, 9.6e-9, 7.68e-9, 7e-9])
    iterates = []

    def scripted(matrix, lu, perm_c, rhs):
        nodes = state.nodes.copy()
        nodes[1, 5, 0] += offsets[len(iterates)]
        iterates.append(nodes)
        return nodes

    monkeypatch.setattr(solver, "_solve", scripted)
    new = solver.picard_step(state, params, SolverConfig(dt=1e-6, t_end=1e-6))
    assert len(iterates) == 4
    assert np.array_equal(new.nodes, iterates[-1])


def _counting_builds(monkeypatch):
    """Record the nodes of every bundle geometry.finite_differences builds,
    as bytes; a call that returns the kept bundle builds none."""
    product = geometry.csr_product
    builds = []

    def building(matrix, x):
        builds.append(x.tobytes())
        return product(matrix, x)

    monkeypatch.setattr(geometry, "csr_product", building)
    return builds


def _differentiated_states(monkeypatch):
    """Record each NetworkState that geometry.finite_differences returns
    a bundle for, in call order."""
    differentiate = geometry.finite_differences
    states = []

    def recording(network):
        bundle = differentiate(network)
        if isinstance(network, NetworkState):
            states.append(network)
        return bundle

    monkeypatch.setattr(geometry, "finite_differences", recording)
    return states


def test_evolve_differentiates_each_accepted_state_once(monkeypatch):
    state, params = fixtures.triod_bent(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4, store_every=1)
    builds = _counting_builds(monkeypatch)
    trajectory = solver.evolve(state, params, config)
    assert len(trajectory) == 11
    assert len(set(builds)) == len(builds)  # no node array twice
    for frame in trajectory:  # the initial state among them
        assert builds.count(frame.nodes.tobytes()) == 1


def test_picard_step_builds_its_start_bundle_once(monkeypatch):
    # outside evolve too the step differentiates its start state once,
    # for the frozen coefficients and the first iterate
    state, params = fixtures.triod_bent(N=32)
    builds = _counting_builds(monkeypatch)
    solver.picard_step(state, params, SolverConfig(dt=1e-5))
    assert builds.count(state.nodes.tobytes()) == 1
    assert len(builds) > 1  # the later iterates are differentiated


def test_initial_bundle_is_freed_after_the_first_step(monkeypatch):
    # the initial state's bundle serves the preflight and the first step
    # only; a bundle kept past it would add to peak memory
    state, params = fixtures.triod_bent(N=32)
    differentiate = geometry.finite_differences
    speeds = []  # weak references to the speeds of the bundles returned

    def recording(network):
        bundle = differentiate(network)
        speeds.append(weakref.ref(bundle.speed))
        return bundle

    monkeypatch.setattr(geometry, "finite_differences", recording)
    freed = []

    def observer(frame):
        gc.collect()
        freed.append(speeds[0]() is None)

    trajectory = solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=3e-5),
                               observers=(observer,))
    assert freed == [True] * 3
    # only the bundle of the last state differentiated is kept
    assert geometry._last[0] is trajectory[-1].nodes
    # a run the preflight rejects keeps the initial bundle alone
    for network in (fixtures.collinear_bad, fixtures.triod_equilibrium):
        state, params = network(N=32)
        params = FlowParams(params.endpoints + 1e-3, params.lam)
        with pytest.raises(ConfigurationError):
            solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=2e-5))
        assert geometry._last[0] is state.nodes


def test_preflight_rejects_incompatible_data_and_warn_proceeds():
    state, params = fixtures.triod_equilibrium(N=32)
    nodes = state.curves[0].nodes.copy()
    nodes[-1] += [0.0, 1e-3]  # moved outer endpoint
    bad = NetworkState([CurveSamples(nodes)] + list(state.curves[1:]))
    config = SolverConfig(dt=1e-6, t_end=2e-6)
    with pytest.raises(ConfigurationError):
        solver.evolve(bad, params, config, preflight="strict")
    with pytest.warns(UserWarning):
        solver.evolve(bad, params, config, preflight="warn")
    with pytest.raises(ConfigurationError):
        solver.evolve(bad, params, config, preflight="nonsense")


@pytest.mark.parametrize("preflight", ["strict", "warn"])
@pytest.mark.parametrize("fit", ["wrong-q", "wrong-n"])
def test_evolve_rejects_params_that_do_not_fit_the_network(monkeypatch, preflight, fit):
    # NumPy would broadcast one endpoint and one penalty over three curves
    state, params = fixtures.triod_bent(N=32)
    if fit == "wrong-q":
        params, shape = FlowParams(params.endpoints[:1], [1.0]), (1, 2)
    else:
        params, shape = FlowParams(np.pad(params.endpoints, ((0, 0), (0, 1))),
                                   params.lam), (3, 3)
    builds = []
    monkeypatch.setattr(geometry, "finite_differences", builds.append)
    message = f"(q, n) = (3, 2) of the network, got {shape}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=2e-5),
                      preflight=preflight)
    assert builds == []  # rejected before anything is differentiated


def test_nc_lost_mid_run_carries_time_and_partial_trajectory(monkeypatch):
    # the first span is the preflight's, then one per accepted state: the
    # third belongs to the state of the second step
    state, params = fixtures.triod_bent(N=32)
    span_dimension = junction.span_dimension
    spans = []

    def collinear_on_third(tangents):
        spans.append(tangents)
        return 1 if len(spans) == 3 else span_dimension(tangents)

    monkeypatch.setattr(junction, "span_dimension", collinear_on_third)
    states = _differentiated_states(monkeypatch)
    with pytest.raises(NonCollinearError, match=r"\(NC\) violated") as exc_info:
        solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=5e-5))
    err = exc_info.value
    # the failing state was differentiated last: its bundle alone is kept
    assert states[-1].time == err.time
    assert geometry._last[0] is states[-1].nodes
    assert len(spans) == 3
    assert err.time == pytest.approx(2e-5, rel=1e-12)
    assert err.trajectory[0] is state
    assert [s.time for s in err.trajectory] == pytest.approx([0.0, 1e-5], rel=1e-12)


def test_step_error_carries_partial_trajectory(monkeypatch):
    # a single Picard iterate with an unreachable tolerance fails mid-run
    # and must hand back the frames computed so far
    monkeypatch.setattr(solver, "PICARD_MAX", 1)
    monkeypatch.setattr(solver, "PICARD_TOL", 1e-16)
    monkeypatch.setattr(solver, "PICARD_FLOOR", 1e-16)
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-3)
    with pytest.raises(StepError) as exc_info:
        solver.evolve(state, params, config)
    err = exc_info.value
    assert err.time is not None
    assert hasattr(err, "trajectory")
    assert len(err.trajectory) >= 1
    assert err.trajectory[0] is state


def test_store_every_thins_trajectory():
    state, params = fixtures.triod_equilibrium(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4, store_every=5)
    trajectory = solver.evolve(state, params, config)
    # initial frame + every fifth step + final frame
    assert len(trajectory) == 3
    assert trajectory[-1].time == pytest.approx(1e-4, rel=1e-10)


def test_junction_tangents_stay_balanced():
    # the 120-degree angle condition is preserved along the flow of the
    # symmetric bent triod (equal length penalties)
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=5e-4)
    last = solver.evolve(state, params, config)[-1]
    tangents = np.stack([
        b.d1[0] / b.speed[0]
        for b in (geometry.finite_differences(c) for c in last.curves)
    ])
    sums = tangents.sum(axis=0)
    assert np.linalg.norm(sums) < 5e-3


def test_end_time_must_be_a_whole_number_of_steps():
    with pytest.raises(ConfigurationError, match="whole number of steps"):
        SolverConfig(dt=3e-5, t_end=1e-4)
    state, params = fixtures.triod_equilibrium(N=32)
    # thirty steps of 1e-5 added one by one reach 3.0000000000000014e-4
    trajectory = solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=3e-4,
                                                           store_every=10))
    assert trajectory[-1].time == 3e-4


def test_preflight_message_names_condition_curve_and_end():
    state, params = fixtures.triod_equilibrium(N=32)
    nodes = state.curves[1].nodes.copy()
    nodes[-1] += [0.0, 1e-3]  # moved outer endpoint of curve 1
    bad = NetworkState([state.curves[0], CurveSamples(nodes), state.curves[2]])
    config = SolverConfig(dt=1e-6, t_end=2e-6)
    with pytest.warns(UserWarning, match=r"endpoint-pin\[curve 1, end 1\] = "):
        solver.evolve(bad, params, config, preflight="warn")
    with pytest.raises(ConfigurationError, match=r"endpoint-pin\[curve 1, end 1\]"):
        solver.evolve(bad, params, config, preflight="strict")
    # a match record names the junction and both curves, once
    skewed, params = fixtures.triod_bent_skewed(N=32, skew=0.5)
    with pytest.warns(UserWarning, match=r"fourth-derivative-match\[junction, "
                      r"curves 1 and 2\] = ") as caught:
        solver.evolve(skewed, params, config, preflight="warn")
    assert "curve -1" not in str(caught[0].message)


def _boundary_oracle(frozen, current, lam):
    """E_i of the frozen bundle and b of the current one (test oracle).

    The linearized third-order junction row written out in one place,
    with the cubes taken one Python float at a time.
    """
    s0 = frozen.speed[:, 0]
    s_cur = current.speed[:, 0]
    d_vectors = frozen.d1[:, 0] / s0[:, None]
    t_cur = current.d1[:, 0] / s_cur[:, None]
    cubes = np.array([[c**3 for c in (1.0 / s0).tolist()],
                      [s**3 for s in s_cur.tolist()]])
    eye = np.eye(d_vectors.shape[1])
    e = cubes[0][:, None, None] * (eye - d_vectors[:, :, None] * d_vectors[:, None, :])
    e_bar = (eye - t_cur[:, :, None] * t_cur[:, None, :]) / cubes[1][:, None, None]
    terms = (np.matmul(e - e_bar, current.d3[:, 0, :, None])[..., 0]
             + lam[:, None] * t_cur)
    return e, terms.sum(axis=0)


def test_projectors_and_boundary_vector_equal_the_oracle():
    # random networks, frozen and current apart, compared byte for byte
    rng = np.random.default_rng(17)
    for _ in range(200):
        shape = (int(rng.integers(2, 6)), int(rng.integers(9, 33)),
                 int(rng.integers(2, 5)))
        frozen, current = (geometry.finite_differences(
            NetworkState(rng.standard_normal(shape))) for _ in range(2))
        lam = rng.uniform(0.0, 3.0, size=shape[0])
        e, b = _boundary_oracle(frozen, current, lam)
        projectors = junction.projectors(junction.tangents(frozen),
                                         1.0 / frozen.speed[:, 0])
        assert projectors.tobytes() == e.tobytes()
        assert (junction.linearize_boundary(projectors, current, lam).tobytes()
                == b.tobytes())


def _coo_step_matrix(frozen, params, dt):
    """The step matrix assembled entry by entry in COO form (test oracle)."""
    q, N, n = frozen.q, frozen.N, frozen.n
    h = frozen.curves[0].h
    bundles = [geometry.finite_differences(c) for c in frozen.curves]

    def idx(i, k, j):
        return (i * (N + 1) + k) * n + j

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.atleast_1d(r))
        cols.append(np.atleast_1d(c))
        vals.append(np.atleast_1d(np.asarray(v, dtype=float)))

    band4, w4 = stencil(4, 2, N + 1)
    offs2_lo, w2_lo = stencil(2, 0, N + 1)
    offs2_hi, w2_hi = stencil(2, N, N + 1)
    offs3, w3 = stencil(3, 0, N + 1)
    w4, w2_lo, w2_hi, w3 = w4 / h**4, w2_lo / h**2, w2_hi / h**2, w3 / h**3
    interior = np.arange(2, N - 1)
    for i in range(q):
        d_pow4 = 1.0 / bundles[i].speed**4
        for j in range(n):
            r = idx(i, interior, j)
            add(r, r, np.full(interior.size, 1.0 / dt))
            for m, off in enumerate(band4):
                add(r, idx(i, interior + off, j), d_pow4[interior] * w4[m])
            add(idx(i, N, j), idx(i, N, j), 1.0)
            add(np.full(offs2_hi.size, idx(i, N - 1, j)), idx(i, N + offs2_hi, j),
                w2_hi)
            add(np.full(offs2_lo.size, idx(i, 1, j)), idx(i, offs2_lo, j), w2_lo)
            if q == 1:
                add(idx(i, 0, j), idx(i, 0, j), 1.0)
            elif i >= 1:
                add([idx(i, 0, j)] * 2, [idx(i, 0, j), idx(0, 0, j)], [1.0, -1.0])
    if q >= 2:
        stacked = geometry.finite_differences(frozen)
        e = _boundary_oracle(stacked, stacked, params.lam)[0]
        for j in range(n):
            for i in range(q):
                for l in range(n):
                    add(np.full(offs3.size, idx(0, 0, j)), idx(i, offs3, l),
                        e[i, j, l] * w3)
    size = q * (N + 1) * n
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                np.concatenate(cols))),
                        shape=(size, size))
    return sp.csr_matrix(coo)


def _bowed_q4_spatial(N):
    # the steady tetrahedral network with each spoke bowed off its line
    state, params = fixtures.q4_spatial(N=N)
    bump = fixtures.single_clamped(N=N, amplitude=1.0)[0].curves[0].nodes[:, 1]
    e = np.array([0.3, -0.5, 0.8])
    curves = [CurveSamples(c.nodes + 0.05 * bump[:, None]
                           * np.cross(c.nodes[-1] - c.nodes[0], e))
              for c in state.curves]
    return NetworkState(curves), params


# networks that move, so that each step takes several Picard iterates
# (test_step_rhs_buffer_equals_fresh_assembly_at_every_iterate counts them)
STEP_NETWORKS = [
    lambda: fixtures.triod_bent(N=32),
    lambda: _bowed_q4_spatial(N=24),
    lambda: fixtures.single_clamped(N=16),
]
# Picard iterates of each network's first step at dt = 1e-5
STEP_ITERATES = [7, 7, 7]


def _step_matrix_of(state, dt):
    # the step matrix frozen at state, as picard_step builds it: its CSR
    # arrays, the same as a scipy.sparse.csr_matrix for the oracles, the
    # column-permuted CSC matrix and perm_c
    bundle = geometry.finite_differences(state)
    e = None if state.q == 1 else junction.projectors(junction.tangents(bundle),
                                                       1.0 / bundle.speed[:, 0])
    arrays, permuted, perm_c = solver._step_matrix(
        state.nodes.shape, 1.0 / bundle.speed[:, 2:-2]**4, e, dt)
    return (arrays, sp.csr_matrix(arrays[:3], shape=arrays.shape), permuted,
            perm_c)


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_fixed_pattern_step_matrix_equals_coo_assembly(network):
    state, params = network()
    dt = 1e-5
    matrix, _, _, _ = _step_matrix_of(state, dt)
    oracle = _coo_step_matrix(state, params, dt)
    assert matrix.shape == oracle.shape
    assert np.array_equal(matrix.indptr, oracle.indptr)
    assert np.array_equal(matrix.indices, oracle.indices)
    assert np.array_equal(matrix.data, oracle.data)


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_step_matrix_kernel_product_equals_matmul_bit_for_bit(network):
    # _solve calls the compiled kernel behind @ directly, on the CSR arrays
    state, _ = network()
    arrays, matrix, _, _ = _step_matrix_of(state, 1e-5)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(matrix.shape[1])
        assert geometry.csr_product(arrays, x).tobytes() == (matrix @ x).tobytes()


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_cached_column_order_factors_like_default_superlu(network):
    # SuperLU's own ordering of the real matrix is the oracle: the cached
    # order, the pivots, the fill and every solve must be the same
    state, _ = network()
    arrays, matrix, permuted, perm_c = _step_matrix_of(state, 1e-5)
    reference = sp.linalg.splu(matrix.tocsc())
    assert np.array_equal(perm_c, reference.perm_c)
    assert np.array_equal(permuted.toarray()[:, perm_c], matrix.toarray())
    lu = sp.linalg.splu(permuted, permc_spec="NATURAL")
    assert np.array_equal(lu.perm_r, reference.perm_r)
    assert (lu.L.nnz, lu.U.nnz) == (reference.L.nnz, reference.U.nnz)
    identity = np.arange(matrix.shape[0])
    rhs = np.random.default_rng(3).standard_normal(state.nodes.shape)
    assert np.array_equal(solver._solve(arrays, lu, perm_c, rhs),
                          solver._solve(arrays, reference, identity, rhs))


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_standin_column_order_equals_the_coo_built_standin(network):
    # the pattern's stand-in matrix is compressed by geometry.compressed;
    # SciPy's COO constructor on the same entries and values is the oracle
    state, _ = network()
    q, num, n = state.nodes.shape
    pattern = solver._step_pattern(q, num - 1, n)
    size = q * num * n
    # the entry list in its listed order, recovered from the CSR structure
    order, indptr, indices = pattern.csr
    rows, cols = np.empty_like(order), np.empty_like(order)
    rows[order] = np.repeat(np.arange(size), np.diff(indptr))
    cols[order] = indices
    standin = np.random.default_rng(0).standard_normal(rows.size)
    reference = sp.linalg.splu(sp.csc_matrix((standin, (rows, cols)),
                                             shape=(size, size)))
    assert np.array_equal(pattern.perm_c, reference.perm_c)


def _fresh_step_rhs(start_bundle, current_bundle, base, params, dt):
    """The rhs of one Picard iterate assembled from scratch (test oracle)."""
    q, num, n = base.shape
    d_pow4 = 1.0 / start_bundle.speed**4
    remainder = (d_pow4 - 1.0 / current_bundle.speed**4)[..., None] * current_bundle.d4
    s = current_bundle.speed
    lower = geometry.h_lower(current_bundle.d1, current_bundle.d2, current_bundle.d3,
                             s, s**4, params.lam[:, None])
    rhs = np.zeros((q, num, n))
    rhs[:, 2:num - 2] = (base / dt + remainder + lower)[:, 2:num - 2]
    rhs[:, num - 1] = params.endpoints
    if q == 1:
        rhs[0, 0] = base[0, 0]
    else:
        rhs[0, 0] = _boundary_oracle(start_bundle, current_bundle, params.lam)[1]
    return rhs


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_step_rhs_buffer_equals_fresh_assembly_at_every_iterate(network, monkeypatch):
    # the step keeps one rhs buffer and rewrites only the rows that change
    # with the iterate; every iterate's rhs must equal a fresh assembly
    state, params = network()
    dt = 1e-5
    start_bundle = geometry.finite_differences(state)
    fill = solver._step_rhs
    iterates = []

    def checking(rhs, current, *args):
        out = fill(rhs, current, *args)
        assert np.array_equal(out, _fresh_step_rhs(start_bundle, current,
                                                   state.nodes, params, dt))
        iterates.append(current)
        return out

    monkeypatch.setattr(solver, "_step_rhs", checking)
    solver.picard_step(state, params, SolverConfig(dt=dt))
    assert len(iterates) >= 3
    # the first iterate is the start state itself
    for field in ("d1", "d2", "d3", "d4", "speed"):
        assert np.array_equal(getattr(iterates[0], field), getattr(start_bundle, field))


@pytest.mark.parametrize("network, iterates", zip(STEP_NETWORKS, STEP_ITERATES))
def test_step_forms_projectors_once_and_b_once_per_iterate(network, iterates,
                                                           monkeypatch):
    # E_i of the start state are formed once per step; b is formed once
    # per Picard iterate, from that iterate's bundle
    state, params = network()
    calls = {"projectors": 0, "linearize_boundary": 0, "_solve": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(junction, "projectors")
    counting(junction, "linearize_boundary")
    counting(solver, "_solve")
    solver.picard_step(state, params, SolverConfig(dt=1e-5))
    junction_rows = state.q >= 2
    assert calls == {"projectors": int(junction_rows),
                     "linearize_boundary": iterates * junction_rows,
                     "_solve": iterates}


def test_wrong_factor_fails_the_residual_check():
    # the factor of the dt = 1e-2 matrix is far from the inverse of the
    # dt = 1e-6 one; refinement cannot close the gap
    state, _ = fixtures.triod_bent(N=32)
    arrays, _, _, perm_c = _step_matrix_of(state, 1e-6)
    _, _, other, _ = _step_matrix_of(state, 1e-2)
    lu = sp.linalg.splu(other, permc_spec="NATURAL")
    with pytest.raises(StepError, match="linear step residual"):
        solver._solve(arrays, lu, perm_c, np.ones(state.nodes.shape))


def test_nan_in_the_linear_solve_is_a_step_error():
    # max|A x - b| is NaN then, and NaN > tol is False: the check must
    # be written to fail on it
    state, _ = fixtures.triod_bent(N=32)
    arrays, matrix, permuted, perm_c = _step_matrix_of(state, 1e-6)
    lu = sp.linalg.splu(permuted, permc_spec="NATURAL")
    rhs = np.ones(state.nodes.shape)
    x = solver._solve(arrays, lu, perm_c, rhs)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(matrix @ x.ravel() - rhs.ravel())) <= 1e-8
    rhs[1, 7, 0] = np.nan
    with pytest.raises(StepError, match="linear step residual nan"):
        solver._solve(arrays, lu, perm_c, rhs)


def _failing_on_call(monkeypatch, call):
    """Make the call-th bundle build raise as on a NaN node; returns the
    list of the times of the states built so far.  A finite_differences
    call that returns the kept bundle builds none, so it is not counted."""
    differentiate = geometry.finite_differences
    times = []

    def failing(network):
        last = geometry._last
        if last is None or network.nodes is not last[0]:
            times.append(network.time)
            if len(times) == call:
                nodes = network.nodes.copy()
                nodes[0, 3, 0] = np.nan  # a NetworkState would refuse it
                network = SimpleNamespace(nodes=nodes, time=network.time)
        return differentiate(network)

    monkeypatch.setattr(geometry, "finite_differences", failing)
    return times


# build 8 is the first accepted state's, build 10 one inside the second
# step's Picard iteration
@pytest.mark.parametrize("call, time", [(8, 1e-5), (10, 2e-5)])
def test_regularity_error_mid_step_carries_time_and_partial_trajectory(
        monkeypatch, call, time):
    # finite_differences itself knows no time; evolve sets the step's
    state, params = fixtures.triod_bent(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    times = _failing_on_call(monkeypatch, call)
    with pytest.raises(RegularityError, match="degenerate speed") as exc_info:
        solver.evolve(state, params, config)
    err = exc_info.value
    assert err.time == times[-1] == time
    assert err.trajectory[0] is state
    assert [frame.time for frame in err.trajectory] == [
        t for t in np.linspace(0.0, 1e-4, 11) if t < err.time]


def _singular_factorization(monkeypatch):
    # a collinear network never passes the preflight, so SuperLU's
    # verdict on a singular matrix is stood in for
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sp.linalg, "splu", singular)


# each breaks the step after the first: (patch, error, message)
STEP_FAILURES = {
    "singular factorization": (_singular_factorization, StepError,
                               "cannot be factored"),
    # no residual is below a negative bound
    "linear residual": (lambda mp: mp.setattr(solver, "LINEAR_RESIDUAL_TOL", -1.0),
                        StepError, "linear step residual"),
    "Picard stall": (lambda mp: (mp.setattr(solver, "PICARD_MAX", 1),
                                 mp.setattr(solver, "PICARD_TOL", 0.0),
                                 mp.setattr(solver, "PICARD_FLOOR", 0.0)),
                     StepError, "Picard iteration stalled"),
    "guard trip": (lambda mp: mp.setattr(solver, "GUARD_FACTOR", 2.0),
                   RegularityError, "parabolicity margin"),
    # the next build is of the second step's first Picard iterate
    "Picard iterate": (lambda mp: _failing_on_call(mp, 1), RegularityError,
                       "degenerate speed"),
}


@pytest.mark.parametrize("failure", STEP_FAILURES)
def test_every_step_failure_carries_its_time_and_the_frames_before(
        monkeypatch, failure):
    patch, error, message = STEP_FAILURES[failure]
    state, params = fixtures.triod_bent(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4)
    times = np.linspace(0.0, 1e-4, 11)
    states = _differentiated_states(monkeypatch)

    def break_next_step(frame):
        assert geometry._last[0] is frame.nodes  # the frame's bundle is kept
        if frame.time == times[1]:
            patch(monkeypatch)

    with pytest.raises(error, match=message) as exc_info:
        solver.evolve(state, params, config, observers=(break_next_step,))
    # only the bundle of the last state differentiated is kept
    assert geometry._last[0] is states[-1].nodes
    err = exc_info.value
    assert err.time == times[2]
    assert err.trajectory[0] is state
    assert [frame.time for frame in err.trajectory] == list(times[:2])


def test_frame_times_are_linspace_from_a_nonzero_start():
    state, params = fixtures.triod_equilibrium(N=32)
    state = NetworkState(state.nodes, time=0.3)
    trajectory = solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=2e-4))
    assert [frame.time for frame in trajectory] == np.linspace(
        0.3, 0.3 + 2e-4, 21).tolist()


def test_a_huge_step_count_runs_its_first_step():
    # about 1e18 steps: no frame time array may be built up front
    state, params = fixtures.triod_equilibrium(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e13)
    seen = []

    class Stop(Exception):
        pass

    def observer(frame):
        seen.append(frame.time)
        raise Stop

    with pytest.raises(Stop):
        solver.evolve(state, params, config, observers=(observer,))
    assert seen == [1e13 / config.num_steps]


def test_observers_differentiate_the_accepted_state_for_free(monkeypatch):
    # finite_differences keeps each accepted state's bundle, read-only,
    # after evolve built it: a record_state observer builds no bundle, and
    # its records equal ones recomputed from fresh bundles after the run
    state, params = fixtures.triod_bent(N=32)
    builds = _counting_builds(monkeypatch)
    accepted, records, observer_builds = [], [], []

    def observer(frame):
        before = len(builds)
        records.append(diagnostics.record_state(frame, params))
        observer_builds.append(len(builds) - before)
        accepted.append(frame)
        bundle = geometry.finite_differences(frame)
        assert bundle is geometry._last[1]
        for field in bundle:
            with pytest.raises(ValueError, match="read-only"):
                field[...] = 0.0

    solver.evolve(state, params, SolverConfig(dt=1e-5, t_end=5e-5),
                  observers=(observer,))
    assert geometry._last[0] is accepted[-1].nodes  # the last state's alone
    assert observer_builds == [0] * 5
    # one build of each distinct state, the initial one included: evolve's
    assert len(set(builds)) == len(builds)
    assert [builds.count(frame.nodes.tobytes())
            for frame in [state] + accepted] == [1] * 6
    assert records == [diagnostics.record_state(frame, params) for frame in accepted]

