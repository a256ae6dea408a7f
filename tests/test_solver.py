"""Implicit stepper: validation, equilibria, energy decay and failure modes."""

import numpy as np
import pytest

import scipy.sparse as sp

from elastic_networks import diagnostics, fixtures, geometry, junction, solver
from elastic_networks.errors import (
    ConfigurationError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from elastic_networks.geometry import CurveSamples, boundary_offsets, stencil_weights
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
    with pytest.raises(ConfigurationError, match="ambient dimension"):
        NetworkState(np.zeros((2, 9, 1)))  # n = 1
    with pytest.raises(ConfigurationError, match="intervals"):
        NetworkState(np.zeros((2, 8, 2)))  # N = 7


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


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(store_every=0)


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
        with pytest.raises(NonCollinearError, match="(NC)"):
            solver.evolve(state, params, config, preflight=preflight)


def test_singular_step_is_a_step_error_with_partial_trajectory():
    # collinear junction tangents make the junction rows singular; without
    # the preflight the first factorization fails
    state, params = fixtures.collinear_bad(N=32)
    config = SolverConfig(dt=1e-6, t_end=2e-6)
    with pytest.raises(StepError, match="cannot be factored") as exc_info:
        solver.evolve(state, params, config, preflight="skip")
    err = exc_info.value
    assert err.time == 1e-6
    assert len(err.trajectory) == 1 and err.trajectory[0] is state


def test_guard_trip_is_a_regularity_error_with_time_and_partial_trajectory():
    # the strongly skewed triod loses over 2 % of its parabolicity margin
    # in its second step
    state, params = fixtures.triod_bent_skewed(N=64, skew=0.8)
    config = SolverConfig(dt=5e-6, t_end=1e-4, delta_guard_factor=0.98)
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


def test_evolve_differentiates_each_accepted_state_once(monkeypatch):
    state, params = fixtures.triod_bent(N=32)
    config = SolverConfig(dt=1e-5, t_end=1e-4, store_every=1)
    differentiate = geometry.finite_differences
    seen = []

    def counting(network):
        seen.append(network.nodes.tobytes())
        return differentiate(network)

    monkeypatch.setattr(geometry, "finite_differences", counting)
    trajectory = solver.evolve(state, params, config)
    assert len(trajectory) == 11
    assert len(set(seen)) == len(seen)  # no node array twice
    for frame in trajectory:
        assert seen.count(frame.nodes.tobytes()) == 1


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


def test_step_error_carries_partial_trajectory():
    # a single Picard iterate with an unreachable tolerance fails mid-run
    # and must hand back the frames computed so far
    state, params = fixtures.triod_bent(N=48)
    config = SolverConfig(dt=1e-5, t_end=1e-3, picard_max=1,
                          picard_tol=1e-16, picard_floor=1e-16)
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

    w4 = stencil_weights(range(-2, 3), 4) / h**4
    offs2_lo = boundary_offsets(0, 2, N + 1)
    w2_lo = stencil_weights(offs2_lo, 2) / h**2
    offs2_hi = boundary_offsets(N, 2, N + 1)
    w2_hi = stencil_weights(offs2_hi, 2) / h**2
    offs3 = boundary_offsets(0, 3, N + 1)
    w3 = stencil_weights(offs3, 3) / h**3
    interior = np.arange(2, N - 1)
    for i in range(q):
        d_pow4 = 1.0 / bundles[i].speed**4
        for j in range(n):
            r = idx(i, interior, j)
            add(r, r, np.full(interior.size, 1.0 / dt))
            for m, off in enumerate(range(-2, 3)):
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
        e = junction.linearize_boundary(stacked, stacked, params.lam).e_matrices
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


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_fixed_pattern_step_matrix_equals_coo_assembly(network):
    state, params = network()
    dt = 1e-5
    matrix, _, _ = solver._step_matrix(geometry.finite_differences(state), params, dt)
    oracle = _coo_step_matrix(state, params, dt)
    assert matrix.shape == oracle.shape
    assert np.array_equal(matrix.indptr, oracle.indptr)
    assert np.array_equal(matrix.indices, oracle.indices)
    assert np.array_equal(matrix.data, oracle.data)


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_cached_column_order_factors_like_default_superlu(network):
    # SuperLU's own ordering of the real matrix is the oracle: the cached
    # order, the pivots, the fill and every solve must be the same
    state, params = network()
    matrix, permuted, perm_c = solver._step_matrix(
        geometry.finite_differences(state), params, 1e-5)
    reference = sp.linalg.splu(matrix.tocsc())
    assert np.array_equal(perm_c, reference.perm_c)
    assert np.array_equal(permuted.toarray()[:, perm_c], matrix.toarray())
    lu = sp.linalg.splu(permuted, permc_spec="NATURAL")
    assert np.array_equal(lu.perm_r, reference.perm_r)
    assert (lu.L.nnz, lu.U.nnz) == (reference.L.nnz, reference.U.nnz)
    identity = np.arange(matrix.shape[0])
    rhs = np.random.default_rng(3).standard_normal(state.nodes.shape)
    assert np.array_equal(solver._solve(matrix, lu, perm_c, rhs, 0.0),
                          solver._solve(matrix, reference, identity, rhs, 0.0))


def _fresh_step_rhs(start_bundle, current_bundle, base, params, dt):
    """The rhs of one Picard iterate assembled from scratch (test oracle)."""
    q, num, n = base.shape
    d_pow4 = 1.0 / start_bundle.speed**4
    remainder = (d_pow4 - 1.0 / current_bundle.speed**4)[..., None] * current_bundle.d4
    lower = geometry.h_lower(current_bundle, params.lam[:, None])
    rhs = np.zeros((q, num, n))
    rhs[:, 2:num - 2] = (base / dt + remainder + lower)[:, 2:num - 2]
    rhs[:, num - 1] = params.endpoints
    if q == 1:
        rhs[0, 0] = base[0, 0]
    else:
        rhs[0, 0] = junction.linearize_boundary(start_bundle, current_bundle,
                                                params.lam).b
    return rhs


@pytest.mark.parametrize("network", STEP_NETWORKS)
def test_step_rhs_buffer_equals_fresh_assembly_at_every_iterate(network, monkeypatch):
    # the step keeps one rhs buffer and rewrites only the rows that change
    # with the iterate; every iterate's rhs must equal a fresh assembly
    state, params = network()
    dt = 1e-5
    fill = solver._step_rhs
    iterates = []

    def checking(rhs, frozen, current, *args):
        out = fill(rhs, frozen, current, *args)
        assert np.array_equal(out, _fresh_step_rhs(frozen, current, state.nodes,
                                                   params, dt))
        iterates.append(current)
        return out

    monkeypatch.setattr(solver, "_step_rhs", checking)
    solver.picard_step(state, params, SolverConfig(dt=dt))
    assert len(iterates) >= 3


def test_wrong_factor_fails_the_residual_check():
    # the factor of the dt = 1e-2 matrix is far from the inverse of the
    # dt = 1e-6 one; refinement cannot close the gap
    state, params = fixtures.triod_bent(N=32)
    bundle = geometry.finite_differences(state)
    matrix, _, perm_c = solver._step_matrix(bundle, params, 1e-6)
    _, other, _ = solver._step_matrix(bundle, params, 1e-2)
    lu = sp.linalg.splu(other, permc_spec="NATURAL")
    with pytest.raises(StepError, match="linear step residual") as exc_info:
        solver._solve(matrix, lu, perm_c, np.ones(state.nodes.shape), 0.25)
    assert exc_info.value.time == 0.25


def test_handed_in_bundle_is_not_rebuilt(monkeypatch):
    state, params = fixtures.triod_bent(N=32)
    config = SolverConfig(dt=1e-5)
    bundle = geometry.finite_differences(state)
    differentiate = geometry.finite_differences
    seen = []

    def counting(network):
        seen.append(network.nodes)
        return differentiate(network)

    monkeypatch.setattr(geometry, "finite_differences", counting)

    def start_state_builds():
        return sum(np.array_equal(nodes, state.nodes) for nodes in seen)

    handed = solver.picard_step(state, params, config, bundle=bundle)
    assert seen  # the later iterates are differentiated
    assert start_state_builds() == 0
    seen.clear()
    rebuilt = solver.picard_step(state, params, config)
    assert start_state_builds() == 1
    assert np.array_equal(handed.nodes, rebuilt.nodes)
