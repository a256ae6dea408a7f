"""Finite-difference machinery and the coordinate formulas.

The arclength/curvature chain is checked against an independent sympy
derivation (exact parameter derivatives fed into the coordinate
formulas, compared with symbolic arclength differentiation) and against
closed-form circle values.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from elastic_networks import fixtures, geometry
from elastic_networks.errors import ConfigurationError, RegularityError
from elastic_networks.fixtures import circle


def test_stencil_weights_centered_second_derivative():
    # classic [1, -2, 1]
    w = geometry.stencil_weights((-1, 0, 1), 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_stencil_weights_centered_fourth_derivative():
    w = geometry.stencil_weights((-2, -1, 0, 1, 2), 4)
    assert np.allclose(w, [1.0, -4.0, 6.0, -4.0, 1.0])


def test_stencil_weights_one_sided_first_derivative():
    # forward 3-point first derivative: [-3/2, 2, -1/2]
    w = geometry.stencil_weights((0, 1, 2), 1)
    assert np.allclose(w, [-1.5, 2.0, -0.5])


def test_stencil_weights_reject_underdetermined():
    with pytest.raises(ConfigurationError):
        geometry.stencil_weights((0, 1), 2)


# half-width of the centered stencil, and the offsets expected at the
# nodes 0, 1, hw, num - 2 and num - 1, per derivative order
HALF_WIDTH = {1: 1, 2: 1, 3: 2, 4: 2}
STENCIL_OFFSETS = {
    1: ([0, 1, 2], [-1, 0, 1], [-1, 0, 1], [-1, 0, 1], [-2, -1, 0]),
    2: ([0, 1, 2, 3], [-1, 0, 1], [-1, 0, 1], [-1, 0, 1], [-3, -2, -1, 0]),
    3: ([0, 1, 2, 3, 4], [-1, 0, 1, 2, 3], [-2, -1, 0, 1, 2], [-3, -2, -1, 0, 1],
        [-4, -3, -2, -1, 0]),
    4: ([0, 1, 2, 3, 4, 5], [-1, 0, 1, 2, 3, 4], [-2, -1, 0, 1, 2],
        [-4, -3, -2, -1, 0, 1], [-5, -4, -3, -2, -1, 0]),
}


@pytest.mark.parametrize("num", [9, 100])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stencil_offsets_near_the_ends(order, num):
    nodes = (0, 1, HALF_WIDTH[order], num - 2, num - 1)
    for node, want in zip(nodes, STENCIL_OFFSETS[order]):
        assert geometry.stencil(order, node, num)[0].tolist() == want


def test_stencil_stays_inside_the_grid_and_is_centered_exactly_on_the_interior():
    for order, hw in HALF_WIDTH.items():
        band = list(range(-hw, hw + 1))
        for num in (9, 17, 100):
            for node in range(num):
                offsets, weights = geometry.stencil(order, node, num)
                assert (offsets.tolist() == band) == (hw <= node < num - hw)
                assert 0 <= node + offsets[0] and node + offsets[-1] <= num - 1
                assert 0 in offsets
                assert np.array_equal(weights,
                                      geometry.stencil_weights(offsets, order))


def _loop_derivative_matrix(num, order):
    """The derivative matrix built one entry at a time, each row from the
    stencil of its node."""
    rows, cols, vals = [], [], []
    for k in range(num):
        offsets, weights = geometry.stencil(order, k, num)
        for off, weight in zip(offsets, weights):
            rows.append(k)
            cols.append(k + off)
            vals.append(weight)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(num, num))


def _scipy_derivative_matrix(num, order):
    # SciPy's CSR matrix of the entries geometry._derivative_matrix lists
    rows, cols, vals = geometry._derivative_matrix(num, order)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(num, num))


@pytest.mark.parametrize("num", [9, 10, 129, 2049])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_equals_entrywise_loop_oracle(num, order):
    built = _scipy_derivative_matrix(num, order)
    oracle = _loop_derivative_matrix(num, order)
    for field in ("indptr", "indices", "data"):
        got, want = getattr(built, field), getattr(oracle, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_finite_differences_exact_on_polynomials():
    # every stencil of formal order two annihilates its own error term on
    # low-degree polynomials: quadratics for d1, cubics for d2; the first
    # component x keeps the curve regular
    N = 16
    x = np.linspace(0.0, 1.0, N + 1)
    quadratic = 2.0 - x + 3.0 * x**2
    cubic = 2.0 - x + 3.0 * x**2 + 0.5 * x**3
    quartic = x**4
    bundle = geometry.finite_differences(
        geometry.CurveSamples(np.stack([x, quadratic, cubic, quartic], axis=1)))
    assert np.allclose(bundle.d1[:, 1], -1.0 + 6.0 * x, atol=1e-10)
    assert np.allclose(bundle.d2[:, 2], 6.0 + 3.0 * x, atol=1e-9)
    assert np.allclose(bundle.d4[:, 3], 24.0, atol=1e-6)


def test_finite_differences_second_order_convergence():
    errs = []
    for N in (64, 128):
        x = np.linspace(0.0, 1.0, N + 1)
        v = np.sin(2.0 * np.pi * x)
        curve = geometry.CurveSamples(np.stack([x, v], axis=1))
        d3 = geometry.finite_differences(curve).d3[:, 1]
        exact = -(2.0 * np.pi) ** 3 * np.cos(2.0 * np.pi * x)
        errs.append(np.max(np.abs(d3 - exact)))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_curve_samples_validation():
    with pytest.raises(ConfigurationError):
        geometry.CurveSamples(np.zeros((9,)))  # not 2-d
    with pytest.raises(ConfigurationError):
        geometry.CurveSamples(np.zeros((9, 1)))  # ambient dimension 1
    with pytest.raises(ConfigurationError):
        geometry.CurveSamples(np.zeros((5, 2)))  # too few intervals


def test_only_a_network_state_bundle_is_kept():
    # a state's node array is its own and read-only, so its bundle stays
    # valid; a curve's or an iterate's nodes may change in place
    state, _ = fixtures.triod_bent(N=32)
    nodes = state.nodes.copy()
    for curves in (geometry.CurveSamples(nodes[0]), SimpleNamespace(nodes=nodes)):
        before = geometry.finite_differences(curves).d1.copy()
        nodes[:, 5] += 0.01
        assert not np.array_equal(geometry.finite_differences(curves).d1, before)
    bundle = geometry.finite_differences(state)
    assert geometry.finite_differences(state) is bundle
    assert not any(field.flags.writeable for field in bundle)
    other = geometry.NetworkState(state.nodes)  # equal nodes, another array
    assert geometry.finite_differences(other) is not bundle
    assert geometry.finite_differences(state) is not bundle  # replaced


def test_degenerate_speed_raises():
    nodes = np.zeros((17, 2))  # a single point traced 17 times
    with pytest.raises(RegularityError):
        geometry.finite_differences(geometry.CurveSamples(nodes))


def test_nan_node_is_a_regularity_error_naming_curve_and_node():
    # a NaN speed compares False with the floor both ways; it must still fail.
    # A NetworkState refuses NaN nodes, so the nodes come as a Picard
    # iterate's do: a plain array
    x = np.linspace(0.0, 1.0, 17)
    nodes = np.stack([np.stack([x, k * x], axis=1) for k in range(3)])
    nodes[1, 5, 0] = np.nan
    with pytest.raises(RegularityError, match="degenerate speed nan") as exc_info:
        geometry.finite_differences(SimpleNamespace(nodes=nodes))
    # node 4 is the first node whose centered first-derivative stencil reads it
    assert (exc_info.value.curve, exc_info.value.node) == (1, 4)
    assert str(exc_info.value) == "degenerate speed nan at node 4 of curve 1"


def _exact_bundle_and_oracle():
    """Exact derivatives of a polynomial plane curve plus sympy oracle values."""
    import sympy as sm

    x = sm.Symbol("x")
    f = sm.Matrix([
        x + sm.Rational(1, 10) * x**3,
        sm.Rational(1, 5) * x**2 - sm.Rational(1, 20) * x**4,
    ])
    d = [f.diff(x, k) for k in range(1, 5)]
    speed = sm.sqrt(d[0].dot(d[0]))
    tangent = d[0] / speed

    def by_arclength(v):
        return v.diff(x) / speed

    def normal_part(v):
        return v - v.dot(tangent) * tangent

    kappa = by_arclength(tangent)
    nsk = normal_part(by_arclength(kappa))
    ns2k = normal_part(by_arclength(nsk))

    pts = [sm.Rational(p, 10) for p in (1, 4, 7)]

    def evaluate(expr):
        return np.array([[float(expr[i].subs(x, p)) for i in range(2)]
                         for p in pts])

    bundle = geometry.DerivativeBundle(
        d1=evaluate(d[0]), d2=evaluate(d[1]), d3=evaluate(d[2]),
        d4=evaluate(d[3]),
        speed=np.array([float(speed.subs(x, p)) for p in pts]),
    )
    oracle = {
        "kappa": evaluate(kappa),
        "nsk": evaluate(nsk),
        "ns2k": evaluate(ns2k),
        "tangent": evaluate(tangent),
    }
    return bundle, oracle


def test_curvature_chain_against_symbolic_oracle():
    bundle, oracle = _exact_bundle_and_oracle()
    assert np.allclose(geometry.curvature(bundle), oracle["kappa"], atol=1e-12)
    assert np.allclose(geometry.nabla_s_kappa(bundle), oracle["nsk"], atol=1e-12)
    assert np.allclose(geometry.nabla_s2_kappa(bundle), oracle["ns2k"],
                       atol=1e-12)
    assert np.allclose(geometry.unit_tangents(bundle), oracle["tangent"],
                       atol=1e-12)
    kappa = oracle["kappa"]
    gradient = oracle["ns2k"] + 0.5 * np.sum(kappa * kappa, axis=1)[:, None] * kappa
    assert np.allclose(geometry.energy_gradient(bundle), gradient, atol=1e-12)


def test_velocity_splits_into_normal_and_tangential_parts():
    # -d4/|f'|^4 + h must equal the geometric normal velocity plus
    # phi* times the unit tangent, exactly
    bundle, oracle = _exact_bundle_and_oracle()
    lam = 3.0 / 7.0
    kappa = oracle["kappa"]
    k2 = np.einsum("ij,ij->i", kappa, kappa)
    normal = -oracle["ns2k"] - 0.5 * k2[:, None] * kappa + lam * kappa
    tangential = geometry.phi_star(bundle, lam)[:, None] * oracle["tangent"]
    assert np.allclose(geometry.flow_velocity(bundle, lam),
                       normal + tangential, atol=1e-12)


def test_geometric_velocity_matches_parabolic_form():
    rng = np.random.default_rng(0)
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
        scale = 1.0 + np.max(np.linalg.norm(v1, axis=1))
        assert np.max(np.linalg.norm(v1 - v2, axis=1)) / scale < 1e-8
    # a network bundle with one penalty per curve, shaped (q, 1) as
    # flow_velocity takes it, gives each curve's own velocity
    state, _ = fixtures.triod_bent(N=64)
    lam = np.array([0.5, 1.0, 2.0])
    stacked = geometry.geometric_velocity(geometry.finite_differences(state), lam[:, None])
    assert stacked.shape == (3, 65, 2)
    for i, curve in enumerate(state.curves):
        bundle = geometry.finite_differences(curve)
        assert np.array_equal(stacked[i], geometry.geometric_velocity(bundle, lam[i]))


def test_circle_curvature_and_flow_speed():
    R = 0.7
    bundle = geometry.finite_differences(circle(radius=R, N=256))
    kappa = geometry.curvature(bundle)
    # |kappa| = 1/R, second-order accurate
    assert np.max(np.abs(np.linalg.norm(kappa, axis=1) - 1.0 / R)) < 3e-4
    # nabla_s kappa = 0 on a circle
    assert np.max(np.abs(geometry.nabla_s_kappa(bundle))) < 1e-2
    # |flow velocity| = 1/(2 R^3) for the unpenalized flow:
    # nabla_s^2 kappa = kappa/R^2 pointing inward, so
    # -nabla_s^2 kappa - |kappa|^2 kappa / 2 has length 1/R^3 - 1/(2R^3)
    v = geometry.flow_velocity(bundle, 0.0)
    speeds = np.linalg.norm(v, axis=1)
    assert np.max(np.abs(speeds - 1.0 / (2.0 * R**3))) < 5e-3


def test_circle_curvature_convergence_order():
    R = 1.3
    errs = []
    for N in (128, 256):
        bundle = geometry.finite_differences(circle(radius=R, N=N))
        kappa = geometry.curvature(bundle)
        errs.append(np.max(np.abs(np.linalg.norm(kappa, axis=1) - 1.0 / R)))
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_constant_speed_identities():
    # on a constant-speed curve <d1, d2> = 0 and |d2|^2 + <d1, d3> = 0
    bundle = geometry.finite_differences(circle(radius=1.0, N=256))
    p21 = np.einsum("ij,ij->i", bundle.d2, bundle.d1)
    interior = slice(4, -4)
    assert np.max(np.abs(p21[interior])) < 1e-6
    second = (np.einsum("ij,ij->i", bundle.d2, bundle.d2)
              + np.einsum("ij,ij->i", bundle.d1, bundle.d3))
    assert np.max(np.abs(second[interior])) < 2e-2 * np.max(bundle.speed) ** 3


def _assert_bundle_is_per_order_derivatives(curves):
    # the network bundle equals the per-curve bundles bit for bit, each
    # d_k is the order-k matrix applied to the nodes, and the speed is
    # the norm of d_1
    num, n = curves[0].nodes.shape
    stacked = geometry.finite_differences(geometry.NetworkState(curves))
    assert stacked.d1.shape == (len(curves), num, n)
    assert stacked.speed.shape == (len(curves), num)
    for i, curve in enumerate(curves):
        single = geometry.finite_differences(curve)
        for name in ("d1", "d2", "d3", "d4", "speed"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(single, name))
        per_order = [_scipy_derivative_matrix(num, order) @ curve.nodes
                     / curve.h**order for order in range(1, 5)]
        for order, expected in enumerate(per_order, start=1):
            assert np.array_equal(getattr(single, f"d{order}"), expected)
        assert np.array_equal(single.speed, np.linalg.norm(per_order[0], axis=1))


@pytest.mark.parametrize("q, n", [(1, 2), (3, 2), (4, 3)])
def test_stacked_bundle_equals_per_curve_bundles(q, n):
    rng = np.random.default_rng(q * 10 + n)
    x = np.linspace(0.0, 1.0, 41)[:, None]
    _assert_bundle_is_per_order_derivatives([
        geometry.CurveSamples(x * rng.normal(size=n) + 0.1 * np.sin(
            (2.0 + rng.random(n)) * np.pi * x + rng.random(n)))
        for _ in range(q)
    ])


@pytest.mark.parametrize("q, n, N", [(1, 2, 32), (3, 2, 128), (4, 3, 2048)])
def test_block_operator_kernel_product_equals_matmul_bit_for_bit(q, n, N):
    # finite_differences calls the compiled kernel behind @ directly
    operator = geometry._block_operator(q, N + 1)
    matrix = sparse.csr_matrix(operator[:3], shape=operator.shape)
    x = np.random.default_rng(q * n).standard_normal((q * (N + 1), n))
    assert geometry.csr_product(operator, x).tobytes() == (matrix @ x).tobytes()


@pytest.mark.parametrize("q, N", [(1, 8), (3, 128), (4, 2048)])
def test_block_operator_equals_scipy_block_diagonal(q, N):
    # the NumPy-built CSR arrays are the ones SciPy's canonical format
    # holds for the same block-diagonal stack, dtypes included
    built = geometry._block_operator(q, N + 1)
    stacked = sparse.vstack([_scipy_derivative_matrix(N + 1, order)
                             for order in range(1, 5)])
    oracle = sparse.block_diag([stacked] * q, format="csr")
    assert built.shape == oracle.shape
    for field in ("data", "indices", "indptr"):
        got, want = getattr(built, field), getattr(oracle, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_energy_gradient_of_a_network_is_its_curves_gradients():
    state, _ = fixtures.q4_spatial(N=48)
    stacked = geometry.energy_gradient(geometry.finite_differences(state))
    assert stacked.shape == state.nodes.shape
    for i, curve in enumerate(state.curves):
        assert np.array_equal(stacked[i], geometry.energy_gradient(
            geometry.finite_differences(curve)))


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), n=st.sampled_from([2, 3]), N=st.integers(8, 64),
       seed=st.integers(0, 2**32 - 1))
def test_bundle_is_the_per_order_derivatives_bit_for_bit(q, n, N, seed):
    # a unit-speed line plus a bend of slope at most 0.5, so every speed
    # is at least 0.5
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, N + 1)[:, None]
    curves = []
    for _ in range(q):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        frequency = np.pi * (1.0 + 2.0 * rng.random(n))
        bend = 0.5 / np.sqrt(n) / frequency * np.sin(frequency * x + rng.random(n))
        curves.append(geometry.CurveSamples(x * direction + bend))
    _assert_bundle_is_per_order_derivatives(curves)
