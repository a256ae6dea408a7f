"""Compatibility checks, symbol roots and complementary conditions."""

import cmath

import numpy as np
import pytest

from elastic_networks import fixtures, junction, wellposed
from elastic_networks.geometry import CurveSamples
from elastic_networks.solver import NetworkState


def _records(state, params):
    return wellposed.check_compat_order0(state, params)


def _failing(state, params):
    return {r.condition for r in _records(state, params) if not r.passed}


def test_order0_accepts_admissible_fixtures():
    for state, params in (fixtures.triod_equilibrium(N=48),
                          fixtures.triod_bent(N=64),
                          fixtures.q4_spatial(N=48),
                          fixtures.single_clamped(N=48)):
        records = _records(state, params)
        assert all(r.passed for r in records), [r for r in records if not r.passed]


def test_order0_detects_moved_endpoint():
    state, params = fixtures.triod_equilibrium(N=48)
    nodes = state.curves[0].nodes.copy()
    nodes[-1] += [0.0, 1e-3]
    bad = NetworkState([CurveSamples(nodes)] + list(state.curves[1:]))
    assert "endpoint-pin" in _failing(bad, params)


def test_order0_detects_broken_concurrency():
    state, params = fixtures.triod_equilibrium(N=48)
    nodes = state.curves[1].nodes.copy()
    nodes[0] += [1e-4, 0.0]
    bad = NetworkState([state.curves[0], CurveSamples(nodes), state.curves[2]])
    assert "concurrency" in _failing(bad, params)


def test_order0_detects_curved_end():
    # bend a curve near its pinned end: the second-derivative condition trips
    state, params = fixtures.single_clamped(N=48)
    nodes = state.curves[0].nodes.copy()
    x = np.linspace(0.0, 1.0, 49)
    nodes[:, 1] += 0.01 * x**2
    bad = NetworkState([CurveSamples(nodes)])
    assert "second-derivative" in _failing(bad, params)


def test_order0_detects_unbalanced_junction():
    # unequal length penalties break the third-order sum of the triod
    state, params = fixtures.triod_equilibrium(N=48)
    from elastic_networks.solver import FlowParams
    unbalanced = FlowParams(endpoints=params.endpoints,
                            lam=np.array([1.0, 1.0, 3.0]))
    assert "third-order-sum" in _failing(state, unbalanced)


def test_record_rendering_names_where_each_condition_applies():
    def rendered(condition, where):
        return str(wellposed.CompatRecord(condition, where, 2.5e-3, 1e-8))

    assert rendered("endpoint-pin", "curve 1, end 1") == (
        "endpoint-pin[curve 1, end 1] = 2.500e-03 (tol 1.000e-08)")
    assert rendered("third-order-sum", "junction").startswith(
        "third-order-sum[junction] = ")
    assert rendered("fourth-derivative-match", "junction, curves 0 and 2").startswith(
        "fourth-derivative-match[junction, curves 0 and 2] = ")


def test_parabolicity_margin():
    assert wellposed.parabolicity_margin([np.full(5, 2.0)]) == pytest.approx(
        1.0 / 16.0)
    # the minimum is taken across all curves
    assert wellposed.parabolicity_margin(
        [np.full(5, 1.0), np.full(5, 2.0)]) == pytest.approx(1.0 / 16.0)


def test_root_radii_validation():
    # p = 1, D = 1: the roots lie on the unit circle
    assert wellposed.root_radii(1.0, 1.0)[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wellposed.root_radii(0.0, 1.0)
    with pytest.raises(ValueError):
        wellposed.root_radii(-1.0, 1.0)
    with pytest.raises(ValueError):
        wellposed.root_radii(1.0, 0.0)


def _random_tangents(rng, collinear):
    q = int(rng.integers(2, 6))
    n = int(rng.integers(2, 5))
    if collinear:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        return np.array([s * d for s in rng.choice([-1.0, 1.0], q)])
    while True:
        t = rng.normal(size=(q, n))
        t /= np.linalg.norm(t, axis=1)[:, None]
        if junction.span_dimension(t) >= 2:
            return t


def test_junction_complementary_matches_span_criterion():
    rng = np.random.default_rng(42)
    for trial in range(60):
        t = _random_tangents(rng, collinear=(trial % 3 == 0))
        D = rng.uniform(0.5, 2.0, size=t.shape[0])
        expected = junction.span_dimension(t) >= 2
        for p in (1.0, 1j, 1 + 1j):
            assert wellposed.junction_complementary(t, D, p) is expected


def _order0_sequence(q):
    # (condition, where) of every per-curve order-zero record, in list order
    rows = []
    for i in range(q):
        rows += [("endpoint-pin", f"curve {i}, end 1"),
                 ("second-derivative", f"curve {i}, end 0"),
                 ("second-derivative", f"curve {i}, end 1"),
                 ("fourth-derivative", f"curve {i}, end 1")]
    return rows


def _places(state, params):
    return [(r.condition, r.where) for r in _records(state, params)]


def test_order0_record_sequence_is_pinned():
    # the order elastic-networks check prints
    assert _places(*fixtures.single_clamped(N=48)) == [
        ("endpoint-pin", "curve 0, end 1"), ("second-derivative", "curve 0, end 0"),
        ("second-derivative", "curve 0, end 1"), ("fourth-derivative", "curve 0, end 1"),
        ("fourth-derivative", "curve 0, end 0")]
    assert _places(*fixtures.triod_bent(N=48)) == (
        _order0_sequence(3)
        + [("concurrency", "curve 1, end 0"), ("concurrency", "curve 2, end 0"),
           ("third-order-sum", "junction"),
           ("fourth-derivative-match", "junction, curves 0 and 1"),
           ("fourth-derivative-match", "junction, curves 0 and 2"),
           ("fourth-derivative-match", "junction, curves 1 and 2")])
    assert _places(*fixtures.q4_spatial(N=48)) == (
        _order0_sequence(4)
        + [("concurrency", "curve 1, end 0"), ("concurrency", "curve 2, end 0"),
           ("concurrency", "curve 3, end 0"), ("third-order-sum", "junction")]
        + [("fourth-derivative-match", f"junction, curves {i} and {j}")
           for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))])


def test_order0_records_read_the_residual_table():
    state, params = fixtures.triod_bent(N=48)
    nodes = state.nodes + 1e-4 * np.random.default_rng(7).normal(size=state.nodes.shape)
    state = NetworkState(nodes)
    table = wellposed.order0_residuals(state, params)
    by_key = {(r.condition, r.where): r.residual for r in _records(state, params)}
    for i in range(3):
        pin = by_key["endpoint-pin", f"curve {i}, end 1"]
        assert pin == np.linalg.norm(nodes[i, -1] - params.endpoints[i])
        assert pin == table["endpoint"][i]
        for end in (0, 1):
            assert (by_key["second-derivative", f"curve {i}, end {end}"]
                    == table["second_derivative"][i, end])
    for i in (1, 2):
        assert by_key["concurrency", f"curve {i}, end 0"] == table["concurrency"][i - 1]
        assert by_key["concurrency", f"curve {i}, end 0"] == np.linalg.norm(
            nodes[i, 0] - nodes[0, 0])
    assert by_key["third-order-sum", "junction"] == table["third_order_sum"]
    assert table["third_order_sum"] > 0.0
    single, single_params = fixtures.single_clamped(N=48)
    table = wellposed.order0_residuals(single, single_params)
    assert table["concurrency"].shape == (0,)
    assert table["third_order_sum"] == 0.0


def _loop_complementary_matrix(tangents, D, p):
    # the entry-by-entry assembly the block assignment replaced, kept as oracle
    p = complex(p)
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    q, n = t.shape
    D = np.asarray(D, dtype=float)
    theta = cmath.phase(p)
    radii = abs(p)**0.25 / D
    e_mats = np.array([
        d**3 * (np.eye(n) - np.outer(ti, ti)) for d, ti in zip(D, t)
    ])
    size = 2 * q * n
    mat = np.zeros((size, size), dtype=complex)
    v_base = (2 * q - 1) * n
    c_quarter = np.exp(1j * theta / 4.0) / np.sqrt(2.0)
    c_three_quarter = np.exp(3j * theta / 4.0) / np.sqrt(2.0)
    row = 0
    for i in range(q):
        for k in range(n):
            mat[row, (q - 1 + i) * n + k] = 1.0
            mat[row, v_base:v_base + n] -= radii[i] * c_quarter * e_mats[i][:, k]
            row += 1
    for i in range(q):
        for k in range(n):
            if i == 0:
                for m in range(q - 1):
                    mat[row, m * n + k] = 1.0
                mat[row, v_base:v_base + n] += (radii[0]**3 * c_three_quarter
                                                * e_mats[0][:, k])
            else:
                mat[row, (i - 1) * n + k] = -1.0
                mat[row, v_base:v_base + n] += (radii[i]**3 * c_three_quarter
                                                * e_mats[i][:, k])
            row += 1
    return mat


def test_complementary_matrix_equals_loop_oracle():
    # bit for bit, signed zeros included, so the SVD verdict cannot differ
    rng = np.random.default_rng(11)
    for trial in range(600):
        if trial % 5 == 4:  # axis-aligned tangents put exact zeros in E_i
            q, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            t = np.eye(n)[rng.integers(0, n, q)] * rng.choice([-1.0, 1.0], (q, 1))
        else:
            t = _random_tangents(rng, collinear=(trial % 3 == 0))
        D = rng.uniform(0.5, 2.0, size=t.shape[0])
        p = (1.0, 1j, 1 + 1j, complex(rng.uniform(0, 3), rng.uniform(-3, 3)))[trial % 4]
        expected = _loop_complementary_matrix(t, D, p)
        got = wellposed._complementary_matrix(t, D, p)
        assert got.tobytes() == expected.tobytes(), (trial, t, D, p)
