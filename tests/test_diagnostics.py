"""Energies, first variations, residual monitors and record serialization."""

import numpy as np
import pytest

from elastic_networks import diagnostics, fixtures, geometry, wellposed
from elastic_networks.errors import ConfigurationError
from elastic_networks.geometry import CurveSamples, NetworkState
from elastic_networks.solver import FlowParams


def test_circle_energy_matches_closed_form():
    # bending energy of a circle of radius R is pi / R (half circumference
    # times curvature squared): (1/2)(1/R^2)(2 pi R)
    for R in (0.5, 1.0, 2.0):
        e = diagnostics.elastic_energy(fixtures.circle(radius=R, N=256))
        assert e == pytest.approx(np.pi / R, rel=1e-3)


def test_straight_line_energy_is_penalized_length():
    x = np.linspace(0.0, 1.0, 65)
    curve = CurveSamples(np.outer(x, [3.0, 4.0]))  # length 5
    assert diagnostics.elastic_energy(curve, lam=0.0) == pytest.approx(0.0,
                                                                       abs=1e-12)
    assert diagnostics.elastic_energy(curve, lam=0.7) == pytest.approx(3.5,
                                                                       rel=1e-12)


@pytest.mark.parametrize("shape", [(9,), (3, 129), (4, 2049)])
def test_trapezoid_sum_equals_numpy_bit_for_bit(shape):
    # the energies and the first variation sum with np.trapezoid's own
    # expression, without its argument handling; np.trapezoid is the oracle
    rng = np.random.default_rng(5)
    for h in (1.0 / 8, 1.0 / 128, 1.0 / 2048):
        y = rng.uniform(0.0, 10.0, size=shape)
        assert (diagnostics._trapezoid(y, h).tobytes()
                == np.trapezoid(y, dx=h, axis=-1).tobytes())


def test_network_energy_sums_curves():
    state, params = fixtures.triod_equilibrium(N=48)
    total = diagnostics.network_energy(state, params)
    parts = sum(
        diagnostics.elastic_energy(c, params.lam[i])
        for i, c in enumerate(state.curves)
    )
    assert total == pytest.approx(parts, rel=1e-14)


def _variation_setup(seed):
    rng = np.random.default_rng(seed)
    N = 512
    x = np.linspace(0.0, 1.0, N + 1)
    nodes = np.stack([
        x + 0.05 * np.sin(np.pi * x * rng.uniform(0.5, 1.5)),
        0.15 * np.sin(np.pi * x) + 0.03 * np.sin(2.0 * np.pi * x),
    ], axis=1)
    cutoff = (x * (1.0 - x)) ** 5 / 0.25**5
    direction = np.stack([cutoff * np.sin(3.0 * x + rng.uniform(0, 2)),
                          cutoff * np.cos(2.0 * x + rng.uniform(0, 2))], axis=1)
    return CurveSamples(nodes), direction


@pytest.mark.parametrize("functional", ["elastic", "length", "penalized"])
def test_first_variation_matches_difference_quotient(functional):
    for seed in range(5):
        curve, direction = _variation_setup(seed)
        analytic, numeric = diagnostics.first_variation_check(
            curve, direction, functional=functional, lam=0.4)
        assert abs(analytic - numeric) <= max(1e-6, 1e-4 * abs(analytic))


def test_first_variation_rejects_unknown_functional():
    curve, direction = _variation_setup(0)
    with pytest.raises(ValueError):
        diagnostics.first_variation_check(curve, direction, functional="area")


def test_boundary_residuals_vanish_on_equilibrium():
    state, params = fixtures.triod_equilibrium(N=48)
    res = diagnostics.boundary_residuals(state, params)
    assert set(res) == {"endpoint", "second_derivative", "concurrency",
                        "third_order_sum"}
    assert max(res.values()) < 1e-10


def test_boundary_residuals_flag_violations():
    state, params = fixtures.triod_equilibrium(N=48)
    unbalanced = FlowParams(endpoints=params.endpoints,
                            lam=np.array([1.0, 1.0, 3.0]))
    res = diagnostics.boundary_residuals(state, unbalanced)
    assert res["third_order_sum"] > 0.5


@pytest.mark.parametrize("unfit", [
    lambda params: FlowParams(params.endpoints[:1], params.lam[:1]),
    lambda params: FlowParams(np.zeros((3, 3)), params.lam),
], ids=["wrong-q", "wrong-n"])
def test_diagnostics_reject_params_that_do_not_fit(unfit):
    # lam of one curve broadcasts over three, and the endpoint rows
    # over the curves, unless the fit is checked
    state, params = fixtures.triod_bent(N=32)
    params = unfit(params)
    bundle = geometry.finite_differences(state)
    for monitor in (diagnostics.record_state, diagnostics.network_energy,
                    diagnostics.boundary_residuals):
        with pytest.raises(ConfigurationError, match="endpoints must have the shape"):
            monitor(state, params)
    with pytest.raises(ConfigurationError, match="endpoints must have the shape"):
        wellposed.check_compat_order0(state, params, bundle)


# the record condition of each boundary_residuals key
_CONDITIONS = {"endpoint": "endpoint-pin", "second_derivative": "second-derivative",
               "concurrency": "concurrency", "third_order_sum": "third-order-sum"}


def _perturbed_triod():
    state, params = fixtures.triod_bent(N=64)
    rng = np.random.default_rng(7)
    return NetworkState(state.nodes + 1e-4 * rng.normal(size=state.nodes.shape)), params


@pytest.mark.parametrize("network", [
    lambda: fixtures.triod_bent(N=64), lambda: fixtures.q4_spatial(N=48),
    lambda: fixtures.single_clamped(N=48), _perturbed_triod,
], ids=["triod_bent", "q4_spatial", "single_clamped", "perturbed_triod"])
def test_boundary_residuals_are_the_worst_order0_records(network):
    state, params = network()
    records = wellposed.check_compat_order0(state, params,
                                            geometry.finite_differences(state))
    res = diagnostics.boundary_residuals(state, params)
    assert set(res) == set(_CONDITIONS)
    for key, condition in _CONDITIONS.items():
        matching = [r.residual for r in records if r.condition == condition]
        assert res[key] == max(matching, default=0.0), key


def test_records_roundtrip_through_csv():
    state, params = fixtures.triod_bent(N=48)
    rec = diagnostics.record_state(state, params)
    text = diagnostics.records_to_csv([rec])
    back = diagnostics.records_from_csv(text)
    assert len(back) == 1
    for f in diagnostics.DiagnosticsRecord.FIELDS:
        assert getattr(back[0], f) == getattr(rec, f)
    with pytest.raises(ValueError):
        diagnostics.records_from_csv("a,b\n1,2\n")


_HEADER = ",".join(diagnostics.DiagnosticsRecord.FIELDS)


@pytest.mark.parametrize("text", [
    "", f"{_HEADER}\n1.0,2.0\n", f"{_HEADER}\n{','.join(['1.0'] * 8)}\n",
    f"{_HEADER}\n{','.join(['1.0'] * 7)}\n\n",
], ids=["empty", "short-row", "long-row", "blank-row"])
def test_malformed_diagnostics_csv_is_a_value_error(text):
    with pytest.raises(ValueError):
        diagnostics.records_from_csv(text)


def test_decimate_keeps_ends_and_limit():
    state, params = fixtures.triod_equilibrium(N=32)
    rec = diagnostics.record_state(state, params)
    records = [rec] * 1000
    thin = diagnostics.decimate(records)
    assert len(thin) <= diagnostics.MAX_CSV_SLICES
    assert thin[0] is records[0]
    assert thin[-1] is records[-1]
    assert diagnostics.decimate(records[:5]) == records[:5]
