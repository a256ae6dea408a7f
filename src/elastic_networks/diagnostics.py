"""Energies, residual monitors and norm estimates.

Quadrature is the trapezoidal rule on the uniform parameter grid with
the arclength element |f'| dx.  The first-variation check compares the
analytic L^2 gradient against a central difference of the energy.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import geometry, junction

MAX_CSV_SLICES = 200


def _energies(bundle, lam, h):
    # bending energy plus lam times length, per curve of the bundle
    kap = geometry.curvature(bundle)
    density = 0.5 * np.einsum("...j,...j->...", kap, kap) * bundle.speed
    return (np.trapezoid(density, dx=h, axis=-1)
            + lam * np.trapezoid(bundle.speed, dx=h, axis=-1))


def elastic_energy(curve, lam=0.0):
    """Bending energy plus lam times length of one sampled curve."""
    return float(_energies(geometry.finite_differences(curve), lam, curve.h))


def network_energy(state, params, bundle=None):
    """Sum of the penalized energies of all curves.

    bundle is the stacked derivative bundle of state, if already built.
    """
    if bundle is None:
        bundle = geometry.finite_differences(state)
    return float(np.sum(_energies(bundle, params.lam, 1.0 / state.N)))


def energy_gradient(bundle):
    """L^2 gradient of the bending energy: nabla_s^2 kappa + |kappa|^2 kappa / 2."""
    kap = geometry.curvature(bundle)
    k2 = np.einsum("ij,ij->i", kap, kap)
    return geometry.nabla_s2_kappa(bundle) + 0.5 * k2[:, None] * kap


def first_variation_check(curve, direction, functional="elastic", lam=0.0,
                          eps=1e-5):
    """Analytic and finite-difference first variation along a direction.

    functional is "length" (L^2 gradient -kappa), "elastic" (bending
    energy, gradient nabla_s^2 kappa + |kappa|^2 kappa / 2) or
    "penalized" (bending plus lam times length).  The direction should
    vanish to high order at both endpoints so that the boundary terms of
    the integration by parts drop out.  Returns the pair
    (analytic, numeric).
    """
    direction = np.asarray(direction, dtype=float)
    bundle = geometry.finite_differences(curve)
    kap = geometry.curvature(bundle)
    if functional == "length":
        grad = -kap
        lam_bend, lam_len = 0.0, 1.0
    elif functional == "elastic":
        grad = energy_gradient(bundle)
        lam_bend, lam_len = 1.0, 0.0
    elif functional == "penalized":
        grad = energy_gradient(bundle) - lam * kap
        lam_bend, lam_len = 1.0, lam
    else:
        raise ValueError(f"unknown functional {functional!r}")
    density = np.einsum("ij,ij->i", grad, direction) * bundle.speed
    analytic = float(np.trapezoid(density, dx=curve.h))

    def value(nodes):
        c = geometry.CurveSamples(nodes)
        b = geometry.finite_differences(c)
        if lam_bend:
            return float(_energies(b, lam_len, c.h))
        return lam_len * float(np.trapezoid(b.speed, dx=c.h))

    numeric = (value(curve.nodes + eps * direction)
               - value(curve.nodes - eps * direction)) / (2.0 * eps)
    return analytic, numeric


def boundary_residuals(state, params, bundle=None):
    """Nonlinear boundary-condition residuals of a network state.

    Returns a dict with the worst endpoint pin error, second-derivative
    magnitudes at both ends, junction concurrency spread, and the norm of
    the third-order junction sum.  bundle is the stacked derivative
    bundle of state, if already built.
    """
    if bundle is None:
        bundle = geometry.finite_differences(state)
    nodes = state.nodes
    res = {
        "endpoint": float(np.max(
            np.linalg.norm(nodes[:, -1] - params.endpoints, axis=-1))),
        "second_derivative": float(np.max(
            np.linalg.norm(bundle.d2[:, [0, -1]], axis=-1))),
        "concurrency": 0.0,
        "third_order_sum": 0.0,
    }
    if state.q >= 2:
        res["concurrency"] = float(np.max(
            np.linalg.norm(nodes[1:, 0] - nodes[0, 0], axis=-1)))
        _, total = junction.junction_terms(bundle, params.lam)
        res["third_order_sum"] = float(np.linalg.norm(total))
    return res


def holder_seminorm_space(values, positions, rho):
    """sup over time slices of the rho-Hoelder quotient in the space variable."""
    v = np.asarray(values, dtype=float)
    x = np.asarray(positions, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    worst = 0.0
    for slice_ in v:
        for a in range(x.size):
            dx = np.abs(x[a + 1:] - x[a])
            dv = np.abs(slice_[a + 1:] - slice_[a]).sum(axis=1)
            if dx.size:
                worst = max(worst, float(np.max(dv / dx**rho)))
    return worst


def holder_seminorm_time(values, times, rho):
    """sup over space points of the rho/4-Hoelder quotient in time."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.ndim == 2:
        v = v[:, :, None]
    worst = 0.0
    for a in range(t.size):
        dt = np.abs(t[a + 1:] - t[a])
        if not dt.size:
            continue
        dv = np.abs(v[a + 1:] - v[a]).sum(axis=2)
        worst = max(worst, float(np.max(dv / dt[:, None]**(rho / 4.0))))
    return worst


def parabolic_norm(values, times, positions, rho, k=0, h=None):
    """Parabolic Hoelder norm of a space-time sample, for k in {0, 1}.

    k = 0 uses sup |v| plus both seminorms of v; k = 1 adds the same
    quantities for the first space derivative and the matching (1+rho)/4
    time regularity of v itself.
    """
    if k not in (0, 1):
        raise ValueError("only the layers k = 0 and k = 1 are supported")
    v = np.asarray(values, dtype=float)
    total = float(np.max(np.abs(v)))
    total += holder_seminorm_space(v, positions, rho)
    total += holder_seminorm_time(v, times, rho)
    if k == 1:
        if h is None:
            h = float(positions[1] - positions[0])
        dv = np.stack([geometry.apply_derivative(s, 1, h) for s in v])
        total += float(np.max(np.abs(dv)))
        total += holder_seminorm_space(dv, positions, rho)
        total += holder_seminorm_time(dv, times, rho)
        total += holder_seminorm_time(v, times, 1.0 + rho)
    return total


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar monitors of one state along a run."""

    time: float
    energy: float
    min_speed: float
    endpoint: float
    second_derivative: float
    concurrency: float
    third_order_sum: float

    FIELDS = (
        "time",
        "energy",
        "min_speed",
        "endpoint",
        "second_derivative",
        "concurrency",
        "third_order_sum",
    )


def record_state(state, params):
    bundle = geometry.finite_differences(state)
    return DiagnosticsRecord(
        time=state.time,
        energy=network_energy(state, params, bundle),
        min_speed=float(np.min(bundle.speed)),
        **boundary_residuals(state, params, bundle),
    )


def decimate(records, limit=MAX_CSV_SLICES):
    """Thin a record list to at most limit entries, keeping both ends."""
    if len(records) <= limit:
        return list(records)
    idx = np.unique(np.linspace(0, len(records) - 1, limit).round().astype(int))
    return [records[i] for i in idx]


def records_to_csv(records, limit=MAX_CSV_SLICES):
    """Serialize records to CSV text, decimated to at most limit rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DiagnosticsRecord.FIELDS)
    for rec in decimate(records, limit):
        writer.writerow([repr(float(getattr(rec, f)))
                         for f in DiagnosticsRecord.FIELDS])
    return buf.getvalue()


def records_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != DiagnosticsRecord.FIELDS:
        raise ValueError("unexpected diagnostics CSV header")
    return [DiagnosticsRecord(*[float(v) for v in row]) for row in reader]
