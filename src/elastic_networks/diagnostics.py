"""Energies, residual monitors and the records of a run.

Quadrature is the trapezoidal rule on the uniform parameter grid with
the arclength element |f'| dx.  The first-variation check compares the
analytic L^2 gradient against a central difference of the energy.
"""

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from . import geometry, wellposed

MAX_CSV_SLICES = 200
# step of the central difference in the first-variation check
VARIATION_EPS = 1e-5


def _trapezoid(y, h):
    # np.trapezoid(y, dx=h, axis=-1) in its own expression, bit for bit,
    # without its argument handling
    return (h * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)


def _energies(bundle, lam, h):
    # bending energy plus lam times length, per curve of the bundle
    kap = geometry.curvature(bundle)
    density = 0.5 * np.einsum("...j,...j->...", kap, kap) * bundle.speed
    return _trapezoid(density, h) + lam * _trapezoid(bundle.speed, h)


def elastic_energy(curve, lam=0.0):
    """Bending energy plus lam times length of one sampled curve."""
    return float(_energies(geometry.finite_differences(curve), lam, curve.h))


def network_energy(state, params):
    """Sum of the penalized energies of all curves."""
    params.require_fit(state)
    bundle = geometry.finite_differences(state)
    return float(np.sum(_energies(bundle, params.lam, 1.0 / state.N)))


def first_variation_check(curve, direction, functional="elastic", lam=0.0):
    """Analytic and finite-difference first variation along a direction.

    functional is "length" (L^2 gradient -kappa), "elastic" (bending
    energy, gradient geometry.energy_gradient) or "penalized" (bending
    plus lam times length).  The direction should vanish to high order at
    both endpoints so that the boundary terms of the integration by parts
    drop out.  Returns the pair (analytic, numeric).
    """
    direction = np.asarray(direction, dtype=float)
    bundle = geometry.finite_differences(curve)
    kap = geometry.curvature(bundle)
    if functional == "length":
        grad = -kap
    elif functional == "elastic":
        grad = geometry.energy_gradient(bundle)
        lam = 0.0
    elif functional == "penalized":
        grad = geometry.energy_gradient(bundle) - lam * kap
    else:
        raise ValueError(f"unknown functional {functional!r}")
    density = np.einsum("ij,ij->i", grad, direction) * bundle.speed
    analytic = float(_trapezoid(density, curve.h))

    def value(nodes):
        c = geometry.CurveSamples(nodes)
        if functional == "length":
            return float(_trapezoid(geometry.finite_differences(c).speed, c.h))
        return elastic_energy(c, lam)

    d = VARIATION_EPS * direction
    numeric = (value(curve.nodes + d) - value(curve.nodes - d)) / (2.0 * VARIATION_EPS)
    return analytic, numeric


def boundary_residuals(state, params):
    """Nonlinear boundary-condition residuals of a network state.

    Returns a dict with the worst endpoint pin error, second-derivative
    magnitudes at both ends, junction concurrency spread, and the norm of
    the third-order junction sum: the max of each entry of
    wellposed.order0_residuals.
    """
    return {key: float(np.max(value, initial=0.0)) for key, value
            in wellposed.order0_residuals(state, params).items()}


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


# the CSV columns: the record's fields, in order
DiagnosticsRecord.FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


def record_state(state, params):
    # within solver.evolve each of these differentiates state for free
    return DiagnosticsRecord(
        time=state.time,
        energy=network_energy(state, params),
        min_speed=float(np.min(geometry.finite_differences(state).speed)),
        **boundary_residuals(state, params),
    )


def decimate(records, limit=MAX_CSV_SLICES):
    """Thin a record list to at most limit entries, keeping both ends."""
    if len(records) <= limit:
        return list(records)
    idx = np.unique(np.linspace(0, len(records) - 1, limit).round().astype(int))
    return [records[i] for i in idx]


def records_to_csv(records):
    """Serialize records to CSV text, decimated to at most MAX_CSV_SLICES rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DiagnosticsRecord.FIELDS)
    for rec in decimate(records):
        writer.writerow([repr(float(getattr(rec, f)))
                         for f in DiagnosticsRecord.FIELDS])
    return buf.getvalue()


def records_from_csv(text):
    header, *rows = list(csv.reader(io.StringIO(text))) or [()]  # empty text: no header
    if tuple(header) != DiagnosticsRecord.FIELDS:
        raise ValueError("unexpected diagnostics CSV header")
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a diagnostics CSV row does not have one value per field")
    return [DiagnosticsRecord(*map(float, row)) for row in rows]
