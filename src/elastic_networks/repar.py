"""Reparametrization utilities and the geometric-equivalence certificate.

Two parametrized solutions describe the same evolving network exactly
when one is the other composed with a family of diffeomorphisms of
[0, 1].  The family solves a first-order ODE driven by the difference
of the tangential speeds; integrating that ODE numerically and measuring
the residual mismatch gives a certificate of geometric equivalence.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from . import geometry
from .errors import ConfigurationError, DiffeoBreakdownError
from .geometry import CurveSamples


@dataclass(frozen=True)
class Diffeomorphism:
    """Monotone map of [0, 1] sampled on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.shape != v.shape or g.ndim != 1:
            raise ConfigurationError("grid and values must be matching 1-d arrays")
        if np.any(np.diff(v) <= 0):
            raise DiffeoBreakdownError("sampled map is not strictly increasing")

    def __call__(self, x):
        return PchipInterpolator(self.grid, self.values)(x)

    def inverse(self, y):
        return PchipInterpolator(self.values, self.grid)(y)


def resample(nodes, positions):
    """Evaluate a uniformly sampled curve at arbitrary parameters.

    Uses the local cubic Lagrange interpolant on the four nearest nodes.
    nodes has shape (N+1, n) or (N+1,); positions are values in [0, 1].
    """
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


def arclength_map(curve):
    """Normalized cumulative arclength of a sampled curve as a diffeomorphism."""
    bundle = geometry.finite_differences(curve)
    arc = cumulative_trapezoid(bundle.speed, dx=curve.h, initial=0.0)
    values = arc / arc[-1]
    values[0], values[-1] = 0.0, 1.0
    grid = np.linspace(0.0, 1.0, curve.N + 1)
    return Diffeomorphism(grid=grid, values=values)


def const_speed_reparam(curve):
    """Constant-speed resampling of a curve.

    Returns the resampled curve together with the diffeomorphism phi that
    maps the original parameter to the new one (the new curve is the old
    one composed with the inverse of phi).
    """
    phi = arclength_map(curve)
    grid = phi.grid
    psi = np.clip(phi.inverse(grid), 0.0, 1.0)
    psi[0], psi[-1] = 0.0, 1.0
    return CurveSamples(resample(curve.nodes, psi)), phi


def _tangential_speed_fields(state, lam):
    """Per-curve (phi_star, speed) samples of one stored frame."""
    bundle = geometry.finite_differences(state)
    phi = geometry.phi_star(bundle, lam[:, None])
    return list(zip(phi, bundle.speed))


def tangential_ode(times, fields_a, fields_b, phi0, curve_index=0):
    """Integrate the diffeomorphism ODE for one curve along stored frames.

    fields_a and fields_b are per-frame lists from _tangential_speed_fields
    for the reference solution (evaluated at the warped parameter) and the
    target solution (evaluated at the fixed parameter).  phi0 is the
    initial map sampled on the uniform grid.  Returns the (frames, N+1)
    array of maps; endpoints stay pinned and monotonicity is enforced.
    """
    times = np.asarray(times, dtype=float)
    phi = np.array(phi0, dtype=float)
    history = [phi.copy()]

    def rate(frame_lo, frame_hi, weight, x_vals, y_vals):
        # linear interpolation between the two bracketing frames
        def field_at(frames, pick):
            lo = frames[frame_lo][curve_index][pick]
            hi = frames[frame_hi][curve_index][pick]
            return (1.0 - weight) * lo + weight * hi

        phi_star_b = resample(field_at(fields_b, 0), x_vals)
        phi_star_a = resample(field_at(fields_a, 0), y_vals)
        speed_a = resample(field_at(fields_a, 1), y_vals)
        return (phi_star_b - phi_star_a) / speed_a

    grid = np.linspace(0.0, 1.0, phi.size - 1 + 1)
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        k1 = rate(k, k + 1, 0.0, grid, phi)
        k2 = rate(k, k + 1, 0.5, grid, np.clip(phi + 0.5 * dt * k1, 0.0, 1.0))
        k3 = rate(k, k + 1, 0.5, grid, np.clip(phi + 0.5 * dt * k2, 0.0, 1.0))
        k4 = rate(k, k + 1, 1.0, grid, np.clip(phi + dt * k3, 0.0, 1.0))
        phi = phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[0], phi[-1] = 0.0, 1.0
        phi = np.clip(phi, 0.0, 1.0)
        if np.any(np.diff(phi) <= 0):
            raise DiffeoBreakdownError(
                "recovered map lost monotonicity", time=float(times[k + 1])
            )
        history.append(phi.copy())
    return np.array(history)


def geometric_equivalence(trajectory_a, trajectory_b, lam):
    """Certificate that two runs trace the same geometric evolution.

    trajectory_a and trajectory_b are lists of states stored at matching
    times; for each curve a family of diffeomorphisms phi(t) is recovered
    so that b(t, x) should equal a(t, phi(t, x)).  Returns the largest
    pointwise mismatch over all stored frames and the recovered maps,
    shaped (q, frames, N+1).
    """
    if len(trajectory_a) != len(trajectory_b):
        raise ConfigurationError("trajectories must store the same frames")
    times = np.array([s.time for s in trajectory_a])
    times_b = np.array([s.time for s in trajectory_b])
    if not np.allclose(times, times_b, atol=1e-12):
        raise ConfigurationError("trajectories must store matching times")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    q = trajectory_a[0].q

    fields_a = [_tangential_speed_fields(s, lam) for s in trajectory_a]
    fields_b = [_tangential_speed_fields(s, lam) for s in trajectory_b]

    certificate = 0.0
    maps = []
    for i in range(q):
        # initial map: match normalized arclength of the two initial curves
        sigma_a = arclength_map(trajectory_a[0].curves[i])
        sigma_b = arclength_map(trajectory_b[0].curves[i])
        phi0 = np.clip(sigma_a.inverse(sigma_b.values), 0.0, 1.0)
        phi0[0], phi0[-1] = 0.0, 1.0

        history = tangential_ode(times, fields_a, fields_b, phi0, curve_index=i)
        maps.append(history)
        for k, phi in enumerate(history):
            warped = resample(trajectory_a[k].curves[i].nodes, phi)
            gap = np.linalg.norm(warped - trajectory_b[k].curves[i].nodes, axis=1)
            certificate = max(certificate, float(np.max(gap)))
    return certificate, np.array(maps)
