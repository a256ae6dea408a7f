"""Reparametrization utilities and the geometric-equivalence certificate.

Two parametrized solutions describe the same evolving network exactly
when one is the other composed with a family of diffeomorphisms of
[0, 1].  The family solves a first-order ODE driven by the difference
of the tangential speeds; integrating that ODE numerically and measuring
the residual mismatch gives a certificate of geometric equivalence.
"""

import math
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


# for each stencil node m, the other three in increasing order and the
# differences m - other that its Lagrange weight divides by
_OTHER_NODES = np.array([[other for other in range(4) if other != m] for m in range(4)])
_NODE_GAPS = np.arange(4)[:, None] - _OTHER_NODES


def resample(nodes, positions):
    """Evaluate uniformly sampled curves or fields at arbitrary parameters.

    Uses the local cubic Lagrange interpolant on the four nearest nodes.
    positions has shape (..., M) with values in [0, 1]; nodes has shape
    (..., N+1) for scalar fields or (..., N+1, n) for curves, where ...
    are the leading axes of positions, so one call interpolates a stack
    of fields, each at its own positions.  N is taken from nodes, so the
    positions may come from another grid.
    """
    y = np.clip(np.asarray(positions, dtype=float), 0.0, 1.0)
    v = np.asarray(nodes, dtype=float)
    scalar_field = v.ndim == y.ndim
    if scalar_field:
        v = v[..., None]
    lead = y.shape[:-1]
    if v.shape[:-2] != lead:
        raise ConfigurationError(
            f"nodes {np.shape(nodes)} do not match positions {y.shape} in their "
            f"leading axes")
    N = v.shape[-2] - 1
    u = y * N
    k0 = np.clip(np.floor(u).astype(int) - 1, 0, N - 3)
    stencil = k0[..., None] + np.arange(4)
    # weight of stencil node m: the product of (u - (k0 + other)) / (m - other)
    # over the other three, multiplied in increasing order
    factors = np.take(u[..., None] - stencil, _OTHER_NODES, axis=-1) / _NODE_GAPS
    weight = factors[..., 0] * factors[..., 1] * factors[..., 2]
    # one gather for all fields: node j of field r is flat row r (N+1) + j
    rows = (N + 1) * np.arange(math.prod(lead)).reshape(lead + (1, 1))
    terms = weight[..., None] * np.take(v.reshape(-1, v.shape[-1]), rows + stencil, axis=0)
    out = np.zeros(y.shape + v.shape[-1:])
    for m in range(4):
        out += terms[..., m, :]
    return out[..., 0] if scalar_field else out


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
    """(phi_star, speed) samples of one stored frame, each shaped (q, N+1)."""
    bundle = geometry.finite_differences(state)
    return geometry.phi_star(bundle, lam[:, None]), bundle.speed


def tangential_ode(times, fields_a, fields_b, phi0):
    """Integrate the diffeomorphism ODE for all curves along stored frames.

    fields_a and fields_b are per-frame pairs from _tangential_speed_fields
    for the reference solution (evaluated at the warped parameter) and the
    target solution (evaluated at the fixed parameter); the two runs may
    sit on different grids.  phi0 holds the initial maps, shape (q, N+1),
    sampled on the target's uniform grid.  Returns the (q, frames, N+1)
    array of maps; endpoints stay pinned and monotonicity is enforced: a
    breakdown is raised at the earliest frame at which any map fails,
    naming the lowest-index curve that fails there.
    """
    times = np.asarray(times, dtype=float)
    phi = np.array(phi0, dtype=float)
    history = [phi]
    # b is read at the fixed grid, so its phi_star is interpolated up front:
    # at every frame in one call and at every interval midpoint in another
    star_b = np.stack([star for star, _ in fields_b])
    grid = np.broadcast_to(np.linspace(0.0, 1.0, phi.shape[-1]), star_b.shape)
    b_frames = resample(star_b, grid)
    b_halves = resample(0.5 * star_b[:-1] + 0.5 * star_b[1:], grid[1:])
    # a is read at the warped parameter: interpolate phi_star and speed
    # together as one 2-column field
    star_speed_a = [np.stack(pair, axis=-1) for pair in fields_a]

    def rate(b_vals, field_a, y_vals):
        star_speed = resample(field_a, y_vals)
        return (b_vals - star_speed[..., 0]) / star_speed[..., 1]

    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        # linear interpolation between the two bracketing frames
        a0, a_half, a1 = ((1.0 - weight) * star_speed_a[k]
                          + weight * star_speed_a[k + 1]
                          for weight in (0.0, 0.5, 1.0))
        k1 = rate(b_frames[k], a0, phi)
        k2 = rate(b_halves[k], a_half, np.clip(phi + 0.5 * dt * k1, 0.0, 1.0))
        k3 = rate(b_halves[k], a_half, np.clip(phi + 0.5 * dt * k2, 0.0, 1.0))
        k4 = rate(b_frames[k + 1], a1, np.clip(phi + dt * k3, 0.0, 1.0))
        phi = phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[:, 0], phi[:, -1] = 0.0, 1.0
        phi = np.clip(phi, 0.0, 1.0)
        failing = np.flatnonzero(np.any(np.diff(phi, axis=-1) <= 0, axis=-1))
        if failing.size:
            curve, time = int(failing[0]), float(times[k + 1])
            raise DiffeoBreakdownError(
                f"recovered map of curve {curve} lost monotonicity at t={time:.6e}",
                time=time, curve=curve,
            )
        history.append(phi)
    return np.stack(history, axis=1)


def geometric_equivalence(trajectory_a, trajectory_b, lam):
    """Certificate that two runs trace the same geometric evolution.

    trajectory_a and trajectory_b are lists of states stored at matching
    times, with the same curve count and ambient dimension but possibly
    different grids; for each curve a family of diffeomorphisms phi(t) is
    recovered so that b(t, x) should equal a(t, phi(t, x)).  Returns the
    largest pointwise mismatch over all stored frames and the recovered
    maps, shaped (q, frames, N+1) on b's grid.
    """
    if len(trajectory_a) != len(trajectory_b):
        raise ConfigurationError("trajectories must store the same frames")
    shape_a, shape_b = trajectory_a[0].nodes.shape, trajectory_b[0].nodes.shape
    if (shape_a[0], shape_a[2]) != (shape_b[0], shape_b[2]):
        raise ConfigurationError(
            f"runs differ in curve count or ambient dimension: node arrays "
            f"(q, N+1, n) = {shape_a} and {shape_b}")
    times = np.array([s.time for s in trajectory_a])
    times_b = np.array([s.time for s in trajectory_b])
    if not np.allclose(times, times_b, atol=1e-12):
        raise ConfigurationError("trajectories must store matching times")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    fields_a = [_tangential_speed_fields(s, lam) for s in trajectory_a]
    fields_b = [_tangential_speed_fields(s, lam) for s in trajectory_b]

    # initial maps: match normalized arclength of the two initial curves
    phi0 = np.array([
        arclength_map(curve_a).inverse(arclength_map(curve_b).values)
        for curve_a, curve_b in zip(trajectory_a[0].curves, trajectory_b[0].curves)
    ])
    phi0 = np.clip(phi0, 0.0, 1.0)
    phi0[:, 0], phi0[:, -1] = 0.0, 1.0

    maps = tangential_ode(times, fields_a, fields_b, phi0)
    # every curve of every frame in one call: (q, frames, N+1, n)
    nodes_a = np.stack([s.nodes for s in trajectory_a], axis=1)
    nodes_b = np.stack([s.nodes for s in trajectory_b], axis=1)
    gap = np.linalg.norm(resample(nodes_a, maps) - nodes_b, axis=-1)
    return float(np.max(gap)), maps
