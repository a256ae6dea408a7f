"""Reparametrization utilities and the geometric-equivalence certificate.

Two parametrized solutions describe the same evolving network exactly
when one is the other composed with a family of diffeomorphisms of
[0, 1].  The family solves a first-order ODE driven by the difference
of the tangential speeds; integrating that ODE numerically and measuring
the residual mismatch gives a certificate of geometric equivalence.

The cumulative arclength and the monotone cubic that inverts it are
written with NumPy alone, so reparametrizing loads no part of SciPy.
"""

import math

import numpy as np

from . import geometry
from .errors import ConfigurationError, DiffeoBreakdownError


# for each stencil node m, the other three in increasing order and the
# differences m - other that its Lagrange weight divides by
_OTHER_NODES = np.array([[other for other in range(4) if other != m] for m in range(4)])
_NODE_GAPS = np.arange(4)[:, None] - _OTHER_NODES


def resample(nodes, positions):
    """Evaluate uniformly sampled curves at arbitrary parameters.

    Uses the local cubic Lagrange interpolant on the four nearest nodes.
    positions has shape (..., M) with values in [0, 1]; nodes has shape
    (..., N+1, n), where ... are the leading axes of positions, so one
    call interpolates a stack of curves, each at its own positions; the
    n columns may as well hold n fields sampled on the same grid.  N is
    taken from nodes, so the positions may come from another grid.
    """
    y = np.clip(np.asarray(positions, dtype=float), 0.0, 1.0)
    v = np.asarray(nodes, dtype=float)
    lead = y.shape[:-1]
    if v.ndim != y.ndim + 1 or v.shape[:-2] != lead:
        raise ConfigurationError(
            f"nodes {np.shape(nodes)} must be (..., N+1, n) with ... the leading "
            f"axes of positions {y.shape}")
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
    return out


def arclength_map(speed, h):
    """Normalized cumulative arclength of curves with node speeds (..., N+1).

    The trapezoids are summed exactly as scipy.integrate.cumulative_trapezoid
    forms them, so each map matches it bit for bit.  Raises
    DiffeoBreakdownError if a map is not strictly increasing, which a
    non-finite speed (NaN or inf) also makes it.
    """
    with np.errstate(all="ignore"):  # a non-finite speed fails below
        arc = np.cumsum(h * (speed[..., 1:] + speed[..., :-1]) / 2.0, axis=-1)
        # values end at arc / arc, which is exactly 1
        values = np.zeros(speed.shape)
        values[..., 1:] = arc / arc[..., -1:]
    if not np.all(np.diff(values, axis=-1) > 0):
        raise DiffeoBreakdownError("sampled map is not strictly increasing")
    return values


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, clamped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0,
                    np.where(overshoot, 3.0 * m0, d))


def _monotone_cubic(x, y, at):
    """Monotone cubic (PCHIP) interpolants through rows (x, y), evaluated at.

    x (..., K) holds strictly increasing rows of K >= 3 points (a map
    inverted here has at least geometry.MIN_INTERVALS + 1), y (K,) or
    (..., K) their values and at (..., M) each row's points; points
    outside a row extrapolate with its end pieces.  The slopes are
    Fritsch-Carlson's weighted harmonic means with the one-sided ends of
    Moler's pchiptx, and the pieces are formed and evaluated in the power
    basis with the operations of SciPy's PchipInterpolator, so the values
    equal it bit for bit.
    """
    h = np.diff(x, axis=-1)
    m = np.diff(y, axis=-1) / h
    m0, m1 = m[..., :-1], m[..., 1:]
    w1, w2 = 2 * h[..., 1:] + h[..., :-1], h[..., 1:] + 2 * h[..., :-1]
    # 0 at a sign change or a flat piece, where the mean is not used
    extremum = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(extremum, 0.0, 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    first = _end_slope(h[..., 0], h[..., 1], m[..., 0], m[..., 1])
    last = _end_slope(h[..., -1], h[..., -2], m[..., -1], m[..., -2])
    d = np.concatenate((first[..., None], inner, last[..., None]), axis=-1)
    t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
    coeffs = np.broadcast_arrays(t / h, (m - d[..., :-1]) / h - t,
                                 d[..., :-1], y[..., :-1], x[..., :-1])
    # the piece of each point: row[k] <= point < row[k + 1], ends extended
    K, M = x.shape[-1], at.shape[-1]
    piece = np.reshape([np.searchsorted(row, points, "right") for row, points
                        in zip(x.reshape(-1, K), at.reshape(-1, M))], at.shape)
    piece = np.clip(piece - 1, 0, K - 2)
    c0, c1, c2, c3, start = (np.take_along_axis(c, piece, axis=-1) for c in coeffs)
    s = at - start
    return ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)


def inverse_map(values, at):
    """Inverses of maps (..., N+1) on the uniform grid, evaluated at (..., M).

    at may also be (M,), the same points for every map.  Each map is
    inverted by the monotone cubic interpolant through (values, grid); the
    results are clipped to [0, 1] with both ends pinned.  Raises
    DiffeoBreakdownError if a map is not finite and strictly increasing.
    """
    if not (np.all(np.diff(values, axis=-1) > 0) and np.all(np.isfinite(values))):
        raise DiffeoBreakdownError("map to invert is not strictly increasing and finite")
    at = np.broadcast_to(at, values.shape[:-1] + np.shape(at)[-1:])
    grid = np.linspace(0.0, 1.0, values.shape[-1])
    out = np.clip(_monotone_cubic(values, grid, at), 0.0, 1.0)
    out[..., 0], out[..., -1] = 0.0, 1.0
    return out


def const_speed_reparam(curves):
    """Constant-speed resampling of a curve (N+1, n) or network (q, N+1, n).

    Returns the resampled nodes and the arclength maps phi, (..., N+1):
    each new curve is the old one composed with the inverse of its phi.
    """
    nodes = curves.nodes
    phi = arclength_map(geometry.finite_differences(curves).speed,
                        1.0 / (nodes.shape[-2] - 1))
    psi = inverse_map(phi, np.linspace(0.0, 1.0, phi.shape[-1]))
    return resample(nodes, psi), phi


def _fields(trajectory, lam):
    """phi_star and speed of every stored frame, one (frames, q, N+1, 2) array."""
    fields = np.empty((len(trajectory),) + trajectory[0].nodes.shape[:2] + (2,))
    for frame, state in zip(fields, trajectory):
        bundle = geometry.finite_differences(state)  # one frame's bundle at a time
        frame[..., 0], frame[..., 1] = geometry.phi_star(bundle, lam[:, None]), bundle.speed
    return fields


def tangential_ode(times, fields_a, star_b, phi0):
    """Integrate the diffeomorphism ODE for all curves along stored frames.

    fields_a (frames, q, N_a+1, 2), from _fields, is the reference run,
    read at the warped parameter; star_b (frames, q, N+1) is the target
    run's phi_star, read at its own nodes, so the grids may differ.  phi0
    (q, N+1) holds the initial maps on the target's grid.  Returns the maps
    (q, frames, N+1), ends pinned; the earliest frame at which a map loses
    monotonicity raises a breakdown naming the lowest-index failing curve.
    """
    times = np.asarray(times, dtype=float)
    phi = np.array(phi0, dtype=float)
    history = [phi]
    # the fields at each interval's midpoint, linear in time between frames
    b_halves = 0.5 * star_b[:-1] + 0.5 * star_b[1:]
    a_halves = 0.5 * fields_a[:-1] + 0.5 * fields_a[1:]

    def rate(b_vals, field_a, y_vals):
        star_speed = resample(field_a, y_vals)
        return (b_vals - star_speed[..., 0]) / star_speed[..., 1]

    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        k1 = rate(star_b[k], fields_a[k], phi)
        k2 = rate(b_halves[k], a_halves[k], np.clip(phi + 0.5 * dt * k1, 0.0, 1.0))
        k3 = rate(b_halves[k], a_halves[k], np.clip(phi + 0.5 * dt * k2, 0.0, 1.0))
        k4 = rate(star_b[k + 1], fields_a[k + 1], np.clip(phi + dt * k3, 0.0, 1.0))
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
    if not np.allclose(times, [s.time for s in trajectory_b], rtol=1e-12, atol=1e-12):
        raise ConfigurationError("trajectories must store matching times")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    fields_a, fields_b = _fields(trajectory_a, lam), _fields(trajectory_b, lam)

    # initial maps: match the normalized arclengths of the two initial
    # networks, from the speeds their frame-0 fields already hold
    phi0 = inverse_map(arclength_map(fields_a[0, ..., 1], 1.0 / trajectory_a[0].N),
                       arclength_map(fields_b[0, ..., 1], 1.0 / trajectory_b[0].N))

    maps = tangential_ode(times, fields_a, fields_b[..., 0], phi0)
    del fields_a, fields_b  # freed before the gap's temporaries: lower peak RSS
    # one frame at a time, so the temporaries do not grow with the frames;
    # np.max keeps a NaN gap, which Python's max would drop
    gaps = [np.max(np.linalg.norm(resample(a.nodes, maps[:, k]) - b.nodes, axis=-1))
            for k, (a, b) in enumerate(zip(trajectory_a, trajectory_b))]
    return float(np.max(gaps)), maps
