"""Ready-made networks used by the demos, the CLI and the test-suite."""

import numpy as np

from .geometry import CurveSamples, boundary_offsets, stencil_weights
from .solver import FlowParams, NetworkState

DEFAULT_N = 96


def _spokes(dirs, N, lam=1.0):
    # unit-speed straight curves from the origin to the rows of dirs, which
    # are their pinned outer ends, each with the length penalty lam
    nodes = np.linspace(0.0, 1.0, N + 1)[:, None] * dirs[:, None, :]
    return NetworkState(nodes), FlowParams(endpoints=dirs, lam=np.full(len(dirs), float(lam)))


def _triod_frame():
    """Unit directions of three spokes at 120 degrees, the first along +y,
    and their normals (-d_y, d_x): two new (3, 2) arrays."""
    angles = np.array([np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi / 3.0,
                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return dirs, np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)


def _bump_profile(N):
    """Smooth interior bump whose discrete end stencils vanish exactly.

    Starts from x^5 (1-x)^5 (normalized to peak 1), which satisfies every
    endpoint condition analytically, then nudges two nodes near each end
    so that the one-sided second- and fourth-derivative stencils used by
    the boundary checks evaluate to exactly zero.  The nudges are of the
    size of the stencil truncation error.
    """
    x = np.linspace(0.0, 1.0, N + 1)
    g = (x**5 * (1.0 - x)**5) / (0.5**10)
    num = N + 1
    for node, adjust in ((0, (2, 3)), (N, (N - 2, N - 3))):
        offs2 = boundary_offsets(node, 2, num)
        w2 = stencil_weights(offs2, 2)
        offs4 = boundary_offsets(node, 4, num)
        w4 = stencil_weights(offs4, 4)
        resid = np.array([w2 @ g[node + offs2], w4 @ g[node + offs4]])
        cols = []
        for j in adjust:
            c2 = w2[list(node + offs2).index(j)] if j in node + offs2 else 0.0
            c4 = w4[list(node + offs4).index(j)] if j in node + offs4 else 0.0
            cols.append([c2, c4])
        delta = np.linalg.solve(np.array(cols).T, -resid)
        for j, d in zip(adjust, delta):
            g[j] += d
    return g


def triod_equilibrium(N=DEFAULT_N, lam=1.0):
    """Three straight unit-speed spokes at 120 degrees meeting at the origin.

    The spokes are flat and the tangents sum to zero, so with equal length
    penalties this network is a steady state of the flow.
    """
    return _spokes(_triod_frame()[0], N, lam)


def triod_bent(N=DEFAULT_N, lam=1.0, amplitude=0.05):
    """The symmetric triod with each spoke bowed along its normal.

    The bump profile x^5 (1-x)^5 vanishes to fifth order at both ends, so
    every boundary and junction condition of the straight triod survives
    the perturbation exactly and the network is admissible initial data,
    but it is no longer stationary.
    """
    state, params = triod_equilibrium(N=N, lam=lam)
    _, normals = _triod_frame()
    bow = amplitude * _bump_profile(N)[:, None] * normals[:, None, :]
    return NetworkState(state.nodes + bow), params


def triod_bent_skewed(N=DEFAULT_N, skew=0.4):
    """The bent triod traced with a non-uniform parameter speed.

    Each spoke is the curve of triod_bent at its defaults, but sampled
    at chi(k/N) with a smooth diffeomorphism chi whose derivative varies
    by roughly the skew factor.  Both the position and the bump are
    evaluated analytically at the skewed parameters, so the two networks
    describe identical point sets with genuinely different
    parametrizations; it is the natural input for the
    geometric-equivalence certificate.
    """
    from numpy.polynomial import Polynomial

    x = Polynomial([0.0, 1.0])
    bump_poly = (x**5 * (1.0 - x)**5) / (0.5**10)
    primitive = bump_poly.integ()
    grid = np.linspace(0.0, 1.0, N + 1)
    chi = (grid + skew * primitive(grid)) / (1.0 + skew * primitive(1.0))
    chi[0], chi[-1] = 0.0, 1.0

    dirs, normals = _triod_frame()
    nodes = (chi[:, None] * dirs[:, None, :]
             + 0.05 * bump_poly(chi)[:, None] * normals[:, None, :])
    params = FlowParams(endpoints=dirs, lam=np.ones(3))
    return NetworkState(nodes), params


def collinear_bad(N=DEFAULT_N):
    """Two opposite straight unit-penalty spokes: collinear junction tangents.

    The tangential-speed system at the junction is singular for this
    network, so it must be rejected by the preflight checks.
    """
    return _spokes(np.array([[1.0, 0.0], [-1.0, 0.0]]), N)


def q4_spatial(N=DEFAULT_N):
    """Four straight spokes toward tetrahedron vertices in R^3.

    The four unit tangents sum to zero, so this is again a steady state
    with equal length penalties, now with a genuinely spatial junction.
    """
    dirs = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / np.sqrt(3.0)
    return _spokes(dirs, N)


def single_clamped(N=DEFAULT_N, amplitude=0.05):
    """One gently bowed curve, both ends clamped, length penalty 1/2.

    The bump profile keeps the order-zero compatibility conditions exact
    at both endpoints, which makes this the reference problem for the
    convergence studies.
    """
    x = np.linspace(0.0, 1.0, N + 1)
    bump = _bump_profile(N)
    nodes = np.stack([x, amplitude * bump], axis=1)
    params = FlowParams(endpoints=np.array([[1.0, 0.0]]), lam=np.array([0.5]))
    return NetworkState(nodes[None]), params


def circle(radius=1.0, N=256):
    """A full circle of the given radius sampled uniformly in angle from (radius, 0)."""
    theta = 2.0 * np.pi * np.linspace(0.0, 1.0, N + 1)
    nodes = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return CurveSamples(nodes)
