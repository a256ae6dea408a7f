"""Ready-made networks used by the demos, the CLI and the test-suite."""

import numpy as np

from .geometry import CurveSamples, boundary_offsets, stencil_weights
from .solver import FlowParams, NetworkState

DEFAULT_N = 96


def _spokes(dirs, length, N):
    # straight curves from the origin along the rows of dirs: (q, N+1, n)
    x = np.linspace(0.0, 1.0, N + 1)
    return (x * length)[:, None] * dirs[:, None, :]


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


def triod_equilibrium(N=DEFAULT_N, length=1.0, lam=1.0):
    """Three straight unit-speed spokes at 120 degrees meeting at the origin.

    The spokes are flat and the tangents sum to zero, so with equal length
    penalties this network is a steady state of the flow.
    """
    angles = np.array([np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi / 3.0,
                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    params = FlowParams(endpoints=length * dirs, lam=np.full(3, float(lam)))
    return NetworkState(_spokes(dirs, length, N)), params


def triod_bent(N=DEFAULT_N, length=1.0, lam=1.0, amplitude=0.05):
    """The symmetric triod with each spoke bowed along its normal.

    The bump profile x^5 (1-x)^5 vanishes to fifth order at both ends, so
    every boundary and junction condition of the straight triod survives
    the perturbation exactly and the network is admissible initial data,
    but it is no longer stationary.
    """
    state, params = triod_equilibrium(N=N, length=length, lam=lam)
    bump = _bump_profile(N)
    tangents = [t / np.linalg.norm(t) for t in state.nodes[:, -1] - state.nodes[:, 0]]
    normals = np.array([[-t[1], t[0]] for t in tangents])
    bow = amplitude * bump[:, None] * normals[:, None, :]
    return NetworkState(state.nodes + bow), params


def triod_bent_skewed(N=DEFAULT_N, length=1.0, lam=1.0, amplitude=0.05, skew=0.4):
    """The bent triod traced with a non-uniform parameter speed.

    Each spoke is the same geometric curve as in triod_bent, but sampled
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

    angles = np.array([np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi / 3.0,
                       np.pi / 2.0 + 4.0 * np.pi / 3.0])
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    nodes = ((chi * length)[:, None] * dirs[:, None, :]
             + amplitude * bump_poly(chi)[:, None] * normals[:, None, :])
    params = FlowParams(endpoints=length * dirs, lam=np.full(3, float(lam)))
    return NetworkState(nodes), params


def collinear_bad(N=DEFAULT_N, length=1.0, lam=1.0):
    """Two opposite straight spokes: the junction tangents are collinear.

    The tangential-speed system at the junction is singular for this
    network, so it must be rejected by the preflight checks.
    """
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    params = FlowParams(endpoints=length * dirs, lam=np.full(2, float(lam)))
    return NetworkState(_spokes(dirs, length, N)), params


def q4_spatial(N=DEFAULT_N, length=1.0, lam=1.0):
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
    params = FlowParams(endpoints=length * dirs, lam=np.full(4, float(lam)))
    return NetworkState(_spokes(dirs, length, N)), params


def single_clamped(N=DEFAULT_N, amplitude=0.05, lam=0.5):
    """One gently bowed curve with both ends clamped (no junction).

    The bump profile keeps the order-zero compatibility conditions exact
    at both endpoints, which makes this the reference problem for the
    convergence studies.
    """
    x = np.linspace(0.0, 1.0, N + 1)
    bump = _bump_profile(N)
    nodes = np.stack([x, amplitude * bump], axis=1)
    params = FlowParams(endpoints=np.array([[1.0, 0.0]]), lam=np.array([float(lam)]))
    return NetworkState(nodes[None]), params


def circle(radius=1.0, N=256, turns=1.0, phase=0.0):
    """A circular arc of the given radius sampled uniformly in angle."""
    theta = phase + 2.0 * np.pi * turns * np.linspace(0.0, 1.0, N + 1)
    nodes = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return CurveSamples(nodes)
