"""Discrete curves and the coordinate formulas driving the flow.

A curve is a set of N+1 points sampled at the uniform parameters x_k = k/N
on [0, 1].  All geometric quantities (curvature chain, tangential speed,
lower-order terms, full velocity) are evaluated node-wise from the first
four parameter derivatives, which are computed by second-order finite
differences: centered stencils in the interior, shifted stencils of the
same formal order near the two ends.  A network stores its q curves as
one read-only (q, N+1, n) array (NetworkState.nodes); its bundle comes
from one block-diagonal operator, and every formula takes a curve's or
a network's bundle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, RegularityError

SPEED_FLOOR = 1e-14

# half-width of the centered interior stencil per derivative order
_CENTERED_HALF_WIDTH = {1: 1, 2: 1, 3: 2, 4: 2}
# point count of the shifted stencils used near the boundary (second order)
_SHIFTED_POINTS = {1: 3, 2: 4, 3: 5, 4: 6}

MIN_INTERVALS = 8


@lru_cache(maxsize=None)
def _cached_weights(offsets, order):
    c = np.asarray(offsets, dtype=float)
    p = c.size
    if p <= order:
        raise ConfigurationError(
            f"{p}-point stencil cannot produce derivative of order {order}"
        )
    # moment conditions: sum_j w_j c_j^m = order! * delta(m, order)
    vander = np.vander(c, p, increasing=True).T
    rhs = np.zeros(p)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(vander, rhs)


def stencil_weights(offsets, order):
    """Finite-difference weights on unit-spaced nodes at the given offsets."""
    return _cached_weights(tuple(int(o) for o in offsets), order).copy()


def boundary_offsets(node, order, num_nodes):
    """Offsets of the shifted stencil used at a node too close to an end."""
    pts = _SHIFTED_POINTS[order]
    start = int(np.clip(node - pts // 2, 0, num_nodes - pts))
    return np.arange(start, start + pts) - node


@lru_cache(maxsize=None)
def _derivative_matrix(num, order):
    """Sparse differentiation matrix on num unit-spaced nodes."""
    from scipy import sparse

    hw = _CENTERED_HALF_WIDTH[order]
    rows, cols, vals = [], [], []
    w = _cached_weights(tuple(range(-hw, hw + 1)), order)
    for k in range(hw, num - hw):
        for j, off in enumerate(range(-hw, hw + 1)):
            rows.append(k)
            cols.append(k + off)
            vals.append(w[j])
    for k in list(range(hw)) + list(range(num - hw, num)):
        offs = boundary_offsets(k, order, num)
        wb = stencil_weights(offs, order)
        for off, weight in zip(offs, wb):
            rows.append(k)
            cols.append(k + off)
            vals.append(weight)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(num, num)
    )


@lru_cache(maxsize=None)
def _block_operator(count, num):
    """count copies, down the diagonal, of the order 1..4 matrices on num
    nodes stacked vertically: (count 4 num, count num)."""
    from scipy import sparse

    stacked = sparse.vstack([_derivative_matrix(num, k) for k in range(1, 5)])
    return sparse.block_diag([stacked] * count, format="csr")


@lru_cache(maxsize=None)
def _scales(num):
    # h^order for the orders 1..4, shaped to divide a (..., 4, num, n) array
    scales = np.array([(1.0 / (num - 1))**order for order in range(1, 5)])
    scales.flags.writeable = False
    return scales[:, None, None]


def apply_derivative(values, order, h):
    """Apply the order-th parameter derivative to per-node samples.

    values has shape (N+1,) or (N+1, n); the result has the same shape.
    Interior nodes use centered stencils, nodes near the ends use shifted
    stencils of the same formal order.
    """
    v = np.asarray(values, dtype=float)
    num = v.shape[0]
    if num < MIN_INTERVALS + 1 or num < _SHIFTED_POINTS[order]:
        raise ConfigurationError(
            f"need at least {MIN_INTERVALS + 1} nodes for order-{order} stencils, got {num}"
        )
    return (_derivative_matrix(num, order) @ v) / h**order


def _check_grid(nodes):
    # the trailing (N+1, n) axes of one curve or of a stacked network
    if nodes.shape[-1] < 2:
        raise ConfigurationError("ambient dimension must be at least 2")
    if nodes.shape[-2] - 1 < MIN_INTERVALS:
        raise ConfigurationError(
            f"need at least {MIN_INTERVALS} intervals, got {nodes.shape[-2] - 1}"
        )


@dataclass(frozen=True)
class CurveSamples:
    """One curve in R^n sampled at the uniform parameters k/N."""

    nodes: np.ndarray  # (N+1, n)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 2:
            raise ConfigurationError("curve nodes must be a (N+1, n) array")
        _check_grid(nodes)

    @property
    def n(self):
        return self.nodes.shape[1]

    @property
    def N(self):
        return self.nodes.shape[0] - 1

    @property
    def h(self):
        return 1.0 / self.N


@dataclass(frozen=True, init=False)
class NetworkState:
    """All curves of the network at one instant.

    curves is the stacked (q, N+1, n) node array, or a sequence of
    CurveSamples or of (N+1, n) node arrays; it is copied once into
    .nodes, a read-only (q, N+1, n) array.
    """

    nodes: np.ndarray
    time: float

    def __init__(self, curves, time=0.0):
        try:
            nodes = np.array([getattr(c, "nodes", c) for c in curves], dtype=float)
        except ValueError as err:  # ragged, or entries that are not numbers
            raise ConfigurationError(
                "all curves must share the node count and ambient dimension, "
                "and hold only numbers") from err
        if nodes.shape[0] == 0:
            raise ConfigurationError("a network needs at least one curve")
        if nodes.ndim != 3:
            raise ConfigurationError("network nodes must be a (q, N+1, n) array")
        _check_grid(nodes)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "time", time)

    @property
    def curves(self):
        """The curves as CurveSamples over read-only views of .nodes."""
        return [CurveSamples(x) for x in self.nodes]

    @property
    def q(self):
        return self.nodes.shape[0]

    @property
    def n(self):
        return self.nodes.shape[2]

    @property
    def N(self):
        return self.nodes.shape[1] - 1


@dataclass(frozen=True)
class DerivativeBundle:
    """First four parameter derivatives and the speed |f'|.

    Fields are (N+1, n) and (N+1,) for one curve, or (q, N+1, n) and
    (q, N+1) for a network, curve-major like NetworkState.nodes; from
    finite_differences, d1..d4 are slices of one contiguous array.
    """

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    d4: np.ndarray
    speed: np.ndarray

    def __getitem__(self, key):
        """Index the leading (curve, node) axes of every field alike."""
        return DerivativeBundle(self.d1[key], self.d2[key], self.d3[key],
                                self.d4[key], self.speed[key])


def finite_differences(curves):
    """Compute d1..d4 and the speed of one curve or of a whole network.

    curves is anything with a .nodes array: a CurveSamples, (N+1, n), or
    a NetworkState, (q, N+1, n).  One cached block-diagonal operator
    differentiates the contiguous node array of all curves at once into
    one contiguous (..., 4, N+1, n) array, and the bundle's fields are
    slices of it that keep the leading shape.  Per-curve and stacked
    results agree bit for bit.
    """
    nodes = curves.nodes
    *lead, num, n = nodes.shape
    count = math.prod(lead)
    raw = _block_operator(count, num) @ nodes.reshape(count * num, n)
    d = raw.reshape(*lead, 4, num, n) / _scales(num)
    d1, d2, d3, d4 = (d[..., k, :, :] for k in range(4))
    # |d1| with the squares summed in component order, as np.linalg.norm
    # sums fewer than eight components, so the speeds match it bit for bit
    squares = d1 * d1
    speed = squares[..., 0] + squares[..., 1]
    for j in range(2, n):
        speed += squares[..., j]
    speed = np.sqrt(speed, out=speed)
    _require_regular(speed)
    return DerivativeBundle(d1=d1, d2=d2, d3=d3, d4=d4, speed=speed)


def _require_regular(speed):
    if speed.min() >= SPEED_FLOOR:
        return
    bad = np.flatnonzero(speed < SPEED_FLOOR)
    if bad.size:
        curve, node = divmod(int(bad[0]), speed.shape[-1])
        raise RegularityError(
            f"degenerate speed {speed.flat[bad[0]]:.3e} at node {node}",
            curve=curve if speed.ndim > 1 else None,
            node=node,
        )


def _dots(a, b):
    return np.einsum("...j,...j->...", a, b)


def curvature(bundle):
    """Curvature vector: second arclength derivative of the parametrization."""
    _require_regular(bundle.speed)
    s = bundle.speed
    proj = _dots(bundle.d2, bundle.d1)
    return bundle.d2 / s[..., None]**2 - (proj / s**4)[..., None] * bundle.d1


def _ds3(bundle):
    # third arclength derivative, with its tangential part included
    d1, d2, d3 = bundle.d1, bundle.d2, bundle.d3
    s = bundle.speed
    p21 = _dots(d2, d1)
    return (
        d3 / s[..., None]**3
        - (_dots(d3, d1) / s**5)[..., None] * d1
        - 3.0 * (p21 / s**5)[..., None] * d2
        + 4.0 * (p21**2 / s**7)[..., None] * d1
        - (_dots(d2, d2) / s**5)[..., None] * d1
    )


def _ds4(bundle):
    # fourth arclength derivative, with its tangential part included
    d1, d2, d3, d4 = bundle.d1, bundle.d2, bundle.d3, bundle.d4
    s = bundle.speed
    p21 = _dots(d2, d1)
    p31 = _dots(d3, d1)
    p32 = _dots(d3, d2)
    n2 = _dots(d2, d2)
    tang = (
        -_dots(d4, d1) / s**5
        - 3.0 * p32 / s**5
        + 13.0 * p31 * p21 / s**7
        + 13.0 * p21 * n2 / s**7
        - 28.0 * p21**3 / s**9
    )
    return (
        d4 / s[..., None]**4
        - 6.0 * (p21 / s**6)[..., None] * d3
        - 4.0 * (n2 / s**6)[..., None] * d2
        - 4.0 * (p31 / s**6)[..., None] * d2
        + 19.0 * (p21**2 / s**8)[..., None] * d2
        + (tang / s)[..., None] * d1
    )


def nabla_s_kappa(bundle):
    """Normal projection of the third arclength derivative."""
    _require_regular(bundle.speed)
    t = bundle.d1 / bundle.speed[..., None]
    ds3 = _ds3(bundle)
    return ds3 - _dots(ds3, t)[..., None] * t


def nabla_s2_kappa(bundle):
    """Second covariant arclength derivative of the curvature vector."""
    _require_regular(bundle.speed)
    t = bundle.d1 / bundle.speed[..., None]
    ds3 = _ds3(bundle)
    ds4 = _ds4(bundle)
    kap = curvature(bundle)
    return ds4 - _dots(ds4, t)[..., None] * t - _dots(ds3, t)[..., None] * kap


def phi_star(bundle, lam):
    """Tangential speed that turns the flow into a non-degenerate system."""
    _require_regular(bundle.speed)
    d1, d2, d3, d4 = bundle.d1, bundle.d2, bundle.d3, bundle.d4
    s = bundle.speed
    p21 = _dots(d2, d1)
    return (
        -_dots(d4, d1) / s**5
        + 10.0 * p21 * _dots(d3, d1) / s**7
        + 2.5 * p21 * _dots(d2, d2) / s**7
        - 17.5 * p21**3 / s**9
        + lam * p21 / s**3
    )


def h_lower(bundle, lam):
    """Lower-order terms of the parabolic form of the flow."""
    _require_regular(bundle.speed)
    d1, d2, d3 = bundle.d1, bundle.d2, bundle.d3
    s = bundle.speed
    s4, s6 = s**4, s**6
    p21 = _dots(d2, d1)
    coeff = (
        2.5 * _dots(d2, d2) / s4
        + 4.0 * _dots(d3, d1) / s4
        - 17.5 * p21**2 / s6
        + lam
    )
    return 6.0 * (p21 / s6)[..., None] * d3 + (coeff / s**2)[..., None] * d2


def flow_velocity(bundle, lam):
    """Node-wise velocity in parabolic form: -f''''/|f'|^4 + h(f)."""
    _require_regular(bundle.speed)
    return -bundle.d4 / bundle.speed[..., None]**4 + h_lower(bundle, lam)


def geometric_velocity(bundle, lam):
    """The same velocity assembled from the geometric quantities."""
    t = bundle.d1 / bundle.speed[..., None]
    kap = curvature(bundle)
    k2 = _dots(kap, kap)
    return (
        -nabla_s2_kappa(bundle)
        - 0.5 * k2[..., None] * kap
        + lam * kap
        + phi_star(bundle, lam)[..., None] * t
    )
