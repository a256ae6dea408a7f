"""Discrete curves and the coordinate formulas driving the flow.

A curve is a set of N+1 points sampled at the uniform parameters x_k = k/N
on [0, 1].  All geometric quantities (curvature chain, tangential speed,
lower-order terms, full velocity) are evaluated node-wise from the first
four parameter derivatives, which are computed by second-order finite
differences: centered stencils in the interior, shifted stencils of the
same formal order near the two ends.  A network stores its q curves as
one read-only (q, N+1, n) array (NetworkState.nodes); its bundle comes
from one block-diagonal operator, and every formula takes a curve's or
a network's bundle.  finite_differences is the one regularity check, so
the formulas trust the speeds of the bundles it makes; it keeps the
bundle of the network state it differentiated last.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .errors import ConfigurationError, RegularityError

SPEED_FLOOR = 1e-14

# half-width of the centered interior stencil per derivative order
_CENTERED_HALF_WIDTH = {1: 1, 2: 1, 3: 2, 4: 2}
# point count of the shifted stencils used near the boundary (second order)
_SHIFTED_POINTS = {1: 3, 2: 4, 3: 5, 4: 6}

MIN_INTERVALS = 8


def stencil_weights(offsets, order):
    """Finite-difference weights on unit-spaced nodes at the given offsets."""
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


def stencil(order, node, num):
    """(offsets, weights) of the order-th derivative at node of num
    unit-spaced nodes: the centered band where it fits (hw <= node <
    num - hw), elsewhere the shifted stencil of the same formal order."""
    hw = _CENTERED_HALF_WIDTH[order]
    if hw <= node < num - hw:
        offsets = np.arange(-hw, hw + 1)
    else:
        pts = _SHIFTED_POINTS[order]
        start = min(max(node - pts // 2, 0), num - pts)
        offsets = np.arange(start, start + pts) - node
    return offsets, stencil_weights(offsets, order)


def _derivative_matrix(num, order):
    """Entries (rows, cols, vals) of the differentiation matrix on num nodes."""
    hw = _CENTERED_HALF_WIDTH[order]
    band, weights = stencil(order, hw, num)
    interior = np.arange(hw, num - hw)
    # the centered band of every interior row at once, then the shifted
    # stencils of the hw rows at each end
    ends = [*range(hw), *range(num - hw, num)]
    offsets, end_weights = zip(*(stencil(order, k, num) for k in ends))
    rows = [np.repeat(interior, band.size)]
    rows += [np.full(o.size, k) for k, o in zip(ends, offsets)]
    cols = [(interior[:, None] + band).ravel()]
    cols += [k + o for k, o in zip(ends, offsets)]
    vals = [np.tile(weights, interior.size), *end_weights]
    return tuple(np.concatenate(part) for part in (rows, cols, vals))


def compressed(major, minor, shape):
    """Compressed storage of the entries at (major, minor) of a matrix of
    shape (major count, minor count): CSR with the rows as major indices,
    CSC with the columns.  Returns (order, indptr, indices): order sorts
    the entries by major, then minor index (stably), as SciPy's canonical
    format does; indptr (int32) holds the offsets of the major indices'
    runs, and indices (int32) the minor indices."""
    order = np.argsort(major * shape[1] + minor, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=shape[0]))])
    return order, indptr.astype(np.int32), minor[order].astype(np.int32)


# The arrays of a CSR matrix without the scipy.sparse object around them,
# which costs more to construct than the step that reads it once.
CSRArrays = namedtuple("CSRArrays", "data indices indptr shape")


@lru_cache(maxsize=None)
def _block_operator(count, num):
    """count copies, down the diagonal, of the order 1..4 matrices on num
    nodes stacked vertically: CSRArrays of shape (count 4 num, count num)."""
    entries = [_derivative_matrix(num, k) for k in range(1, 5)]
    # order k's rows sit below those of the orders before it, and each
    # curve's block 4 num rows and num columns below the one before
    rows = np.concatenate([r + k * num for k, (r, _, _) in enumerate(entries)])
    cols, vals = (np.concatenate([e[m] for e in entries]) for m in (1, 2))
    curve = np.arange(count)[:, None]
    shape = (4 * num * count, num * count)
    order, indptr, indices = compressed((rows + 4 * num * curve).ravel(),
                                        (cols + num * curve).ravel(), shape)
    return CSRArrays(np.tile(vals, count)[order], indices, indptr, shape)


def csr_product(matrix, x):
    """matrix @ x for CSRArrays and a float vector or (rows, k) array, bit
    for bit: the compiled kernel @ calls on a scipy.sparse matrix of those
    arrays, on a zeroed buffer as @ does, without @'s checks and dispatch."""
    rows, cols = matrix.shape
    out = np.zeros((rows, *x.shape[1:]))
    if x.ndim == 1:
        csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, x, out)
    else:
        csr_matvecs(rows, cols, x.shape[1], matrix.indptr, matrix.indices,
                    matrix.data, x.ravel(), out.ravel())
    return out


@lru_cache(maxsize=None)
def _scales(num):
    # h^order for the orders 1..4, shaped to divide a (..., 4, num, n) array
    scales = np.array([(1.0 / (num - 1))**order for order in range(1, 5)])
    scales.flags.writeable = False
    return scales[:, None, None]


def _is_finite(value):
    """math.isfinite(value), and False on an int past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
    def h(self):
        return 1.0 / (self.nodes.shape[0] - 1)


@dataclass(frozen=True, init=False)
class NetworkState:
    """All curves of the network at one instant.

    curves is the stacked (q, N+1, n) node array, or a sequence of
    CurveSamples or of (N+1, n) node arrays; it is copied once into
    .nodes, a read-only (q, N+1, n) array.  The nodes must be finite and
    time a finite real number.
    """

    nodes: np.ndarray
    time: float

    def __init__(self, curves, time=0.0):
        try:
            # a stacked array is copied whole; a sequence curve by curve
            nodes = np.array(curves if getattr(curves, "ndim", 0) == 3
                             else [getattr(c, "nodes", c) for c in curves], dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigurationError(
                "curves must be a sequence of curves that share the node count and "
                "ambient dimension, and hold only numbers in the float range") from err
        if nodes.shape[0] == 0:
            raise ConfigurationError("a network needs at least one curve")
        if nodes.ndim != 3:
            raise ConfigurationError("network nodes must be a (q, N+1, n) array")
        _check_grid(nodes)
        if isinstance(time, bool) or not isinstance(time, numbers.Real):
            raise ConfigurationError(f"time must be a real number, got {time!r}")
        if not (_is_finite(time) and np.isfinite(nodes).all()):
            raise ConfigurationError("node coordinates and time must be finite")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "time", float(time))

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


# First four parameter derivatives and the speed |f'|.  Fields are
# (N+1, n) and (N+1,) for one curve, or (q, N+1, n) and (q, N+1) for a
# network, curve-major like NetworkState.nodes; from finite_differences,
# d1..d4 are slices of one contiguous array.
DerivativeBundle = namedtuple("DerivativeBundle", "d1 d2 d3 d4 speed")

# (nodes, bundle) of the NetworkState finite_differences differentiated
# last.  A state's node array is owned and read-only, so its bundle stays
# valid; a curve's or a Picard iterate's nodes may change in place, so
# theirs is never kept.
_last = None


def finite_differences(curves):
    """Compute d1..d4 and the speed of one curve or of a whole network.

    curves is anything with a float .nodes array: a CurveSamples,
    (N+1, n), or a NetworkState, (q, N+1, n).  One cached block-diagonal
    operator differentiates the contiguous node array of all curves at
    once into one contiguous (..., 4, N+1, n) array, and the bundle's
    fields are slices of it that keep the leading shape.  Per-curve and
    stacked results agree bit for bit.  A NetworkState's bundle is kept,
    its fields read-only, and returned again for the same node array
    until another state is differentiated.
    """
    global _last
    nodes = curves.nodes
    last = _last  # one read: another thread may replace it
    if last is not None and nodes is last[0]:
        return last[1]
    *lead, num, n = nodes.shape
    count = math.prod(lead)
    raw = csr_product(_block_operator(count, num), nodes.reshape(count * num, n))
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
    bundle = DerivativeBundle(d1=d1, d2=d2, d3=d3, d4=d4, speed=speed)
    if isinstance(curves, NetworkState):
        for field in bundle:
            field.flags.writeable = False
        _last = (nodes, bundle)
    return bundle


def _require_regular(speed):
    # a NaN speed fails both comparisons and is reported like a vanishing one
    if speed.min() >= SPEED_FLOOR:
        return
    bad = int(np.flatnonzero(~(speed >= SPEED_FLOOR))[0])
    curve, node = divmod(bad, speed.shape[-1]) if speed.ndim > 1 else (None, bad)
    where = f"node {node}" if curve is None else f"node {node} of curve {curve}"
    raise RegularityError(f"degenerate speed {speed.flat[bad]:.3e} at {where}",
                          curve=curve, node=node)


def _dots(a, b):
    return np.einsum("...j,...j->...", a, b)


def unit_tangents(bundle):
    """Unit tangent T = f'/|f'| at every node of the bundle."""
    return bundle.d1 / bundle.speed[..., None]


def _normal_part(v, t):
    # v - <v, T> T for unit tangents t
    return v - _dots(v, t)[..., None] * t


def curvature(bundle):
    """Curvature vector: second arclength derivative of the parametrization."""
    s = bundle.speed
    proj = _dots(bundle.d2, bundle.d1)
    return bundle.d2 / s[..., None]**2 - (proj / s**4)[..., None] * bundle.d1


def _ds3(bundle):
    # third arclength derivative, with its tangential part included
    d1, d2, d3 = bundle.d1, bundle.d2, bundle.d3
    s = bundle.speed
    s5 = s**5
    p21 = _dots(d2, d1)
    return (
        d3 / s[..., None]**3
        - (_dots(d3, d1) / s5)[..., None] * d1
        - 3.0 * (p21 / s5)[..., None] * d2
        + 4.0 * (p21**2 / s**7)[..., None] * d1
        - (_dots(d2, d2) / s5)[..., None] * d1
    )


def _ds4(bundle):
    # fourth arclength derivative up to a multiple of f', which its one
    # caller projects away
    d1, d2, d3, d4 = bundle.d1, bundle.d2, bundle.d3, bundle.d4
    s = bundle.speed
    p21 = _dots(d2, d1)
    return (
        d4 / s[..., None]**4
        - 6.0 * (p21 / s**6)[..., None] * d3
        - 4.0 * (_dots(d2, d2) / s**6)[..., None] * d2
        - 4.0 * (_dots(d3, d1) / s**6)[..., None] * d2
        + 19.0 * (p21**2 / s**8)[..., None] * d2
    )


def nabla_s_kappa(bundle):
    """Normal projection of the third arclength derivative."""
    return _normal_part(_ds3(bundle), unit_tangents(bundle))


def nabla_s2_kappa(bundle):
    """Second covariant arclength derivative of the curvature vector:
    (d_s^4 f)^perp + |kappa|^2 kappa, since <d_s^3 f, T> = -|kappa|^2."""
    kap = curvature(bundle)
    return (_normal_part(_ds4(bundle), unit_tangents(bundle))
            + _dots(kap, kap)[..., None] * kap)


def phi_star(bundle, lam):
    """Tangential speed that turns the flow into a non-degenerate system."""
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


def h_lower(d1, d2, d3, s, s4, lam):
    """Lower-order terms of the parabolic form of the flow, from a bundle's
    first three derivatives, its speed s and the caller's s**4."""
    s6 = s**6
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
    s = bundle.speed
    return (-bundle.d4 / s[..., None]**4
            + h_lower(bundle.d1, bundle.d2, bundle.d3, s, s**4, lam))


def energy_gradient(bundle):
    """L^2 gradient of the bending energy: nabla_s^2 kappa + |kappa|^2 kappa / 2."""
    kap = curvature(bundle)
    return nabla_s2_kappa(bundle) + 0.5 * _dots(kap, kap)[..., None] * kap


def geometric_velocity(bundle, lam):
    """The same velocity in geometric form: -energy_gradient + lam kappa + phi* T.

    lam is taken as by flow_velocity: a number, or (q, 1) for a network.
    """
    return (-energy_gradient(bundle) + np.asarray(lam)[..., None] * curvature(bundle)
            + phi_star(bundle, lam)[..., None] * unit_tangents(bundle))
