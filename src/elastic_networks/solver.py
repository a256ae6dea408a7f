"""Implicit time stepping for the penalized elastic flow of networks.

Each step freezes the coefficients at its own start state, solves that
linearization of the parabolic form of the flow with an implicit Euler
discretization in time, and iterates the linear solve (Picard) until
the step is self-consistent; picard_step is the one place that builds
and solves a step.
The junction conditions enter as boundary rows of the same sparse
system: concurrency, vanishing second derivatives, fixed outer ends and
the linearized third-order balance.  The frozen coefficients (1/|f'|^4
and the junction projectors E_i) are taken once per step.  All
node-wise work runs on the stacked (q, N+1, n) layout of
NetworkState.nodes, with one stacked derivative bundle per distinct
network state: the initial and each accepted state are differentiated
once, for the preflight or the guard, the observers and the next step.
"""

import math
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import geometry, junction, wellposed
from .errors import (
    BreakdownError,
    ConfigurationError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from .geometry import (
    CSRArrays,
    NetworkState,
    compressed,
    csr_product,
    stencil,
)

LINEAR_RESIDUAL_TOL = 1e-8
PICARD_TOL = 1e-12
PICARD_MAX = 60
# accept a stalled iteration once the update is this small; on fine
# grids the linear solves carry rounding noise that puts a floor on
# the reachable fixed-point accuracy
PICARD_FLOOR = 1e-7
# the delta of uniform parabolicity: the least share of the initial margin
GUARD_FACTOR = 0.5
# t_end must be a whole number of steps to this relative precision
END_TIME_TOL = 1e-9


@dataclass(frozen=True)
class FlowParams:
    """Fixed outer endpoints and per-curve length penalties."""

    endpoints: np.ndarray  # (q, n), the values f_i(1)
    lam: np.ndarray  # (q,), nonnegative

    def __post_init__(self):
        try:
            ends = np.asarray(self.endpoints, dtype=float)
            lam = np.asarray(self.lam, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigurationError(
                f"endpoints and lam must be numeric arrays: {err}") from err
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "lam", lam)
        if ends.ndim != 2 or lam.ndim != 1 or ends.shape[0] != lam.shape[0]:
            raise ConfigurationError(
                f"endpoints must be a (q, n) array and lam a (q,) array, got "
                f"shapes {ends.shape} and {lam.shape}")
        if not (np.all(np.isfinite(ends)) and np.all(np.isfinite(lam))):
            raise ConfigurationError("endpoints and length penalties must be finite")
        if np.any(lam < 0):
            raise ConfigurationError("length penalties must be nonnegative")

    def require_fit(self, state):
        """Raise unless there is one endpoint in R^n and one penalty per curve of state."""
        if self.endpoints.shape != (state.q, state.n):
            raise ConfigurationError(
                f"endpoints must have the shape (q, n) = {(state.q, state.n)} "
                f"of the network, got {self.endpoints.shape}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-6
    t_end: float = 1e-4
    store_every: int = 1

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_end", self.t_end)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (value > 0 and geometry._is_finite(value))):
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        if (not isinstance(self.store_every, numbers.Integral)
                or isinstance(self.store_every, bool) or self.store_every < 1):
            raise ConfigurationError("store_every must be an integer >= 1")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigurationError("the step count t_end / dt overflows")
        if abs(self.num_steps * self.dt - self.t_end) > END_TIME_TOL * self.t_end:
            raise ConfigurationError(
                f"t_end = {self.t_end!r} is not a whole number of steps "
                f"of dt = {self.dt!r}"
            )

    @property
    def num_steps(self):
        return int(round(self.t_end / self.dt))


def _solve(matrix, lu, perm_c, rhs):
    """Nodes (q, N+1, n) solving the factored step for a (q, N+1, n) rhs.

    matrix is the step's CSRArrays; lu factors it with its columns in the
    order perm_c (SuperLU's convention: column i of matrix is column
    perm_c[i] of the factored one); each solve is mapped back with
    x[perm_c].
    """
    b = rhs.ravel()
    x = lu.solve(b)[perm_c]
    # two rounds of iterative refinement keep the boundary rows exact
    # to rounding even when the step matrix is badly conditioned
    for _refine in range(2):
        x += lu.solve(b - csr_product(matrix, x))[perm_c]
    residual = np.abs(csr_product(matrix, x) - b).max()
    # written so that a NaN residual fails too
    if not residual <= LINEAR_RESIDUAL_TOL * (1.0 + np.abs(b).max()):
        raise StepError(f"linear step residual {residual:.3e} too large")
    return x.reshape(rhs.shape)


# Structure of the step matrix for one (q, N, n).  The entries are
# listed in a fixed order: interior rows (q, n, N-3, 5), junction rows
# (n, q, n, 5) when q >= 2, then the constant boundary entries, whose
# values are kept.  csr and csc compress that list (geometry.compressed);
# csc with the columns in the order perm_c that SuperLU picks for this
# pattern (COLAMD and its elimination-tree postorder see only structure).
_StepPattern = namedtuple("_StepPattern", "csr csc constants w4 w3 perm_c")


@lru_cache(maxsize=None)
def _step_pattern(q, N, n):
    h = 1.0 / N

    def idx(i, k, j):
        return (i * (N + 1) + k) * n + j

    band4, w4 = stencil(4, 2, N + 1)
    offs3, w3 = stencil(3, 0, N + 1)
    offs2_lo, w2_lo = stencil(2, 0, N + 1)
    offs2_hi, w2_hi = stencil(2, N, N + 1)
    i = np.arange(q)[:, None, None]
    j = np.arange(n)[None, :, None]
    # interior rows: f/dt + D^4 f'''' = forcing
    inner = np.arange(2, N - 1)[:, None]
    variable = [(idx(i[..., None], inner, j[..., None]),
                 idx(i[..., None], inner + band4, j[..., None]))]
    if q >= 2:
        # third-order junction balance in curve 0's node-0 slot: row j
        # couples component l of every curve i
        variable.append((np.arange(n)[:, None, None, None],
                         idx(i[None], offs3, j.reshape(1, 1, n, 1))))

    fixed = [
        (idx(i, N, j), idx(i, N, j), 1.0),  # node N: pinned outer endpoint
        # node N-1 slot: f''(1) = 0; node 1 slot: f''(0) = 0
        (idx(i, N - 1, j), idx(i, N + offs2_hi, j), w2_hi / h**2),
        (idx(i, 1, j), idx(i, offs2_lo, j), w2_lo / h**2),
    ]
    if q == 1:
        fixed.append((idx(0, 0, j), idx(0, 0, j), 1.0))
    else:
        # node-0 slots of curves 1..q-1: concurrency with curve 0
        fixed += [(idx(i[1:], 0, j), idx(i[1:], 0, j), 1.0),
                  (idx(i[1:], 0, j), idx(0, 0, j), -1.0)]
    entries = [np.broadcast_arrays(*e) for e in variable + fixed]

    rows, cols = (np.concatenate([e[k].ravel() for e in entries]) for k in (0, 1))
    shape = (q * (N + 1) * n,) * 2
    # one factorization with seeded stand-in values gives SuperLU's column
    # order for every matrix of this pattern
    standin = np.random.default_rng(0).standard_normal(rows.size)
    order, indptr, indices = compressed(cols, rows, shape)
    # intp: perm_c indexes every solve, and an int32 index is cast on each use
    perm_c = sp.linalg.splu(sp.csc_matrix((standin[order], indices, indptr),
                                          shape=shape)).perm_c.astype(np.intp)
    return _StepPattern(
        csr=compressed(rows, cols, shape),
        csc=compressed(perm_c[cols], rows, shape),
        constants=np.concatenate([e[2].ravel() for e in entries[len(variable):]]),
        w4=w4 / h**4,
        w3=w3 / h**3,
        perm_c=perm_c,
    )


def _step_matrix(shape, d_pow4, e_matrices, dt):
    """Sparse matrix of one implicit step of a (q, N+1, n) network.

    d_pow4 and e_matrices are the step's frozen coefficients, taken in
    picard_step.  Returns the matrix twice, as CSRArrays and as a CSC
    matrix with its columns in the pattern's order perm_c (ready for
    SuperLU to factor without ordering), and perm_c.
    """
    q, num, n = shape
    pattern = _step_pattern(q, num - 1, n)
    interior = np.repeat(d_pow4[:, None, :, None] * pattern.w4, n, axis=1)
    interior[..., 2] += 1.0 / dt
    values = [interior.ravel()]
    if q >= 2:
        values.append((e_matrices.transpose(1, 0, 2)[..., None]
                       * pattern.w3).ravel())
    values.append(pattern.constants)
    values = np.concatenate(values)
    size = q * num * n
    order, indptr, indices = pattern.csr
    csc_order, csc_indptr, csc_indices = pattern.csc
    return (CSRArrays(values[order], indices, indptr, (size, size)),
            sp.csc_matrix((values[csc_order], csc_indices, csc_indptr),
                          shape=(size, size)),
            pattern.perm_c)


def _step_rhs(rhs, current, base_dt, d_pow4, e_matrices, params):
    """Fill the rows of the step's rhs that change with the Picard iterate.

    rhs is the (q, N+1, n) buffer of the step, which already holds its
    constant rows; the interior rows and, for a network, the junction
    row are rewritten.  current is the stacked bundle of the iterate;
    base_dt (start nodes over dt), d_pow4 and e_matrices (the frozen
    coefficients) are taken once per step, on the interior nodes 2..N-2.
    """
    inner = slice(2, rhs.shape[1] - 2)
    s = current.speed[:, inner]
    s4 = s**4  # shared by the remainder and the lower-order terms
    remainder = (d_pow4 - 1.0 / s4)[..., None] * current.d4[:, inner]
    rhs[:, inner] = base_dt + remainder + geometry.h_lower(
        current.d1[:, inner], current.d2[:, inner], current.d3[:, inner], s, s4,
        params.lam[:, None])
    if e_matrices is not None:
        rhs[0, 0] = junction.linearize_boundary(e_matrices, current, params.lam)
    return rhs


# a Picard iterate as geometry.finite_differences receives it: the plain
# node array and, as on a NetworkState, the time the step ends at
_Iterate = namedtuple("_Iterate", "nodes time")


def picard_step(state, params, config, *, time=None):
    """Advance one time step, iterating the linearization to a fixed point.

    The coefficients are frozen at state, the start of the step; state's
    bundle (the kept one, if state was differentiated last) gives them
    and the first iterate.  time is the time of the new state,
    state.time + dt by default.  The Picard iterates are plain
    (q, N+1, n) arrays; the converged one is returned as a NetworkState
    at that time.
    """
    bundle = geometry.finite_differences(state)
    if time is None:
        time = state.time + config.dt
    base = state.nodes
    q, num, _ = base.shape
    # the frozen coefficients: 1/|f'|^4 on the interior nodes 2..N-2 and,
    # for a network, the junction projectors E_i with c_i = 1/|f_i'(0)|
    inner = slice(2, num - 2)
    d_pow4 = 1.0 / bundle.speed[:, inner]**4
    e_matrices = None if q == 1 else junction.projectors(
        junction.tangents(bundle), 1.0 / bundle.speed[:, 0])
    matrix, permuted, perm_c = _step_matrix(base.shape, d_pow4, e_matrices,
                                            config.dt)
    try:
        # the columns already stand in SuperLU's order, so it only factors.
        # SuperLU takes the diagonal entry as pivot when it ties the largest
        # magnitude in its column; here that is the permuted matrix's
        # diagonal, so the pivots could differ only on an exact tie
        lu = sp.linalg.splu(permuted, permc_spec="NATURAL")
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise StepError(f"step matrix cannot be factored: {err}") from err
    del permuted  # no step array outlives the factorization
    # set once per step: the start nodes on the interior rows and the
    # constant rows of the rhs (outer endpoints; for q = 1 the pinned
    # node 0)
    base_dt = base[:, inner] / config.dt
    rhs = np.zeros_like(base)
    rhs[:, num - 1] = params.endpoints
    if q == 1:
        rhs[0, 0] = base[0, 0]
    current, current_bundle = base, bundle
    previous_change = np.inf
    for _ in range(PICARD_MAX):
        _step_rhs(rhs, current_bundle, base_dt, d_pow4, e_matrices, params)
        new = _solve(matrix, lu, perm_c, rhs)
        change = float(np.abs(new - current).max())
        current = new
        # stop at the tolerance, or once contraction has hit the rounding
        # floor of the linear solver
        if change <= PICARD_TOL or (change <= PICARD_FLOOR
                                    and change > 0.5 * previous_change):
            return NetworkState(current, time=time)
        previous_change = change
        current_bundle = geometry.finite_differences(_Iterate(current, time))
    raise StepError(f"Picard iteration stalled (last change {change:.3e})")


def _require_nc(bundle, error):
    # raise error unless a stacked bundle's junction tangents meet NC (one curve has none)
    if len(bundle.speed) >= 2 and junction.span_dimension(junction.tangents(bundle)) < 2:
        raise error("non-collinearity condition (NC) violated: "
                    "the junction tangents are collinear")


def regularity_guard(bundle, initial_margin):
    """Raise once uniform parabolicity degrades past GUARD_FACTOR, or the
    junction tangents turn collinear (NonCollinearError).

    bundle is the stacked bundle of a network; its speeds and junction
    tangents are read.  The RegularityError names the node of the largest
    speed, where 1/|f'| sets the margin.
    """
    margin = wellposed.parabolicity_margin(bundle.speed)
    if margin < GUARD_FACTOR * initial_margin:
        curve, node = divmod(int(np.argmax(bundle.speed)), bundle.speed.shape[-1])
        raise RegularityError(
            f"parabolicity margin {margin:.6e} fell to "
            f"{margin / initial_margin:.6f} of its initial value "
            f"{initial_margin:.6e}, below the factor {GUARD_FACTOR}, "
            f"at node {node} of curve {curve}",
            curve=curve, node=node,
        )
    _require_nc(bundle, NonCollinearError)


def evolve(state, params, config, observers=(), preflight="strict"):
    """Run the flow from state for a time t_end; returns the stored trajectory.

    preflight is "strict" (reject incompatible data) or "warn" (only warn
    about it).  Either way a ConfigurationError rejects an initial network
    with a vanishing speed or collinear junction tangents, or params that
    do not fit it.  A mid-run failure is a BreakdownError (StepError,
    RegularityError, or NonCollinearError once a state loses NC) carrying
    the frames so far in .trajectory and the failing step's time in .time.
    Each observer is called with every accepted state.  The initial
    state and each accepted one are differentiated once: geometry keeps
    the bundle of the state differentiated last, so the preflight, the
    step and the observers share it.
    """
    if preflight not in ("strict", "warn"):
        raise ConfigurationError("preflight must be strict or warn")
    params.require_fit(state)
    try:
        bundle = geometry.finite_differences(state)
    except RegularityError as err:  # invalid input, not a breakdown
        raise ConfigurationError(f"initial network is not regular: {err}") from err
    _require_nc(bundle, ConfigurationError)
    failing = [r for r in wellposed.check_compat_order0(state, params)
               if not r.passed]
    if failing:
        lines = ", ".join(str(r) for r in failing)
        if preflight == "strict":
            raise ConfigurationError(
                f"initial network violates the boundary conditions: {lines}"
            )
        warnings.warn(f"incompatible initial network: {lines}")
    initial_margin = wellposed.parabolicity_margin(bundle.speed)
    num_steps = config.num_steps
    # the frame times of np.linspace(start, stop, num_steps + 1), taken
    # one at a time with its arithmetic; the last lands on stop exactly
    start, stop = state.time, state.time + config.t_end
    increment = (stop - start) / num_steps
    trajectory = [state]
    try:
        for step in range(num_steps):
            time = float(stop if step == num_steps - 1
                         else (step + 1) * increment + start)
            state = picard_step(state, params, config, time=time)
            # the accepted state's one bundle, for the guard and, kept by
            # finite_differences, the observers and the next step; it
            # replaces the previous one there and here, which frees that
            bundle = geometry.finite_differences(state)
            regularity_guard(bundle, initial_margin)
            if (step + 1) % config.store_every == 0 or step == num_steps - 1:
                trajectory.append(state)
            for obs in observers:
                obs(state)
    except BreakdownError as err:
        err.time = time  # the step code raises without a time
        err.trajectory = trajectory
        raise
    return trajectory
