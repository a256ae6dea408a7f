"""Implicit time stepping for the penalized elastic flow of networks.

Each step freezes the coefficients at its own start state, solves that
linearization of the parabolic form of the flow with an implicit Euler
discretization in time, and iterates the linear solve (Picard) until
the step is self-consistent; picard_step is the one place that builds
and solves a step.
The junction conditions enter as boundary rows of the same sparse
system: concurrency, vanishing second derivatives, fixed outer ends and
the linearized third-order balance.  All node-wise work runs on the
stacked (q, N+1, n) layout of NetworkState.nodes, with one stacked
derivative bundle per distinct network state.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import geometry, junction, wellposed
from .errors import (
    ConfigurationError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from .geometry import CurveSamples, NetworkState, boundary_offsets, stencil_weights

LINEAR_RESIDUAL_TOL = 1e-8
# t_end must be a whole number of steps to this relative precision
END_TIME_TOL = 1e-9


@dataclass(frozen=True)
class FlowParams:
    """Fixed outer endpoints and per-curve length penalties."""

    endpoints: np.ndarray  # (q, n), the values f_i(1)
    lam: np.ndarray  # (q,), nonnegative

    def __post_init__(self):
        ends = np.atleast_2d(np.asarray(self.endpoints, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "lam", lam)
        if ends.shape[0] != lam.shape[0]:
            raise ConfigurationError("endpoints and lam must list the same curves")
        if np.any(lam < 0):
            raise ConfigurationError("length penalties must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-6
    t_end: float = 1e-4
    picard_tol: float = 1e-12
    picard_max: int = 60
    # accept a stalled iteration once the update is this small; on fine
    # grids the linear solves carry rounding noise that puts a floor on
    # the reachable fixed-point accuracy
    picard_floor: float = 1e-7
    delta_guard_factor: float = 0.5
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")
        if self.picard_max < 1 or self.store_every < 1:
            raise ConfigurationError("picard_max and store_every must be >= 1")
        if abs(self.num_steps * self.dt - self.t_end) > END_TIME_TOL * self.t_end:
            raise ConfigurationError(
                f"t_end = {self.t_end!r} is not a whole number of steps "
                f"of dt = {self.dt!r}"
            )

    @property
    def num_steps(self):
        return int(round(self.t_end / self.dt))


def _solve(matrix, lu, rhs, time):
    """Nodes (q, N+1, n) solving the factored step for a (q, N+1, n) rhs."""
    b = rhs.ravel()
    x = lu.solve(b)
    # two rounds of iterative refinement keep the boundary rows exact
    # to rounding even when the step matrix is badly conditioned
    for _refine in range(2):
        x += lu.solve(b - matrix @ x)
    residual = np.max(np.abs(matrix @ x - b))
    if residual > LINEAR_RESIDUAL_TOL * (1.0 + np.max(np.abs(b))):
        raise StepError(f"linear step residual {residual:.3e} too large",
                        time=time)
    return x.reshape(rhs.shape)


# CSR structure of the step matrix for one (q, N, n).  The entries are
# listed in a fixed order: interior rows (q, n, N-3, 5), junction rows
# (n, q, n, 5) when q >= 2, then the constant boundary entries, whose
# values are kept; order sorts that list into CSR order.
_StepPattern = namedtuple("_StepPattern", "indptr indices order constants w4 w3")


@lru_cache(maxsize=None)
def _step_pattern(q, N, n):
    h = 1.0 / N

    def idx(i, k, j):
        return (i * (N + 1) + k) * n + j

    i = np.arange(q)[:, None, None]
    j = np.arange(n)[None, :, None]
    # interior rows: f/dt + D^4 f'''' = forcing
    inner = np.arange(2, N - 1)[:, None]
    variable = [(idx(i[..., None], inner, j[..., None]),
                 idx(i[..., None], inner + np.arange(-2, 3), j[..., None]))]
    offs3 = boundary_offsets(0, 3, N + 1)
    if q >= 2:
        # third-order junction balance in curve 0's node-0 slot: row j
        # couples component l of every curve i
        variable.append((np.arange(n)[:, None, None, None],
                         idx(i[None], offs3, j.reshape(1, 1, n, 1))))

    offs2_lo = boundary_offsets(0, 2, N + 1)
    offs2_hi = boundary_offsets(N, 2, N + 1)
    fixed = [
        (idx(i, N, j), idx(i, N, j), 1.0),  # node N: pinned outer endpoint
        # node N-1 slot: f''(1) = 0; node 1 slot: f''(0) = 0
        (idx(i, N - 1, j), idx(i, N + offs2_hi, j),
         stencil_weights(offs2_hi, 2) / h**2),
        (idx(i, 1, j), idx(i, offs2_lo, j), stencil_weights(offs2_lo, 2) / h**2),
    ]
    if q == 1:
        fixed.append((idx(0, 0, j), idx(0, 0, j), 1.0))
    else:
        # node-0 slots of curves 1..q-1: concurrency with curve 0
        fixed += [(idx(i[1:], 0, j), idx(i[1:], 0, j), 1.0),
                  (idx(i[1:], 0, j), idx(0, 0, j), -1.0)]
    entries = [np.broadcast_arrays(*e) for e in variable + fixed]

    rows, cols = (np.concatenate([e[k].ravel() for e in entries]) for k in (0, 1))
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=q * (N + 1) * n)
    return _StepPattern(
        indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
        indices=cols[order].astype(np.int32),
        order=order,
        constants=np.concatenate([e[2].ravel() for e in entries[len(variable):]]),
        w4=stencil_weights(range(-2, 3), 4) / h**4,
        w3=stencil_weights(offs3, 3) / h**3,
    )


def _step_matrix(bundle, params, dt):
    """Sparse matrix of one implicit step, frozen at the bundle's state."""
    q, num, n = bundle.d1.shape
    pattern = _step_pattern(q, num - 1, n)
    d_pow4 = 1.0 / bundle.speed[:, 2:num - 2]**4
    interior = np.repeat(d_pow4[:, None, :, None] * pattern.w4, n, axis=1)
    interior[..., 2] += 1.0 / dt
    values = [interior.ravel()]
    if q >= 2:
        # the projectors E_i come from the frozen state only
        lin = junction.linearize_boundary(bundle, bundle, params.lam)
        values.append((lin.e_matrices.transpose(1, 0, 2)[..., None]
                       * pattern.w3).ravel())
    values.append(pattern.constants)
    data = np.concatenate(values)[pattern.order]
    size = q * num * n
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(size, size))


def _step_rhs(start_bundle, current_bundle, base, params, dt):
    """Right-hand side (q, N+1, n) of one implicit step for a Picard iterate.

    base is the (q, N+1, n) node array at the beginning of the step and
    start_bundle its stacked bundle, which freezes the coefficients.
    """
    q, num, n = base.shape
    d_pow4 = 1.0 / start_bundle.speed**4
    remainder = (d_pow4 - 1.0 / current_bundle.speed**4)[..., None] * current_bundle.d4
    lower = geometry.h_lower(current_bundle, params.lam[:, None])
    rhs = np.zeros((q, num, n))
    rhs[:, 2:num - 2] = (base / dt + remainder + lower)[:, 2:num - 2]
    rhs[:, num - 1] = params.endpoints
    if q == 1:
        rhs[0, 0] = base[0, 0]
    else:
        rhs[0, 0] = junction.linearize_boundary(start_bundle, current_bundle,
                                                params.lam).b
    return rhs


def picard_step(state, params, config, *, bundle=None, time=None):
    """Advance one time step, iterating the linearization to a fixed point.

    The coefficients are frozen at state, the start of the step.  bundle
    is state's stacked bundle when the caller already has it; it feeds
    the step matrix and the first iterate.  time is the time of the new
    state, state.time + dt by default.
    """
    if bundle is None:
        bundle = geometry.finite_differences(state)
    if time is None:
        time = state.time + config.dt
    matrix = _step_matrix(bundle, params, config.dt)
    try:
        lu = sp.linalg.splu(matrix.tocsc())
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise StepError(f"step matrix cannot be factored: {err}",
                        time=time) from err
    base = nodes = state.nodes
    current_bundle = bundle
    previous_change = np.inf
    for _ in range(config.picard_max):
        rhs = _step_rhs(bundle, current_bundle, base, params, config.dt)
        new_nodes = _solve(matrix, lu, rhs, time)
        change = float(np.max(np.abs(new_nodes - nodes)))
        nodes = new_nodes
        current = NetworkState(curves=[CurveSamples(x) for x in nodes], time=time)
        if change <= config.picard_tol:
            return current
        if change <= config.picard_floor and change > 0.5 * previous_change:
            # contraction has hit the rounding floor of the linear solver
            return current
        previous_change = change
        current_bundle = geometry.finite_differences(current)
    raise StepError(
        f"Picard iteration stalled (last change {change:.3e})", time=time
    )


def regularity_guard(state, initial_margin, config):
    """Raise once uniform parabolicity degrades past the configured factor."""
    # the speeds alone: the next step builds its own bundle (see evolve)
    speeds = [np.linalg.norm(geometry.apply_derivative(c.nodes, 1, c.h), axis=1)
              for c in state.curves]
    margin = wellposed.parabolicity_margin(speeds)
    if margin < config.delta_guard_factor * initial_margin:
        raise RegularityError(
            f"parabolicity margin {margin:.3e} fell below "
            f"{config.delta_guard_factor} of its initial value {initial_margin:.3e}"
        )
    return margin


def evolve(state, params, config, observers=(), preflight="strict"):
    """Run the flow from state for a time t_end; returns the stored trajectory.

    preflight is "strict" (reject incompatible data), "warn" (only warn
    about incompatible data; collinear junction tangents stay fatal) or
    "skip".
    On a mid-run failure the raised exception carries the trajectory
    computed so far in its .trajectory attribute.
    """
    if preflight not in ("strict", "warn", "skip"):
        raise ConfigurationError("preflight must be strict, warn or skip")
    bundle = geometry.finite_differences(state)
    if preflight != "skip":
        if state.q >= 2:
            tangents, _ = junction.junction_terms(bundle, params.lam)
            if junction.span_dimension(tangents) < 2:
                raise NonCollinearError("non-collinearity condition (NC) "
                                        "violated: the junction tangents are "
                                        "collinear")
        report = wellposed.check_compat_order0(state, params)
        if not report.passed:
            lines = ", ".join(
                f"{r.condition}[curve {r.curve}, end {r.endpoint}] = {r.residual:.3e}"
                for r in report.failing()
            )
            if preflight == "strict":
                raise ConfigurationError(
                    f"initial network violates the boundary conditions: {lines}"
                )
            warnings.warn(f"incompatible initial network: {lines}")
    initial_margin = wellposed.parabolicity_margin(bundle.speed)
    num_steps = config.num_steps
    # the last frame lands on state.time + t_end exactly
    times = np.linspace(state.time, state.time + config.t_end, num_steps + 1)
    trajectory = [state]
    try:
        for step in range(num_steps):
            state = picard_step(state, params, config, bundle=bundle,
                                time=float(times[step + 1]))
            # only the first step reuses the preflight bundle.  A bundle kept
            # from one step for the next splits the heap the freed LU factors
            # leave: peak memory at N = 2048 rose 8-12 MB
            bundle = None
            regularity_guard(state, initial_margin, config)
            if (step + 1) % config.store_every == 0 or step == num_steps - 1:
                trajectory.append(state)
            for obs in observers:
                obs(state)
    except (StepError, RegularityError) as err:
        err.trajectory = trajectory
        raise
    return trajectory
