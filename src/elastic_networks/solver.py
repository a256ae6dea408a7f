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
derivative bundle per distinct network state: each accepted state is
differentiated once, and its bundle serves the guard and the next step.
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
from .geometry import NetworkState, boundary_offsets, stencil_weights

LINEAR_RESIDUAL_TOL = 1e-8
# t_end must be a whole number of steps to this relative precision
END_TIME_TOL = 1e-9


@dataclass(frozen=True)
class FlowParams:
    """Fixed outer endpoints and per-curve length penalties."""

    endpoints: np.ndarray  # (q, n), the values f_i(1)
    lam: np.ndarray  # (q,), nonnegative

    def __post_init__(self):
        try:
            ends = np.atleast_2d(np.asarray(self.endpoints, dtype=float))
            lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        except ValueError as err:  # ragged, or entries that are not numbers
            raise ConfigurationError(
                f"endpoints and lam must be numeric arrays: {err}") from err
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "lam", lam)
        if ends.shape[0] != lam.shape[0]:
            raise ConfigurationError("endpoints and lam must list the same curves")
        if not (np.all(np.isfinite(ends)) and np.all(np.isfinite(lam))):
            raise ConfigurationError("endpoints and length penalties must be finite")
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


def _solve(matrix, lu, perm_c, rhs, time):
    """Nodes (q, N+1, n) solving the factored step for a (q, N+1, n) rhs.

    lu factors matrix with its columns in the order perm_c (SuperLU's
    convention: column i of matrix is column perm_c[i] of the factored
    one); each solve is mapped back with x[perm_c].
    """
    b = rhs.ravel()
    x = lu.solve(b)[perm_c]
    # two rounds of iterative refinement keep the boundary rows exact
    # to rounding even when the step matrix is badly conditioned
    for _refine in range(2):
        x += lu.solve(b - matrix @ x)[perm_c]
    residual = np.max(np.abs(matrix @ x - b))
    if residual > LINEAR_RESIDUAL_TOL * (1.0 + np.max(np.abs(b))):
        raise StepError(f"linear step residual {residual:.3e} too large",
                        time=time)
    return x.reshape(rhs.shape)


# Structure of the step matrix for one (q, N, n).  The entries are
# listed in a fixed order: interior rows (q, n, N-3, 5), junction rows
# (n, q, n, 5) when q >= 2, then the constant boundary entries, whose
# values are kept; order sorts that list into CSR order.  perm_c is the
# column order SuperLU picks for this pattern (COLAMD and the postorder
# of the elimination tree depend on the structure alone); csc_* hold the
# CSC structure of the matrix with its columns in that order, and
# csc_order sorts the value list into it.
_StepPattern = namedtuple("_StepPattern", "indptr indices order constants w4 w3 "
                          "perm_c csc_indptr csc_indices csc_order")


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
    size = q * (N + 1) * n
    # one factorization with seeded stand-in values gives SuperLU's column
    # order for every matrix of this pattern
    standin = np.random.default_rng(0).standard_normal(rows.size)
    perm_c = sp.linalg.splu(sp.csc_matrix((standin, (rows, cols)),
                                          shape=(size, size))).perm_c
    # intp: perm_c indexes every solve, and an int32 index is cast on each
    # use; csc_order, used once per step, stays int32 to halve its memory
    perm_c = perm_c.astype(np.intp)
    order = np.lexsort((cols, rows))
    permuted_cols = perm_c[cols]
    csc_order = np.lexsort((rows, permuted_cols))
    return _StepPattern(
        indptr=_offsets(rows, size),
        indices=cols[order].astype(np.int32),
        order=order,
        constants=np.concatenate([e[2].ravel() for e in entries[len(variable):]]),
        w4=stencil_weights(range(-2, 3), 4) / h**4,
        w3=stencil_weights(offs3, 3) / h**3,
        perm_c=perm_c,
        csc_indptr=_offsets(permuted_cols, size),
        csc_indices=rows[csc_order].astype(np.int32),
        csc_order=csc_order.astype(np.int32),
    )


def _offsets(keys, size):
    """Compressed-storage offsets (int32) of entries grouped by keys."""
    return np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=size))]
                          ).astype(np.int32)


def _step_matrix(bundle, params, dt):
    """Sparse matrix of one implicit step, frozen at the bundle's state.

    Returns it twice, as CSR and as CSC with its columns in the pattern's
    order perm_c (ready for SuperLU to factor without ordering), and
    perm_c.
    """
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
    values = np.concatenate(values)
    size = q * num * n
    return (sp.csr_matrix((values[pattern.order], pattern.indices, pattern.indptr),
                          shape=(size, size)),
            sp.csc_matrix((values[pattern.csc_order], pattern.csc_indices,
                           pattern.csc_indptr), shape=(size, size)),
            pattern.perm_c)


def _step_rhs(rhs, frozen, current, base_dt, d_pow4, params):
    """Fill the rows of the step's rhs that change with the Picard iterate.

    rhs is the (q, N+1, n) buffer of the step, which already holds its
    constant rows; the interior rows and, for a network, the junction
    row are rewritten.  frozen is the stacked bundle of the step's start
    state, which freezes the coefficients, and current the iterate's;
    base_dt (start nodes over dt) and d_pow4 (1/|f'|^4 of the start
    state) are taken once per step on the interior nodes 2..N-2.
    """
    inner = slice(2, rhs.shape[1] - 2)
    cur = current[:, inner]
    remainder = (d_pow4 - 1.0 / cur.speed**4)[..., None] * cur.d4
    rhs[:, inner] = base_dt + remainder + geometry.h_lower(cur, params.lam[:, None])
    if rhs.shape[0] >= 2:
        rhs[0, 0] = junction.linearize_boundary(frozen, current, params.lam).b
    return rhs


def picard_step(state, params, config, *, bundle=None, time=None):
    """Advance one time step, iterating the linearization to a fixed point.

    The coefficients are frozen at state, the start of the step.  bundle
    is state's stacked bundle when the caller already has it; it feeds
    the step matrix and the first iterate.  time is the time of the new
    state, state.time + dt by default.  Each Picard iterate is a
    NetworkState at that time, and the converged one is returned.
    """
    if bundle is None:
        bundle = geometry.finite_differences(state)
    if time is None:
        time = state.time + config.dt
    matrix, permuted, perm_c = _step_matrix(bundle, params, config.dt)
    try:
        # the columns already stand in SuperLU's order, so it only factors.
        # SuperLU takes the diagonal entry as pivot when it ties the largest
        # magnitude in its column; here that is the permuted matrix's
        # diagonal, so the pivots could differ only on an exact tie
        lu = sp.linalg.splu(permuted, permc_spec="NATURAL")
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise StepError(f"step matrix cannot be factored: {err}",
                        time=time) from err
    del permuted  # no step array outlives the factorization
    base = state.nodes
    q, num, _ = base.shape
    # frozen once per step: the start state's terms on the interior rows
    # and the constant rows of the rhs (outer endpoints; for q = 1 the
    # pinned node 0)
    inner = slice(2, num - 2)
    d_pow4 = 1.0 / bundle.speed[:, inner]**4
    base_dt = base[:, inner] / config.dt
    rhs = np.zeros_like(base)
    rhs[:, num - 1] = params.endpoints
    if q == 1:
        rhs[0, 0] = base[0, 0]
    current, current_bundle = state, bundle
    previous_change = np.inf
    for _ in range(config.picard_max):
        _step_rhs(rhs, bundle, current_bundle, base_dt, d_pow4, params)
        new = NetworkState(_solve(matrix, lu, perm_c, rhs, time), time=time)
        change = float(np.max(np.abs(new.nodes - current.nodes)))
        current = new
        # stop at the tolerance, or once contraction has hit the rounding
        # floor of the linear solver
        if change <= config.picard_tol or (change <= config.picard_floor
                                           and change > 0.5 * previous_change):
            return current
        previous_change = change
        current_bundle = geometry.finite_differences(current)
    raise StepError(
        f"Picard iteration stalled (last change {change:.3e})", time=time
    )


def regularity_guard(state, bundle, initial_margin, config):
    """Raise once uniform parabolicity degrades past the configured factor.

    bundle is state's stacked bundle; only its speeds are read.
    """
    margin = wellposed.parabolicity_margin(bundle.speed)
    if margin < config.delta_guard_factor * initial_margin:
        raise RegularityError(
            f"parabolicity margin {margin:.6e} fell to "
            f"{margin / initial_margin:.6f} of its initial value "
            f"{initial_margin:.6e}, below the factor {config.delta_guard_factor}",
            time=state.time,
        )
    return margin


def evolve(state, params, config, observers=(), preflight="strict"):
    """Run the flow from state for a time t_end; returns the stored trajectory.

    preflight is "strict" (reject incompatible data), "warn" (only warn
    about incompatible data; collinear junction tangents stay fatal) or
    "skip".
    On a mid-run failure the raised exception carries the trajectory
    computed so far in its .trajectory attribute; a StepError, and the
    guard's RegularityError, carry the time of the failing step in .time.
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
        report = wellposed.check_compat_order0(state, params, bundle=bundle)
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
            # the accepted state's one bundle: the guard reads its speeds
            # and the next step starts from it
            bundle = geometry.finite_differences(state)
            regularity_guard(state, bundle, initial_margin, config)
            if (step + 1) % config.store_every == 0 or step == num_steps - 1:
                trajectory.append(state)
            for obs in observers:
                obs(state)
    except (StepError, RegularityError) as err:
        err.trajectory = trajectory
        raise
    return trajectory
