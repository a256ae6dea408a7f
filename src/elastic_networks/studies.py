"""Grid- and step-refinement studies of the time stepper.

Both studies run the clamped single-curve problem (fixtures.single_clamped
at its default bump), whose data satisfies the discrete boundary
conditions exactly, and compare refined runs against a much finer
reference run at the final time.  The study sizes are module constants.
"""

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .solver import SolverConfig, evolve

SPATIAL_NS = (32, 64, 128)
SPATIAL_N_REF = 256  # a multiple of every grid of SPATIAL_NS
SPATIAL_DT = 2.5e-8
SPATIAL_T_END = 1e-6
TEMPORAL_DTS = (4e-6, 2e-6, 1e-6)
TEMPORAL_DT_REF = 1.25e-7
TEMPORAL_N = 48
TEMPORAL_T_END = 4e-5
# the least observed orders that pass: second order in space, first in time
SPATIAL_MIN_ORDER = 1.9
TEMPORAL_MIN_ORDER = 0.9


@dataclass(frozen=True)
class StudyResult:
    levels: tuple  # refined quantity per level (N or dt)
    errors: tuple
    rates: tuple

    @property
    def order(self):
        return min(self.rates)


def _final_state(N, dt, t_end):
    state, params = fixtures.single_clamped(N=N)
    config = SolverConfig(dt=dt, t_end=t_end, store_every=10**9)
    return evolve(state, params, config, preflight="strict")[-1]


def _compare(state, reference):
    """Max node distance on the nodes shared by the two grids."""
    stride = reference.N // state.N
    gap = np.linalg.norm(state.nodes - reference.nodes[:, ::stride], axis=-1)
    return float(np.max(gap))


def _study(levels, final_state, reference):
    """Errors of final_state(level) against reference, and the observed rates.

    The rate between levels k and k+1 is log(e_k / e_{k+1}) divided by
    |log(l_{k+1} / l_k)|, for refinement in N and in dt alike.
    """
    errors = [_compare(final_state(level), reference) for level in levels]
    rates = [
        float(np.log(errors[k] / errors[k + 1]))
        / abs(float(np.log(levels[k + 1] / levels[k])))
        for k in range(len(levels) - 1)
    ]
    return StudyResult(levels=tuple(levels), errors=tuple(errors), rates=tuple(rates))


def spatial_convergence():
    """Refine the grid at a fixed tiny time step."""
    reference = _final_state(SPATIAL_N_REF, SPATIAL_DT, SPATIAL_T_END)
    return _study(SPATIAL_NS,
                  lambda N: _final_state(N, SPATIAL_DT, SPATIAL_T_END), reference)


def temporal_convergence():
    """Refine the time step on a fixed grid."""
    reference = _final_state(TEMPORAL_N, TEMPORAL_DT_REF, TEMPORAL_T_END)
    return _study(TEMPORAL_DTS,
                  lambda dt: _final_state(TEMPORAL_N, dt, TEMPORAL_T_END), reference)
