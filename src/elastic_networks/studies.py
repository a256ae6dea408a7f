"""Grid- and step-refinement studies of the time stepper.

Both studies run the clamped single-curve problem, whose data satisfies
the discrete boundary conditions exactly, and compare refined runs
against a much finer reference run at the final time.
"""

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .solver import SolverConfig, evolve


@dataclass(frozen=True)
class StudyResult:
    levels: tuple  # refined quantity per level (N or dt)
    errors: tuple
    rates: tuple

    @property
    def order(self):
        return min(self.rates)


def _final_state(N, dt, t_end, amplitude, lam):
    state, params = fixtures.single_clamped(N=N, amplitude=amplitude, lam=lam)
    config = SolverConfig(dt=dt, t_end=t_end, store_every=10**9)
    return evolve(state, params, config, preflight="strict")[-1]


def _compare(state, reference):
    """Max node distance on the nodes shared by the two grids."""
    stride = reference.N // state.N
    gap = np.linalg.norm(state.nodes - reference.nodes[:, ::stride], axis=-1)
    return float(np.max(gap))


def spatial_convergence(Ns=(32, 64, 128), N_ref=256, dt=2.5e-8, t_end=1e-6,
                        amplitude=0.05, lam=0.5):
    """Refine the grid at a fixed tiny time step."""
    for N in Ns:
        if N_ref % N:
            raise ValueError("reference grid must refine every study grid")
    reference = _final_state(N_ref, dt, t_end, amplitude, lam)
    errors = [
        _compare(_final_state(N, dt, t_end, amplitude, lam), reference) for N in Ns
    ]
    rates = [
        float(np.log2(errors[k] / errors[k + 1]))
        / float(np.log2(Ns[k + 1] / Ns[k]))
        for k in range(len(Ns) - 1)
    ]
    return StudyResult(levels=tuple(Ns), errors=tuple(errors), rates=tuple(rates))


def temporal_convergence(dts=(4e-6, 2e-6, 1e-6), dt_ref=1.25e-7, N=48,
                         t_end=4e-5, amplitude=0.05, lam=0.5):
    """Refine the time step on a fixed grid."""
    reference = _final_state(N, dt_ref, t_end, amplitude, lam)
    errors = [
        _compare(_final_state(N, dt, t_end, amplitude, lam), reference)
        for dt in dts
    ]
    rates = [
        float(np.log(errors[k] / errors[k + 1]))
        / float(np.log(dts[k] / dts[k + 1]))
        for k in range(len(dts) - 1)
    ]
    return StudyResult(levels=tuple(dts), errors=tuple(errors), rates=tuple(rates))
