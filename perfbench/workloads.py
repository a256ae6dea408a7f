"""The benchmark's three workloads: seeded inputs, set-up, the timed job and its checks.

Each workload has a grid of GRID_SIZE physical inputs spread over the
range the benchmark samples (a bump amplitude, a bowing direction, a
skew).  The seed draws the order in which a run walks that grid, and a
run always finishes whole passes over it.  So every run covers the same
range of inputs, and the final state of every job can be compared with
a reference stored in ``references/`` for its grid point.

The jobs call the package through module attributes (``solver.evolve``,
``io.load_network`` ...) so that the traced run's wrappers see them.
"""

import dataclasses
import os
import time
import warnings

import numpy as np

from elastic_networks import diagnostics, fixtures, io, repar, solver
from elastic_networks.errors import (
    ConfigurationError,
    DiffeoBreakdownError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from elastic_networks.geometry import CurveSamples
from elastic_networks.solver import NetworkState, SolverConfig

GRID_SIZE = 4
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

# Output-check tolerances.  ENERGY_SLACK is the acceptance criterion-2
# slack as a share of 1 + E0; BOUNDARY_TOL and REFERENCE_TOL are the
# acceptance-test residual bound and the 1e-12 trajectory bound;
# CERTIFICATE_TOL is acceptance criterion 10.
ENERGY_SLACK = 1e-10
BOUNDARY_TOL = 1e-8
REFERENCE_TOL = 1e-12
CERTIFICATE_TOL = 1e-3


def draw_order(seed):
    """Order in which a run with this seed walks the input grid."""
    return [int(k) for k in np.random.default_rng(seed).permutation(GRID_SIZE)]


class StepClock:
    """Observer that timestamps every completed step."""

    def __init__(self):
        self.times = []

    def __call__(self, state):
        self.times.append(time.perf_counter())


@dataclasses.dataclass
class Outcome:
    """What one job did: steps taken, failures and check violations."""

    steps: int = 0
    failed_steps: int = 0
    violations: list = dataclasses.field(default_factory=list)
    clocks: list = dataclasses.field(default_factory=list)
    finals: list = dataclasses.field(default_factory=list)

    @property
    def ok(self):
        return not self.violations and not self.failed_steps


def _stacked(state):
    return np.stack([c.nodes for c in state.curves])


def _evolve(outcome, state, params, config, preflight, observers=()):
    """solver.evolve with a StepClock; a failure is recorded, not raised."""
    clock = StepClock()
    outcome.clocks.append(clock)
    try:
        return solver.evolve(state, params, config,
                             observers=tuple(observers) + (clock,),
                             preflight=preflight)
    except (StepError, RegularityError) as err:
        outcome.failed_steps += 1
        outcome.violations.append(f"{type(err).__name__}: {err}")
    except (ConfigurationError, NonCollinearError) as err:
        outcome.violations.append(f"preflight {preflight}: {err}")
    finally:
        outcome.steps += len(clock.times)
    return None


def check_energy(energies, label):
    """Energy must never rise by more than ENERGY_SLACK * (1 + E0)."""
    rise = float(np.max(np.diff(energies))) if len(energies) > 1 else 0.0
    slack = ENERGY_SLACK * (1.0 + energies[0])
    if not rise <= slack:
        return [f"{label}: energy rose by {rise:.3e} > {slack:.3e}"]
    return []


def check_reference(nodes, reference, label):
    """Final nodes equal the stored reference to REFERENCE_TOL."""
    if nodes.shape != reference.shape:
        return [f"{label}: final state shape {nodes.shape} != reference {reference.shape}"]
    gap = float(np.max(np.abs(nodes - reference)))
    if not gap <= REFERENCE_TOL:
        return [f"{label}: final state differs from the reference by {gap:.3e}"]
    return []


def load_references(name):
    path = os.path.join(REFERENCE_DIR, f"{name}.npz")
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


class Workload:
    """One workload: its input grid, how to set it up, and its job."""

    name = ""
    grid = ()
    preflight = "strict"
    # every reference_stride-th node of a final state is stored and compared
    reference_stride = 1
    # boundary residuals whose tolerance is not BOUNDARY_TOL
    boundary_tols = {}

    def __init__(self):
        self._references = None

    def parameters(self, k):
        """The physical inputs of grid point k, as JSON-ready values."""
        raise NotImplementedError

    def write_inputs(self, k, directory):
        """Write the files a user would hand to the program; returns a spec."""
        return {"k": k, **self.parameters(k)}

    def load(self, spec):
        """Build or load the network and config from a spec (no warm-up)."""
        raise NotImplementedError

    def setup(self, spec):
        """load plus a one-step run that does the preflight and fills the caches."""
        ctx = self.load(spec)
        state, params, config = ctx["state"], ctx["params"], ctx["config"]
        warm = dataclasses.replace(config, t_end=config.dt, store_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            solver.evolve(state, params, warm, preflight=self.preflight)
        return ctx

    def job(self, ctx, out_dir):
        """Run the job on a set-up context; returns its Outcome.

        The job checks energy, boundary residuals and (certificate) the
        certificate; check_finals compares the final states with the
        stored references.
        """
        raise NotImplementedError

    def check_boundary(self, state, params, label):
        """Final boundary residuals within BOUNDARY_TOL or their boundary_tols entry."""
        out = []
        for name, value in diagnostics.boundary_residuals(state, params).items():
            tol = self.boundary_tols.get(name, BOUNDARY_TOL)
            if not value <= tol:
                out.append(f"{label}: boundary residual {name} {value:.3e} > {tol:.3e}")
        return out

    def reference(self, key):
        if self._references is None:
            self._references = load_references(self.name)
        return self._references[key]

    def check_finals(self, outcome, k):
        """Compare the job's final states with the references of grid point k."""
        for i, nodes in enumerate(outcome.finals):
            key = f"k{k}_final{i}"
            outcome.violations += check_reference(
                nodes[:, ::self.reference_stride], self.reference(key), key)


class FileInputs(Workload):
    """A workload whose network and config reach the program as JSON files."""

    store_every = 1

    def network(self, k):
        """(state, params) of grid point k."""
        raise NotImplementedError

    def write_inputs(self, k, directory):
        spec = super().write_inputs(k, directory)
        spec["network"] = os.path.join(directory, f"network_{k}.json")
        spec["config"] = os.path.join(directory, f"config_{k}.json")
        io.save_network(spec["network"], *self.network(k))
        io.save_config(spec["config"], SolverConfig(
            dt=self.dt, t_end=self.t_end, store_every=self.store_every))
        return spec

    def load(self, spec):
        state, params = io.load_network(spec["network"])
        return {"spec": spec, "state": state, "params": params,
                "config": io.load_config(spec["config"])}


class TriodRelax(FileInputs):
    """The ``elastic-networks simulate`` path on the bent triod."""

    name = "triod_relax"
    N, lam, dt, t_end = 128, 1.0, 1e-5, 1.5e-3
    store_every = 10  # a saved frame per 10 steps; the CSV still has every step
    grid = tuple(np.linspace(0.04, 0.06, GRID_SIZE))  # bump amplitude

    def parameters(self, k):
        return {"amplitude": float(self.grid[k])}

    def network(self, k):
        return fixtures.triod_bent(N=self.N, lam=self.lam, amplitude=self.grid[k])

    def setup(self, spec):
        ctx = super().setup(spec)
        diagnostics.record_state(ctx["state"], ctx["params"])
        return ctx

    def job(self, ctx, out_dir):
        # the same calls as cli.cmd_simulate, without the SVG frames
        state, params = ctx["state"], ctx["params"]
        outcome = Outcome()
        records = []

        def observer(s):
            records.append(diagnostics.record_state(s, params))

        trajectory = _evolve(outcome, state, params, ctx["config"], self.preflight,
                             observers=(observer,))
        if trajectory is None:
            return outcome
        io.save_trajectory(os.path.join(out_dir, "trajectory.json"), trajectory, params)
        records.insert(0, diagnostics.record_state(trajectory[0], params))
        with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
            fh.write(diagnostics.records_to_csv(records))

        outcome.violations += check_energy([r.energy for r in records], "energy")
        outcome.violations += self.check_boundary(trajectory[-1], params, "final")
        outcome.finals = [_stacked(trajectory[-1])]
        return outcome


class FineGrid(Workload):
    """A bowed tetrahedral network in R^3 on a fine grid, plain evolve."""

    name = "fine_grid"
    N, amplitude, dt, t_end = 2048, 0.05, 1e-7, 6e-7
    # keeps the stored references at ~0.1 MB; nodes 0 and N are kept, and a
    # change at any node reaches its neighbours within one step, since the
    # diffusion length dt^(1/4) spans ~36 grid intervals here
    reference_stride = 8
    # the 5-point third-derivative stencil times N^3 turns 1-ulp noise in
    # the nodes near the junction into ~3e-8 at N = 2048; the four inputs
    # end at 6e-9 to 3.2e-8, so 1e-7 keeps a margin of 3 over the largest
    boundary_tols = {"third_order_sum": 1e-7}

    # unit vectors e; spoke i is bowed along T_i x e, and since the
    # tangents T_i sum to zero the stencil errors cancel at the junction
    grid = np.random.default_rng(20191219).normal(size=(GRID_SIZE, 3))
    grid /= np.linalg.norm(grid, axis=1)[:, None]

    def parameters(self, k):
        return {"direction": [float(v) for v in self.grid[k]]}

    def load(self, spec):
        state, params = fixtures.q4_spatial(N=self.N)
        # single_clamped with amplitude 1 carries the package's bump profile,
        # whose end stencils vanish exactly
        bump = fixtures.single_clamped(N=self.N, amplitude=1.0)[0].curves[0].nodes[:, 1]
        e = np.asarray(spec["direction"], dtype=float)
        curves = []
        for c in state.curves:
            tangent = c.nodes[-1] - c.nodes[0]
            tangent = tangent / np.linalg.norm(tangent)
            bow = self.amplitude * bump[:, None] * np.cross(tangent, e)
            curves.append(CurveSamples(c.nodes + bow))
        return {"spec": spec, "state": NetworkState(curves=curves), "params": params,
                "config": SolverConfig(dt=self.dt, t_end=self.t_end)}

    def job(self, ctx, out_dir):
        state, params = ctx["state"], ctx["params"]
        outcome = Outcome()
        trajectory = _evolve(outcome, state, params, ctx["config"], self.preflight)
        if trajectory is None:
            return outcome
        energies = [diagnostics.network_energy(s, params) for s in trajectory]
        outcome.violations += check_energy(energies, "energy")
        outcome.violations += self.check_boundary(trajectory[-1], params, "final")
        outcome.finals = [_stacked(trajectory[-1])]
        return outcome


class Certificate(FileInputs):
    """The ``elastic-networks equivalence`` path on the skewed bent triod."""

    name = "certificate"
    preflight = "warn"
    N, dt, t_end, store_every = 128, 5e-6, 1e-4, 2
    grid = tuple(np.linspace(0.3, 0.5, GRID_SIZE))  # parameter skew

    def parameters(self, k):
        return {"skew": float(self.grid[k])}

    def network(self, k):
        return fixtures.triod_bent_skewed(N=self.N, skew=self.grid[k])

    def job(self, ctx, out_dir):
        # the same calls as cli.cmd_equivalence; "warn" as the CLI uses it,
        # because resampled curves miss the strict discrete preflight
        state, params, config = ctx["state"], ctx["params"], ctx["config"]
        outcome = Outcome()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run_a = _evolve(outcome, state, params, config, self.preflight)
                if run_a is None:
                    return outcome
                resampled = NetworkState(
                    curves=[repar.const_speed_reparam(c)[0] for c in state.curves],
                    time=state.time,
                )
                run_b = _evolve(outcome, resampled, params, config, self.preflight)
                if run_b is None:
                    return outcome
            certificate, _ = repar.geometric_equivalence(run_a, run_b, params.lam)
        except DiffeoBreakdownError as err:
            # a breakdown, as cli.cmd_equivalence reports it
            outcome.violations.append(f"DiffeoBreakdownError: {err}")
            return outcome
        if not certificate <= CERTIFICATE_TOL:
            outcome.violations.append(
                f"certificate {certificate:.3e} > {CERTIFICATE_TOL:g}")
        # run_a and run_b store every other step, so energy is checked there
        for label, run in (("run_a", run_a), ("run_b", run_b)):
            energies = [diagnostics.network_energy(s, params) for s in run]
            outcome.violations += check_energy(energies, f"{label} energy")
            outcome.violations += self.check_boundary(run[-1], params, f"{label} final")
            outcome.finals.append(_stacked(run[-1]))
        return outcome


WORKLOADS = {w.name: w for w in (TriodRelax(), FineGrid(), Certificate())}
