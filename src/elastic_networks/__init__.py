"""Elastic flow of curve networks with one movable junction.

Simulates the L^2 gradient flow of the penalized elastic energy
(bending plus a length penalty) for networks of curves in R^n joined
at a single movable junction, with fixed outer endpoints.
"""

from .errors import (
    ConfigurationError,
    DiffeoBreakdownError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from .geometry import (
    CurveSamples,
    DerivativeBundle,
    apply_derivative,
    curvature,
    finite_differences,
    flow_velocity,
    geometric_velocity,
    h_lower,
    nabla_s2_kappa,
    nabla_s_kappa,
    phi_star,
    stencil_weights,
)
from .junction import (
    JunctionFrame,
    JunctionLinearization,
    build_Q,
    junction_phi,
    linearize_boundary,
    nc_value,
    span_dimension,
)
from .wellposed import (
    CompatReport,
    check_compat_order0,
    check_compat_order1,
    fixed_end_complementary,
    junction_complementary,
    parabolicity_margin,
    positive_roots,
)
from .solver import (
    FlowParams,
    NetworkState,
    SolverConfig,
    assemble_step,
    evolve,
    picard_step,
)
from .diagnostics import (
    DiagnosticsRecord,
    boundary_residuals,
    elastic_energy,
    first_variation_check,
    network_energy,
    parabolic_norm,
    record_state,
    records_from_csv,
    records_to_csv,
)
from .repar import (
    Diffeomorphism,
    const_speed_reparam,
    geometric_equivalence,
    resample,
    tangential_ode,
)
from .studies import spatial_convergence, temporal_convergence

__version__ = "0.1.0"
