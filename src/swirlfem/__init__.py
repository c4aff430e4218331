"""swirlfem: finite-element simulation and vortex diagnostics for swirling
flows in straight and curved cylindrical domains."""

__version__ = "0.1.0"

from .geometry import (
    DomainKind,
    DomainSpec,
    Mesh,
    build_straight_mesh,
    cross_section_planes,
    curved_domain,
    distance_to_geometric_axis,
    geometric_axis_point,
    map_to_torus,
    straight_domain,
)
from .initcond import (
    ProfileKind,
    ProfileParams,
    SignConvention,
    initial_velocity_curved,
    initial_velocity_straight,
    psi,
    sample_initial_state,
)
from .solver import (
    FieldState,
    SolverConfig,
    StepOperator,
    run_simulation,
    time_step,
)

__all__ = [
    "DomainKind", "DomainSpec", "Mesh", "build_straight_mesh",
    "cross_section_planes", "curved_domain", "distance_to_geometric_axis",
    "geometric_axis_point", "map_to_torus", "straight_domain",
    "ProfileKind", "ProfileParams", "SignConvention",
    "initial_velocity_curved", "initial_velocity_straight", "psi",
    "sample_initial_state",
    "FieldState", "SolverConfig", "StepOperator", "run_simulation",
    "time_step",
]
