"""Planar swarm simulation and analysis under attraction/repulsion virtual forces.

Core pieces: swarm graph structure and rigidity tests (`graph`), interaction
force profiles (`interaction`), forward-Euler dynamics (`dynamics`),
triangular lattice generation and perturbation (`lattice`), Lyapunov
diagnostics (`diagnostics`), closed-loop Jacobian spectra (`linearization`),
Monte-Carlo experiments (`experiments`) and the `triswarm` CLI (`cli`).
"""

__version__ = "0.1.0"

from .graph import (
    LinkSet,
    SwarmConfig,
    compute_links,
    incidence_matrix,
    is_infinitesimally_rigid,
    links_along,
    numerical_rank,
    rigid_motion_basis,
    rigidity_matrix,
    swarm_center,
)
from .interaction import (
    InteractionFunction,
    LennardJonesParams,
    ValidationReport,
    lj_derivative,
    lj_force,
    lj_potential,
    linear_spring,
    saturated_lennard_jones,
    validate_assumption1,
)
from .dynamics import (
    SimulationParams,
    Trajectory,
    center_drift,
    simulate,
    velocities,
)
from .lattice import (
    GROWTH_POLICIES,
    LatticeSpec,
    TriangularityReport,
    generate_triangular,
    is_triangular,
    link_deviation,
    link_error,
    perturb,
)
from .diagnostics import (
    DissipationReport,
    LyapunovSample,
    dissipation_check,
    energy_series,
    lyapunov_rate,
    lyapunov_value,
)
from .linearization import (
    SpectrumReport,
    analyze_configuration,
    jacobian,
    kernel_principal_angles,
    spectral_analysis,
)
from .experiments import (
    ConvergenceStudy,
    SweepResult,
    SweepSpec,
    TrialRecord,
    convergence_study,
    delta_sweep,
    run_trial,
    trial_seeds,
)
