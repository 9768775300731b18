"""Adversarial disturbance generation for linear-quadratic control.

Generates maximally adversarial disturbance sequences for blackbox
controllers of linear systems with quadratic costs: an online
trust-region learner with memory (MOTR) plus equilibrium, gradient,
sinusoid and noise baselines, baseline controllers to attack, and a
reproducible benchmark harness.
"""

from .lds import (
    CostWeights,
    LinearSystem,
    StabilityReport,
    analyze_stability,
    complexity_measure,
    random_system,
    spectral_radius,
    stabilize,
    stage_cost,
    step,
    truncation_horizon,
)
from .trust_region import (
    TrustRegionProblem,
    TrustRegionSolution,
    brute_force,
    condition_number,
    solve,
)
from .online import (
    CollapsedQuadratic,
    MemoryQuadratic,
    OtrState,
    RegretAccumulator,
    collapse,
    default_perturbation_rate,
    play_sequence,
    regret_audit,
    sample_perturbation,
)
from .cdg import (
    CdgPolicy,
    PlantPowers,
    RolloutQuadratic,
    affine_state_map,
    plant_powers,
    project_frobenius,
    rollout_cost_quadratic,
)
from .controllers import (
    GpcController,
    HinfSolution,
    LinearFeedback,
    gpc_controller,
    hinf_bisection,
    hinf_controller,
    lqr_controller,
    solve_dare,
    solve_hinf_game,
)
from .generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    HinfGenerator,
    MotrConfig,
    RandomDirectionGenerator,
    SinusoidGenerator,
    scale_to_budget,
    sinusoid_generator,
    transform_residual,
)
from .bench import (
    AggregateTable,
    ExperimentConfig,
    RunRecord,
    build_bundle,
    normalize_scores,
    regret_curve,
    run_episode,
    run_grid,
)

__version__ = "0.1.0"
