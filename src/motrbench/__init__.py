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
    random_system,
    spectral_radius,
    stage_cost,
    step,
    truncation_horizon,
)
from .trust_region import (
    TrustRegionProblem,
    TrustRegionSolution,
    brute_force,
    solve,
)
from .online import (
    MemoryQuadratic,
    OtrState,
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
    hinf_bisection,
    lqr_controller,
    solve_dare,
    solve_hinf_game,
)
from .generators import (
    AdaptiveCdgGenerator,
    GaussianGenerator,
    HinfGenerator,
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
