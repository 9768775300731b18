"""The benchmark's workloads, as ExperimentConfig fields.

Plain data: the worker imports this module before it builds the config,
inside the set-up time it measures, so nothing here may cost import time.
base_seed is not listed; it comes from the benchmark's --seed.
"""

WORKLOADS = {
    # The grid users run: default dimensions, all controllers and
    # generators, on the first 3 systems x 2 seeds (108 episodes).
    "grid": {"n_systems": 3, "n_seeds": 2},
    # GPC against the generators whose cost is negligible, so the
    # controller's per-step policy update dominates; no trust region, no
    # learner (48 episodes).  Two systems with many seeds: H-infinity
    # synthesis takes 10-600 ms per system depending on the system, and
    # more systems would make the pass's length depend on the base seed.
    "gpc-noise": {
        "n_systems": 2,
        "n_seeds": 8,
        "controllers": ["gpc"],
        "generators": ["hinf", "random", "gaussian"],
    },
    # The online adversary at policy dimension n = H d_w d_u = 64, against
    # the linear controllers only, so the 64 x 64 trust-region solve and the
    # rollout quadratic dominate (24 episodes).
    "adversary-n64": {
        "d_x": 8,
        "d_u": 4,
        "d_w": 4,
        "H": 4,
        "T": 400,
        "n_systems": 4,
        "n_seeds": 1,
        "controllers": ["lqr", "hinf"],
        "generators": ["motr", "oga", "hinf"],
    },
}
