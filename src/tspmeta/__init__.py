"""tspmeta: a metaheuristic toolkit for the Traveling Salesman Problem.

Solvers: discrete particle swarm optimization with swap-sequence velocities
(plus optional 2-opt/3-opt refinement), a genetic algorithm, simulated
annealing, and an exact Held-Karp oracle for small instances. A seeded
benchmark harness produces reproducible CSV/JSON comparisons, and the CLI
adds SVG tour figures.
"""

from .baselines import GaConfig, SaConfig, order_crossover, run_ga, run_sa, sa_accept, swap_mutation
from .bench import (
    AlgorithmEntry,
    ExperimentSpec,
    SummaryStats,
    TrialRecord,
    emit_csv,
    emit_json,
    load_experiment_spec,
    run_experiment,
    summarize,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InstanceTooLargeError,
    InvalidTourError,
    ParseError,
    TspmetaError,
    UnsupportedFormatError,
)
from .instance import (
    City,
    DistanceMatrix,
    Instance,
    Metric,
    RunResult,
    Tour,
    brute_force_optimal,
    build_distance_matrix,
    canonicalize,
    random_tour,
    tour_length,
    validate_tour,
)
from .localsearch import three_opt, two_opt
from .pso import (
    LocalSearch,
    Particle,
    SwapSequence,
    SwarmConfig,
    SwarmState,
    apply_swaps,
    stochastic_scale,
    swap_difference,
    velocity_update,
)
from .pso import run as run_pso
from .pso import step as pso_step
from .svgplot import render_tour_svg
from .tsplib import (
    five_city_instance,
    load_instance_file,
    packaged_instance,
    packaged_opt_tour,
    parse_coords_csv,
    parse_tour_file,
    parse_tsplib,
    write_coords_csv,
    write_tsplib,
)

__version__ = "0.1.0"
