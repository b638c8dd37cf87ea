"""Flip processes on graphs and their graphon trajectories.

The package simulates stochastic local-replacement graph dynamics
exactly, evaluates the associated velocity operator on step graphons,
integrates the resulting trajectories forward and backward in time, and
provides statistical harnesses verifying that the discrete process
tracks its deterministic limit.
"""

from .csvio import write_transference_csv
from .errors import (
    ConfigError,
    FlipflowError,
    GuardExceededError,
    IntegrationFaultError,
    InvalidTupleError,
    MassMismatchError,
    NonFiniteValueError,
    NonStochasticRowError,
    UnsupportedOrderError,
)
from .graphs import (
    LabeledGraph,
    component_closure,
    enumerate_graphs,
    pair_list,
    pair_position,
)
from .integrators import IntegratorOptions
from .rules import (
    BUILTIN_RULES,
    Rule,
    complementing_rule,
    component_completion_rule,
    deltas,
    erdos_renyi_rule,
    extremist_rule,
    idle_graphs,
    ignorant_rule,
    is_trivial,
    load_rule,
    make_rule,
    pair_coefficients,
    removal_rule,
    save_rule,
    stirring_rule,
    triangle_removal_rule,
    validate,
)
from .simulate import (
    DriftCheck,
    ProcessState,
    TransferenceReport,
    one_step_expectation_check,
    run,
    transference_experiment,
)
from .stepfun import (
    SimGraph,
    StepGraphon,
    StepKernel,
    constant,
    cut_norm_exact,
    cut_norm_lower_bound,
    density,
    induced_density,
    kernel_sub,
    l1_dist,
    linf_dist,
    load_graphon,
    sample_graph,
    save_graphon,
    stepped,
    two_block,
)
from .streams import substream
from .trajectory import (
    AgeResult,
    DestinationResult,
    PlanarTrace,
    Trajectory,
    backward_age,
    constant_fixed_points,
    cut_lipschitz_constant,
    find_destination,
    flow_at,
    integrate,
    linf_lipschitz_constant,
    planar_demo,
    planar_field,
    semigroup_check,
)
from .velocity import (
    MonteCarloVelocity,
    VelocityPlan,
    VelocityPoly,
    eval_poly,
    velocity,
    velocity_monte_carlo,
    velocity_poly,
)

__version__ = "0.1.0"
