"""Projector histories for small spin systems.

Build one- and two-spin states and schedules, describe families of projector
histories, decide whether a family is a consistent framework, assign Born
probabilities, answer framework-relative queries, and quantify how far the
singlet's correlations sit from anything a locally factorizing
hidden-variable model can reproduce.
"""

from .linalg import (
    EPS_CONS,
    EPS_NORM,
    EPS_OP,
    Projector,
    as_projector,
    commutes,
    identity,
    identity_projector,
    inner,
    is_projector,
    projector_onto,
    states_equal_up_to_phase,
    tensor,
    unitary_exp,
)
from .spin import (
    MINUS_X,
    MINUS_Y,
    MINUS_Z,
    NAMED_DIRECTIONS,
    X,
    Y,
    Z,
    Direction,
    SpinBasis,
    angle_between,
    basis_for,
    born_probability,
    singlet,
    spin_operator,
    spin_projector,
)
from .dynamics import (
    Schedule,
    Segment,
    TimeGrid,
    propagator,
    schedules_equal,
)
from .histories import (
    ConsistencyReport,
    Event,
    Family,
    History,
    QueryOnInconsistentFamily,
    chain_ket,
    check_consistency,
    collapse_family,
    event,
    family_from_event_table,
    history_overlap,
    history_probability,
    replace_events_with_identity,
    unitary_family,
)
from .frameworks import (
    IncompatibleFrameworks,
    IncompatibleProperties,
    Proposition,
    QueryResult,
    conjunction,
    query,
    refine,
)
from .bell import (
    EPS_BELL,
    FactorizationCheck,
    JointDistribution,
    LambdaModel,
    LambdaTerm,
    LocalModelCheck,
    Settings,
    check_factorization,
    chsh,
    chsh_value,
    correlation,
    deterministic_model,
    deterministic_strategies,
    lhv_classical_bound,
    local_model_exists,
    singlet_joint,
    singlet_table,
)
from .scenario import (
    BuiltScenario,
    ParseError,
    ScenarioDoc,
    ScenarioError,
    ValidationError,
    build_scenario,
    builtin_scenario,
    parse_scenario,
    render_scenario,
)
from .report import (
    Report,
    render_report_machine,
    render_report_text,
    report_from_dict,
    report_to_dict,
    run_scenario,
)

__version__ = "0.1.0"
