"""Projector histories for small spin systems.

Build one- and two-spin states and schedules, describe families of projector
histories, decide whether a family is a consistent framework, assign Born
probabilities, answer framework-relative queries, and quantify how far the
singlet's correlations sit from anything a locally factorizing
hidden-variable model can reproduce.

``import qhist`` loads no submodule and not numpy: each name below is
imported from its module on first access (PEP 562) and then kept in this
module's namespace. So an entry point can configure the process (such as
numpy's BLAS threads) after ``import qhist`` and before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each re-exported name
_EXPORTS = {
    "linalg": (
        "EPS_CONS", "EPS_NORM", "EPS_OP", "Projector", "as_projector", "commutes",
        "identity", "identity_projector", "inner", "is_projector", "projector_onto",
        "states_equal_up_to_phase", "tensor", "unitary_exp",
    ),
    "spin": (
        "MINUS_X", "MINUS_Y", "MINUS_Z", "NAMED_DIRECTIONS", "X", "Y", "Z", "Direction",
        "SpinBasis", "angle_between", "basis_for", "born_probability", "singlet",
        "spin_operator", "spin_projector",
    ),
    "dynamics": ("Schedule", "Segment", "TimeGrid", "propagator", "schedules_equal"),
    "histories": (
        "ConsistencyReport", "Event", "Family", "History", "QueryOnInconsistentFamily",
        "chain_kets", "check_consistency", "collapse_family", "family_from_event_table",
        "history_probability", "replace_events_with_identity", "unitary_family",
    ),
    "frameworks": (
        "IncompatibleFrameworks", "IncompatibleProperties", "Proposition", "QueryResult",
        "conjunction", "query", "refine",
    ),
    "bell": (
        "EPS_BELL", "FactorizationCheck", "JointDistribution", "LambdaModel", "LambdaTerm",
        "LocalModelCheck", "Settings", "check_factorization", "chsh", "chsh_value",
        "correlation", "deterministic_model", "deterministic_strategies",
        "lhv_classical_bound", "local_model_exists", "singlet_joint", "singlet_table",
    ),
    "scenario": (
        "BuiltScenario", "ParseError", "ScenarioDoc", "ScenarioError", "ValidationError",
        "build_scenario", "builtin_scenario", "parse_scenario", "render_scenario",
    ),
    "report": (
        "Report", "render_report_machine", "render_report_text", "report_from_dict",
        "run_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``qhist.bell`` after ``import qhist``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
