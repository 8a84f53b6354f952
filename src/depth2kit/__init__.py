"""depth2-kit: finite depth-two closure algebras, frames, and checks.

Importing the package loads none of its modules: each public name (and
each submodule, such as ``depth2kit.frames``) is imported on first use.
"""

from importlib import import_module

_EXPORTS = {
    "boolean": ("FiniteBA",),
    "duality": ("algebras_isomorphic", "canonical_frame", "complex_algebra"),
    "errors": (
        "BindingError", "BudgetError", "Depth2Error", "DomainError",
        "FormulaSyntaxError", "NoClosureError", "PreconditionError",
        "SizeError", "TrivialityError",
    ),
    "formulas": (
        "And", "Bottom", "Box", "Diamond", "Formula", "Iff", "Implies", "Not",
        "Or", "Rule", "Top", "Var", "axiom", "meet_axiom", "parse_formula",
        "print_formula", "rule_p2", "variables",
    ),
    "frames": (
        "ClusterPoset", "Frame", "canonical_form", "classify_extremal",
        "cluster_poset", "converse_frame", "enumerate_frames", "frame_condition",
        "frame_from_dict", "make_extremal", "make_frame",
    ),
    "operators": (
        "AlgebraClass", "ClassLabel", "DualOperator", "IrreducibilityKind",
        "IrreducibilityVerdict", "ModalAlgebra", "ModalOperator",
        "OperatorProperties", "Subalgebra", "algebra_from_dict", "build_kn",
        "classify_algebra", "closed_open_elements", "conjugate_check",
        "dual_operator", "embeds", "extremal_operator", "identity_operator",
        "irreducibility", "operator_from_atom_values", "operator_from_sublattice",
        "operator_properties", "product", "quotient", "satisfies_depth2_axiom",
        "subalgebras", "unary_discriminator",
    ),
    "semantics": (
        "algebra_validates", "eval_in_algebra", "eval_in_model", "frame_validates",
        "premises_active", "quasiidentity_holds",
    ),
    "verify": ("SUITE_NAMES", "SUITES", "VerificationReport", "run_all", "run_suite"),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
