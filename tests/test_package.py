import importlib

import pytest

import depth2kit

# every public name, by the module that defines it
_EXPORTED = {
    "boolean": ["FiniteBA"],
    "duality": ["algebras_isomorphic", "canonical_frame", "complex_algebra"],
    "errors": [
        "BindingError", "BudgetError", "Depth2Error", "DomainError",
        "FormulaSyntaxError", "NoClosureError", "PreconditionError", "SizeError",
        "TrivialityError",
    ],
    "formulas": [
        "And", "Bottom", "Box", "Diamond", "Formula", "Iff", "Implies", "Not", "Or",
        "Rule", "Top", "Var", "axiom", "meet_axiom", "parse_formula",
        "print_formula", "rule_p2", "variables",
    ],
    "frames": [
        "ClusterPoset", "Frame", "canonical_form", "classify_extremal",
        "cluster_poset", "converse_frame", "enumerate_frames", "frame_condition",
        "frame_from_dict", "make_extremal", "make_frame",
    ],
    "operators": [
        "AlgebraClass", "ClassLabel", "DualOperator", "IrreducibilityKind",
        "IrreducibilityVerdict", "ModalAlgebra", "ModalOperator",
        "OperatorProperties", "Subalgebra", "algebra_from_dict", "build_kn",
        "classify_algebra", "closed_open_elements", "conjugate_check",
        "dual_operator", "embeds", "extremal_operator", "identity_operator",
        "irreducibility", "operator_from_atom_values", "operator_from_sublattice",
        "operator_properties", "product", "quotient", "satisfies_depth2_axiom",
        "subalgebras", "unary_discriminator",
    ],
    "semantics": [
        "algebra_validates", "eval_in_algebra", "eval_in_model", "frame_validates",
        "premises_active", "quasiidentity_holds",
    ],
    "verify": ["SUITE_NAMES", "SUITES", "VerificationReport", "run_all", "run_suite"],
}
_PAIRS = [(module, name) for module, names in _EXPORTED.items() for name in names]


def test_export_count():
    assert len(_PAIRS) == 80
    assert sorted(depth2kit.__all__) == sorted(name for _, name in _PAIRS)


@pytest.mark.parametrize("module, name", _PAIRS, ids=[name for _, name in _PAIRS])
def test_exported_name(module, name):
    namespace = {}
    exec(f"from depth2kit import {name}", namespace)
    home = importlib.import_module(f"depth2kit.{module}")
    assert namespace[name] is getattr(home, name)
    assert getattr(depth2kit, name) is getattr(home, name)
    assert name in depth2kit.__all__
    assert name in dir(depth2kit)


def test_star_import():
    namespace = {}
    exec("from depth2kit import *", namespace)
    for module, name in _PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"depth2kit.{module}"),
                                          name)


def test_submodules_and_version():
    for module in (*_EXPORTED, "cli"):
        assert getattr(depth2kit, module) is importlib.import_module(f"depth2kit.{module}")
        assert module in dir(depth2kit)
    assert depth2kit.__version__ == "0.1.0"


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        depth2kit.no_such_name
    with pytest.raises(ImportError):
        exec("from depth2kit import no_such_name", {})
