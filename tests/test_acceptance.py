"""Acceptance battery: one test per criterion, each exact (zero failures).

Every check is an exhaustive enumeration within its stated bounds; run
with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random

from test_frames import edge_canon, oracle_quasiorder_classes

from depth2kit.boolean import FiniteBA
from depth2kit.formulas import (
    And, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top, Var,
    parse_formula, print_formula,
)
from depth2kit.frames import enumerate_frames
from depth2kit.operators import ModalAlgebra, conjugate_check, extremal_operator
from depth2kit.verify import run_suite


def _report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {description}: {verdict}{detail}")
    assert ok, f"criterion {number} ({description}) failed{detail}"


def _suite_criterion(number, description, name, minimum_checked=1, **params):
    report = run_suite(name, **params)
    detail = f" ({report.checked} instances)"
    if report.failures:
        detail += f"; first failure: {report.failures[0]}"
    ok = report.passed and report.checked >= minimum_checked
    _report(number, description, ok, detail)
    return report


def test_criterion_01_duality_round_trip():
    _suite_criterion(
        1, "duality round trips on algebras (<=3 atoms) and quasiorders "
        "(<=4 worlds)", "duality_roundtrip", atoms=3, worlds=4,
    )


def test_criterion_02_axiom_condition_table():
    report = _suite_criterion(
        2, "axiom/frame-condition correspondences on all frames <= 4 worlds",
        "table1", minimum_checked=3000, worlds=4,
    )
    assert report.checked >= 3000


def test_criterion_03_convergence_equals_linearity_at_depth_two():
    _suite_criterion(
        3, "convergent <=> linear on depth-two quasiorders <= 5 worlds",
        "s42_equals_s43_depth2", worlds=5,
    )


def test_criterion_04_canonical_shapes():
    _suite_criterion(
        4, "canonical frames of all four families have their two-level "
        "shapes (<=4 atoms)", "canonical_shapes", atoms=4,
    )


def test_criterion_05_si_characterizations():
    _suite_criterion(
        5, "subdirect-irreducibility characterizations (<=4 atoms)",
        "si_characterizations", atoms=4,
    )


def test_criterion_06_closure_properties():
    _suite_criterion(
        6, "quotients stay in family; ii subalgebras stay ii (<=4 atoms)",
        "closure_properties", atoms=4,
    )


def test_criterion_07_sum_and_union_laws():
    _suite_criterion(
        7, "iu + ui = uu pointwise and on canonical relations (<=4 atoms)",
        "sum_and_union", atoms=4,
    )


def test_criterion_08_conjugacy():
    report = _suite_criterion(
        8, "converse-frame conjugacy (<=4 worlds) and iu/ui conjugacy at "
        "complementary parameters (<=4 atoms)", "conjugacy",
        worlds=4, atoms=4,
    )
    # the pairing must complement the parameter: at a shared parameter
    # with both levels inhabited, conjugacy is refutable
    ba = FiniteBA(2)
    same = conjugate_check(
        ModalAlgebra(ba, extremal_operator("iu", ba, 1)),
        extremal_operator("ui", ba, 1),
    )
    assert same == (False, (1, 2))


def test_criterion_09_meets():
    _suite_criterion(
        9, "four-family membership of the 4-element chain algebra; shared "
        "uu/ui presentations force equal antiatoms (<=4 atoms)",
        "meets", atoms=4,
    )


def test_criterion_10_kn_embeddings():
    _suite_criterion(
        10, "k3 avoids ui algebras, k4 avoids ii algebras, k2 embeds into "
        "nontrivial uu algebras (<=4 atoms)", "kn_embedding", atoms=4,
    )


def test_criterion_11_passive_rule_quasiidentity():
    _suite_criterion(
        11, "passive-rule quasiidentity: vacuous on 2, refuted on simple "
        "algebras, activeness matches the premise's first-order meaning on "
        "the canonical frame (<=3 atoms)",
        "p2_quasiidentity", atoms=3,
    )


def _random_formula(rng, depth):
    choices = ["var", "top", "bottom"]
    if depth > 0:
        choices += ["not", "and", "or", "implies", "iff", "diamond", "box"] * 2
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.choice(["p", "q", "r", "s", "t0", "u_v"]))
    if kind == "top":
        return Top()
    if kind == "bottom":
        return Bottom()
    if kind == "not":
        return Not(_random_formula(rng, depth - 1))
    if kind == "diamond":
        return Diamond(_random_formula(rng, depth - 1))
    if kind == "box":
        return Box(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind](left, right)


def test_criterion_12_parser_round_trip():
    rng = random.Random(0xD2)
    count = 10_000
    for _ in range(count):
        formula = _random_formula(rng, depth=6)
        assert parse_formula(print_formula(formula)) == formula
    _report(12, f"{count} randomized ASTs round-trip through print/parse",
            True, f" ({count} instances)")


def test_criterion_13_enumeration_counts():
    expected = {1: 1, 2: 3, 3: 9}
    ok = True
    for n, count in expected.items():
        oracle = oracle_quasiorder_classes(n)
        frames = enumerate_frames(n, quasiorder=True)
        ok = ok and len(oracle) == count and len(frames) == count
        ok = ok and {edge_canon(f) for f in frames} == oracle
    _report(13, "quasiorder counts 1/3/9 match the matrix-filter oracle", ok)
