import json
import random
from functools import lru_cache

import pytest

from depth2kit.boolean import FiniteBA
from depth2kit.cli import main
from depth2kit import semantics, verify
from depth2kit.duality import canonical_frame
from depth2kit.errors import BudgetError, DomainError, SizeError
from depth2kit.formulas import And, Box, Diamond, Not, Or, rule_p2
from depth2kit.frames import MAX_ENUM_GENERAL, MAX_ENUM_QUASIORDER
from depth2kit.operators import (
    MAX_EMBED_ATOMS, MAX_SUBALGEBRA_ATOMS, ModalAlgebra, ModalOperator,
)
from depth2kit.verify import (
    MAX_SUITE_INSTANCES, SUITE_NAMES, SUITES, Suite, run_all, run_suite,
)
from test_semantics import ref_eval_in_model

# small bounds keep this module quick; the acceptance tests run the
# criterion-level defaults
SMALL = {"atoms": 2, "worlds": 3}


def small_params(name):
    return {k: v for k, v in SMALL.items() if k in SUITES[name].defaults}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_and_is_nonvacuous(name):
    report = run_suite(name, **small_params(name))
    assert report.passed, report.failures[:3]
    assert report.checked > 0
    assert report.suite == name


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_reports_are_reproducible(name):
    first = run_suite(name, **small_params(name))
    second = run_suite(name, **small_params(name))
    assert first.checked == second.checked
    assert first.failures == second.failures
    assert first.parameters == second.parameters


def test_unknown_suite_and_parameter():
    with pytest.raises(KeyError):
        run_suite("no_such_suite")
    with pytest.raises(KeyError):
        run_suite("table1", atoms=3)  # table1 only takes worlds


def test_report_serialization():
    report = run_suite("meets", atoms=2)
    data = json.loads(report.to_json())
    assert set(data) == {"suite", "params", "checked", "failures", "elapsed_ms"}
    assert data["suite"] == "meets"
    assert data["params"] == {"atoms": 2}
    assert data["failures"] == []
    assert "PASS" in report.summary()


def test_run_all_covers_every_suite():
    reports = run_all(atoms=2, worlds=2)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)
    assert all(r.checked > 0 for r in reports)


def test_suite_laws_are_documented():
    for suite in SUITES.values():
        assert suite.law and suite.defaults


@pytest.mark.parametrize("name, params", [
    ("conjugacy", {"worlds": 0, "atoms": 0}),
    ("table1", {"worlds": -2}),
    ("table1", {"worlds": True}),
    ("table1", {"worlds": 2.0}),
    ("meets", {"atoms": "2"}),
])
def test_bounds_must_be_positive_integers(name, params):
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        run_suite(name, **params)


@pytest.mark.parametrize("name, params", [
    ("kn_embedding", {"atoms": 1}),
    ("sum_and_union", {"atoms": 1}),
])
def test_run_that_checks_nothing_is_refused(name, params):
    with pytest.raises(DomainError, match="checks nothing"):
        run_suite(name, **params)


def test_verify_cli_refuses_vacuous_bounds(capsys):
    assert main(["verify", "--suite", "conjugacy", "--worlds", "0",
                 "--atoms", "0"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.fixture()
def entered(monkeypatch):
    """Replace every suite's generator by one that records its entry."""
    names = []

    def recording(name):
        def generate(p):
            names.append(name)
            yield (name, "", "", True)
        return generate

    for name, suite in SUITES.items():
        monkeypatch.setitem(SUITES, name, Suite(**{**vars(suite), "generate": recording(name)}))
    return names


@pytest.mark.parametrize("params", [{"atoms": 1}, {"worlds": 1, "atoms": 1}])
def test_run_all_refuses_a_vacuous_bound_before_any_suite(entered, params):
    with pytest.raises(DomainError, match="'sum_and_union' checks nothing"):
        run_all(**params)
    assert entered == []


def test_suite_minimum_is_checked_first(entered):
    for name in ("kn_embedding", "sum_and_union"):
        with pytest.raises(DomainError, match="needs atoms >= 2"):
            run_suite(name, atoms=1)
    assert entered == []
    run_all(atoms=2, worlds=1)
    assert entered == list(SUITE_NAMES)


@pytest.mark.parametrize("name, params", [
    ("duality_roundtrip", {"atoms": 5}),
    ("p2_quasiidentity", {"atoms": 5}),
    ("p2_quasiidentity", {"atoms": 10 ** 9}),
    ("conjugacy", {"worlds": 5}),
])
def test_cost_guard_refuses_before_any_work(entered, name, params):
    with pytest.raises(BudgetError, match=f"'{name}' .* more than {MAX_SUITE_INSTANCES}"):
        run_suite(name, **params)
    with pytest.raises(BudgetError):
        run_all(**params)
    assert entered == []


@pytest.mark.parametrize("name, params", [
    *((name, {}) for name in SUITE_NAMES),  # the defaults
    ("duality_roundtrip", {"atoms": 3, "worlds": 5}),  # bounds perfbench runs
    ("p2_quasiidentity", {"atoms": 4}),
    ("conjugacy", {"worlds": 4, "atoms": 4}),
])
def test_cost_guard_allows_defaults_and_benchmark_bounds(entered, name, params):
    assert run_suite(name, **params).checked == 1
    assert entered == [name]


_CAPS = [
    ("table1", "worlds", MAX_ENUM_GENERAL),
    ("duality_roundtrip", "worlds", MAX_ENUM_QUASIORDER),
    ("s42_equals_s43_depth2", "worlds", MAX_ENUM_QUASIORDER),
    ("lmeet_soundness", "worlds", MAX_ENUM_QUASIORDER),
    ("closure_properties", "atoms", MAX_SUBALGEBRA_ATOMS),
    ("kn_embedding", "atoms", MAX_EMBED_ATOMS),
]


@pytest.mark.parametrize("name, key, cap", _CAPS)
def test_library_cap_refuses_before_any_work(entered, capsys, name, key, cap):
    with pytest.raises(SizeError, match=f"'{name}' is bounded at {key}={cap}"):
        run_suite(name, **{key: cap + 1})
    # every over-cap bound of run_all is also over a suite's budget
    with pytest.raises(BudgetError):
        run_all(**{key: cap + 1})
    assert main(["verify", "--suite", name, f"--{key}", str(cap + 1)]) == 3
    assert main(["verify", f"--{key}", str(cap + 1)]) == 3
    assert entered == []
    assert run_suite(name, **{key: cap}).checked == 1
    assert entered == [name]


def test_run_all_refuses_a_capped_bound_before_any_suite(entered, monkeypatch):
    monkeypatch.setattr(verify, "MAX_SUITE_INSTANCES", 1 << 60)
    with pytest.raises(SizeError, match="'table1' is bounded at worlds=4"):
        run_all(worlds=5)
    assert entered == []


def test_cost_guard_counts_exactly_below_the_cap():
    assert SUITES["p2_quasiidentity"].cost({"atoms": 4}) == 2 + 16 + 512 + 65536
    assert SUITES["conjugacy"].cost({"worlds": 4, "atoms": 1}) == 2 + 16 + 512 + 65536
    assert SUITES["duality_roundtrip"].cost({"atoms": 5, "worlds": 1}) \
        > MAX_SUITE_INSTANCES


def test_verify_cli_refuses_costly_bounds(entered, capsys):
    assert main(["verify", "--suite", "duality_roundtrip", "--atoms", "5"]) == 3
    assert main(["verify", "--atoms", "5"]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("error:") for line in err)
    assert captured.out == "" and entered == []


# p2_quasiidentity checks premises_active against the premise's
# first-order meaning, which shares no code with the term compiler; so a
# compiler that builds one connective wrongly must fail activeness checks
_MISCOMPILED = {
    "diamond_as_box": lambda node: Box(node.child) if type(node) is Diamond else node,
    "and_as_or": lambda node: Or(node.left, node.right) if type(node) is And else node,
    "not_as_identity": lambda node: node.child if type(node) is Not else node,
}


@pytest.fixture
def fresh_terms():
    semantics._term.cache_clear()
    semantics._plan.cache_clear()
    yield
    semantics._term.cache_clear()
    semantics._plan.cache_clear()


@pytest.mark.parametrize("swap", _MISCOMPILED.values(), ids=list(_MISCOMPILED))
def test_p2_activeness_catches_a_miscompiled_connective(fresh_terms, monkeypatch, swap):
    build = semantics._build

    def miscompiled(node):
        swapped = swap(node)
        return build(node) if swapped is node else miscompiled(swapped)
    # _build builds children through the module global, _term the root
    monkeypatch.setattr(semantics, "_build", miscompiled)
    monkeypatch.setattr(semantics, "_term", lru_cache(maxsize=None)(miscompiled))
    report = run_suite("p2_quasiidentity", atoms=3)
    assert any(instance.startswith("activeness ")
               for instance, _, _ in report.failures)


def ref_activeness(algebra):
    """Model-check the premise on the canonical frame under every
    valuation of p, with test_semantics' evaluator."""
    frame = canonical_frame(algebra)
    top = (1 << frame.n_worlds) - 1
    (premise,) = rule_p2().premises
    return any(ref_eval_in_model(frame, {"p": mask}, premise) == top
               for mask in range(top + 1))


def test_first_order_oracle_matches_model_checking():
    algebras = list(verify._algebras_with_all_tables(3, closure_only=False))
    assert len(algebras) == 530
    rng = random.Random(13)
    ba = FiniteBA(4)
    algebras += [ModalAlgebra(ba, ModalOperator(tuple(rng.randrange(16) for _ in range(4))))
                 for _ in range(2000)]
    expected = [ref_activeness(a) for a in algebras]
    assert [verify._splits_every_row(canonical_frame(a).rows) for a in algebras] == expected
    assert set(expected[:530]) == set(expected[530:]) == {True, False}
