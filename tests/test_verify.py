import json

import pytest

from depth2kit.cli import main
from depth2kit.errors import DomainError
from depth2kit.verify import SUITE_NAMES, SUITES, run_all, run_suite

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
