import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depth2kit.errors import FormulaSyntaxError
from depth2kit.formulas import (
    MAX_NESTING, And, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top, Var,
    axiom, meet_axiom, parse_formula, print_formula, rule_p2, variables,
)


def test_parse_basic():
    assert parse_formula("p -> <>p") == Implies(Var("p"), Diamond(Var("p")))
    assert parse_formula("~<>p & q") == And(Not(Diamond(Var("p"))), Var("q"))
    assert parse_formula("1") == Top()
    assert parse_formula("0") == Bottom()


def test_parse_precedence_and_associativity():
    assert parse_formula("a -> b -> c") == Implies(
        Var("a"), Implies(Var("b"), Var("c")))
    assert parse_formula("a & b | c") == Or(And(Var("a"), Var("b")), Var("c"))
    assert parse_formula("a <-> b <-> c") == Iff(Iff(Var("a"), Var("b")), Var("c"))
    assert parse_formula("[]<>p") == Box(Diamond(Var("p")))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(<p")
    assert err.value.position == 2
    assert err.value.expected  # nonempty expected-token set

    with pytest.raises(FormulaSyntaxError):
        parse_formula("p ->")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")


def test_nesting_cap():
    depth = MAX_NESTING
    at_cap = [
        "~" * (depth - 1) + "p",
        "(" * depth + "p" + ")" * depth,
        " & ".join(["p"] * depth),
        " -> ".join(["p"] * depth),
    ]
    for text in at_cap:
        formula = parse_formula(text)
        assert parse_formula(print_formula(formula)) == formula
    # the column is the operator or group that goes one level too deep
    too_deep = [
        ("~" * 5000 + "p", depth + 1),
        ("(" * 5000 + "p" + ")" * 5000, depth + 1),
        (" & ".join(["p"] * 5000), 4 * depth - 1),
        ("~" * depth + "p", 1),
    ]
    for text, column in too_deep:
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.position == column
        assert f"column {column}" in str(err.value)


def test_print_basic():
    assert print_formula(Diamond(Var("p"))) == "<>p"
    assert print_formula(Implies(Box(Var("p")), Diamond(Var("p")))) == "[]p -> <>p"
    assert print_formula(Iff(Var("a"), Iff(Var("b"), Var("c")))) == "a <-> (b <-> c)"
    assert print_formula(And(Not(Diamond(Var("p"))), Var("q"))) == "~<>p & q"


def test_axiom_catalog():
    assert print_formula(axiom("T")) == "p -> <>p"
    assert print_formula(axiom("B2")) == "<>([]q & <>[]p & ~p) -> q"
    assert print_formula(axiom("D")) == "[]p -> <>p"
    assert print_formula(axiom("Dum")) == "[]([](p -> []p) -> p) & <>[]p -> p"
    assert print_formula(axiom("Grz")) == "[](<>(p & <>~p) | p) -> p"
    assert print_formula(axiom("M")) == "[]<>p -> <>[]p"
    assert print_formula(axiom("R1")) == "p & <>[]p -> []p"
    assert print_formula(axiom("H3")) == "[]([]p -> q) | []([]q -> p)"
    # aliases
    assert axiom(".2") == axiom("G2")
    assert axiom(".3") == axiom("H3")
    assert axiom(".1") == axiom("M")
    with pytest.raises(KeyError):
        axiom("X9")


def test_meet_axiom_examples():
    combined = meet_axiom(axiom("T"), axiom("4"))
    assert print_formula(combined) == "[](v0 -> <>v0) | [](<><>v1 -> <>v1)"
    assert print_formula(meet_axiom(Top(), Top())) == "[]1 | []1"


def test_meet_axiom_disjoint_variables():
    for formula in (axiom("B2"), axiom("Dum"), axiom("K")):
        combined = meet_axiom(formula, formula)
        assert isinstance(combined, Or)
        left_vars = variables(combined.left)
        right_vars = variables(combined.right)
        assert left_vars and right_vars
        assert not left_vars & right_vars


def test_rule_p2():
    rule = rule_p2()
    assert len(rule.premises) == 1
    assert print_formula(rule.premises[0]) == "<>p & <>~p"
    assert rule.conclusion == Bottom()
    assert str(rule) == "<>p & <>~p / 0"


_names = st.sampled_from(["p", "q", "r", "ab1", "x_y"])
_formulas = st.deferred(
    lambda: st.one_of(
        st.builds(Var, _names),
        st.just(Top()),
        st.just(Bottom()),
        st.builds(Not, _formulas),
        st.builds(Diamond, _formulas),
        st.builds(Box, _formulas),
        st.builds(And, _formulas, _formulas),
        st.builds(Or, _formulas, _formulas),
        st.builds(Implies, _formulas, _formulas),
        st.builds(Iff, _formulas, _formulas),
    )
)


@given(_formulas)
def test_print_parse_round_trip(formula):
    assert parse_formula(print_formula(formula)) == formula


@given(_formulas)
def test_print_is_whitespace_normal(formula):
    text = print_formula(formula)
    assert parse_formula(" " + text.replace(" ", "  ") + " ") == formula


@settings(max_examples=40)
@given(_formulas)
def test_equal_formulas_hash_equal(formula):
    twin = parse_formula(print_formula(formula))
    assert twin == formula and twin is not formula
    assert hash(twin) == hash(formula)
    assert hash(formula) == hash(formula)  # the cached value
    for copied in (copy.copy(formula), copy.deepcopy(formula),
                   pickle.loads(pickle.dumps(formula))):
        assert copied == formula and hash(copied) == hash(formula)
    assert {formula: 1}[twin] == 1


_HASH_IN_CHILD = """
import pickle, sys
from depth2kit.formulas import parse_formula
formula = parse_formula("<>p & <>~p -> [](q | r)")
if sys.argv[1] == "dump":
    hash(formula)  # fill the cache before pickling
    sys.stdout.write(pickle.dumps(formula).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    assert loaded == formula and hash(loaded) == hash(formula)
    assert hash(loaded.left) == hash(formula.left)
    assert {formula: 1}[loaded] == 1
"""


def test_hash_survives_pickle_across_processes():
    # string hashes are salted per process: a pickled cached hash would
    # be stale in a process with another seed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")])}
    dumped = subprocess.run(
        [sys.executable, "-c", _HASH_IN_CHILD, "dump"], capture_output=True,
        text=True, check=True, env={**env, "PYTHONHASHSEED": "1"}).stdout
    subprocess.run([sys.executable, "-c", _HASH_IN_CHILD, "load"], input=dumped,
                   text=True, check=True, env={**env, "PYTHONHASHSEED": "2"})
