import copy
import os
import pickle
import random
import re
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


# --- Differential test against the per-connective implementation ---
#
# ref_tokenize, ref_Parser, ref_render, ref_rename and ref_variables are
# the lexer, parser, printer and tree walks as they were before the
# connective table, one branch or method per connective.  They are the
# oracle the table-driven module is compared against.

_REF_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


def ref_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "()~&|10":
            tokens.append((ch, ch, col))
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                tokens.append(("->", "->", col))
                i += 2
                continue
            raise FormulaSyntaxError("'-' must start '->'", col, {"->"})
        if ch == "<":
            if text.startswith("<->", i):
                tokens.append(("<->", "<->", col))
                i += 3
                continue
            if text.startswith("<>", i):
                tokens.append(("<>", "<>", col))
                i += 2
                continue
            raise FormulaSyntaxError("'<' must start '<>' or '<->'", col,
                                     {"<>", "<->"})
        if ch == "[":
            if text.startswith("[]", i):
                tokens.append(("[]", "[]", col))
                i += 2
                continue
            raise FormulaSyntaxError("'[' must start '[]'", col, {"[]"})
        m = _REF_VAR_RE.match(text, i)
        if m:
            tokens.append(("var", m.group(), col))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(("eof", "", n + 1))
    return tokens


_REF_PREFIX = {"~": Not, "<>": Diamond, "[]": Box}


class ref_Parser:
    def __init__(self, text):
        self.tokens = ref_tokenize(text)
        self.pos = 0
        self.open = 0
        self.height = 0

    def nest(self, level, tok):
        if level > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nested more than {MAX_NESTING} levels deep", tok[2]
            )
        return level

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2], {kind},
            )
        self.pos += 1
        return tok

    def parse(self):
        node = self.iff()
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError(
                f"unexpected trailing {tok[1]!r}", tok[2], {"eof"}
            )
        return node

    def iff(self):
        node = self.imp()
        height = self.height
        while self.peek()[0] == "<->":
            tok = self.take("<->")
            node = Iff(node, self.imp())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def imp(self):
        node = self.disj()
        if self.peek()[0] == "->":
            tok = self.take("->")
            height = self.height
            self.open = self.nest(self.open + 1, tok)
            node = Implies(node, self.imp())
            self.open -= 1
            self.height = self.nest(max(height, self.height) + 1, tok)
        return node

    def disj(self):
        node = self.conj()
        height = self.height
        while self.peek()[0] == "|":
            tok = self.take("|")
            node = Or(node, self.conj())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def conj(self):
        node = self.unary()
        height = self.height
        while self.peek()[0] == "&":
            tok = self.take("&")
            node = And(node, self.unary())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def unary(self):
        kind = self.peek()[0]
        if kind not in _REF_PREFIX:
            return self.atom()
        tok = self.take(kind)
        self.open = self.nest(self.open + 1, tok)
        node = _REF_PREFIX[kind](self.unary())
        self.open -= 1
        self.height = self.nest(self.height + 1, tok)
        return node

    def atom(self):
        kind, text, col = self.peek()
        self.height = 1
        if kind == "var":
            self.take("var")
            return Var(text)
        if kind == "1":
            self.take("1")
            return Top()
        if kind == "0":
            self.take("0")
            return Bottom()
        if kind == "(":
            tok = self.take("(")
            self.open = self.nest(self.open + 1, tok)
            node = self.iff()
            self.take(")")
            self.open -= 1
            return node
        raise FormulaSyntaxError(
            f"expected a formula, found {text or 'end of input'!r}",
            col, {"var", "1", "0", "(", "~", "<>", "[]"},
        )


_R_IFF, _R_IMP, _R_OR, _R_AND, _R_UNARY = range(1, 6)


def ref_render(node, ctx):
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Top):
        return "1"
    if isinstance(node, Bottom):
        return "0"
    if isinstance(node, Not):
        return ref_wrap("~" + ref_render(node.child, _R_UNARY), _R_UNARY, ctx)
    if isinstance(node, Diamond):
        return ref_wrap("<>" + ref_render(node.child, _R_UNARY), _R_UNARY, ctx)
    if isinstance(node, Box):
        return ref_wrap("[]" + ref_render(node.child, _R_UNARY), _R_UNARY, ctx)
    if isinstance(node, And):
        s = ref_render(node.left, _R_AND) + " & " + ref_render(node.right, _R_AND + 1)
        return ref_wrap(s, _R_AND, ctx)
    if isinstance(node, Or):
        s = ref_render(node.left, _R_OR) + " | " + ref_render(node.right, _R_OR + 1)
        return ref_wrap(s, _R_OR, ctx)
    if isinstance(node, Implies):
        s = ref_render(node.left, _R_IMP + 1) + " -> " + ref_render(node.right, _R_IMP)
        return ref_wrap(s, _R_IMP, ctx)
    if isinstance(node, Iff):
        s = ref_render(node.left, _R_IFF) + " <-> " + ref_render(node.right, _R_IFF + 1)
        return ref_wrap(s, _R_IFF, ctx)
    raise TypeError(f"not a formula node: {node!r}")


def ref_wrap(s, level, ctx):
    return "(" + s + ")" if level < ctx else s


def ref_rename(node, mapping, counter):
    if isinstance(node, Var):
        if node.name not in mapping:
            mapping[node.name] = f"v{counter[0]}"
            counter[0] += 1
        return Var(mapping[node.name])
    if isinstance(node, (Top, Bottom)):
        return node
    if isinstance(node, Not):
        return Not(ref_rename(node.child, mapping, counter))
    if isinstance(node, Diamond):
        return Diamond(ref_rename(node.child, mapping, counter))
    if isinstance(node, Box):
        return Box(ref_rename(node.child, mapping, counter))
    if isinstance(node, And):
        return And(ref_rename(node.left, mapping, counter),
                   ref_rename(node.right, mapping, counter))
    if isinstance(node, Or):
        return Or(ref_rename(node.left, mapping, counter),
                  ref_rename(node.right, mapping, counter))
    if isinstance(node, Implies):
        return Implies(ref_rename(node.left, mapping, counter),
                       ref_rename(node.right, mapping, counter))
    if isinstance(node, Iff):
        return Iff(ref_rename(node.left, mapping, counter),
                   ref_rename(node.right, mapping, counter))
    raise TypeError(f"not a formula node: {node!r}")


def ref_variables(formula):
    out = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Not, Diamond, Box)):
            stack.append(node.child)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


def ref_meet_axiom(left, right):
    counter = [0]
    left_renamed = ref_rename(left, {}, counter)
    return Or(Box(left_renamed), Box(ref_rename(right, {}, counter)))


def _outcome(function, *args):
    """The value, or the error's type, text, column and expected set."""
    try:
        return "ok", function(*args)
    except FormulaSyntaxError as exc:
        return "error", type(exc), str(exc), exc.position, exc.expected
    except TypeError as exc:
        return "error", type(exc), str(exc)


def _assert_same_parse(text):
    parsed = _outcome(parse_formula, text)
    assert parsed == _outcome(lambda t: ref_Parser(t).parse(), text), text
    return parsed


def _assert_same(text):
    """Same parse and, if it parses, same walks; whether it parsed."""
    parsed = _assert_same_parse(text)
    if parsed[0] == "ok":
        _assert_same_walks(parsed[1])
    return parsed[0] == "ok"


def _assert_same_walks(formula):
    assert _outcome(print_formula, formula) == _outcome(ref_render, formula, 1)
    assert _outcome(variables, formula) == _outcome(ref_variables, formula)
    assert (_outcome(meet_axiom, formula, formula)
            == _outcome(ref_meet_axiom, formula, formula))


_GOOD_PIECES = ["p", "q", "r1", "x_Y", "~", "&", "|", "->", "<->", "<>", "[]",
                "(", ")", "1", "0", " "]
_BAD_PIECES = ["-", "<", "[", "]", ">", "<-", "A", "$"]


def test_random_strings_match_reference():
    rng = random.Random(7)
    parsed = 0
    for i in range(100_000):
        pieces = _GOOD_PIECES + _BAD_PIECES if i % 2 else _GOOD_PIECES
        parsed += _assert_same("".join(rng.choices(pieces, k=rng.randrange(13))))
    assert parsed > 1_000  # the corpus reaches the parser's success path


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var("p"), Var("q"), Var("r1"), Var("x_Y"), Top(), Bottom()])
    cls = rng.choice([Not, Diamond, Box, And, Or, Implies, Iff])
    if cls in (Not, Diamond, Box):
        return cls(_random_formula(rng, depth - 1))
    return cls(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_random_formulas_match_reference():
    rng = random.Random(11)
    for _ in range(20_000):
        formula = _random_formula(rng, rng.randrange(1, 7))
        _assert_same_walks(formula)
        text = ref_render(formula, 1)
        assert _assert_same_parse(text) == ("ok", formula)
        assert _assert_same_parse("(" + text.replace(" ", "") + ")") == ("ok", formula)


def test_deep_chains_match_reference():
    for depth in range(63, 71):
        for symbol in ("<->", "->", "|", "&"):
            _assert_same(f" {symbol} ".join(["p"] * depth))
            _assert_same(f"(p {symbol} " * depth + "p" + ")" * depth)
        for symbol in ("~", "<>", "[]"):
            _assert_same(symbol * depth + "p")
            _assert_same(f"({symbol}" * depth + "p" + ")" * depth)
        _assert_same("(" * depth + "p" + ")" * depth)


def test_non_formula_leaves_match_reference():
    leaves = ["x", 5, None, Not]
    for leaf in leaves:
        for formula in (Not(leaf), Box(Diamond(leaf)), And(Var("p"), leaf),
                        Implies(leaf, Var("q")), Iff(Top(), Or(leaf, Bottom()))):
            # variables refuses a non-formula child as the printer does,
            # where ref_variables skipped it
            assert _outcome(print_formula, formula) == _outcome(ref_render, formula, 1)
            assert _outcome(variables, formula) == _outcome(ref_render, formula, 1)
            assert (_outcome(meet_axiom, formula, formula)
                    == _outcome(ref_meet_axiom, formula, formula))
            assert (_outcome(meet_axiom, Var("p"), formula)
                    == _outcome(ref_meet_axiom, Var("p"), formula))


def test_variables_reports_the_leftmost_non_formula_child():
    # with two bad children, variables names the one the printer meets first
    for formula in (And(Not("x"), Or(Var("p"), 5)), Implies(Box(None), Iff("y", Top())),
                    Or(Or(Var("q"), Diamond(Not)), "z")):
        assert _outcome(variables, formula) == _outcome(print_formula, formula)
        assert _outcome(variables, formula)[0] == "error"
