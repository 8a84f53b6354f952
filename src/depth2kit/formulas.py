"""Modal formula syntax: AST, parser, printer, axiom catalog, rules.

Surface syntax (ASCII): ``~`` negation, ``&`` conjunction, ``|``
disjunction, ``->`` implication (right associative), ``<->``
biconditional, ``<>`` possibility, ``[]`` necessity, ``1`` verum,
``0`` falsum.  Grammar::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | "<>" | "[]") unary | atom
    atom    := var | "1" | "0" | "(" formula ")"
    var     := [a-z][a-zA-Z0-9_]*

``[]`` is a primitive AST node rather than sugar for ``~<>~``; the
evaluator treats the two as equal, so axioms print exactly as catalogued.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError


class Formula:
    """Base class for formula AST nodes.  A node keeps its structural hash
    once computed; pickles and copies leave it out, as string hashes
    differ from process to process."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self) -> int:
        state = self.__dict__
        if "_hash" not in state:
            object.__setattr__(self, "_hash", hash((type(self), *state.values())))
        return state["_hash"]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _node(cls):
    """A frozen dataclass node that keeps the cached ``Formula.__hash__``."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Var(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Diamond(Formula):
    child: Formula


@_node
class Box(Formula):
    child: Formula


TOP = Top()
BOTTOM = Bottom()


def variables(formula: Formula) -> frozenset[str]:
    """The set of variable names occurring in ``formula``."""
    out: set[str] = set()
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


# --- Lexer ---

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# token kinds: ( ) ~ & | -> <-> <> [] 1 0 var eof


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, 1-based column) triples plus a final eof."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "()~&|10":
            kind = {"(": "(", ")": ")", "~": "~", "&": "&", "|": "|",
                    "1": "1", "0": "0"}[ch]
            tokens.append((kind, ch, col))
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
        m = _VAR_RE.match(text, i)
        if m:
            tokens.append(("var", m.group(), col))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(("eof", "", n + 1))
    return tokens


# Formulas nested deeper than this are refused, so that the parser and
# the recursive walkers (printer, model evaluation, equality, hashing)
# stay far below the interpreter's recursion limit.  Both the height of
# the syntax tree and the number of open groups, unary operators and
# "->" on the parser's current path are held to it.
MAX_NESTING = 64

_PREFIX = {"~": Not, "<>": Diamond, "[]": Box}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # unfinished groups, unary operators and "->"
        self.height = 0  # height of the formula parsed last

    def nest(self, level: int, tok: tuple[str, str, int]) -> int:
        if level > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nested more than {MAX_NESTING} levels deep", tok[2]
            )
        return level

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2], {kind},
            )
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        node = self.iff()
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError(
                f"unexpected trailing {tok[1]!r}", tok[2], {"eof"}
            )
        return node

    def iff(self) -> Formula:
        node = self.imp()
        height = self.height
        while self.peek()[0] == "<->":
            tok = self.take("<->")
            node = Iff(node, self.imp())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def imp(self) -> Formula:
        node = self.disj()
        if self.peek()[0] == "->":
            tok = self.take("->")
            height = self.height
            self.open = self.nest(self.open + 1, tok)
            node = Implies(node, self.imp())  # right associative
            self.open -= 1
            self.height = self.nest(max(height, self.height) + 1, tok)
        return node

    def disj(self) -> Formula:
        node = self.conj()
        height = self.height
        while self.peek()[0] == "|":
            tok = self.take("|")
            node = Or(node, self.conj())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def conj(self) -> Formula:
        node = self.unary()
        height = self.height
        while self.peek()[0] == "&":
            tok = self.take("&")
            node = And(node, self.unary())
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind not in _PREFIX:
            return self.atom()
        tok = self.take(kind)
        self.open = self.nest(self.open + 1, tok)
        node = _PREFIX[kind](self.unary())
        self.open -= 1
        self.height = self.nest(self.height + 1, tok)
        return node

    def atom(self) -> Formula:
        kind, text, col = self.peek()
        self.height = 1
        if kind == "var":
            self.take("var")
            return Var(text)
        if kind == "1":
            self.take("1")
            return TOP
        if kind == "0":
            self.take("0")
            return BOTTOM
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


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raise FormulaSyntaxError on bad input."""
    return _Parser(text).parse()


# --- Printer ---

# precedence levels; higher binds tighter
_IFF, _IMP, _OR, _AND, _UNARY, _ATOM = range(1, 7)


def _render(node: Formula, ctx: int) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Top):
        return "1"
    if isinstance(node, Bottom):
        return "0"
    if isinstance(node, Not):
        return _wrap("~" + _render(node.child, _UNARY), _UNARY, ctx)
    if isinstance(node, Diamond):
        return _wrap("<>" + _render(node.child, _UNARY), _UNARY, ctx)
    if isinstance(node, Box):
        return _wrap("[]" + _render(node.child, _UNARY), _UNARY, ctx)
    if isinstance(node, And):
        s = _render(node.left, _AND) + " & " + _render(node.right, _AND + 1)
        return _wrap(s, _AND, ctx)
    if isinstance(node, Or):
        s = _render(node.left, _OR) + " | " + _render(node.right, _OR + 1)
        return _wrap(s, _OR, ctx)
    if isinstance(node, Implies):
        s = _render(node.left, _IMP + 1) + " -> " + _render(node.right, _IMP)
        return _wrap(s, _IMP, ctx)
    if isinstance(node, Iff):
        s = _render(node.left, _IFF) + " <-> " + _render(node.right, _IFF + 1)
        return _wrap(s, _IFF, ctx)
    raise TypeError(f"not a formula node: {node!r}")


def _wrap(s: str, level: int, ctx: int) -> str:
    return "(" + s + ")" if level < ctx else s


def print_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f."""
    return _render(formula, _IFF)


# --- Axiom catalog ---

_AXIOM_TEXT = {
    "K": "[](p -> q) -> ([]p -> []q)",
    "D": "[]p -> <>p",
    "T": "p -> <>p",
    "4": "<><>p -> <>p",
    "B": "p -> []<>p",
    "B2": "<>([]q & <>[]p & ~p) -> q",
    "Dum": "[]([](p -> []p) -> p) & <>[]p -> p",
    "Grz": "[](<>(p & <>~p) | p) -> p",
    "M": "[]<>p -> <>[]p",
    "G2": "<>[]p -> []<>p",
    "H3": "[]([]p -> q) | []([]q -> p)",
    "R1": "p & <>[]p -> []p",
}

_AXIOM_ALIASES = {
    ".1": "M",
    "G": "G2",
    ".2": "G2",
    "H": "H3",
    ".3": "H3",
}

AXIOM_NAMES = tuple(_AXIOM_TEXT)

_axiom_cache: dict[str, Formula] = {}


def axiom(name: str) -> Formula:
    """Look up a named axiom; raises KeyError for unknown names."""
    canonical = _AXIOM_ALIASES.get(name, name)
    if canonical not in _AXIOM_TEXT:
        raise KeyError(f"unknown axiom {name!r}; known: {', '.join(AXIOM_NAMES)}")
    if canonical not in _axiom_cache:
        _axiom_cache[canonical] = parse_formula(_AXIOM_TEXT[canonical])
    return _axiom_cache[canonical]


# --- Variable-disjoint disjunction of necessitations ---


def _rename(node: Formula, mapping: dict[str, str], counter: list[int]) -> Formula:
    if isinstance(node, Var):
        if node.name not in mapping:
            mapping[node.name] = f"v{counter[0]}"
            counter[0] += 1
        return Var(mapping[node.name])
    if isinstance(node, (Top, Bottom)):
        return node
    if isinstance(node, Not):
        return Not(_rename(node.child, mapping, counter))
    if isinstance(node, Diamond):
        return Diamond(_rename(node.child, mapping, counter))
    if isinstance(node, Box):
        return Box(_rename(node.child, mapping, counter))
    if isinstance(node, And):
        return And(_rename(node.left, mapping, counter),
                   _rename(node.right, mapping, counter))
    if isinstance(node, Or):
        return Or(_rename(node.left, mapping, counter),
                  _rename(node.right, mapping, counter))
    if isinstance(node, Implies):
        return Implies(_rename(node.left, mapping, counter),
                       _rename(node.right, mapping, counter))
    if isinstance(node, Iff):
        return Iff(_rename(node.left, mapping, counter),
                   _rename(node.right, mapping, counter))
    raise TypeError(f"not a formula node: {node!r}")


def meet_axiom(left: Formula, right: Formula) -> Formula:
    """``[]left' | []right'`` with the two sides renamed variable-disjoint.

    Variables are renamed to v0, v1, ... in first-occurrence order, the
    right side continuing where the left side stopped, so the output is
    deterministic and the two sides never share a variable.
    """
    counter = [0]
    left_renamed = _rename(left, {}, counter)
    right_renamed = _rename(right, {}, counter)
    return Or(Box(left_renamed), Box(right_renamed))


# --- Inference rules ---


@dataclass(frozen=True)
class Rule:
    """An inference rule: premises over a conclusion."""

    premises: tuple[Formula, ...]
    conclusion: Formula

    def __str__(self) -> str:
        joined = ", ".join(print_formula(p) for p in self.premises)
        return f"{joined} / {print_formula(self.conclusion)}"


def rule_p2() -> Rule:
    """The passive rule with premise ``<>p & <>~p`` and conclusion ``0``."""
    return Rule(
        premises=(And(Diamond(Var("p")), Diamond(Not(Var("p")))),),
        conclusion=BOTTOM,
    )
