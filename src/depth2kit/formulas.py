"""Modal formula syntax: AST, parser, printer, axiom catalog, rules.

Surface syntax (ASCII): ``~`` negation, ``&`` conjunction, ``|``
disjunction, ``->`` implication (right associative), ``<->``
biconditional, ``<>`` possibility, ``[]`` necessity, ``1`` verum,
``0`` falsum.  The connective table below is the one place this syntax
is defined: the lexer, parser, printer and tree walks all read their
symbols, precedence and node classes from it.  Grammar::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | "<>" | "[]") unary | var | "1" | "0" | "(" formula ")"
    var     := [a-z][a-zA-Z0-9_]*

``[]`` is a primitive AST node rather than sugar for ``~<>~``; the
evaluator treats the two as equal, so axioms print exactly as catalogued.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, Record


class Formula(Record):
    """Base class for formula AST nodes, immutable ``Record``s.  A node
    keeps its structural hash in a slot once computed; pickles and copies
    leave it out, as string hashes differ from process to process."""

    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((type(self), *self.__dict__.values())))
            return self._hash

    def __getstate__(self) -> dict:
        return self.__dict__


class Var(Formula):
    name: str


class Top(Formula):
    pass


class Bottom(Formula):
    pass


class Not(Formula):
    child: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Iff(Formula):
    left: Formula
    right: Formula


class Diamond(Formula):
    child: Formula


class Box(Formula):
    child: Formula


TOP = Top()
BOTTOM = Bottom()


# --- The connective table: the one place the syntax is defined ---

# binary connectives loosest first, a connective's index being its
# precedence level; all but _RIGHT associate to the left
_BINARY = (("<->", Iff), ("->", Implies), ("|", Or), ("&", And))
_RIGHT = "->"
_PREFIX = {"~": Not, "<>": Diamond, "[]": Box}
_CONSTANTS = {"1": TOP, "0": BOTTOM}
_UNARY = len(_BINARY)  # prefix operators bind tighter than "&", constants tighter still
_SYNTAX = {  # node class -> (symbol, precedence level)
    **{cls: (symbol, level) for level, (symbol, cls) in enumerate(_BINARY)},
    **{cls: (symbol, _UNARY) for symbol, cls in _PREFIX.items()},
    **{type(node): (symbol, _UNARY + 1) for symbol, node in _CONSTANTS.items()},
}


def _children(node) -> list:
    """A node's fields in order: its subformulas, or a Var's name; nothing
    for constants.  A value that is not a node is refused."""
    if type(node) not in _SYNTAX and not isinstance(node, Var):
        raise TypeError(f"not a formula node: {node!r}")
    return [getattr(node, name) for name in type(node).__match_args__]


def variables(formula: Formula) -> frozenset[str]:
    """The set of variable names occurring in ``formula``."""
    out: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:  # leftmost first, so a bad node is met where print_formula meets it
            stack.extend(reversed(_children(node)))
    return frozenset(out)


# --- Lexer ---

_SYMBOLS = (*_PREFIX, *(symbol for symbol, _ in _BINARY), *_CONSTANTS, "(", ")")
# whitespace, a symbol (longest first), a variable, or a bad character
_TOKEN_RE = re.compile(r"\s+|(%s)|([a-z][a-zA-Z0-9_]*)|(\S)" % "|".join(
    map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, 1-based column) triples plus a final eof."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        symbol, name, bad = match.groups()
        col = match.start() + 1
        if bad:
            starts = [s for s in _SYMBOLS if len(s) > 1 and s[0] == bad]
            raise FormulaSyntaxError(
                f"{bad!r} must start {' or '.join(map(repr, starts))}" if starts
                else f"unexpected character {bad!r}", col, starts)
        if symbol or name:
            tokens.append((symbol or "var", symbol or name, col))
    tokens.append(("eof", "", len(text) + 1))
    return tokens


# Formulas nested deeper than this are refused, so that the parser and
# the recursive walkers (printer, model evaluation, equality, hashing)
# stay far below the interpreter's recursion limit.  Both the height of
# the syntax tree and the number of open groups, unary operators and
# "->" on the parser's current path are held to it.
MAX_NESTING = 64


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # unfinished groups, unary operators and "->"
        self.height = 0  # height of the formula parsed last

    def nest(self, level: int, tok: tuple[str, str, int]) -> int:
        if level > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nested more than {MAX_NESTING} levels deep", tok[2])
        return level

    def deeper(self, tok, parse, *args) -> Formula:
        """``parse(*args)`` inside one more open group, unary operator or "->"."""
        self.open = self.nest(self.open + 1, tok)
        node = parse(*args)
        self.open -= 1
        return node

    def grow(self, tok, height: int) -> None:
        """Take the height of a node over the formula parsed last and one of ``height``."""
        self.height = self.nest(max(height, self.height) + 1, tok)

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2], {kind})
        self.pos += 1
        return tok

    def binary(self, level: int) -> Formula:
        """A formula of ``_BINARY[level]`` or tighter-binding connectives."""
        if level == len(_BINARY):
            return self.unary()
        symbol, cls = _BINARY[level]
        node = self.binary(level + 1)
        while self.tokens[self.pos][0] == symbol:
            tok = self.take(symbol)
            height = self.height
            if symbol == _RIGHT:
                node = cls(node, self.deeper(tok, self.binary, level))
            else:
                node = cls(node, self.binary(level + 1))
            self.grow(tok, height)
        return node

    def unary(self) -> Formula:
        tok = kind, text, col = self.tokens[self.pos]
        if kind in _PREFIX:
            self.pos += 1
            node = _PREFIX[kind](self.deeper(tok, self.unary))
            self.grow(tok, 0)
            return node
        if kind == "(":
            self.pos += 1
            node = self.deeper(tok, self.binary, 0)
            self.take(")")
            return node
        leaf = Var(text) if kind == "var" else _CONSTANTS.get(kind)
        if leaf is None:
            raise FormulaSyntaxError(
                f"expected a formula, found {text or 'end of input'!r}", col,
                {"var", "(", *_CONSTANTS, *_PREFIX})
        self.pos += 1
        self.height = 1
        return leaf


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raise FormulaSyntaxError on bad input."""
    parser = _Parser(text)
    node = parser.binary(0)
    kind, rest, col = parser.tokens[parser.pos]
    if kind != "eof":
        raise FormulaSyntaxError(f"unexpected trailing {rest!r}", col, {"eof"})
    return node


# --- Printer ---


def _render(node: Formula, ctx: int) -> str:
    """``node`` as text, parenthesized if it binds looser than ``ctx``."""
    if isinstance(node, Var):
        return node.name
    children = _children(node)
    symbol, level = _SYNTAX[type(node)]
    if len(children) == 2:
        right = symbol == _RIGHT
        text = (_render(children[0], level + right) + f" {symbol} "
                + _render(children[1], level + 1 - right))
    else:  # a prefix operator or a constant
        text = symbol + _render(children[0], level) if children else symbol
    return "(" + text + ")" if level < ctx else text


def print_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f."""
    return _render(formula, 0)


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
    return type(node)(*[_rename(child, mapping, counter) for child in _children(node)])


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


class Rule(Record):
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
