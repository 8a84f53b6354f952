"""Evaluation of formulas in Kripke models and in modal algebras.

A world satisfies <>p when a successor satisfies p; an algebra's atoms
act as worlds whose successor rows transpose its atom table.  Validity
searches run a compiled formula over chunks of 2**16 valuations at once,
one int per world whose bit i is its truth under valuation i.  Budget and
witness (the first failure in lexicographic order of the sorted variable
names) are those of a search valuation by valuation.  ``eval_in_model``
evaluates one valuation by Kripke semantics, through closures built once
per formula: the reference for the searches.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_, xor
from typing import TYPE_CHECKING, Iterable, Mapping

from .boolean import atom_indices, transpose
from .errors import BindingError, BudgetError, DomainError
from .formulas import (BOTTOM, And, Bottom, Box, Diamond, Formula, Iff, Implies,
                       Not, Or, Top, Var)

if TYPE_CHECKING:  # annotations only: evaluating formulas loads neither module
    from .frames import Frame
    from .operators import ModalAlgebra

DEFAULT_BUDGET = 1 << 24
_CHUNK_BITS = 16  # a chunk holds 2**16 valuations: 8 KiB per world

# postfix per node kind: child attributes, then opcodes; "1", "^" negates
_POSTFIX = {
    Top: ("1",), Bottom: ("1", "1", "^"), Not: ("child", "1", "^"),
    Diamond: ("child", "<>"), Box: ("child", "1", "^", "<>", "1", "^"),
    And: ("left", "right", "&"), Or: ("left", "right", "|"),
    Implies: ("left", "1", "^", "right", "|"), Iff: ("left", "right", "^", "1", "^"),
}
_BINARY = {"&": and_, "|": or_, "^": xor}


def _check_values(values: Mapping[str, int], top: int) -> None:
    for name, mask in values.items():
        if type(mask) is not int or not 0 <= mask <= top:
            raise DomainError(f"value {mask!r} of {name!r} is not in 0..{top}")


def eval_in_model(frame: Frame, valuation: Mapping[str, int],
                  formula: Formula) -> int:
    """World-set of the formula in the model, as a bitmask."""
    top = (1 << frame.n_worlds) - 1
    _check_values(valuation, top)
    return _walker(formula)(valuation, frame.rows, top)


def _build(node):
    """The formula as nested closures (valuation, rows, top) -> world mask:
    Kripke semantics for one valuation.  A node that is not a formula
    fails with TypeError only when it is reached, so errors come in the
    order of a recursive walk."""
    kind = type(node)
    if kind is Var:
        name = node.name

        def var(valuation, rows, top):
            try:
                return valuation[name]
            except KeyError:
                raise BindingError(f"variable {name!r} has no value") from None
        return var
    if kind in (Top, Bottom):
        value = kind is Top
        return lambda v, rows, top: top if value else 0
    if kind in (Not, Diamond, Box):
        child = _build(node.child)
        if kind is Not:
            return lambda v, rows, top: top ^ child(v, rows, top)
        box = kind is Box

        def modal(valuation, rows, top):
            flip = top if box else 0  # []a is ~<>~a
            worlds = flip ^ child(valuation, rows, top)
            out, bit = 0, 1
            for row in rows:  # bit is 1 << x for world x
                if row & worlds:
                    out |= bit
                bit <<= 1
            return flip ^ out
        return modal
    if kind in (And, Or, Implies, Iff):
        a, b = _build(node.left), _build(node.right)
        if kind is And:
            return lambda v, rows, top: a(v, rows, top) & b(v, rows, top)
        if kind is Or:
            return lambda v, rows, top: a(v, rows, top) | b(v, rows, top)
        if kind is Implies:
            return lambda v, rows, top: (top ^ a(v, rows, top)) | b(v, rows, top)
        return lambda v, rows, top: top ^ (a(v, rows, top) ^ b(v, rows, top))

    def fail(valuation, rows, top):
        raise TypeError(f"not a formula node: {node!r}")
    return fail


_walker = lru_cache(maxsize=1024)(_build)  # built once per formula


@lru_cache(maxsize=1024)
def _compile(formula: Formula) -> tuple[tuple[str, ...], tuple]:
    """Sorted variable names and postfix program: Var nodes and opcodes."""
    code, stack = [], [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, (Var, str)):
            code.append(item)
        elif type(item) in _POSTFIX:
            stack += [getattr(item, part) if part.isidentifier() else part
                      for part in reversed(_POSTFIX[type(item)])]
        else:
            raise TypeError(f"not a formula node: {item!r}")
    return tuple(sorted({op.name for op in code if isinstance(op, Var)})), tuple(code)


@lru_cache(maxsize=None)  # one entry per chunk width, at most _CHUNK_BITS + 1
def _index_bits(width: int) -> tuple[int, ...]:
    """Entry b has bit i set exactly when bit b of i is set, for i < 2**width."""
    ones = (1 << (1 << width)) - 1
    return tuple(ones // ((1 << (1 << b)) + 1) << (1 << b) for b in range(width))


def _run(code: tuple, env: dict, rows: list, ones: int) -> list[int]:
    """Per world, the valuations of the chunk under which the program holds."""
    stack = []
    for op in code:
        if isinstance(op, Var):
            stack.append(env[op.name])
        elif op == "1":
            stack.append([ones] * len(rows))
        elif op == "<>":
            stack[-1] = [reduce(or_, map(stack[-1].__getitem__, r), 0) for r in rows]
        else:
            stack[-2:] = [list(map(_BINARY[op], *stack[-2:]))]
    return stack.pop()


def _refutation(rows: list, premises: tuple, conclusion: Formula, budget):
    """First valuation (name -> world mask), in lexicographic order, under
    which every premise holds at every world and the conclusion fails at
    some; None if there is none.  ``rows[x]`` lists the successors of x."""
    programs = [_compile(f) for f in (*premises, conclusion)]
    names = sorted(set().union(*(names for names, _ in programs)))
    n, k = len(rows), len(names)
    limit = DEFAULT_BUDGET if budget is None else budget
    if type(limit) is not int or limit < 1:  # bools are ints; refuse them
        raise DomainError(f"budget must be an integer >= 1, got {limit!r}")
    if (1 << n) ** max(k, 1) > limit:
        raise BudgetError(f"{1 << n}**{k} exceeds the evaluation budget {limit}; "
                          "raise the budget explicitly to proceed")
    width = min(n * k, _CHUNK_BITS)
    ones, inner = (1 << (1 << width)) - 1, _index_bits(width)
    for chunk in range(1 << (n * k - width)):
        # index bit (k-1-j)*n + w: world w is in names[j]; bits >= width: chunk
        env = {name: [inner[b] if b < width else ones * (chunk >> b - width & 1)
                      for b in range((k - 1 - j) * n, (k - j) * n)]
               for j, name in enumerate(names)}
        tops = [reduce(and_, _run(code, env, rows, ones)) for _, code in programs]
        found = reduce(and_, tops[:-1], ones) & ~tops[-1]
        if found:
            index = chunk << width | (found & -found).bit_length() - 1
            return {name: index >> (k - 1 - j) * n & (1 << n) - 1
                    for j, name in enumerate(names)}
    return None


def _atom_rows(algebra: ModalAlgebra) -> list:
    """Successors of each atom: atom i sees j exactly when i <= f(atom j)."""
    return [atom_indices(row) for row in transpose(algebra.op.atom_values)]


def frame_validates(frame: Frame, formula: Formula, budget: int | None = None):
    """(valid, falsifying valuation or None) over all valuations; the
    witness is the first failure in lexicographic order of the sorted
    variable names, whatever the partitioning of the search space."""
    witness = _refutation([tuple(atom_indices(r)) for r in frame.rows], (), formula, budget)
    return witness is None, witness


def eval_in_algebra(algebra: ModalAlgebra, assignment: Mapping[str, int],
                    formula: Formula) -> int:
    """Value of the formula as an algebra term under the assignment."""
    _check_values(assignment, algebra.base.top)
    names, code = _compile(formula)
    try:
        env = {name: [assignment[name] >> w & 1 for w in range(algebra.n_atoms)]
               for name in names}
    except KeyError as exc:
        raise BindingError(f"variable {exc.args[0]!r} has no value") from None
    return sum(bit << w for w, bit in enumerate(_run(code, env, _atom_rows(algebra), 1)))


def algebra_validates(algebra: ModalAlgebra, formula: Formula,
                      budget: int | None = None):
    """Whether the term equals top under every assignment."""
    witness = _refutation(_atom_rows(algebra), (), formula, budget)
    return witness is None, witness


def quasiidentity_holds(algebra: ModalAlgebra, premises: Iterable[Formula],
                        conclusion: Formula, budget: int | None = None):
    """Whether every assignment making all premises equal top makes the
    conclusion top: (holds, refuting assignment or None)."""
    witness = _refutation(_atom_rows(algebra), tuple(premises), conclusion, budget)
    return witness is None, witness


def premises_active(algebra: ModalAlgebra, premises: Iterable[Formula],
                    budget: int | None = None):
    """Whether some assignment makes all premises equal top: activeness in
    this finite algebra, not the logic-level notion over all substitutions."""
    witness = _refutation(_atom_rows(algebra), tuple(premises), BOTTOM, budget)
    return witness is not None, witness
