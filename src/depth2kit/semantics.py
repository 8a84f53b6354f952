"""Evaluation of formulas in Kripke models and in modal algebras.

One term evaluator serves models, algebras and the validity searches: a
formula compiles once into closures (env, top, op) -> value that combine
values only with ``&``, ``|``, ``^``, ``top`` and the operator ``op``, so
the caller picks the algebra.  A model evaluates in its complex algebra
of world masks, where a world satisfies <>p when a successor satisfies
p; an algebra's atoms act as worlds whose successor rows transpose its
atom table.  Validity searches evaluate chunks of 2**16 valuations at
once in the direct power of the algebra, one factor per valuation,
stored transposed: one int per world whose bit i is its truth under
valuation i.  Budget and witness (the first failure in lexicographic
order of the sorted variable names) are those of a search valuation by
valuation.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_, xor
from typing import TYPE_CHECKING, Iterable, Mapping

from .boolean import atom_indices, transpose
from .errors import BindingError, BudgetError, DomainError
from .formulas import (BOTTOM, And, Bottom, Box, Diamond, Formula, Iff, Implies,
                       Not, Or, Top, Var, variables)

if TYPE_CHECKING:  # annotations only: evaluating formulas loads neither module
    from .frames import Frame
    from .operators import ModalAlgebra

DEFAULT_BUDGET = 1 << 24
_CHUNK_BITS = 16  # a chunk holds 2**16 valuations: 8 KiB per world


def _check_values(values: Mapping[str, int], top: int) -> None:
    for name, mask in values.items():
        if type(mask) is not int or not 0 <= mask <= top:
            raise DomainError(f"value {mask!r} of {name!r} is not in 0..{top}")


def _build(node):
    """The formula as nested closures (env, top, op) -> value, where env
    maps variable names to values, ``top`` is the algebra's top and ``op``
    its diamond.  A node that is not a formula fails with TypeError only
    when it is reached, so errors come in the order of a recursive walk."""
    kind = type(node)
    if kind is Var:
        name = node.name

        def var(env, top, op):
            try:
                return env[name]
            except KeyError:
                raise BindingError(f"variable {name!r} has no value") from None
        return var
    if kind is Top:
        return lambda env, top, op: top
    if kind is Bottom:
        return lambda env, top, op: top ^ top  # zero of the carrier's type
    if kind in (Not, Diamond, Box):
        a = _build(node.child)
        if kind is Not:
            return lambda env, top, op: top ^ a(env, top, op)
        if kind is Diamond:
            return lambda env, top, op: op(a(env, top, op))
        return lambda env, top, op: top ^ op(top ^ a(env, top, op))  # ~<>~a
    if kind in (And, Or, Implies, Iff):
        a, b = _build(node.left), _build(node.right)
        if kind is And:
            return lambda env, top, op: a(env, top, op) & b(env, top, op)
        if kind is Or:
            return lambda env, top, op: a(env, top, op) | b(env, top, op)
        if kind is Implies:
            return lambda env, top, op: (top ^ a(env, top, op)) | b(env, top, op)
        return lambda env, top, op: top ^ (a(env, top, op) ^ b(env, top, op))

    def fail(env, top, op):
        raise TypeError(f"not a formula node: {node!r}")
    return fail


_term = lru_cache(maxsize=1024)(_build)  # built once per formula


@lru_cache(maxsize=1024)
def _plan(formulas: tuple) -> tuple[list, list]:
    """Sorted variable names and term closures of (premises..., conclusion)."""
    return sorted(set().union(*map(variables, formulas))), [_term(f) for f in formulas]


def eval_in_model(frame: Frame, valuation: Mapping[str, int],
                  formula: Formula) -> int:
    """World-set of the formula in the model, as a bitmask."""
    top, rows = (1 << frame.n_worlds) - 1, frame.rows
    _check_values(valuation, top)

    def diamond(worlds):
        out, bit = 0, 1
        for row in rows:  # bit is 1 << x for world x
            if row & worlds:
                out |= bit
            bit <<= 1
        return out
    return _term(formula)(valuation, top, diamond)


def eval_in_algebra(algebra: ModalAlgebra, assignment: Mapping[str, int],
                    formula: Formula) -> int:
    """Value of the formula as an algebra term under the assignment."""
    _check_values(assignment, algebra.base.top)
    return _term(formula)(assignment, algebra.base.top, algebra.op)


class _Lanes(tuple):
    """A value in a chunk's direct power, transposed: entry w is world w's
    lane, whose bit i is its truth under valuation i of the chunk."""

    __slots__ = ()

    def __and__(self, other):
        return _Lanes(map(and_, self, other))

    def __or__(self, other):
        return _Lanes(map(or_, self, other))

    def __xor__(self, other):
        return _Lanes(map(xor, self, other))


@lru_cache(maxsize=None)  # one entry per chunk width, at most _CHUNK_BITS + 1
def _index_bits(width: int) -> tuple[int, ...]:
    """Entry b has bit i set exactly when bit b of i is set, for i < 2**width."""
    ones = (1 << (1 << width)) - 1
    return tuple(ones // ((1 << (1 << b)) + 1) << (1 << b) for b in range(width))


def _refutation(rows: list, premises: tuple, conclusion: Formula, budget):
    """First valuation (name -> world mask), in lexicographic order, under
    which every premise holds at every world and the conclusion fails at
    some; None if there is none.  ``rows[x]`` lists the successors of x."""
    names, terms = _plan((*premises, conclusion))
    n, k = len(rows), len(names)
    limit = DEFAULT_BUDGET if budget is None else budget
    if type(limit) is not int or limit < 1:  # bools are ints; refuse them
        raise DomainError(f"budget must be an integer >= 1, got {limit!r}")
    if (1 << n) ** k > limit:
        raise BudgetError(f"{1 << n}**{k} exceeds the evaluation budget {limit}; "
                          "raise the budget explicitly to proceed")
    width = min(n * k, _CHUNK_BITS)
    ones, inner = (1 << (1 << width)) - 1, _index_bits(width)
    top = _Lanes([ones] * n)

    def diamond(lanes):  # a world's lane: the OR of its successors' lanes
        out = []
        for r in rows:
            lane = 0
            for y in r:
                lane |= lanes[y]
            out.append(lane)
        return _Lanes(out)
    for chunk in range(1 << (n * k - width)):
        # index bit (k-1-j)*n + w: world w is in names[j]; bits >= width: chunk
        env = {name: _Lanes([inner[b] if b < width else ones * (chunk >> b - width & 1)
                             for b in range((k - 1 - j) * n, (k - j) * n)])
               for j, name in enumerate(names)}
        tops = [reduce(and_, term(env, top, diamond)) for term in terms]
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
