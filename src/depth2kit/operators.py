"""Modal operators on finite Boolean algebras and their classification.

An operator is stored by its values on atoms only; finite additivity
forces the value at any element to be the join of the atom values below
it, so the atom table determines the whole operator.  The four extremal
closure-operator families are parametrized by one element each:

    iu   f(x) = x for x <= a, else top           (closed: ideal + top)
    ui   f(0) = 0, f(x) = a + x otherwise        (closed: 0 + filter)
    uu   f(0) = 0, f(x) = a for 0 < x <= a, else top   (closed: 0, a, top)
    ii   f(x) = x for x <= b, else b + x         (closed: below b or above b)

The kind names record whether the canonical relation restricted to the
lower/upper level is the identity or the universal relation.
"""

from __future__ import annotations

import enum
from itertools import product as iter_product

from .boolean import FiniteBA, MAX_ATOMS, atom_indices
from .errors import (
    DomainError,
    NoClosureError,
    PreconditionError,
    Record,
    SizeError,
    TrivialityError,
)

MAX_SUBALGEBRA_ATOMS = 4
MAX_EMBED_ATOMS = 4
MAX_KN = 6
MAX_CLASSIFY_ATOMS = 12  # the GMA loop is about 3**n work in the worst case


class ModalOperator(Record):
    """A normal additive operator, stored by its values on atoms."""

    atom_values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.atom_values)
        if not 1 <= n <= MAX_ATOMS:
            raise SizeError(f"operator needs 1..{MAX_ATOMS} atom values, got {n}")
        top = (1 << n) - 1
        for v in self.atom_values:
            if not 0 <= v <= top:
                raise DomainError(f"atom value {v} out of range for {n} atoms")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_values)

    @property
    def top(self) -> int:
        return (1 << self.n_atoms) - 1

    def __call__(self, x: int) -> int:
        value = 0
        for i in atom_indices(x):
            value |= self.atom_values[i]
        return value

    def dual_value(self, x: int) -> int:
        return self.top ^ self(self.top ^ x)

    def table(self) -> tuple[int, ...]:
        return tuple(self(x) for x in range(1 << self.n_atoms))


class DualOperator(Record):
    """The dual x -> -f(-x) of a stored operator.

    The dual of an additive operator is multiplicative, not additive,
    so it cannot itself be stored by atom values; it wraps the original
    and evaluates pointwise.  ``dual`` undoes the wrapping exactly.
    """

    base: ModalOperator

    @property
    def n_atoms(self) -> int:
        return self.base.n_atoms

    @property
    def dual(self) -> ModalOperator:
        return self.base

    def __call__(self, x: int) -> int:
        return self.base.dual_value(x)

    def table(self) -> tuple[int, ...]:
        return tuple(self(x) for x in range(1 << self.n_atoms))


class ModalAlgebra(Record):
    """A finite Boolean algebra together with a modal operator."""

    base: FiniteBA
    op: ModalOperator

    def __post_init__(self):
        if self.base.n_atoms != self.op.n_atoms:
            raise DomainError(
                f"operator over {self.op.n_atoms} atoms does not fit an "
                f"algebra with {self.base.n_atoms} atoms"
            )

    @property
    def n_atoms(self) -> int:
        return self.base.n_atoms

    def closed_elements(self) -> frozenset[int]:
        return frozenset(x for x in self.base.elements() if self.op(x) == x)

    def open_elements(self) -> frozenset[int]:
        return frozenset(
            x for x in self.base.elements() if self.op.dual_value(x) == x
        )

    def to_dict(self) -> dict:
        return {"atoms": self.n_atoms, "f_on_atoms": list(self.op.atom_values)}


def algebra_from_dict(data: dict) -> ModalAlgebra:
    try:
        n = data["atoms"]
        values = tuple(data["f_on_atoms"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad algebra object: {exc}") from exc
    # bools are ints in Python; refuse them with floats and strings
    bad = [x for x in (n, *values) if type(x) is not int]
    if bad:
        raise DomainError(f"atoms and f_on_atoms must be integers, got {bad[0]!r}")
    if n < 1:
        raise DomainError(f"atom count must be positive, got {n}")
    ba = FiniteBA(n)
    return ModalAlgebra(ba, operator_from_atom_values(ba, values))


def operator_from_atom_values(ba: FiniteBA, values) -> ModalOperator:
    """Build the operator with the given atom table over ``ba``."""
    values = tuple(values)
    if len(values) != ba.n_atoms:
        raise DomainError(
            f"expected {ba.n_atoms} atom values, got {len(values)}"
        )
    for v in values:
        ba.check(v)
    return ModalOperator(values)


def identity_operator(ba: FiniteBA) -> ModalOperator:
    return ModalOperator(ba.atoms())


def unary_discriminator(ba: FiniteBA) -> ModalOperator:
    """f(0) = 0 and f(x) = top otherwise; closed elements are 0 and top."""
    return ModalOperator((ba.top,) * ba.n_atoms)


class OperatorProperties(Record):
    normal: bool
    additive: bool
    closure: bool
    interior: bool


def operator_properties(algebra: ModalAlgebra) -> OperatorProperties:
    """Check normality, additivity, and the closure/interior laws.

    Normality and additivity hold by representation.  By additivity the
    expansion law x <= f(x) and idempotence need only be checked on
    atoms, and dually for the contraction law.
    """
    op = algebra.op
    closure = all(
        atom | value == value and op(value) == value
        for atom, value in zip(algebra.base.atoms(), op.atom_values)
    )
    interior = all(
        atom & value == value and op(value) == value
        for atom, value in zip(algebra.base.atoms(), op.atom_values)
    )
    return OperatorProperties(
        normal=True, additive=True, closure=closure, interior=interior
    )


def dual_operator(algebra: ModalAlgebra) -> DualOperator:
    """The dual operator x -> -f(-x), evaluated pointwise."""
    return DualOperator(algebra.op)


def closed_open_elements(algebra: ModalAlgebra) -> tuple[frozenset[int], frozenset[int]]:
    """Fixpoints of the operator and of its dual."""
    return algebra.closed_elements(), algebra.open_elements()


EXTREMAL_OPERATOR_KINDS = ("ii", "iu", "ui", "uu")


def extremal_operator(kind: str, ba: FiniteBA, param: int) -> ModalOperator:
    """One of the four extremal closure operators, by its parameter."""
    ba.check(param)
    if kind == "iu":
        values = tuple(a if a | param == param else ba.top for a in ba.atoms())
    elif kind == "ui":
        values = tuple(param | a for a in ba.atoms())
    elif kind == "uu":
        if param == 0:
            raise DomainError("the uu family needs a nonzero parameter")
        values = tuple(
            param if a | param == param else ba.top for a in ba.atoms()
        )
    elif kind == "ii":
        values = tuple(
            a if a | param == param else param | a for a in ba.atoms()
        )
    else:
        raise KeyError(
            f"unknown operator kind {kind!r}; known: {', '.join(EXTREMAL_OPERATOR_KINDS)}"
        )
    return ModalOperator(values)


def operator_from_sublattice(ba: FiniteBA, members) -> ModalOperator:
    """The closure operator whose closed elements are exactly ``members``.

    Requires 0 and top in the set and closure under join; each atom must
    then have a least member of the set above it (by additivity this
    settles every element), otherwise a NoClosureError names the first
    atom without one.  On a finite algebra the accepted sets are exactly
    the bounded sublattices.
    """
    subset = frozenset(ba.check(x) for x in members)
    if 0 not in subset or ba.top not in subset:
        raise PreconditionError("the set must contain 0 and top")
    for x in subset:
        for y in subset:
            if x | y not in subset:
                raise PreconditionError("the set must be closed under join")
    values = []
    for atom in ba.atoms():
        least = ba.top
        for d in subset:
            if d & atom == atom:
                least &= d
        if least not in subset:
            raise NoClosureError(atom)
        values.append(least)
    return ModalOperator(tuple(values))


class AlgebraClass(enum.Enum):
    IMA = "IMA"
    FMA = "FMA"
    FMA_PROPER = "FMA_proper"
    MMA = "MMA"
    GMA = "GMA"
    DMA = "DMA"
    IDENTITY = "IDENTITY"


class ClassLabel(Record):
    kind: AlgebraClass
    param: int | None = None

    def __str__(self) -> str:
        if self.param is None:
            return self.kind.value
        return f"{self.kind.value}({self.param})"


def classify_algebra(algebra: ModalAlgebra) -> frozenset[ClassLabel]:
    """All family labels the algebra satisfies, with canonical parameters.

    Labels overlap; the four-element chain algebra carries all four.
    Classification is empty for non-closure operators.  A closure
    operator is determined by its closed-element set, so every test is
    a shape test on that set:

      IMA  closed = (ideal) + top
      FMA  closed = 0 + (filter other than {top}); the identity operator
           is the improper case via the filter consisting of everything
      MMA  closed = {0, a, top} with a nonzero (a = top: discriminator)
      GMA  closed = everything below b or above b
    """
    if algebra.n_atoms > MAX_CLASSIFY_ATOMS:
        raise SizeError(f"classification is bounded at {MAX_CLASSIFY_ATOMS} atoms, "
                        f"got {algebra.n_atoms}")
    if not operator_properties(algebra).closure:
        return frozenset()
    ba = algebra.base
    closed = algebra.closed_elements()
    labels = set()

    if algebra.op == identity_operator(ba):
        labels.add(ClassLabel(AlgebraClass.IDENTITY))
    if algebra.op == unary_discriminator(ba):
        labels.add(ClassLabel(AlgebraClass.DMA))

    ideal_part = closed - {ba.top}
    generator = 0
    for x in ideal_part:
        generator |= x
    if closed == ba.downset(generator) | {ba.top}:
        labels.add(ClassLabel(AlgebraClass.IMA, generator))

    filter_part = closed - {0}
    least = ba.top
    for x in filter_part:
        least &= x
    # a finite filter is principal: exactly the up-set of its meet
    upset_size = 1 << (ba.n_atoms - least.bit_count())
    if filter_part != {ba.top} and len(filter_part) == upset_size:
        labels.add(ClassLabel(AlgebraClass.FMA_PROPER, least))
    elif len(closed) == ba.size:
        # every element closed: the filter is the whole algebra
        labels.add(ClassLabel(AlgebraClass.FMA, 0))

    if closed == {0, ba.top}:
        labels.add(ClassLabel(AlgebraClass.MMA, ba.top))
    elif len(closed) == 3:
        middle = min(closed - {0, ba.top})
        labels.add(ClassLabel(AlgebraClass.MMA, middle))

    for b in sorted(closed):
        if closed == ba.downset(b) | ba.upset(b):
            labels.add(ClassLabel(AlgebraClass.GMA, b))
            break

    return frozenset(labels)


class IrreducibilityKind(enum.Enum):
    TRIVIAL_LIKE = "trivial_like"
    SIMPLE = "simple"
    SUBDIRECTLY_IRREDUCIBLE = "subdirectly_irreducible"
    NEITHER = "neither"


class IrreducibilityVerdict(Record):
    kind: IrreducibilityKind
    witness: int | None

    @property
    def is_si(self) -> bool:
        return self.kind is not IrreducibilityKind.NEITHER

    @property
    def is_simple(self) -> bool:
        return self.kind in (
            IrreducibilityKind.TRIVIAL_LIKE, IrreducibilityKind.SIMPLE
        )


def irreducibility(algebra: ModalAlgebra) -> IrreducibilityVerdict:
    """Subdirect irreducibility via the least nonzero closed element.

    Congruences of a closure algebra correspond to its closed ideals,
    and every finite closed ideal is generated by a closed element, so
    the algebra is subdirectly irreducible exactly when the nonzero
    closed elements have a least member (the witness); simple exactly
    when the closed elements are 0 and top alone.
    """
    if not operator_properties(algebra).closure:
        raise PreconditionError("irreducibility is defined for closure operators")
    ba = algebra.base
    nonzero = algebra.closed_elements() - {0}
    least = ba.top
    for x in nonzero:
        least &= x
    witness = least if least in nonzero else None
    if ba.size == 2:
        return IrreducibilityVerdict(IrreducibilityKind.TRIVIAL_LIKE, witness)
    if nonzero == {ba.top}:
        return IrreducibilityVerdict(IrreducibilityKind.SIMPLE, witness)
    if witness is not None:
        return IrreducibilityVerdict(
            IrreducibilityKind.SUBDIRECTLY_IRREDUCIBLE, witness
        )
    return IrreducibilityVerdict(IrreducibilityKind.NEITHER, None)


def conjugate_check(algebra: ModalAlgebra, other: ModalOperator):
    """Whether f(x) * y = 0 iff g(y) * x = 0 for all element pairs.

    Both operators are additive, so the biconditional over all pairs
    reduces to atom pairs; a failing atom pair is returned as witness.
    """
    if other.n_atoms != algebra.n_atoms:
        raise DomainError("operators live over different algebras")
    f, g = algebra.op.atom_values, other.atom_values
    for i in range(len(f)):  # atom i against atom j: f(i) meets j, g(j) meets i
        for j in range(len(f)):
            if f[i] >> j & 1 != g[j] >> i & 1:
                return False, (1 << i, 1 << j)
    return True, None


def satisfies_depth2_axiom(algebra: ModalAlgebra) -> bool:
    """f(f'(x) * f(f'(y)) * -y) <= x for all x, y, with f' the dual."""
    table = algebra.op.table()
    top = algebra.base.top
    dual = [top ^ table[top ^ x] for x in range(len(table))]
    for x in range(len(table)):
        for y in range(len(table)):
            lhs = table[dual[x] & table[dual[y]] & (top ^ y)]
            if lhs & ~x:
                return False
    return True


def _compress(mask: int, atoms: list[int]) -> int:
    out = 0
    for new_index, old_index in enumerate(atoms):
        if mask >> old_index & 1:
            out |= 1 << new_index
    return out


def quotient(algebra: ModalAlgebra, c: int) -> ModalAlgebra:
    """Quotient by the closed ideal generated by ``c``.

    Computed by relativization: the carrier becomes the interval below
    -c, re-indexed as a powerset algebra on the atoms under -c, with
    operator y -> f(y) * -c.  The projection x -> x * -c then commutes
    with the operators.
    """
    ba = algebra.base
    ba.check(c)
    if algebra.op(c) != c:
        raise PreconditionError(f"element {c} is not closed")
    if c == ba.top:
        raise TrivialityError("quotient by top would be the one-element algebra")
    rest = ba.complement(c)
    atoms = list(atom_indices(rest))
    values = tuple(
        _compress(algebra.op(1 << i) & rest, atoms) for i in atoms
    )
    return ModalAlgebra(FiniteBA(len(atoms)), ModalOperator(values))


class Subalgebra(Record):
    """A subuniverse, its atom blocks, and its re-indexed algebra."""

    blocks: tuple[int, ...]          # disjoint masks joining to top
    carrier: tuple[int, ...]         # the subuniverse inside the parent
    algebra: ModalAlgebra            # powerset algebra on the blocks


def subalgebras(algebra: ModalAlgebra) -> list[Subalgebra]:
    """All subalgebras, exhaustively.

    Boolean subalgebras of a finite powerset algebra correspond to
    partitions of the atom set (their atoms are the block joins), so it
    suffices to enumerate partitions and keep those whose block algebra
    is closed under the operator.
    """
    n = algebra.n_atoms
    if n > MAX_SUBALGEBRA_ATOMS:
        raise SizeError(
            f"subalgebra search is bounded at {MAX_SUBALGEBRA_ATOMS} atoms"
        )
    out = []
    for part in _sorted_partitions(n):
        blocks = tuple(sum(1 << w for w in b) for b in part)
        carrier = [0]
        for block in blocks:
            carrier.extend(x | block for x in list(carrier))
        carrier_set = frozenset(carrier)
        if not all(algebra.op(block) in carrier_set for block in blocks):
            continue
        values = tuple(
            sum(
                1 << j
                for j, other in enumerate(blocks)
                if other & algebra.op(block) == other
            )
            for block in blocks
        )
        out.append(
            Subalgebra(
                blocks=blocks,
                carrier=tuple(sorted(carrier_set)),
                algebra=ModalAlgebra(FiniteBA(len(blocks)), ModalOperator(values)),
            )
        )
    return out


def _set_partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _sorted_partitions(n: int) -> list[list[list[int]]]:
    parts = [sorted(sorted(b) for b in p) for p in _set_partitions(tuple(range(n)))]
    parts.sort(key=lambda p: (len(p), p))
    return parts


def product(a1: ModalAlgebra, a2: ModalAlgebra) -> ModalAlgebra:
    """Direct product; atoms are the disjoint union, operator componentwise."""
    n1, n2 = a1.n_atoms, a2.n_atoms
    if n1 + n2 > MAX_ATOMS:
        raise SizeError(f"product would have {n1 + n2} atoms, cap is {MAX_ATOMS}")
    values = tuple(a1.op.atom_values) + tuple(v << n1 for v in a2.op.atom_values)
    return ModalAlgebra(FiniteBA(n1 + n2), ModalOperator(values))


def build_kn(n: int) -> ModalAlgebra:
    """The n-atom closure algebra whose open elements form a chain.

    The opens are 0, a_1, a_1 + a_2, ..., top (a chain of length n + 1);
    the stored operator is the closure dual, whose closed elements are
    the complements of that chain.  These algebras witness the local
    finiteness bounds of the extremal families via embedding tests.
    """
    if not 1 <= n <= MAX_KN:
        raise SizeError(f"chain algebras are bounded at {MAX_KN} atoms")
    ba = FiniteBA(n)
    closed_chain = {ba.top ^ ((1 << i) - 1) for i in range(n + 1)}
    return ModalAlgebra(ba, operator_from_sublattice(ba, closed_chain))


def embeds(small: ModalAlgebra, big: ModalAlgebra):
    """Search for an embedding commuting with the operators.

    A Boolean embedding of powerset algebras sends the small algebra's
    atoms to the blocks of an ordered partition of the big algebra's
    atoms; additivity means the operator condition need only be checked
    on those blocks.  Returns (found, atom-image tuple).  If the small
    algebra is larger there is no injection and the answer is False.
    """
    if big.n_atoms > MAX_EMBED_ATOMS:
        raise SizeError(f"embedding search is bounded at {MAX_EMBED_ATOMS} atoms")
    ns, nb = small.n_atoms, big.n_atoms
    if ns > nb:
        return False, None
    small_values = small.op.atom_values
    for assignment in iter_product(range(ns), repeat=nb):
        if len(set(assignment)) != ns:
            continue
        images = [0] * ns
        for big_atom, small_index in enumerate(assignment):
            images[small_index] |= 1 << big_atom
        # the images are disjoint blocks, so their sum is their join
        if all(big.op(images[i]) == sum(images[j] for j in atom_indices(value))
               for i, value in enumerate(small_values)):
            return True, tuple(images)
    return False, None
