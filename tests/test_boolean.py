import random
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import given, strategies as st

from depth2kit.boolean import FiniteBA, atom_indices
from depth2kit.errors import DomainError, Record, SizeError


# Reference classifier of subsets: the oracle of the principal
# ideal/filter tests below and of test_operators' ref_classify_labels.


class SubsetClass(Record):
    """Classification flags for a subset of a finite Boolean algebra."""

    is_ideal: bool
    is_filter: bool
    is_bounded_sublattice: bool


def ref_subset_class(ba: FiniteBA, members: Iterable[int]) -> SubsetClass:
    """Classify a subset as ideal / filter / bounded sublattice.

    An ideal is nonempty, downward closed and join closed; a filter is
    the order dual; a bounded sublattice contains 0 and top and is
    closed under meet and join.  The empty set gets all flags false.
    """
    subset = frozenset(ba.check(x) for x in members)
    if not subset:
        return SubsetClass(False, False, False)

    down_closed = all(ba.downset(x) <= subset for x in subset)
    up_closed = all(ba.upset(x) <= subset for x in subset)
    join_closed = all(x | y in subset for x, y in combinations(subset, 2))
    meet_closed = all(x & y in subset for x, y in combinations(subset, 2))

    return SubsetClass(
        is_ideal=down_closed and join_closed,
        is_filter=up_closed and meet_closed,
        is_bounded_sublattice=(
            0 in subset and ba.top in subset and join_closed and meet_closed
        ),
    )


def test_powerset_sizes():
    assert FiniteBA(1).size == 2
    assert FiniteBA(2).size == 4
    assert FiniteBA(2).top == 0b11


def test_powerset_guard():
    with pytest.raises(SizeError):
        FiniteBA(21)
    with pytest.raises(SizeError):
        FiniteBA(0)


def test_primitives():
    ba = FiniteBA(2)
    a0, a1 = ba.atoms()
    assert ba.join(a0, a1) == 0b11
    assert ba.complement(a0) == a1
    assert ba.leq(a0, 0b11)
    assert not ba.leq(0b11, a0)
    assert ba.meet(a0, a1) == 0


def test_element_range_checked():
    ba = FiniteBA(2)
    with pytest.raises(DomainError):
        ba.join(4, 0)


@given(st.integers(1, 4), st.data())
def test_complement_involution_and_de_morgan(n, data):
    ba = FiniteBA(n)
    x = data.draw(st.integers(0, ba.top))
    y = data.draw(st.integers(0, ba.top))
    assert ba.complement(ba.complement(x)) == x
    assert ba.complement(ba.join(x, y)) == ba.meet(ba.complement(x), ba.complement(y))
    assert ba.complement(ba.meet(x, y)) == ba.join(ba.complement(x), ba.complement(y))


def test_de_morgan_exhaustive_small():
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for x in ba.elements():
            for y in ba.elements():
                assert ba.complement(x | y) == ba.complement(x) & ba.complement(y)


def test_subset_class_examples():
    ba = FiniteBA(2)
    a0, a1 = ba.atoms()

    flags = ref_subset_class(ba, {0, a0})
    assert (flags.is_ideal, flags.is_filter, flags.is_bounded_sublattice) == (
        True, False, False)

    flags = ref_subset_class(ba, {a0, ba.top})
    assert (flags.is_ideal, flags.is_filter, flags.is_bounded_sublattice) == (
        False, True, False)

    # 0, a0, 1: bounded and closed under meet/join but misses a1 below top
    flags = ref_subset_class(ba, {0, a0, ba.top})
    assert (flags.is_ideal, flags.is_filter, flags.is_bounded_sublattice) == (
        False, False, True)


def test_subset_class_empty():
    ba = FiniteBA(2)
    flags = ref_subset_class(ba, set())
    assert not (flags.is_ideal or flags.is_filter or flags.is_bounded_sublattice)


def test_principal_sets_classify():
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for a in ba.elements():
            assert ref_subset_class(ba, ba.downset(a)).is_ideal
            assert ref_subset_class(ba, ba.upset(a)).is_filter


def test_every_ideal_is_principal():
    # the join of an ideal's members belongs to it and generates it
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for bits in range(1 << ba.size):
            subset = {x for x in ba.elements() if bits >> x & 1}
            if not ref_subset_class(ba, subset).is_ideal:
                continue
            generator = 0
            for x in subset:
                generator |= x
            assert generator in subset
            assert subset == ba.downset(generator)


def test_atom_indices_matches_definition():
    def definition(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    rng = random.Random(20)
    masks = [*range(1 << 12), *(rng.getrandbits(20) for _ in range(200)),
             (1 << 20) - 1, 1 << 19]
    for mask in masks:
        assert atom_indices(mask) == definition(mask), mask
    # a cached answer is the same answer the second time
    assert atom_indices(0b1011) == (0, 1, 3) == atom_indices(0b1011)
