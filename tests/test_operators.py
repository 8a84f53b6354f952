from itertools import product as iter_product

import pytest

from depth2kit.boolean import FiniteBA
from depth2kit.duality import canonical_frame
from depth2kit.errors import (
    DomainError,
    NoClosureError,
    PreconditionError,
    SizeError,
    TrivialityError,
)
from depth2kit.frames import cluster_poset, frame_condition
from depth2kit.operators import (
    AlgebraClass,
    IrreducibilityKind,
    ModalAlgebra,
    ModalOperator,
    algebra_from_dict,
    build_kn,
    classify_algebra,
    closed_open_elements,
    conjugate_check,
    dual_operator,
    embeds,
    extremal_operator,
    identity_operator,
    irreducibility,
    operator_from_atom_values,
    operator_from_sublattice,
    operator_properties,
    product,
    quotient,
    satisfies_depth2_axiom,
    subalgebras,
    unary_discriminator,
)
from test_boolean import ref_subset_class

B1 = FiniteBA(1)
B2 = FiniteBA(2)
B3 = FiniteBA(3)


def alg(ba, op):
    return ModalAlgebra(ba, op)


def chain_algebra():
    # four-element algebra whose closed elements are the chain 0 < a0 < top
    return alg(B2, ModalOperator((1, 3)))


def all_closure_algebras(max_atoms):
    for n in range(1, max_atoms + 1):
        ba = FiniteBA(n)
        for values in iter_product(range(ba.size), repeat=n):
            algebra = alg(ba, ModalOperator(values))
            if operator_properties(algebra).closure:
                yield algebra


def test_operator_from_atom_values():
    discriminator = operator_from_atom_values(B2, [3, 3])
    assert discriminator == unary_discriminator(B2)
    assert operator_from_atom_values(B2, [1, 2]) == identity_operator(B2)
    f = operator_from_atom_values(B2, [1, 3])
    assert f(1) == 1 and f(2) == 3 and f(3) == 3 and f(0) == 0
    with pytest.raises(DomainError):
        operator_from_atom_values(B2, [1])
    with pytest.raises(DomainError):
        operator_from_atom_values(B2, [1, 4])


def test_operator_properties():
    assert operator_properties(alg(B2, unary_discriminator(B2))).closure
    props = operator_properties(alg(B2, identity_operator(B2)))
    assert props.closure and props.interior
    # sends a nonzero atom to zero: not expanding
    assert not operator_properties(alg(B2, ModalOperator((0, 2)))).closure
    assert operator_properties(alg(B3, ModalOperator((0, 0, 0)))).interior


def test_dual_operator():
    identity = alg(B2, identity_operator(B2))
    assert dual_operator(identity).table() == identity.op.table()

    discriminator = alg(B2, unary_discriminator(B2))
    dual = dual_operator(discriminator)
    assert dual.table() == (0, 0, 0, 3)  # keeps top, kills the rest

    assert dual_operator(chain_algebra()).dual is chain_algebra().op or \
        dual_operator(chain_algebra()).dual == chain_algebra().op


def test_closed_open_elements():
    closed, opened = closed_open_elements(alg(B2, unary_discriminator(B2)))
    assert closed == {0, 3} and opened == {0, 3}
    closed, opened = closed_open_elements(alg(B2, identity_operator(B2)))
    assert closed == frozenset(B2.elements())
    closed, opened = closed_open_elements(chain_algebra())
    assert closed == {0, 1, 3}
    # for closure operators opens are the complements of the closeds
    assert opened == {B2.complement(x) for x in closed}


def test_extremal_tables():
    assert extremal_operator("ui", B2, 1).atom_values == (1, 3)
    assert extremal_operator("ii", B2, 1).atom_values == (1, 3)
    assert extremal_operator("iu", B2, 3) == identity_operator(B2)
    assert extremal_operator("uu", B2, 3) == unary_discriminator(B2)
    assert extremal_operator("iu", B2, 0) == unary_discriminator(B2)
    with pytest.raises(DomainError):
        extremal_operator("uu", B2, 0)
    with pytest.raises(KeyError):
        extremal_operator("xx", B2, 1)


def test_extremal_always_closure():
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for kind in ("ii", "iu", "ui", "uu"):
            for a in ba.elements():
                if kind == "uu" and a == 0:
                    continue
                algebra = alg(ba, extremal_operator(kind, ba, a))
                assert operator_properties(algebra).closure, (kind, n, a)


def test_operator_from_sublattice():
    assert operator_from_sublattice(B2, {0, 3}) == unary_discriminator(B2)
    assert operator_from_sublattice(B2, set(B2.elements())) == identity_operator(B2)
    with pytest.raises(NoClosureError) as err:
        operator_from_sublattice(B3, {0, 0b011, 0b101, 0b111})
    assert err.value.element == 1
    with pytest.raises(PreconditionError):
        operator_from_sublattice(B2, {0, 1})  # top missing
    with pytest.raises(PreconditionError):
        operator_from_sublattice(B3, {0, 1, 2, 7})  # joins escape


def test_sublattice_closed_set_round_trip():
    for algebra in all_closure_algebras(3):
        closed = algebra.closed_elements()
        rebuilt = operator_from_sublattice(algebra.base, closed)
        assert rebuilt == algebra.op


def kinds_of(algebra):
    return {label.kind for label in classify_algebra(algebra)}


def labels_of(algebra):
    return {(label.kind, label.param) for label in classify_algebra(algebra)}


def test_classify_chain_algebra():
    assert labels_of(chain_algebra()) == {
        (AlgebraClass.IMA, 1),
        (AlgebraClass.FMA_PROPER, 1),
        (AlgebraClass.MMA, 1),
        (AlgebraClass.GMA, 1),
    }


def test_classify_discriminator():
    assert labels_of(alg(B3, unary_discriminator(B3))) == {
        (AlgebraClass.DMA, None),
        (AlgebraClass.IMA, 0),
        (AlgebraClass.MMA, 7),
    }


def test_classify_identity():
    assert labels_of(alg(B2, identity_operator(B2))) == {
        (AlgebraClass.IDENTITY, None),
        (AlgebraClass.IMA, 3),
        (AlgebraClass.FMA, 0),
        (AlgebraClass.GMA, 0),
    }


def test_classify_non_closure_empty():
    assert classify_algebra(alg(B2, ModalOperator((0, 2)))) == frozenset()


def test_classify_refuses_more_than_12_atoms_before_any_work():
    # the GMA loop costs about 3**n: 20 atoms would take hours
    for n in (13, 20):
        ba = FiniteBA(n)
        with pytest.raises(SizeError, match="bounded at 12 atoms"):
            classify_algebra(ModalAlgebra(ba, identity_operator(ba)))


def test_classifier_matches_constructor():
    wanted = {
        "iu": AlgebraClass.IMA,
        "ui": AlgebraClass.FMA,
        "uu": AlgebraClass.MMA,
        "ii": AlgebraClass.GMA,
    }
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for kind, klass in wanted.items():
            for a in ba.elements():
                if kind == "uu" and a == 0:
                    continue
                if kind == "ui" and a == ba.top:
                    continue
                found = kinds_of(alg(ba, extremal_operator(kind, ba, a)))
                if klass is AlgebraClass.FMA:
                    assert found & {AlgebraClass.FMA, AlgebraClass.FMA_PROPER}
                else:
                    assert klass in found, (kind, n, a)


# Reference for classify_algebra's FMA test: the earlier version, which
# asked subset_class (now test_boolean.ref_subset_class) whether the
# nonzero closed elements form a filter instead of counting the up-set of
# their meet.


def ref_classify_labels(algebra):
    if not operator_properties(algebra).closure:
        return set()
    ba, closed, labels = algebra.base, algebra.closed_elements(), set()
    if algebra.op == identity_operator(ba):
        labels.add((AlgebraClass.IDENTITY, None))
    if algebra.op == unary_discriminator(ba):
        labels.add((AlgebraClass.DMA, None))
    generator = 0
    for x in closed - {ba.top}:
        generator |= x
    if closed == ba.downset(generator) | {ba.top}:
        labels.add((AlgebraClass.IMA, generator))
    filter_part = closed - {0}
    if filter_part != {ba.top} and ref_subset_class(ba, filter_part).is_filter:
        least = ba.top
        for x in filter_part:
            least &= x
        labels.add((AlgebraClass.FMA_PROPER, least))
    elif len(closed) == ba.size:
        labels.add((AlgebraClass.FMA, 0))
    if closed == {0, ba.top}:
        labels.add((AlgebraClass.MMA, ba.top))
    elif len(closed) == 3:
        labels.add((AlgebraClass.MMA, min(closed - {0, ba.top})))
    for b in sorted(closed):
        if closed == ba.downset(b) | ba.upset(b):
            labels.add((AlgebraClass.GMA, b))
            break
    return labels


def test_classify_matches_reference():
    algebras = list(all_closure_algebras(3))
    for n in range(1, 7):
        ba = FiniteBA(n)
        for kind in ("ii", "iu", "ui", "uu"):
            algebras += [alg(ba, extremal_operator(kind, ba, a))
                         for a in ba.elements() if kind != "uu" or a]
    # 1 + 4 + 29 labeled quasiorders (OEIS A000798), 4 * 2**n - 1 members per n
    assert len(algebras) == 34 + sum(4 * 2**n - 1 for n in range(1, 7))
    for algebra in algebras:
        assert labels_of(algebra) == ref_classify_labels(algebra), algebra


def test_irreducibility():
    verdict = irreducibility(chain_algebra())
    assert verdict.kind is IrreducibilityKind.SUBDIRECTLY_IRREDUCIBLE
    assert verdict.witness == 1
    assert not verdict.is_simple

    verdict = irreducibility(alg(B2, identity_operator(B2)))
    assert verdict.kind is IrreducibilityKind.NEITHER
    assert verdict.witness is None

    assert irreducibility(alg(B3, unary_discriminator(B3))).is_simple
    assert irreducibility(alg(B1, identity_operator(B1))).kind is \
        IrreducibilityKind.TRIVIAL_LIKE

    with pytest.raises(PreconditionError):
        irreducibility(alg(B2, ModalOperator((0, 2))))


def test_conjugates():
    from depth2kit.duality import complex_algebra
    from depth2kit.frames import converse_frame, make_frame

    f2 = make_frame(2, [(0, 0), (0, 1), (1, 1)])
    ok, _ = conjugate_check(complex_algebra(f2), complex_algebra(converse_frame(f2)).op)
    assert ok

    # the iu operator at a pairs with the ui operator at the complement
    ok, _ = conjugate_check(
        alg(B2, extremal_operator("iu", B2, 1)),
        extremal_operator("ui", B2, 2),
    )
    assert ok
    # at the same parameter the pairing fails as soon as both levels exist
    ok, witness = conjugate_check(
        alg(B2, extremal_operator("iu", B2, 1)),
        extremal_operator("ui", B2, 1),
    )
    assert not ok and witness == (1, 2)

    ok, witness = conjugate_check(
        alg(B2, identity_operator(B2)), unary_discriminator(B2)
    )
    assert not ok and witness == (1, 2)


def test_depth2_axiom():
    assert satisfies_depth2_axiom(chain_algebra())
    assert satisfies_depth2_axiom(alg(B2, unary_discriminator(B2)))
    from depth2kit.duality import complex_algebra
    from depth2kit.frames import make_frame

    chain3 = make_frame(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert not satisfies_depth2_axiom(complex_algebra(chain3))


def test_depth2_axiom_matches_frame_depth():
    for algebra in all_closure_algebras(3):
        frame = canonical_frame(algebra)
        assert frame_condition(frame, "quasiorder")[0]
        depth = cluster_poset(frame).depth
        assert satisfies_depth2_axiom(algebra) == (depth <= 2)


def test_quotient():
    two = quotient(chain_algebra(), 1)
    assert two.n_atoms == 1 and two.op == identity_operator(B1)

    same = quotient(chain_algebra(), 0)
    assert same.op == chain_algebra().op

    filter_algebra = alg(B3, extremal_operator("ui", B3, 0b011))
    two = quotient(filter_algebra, 0b011)
    assert two.n_atoms == 1 and two.op == identity_operator(B1)

    with pytest.raises(PreconditionError):
        quotient(chain_algebra(), 2)  # not closed
    with pytest.raises(TrivialityError):
        quotient(chain_algebra(), 3)


def test_subalgebras():
    two = alg(B1, identity_operator(B1))
    subs = subalgebras(two)
    assert len(subs) == 1 and subs[0].algebra.op == identity_operator(B1)

    subs = subalgebras(chain_algebra())
    carriers = sorted(sub.carrier for sub in subs)
    assert carriers == [(0, 1, 2, 3), (0, 3)]
    small = next(s for s in subs if len(s.carrier) == 2)
    assert small.algebra.op == identity_operator(B1)

    with pytest.raises(SizeError):
        subalgebras(alg(FiniteBA(5), identity_operator(FiniteBA(5))))


def test_subalgebra_operators_are_induced():
    for algebra in all_closure_algebras(3):
        for sub in subalgebras(algebra):
            # block joins behave inside the subuniverse exactly as outside
            for i, block in enumerate(sub.blocks):
                image = algebra.op(block)
                assert image in sub.carrier
                transported = sub.algebra.op(1 << i)
                rebuilt = 0
                for j in range(len(sub.blocks)):
                    if transported >> j & 1:
                        rebuilt |= sub.blocks[j]
                assert rebuilt == image


def test_product():
    two = alg(B1, identity_operator(B1))
    four = product(two, two)
    assert four.n_atoms == 2 and four.op == identity_operator(B2)

    mixed = product(chain_algebra(), two)
    assert mixed.n_atoms == 3
    # componentwise fixpoints: chain closed {0,1,3} with factor closed {0,4}
    assert mixed.closed_elements() == {0, 1, 3, 4, 5, 7}

    with pytest.raises(SizeError):
        big = alg(FiniteBA(12), identity_operator(FiniteBA(12)))
        product(big, alg(FiniteBA(10), identity_operator(FiniteBA(10))))


def test_build_kn():
    assert build_kn(1).op == identity_operator(B1)

    k2 = build_kn(2)
    assert k2.closed_elements() == {0, 2, 3}
    from depth2kit.duality import algebras_isomorphic
    assert algebras_isomorphic(k2, chain_algebra())[0]

    k3 = build_kn(3)
    assert k3.base.size == 8
    assert k3.open_elements() == {0, 1, 3, 7}

    with pytest.raises(SizeError):
        build_kn(7)
    with pytest.raises(SizeError):
        build_kn(0)


def test_embeds():
    two = alg(B1, identity_operator(B1))
    assert embeds(two, chain_algebra())[0]
    assert embeds(two, alg(B3, unary_discriminator(B3)))[0]

    # nontrivial positive case: the 4-element chain algebra into a uu
    # algebra, closed atom onto the parameter
    target = alg(B2, extremal_operator("uu", B2, 1))
    found, images = embeds(build_kn(2), target)
    assert found and images == (2, 1)

    # k3 cannot land in any proper filter algebra
    for n in (2, 3, 4):
        ba = FiniteBA(n)
        for a in ba.elements():
            if a in (0, ba.top):
                continue
            found, _ = embeds(build_kn(3), alg(ba, extremal_operator("ui", ba, a)))
            assert not found

    with pytest.raises(SizeError):
        embeds(two, alg(FiniteBA(5), identity_operator(FiniteBA(5))))


def test_pointwise_sum_law():
    for n in (2, 3):
        ba = FiniteBA(n)
        for a in ba.elements():
            if a in (0, ba.top):
                continue
            f_iu = extremal_operator("iu", ba, a)
            f_ui = extremal_operator("ui", ba, a)
            f_uu = extremal_operator("uu", ba, a)
            for x in ba.elements():
                assert f_iu(x) | f_ui(x) == f_uu(x)


def test_algebra_dict_round_trip():
    algebra = chain_algebra()
    assert algebra_from_dict(algebra.to_dict()).op == algebra.op
    with pytest.raises(DomainError):
        algebra_from_dict({"atoms": 2})


def ref_conjugate_check(algebra, other):
    """The pointwise check through the operators, element by element."""
    f = algebra.op
    for x in algebra.base.atoms():
        for y in algebra.base.atoms():
            if (f(x) & y == 0) != (other(y) & x == 0):
                return False, (x, y)
    return True, None


def _transpose(values):
    n = len(values)
    return tuple(sum(1 << i for i in range(n) if values[i] >> j & 1)
                 for j in range(n))


def test_conjugate_check_matches_reference():
    for n in (1, 2):
        tables = list(iter_product(range(1 << n), repeat=n))
        for f, g in iter_product(tables, repeat=2):
            algebra, other = alg(FiniteBA(n), ModalOperator(f)), ModalOperator(g)
            assert conjugate_check(algebra, other) == \
                ref_conjugate_check(algebra, other), (f, g)
    tables = list(iter_product(range(8), repeat=3))
    for f, neighbour in zip(tables, tables[1:] + tables[:1]):
        algebra = alg(B3, ModalOperator(f))
        conjugate = ModalOperator(_transpose(f))
        assert conjugate_check(algebra, conjugate) == \
            ref_conjugate_check(algebra, conjugate) == (True, None), f
        assert conjugate_check(algebra, ModalOperator(neighbour)) == \
            ref_conjugate_check(algebra, ModalOperator(neighbour)), f
