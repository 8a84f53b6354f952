import random
from itertools import permutations
from itertools import product as iter_product

import pytest

from depth2kit.boolean import FiniteBA
from depth2kit.duality import algebras_isomorphic, canonical_frame, complex_algebra
from depth2kit.errors import SizeError
from depth2kit.frames import (
    canonical_form,
    converse_frame,
    enumerate_frames,
    make_frame,
)
from depth2kit.operators import (
    ModalAlgebra,
    ModalOperator,
    conjugate_check,
    extremal_operator,
    identity_operator,
    operator_properties,
    unary_discriminator,
)

F2 = make_frame(2, [(0, 0), (0, 1), (1, 1)])


def test_complex_algebra_examples():
    universal = make_frame(2, [(x, y) for x in range(2) for y in range(2)])
    assert complex_algebra(universal).op == unary_discriminator(FiniteBA(2))

    chain = complex_algebra(F2)
    assert chain.op.atom_values == (0b01, 0b11)

    identity = make_frame(3, [(i, i) for i in range(3)])
    assert complex_algebra(identity).op == identity_operator(FiniteBA(3))


def test_canonical_frame_examples():
    ba = FiniteBA(2)
    frame = canonical_frame(ModalAlgebra(ba, extremal_operator("ui", ba, 1)))
    assert frame == F2

    ba3 = FiniteBA(3)
    frame = canonical_frame(ModalAlgebra(ba3, unary_discriminator(ba3)))
    assert frame.rows == (7, 7, 7)

    frame = canonical_frame(ModalAlgebra(ba, identity_operator(ba)))
    assert frame.rows == (1, 2)


def test_algebras_isomorphic():
    ba = FiniteBA(2)
    chain = ModalAlgebra(ba, ModalOperator((1, 3)))
    assert algebras_isomorphic(chain, complex_algebra(F2)) == (True, (0, 1))

    # same operator with the atoms swapped
    swapped = ModalAlgebra(ba, ModalOperator((3, 2)))
    found, perm = algebras_isomorphic(chain, swapped)
    assert found and perm == (1, 0)

    identity = ModalAlgebra(ba, identity_operator(ba))
    discriminator = ModalAlgebra(ba, unary_discriminator(ba))
    assert algebras_isomorphic(identity, discriminator) == (False, None)
    assert algebras_isomorphic(identity, identity)[0]

    big = FiniteBA(8)
    with pytest.raises(SizeError):
        algebras_isomorphic(
            ModalAlgebra(big, identity_operator(big)),
            ModalAlgebra(big, identity_operator(big)),
        )


# Reference for algebras_isomorphic: the earlier atom-permutation loop,
# trying permutations in itertools order and stopping at the first fit.


def ref_transport(mask, perm):
    out = 0
    for i in range(len(perm)):
        if mask >> i & 1:
            out |= 1 << perm[i]
    return out


def ref_algebras_isomorphic(a, b):
    if a.n_atoms != b.n_atoms:
        return False, None
    n = a.n_atoms
    values_a, values_b = a.op.atom_values, b.op.atom_values
    for perm in permutations(range(n)):
        if all(
            ref_transport(values_a[i], perm) == values_b[perm[i]] for i in range(n)
        ):
            return True, perm
    return False, None


def _all_algebras(n):
    ba = FiniteBA(n)
    return [ModalAlgebra(ba, ModalOperator(values))
            for values in iter_product(range(ba.size), repeat=n)]


def _relabeled(algebra, perm):
    values = [0] * algebra.n_atoms
    for i, value in enumerate(algebra.op.atom_values):
        values[perm[i]] = ref_transport(value, perm)
    return ModalAlgebra(algebra.base, ModalOperator(tuple(values)))


def test_algebras_isomorphic_matches_reference():
    pairs = [(a, b) for a in _all_algebras(2) for b in _all_algebras(2)]
    three = _all_algebras(3)
    pairs += [(a, _relabeled(a, perm))
              for a in three for perm in permutations(range(3))]
    pairs += list(zip(three, three[1:]))
    found = 0
    for a, b in pairs:
        verdict = algebras_isomorphic(a, b)
        assert verdict == ref_algebras_isomorphic(a, b), (a, b)
        found += verdict[0]
    # both verdicts occur
    assert len(three) * 6 < found < len(pairs)


def test_algebras_isomorphic_matches_reference_up_to_seven_atoms():
    # the witness is *an* isomorphism, not the reference's first one
    rng = random.Random(7)
    for n in range(4, 8):
        ba = FiniteBA(n)
        tables = [ModalAlgebra(ba, ModalOperator(tuple(
            rng.randrange(ba.size) for _ in range(n)))) for _ in range(4)]
        tables.append(ModalAlgebra(ba, identity_operator(ba)))
        # a simple root under n - 1 simple tops: one colour cell of n - 1
        star = make_frame(n, [(x, x) for x in range(n)] + [(0, x) for x in range(n)])
        tables.append(complex_algebra(star))
        if n < 7:
            tables += map(complex_algebra,
                          rng.sample(enumerate_frames(n, quasiorder=True), 4))
        for a in tables:
            perm = list(range(n))
            rng.shuffle(perm)
            copy = _relabeled(a, perm)
            values = list(copy.op.atom_values)
            values[rng.randrange(n)] ^= 1 << rng.randrange(n)
            near_miss = ModalAlgebra(ba, ModalOperator(tuple(values)))
            for b in (copy, near_miss):
                found, witness = algebras_isomorphic(a, b)
                assert found == ref_algebras_isomorphic(a, b)[0], (a, b)
                assert found or witness is None
                if found:
                    assert _relabeled(a, witness) == b, (a, b, witness)
            assert algebras_isomorphic(a, copy)[0]


def test_round_trip_algebras():
    # over every operator table, not only closure ones: the two maps are
    # exact mutual inverses in this representation
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for values in iter_product(range(ba.size), repeat=n):
            algebra = ModalAlgebra(ba, ModalOperator(values))
            back = complex_algebra(canonical_frame(algebra))
            assert back.op == algebra.op
            assert algebras_isomorphic(back, algebra)[0]


def test_round_trip_frames():
    for n in range(1, 5):
        for frame in enumerate_frames(n, quasiorder=True):
            back = canonical_frame(complex_algebra(frame))
            assert canonical_form(back) == canonical_form(frame)
    for n in range(1, 4):
        for frame in enumerate_frames(n):
            back = canonical_frame(complex_algebra(frame))
            assert back == frame


def test_converse_duality():
    for n in range(1, 4):
        for frame in enumerate_frames(n):
            algebra = complex_algebra(frame)
            other = complex_algebra(converse_frame(frame)).op
            assert conjugate_check(algebra, other)[0]


def test_complement_parameter_conjugacy():
    for n in (1, 2, 3):
        ba = FiniteBA(n)
        for a in ba.elements():
            iu_algebra = ModalAlgebra(ba, extremal_operator("iu", ba, a))
            ui_op = extremal_operator("ui", ba, ba.complement(a))
            assert conjugate_check(iu_algebra, ui_op)[0]
            assert (
                converse_frame(canonical_frame(iu_algebra))
                == canonical_frame(ModalAlgebra(ba, ui_op))
            )


def test_union_law():
    for n in (2, 3):
        ba = FiniteBA(n)
        for a in ba.elements():
            if a in (0, ba.top):
                continue
            r_iu = canonical_frame(
                ModalAlgebra(ba, extremal_operator("iu", ba, a))).rows
            r_ui = canonical_frame(
                ModalAlgebra(ba, extremal_operator("ui", ba, a))).rows
            r_uu = canonical_frame(
                ModalAlgebra(ba, extremal_operator("uu", ba, a))).rows
            assert tuple(x | y for x, y in zip(r_iu, r_ui)) == r_uu


def test_closure_duality():
    # complex algebras of quasiorders are closure algebras and conversely
    for n in range(1, 4):
        for frame in enumerate_frames(n, quasiorder=True):
            assert operator_properties(complex_algebra(frame)).closure
