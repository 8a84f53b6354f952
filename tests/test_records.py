"""The Record contract: every value class behaves as the frozen dataclass
it replaced (construction, defaults, ``__post_init__``, type-exact
equality, field-tuple hash, repr, immutability, copies, ``__match_args__``).
"""

import copy
import pickle
from dataclasses import make_dataclass

import pytest

from depth2kit.boolean import FiniteBA
from depth2kit.errors import DomainError, Record, SizeError
from depth2kit.formulas import (
    And, Bottom, Box, Diamond, Formula, Iff, Implies, Not, Or, Rule, Top, Var,
)
from depth2kit.frames import ClusterPoset, Frame
from depth2kit.operators import (
    AlgebraClass,
    ClassLabel,
    DualOperator,
    IrreducibilityKind,
    IrreducibilityVerdict,
    ModalAlgebra,
    ModalOperator,
    OperatorProperties,
    Subalgebra,
)
from test_boolean import SubsetClass  # kept as the result class of ref_subset_class

P, Q = Var("p"), Var("q")
BA = FiniteBA(2)
OP = ModalOperator((1, 3))
ONE = ModalAlgebra(FiniteBA(1), ModalOperator((1,)))

# class, its fields in order, and values for them
CASES = [
    (Var, ("name",), ("p",)),
    (Top, (), ()),
    (Bottom, (), ()),
    (Not, ("child",), (P,)),
    (And, ("left", "right"), (P, Q)),
    (Or, ("left", "right"), (P, Q)),
    (Implies, ("left", "right"), (P, Q)),
    (Iff, ("left", "right"), (P, Q)),
    (Diamond, ("child",), (P,)),
    (Box, ("child",), (P,)),
    (Rule, ("premises", "conclusion"), ((P, Not(Q)), Bottom())),
    (FiniteBA, ("n_atoms",), (2,)),
    (SubsetClass, ("is_ideal", "is_filter", "is_bounded_sublattice"), (True, False, True)),
    (Frame, ("n_worlds", "rows"), (2, (3, 2))),
    (ClusterPoset, ("clusters", "leq", "levels", "depth"),
     (((0,), (1,)), (3, 2), (1, 2), 2)),
    (ModalOperator, ("atom_values",), ((1, 3),)),
    (DualOperator, ("base",), (OP,)),
    (ModalAlgebra, ("base", "op"), (BA, OP)),
    (OperatorProperties, ("normal", "additive", "closure", "interior"),
     (True, True, True, False)),
    (ClassLabel, ("kind", "param"), (AlgebraClass.GMA, 1)),
    (IrreducibilityVerdict, ("kind", "witness"), (IrreducibilityKind.SIMPLE, 3)),
    (Subalgebra, ("blocks", "carrier", "algebra"), ((3,), (0, 3), ONE)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_match_args_list_the_fields_in_order(cls, names, values):
    assert issubclass(cls, Record)
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    x = cls(*values)
    assert x == cls(**dict(zip(names, values)))
    assert tuple(getattr(x, name) for name in names) == values
    assert list(x.__dict__) == list(names)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    if names:
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


def test_class_level_default():
    assert ClassLabel.param is None
    label = ClassLabel(AlgebraClass.IMA)
    assert label.param is None
    assert label == ClassLabel(AlgebraClass.IMA, None) == ClassLabel(kind=AlgebraClass.IMA)
    assert ClassLabel(AlgebraClass.IMA, param=3).param == 3
    assert str(label) == "IMA" and str(ClassLabel(AlgebraClass.GMA, 2)) == "GMA(2)"
    with pytest.raises(TypeError):
        ClassLabel()


@pytest.mark.parametrize("build, error", [
    (lambda: Frame(0, ()), SizeError),
    (lambda: Frame(13, (0,) * 13), SizeError),
    (lambda: Frame(2, (1,)), DomainError),
    (lambda: Frame(n_worlds=1, rows=(2,)), DomainError),
    (lambda: FiniteBA(0), SizeError),
    (lambda: FiniteBA(n_atoms=21), SizeError),
    (lambda: ModalOperator(()), SizeError),
    (lambda: ModalOperator((4, 1)), DomainError),
    (lambda: ModalAlgebra(FiniteBA(2), ModalOperator((1,))), DomainError),
    (lambda: ModalAlgebra(base=FiniteBA(1), op=OP), DomainError),
], ids=["frame_empty", "frame_big", "frame_rows", "frame_row_range", "ba_zero", "ba_big",
        "op_empty", "op_range", "algebra_mismatch", "algebra_mismatch_keywords"])
def test_post_init_refusals(build, error):
    with pytest.raises(error):
        build()


def test_equality_is_type_exact():
    assert And(P, Q) != Or(P, Q)
    assert Implies(P, Q) != Iff(P, Q)
    assert Diamond(P) != Box(P) != Not(P)
    assert Top() != Bottom() and Top() == Top()
    assert Frame(1, (1,)) != (1, (1,))
    assert ModalOperator((1, 3)) != DualOperator(ModalOperator((1, 3)))
    assert And(P, Q).__eq__((P, Q)) is NotImplemented

    class Sub(Frame):
        pass

    assert Sub.__match_args__ == Frame.__match_args__
    assert Sub(1, (1,)) != Frame(1, (1,)) and Sub(1, (1,)) == Sub(1, (1,))


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls, names, values):
    x, y = cls(*values), cls(*copy.deepcopy(values))
    hash(x)  # a formula caches its hash; equality must not see the cache
    assert x == y and not x != y and hash(x) == hash(y)
    if isinstance(x, Formula):  # the cached structural hash includes the class
        assert hash(x) == hash((cls, *values))
    else:
        assert hash(x) == hash(values)


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_repr_matches_dataclasses(cls, names, values):
    twin = make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert repr(cls(*values)) == repr(twin)


def test_repr_examples():
    assert repr(Var("p")) == "Var(name='p')"
    assert repr(Top()) == "Top()"
    assert repr(ClassLabel(AlgebraClass.IMA)) == \
        "ClassLabel(kind=<AlgebraClass.IMA: 'IMA'>, param=None)"


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_instances_are_immutable(cls, names, values):
    x = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_copies_and_pickles_round_trip(cls, names, values):
    x = cls(*values)
    hash(x)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert list(y.__dict__) == list(names)
        with pytest.raises(AttributeError):
            setattr(y, names[0] if names else "extra", None)


def test_match_statement_reads_the_fields():
    match Implies(And(P, Q), Box(P)):
        case Implies(And(left, right), Box(child)):
            assert (left, right, child) == (P, Q, P)
        case _:
            pytest.fail("no match")
    match Frame(2, (3, 2)):
        case Frame(n, rows):
            assert (n, rows) == (2, (3, 2))
