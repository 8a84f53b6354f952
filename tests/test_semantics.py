import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from depth2kit.boolean import FiniteBA
from depth2kit.duality import complex_algebra
from depth2kit.errors import BindingError, BudgetError, DomainError
from depth2kit.formulas import (
    AXIOM_NAMES, And, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top, Var,
    axiom, meet_axiom, parse_formula, rule_p2, variables,
)
from depth2kit.frames import canonical_form, enumerate_frames, make_frame
from depth2kit.operators import (
    ModalAlgebra, ModalOperator, identity_operator, unary_discriminator,
)
from depth2kit.semantics import (
    algebra_validates,
    eval_in_algebra,
    eval_in_model,
    frame_validates,
    premises_active,
    quasiidentity_holds,
)
from depth2kit.verify import _MEET_PAIRS

F2 = make_frame(2, [(0, 0), (0, 1), (1, 1)])
P2_PREMISE = parse_formula("<>x & <>~x")
BOT = parse_formula("0")


def test_eval_in_model_examples():
    # the bottom world sees itself; the top world does not see it back
    assert eval_in_model(F2, {"p": 0b01}, parse_formula("<>p")) == 0b01
    assert eval_in_model(F2, {}, parse_formula("1")) == 0b11
    universal = make_frame(2, [(x, y) for x in range(2) for y in range(2)])
    assert eval_in_model(universal, {"p": 0b01}, parse_formula("<>p")) == 0b11
    with pytest.raises(BindingError):
        eval_in_model(F2, {}, parse_formula("p"))


def test_box_diamond_duality():
    rng = random.Random(8)
    frames = [make_frame(3, [(rng.randrange(3), rng.randrange(3))
                             for _ in range(rng.randrange(1, 8))])
              for _ in range(30)]
    body = parse_formula("p & <>q | ~r")
    for frame in frames:
        valuation = {name: rng.randrange(8) for name in "pqr"}
        boxed = eval_in_model(frame, valuation, Box(body))
        unfolded = eval_in_model(frame, valuation, Not(Diamond(Not(body))))
        assert boxed == unfolded


def test_frame_validates_examples():
    identity = make_frame(3, [(i, i) for i in range(3)])
    assert frame_validates(identity, axiom("T"))[0]

    valid, valuation = frame_validates(F2, axiom("B"))
    assert not valid and valuation == {"p": 0b01}

    universal3 = make_frame(3, [(x, y) for x in range(3) for y in range(3)])
    assert frame_validates(universal3, axiom("B"))[0]


def test_algebra_validates_examples():
    ba = FiniteBA(2)
    discriminator = ModalAlgebra(ba, unary_discriminator(ba))
    assert algebra_validates(discriminator, parse_formula("p | ~p"))[0]
    assert algebra_validates(discriminator, axiom("B"))[0]

    chain = ModalAlgebra(ba, ModalOperator((1, 3)))
    assert algebra_validates(chain, axiom("B2"))[0]
    valid, assignment = algebra_validates(chain, axiom("B"))
    assert not valid and assignment == {"p": 1}


def test_eval_in_algebra():
    ba = FiniteBA(2)
    chain = ModalAlgebra(ba, ModalOperator((1, 3)))
    assert eval_in_algebra(chain, {"p": 2}, parse_formula("<>p")) == 3
    assert eval_in_algebra(chain, {"p": 2}, parse_formula("[]p")) == 2
    assert eval_in_algebra(chain, {}, parse_formula("1 & ~0")) == 3


def test_quasiidentity_examples():
    two = ModalAlgebra(FiniteBA(1), identity_operator(FiniteBA(1)))
    assert quasiidentity_holds(two, [P2_PREMISE], BOT) == (True, None)

    ba = FiniteBA(2)
    discriminator = ModalAlgebra(ba, unary_discriminator(ba))
    holds, witness = quasiidentity_holds(discriminator, [P2_PREMISE], BOT)
    assert not holds and witness == {"x": 1}

    formula = axiom("T")
    assert quasiidentity_holds(discriminator, [formula], formula)[0]


def test_premises_active_examples():
    ba = FiniteBA(2)
    discriminator = ModalAlgebra(ba, unary_discriminator(ba))
    active, witness = premises_active(discriminator, [P2_PREMISE])
    assert active and witness == {"x": 1}

    two = ModalAlgebra(FiniteBA(1), identity_operator(FiniteBA(1)))
    assert premises_active(two, [P2_PREMISE]) == (False, None)

    assert premises_active(two, [parse_formula("1")])[0]


def test_premise_activeness_matches_rule():
    rule = rule_p2()
    ba = FiniteBA(2)
    discriminator = ModalAlgebra(ba, unary_discriminator(ba))
    active, _ = premises_active(discriminator, rule.premises)
    holds, _ = quasiidentity_holds(discriminator, rule.premises, rule.conclusion)
    assert active and not holds


def test_bridge_frames_vs_algebras():
    # frame validity and complex-algebra validity agree by construction
    names = ("T", "4", "B", "B2", "M", "G2", "H3", "Dum", "Grz", "R1", "D", "K")
    for n in range(1, 4):
        for frame in enumerate_frames(n):
            algebra = complex_algebra(frame)
            for name in names:
                formula = axiom(name)
                assert frame_validates(frame, formula)[0] == \
                    algebra_validates(algebra, formula)[0], (n, frame.rows, name)


def test_validity_is_isomorphism_invariant():
    frame = make_frame(3, [(0, 0), (1, 1), (2, 2), (1, 0), (1, 2)])
    relabeled = canonical_form(frame)
    for name in ("T", "B", "M", "H3"):
        formula = axiom(name)
        assert frame_validates(frame, formula)[0] == \
            frame_validates(relabeled, formula)[0]


def test_budget_guard():
    frame = make_frame(2, [(0, 0), (0, 1), (1, 1)])
    wide = parse_formula(" & ".join(f"v{i}" for i in range(13)))
    with pytest.raises(BudgetError):
        frame_validates(frame, wide)
    with pytest.raises(BudgetError):
        frame_validates(frame, parse_formula("p"), budget=2)
    with pytest.raises(BudgetError, match=r"4\*\*1 exceeds the evaluation budget 3"):
        frame_validates(frame, parse_formula("p"), budget=3)
    # (2**n)**k with k = 0: a closed formula costs one valuation
    assert frame_validates(make_frame(12, []), parse_formula("<>1 -> 1"),
                           budget=100) == (True, None)
    # explicit budget increases are honored
    assert frame_validates(frame, parse_formula("p | ~p"), budget=16)[0]

    ba = FiniteBA(2)
    algebra = ModalAlgebra(ba, identity_operator(ba))
    with pytest.raises(BudgetError):
        algebra_validates(algebra, wide)
    with pytest.raises(BudgetError):
        quasiidentity_holds(algebra, [wide], BOT)
    with pytest.raises(BudgetError):
        premises_active(algebra, [wide])


@pytest.mark.parametrize("budget", [0, -5, True, False, "8", 2.0])
def test_budget_out_of_domain_is_refused(budget):
    ba = FiniteBA(2)
    algebra = ModalAlgebra(ba, identity_operator(ba))
    formula = parse_formula("p | ~p")
    with pytest.raises(DomainError, match="budget"):
        frame_validates(F2, formula, budget=budget)
    with pytest.raises(DomainError, match="budget"):
        algebra_validates(algebra, formula, budget=budget)
    with pytest.raises(DomainError, match="budget"):
        premises_active(algebra, [formula], budget=budget)


# --- Reference: the searches valuation by valuation that the bit-sliced
# engine replaced, kept here as the oracle for verdicts and witnesses.


def ref_evaluator(algebra):
    """Algebra value of a term, walking the formula for one assignment."""
    table, top = algebra.op.table(), algebra.base.top

    def go(node, assignment):
        if isinstance(node, Var):
            return assignment[node.name]
        if isinstance(node, Top):
            return top
        if isinstance(node, Bottom):
            return 0
        if isinstance(node, Not):
            return top ^ go(node.child, assignment)
        if isinstance(node, And):
            return go(node.left, assignment) & go(node.right, assignment)
        if isinstance(node, Or):
            return go(node.left, assignment) | go(node.right, assignment)
        if isinstance(node, Implies):
            return (top ^ go(node.left, assignment)) | go(node.right, assignment)
        if isinstance(node, Iff):
            return top ^ (go(node.left, assignment) ^ go(node.right, assignment))
        if isinstance(node, Diamond):
            return table[go(node.child, assignment)]
        return top ^ table[top ^ go(node.child, assignment)]

    return go


def _assignments(formulas, space):
    names = sorted(set().union(frozenset(), *(variables(f) for f in formulas)))
    for values in product(range(space), repeat=len(names)):
        yield dict(zip(names, values))


def ref_frame_validates(frame, formula):
    top = (1 << frame.n_worlds) - 1
    for valuation in _assignments([formula], top + 1):
        if ref_eval_in_model(frame, valuation, formula) != top:
            return False, valuation
    return True, None


def ref_algebra_validates(algebra, formula):
    evaluate = ref_evaluator(algebra)
    for assignment in _assignments([formula], algebra.base.size):
        if evaluate(formula, assignment) != algebra.base.top:
            return False, assignment
    return True, None


def ref_quasiidentity_holds(algebra, premises, conclusion):
    top, evaluate = algebra.base.top, ref_evaluator(algebra)
    for assignment in _assignments([*premises, conclusion], algebra.base.size):
        if all(evaluate(p, assignment) == top for p in premises):
            if evaluate(conclusion, assignment) != top:
                return False, assignment
    return True, None


def ref_premises_active(algebra, premises):
    top, evaluate = algebra.base.top, ref_evaluator(algebra)
    for assignment in _assignments(premises, algebra.base.size):
        if all(evaluate(p, assignment) == top for p in premises):
            return True, assignment
    return False, None


CATALOGUE = [axiom(name) for name in AXIOM_NAMES]
MEETS = [meet_axiom(axiom(a), axiom(b)) for a, b in _MEET_PAIRS]


def _all_algebras(max_atoms):
    for n in range(1, max_atoms + 1):
        ba = FiniteBA(n)
        for values in product(range(ba.size), repeat=n):
            yield ModalAlgebra(ba, ModalOperator(values))


def test_frame_validates_matches_reference():
    for n in range(1, 4):
        for frame in enumerate_frames(n):
            for formula in CATALOGUE + MEETS:
                assert frame_validates(frame, formula) == \
                    ref_frame_validates(frame, formula), (frame.rows, str(formula))


def test_algebra_searches_match_reference():
    rule = rule_p2()
    for algebra in _all_algebras(3):
        table = algebra.op.atom_values
        assert premises_active(algebra, rule.premises) == \
            ref_premises_active(algebra, rule.premises), table
        assert quasiidentity_holds(algebra, rule.premises, rule.conclusion) == \
            ref_quasiidentity_holds(algebra, rule.premises, rule.conclusion), table
        for formula, other in zip(CATALOGUE, CATALOGUE[1:] + CATALOGUE[:1]):
            assert algebra_validates(algebra, formula) == \
                ref_algebra_validates(algebra, formula), (table, str(formula))
            assert premises_active(algebra, [formula]) == \
                ref_premises_active(algebra, [formula]), (table, str(formula))
            assert quasiidentity_holds(algebra, [formula], other) == \
                ref_quasiidentity_holds(algebra, [formula], other), \
                (table, str(formula), str(other))


def test_witness_past_the_first_chunk():
    # 4 worlds and 5 variables: 2**20 valuations, 16 chunks of 2**16.  The
    # first chunk has a = 0 and is all valid; the first failure is
    # a = {0}, b = {0}, c = d = e = 0, valuation 2**16 + 2**12
    frame = make_frame(4, [(0, 1), (1, 2), (2, 3), (3, 3)])
    formula = parse_formula("a & b -> <>c | d & ~d | e & ~e")
    witness = {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0}
    assert frame_validates(frame, formula) == (False, witness)
    assert ref_frame_validates(frame, formula) == (False, witness)
    algebra = complex_algebra(frame)
    assert algebra_validates(algebra, formula) == (False, witness)
    assert ref_algebra_validates(algebra, formula) == (False, witness)
    # the premise forces a = {0,1,2,3}: the last chunk
    assert quasiidentity_holds(algebra, [parse_formula("a")], formula) == \
        (False, {"a": 15, "b": 1, "c": 0, "d": 0, "e": 0})
    # []e needs e to hold the successors {1, 2, 3}
    premise = parse_formula("a & ~b & []e & (c | ~c) & (d | ~d)")
    assert premises_active(algebra, [premise]) == \
        (True, {"a": 15, "b": 0, "c": 0, "d": 0, "e": 14})


_names = st.sampled_from(["p", "q", "r"])
_formulas = st.recursive(
    st.one_of(st.builds(Var, _names), st.just(Top()), st.just(Bottom())),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Diamond, sub), st.builds(Box, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
    ),
    max_leaves=8,
)


@st.composite
def _algebras(draw):
    n = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return ModalAlgebra(FiniteBA(n), ModalOperator(tuple(values)))


@settings(max_examples=150, deadline=None)
@given(_algebras(), _formulas, _formulas, st.data())
def test_random_formulas_match_reference(algebra, formula, other, data):
    frame = make_frame(algebra.n_atoms, [
        (i, j) for j, value in enumerate(algebra.op.atom_values)
        for i in range(algebra.n_atoms) if value >> i & 1
    ])  # the canonical frame: its complex algebra is the algebra itself
    assert frame_validates(frame, formula) == ref_frame_validates(frame, formula)
    assert algebra_validates(algebra, formula) == \
        ref_algebra_validates(algebra, formula)
    assert quasiidentity_holds(algebra, [formula], other) == \
        ref_quasiidentity_holds(algebra, [formula], other)
    assert premises_active(algebra, [formula, other]) == \
        ref_premises_active(algebra, [formula, other])
    assert premises_active(algebra, []) == ref_premises_active(algebra, []) \
        == (True, {})
    assignment = {name: data.draw(st.integers(0, algebra.base.top))
                  for name in sorted(variables(formula))}
    assert eval_in_algebra(algebra, assignment, formula) == \
        ref_evaluator(algebra)(formula, assignment) == \
        eval_in_model(frame, assignment, formula)


def test_closed_formulas_match_reference():
    ba = FiniteBA(2)
    algebra = ModalAlgebra(ba, ModalOperator((1, 3)))
    for text in ("1", "0", "<>1", "[]0 -> 0", "~<>0 & []1"):
        formula = parse_formula(text)
        assert algebra_validates(algebra, formula) == \
            ref_algebra_validates(algebra, formula), text
        assert premises_active(algebra, [formula]) == \
            ref_premises_active(algebra, [formula]), text


@pytest.mark.parametrize("formula", [Not("1"), And(Var("p"), "p"), Box("^")],
                         ids=["not_one", "and_p", "box_xor"])
def test_searches_refuse_string_leaves(formula):
    # a string is not a formula, even when it spells a connective or a variable
    frame = make_frame(2, [(0, 1)])
    algebra = complex_algebra(frame)
    for search in (lambda: frame_validates(frame, formula),
                   lambda: algebra_validates(algebra, formula),
                   lambda: quasiidentity_holds(algebra, [formula], Top()),
                   lambda: premises_active(algebra, [formula])):
        with pytest.raises(TypeError, match="not a formula node"):
            search()


def test_values_out_of_domain_are_refused():
    ba = FiniteBA(2)
    algebra = ModalAlgebra(ba, ModalOperator((1, 3)))
    p = parse_formula("p")
    for bad in (True, -1, 4, 1.0, "1", None):
        with pytest.raises(DomainError):
            eval_in_model(F2, {"p": bad}, p)
        with pytest.raises(DomainError):
            eval_in_algebra(algebra, {"p": bad}, p)
    with pytest.raises(BindingError):
        eval_in_algebra(algebra, {"q": 1}, parse_formula("p & q"))


# --- Reference: the walker that dispatched on node types at every step,
# kept here as the oracle for ``eval_in_model``, ``eval_in_algebra`` and,
# through ``ref_frame_validates``, ``frame_validates``.


def ref_eval_in_model(frame, valuation, formula):
    top = (1 << frame.n_worlds) - 1
    for name, mask in valuation.items():
        if type(mask) is not int or not 0 <= mask <= top:
            raise DomainError(f"value {mask!r} of {name!r} is not in 0..{top}")

    def go(node):
        if isinstance(node, Var):
            try:
                return valuation[node.name]
            except KeyError:
                raise BindingError(f"variable {node.name!r} has no value") from None
        if isinstance(node, (Top, Bottom)):
            return top if isinstance(node, Top) else 0
        if isinstance(node, Not):
            return top ^ go(node.child)
        if isinstance(node, And):
            return go(node.left) & go(node.right)
        if isinstance(node, Or):
            return go(node.left) | go(node.right)
        if isinstance(node, Implies):
            return (top ^ go(node.left)) | go(node.right)
        if isinstance(node, Iff):
            return top ^ (go(node.left) ^ go(node.right))
        if isinstance(node, (Diamond, Box)):
            flip = top if isinstance(node, Box) else 0  # []a is ~<>~a
            worlds = flip ^ go(node.child)
            out = 0
            for x, row in enumerate(frame.rows):
                if row & worlds:
                    out |= 1 << x
            return flip ^ out
        raise TypeError(f"not a formula node: {node!r}")

    return go(formula)


def _outcome(evaluate, *args):
    """The value, or the type and message of the error raised."""
    try:
        return evaluate(*args)
    except (BindingError, DomainError, TypeError) as exc:
        return type(exc), str(exc)


def test_eval_in_model_matches_reference():
    for n in range(1, 4):
        for frame in enumerate_frames(n):
            for formula in CATALOGUE:
                names = sorted(variables(formula))
                for values in product(range(1 << n), repeat=len(names)):
                    valuation = dict(zip(names, values))
                    assert eval_in_model(frame, valuation, formula) == \
                        ref_eval_in_model(frame, valuation, formula), \
                        (frame.rows, str(formula), valuation)


# leaves that are not formulas, and variables that may have no value
_junk = st.one_of(st.integers(-2, 2), st.none(), st.sampled_from(["p", "<>p"]))
_any_formulas = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["p", "q", "r", "s"])),
              st.just(Top()), st.just(Bottom()), _junk),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Diamond, sub), st.builds(Box, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_any_formulas, st.integers(1, 4), st.data())
def test_random_walks_match_reference(formula, n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=10))
    frame = make_frame(n, edges)
    valuation = data.draw(st.dictionaries(
        st.sampled_from(["p", "q", "r"]), st.integers(0, (1 << n) - 1)))
    expected = _outcome(ref_eval_in_model, frame, valuation, formula)
    assert _outcome(eval_in_model, frame, valuation, formula) == expected
    # the complex algebra: the same values, and the same first error in walk order
    assert _outcome(eval_in_algebra, complex_algebra(frame), valuation, formula) == expected
