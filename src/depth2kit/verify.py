"""Exhaustive verification suites over all instances up to size bounds.

Each suite enumerates every instance of one structural law inside the
stated bounds and records any failures.  Suites are data: a description
of the law, default bounds, and a generator yielding
(instance, expected, got, ok) records in a fixed deterministic order,
so reports are reproducible run to run.
"""

from __future__ import annotations

import json
import time
from itertools import product as iter_product
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .boolean import MAX_ATOMS, FiniteBA
from .duality import algebras_isomorphic, canonical_frame, complex_algebra
from .errors import BudgetError, DomainError, Record, SizeError
from .formulas import axiom, meet_axiom, rule_p2
from .frames import (
    MAX_ENUM_GENERAL,
    MAX_ENUM_QUASIORDER,
    MAX_WORLDS,
    Frame,
    canonical_form,
    cluster_poset,
    converse_frame,
    enumerate_frames,
    extremal_rows,
    frame_condition,
    make_frame,
)
from .operators import (
    MAX_EMBED_ATOMS,
    MAX_SUBALGEBRA_ATOMS,
    AlgebraClass,
    ModalAlgebra,
    ModalOperator,
    build_kn,
    classify_algebra,
    conjugate_check,
    embeds,
    extremal_operator,
    irreducibility,
    operator_properties,
    quotient,
    subalgebras,
)
from .semantics import frame_validates, premises_active, quasiidentity_holds

Check = tuple[str, str, str, bool]


class VerificationReport(Record):
    """Structured outcome of one suite run."""

    suite: str
    parameters: dict[str, int]
    checked: int
    failures: list[tuple[str, str, str]]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.parameters),
            "checked": self.checked,
            "failures": [list(f) for f in self.failures],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL({len(self.failures)})"
        params = ",".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        return (
            f"{self.suite:<24} {params:<18} checked={self.checked:<7} {verdict}"
        )


def _algebras_with_all_tables(max_atoms: int, closure_only: bool):
    for n in range(1, max_atoms + 1):
        ba = FiniteBA(n)
        for values in iter_product(range(ba.size), repeat=n):
            algebra = ModalAlgebra(ba, ModalOperator(values))
            if closure_only and not operator_properties(algebra).closure:
                continue
            yield algebra


def _between(ba: FiniteBA):
    return (a for a in ba.elements() if a not in (0, ba.top))


# --- Suites ---


def _suite_duality_roundtrip(p) -> Iterator[Check]:
    for algebra in _algebras_with_all_tables(p["atoms"], closure_only=True):
        back = complex_algebra(canonical_frame(algebra))
        ok, _ = algebras_isomorphic(back, algebra)
        yield (
            f"algebra atoms={algebra.n_atoms} f={algebra.op.atom_values}",
            "round trip isomorphic", str(ok), ok,
        )
    for n in range(1, p["worlds"] + 1):
        for frame in enumerate_frames(n, quasiorder=True):
            back = canonical_frame(complex_algebra(frame))
            ok = canonical_form(back) == canonical_form(frame)
            yield (
                f"quasiorder worlds={n} rows={frame.rows}",
                "round trip isomorphic", str(ok), ok,
            )


_UNRESTRICTED_AXIOMS = ("D", "T", "4", "B")
_QUASIORDER_AXIOMS = ("B2", "G2", "H3", "R1", "Dum", "Grz", "M")
_CONDITION_OF = {
    "D": "serial", "T": "reflexive", "4": "transitive", "B": "symmetric",
    "B2": "b2", "G2": "convergent", "H3": "dot3", "R1": "r1",
    "Dum": "dum", "Grz": "grz", "M": "m",
}


def _suite_table1(p) -> Iterator[Check]:
    # validity is invariant under relabeling, so one frame per
    # isomorphism class settles its whole class
    for n in range(1, p["worlds"] + 1):
        for frame in enumerate_frames(n):
            is_quasi = frame_condition(frame, "quasiorder")[0]
            names = _UNRESTRICTED_AXIOMS + (
                _QUASIORDER_AXIOMS if is_quasi else ()
            )
            for name in names:
                cond, _ = frame_condition(frame, _CONDITION_OF[name])
                valid, _ = frame_validates(frame, axiom(name))
                yield (
                    f"worlds={n} rows={frame.rows} axiom={name}",
                    f"condition {cond}", f"validity {valid}", cond == valid,
                )


def _suite_s42_equals_s43_depth2(p) -> Iterator[Check]:
    separating = 0
    for n in range(1, p["worlds"] + 1):
        for frame in enumerate_frames(n, quasiorder=True):
            convergent = frame_condition(frame, "convergent")[0]
            linear = frame_condition(frame, "dot3")[0]
            if cluster_poset(frame).depth <= 2:
                yield (
                    f"worlds={n} rows={frame.rows}",
                    f"convergent {convergent}", f"linearity {linear}",
                    convergent == linear,
                )
            elif convergent != linear:
                separating += 1
    if p["worlds"] >= 4:
        # the two conditions must come apart once depth three is allowed
        yield (
            "a separating quasiorder of depth >= 3 exists",
            "True", str(separating > 0), separating > 0,
        )


def _shape_check(kind, ba, a, frame) -> bool:
    # the lower level is the atoms below a, whose mask is a itself
    return frame.rows == extremal_rows(kind, a, ba.top ^ a, ba.n_atoms)


def _suite_canonical_shapes(p) -> Iterator[Check]:
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        for a in ba.elements():
            frame = canonical_frame(ModalAlgebra(ba, extremal_operator("iu", ba, a)))
            ok = _shape_check("iu", ba, a, frame)
            yield (f"iu atoms={n} a={a}", "simple lower level, one upper cluster",
                   str(ok), ok)

            frame = canonical_frame(ModalAlgebra(ba, extremal_operator("ui", ba, a)))
            ok = _shape_check("ui", ba, a, frame)
            yield (f"ui atoms={n} a={a}", "one lower cluster, simple upper level",
                   str(ok), ok)
            if a not in (0, ba.top):
                for cond in ("m", "b2"):
                    holds, _ = frame_condition(frame, cond)
                    yield (f"ui atoms={n} a={a} condition={cond}",
                           "True", str(holds), holds)

            if a != 0:
                algebra = ModalAlgebra(ba, extremal_operator("uu", ba, a))
                frame = canonical_frame(algebra)
                ok = _shape_check("uu", ba, a, frame)
                yield (f"uu atoms={n} a={a}", "chain of at most two clusters",
                       str(ok), ok)
                poset = cluster_poset(frame)
                chain = poset.depth == len(poset.clusters) <= 2
                yield (f"uu atoms={n} a={a} cluster chain", "True", str(chain), chain)

            frame = canonical_frame(ModalAlgebra(ba, extremal_operator("ii", ba, a)))
            ok = _shape_check("ii", ba, a, frame)
            yield (f"ii atoms={n} b={a}", "lower-to-upper plus identity",
                   str(ok), ok)


def _suite_si_characterizations(p) -> Iterator[Check]:
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        two_element = ba.size == 2
        for a in ba.elements():
            atom = a != 0 and a & (a - 1) == 0

            verdict = irreducibility(ModalAlgebra(ba, extremal_operator("iu", ba, a)))
            expected = a == 0 or atom
            yield (f"iu atoms={n} a={a}", f"si {expected}", f"si {verdict.is_si}",
                   expected == verdict.is_si)

            if a != ba.top:  # filter members only; the filter {top} is excluded
                verdict = irreducibility(
                    ModalAlgebra(ba, extremal_operator("ui", ba, a))
                )
                expected = two_element or a != 0
                yield (f"ui atoms={n} a={a}", f"si {expected}", f"si {verdict.is_si}",
                       expected == verdict.is_si)

            if a != 0:
                verdict = irreducibility(
                    ModalAlgebra(ba, extremal_operator("uu", ba, a))
                )
                yield (f"uu atoms={n} a={a}", "si True", f"si {verdict.is_si}",
                       verdict.is_si)

            verdict = irreducibility(ModalAlgebra(ba, extremal_operator("ii", ba, a)))
            expected = two_element or atom
            yield (f"ii atoms={n} b={a}", f"si {expected}", f"si {verdict.is_si}",
                   expected == verdict.is_si)


_FAMILY_KINDS = {
    "iu": {AlgebraClass.IMA},
    "ui": {AlgebraClass.FMA, AlgebraClass.FMA_PROPER},
    "uu": {AlgebraClass.MMA},
    "ii": {AlgebraClass.GMA},
}


def _family_members(kind: str, ba: FiniteBA):
    for a in ba.elements():
        if kind == "uu" and a == 0:
            continue
        if kind == "ui" and a == ba.top:
            continue
        yield a, ModalAlgebra(ba, extremal_operator(kind, ba, a))


def _suite_closure_properties(p) -> Iterator[Check]:
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        for kind, expected_kinds in _FAMILY_KINDS.items():
            for a, algebra in _family_members(kind, ba):
                for c in sorted(algebra.closed_elements() - {ba.top}):
                    labels = classify_algebra(quotient(algebra, c))
                    ok = any(l.kind in expected_kinds for l in labels)
                    yield (
                        f"{kind} atoms={n} a={a} quotient c={c}",
                        f"stays {kind}", str(sorted(str(l) for l in labels)), ok,
                    )
        for a in ba.elements():
            algebra = ModalAlgebra(ba, extremal_operator("ii", ba, a))
            for sub in subalgebras(algebra):
                labels = classify_algebra(sub.algebra)
                ok = any(l.kind is AlgebraClass.GMA for l in labels)
                yield (
                    f"ii atoms={n} b={a} subalgebra blocks={sub.blocks}",
                    "stays ii", str(sorted(str(l) for l in labels)), ok,
                )


def _suite_sum_and_union(p) -> Iterator[Check]:
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        for a in _between(ba):
            f_iu = extremal_operator("iu", ba, a)
            f_ui = extremal_operator("ui", ba, a)
            f_uu = extremal_operator("uu", ba, a)
            ok = all(f_iu(x) | f_ui(x) == f_uu(x) for x in ba.elements())
            yield (f"pointwise sum atoms={n} a={a}", "iu + ui = uu", str(ok), ok)
            r_iu = canonical_frame(ModalAlgebra(ba, f_iu)).rows
            r_ui = canonical_frame(ModalAlgebra(ba, f_ui)).rows
            r_uu = canonical_frame(ModalAlgebra(ba, f_uu)).rows
            union = tuple(x | y for x, y in zip(r_iu, r_ui))
            yield (f"relation union atoms={n} a={a}", "iu | ui = uu",
                   str(union == r_uu), union == r_uu)


def _suite_conjugacy(p) -> Iterator[Check]:
    # every relation, labeled: the operator of a frame and the operator
    # of its converse are conjugate
    for n in range(1, p["worlds"] + 1):
        space = 1 << (n * n)
        for m in range(space):
            rows = tuple((m >> (x * n)) & ((1 << n) - 1) for x in range(n))
            frame = Frame(n, rows)
            algebra = complex_algebra(frame)
            other = complex_algebra(converse_frame(frame)).op
            ok, witness = conjugate_check(algebra, other)
            yield (f"frame worlds={n} rows={rows}", "conjugate", str(ok), ok)
    # the iu operator at a is conjugate to the ui operator at the
    # complement of a, and their canonical frames are exact converses
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        for a in ba.elements():
            iu_algebra = ModalAlgebra(ba, extremal_operator("iu", ba, a))
            ui_op = extremal_operator("ui", ba, ba.complement(a))
            ok, _ = conjugate_check(iu_algebra, ui_op)
            yield (f"iu a={a} vs ui a'={ba.complement(a)} atoms={n}",
                   "conjugate", str(ok), ok)
            converse_ok = (
                converse_frame(canonical_frame(iu_algebra)).rows
                == canonical_frame(ModalAlgebra(ba, ui_op)).rows
            )
            yield (f"converse frames iu a={a} atoms={n}", "exact converse",
                   str(converse_ok), converse_ok)


def _suite_meets(p) -> Iterator[Check]:
    chain2 = complex_algebra(make_frame(2, [(0, 0), (0, 1), (1, 1)]))
    kinds = {l.kind for l in classify_algebra(chain2)}
    wanted = {
        AlgebraClass.IMA, AlgebraClass.FMA_PROPER,
        AlgebraClass.MMA, AlgebraClass.GMA,
    }
    yield ("two-element chain algebra in all four families",
           str(sorted(k.value for k in wanted)),
           str(sorted(k.value for k in kinds & wanted)), wanted <= kinds)
    for n in range(1, p["atoms"] + 1):
        ba = FiniteBA(n)
        for a in _between(ba):
            for b in _between(ba):
                if extremal_operator("uu", ba, a) != extremal_operator("ui", ba, b):
                    continue
                algebra = ModalAlgebra(ba, extremal_operator("uu", ba, a))
                antiatom = ba.complement(b) != 0 and (
                    ba.complement(b) & (ba.complement(b) - 1) == 0
                )
                ok = a == b and antiatom and irreducibility(algebra).is_si
                yield (
                    f"uu a={a} equals ui b={b} atoms={n}",
                    "a = b, b an antiatom, si", str(ok), ok,
                )


_MEET_PAIRS = (("M", "R1"), ("M", "Dum"), ("M", "H3"), ("Dum", "H3"), ("T", "4"))


def _suite_lmeet_soundness(p) -> Iterator[Check]:
    for left_name, right_name in _MEET_PAIRS:
        left, right = axiom(left_name), axiom(right_name)
        combined = meet_axiom(left, right)
        for n in range(1, p["worlds"] + 1):
            for frame in enumerate_frames(n, quasiorder=True):
                for side_name, side in ((left_name, left), (right_name, right)):
                    if not frame_validates(frame, side)[0]:
                        continue
                    ok = frame_validates(frame, combined)[0]
                    yield (
                        f"{left_name}+{right_name} worlds={n} rows={frame.rows} "
                        f"side={side_name}",
                        "combined axiom valid", str(ok), ok,
                    )


def _suite_kn_embedding(p) -> Iterator[Check]:
    k2, k3, k4 = build_kn(2), build_kn(3), build_kn(4)
    for n in range(2, p["atoms"] + 1):
        ba = FiniteBA(n)
        for a in _between(ba):
            found, _ = embeds(k3, ModalAlgebra(ba, extremal_operator("ui", ba, a)))
            yield (f"k3 into ui atoms={n} a={a}", "no embedding", str(not found),
                   not found)
            found, _ = embeds(k2, ModalAlgebra(ba, extremal_operator("uu", ba, a)))
            yield (f"k2 into uu atoms={n} a={a}", "embedding exists", str(found),
                   found)
        for b in ba.elements():
            found, _ = embeds(k4, ModalAlgebra(ba, extremal_operator("ii", ba, b)))
            yield (f"k4 into ii atoms={n} b={b}", "no embedding", str(not found),
                   not found)


def _splits_every_row(rows) -> bool:
    """Whether some world set P has every world see a world in P and one
    outside it: where p is P, that is when <>p & <>~p holds at every
    world, decided without evaluating a formula."""
    top = (1 << len(rows)) - 1
    return any(all(row & mask and row & (top ^ mask) for row in rows)
               for mask in range(top + 1))


def _suite_p2_quasiidentity(p) -> Iterator[Check]:
    rule = rule_p2()
    premises = rule.premises
    conclusion = rule.conclusion

    two = ModalAlgebra(FiniteBA(1), ModalOperator((1,)))
    holds, _ = quasiidentity_holds(two, premises, conclusion)
    yield ("two-element algebra", "holds vacuously", str(holds), holds)
    active, _ = premises_active(two, premises)
    yield ("two-element algebra premises", "inactive", str(not active), not active)

    for n in range(2, p["atoms"] + 1):
        ba = FiniteBA(n)
        simple = ModalAlgebra(ba, extremal_operator("uu", ba, ba.top))
        holds, witness = quasiidentity_holds(simple, premises, conclusion)
        confirmed = (
            not holds
            and witness is not None
            and premises_active(simple, premises)[1] is not None
        )
        yield (f"simple algebra atoms={n}", "fails with witness",
               f"holds={holds} witness={witness}", confirmed)

    for algebra in _algebras_with_all_tables(p["atoms"], closure_only=False):
        active, _ = premises_active(algebra, premises)
        oracle = _splits_every_row(canonical_frame(algebra).rows)
        yield (
            f"activeness atoms={algebra.n_atoms} f={algebra.op.atom_values}",
            f"oracle {oracle}", f"active {active}", active == oracle,
        )


# a suite that would sweep more atom tables or relations than this is
# refused before it starts: at tens of microseconds each, about a minute
MAX_SUITE_INSTANCES = 1 << 20


def _tables(p) -> int:  # beyond MAX_ATOMS the count is far past the cap anyway
    return sum((1 << n) ** n for n in range(1, min(p["atoms"], MAX_ATOMS) + 1))


def _relations(p) -> int:
    return sum(1 << n * n for n in range(1, min(p["worlds"], MAX_WORLDS) + 1))


class Suite(Record):
    name: str
    law: str
    defaults: dict[str, int]
    generate: Callable[[dict], Iterator[Check]]
    minimum: Mapping[str, int] = MappingProxyType({})  # read-only, so sharable
    maximum: Mapping[str, int] = MappingProxyType({})
    cost: Callable[[dict], int] | None = None


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite(
            "duality_roundtrip",
            "complex algebra of the canonical frame reproduces the algebra, "
            "and canonical frame of the complex algebra reproduces the frame",
            {"atoms": 3, "worlds": 4},
            _suite_duality_roundtrip,
            maximum={"worlds": MAX_ENUM_QUASIORDER},
            cost=_tables,
        ),
        Suite(
            "table1",
            "each catalogued axiom is frame-valid exactly where its "
            "first-order condition holds",
            {"worlds": 4},
            _suite_table1,
            maximum={"worlds": MAX_ENUM_GENERAL},
        ),
        Suite(
            "s42_equals_s43_depth2",
            "convergence and linearity coincide on quasiorders of depth "
            "at most two and come apart at depth three",
            {"worlds": 5},
            _suite_s42_equals_s43_depth2,
            maximum={"worlds": MAX_ENUM_QUASIORDER},
        ),
        Suite(
            "canonical_shapes",
            "canonical frames of the four operator families have their "
            "characteristic two-level shapes",
            {"atoms": 4},
            _suite_canonical_shapes,
        ),
        Suite(
            "si_characterizations",
            "subdirect irreducibility matches the per-family parameter "
            "characterizations",
            {"atoms": 4},
            _suite_si_characterizations,
        ),
        Suite(
            "closure_properties",
            "quotients stay in their family, and subalgebras of ii-algebras "
            "stay ii",
            {"atoms": 4},
            _suite_closure_properties,
            maximum={"atoms": MAX_SUBALGEBRA_ATOMS},
        ),
        Suite(
            "sum_and_union",
            "iu and ui operators at a parameter sum to the uu operator, and "
            "their canonical relations union to its relation",
            {"atoms": 4},
            _suite_sum_and_union,
            minimum={"atoms": 2},
        ),
        Suite(
            "conjugacy",
            "frame operators are conjugate to their converse-frame operators; "
            "iu at a is conjugate to ui at the complement of a",
            {"worlds": 4, "atoms": 4},
            _suite_conjugacy,
            cost=_relations,
        ),
        Suite(
            "meets",
            "the four-element chain algebra lies in all four families, and a "
            "shared uu/ui presentation forces equal antiatom parameters",
            {"atoms": 4},
            _suite_meets,
        ),
        Suite(
            "lmeet_soundness",
            "a frame validating either input axiom validates their "
            "variable-disjoint boxed disjunction",
            {"worlds": 4},
            _suite_lmeet_soundness,
            maximum={"worlds": MAX_ENUM_QUASIORDER},
        ),
        Suite(
            "kn_embedding",
            "chain-algebra embedding tests: none into ui duals (k3) or ii "
            "algebras (k4); k2 embeds into every nontrivial uu algebra",
            {"atoms": 4},
            _suite_kn_embedding,
            minimum={"atoms": 2},
            maximum={"atoms": MAX_EMBED_ATOMS},
        ),
        Suite(
            "p2_quasiidentity",
            "the passive-rule quasiidentity holds vacuously on the "
            "two-element algebra, fails on larger simple algebras, and "
            "activeness matches the premise's first-order meaning on the "
            "canonical frame",
            {"atoms": 3},
            _suite_p2_quasiidentity,
            cost=_tables,
        ),
    )
}

SUITE_NAMES = tuple(SUITES)


def _bounds(name: str, params: dict, capped: bool = True) -> dict[str, int]:
    """The suite's defaults overridden by ``params``, refused before any
    work: unknown names (KeyError), bounds that are not integers >= 1 or
    below the suite's ``minimum`` (DomainError), bounds whose ``cost``
    in instances is over MAX_SUITE_INSTANCES (BudgetError) and, when
    ``capped``, bounds above the suite's ``maximum``, the library cap
    its enumeration would hit partway (SizeError)."""
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        )
    suite = SUITES[name]
    merged = dict(suite.defaults)
    for key, value in params.items():
        if value is None:
            continue
        if key not in merged:
            raise KeyError(f"suite {name!r} takes no parameter {key!r}")
        if type(value) is not int or value < 1:  # bools are ints; refuse them
            raise DomainError(f"suite {name!r} bound {key}={value!r} "
                              "must be an integer >= 1")
        merged[key] = value
    for key, least in suite.minimum.items():
        if merged[key] < least:
            raise DomainError(f"suite {name!r} checks nothing at {key}="
                              f"{merged[key]}; it needs {key} >= {least}")
    if suite.cost is not None and suite.cost(merged) > MAX_SUITE_INSTANCES:
        raise BudgetError(f"suite {name!r} at {merged} would sweep more than "
                          f"{MAX_SUITE_INSTANCES} instances; lower its bounds")
    for key, most in suite.maximum.items() if capped else ():
        if merged[key] > most:
            raise SizeError(f"suite {name!r} is bounded at {key}={most}, "
                            f"got {key}={merged[key]}")
    return merged


def run_suite(name: str, **params: int) -> VerificationReport:
    """Run one named suite; its bounds are checked by ``_bounds`` before
    any work, and a run that checks nothing raises DomainError."""
    merged = _bounds(name, params)
    started = time.perf_counter()
    checked = 0
    failures = []
    for instance, expected, got, ok in SUITES[name].generate(merged):
        checked += 1
        if not ok:
            failures.append((instance, expected, got))
    if not checked:
        raise DomainError(f"suite {name!r} checks nothing at {merged}")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(name, merged, checked, failures, elapsed_ms)


def run_all(**params: int) -> list[VerificationReport]:
    """Run every suite, passing each only the parameters it understands;
    every suite's bounds are checked before the first suite starts, the
    budget of every suite before any suite's ``maximum``."""
    applicable = {
        name: {k: v for k, v in params.items() if k in suite.defaults}
        for name, suite in SUITES.items()
    }
    for capped in (False, True):
        for name, bounds in applicable.items():
            _bounds(name, bounds, capped)
    return [run_suite(name, **bounds) for name, bounds in applicable.items()]
