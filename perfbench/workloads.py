"""The benchmark's four workloads: inputs, operations and output checks.

A workload builds its inputs from the seed before anything is timed.
``operations`` lists (name, run, plain) triples: ``run`` is the timed
call and ``plain`` turns its result into plain data after the clock
has stopped.  ``failure`` says whether an operation failed, and
``check`` compares the outputs of the operations that did not fail
with the references in ``reference`` and with properties that hold
for any correct method.  ``corruptions`` lists deliberate corruptions
of those outputs, each of which the checks must catch.

The library workloads call depth2kit in this process, through module
attributes so that a tracer installed later sees the calls.  The cli
workload runs each command in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import reference as ref

UNRESTRICTED_AXIOMS = ("D", "T", "4", "B")
QUASIORDER_AXIOMS = ("B2", "G2", "H3", "R1", "Dum", "Grz", "M")
MEET_PAIRS = (("M", "R1"), ("M", "Dum"), ("M", "H3"), ("Dum", "H3"), ("T", "4"))
SMALL_SUITES = ("canonical_shapes", "si_characterizations", "closure_properties",
                "sum_and_union", "meets", "kn_embedding")
# fixed, so that the exhaustive inputs do not depend on the run's seed
BASE_FRAME_SEED = 2309


def _kit():
    import depth2kit.duality
    import depth2kit.formulas
    import depth2kit.frames
    import depth2kit.semantics
    import depth2kit.verify
    return depth2kit


def _report(report) -> dict:
    return report.to_dict()


def _check_report(errors, name, report, checked, params=None):
    if report["failures"]:
        errors.append(f"{name}: {len(report['failures'])} failures, first "
                      f"{report['failures'][0]}")
    if report["checked"] != checked:
        errors.append(f"{name}: checked {report['checked']}, expected {checked}")
    if params is not None and report["params"] != params:
        errors.append(f"{name}: params {report['params']}, expected {params}")


def _recheck_witness(errors, label, rows, formula, valid, witness):
    """A falsifying valuation must falsify under the reference evaluator."""
    if valid:
        if witness is not None:
            errors.append(f"{label}: valid verdict with a witness {witness}")
        return
    if set(witness) != ref.variables(formula):
        errors.append(f"{label}: witness {witness} does not bind the formula's variables")
    elif ref.eval_in_frame(rows, witness, formula) == (1 << len(rows)) - 1:
        errors.append(f"{label}: witness {witness} does not falsify")


class Workload:
    name = ""

    def operations(self):
        raise NotImplementedError

    def failure(self, name, value):
        if isinstance(value, BaseException):
            return f"{type(value).__name__}: {value}"
        return None

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def corruptions(self) -> dict:
        raise NotImplementedError


# --- frame_validity ---


class FrameValidity(Workload):
    """table1 and lmeet_soundness at default bounds, plus direct validity calls.

    The direct calls ask frame_validates and algebra_validates the
    table1 questions on every relation on 3 worlds up to isomorphism,
    so that verdicts and witnesses reach the benchmark.
    """

    name = "frame_validity"

    def __init__(self, seed: int, workdir: Path):
        self.kit = _kit()
        self.relations = [
            (rows, ref.is_quasiorder(rows)) for rows in ref.relations_up_to_iso(3)
        ]

    def operations(self):
        verify = self.kit.verify
        return [
            ("table1", lambda: verify.run_suite("table1"), _report),
            ("lmeet_soundness", lambda: verify.run_suite("lmeet_soundness"), _report),
            ("validity_agreement", self._agreement, None),
        ]

    def _agreement(self):
        frames, duality = self.kit.frames, self.kit.duality
        formulas, semantics = self.kit.formulas, self.kit.semantics
        out = []
        for rows, quasi in self.relations:
            frame = frames.Frame(len(rows), rows)
            algebra = duality.complex_algebra(frame)
            for name in UNRESTRICTED_AXIOMS + (QUASIORDER_AXIOMS if quasi else ()):
                formula = formulas.axiom(name)
                out.append([rows, name,
                            list(semantics.frame_validates(frame, formula)),
                            list(semantics.algebra_validates(algebra, formula))])
        return out

    def check(self, outputs):
        errors = []
        axioms = {}

        def axiom(name):
            if name not in axioms:
                axioms[name] = ref.from_ast(self.kit.formulas.axiom(name))
            return axioms[name]

        if "table1" in outputs:
            _check_report(errors, "table1", outputs["table1"],
                          ref.table1_checked(4), {"worlds": 4})
        if "lmeet_soundness" in outputs:
            valid = {}
            expected = 0
            for n in range(1, 5):
                for rows in ref.quasiorders_up_to_iso(n):
                    for pair in MEET_PAIRS:
                        for side in pair:
                            if (rows, side) not in valid:
                                valid[rows, side] = ref.first_falsifying(rows, axiom(side))[0]
                            expected += valid[rows, side]
            _check_report(errors, "lmeet_soundness", outputs["lmeet_soundness"],
                          expected, {"worlds": 4})
        if "validity_agreement" in outputs:
            answers = outputs["validity_agreement"]
            expected = sum(4 + 7 * quasi for _, quasi in self.relations)
            if len(answers) != expected:
                errors.append(f"validity_agreement: {len(answers)} answers, "
                              f"expected {expected}")
            for rows, name, by_frame, by_algebra in answers:
                label = f"validity_agreement rows={rows} axiom={name}"
                if by_frame != by_algebra:
                    errors.append(f"{label}: frame {by_frame} but complex algebra "
                                  f"{by_algebra}")
                _recheck_witness(errors, label, rows, axiom(name), *by_frame)
                if list(ref.first_falsifying(rows, axiom(name))) != by_frame:
                    errors.append(f"{label}: {by_frame} is not the first failure")
        return errors

    def corruptions(self):
        def flip_verdict(out):
            answer = out["validity_agreement"][0]
            answer[2] = answer[3] = [not answer[2][0], None]

        def wrong_witness(out):
            for answer in out["validity_agreement"]:
                if not answer[2][0]:
                    witness = dict(answer[2][1])
                    name = min(witness)
                    witness[name] ^= 1
                    answer[2][1] = answer[3][1] = witness
                    return

        def failing_suite(out):
            out["table1"]["failures"].append(["worlds=1", "condition True",
                                              "validity False"])

        def dropped_instance(out):
            out["lmeet_soundness"]["checked"] -= 1

        return {"flipped verdict": flip_verdict, "wrong witness": wrong_witness,
                "failing suite": failing_suite, "dropped instance": dropped_instance}


# --- algebra_sweep ---


class AlgebraSweep(Workload):
    """p2_quasiidentity over every atom table up to 4 atoms, conjugacy over
    every labeled relation up to 4 worlds, and the six small algebra suites."""

    name = "algebra_sweep"

    def __init__(self, seed: int, workdir: Path):
        self.kit = _kit()

    def operations(self):
        verify = self.kit.verify
        return [
            ("p2_quasiidentity",
             lambda: verify.run_suite("p2_quasiidentity", atoms=4), _report),
            ("conjugacy", lambda: verify.run_suite("conjugacy"), _report),
            ("small_suites",
             lambda: [verify.run_suite(name) for name in SMALL_SUITES],
             lambda reports: [r.to_dict() for r in reports]),
        ]

    def check(self, outputs):
        errors = []
        if "p2_quasiidentity" in outputs:
            _check_report(errors, "p2_quasiidentity", outputs["p2_quasiidentity"],
                          ref.p2_quasiidentity_checked(4), {"atoms": 4})
        if "conjugacy" in outputs:
            _check_report(errors, "conjugacy", outputs["conjugacy"],
                          ref.conjugacy_checked(4, 4), {"worlds": 4, "atoms": 4})
        if "small_suites" in outputs:
            reports = outputs["small_suites"]
            if [r["suite"] for r in reports] != list(SMALL_SUITES):
                errors.append(f"small_suites: got {[r['suite'] for r in reports]}")
            else:
                for report in reports:
                    _check_report(errors, report["suite"], report,
                                  ref.SMALL_SUITE_CHECKED[report["suite"]](4),
                                  {"atoms": 4})
        return errors

    def corruptions(self):
        def flip_verdict(out):
            out["conjugacy"]["failures"].append(["frame worlds=1 rows=(0,)",
                                                 "conjugate", "False"])

        def dropped_instance(out):
            out["p2_quasiidentity"]["checked"] -= 1

        def small_suite_failure(out):
            out["small_suites"][4]["failures"].append(["x", "y", "z"])

        return {"flipped verdict": flip_verdict, "dropped instance": dropped_instance,
                "small suite failure": small_suite_failure}


# --- enumeration ---


def _random_quasiorder(rng: random.Random, n: int) -> tuple[int, ...]:
    """Reflexive-transitive closure of a random relation."""
    rows = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if rng.random() < 0.25:
                rows[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = rows[x]
            for y in range(n):
                if rows[x] >> y & 1:
                    reach |= rows[y]
            if reach != rows[x]:
                rows[x], changed = reach, True
    return tuple(rows)


def _degrees(rows) -> list[tuple[int, int]]:
    n = len(rows)
    return sorted((bin(rows[x]).count("1"),
                   sum(rows[y] >> x & 1 for y in range(n))) for x in range(n))


class Enumeration(Workload):
    """Isomorph-free enumeration, the suites built on it, and isomorphism tests.

    The isomorphism tests relabel fixed quasiorders on 1 to 7 worlds by
    permutations drawn from the seed.  Each base frame is also paired
    with another base frame of its size that has different degrees, so
    that some tests must answer "not isomorphic".
    """

    name = "enumeration"
    PER_SIZE = 3
    MAX_WORLDS = 7

    def __init__(self, seed: int, workdir: Path):
        self.kit = _kit()
        base_rng, rng = random.Random(BASE_FRAME_SEED), random.Random(seed)
        self.tests = []
        for n in range(1, self.MAX_WORLDS + 1):
            bases, seen = [], []
            for _ in range(400):
                rows = _random_quasiorder(base_rng, n)
                if _degrees(rows) not in seen:
                    seen.append(_degrees(rows))
                    bases.append(rows)
                if len(bases) == self.PER_SIZE:
                    break
            for i, rows in enumerate(bases):
                perm = list(range(n))
                rng.shuffle(perm)
                other = bases[(i + 1) % len(bases)] if len(bases) > 1 else None
                self.tests.append((rows, ref.relabel(rows, perm), other))
        self.quasiorders: list = []

    def operations(self):
        frames, verify = self.kit.frames, self.kit.verify

        def quasiorders():
            self.quasiorders = [frames.enumerate_frames(n, quasiorder=True)
                                for n in range(1, 6)]
            return self.quasiorders

        def rows_of(lists):
            return [[f.rows for f in frames_n] for frames_n in lists]

        return [
            ("quasiorders", quasiorders, rows_of),
            ("relations", lambda: [frames.enumerate_frames(n) for n in range(1, 5)],
             rows_of),
            ("s42_equals_s43_depth2",
             lambda: verify.run_suite("s42_equals_s43_depth2"), _report),
            ("duality_roundtrip",
             lambda: verify.run_suite("duality_roundtrip", atoms=3, worlds=5), _report),
            ("isomorphism", self._isomorphism, None),
        ]

    def _isomorphism(self):
        frames, duality = self.kit.frames, self.kit.duality
        tests = []
        for rows, relabeled, other in self.tests:
            a, b = frames.Frame(len(rows), rows), frames.Frame(len(rows), relabeled)
            alg_a, alg_b = duality.complex_algebra(a), duality.complex_algebra(b)
            found, perm = duality.algebras_isomorphic(alg_a, alg_b)
            test = {
                "rows": rows, "relabeled": relabeled,
                "canonical": [frames.canonical_form(a).rows,
                              frames.canonical_form(b).rows],
                "tables": [alg_a.op.atom_values, alg_b.op.atom_values],
                "iso": [found, list(perm) if perm else None],
            }
            if other is not None:
                c = frames.Frame(len(other), other)
                test["other"] = other
                test["other_canonical"] = frames.canonical_form(c).rows
                test["other_iso"] = duality.algebras_isomorphic(
                    alg_a, duality.complex_algebra(c))[0]
            tests.append(test)
        largest = self.quasiorders[-1] if self.quasiorders else []
        forms = [frames.canonical_form(f).rows for f in largest]
        return {"tests": tests, "class_forms": forms}

    def check(self, outputs):
        errors = []
        depth2 = None
        if "quasiorders" in outputs:
            lists = outputs["quasiorders"]
            for n, found in enumerate(lists, start=1):
                self._check_classes(errors, f"quasiorders n={n}", found,
                                    ref.QUASIORDERS_UP_TO_ISO[n], quasi=True)
            depth2 = sum(ref.depth(rows) <= 2 for found in lists for rows in found)
        if "relations" in outputs:
            for n, found in enumerate(outputs["relations"], start=1):
                self._check_classes(errors, f"relations n={n}", found,
                                    ref.RELATIONS_UP_TO_ISO[n], quasi=False)
        if "s42_equals_s43_depth2" in outputs and depth2 is not None:
            # one check per class of depth at most two, one for separation
            _check_report(errors, "s42_equals_s43_depth2",
                          outputs["s42_equals_s43_depth2"], depth2 + 1, {"worlds": 5})
        if "duality_roundtrip" in outputs:
            _check_report(errors, "duality_roundtrip", outputs["duality_roundtrip"],
                          ref.duality_roundtrip_checked(3, 5), {"atoms": 3, "worlds": 5})
        if "isomorphism" in outputs:
            self._check_isomorphism(errors, outputs["isomorphism"])
        return errors

    @staticmethod
    def _check_classes(errors, label, found, count, quasi):
        if len(found) != count:
            errors.append(f"{label}: {len(found)} classes, published count {count}")
        if quasi and not all(ref.is_quasiorder(rows) for rows in found):
            errors.append(f"{label}: a class is not a quasiorder")
        forms = {ref.canonical(rows) for rows in found}
        if len(forms) != len(found):
            errors.append(f"{label}: {len(found) - len(forms)} isomorphic duplicates")

    def _check_isomorphism(self, errors, out):
        tests = out["tests"]
        if len(tests) != len(self.tests):
            errors.append(f"isomorphism: {len(tests)} tests, expected {len(self.tests)}")
        for test, (rows, relabeled, other) in zip(tests, self.tests):
            label = f"isomorphism rows={rows}"
            if test["rows"] != rows or test["relabeled"] != relabeled:
                errors.append(f"{label}: ran on other inputs")
                continue
            first, second = test["canonical"]
            if first != second:
                errors.append(f"{label}: canonical form changes under relabeling")
            if _degrees(first) != _degrees(rows):
                errors.append(f"{label}: canonical form is not a relabeling")
            if test["tables"] != [tuple(ref.predecessor_table(rows)),
                                  tuple(ref.predecessor_table(relabeled))]:
                errors.append(f"{label}: complex algebra is not the predecessor table")
            found, perm = test["iso"]
            if not found or perm is None:
                errors.append(f"{label}: relabeled copy reported not isomorphic")
            elif not ref.transports(*test["tables"], perm):
                errors.append(f"{label}: permutation {perm} does not transport "
                              "the atom tables")
            if other is not None:
                if test.get("other_iso") is not False:
                    errors.append(f"{label}: frames with different degrees "
                                  "reported isomorphic")
                if test.get("other_canonical") == first:
                    errors.append(f"{label}: canonical form does not separate "
                                  "non-isomorphic frames")
        forms = out["class_forms"]
        if len(forms) != ref.QUASIORDERS_UP_TO_ISO[5] or len(set(forms)) != len(forms):
            errors.append("isomorphism: canonical_form does not separate the "
                          f"{len(forms)} enumerated classes on 5 worlds pairwise")

    def corruptions(self):
        def dropped_class(out):
            del out["quasiorders"][4][7]

        def duplicate_class(out):
            relations = out["relations"][2]
            relations[5] = ref.relabel(relations[4], (1, 2, 0))

        def wrong_permutation(out):
            for test in out["isomorphism"]["tests"]:
                perm = test["iso"][1]
                if len(perm) > 2 and not ref.transports(
                        *test["tables"], perm[1:2] + perm[:1] + perm[2:]):
                    test["iso"][1] = perm[1:2] + perm[:1] + perm[2:]
                    return

        def flipped_verdict(out):
            out["isomorphism"]["tests"][-1]["other_iso"] = True

        def variant_canonical_form(out):
            test = out["isomorphism"]["tests"][-1]
            test["canonical"][1] = test["relabeled"]

        return {"dropped class": dropped_class, "duplicate class": duplicate_class,
                "wrong witness": wrong_permutation, "flipped verdict": flipped_verdict,
                "canonical form not invariant": variant_canonical_form}


# --- cli ---


class Command:
    """One depth2-kit invocation and what it returned."""

    def __init__(self, argv, exit_code, stdout, stderr):
        self.argv, self.exit_code = argv, exit_code
        self.stdout, self.stderr = stdout, stderr


def _random_formula(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(("p", "q", "r", "p", "q", "r", "1", "0"))
    op = rng.choice(("~", "<>", "[]", "&", "|", "->", "<->"))
    if op in ("~", "<>", "[]"):
        return op + _random_formula(rng, depth - 1)
    left, right = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return f"({left} {op} {right})"


FRAMES = {
    # a simple world below a two-world cluster
    "qo3": (0b111, 0b110, 0b110),
    # a two-element chain
    "chain2": (0b11, 0b10),
    # irreflexive path 0 -> 1 -> 2 with a loop at 2
    "path3": (0b010, 0b100, 0b100),
}

# (frame, condition, axiom): the two commands of a pair must agree
CONDITION_PAIRS = (
    ("qo3", "reflexive", "T"),
    ("qo3", "symmetric", "B"),
    ("path3", "transitive", "4"),
    ("qo3", "convergent", "G2"),
)

MALFORMED = {
    "bad_edge": ("frame", "check", "@bad_edge", "--condition", "reflexive"),
    "non_utf8": ("frame", "classify", "@non_utf8"),
    "valuation_list": ("eval", "--frame", "@qo3", "--formula", "p",
                       "--valuation", "[1]"),
    "valuation_negative": ("eval", "--frame", "@qo3", "--formula", "p",
                           "--valuation", '{"p": [-1]}'),
    "deep_nesting": ("parse", "~" * 5000 + "p"),
}


class Cli(Workload):
    """A fixed script of depth2-kit commands, each in a fresh interpreter.

    The seed draws the generated formulas given to ``parse`` and
    ``eval``.  The five malformed inputs must exit 2 with one ``error:``
    line, as the README documents for usage errors.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.files = {}
        for name, rows in FRAMES.items():
            self.files[name] = self._write(f"{name}.json", json.dumps(self._frame(rows)))
        self.files["bad_edge"] = self._write("bad_edge.json",
                                             '{"worlds": 2, "edges": [[0.5, 1]]}')
        self.files["non_utf8"] = self._write(
            "non_utf8.json", '{"worlds": 1, "edges": [[0, 0]], "name": "é"}',
            encoding="latin-1")
        self.algebra = (0b001, 0b111, 0b111)  # complex algebra of qo3
        self.files["algebra"] = self._write(
            "algebra.json", json.dumps({"atoms": 3, "f_on_atoms": list(self.algebra)}))
        rng = random.Random(seed)
        self.parse_texts = ["[](p -> q) -> ([]p -> []q)", "p <-> q <-> ~r & <>1"]
        self.parse_texts += [_random_formula(rng, 5) for _ in range(3)]
        self.evals = []
        for frame in ("qo3", "path3"):
            valuation = {v: sorted(rng.sample(range(3), rng.randint(0, 3)))
                         for v in "pqr"}
            self.evals.append((frame, _random_formula(rng, 5), valuation))
        self.validity = ("qo3", "[]<>p -> <>[]p")
        self.tracer_dir: Path | None = None
        self.env = os.environ.copy()

    def _write(self, name, text, encoding="utf-8"):
        path = self.workdir / name
        path.write_bytes(text.encode(encoding))
        return str(path)

    @staticmethod
    def _frame(rows):
        return {"worlds": len(rows),
                "edges": [[x, y] for x, row in enumerate(rows)
                          for y in range(len(rows)) if row >> y & 1]}

    def _run(self, *args) -> Command:
        # "@name" stands for the path of the input file called name
        argv = [self.files[a[1:]] if a.startswith("@") else a for a in args]
        if self.tracer_dir is None:
            command = [sys.executable, "-m", "depth2kit.cli", *argv]
        else:
            stats = self.tracer_dir / f"{len(list(self.tracer_dir.iterdir()))}.json"
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                       str(stats), *argv]
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=self.env, timeout=120)
        return Command(argv, proc.returncode, proc.stdout, proc.stderr)

    def operations(self):
        ops = []
        for i, text in enumerate(self.parse_texts):
            ops.append((f"parse {i}", lambda t=text: self._run("parse", t), None))
            ops.append((f"reparse {i}", lambda i=i, t=text: self._reparse(i, t), None))
        for frame, condition, axiom in CONDITION_PAIRS:
            ops.append((f"condition {frame} {condition}",
                        lambda f=frame, c=condition: self._run(
                            "frame", "check", "@" + f, "--condition", c), None))
            ops.append((f"axiom {frame} {axiom}",
                        lambda f=frame, a=axiom: self._run(
                            "frame", "check", "@" + f, "--axiom", a), None))
        ops.append(("classify qo3",
                    lambda: self._run("frame", "classify", "@qo3"), None))
        for i, (frame, formula, valuation) in enumerate(self.evals):
            ops.append((f"eval {i}", lambda f=frame, t=formula, v=valuation: self._run(
                "eval", "--frame", "@" + f, "--formula", t,
                "--valuation", json.dumps(v)), None))
        frame, formula = self.validity
        ops.append(("validity", lambda: self._run(
            "eval", "--frame", "@" + frame, "--formula", formula), None))
        ops.append(("dual cm", lambda: self._run("dual", "cm", "@qo3"), None))
        ops.append(("dual ult", self._dual_back, None))
        ops.append(("alg classify",
                    lambda: self._run("alg", "classify", "@algebra"), None))
        ops.append(("enum quasiorders 3",
                    lambda: self._run("enum", "--worlds", "3", "--quasiorder"), None))
        ops.append(("enum relations 3", lambda: self._run("enum", "--worlds", "3"), None))
        ops.append(("enum depth2 4", lambda: self._run(
            "enum", "--worlds", "4", "--quasiorder", "--max-depth", "2"), None))
        ops.append(("verify meets", lambda: self._run(
            "verify", "--suite", "meets", "--format", "json"), None))
        ops.append(("meet-axiom",
                    lambda: self._run("meet-axiom", "p -> <>p", "<><>p -> <>p"), None))
        for name, args in MALFORMED.items():
            ops.append((f"malformed {name}", lambda a=args: self._run(*a), None))
        self._last = {}
        return [(name, self._remember(name, run), plain) for name, run, plain in ops]

    def _remember(self, name, run):
        def remembered():
            self._last[name] = run()
            return self._last[name]
        return remembered

    def _reparse(self, i, text):
        first = self._last.get(f"parse {i}")
        printed = first.stdout.strip() if first and first.exit_code == 0 else text
        return self._run("parse", printed)

    def _dual_back(self):
        first = self._last.get("dual cm")
        text = first.stdout if first and first.exit_code == 0 else json.dumps(
            {"atoms": 3, "f_on_atoms": ref.predecessor_table(FRAMES["qo3"])})
        self.files["dual"] = self._write("dual.json", text)
        return self._run("dual", "ult", "@dual")

    def failure(self, name, value):
        if isinstance(value, BaseException):
            return f"{type(value).__name__}: {value}"
        if name.startswith("malformed"):
            lines = value.stderr.strip().splitlines()
            if value.exit_code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
                last = lines[-1] if lines else ""
                return f"exit {value.exit_code}, stderr ends {last[:80]!r}"
            return None
        # a check's verdict may be 1; the checks judge it
        allowed = (0, 1) if name.startswith(("condition", "axiom", "validity")) else (0,)
        if value.exit_code not in allowed:
            return f"exit {value.exit_code}: {value.stderr.strip()[-200:]!r}"
        return None

    def check(self, outputs):
        from depth2kit.formulas import axiom as catalog_axiom

        errors = []

        def out(name):
            return outputs[name].stdout if name in outputs else None

        for i, text in enumerate(self.parse_texts):
            printed, again = out(f"parse {i}"), out(f"reparse {i}")
            if printed is None or again is None:
                continue
            if again.strip() != printed.strip():
                errors.append(f"parse {i}: {printed.strip()!r} is not a fixed point, "
                              f"reparsed to {again.strip()!r}")
            if ref.parse(printed) != ref.parse(text):
                errors.append(f"parse {i}: {text!r} printed as {printed.strip()!r}")
        for frame, condition, axiom in CONDITION_PAIRS:
            by_condition = outputs.get(f"condition {frame} {condition}")
            by_axiom = outputs.get(f"axiom {frame} {axiom}")
            rows, formula = FRAMES[frame], ref.from_ast(catalog_axiom(axiom))
            valid, first = ref.first_falsifying(rows, formula)
            if by_axiom is not None:
                self._check_verdict(errors, f"axiom {axiom} on {frame}", by_axiom,
                                    rows, formula, valid, first)
            if by_condition is not None:
                self._check_condition(errors, f"condition {condition} on {frame}",
                                      by_condition, condition,
                                      ref.condition_witnesses(rows, condition))
            if by_condition is not None and by_axiom is not None and (
                    by_condition.exit_code != by_axiom.exit_code):
                errors.append(f"{frame}: condition {condition} exits "
                              f"{by_condition.exit_code}, axiom {axiom} exits "
                              f"{by_axiom.exit_code}")
        if "classify qo3" in outputs:
            self._check_classify(errors, out("classify qo3"), FRAMES["qo3"])
        for i, (frame, formula, valuation) in enumerate(self.evals):
            if f"eval {i}" not in outputs:
                continue
            masks = {v: sum(1 << w for w in ws) for v, ws in valuation.items()}
            rows = FRAMES[frame]
            worlds = ref.eval_in_frame(rows, masks, ref.parse(formula))
            expected = (f"worlds: {[w for w in range(len(rows)) if worlds >> w & 1]}\n"
                        f"true everywhere: {worlds == (1 << len(rows)) - 1}")
            if out(f"eval {i}").strip() != expected:
                errors.append(f"eval {i}: {out(f'eval {i}').strip()!r}, "
                              f"reference {expected!r}")
        if "validity" in outputs:
            frame, text = self.validity
            rows, formula = FRAMES[frame], ref.parse(text)
            self._check_verdict(errors, "validity", outputs["validity"], rows,
                                formula, *ref.first_falsifying(rows, formula))
        if "dual cm" in outputs:
            algebra = json.loads(out("dual cm"))
            if algebra != {"atoms": 3, "f_on_atoms": ref.predecessor_table(FRAMES["qo3"])}:
                errors.append(f"dual cm: {algebra} is not the predecessor table")
        if "dual ult" in outputs:
            back = json.loads(out("dual ult"))
            if back != self._frame(FRAMES["qo3"]):
                errors.append(f"dual ult: round trip gave {back}")
        if "alg classify" in outputs:
            self._check_algebra(errors, out("alg classify"))
        for name, n, quasi, count in (
                ("enum quasiorders 3", 3, True, ref.QUASIORDERS_UP_TO_ISO[3]),
                ("enum relations 3", 3, False, ref.RELATIONS_UP_TO_ISO[3]),
                ("enum depth2 4", 4, True, sum(
                    ref.depth(r) <= 2 for r in ref.quasiorders_up_to_iso(4)))):
            if name in outputs:
                self._check_enum(errors, name, out(name), n, quasi, count)
        if "verify meets" in outputs:
            reports = json.loads(out("verify meets"))
            if len(reports) != 1:
                errors.append(f"verify meets: {len(reports)} reports")
            else:
                _check_report(errors, "verify meets", reports[0],
                              ref.SMALL_SUITE_CHECKED["meets"](4), {"atoms": 4})
        if "meet-axiom" in outputs:
            combined = ref.parse(out("meet-axiom"))
            left, right = ref.parse("p -> <>p"), ref.parse("<><>p -> <>p")
            if not (combined[0] == "or" and combined[1][0] == combined[2][0] == "box"
                    and ref.alpha_equivalent(left, combined[1][1], {})
                    and ref.alpha_equivalent(right, combined[2][1], {})
                    and not ref.variables(combined[1]) & ref.variables(combined[2])):
                errors.append(f"meet-axiom: {out('meet-axiom').strip()!r}")
        return errors

    @staticmethod
    def _check_verdict(errors, label, command, rows, formula, valid, first):
        if command.exit_code != (0 if valid else 1):
            errors.append(f"{label}: exit {command.exit_code}, reference "
                          f"{'valid' if valid else 'invalid'}")
            return
        if valid:
            return
        match = re.search(r"valuation (\{.*\})", command.stdout)
        if not match:
            errors.append(f"{label}: no witness in {command.stdout.strip()!r}")
            return
        witness = {v: sum(1 << w for w in ws)
                   for v, ws in json.loads(match.group(1)).items()}
        _recheck_witness(errors, label, rows, formula, False, witness)
        if witness != first:
            errors.append(f"{label}: witness {witness} is not the first failure {first}")

    @staticmethod
    def _check_condition(errors, label, command, condition, witnesses):
        # the verdict and the witness come from the reference predicate;
        # a crash that exits 1 has no verdict line and leaves a traceback
        text = command.stdout.strip()
        if command.stderr:
            errors.append(f"{label}: stderr {command.stderr.strip()[-200:]!r}")
        if not witnesses:
            if command.exit_code != 0 or text != f"condition {condition}: holds":
                errors.append(f"{label}: exit {command.exit_code}, {text!r}, "
                              f"reference holds")
            return
        match = re.fullmatch(rf"condition {condition}: fails, witness worlds "
                             r"\(([0-9, ]*)\)", text)
        witness = match and tuple(int(w) for w in match.group(1).split(",") if w.strip())
        if command.exit_code != 1 or witness not in witnesses:
            errors.append(f"{label}: exit {command.exit_code}, {text!r}, reference "
                          f"fails at any of {sorted(witnesses)}")

    @staticmethod
    def _check_classify(errors, text, rows):
        expected = [f"worlds: {len(rows)}", f"depth: {ref.depth(rows)}"] + [
            f"level {i}: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in level)
            for i, level in enumerate(ref.levels(rows), start=1)
        ]
        got = text.strip().splitlines()
        if got[:len(expected)] != expected:
            errors.append(f"classify: {got}, reference {expected}")

    def _check_algebra(self, errors, text):
        f = ref.algebra_diamond(self.algebra)
        top = (1 << len(self.algebra)) - 1
        closed = [x for x in range(top + 1) if f(x) == x]
        closure = all(x | f(x) == f(x) and f(f(x)) == f(x) for x in range(top + 1))
        lines = text.strip().splitlines()
        if f"closed elements: {closed}" not in lines:
            errors.append(f"alg classify: {lines}, reference closed {closed}")
        if not any(line.startswith(f"closure: {closure} ") for line in lines):
            errors.append(f"alg classify: {lines}, reference closure {closure}")

    @staticmethod
    def _check_enum(errors, name, text, n, quasi, count):
        lines = text.strip().splitlines()
        if not lines or lines[-1] != f"total: {count}":
            errors.append(f"{name}: {lines[-1:]} but the count is {count}")
        found = []
        for line in lines[:-1]:
            edges = json.loads(line.split("edges=", 1)[1].replace("(", "[")
                               .replace(")", "]"))
            rows = [0] * n
            for x, y in edges:
                rows[x] |= 1 << y
            found.append(tuple(rows))
        Enumeration._check_classes(errors, name, found, count, quasi)

    def corruptions(self):
        def wrong_exit_code(out):
            out["dual cm"].exit_code = 1

        def flipped_verdict(out):
            command = out["axiom qo3 T"]
            command.exit_code = 1
            command.stdout = 'axiom T: fails under valuation {"p": [0]}\n'

        def wrong_witness(out):
            command = out["axiom qo3 B"]
            command.stdout = re.sub(r"\{.*\}", '{"p": []}', command.stdout)

        def dropped_class(out):
            command = out["enum quasiorders 3"]
            lines = command.stdout.splitlines()
            command.stdout = "\n".join(lines[1:-1] + ["total: 8"]) + "\n"

        def wrong_eval(out):
            command = out["eval 0"]
            command.stdout = command.stdout.replace("True", "X").replace(
                "False", "True").replace("X", "False")

        def broken_round_trip(out):
            out["dual ult"].stdout = json.dumps(self._frame(FRAMES["chain2"]))

        def crashed_condition(out):
            # exits 1 like a failing condition, which its axiom also does
            command = out["condition qo3 symmetric"]
            command.exit_code, command.stdout = 1, ""
            command.stderr = ("Traceback (most recent call last):\n"
                              "KeyError: 'symmetric'\n")

        def wrong_condition_witness(out):
            command = out["condition path3 transitive"]
            command.stdout = "condition transitive: fails, witness worlds (1, 2, 0)\n"

        return {"wrong exit code": wrong_exit_code, "flipped verdict": flipped_verdict,
                "wrong witness": wrong_witness, "dropped class": dropped_class,
                "wrong eval": wrong_eval, "broken round trip": broken_round_trip,
                "crashed condition": crashed_condition,
                "wrong condition witness": wrong_condition_witness}


WORKLOADS = {w.name: w for w in (FrameValidity, AlgebraSweep, Enumeration, Cli)}
