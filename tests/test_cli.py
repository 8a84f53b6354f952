import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from depth2kit import cli
from depth2kit.cli import main
from depth2kit.verify import SUITE_NAMES


@pytest.fixture()
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"worlds": 2, "edges": [[0, 0], [0, 1], [1, 1]]}))
    return str(path)


@pytest.fixture()
def chain_alg_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"atoms": 2, "f_on_atoms": [1, 3]}))
    return str(path)


def test_parse_ok(capsys):
    assert main(["parse", "p -> <>p"]) == 0
    assert capsys.readouterr().out.strip() == "p -> <>p"


def test_parse_error(capsys):
    assert main(["parse", "(<p"]) == 2
    err = capsys.readouterr().err
    assert "column 2" in err


def test_frame_check_condition(f2_file, capsys):
    assert main(["frame", "check", f2_file, "--condition", "reflexive"]) == 0
    assert main(["frame", "check", f2_file, "--condition", "symmetric"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_frame_check_axiom(f2_file, capsys):
    assert main(["frame", "check", f2_file, "--axiom", "B"]) == 1
    out = capsys.readouterr().out
    assert '"p": [0]' in out
    assert main(["frame", "check", f2_file, "--axiom", "T"]) == 0


def test_frame_check_unknown_condition(f2_file, capsys):
    assert main(["frame", "check", f2_file, "--condition", "bogus"]) == 2


def test_frame_check_empty_condition(f2_file, capsys):
    # an empty condition is a condition, not a missing one
    assert main(["frame", "check", f2_file, "--condition", ""]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown frame condition ''; known: ")
    assert captured.out == ""


def test_frame_classify(f2_file, capsys):
    assert main(["frame", "classify", f2_file]) == 0
    out = capsys.readouterr().out
    assert "depth: 2" in out
    assert "level 1: {0}" in out
    assert "extremal:" in out


def test_alg_classify(chain_alg_file, capsys):
    assert main(["alg", "classify", chain_alg_file]) == 0
    out = capsys.readouterr().out
    assert "closed elements: [0, 1, 3]" in out
    assert "FMA_proper(1)" in out
    assert "subdirectly_irreducible" in out


def test_dual_round_trip(f2_file, tmp_path, capsys):
    alg_path = str(tmp_path / "alg.json")
    assert main(["dual", "cm", f2_file, "--out", alg_path]) == 0
    data = json.loads(open(alg_path).read())
    assert data == {"atoms": 2, "f_on_atoms": [1, 3]}

    assert main(["dual", "ult", alg_path]) == 0
    frame = json.loads(capsys.readouterr().out)
    assert frame["worlds"] == 2
    assert sorted(map(tuple, frame["edges"])) == [(0, 0), (0, 1), (1, 1)]


def test_enum(capsys):
    assert main(["enum", "--worlds", "2", "--quasiorder"]) == 0
    out = capsys.readouterr().out
    assert "total: 3" in out
    assert main(["enum", "--worlds", "3", "--quasiorder", "--max-depth", "2",
                 "--format", "json"]) == 0
    frames = json.loads(capsys.readouterr().out)
    assert len(frames) == 8
    assert main(["enum", "--worlds", "9", "--quasiorder"]) == 3


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_enum_max_depth_below_one(depth, capsys):
    assert main(["enum", "--worlds", "3", "--quasiorder", "--max-depth", depth]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: max_depth must be")
    assert captured.out == ""


def test_eval(f2_file, capsys):
    assert main(["eval", "--frame", f2_file, "--formula", "<>p",
                 "--valuation", '{"p": [0]}']) == 0
    out = capsys.readouterr().out
    assert "worlds: [0]" in out

    assert main(["eval", "--frame", f2_file, "--formula", "p -> <>p"]) == 0
    assert main(["eval", "--frame", f2_file, "--formula", "p -> []p"]) == 1


def test_eval_budget(f2_file, monkeypatch, capsys):
    monkeypatch.setenv("D2_BUDGET", "2")
    assert main(["eval", "--frame", f2_file, "--formula", "p -> <>p"]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5", "abc", "1.5", ""])
def test_eval_budget_out_of_domain(budget, f2_file, monkeypatch, capsys):
    monkeypatch.setenv("D2_BUDGET", budget)
    assert main(["eval", "--frame", f2_file, "--formula", "p -> <>p"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: D2_BUDGET must be")


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "meets", "--atoms", "2"]) == 0
    out = capsys.readouterr().out
    assert "meets" in out and "PASS" in out


def test_verify_json(capsys):
    assert main(["verify", "--suite", "sum_and_union", "--atoms", "3",
                 "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["suite"] == "sum_and_union"
    assert reports[0]["failures"] == []


@pytest.mark.parametrize("name", ["bogus", ""])
def test_verify_unknown_suite(name, capsys):
    assert main(["verify", "--suite", name]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: unknown suite {name!r}")
    assert all(suite in err[0] for suite in SUITE_NAMES)
    assert captured.out == ""


def test_meet_axiom(capsys):
    assert main(["meet-axiom", "p -> <>p", "<><>p -> <>p"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[](v0 -> <>v0) | [](<><>v1 -> <>v1)"


def test_missing_file(capsys):
    assert main(["frame", "classify", "/nonexistent/frame.json"]) == 2


def test_size_error_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"worlds": 13, "edges": []}))
    assert main(["frame", "classify", str(path)]) == 3


def _identity_algebra_file(tmp_path, atoms):
    path = tmp_path / f"identity{atoms}.json"
    path.write_text(json.dumps({"atoms": atoms, "f_on_atoms": [1 << i for i in range(atoms)]}))
    return str(path)


def test_alg_classify_at_its_bound(tmp_path, capsys):
    # the identity algebra has every element closed: the costliest shape test
    assert main(["alg", "classify", _identity_algebra_file(tmp_path, 12)]) == 0
    assert capsys.readouterr().out == (
        "atoms: 12\nclosure: True  interior: True\n"
        f"closed elements: {list(range(4096))}\n"
        "classes: FMA(0), GMA(0), IDENTITY, IMA(4095)\nirreducibility: neither\n")


def test_alg_classify_refuses_more_than_12_atoms(tmp_path, capsys):
    assert main(["alg", "classify", _identity_algebra_file(tmp_path, 13)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classification is bounded at 12 atoms, got 13\n"


_MALFORMED_FRAMES = {
    "float_edge": '{"worlds": 2, "edges": [[0.5, 1]]}',
    "bool_worlds": '{"worlds": true, "edges": [[0, 0]]}',
    "short_edge": '{"worlds": 2, "edges": [[0]]}',
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_FRAMES))
def test_malformed_frame_file(name, tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(_MALFORMED_FRAMES[name])
    assert main(["frame", "check", str(path), "--condition", "reflexive"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


_MALFORMED_ALGEBRAS = {
    "float_value": '{"atoms": 2, "f_on_atoms": [1.0, 3]}',
    "float_atoms": '{"atoms": 2.0, "f_on_atoms": [1, 3]}',
    "bool_value": '{"atoms": 2, "f_on_atoms": [true, 3]}',
    "bool_atoms": '{"atoms": true, "f_on_atoms": [1]}',
    "value_above_top": '{"atoms": 2, "f_on_atoms": [1, 4]}',
    "negative_value": '{"atoms": 2, "f_on_atoms": [-1, 3]}',
    "zero_atoms": '{"atoms": 0, "f_on_atoms": []}',
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_ALGEBRAS))
@pytest.mark.parametrize("command", [["alg", "classify"], ["dual", "ult"]],
                         ids=["alg_classify", "dual_ult"])
def test_malformed_algebra_file(command, name, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(_MALFORMED_ALGEBRAS[name])
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_non_utf8_frame_file(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_bytes('{"worlds": 1, "edges": [[0, 0]], "name": "\u00e9"}'
                     .encode("latin-1"))
    assert main(["frame", "classify", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]


@pytest.mark.parametrize("valuation", [
    "[1]", '"p"', '{"p": [-1]}', '{"p": [2]}', '{"p": [5]}', '{"p": [true]}',
    '{"p": [0.0]}', '{"p": 1}', '{"p": "0"}',
])
def test_malformed_valuation(valuation, f2_file, capsys):
    assert main(["eval", "--frame", f2_file, "--formula", "p",
                 "--valuation", valuation]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_valuation_repeated_world(f2_file, capsys):
    assert main(["eval", "--frame", f2_file, "--formula", "p",
                 "--valuation", '{"p": [0, 0]}']) == 0
    assert "worlds: [0]" in capsys.readouterr().out


def test_parse_deep_nesting(capsys):
    assert main(["parse", "~" * 5000 + "p"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "column" in err[0]


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_parse", broken)
    assert main(["parse", "p"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: ZeroDivisionError: division by zero\n"
    assert captured.out == ""


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


_ints = st.one_of(st.integers(-2, 5), st.sampled_from([13, 2 ** 70]))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(), st.text(max_size=4)),
    lambda sub: st.one_of(st.lists(sub, max_size=4),
                          st.dictionaries(st.text(max_size=4), sub, max_size=3)),
    max_leaves=10,
)
_pairs = st.lists(st.lists(_ints, max_size=3), max_size=6)
_frame_objects = st.one_of(
    _json,
    st.fixed_dictionaries({"worlds": st.one_of(_ints, _json),
                           "edges": st.one_of(_pairs, _json)}),
    st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
        "worlds": st.just(n),
        "edges": st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)),
    })),
)
_algebra_objects = st.one_of(
    _json,
    st.fixed_dictionaries({"atoms": st.one_of(_ints, _json),
                           "f_on_atoms": st.one_of(_pairs, _json)}),
    st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
        "atoms": st.just(n),
        "f_on_atoms": st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    })),
)
_formula_asts = st.recursive(
    st.one_of(st.sampled_from(["p", "q", "1", "0"])),
    lambda sub: st.one_of(
        sub.map(lambda a: f"~{a}"), sub.map(lambda a: f"<>({a})"),
        sub.map(lambda a: f"[]({a})"),
        st.tuples(sub, st.sampled_from(["&", "|", "->", "<->"]), sub)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    ),
    max_leaves=6,
)
_formula_texts = st.one_of(_formula_asts, st.text("pq~&|-<>[]10() ", max_size=20),
                           st.text(max_size=8))
_valuation_texts = st.one_of(
    st.none(), _json.map(json.dumps), st.text(max_size=6),
    st.dictionaries(st.sampled_from("pqr"), st.lists(st.integers(-1, 4), max_size=3))
    .map(json.dumps),
)


@settings(max_examples=30, deadline=None)
@given(frame=_frame_objects, algebra=_algebra_objects, formula=_formula_texts,
       valuation=_valuation_texts, raw=st.binary(max_size=12))
def test_main_survives_random_input(tmp_path_factory, frame, algebra, formula,
                                    valuation, raw):
    folder = tmp_path_factory.mktemp("fuzz")
    frame_file, algebra_file = folder / "frame.json", folder / "algebra.json"
    raw_file = folder / "raw.json"
    frame_file.write_text(json.dumps(frame), encoding="utf-8")
    algebra_file.write_text(json.dumps(algebra), encoding="utf-8")
    raw_file.write_bytes(raw)
    f, a = str(frame_file), str(algebra_file)
    evaluate = ["eval", "--frame", f, f"--formula={formula}"]
    if valuation is not None:
        evaluate.append(f"--valuation={valuation}")
    for argv in (
        ["frame", "check", f, "--axiom", "T"],
        ["frame", "check", f, "--condition", "reflexive"],
        ["frame", "classify", f],
        ["frame", "classify", str(raw_file)],
        ["alg", "classify", a],
        ["dual", "cm", f],
        ["dual", "ult", a],
        evaluate,
        ["parse", "--", formula],
        ["meet-axiom", "--", formula, formula],
    ):
        # a small budget keeps random formulas quick; over it is exit 3
        with mock.patch.dict(os.environ, {"D2_BUDGET": str(1 << 16)}):
            code, err = _run_main(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        lines = err.split("\n")[:-1] if err else []
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), \
            (argv, err)


_SHOW_MODULES = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    {code}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("depth2kit"))))
"""
_CLI = {"depth2kit", "depth2kit.cli", "depth2kit.errors"}
_FRAMES = _CLI | {"depth2kit.boolean", "depth2kit.frames"}
_SEMANTICS = _FRAMES | {"depth2kit.formulas", "depth2kit.semantics"}


@pytest.mark.parametrize("code, loaded", [
    ("import depth2kit", {"depth2kit"}),
    ("import depth2kit; depth2kit.frames.Frame",
     {"depth2kit", "depth2kit.boolean", "depth2kit.errors", "depth2kit.frames"}),
    ("import depth2kit.cli; depth2kit.cli.main(['--help'])", _CLI),
    ("import depth2kit.cli; depth2kit.cli.main(['verify', '--help'])", _CLI),
    ("import depth2kit.cli; depth2kit.cli.main(['parse', 'p -> <>p'])",
     _CLI | {"depth2kit.formulas"}),
    ("import depth2kit.cli; depth2kit.cli.main(['meet-axiom', 'p', 'q'])",
     _CLI | {"depth2kit.formulas"}),
    ("import depth2kit.cli; depth2kit.cli.main(['enum', '--worlds', '3'])", _FRAMES),
    ("import depth2kit.cli; depth2kit.cli.main(['frame', 'check', FRAME, "
     "'--condition', 'reflexive'])", _FRAMES),
    ("import depth2kit.cli; depth2kit.cli.main(['frame', 'classify', FRAME])", _FRAMES),
    ("import depth2kit.cli; depth2kit.cli.main(['frame', 'check', FRAME, "
     "'--axiom', 'T'])", _SEMANTICS),
    ("import depth2kit.cli; depth2kit.cli.main(['eval', '--frame', FRAME, "
     "'--formula', '<>p', '--valuation', '{\"p\": [0]}'])", _SEMANTICS),
], ids=["import", "submodule", "help", "verify_help", "parse", "meet_axiom", "enum",
        "condition", "classify", "axiom", "eval"])
def test_commands_import_only_what_they_run(code, loaded, f2_file):
    # a fresh interpreter, since this one has imported every module
    script = _SHOW_MODULES.format(code=code.replace("FRAME", repr(f2_file)))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded


_SHOW_HEAVY = """
import contextlib, io, json, sys
import depth2kit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    depth2kit.cli.main({argv!r})
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["parse", "p -> <>p"],
    ["meet-axiom", "p", "q"],
    ["enum", "--worlds", "3"],
    ["enum", "--worlds", "3", "--quasiorder", "--format", "json"],
    ["frame", "check", "FRAME", "--condition", "reflexive"],
    ["frame", "check", "FRAME", "--axiom", "T"],
    ["frame", "classify", "FRAME"],
    ["eval", "--frame", "FRAME", "--formula", "<>p", "--valuation", '{"p": [0]}'],
    ["alg", "classify", "ALGEBRA"],
    ["dual", "cm", "FRAME"],
    ["dual", "ult", "ALGEBRA"],
    ["verify", "--suite", "meets"],
], ids=["help", "parse", "meet_axiom", "enum", "enum_quasiorder", "condition", "axiom",
        "classify", "eval", "alg_classify", "dual_cm", "dual_ult", "verify"])
def test_commands_do_not_load_dataclasses(argv, f2_file, chain_alg_file):
    # the value classes are Records: importing dataclasses (and with it
    # inspect) would cost every command about 10 ms
    files = {"FRAME": f2_file, "ALGEBRA": chain_alg_file}
    script = _SHOW_HEAVY.format(argv=[files.get(a, a) for a in argv])
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
