import json

import pytest

from depth2kit.cli import main


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
