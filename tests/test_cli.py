import json
import os
import subprocess
import sys

import pytest

import g2kr
from g2kr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_table(capsys):
    code, out, _ = run(capsys, "char", "1", "0")
    assert code == 0
    assert "dim 7" in out
    assert out.count(":1") == 7


def test_char_trivial(capsys):
    code, out, _ = run(capsys, "char", "0", "0")
    assert code == 0
    assert "dim 1" in out
    assert "(0,0):1" in out


def test_char_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, "char", "0", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == [0, 1]
    assert payload["dim"] == 14
    zero = [t for t in payload["terms"] if t["weight"] == [0, 0]]
    assert zero == [{"weight": [0, 0], "mult": 2}]
    # canonical form: re-rendering the parsed document is byte-identical
    assert json.dumps(payload, indent=2) + "\n" == out


def test_char_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "char", "--", "-1", "1")
    assert code == 2
    assert "not dominant" in err


def test_char_csv(capsys):
    code, out, _ = run(capsys, "char", "1", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight_a,weight_b,mult"
    assert len(lines) == 8


def test_tensor_fixture(capsys):
    code, out, _ = run(capsys, "tensor", "1", "0", "1", "0")
    assert code == 0
    for fragment in ("V(2,0)", "V(0,1)", "V(1,0)", "V(0,0)"):
        assert fragment in out
    assert "49 = 27 + 14 + 7 + 1" in out


def test_tensor_with_trivial(capsys):
    code, out, _ = run(capsys, "tensor", "0", "0", "5", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [
        {"weight": [5, 3], "mult": 1, "dim": payload["dim"]}
    ]


def test_tensor_omega2_squared(capsys):
    code, out, _ = run(capsys, "tensor", "0", "1", "0", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]) == 5
    assert {"weight": [3, 0], "mult": 1, "dim": 77} in payload["components"]


def test_kr_table(capsys):
    code, out, _ = run(capsys, "kr", "--family", "u1", "--m", "2")
    assert code == 0
    assert "(2,0)" in out and "(1,0)" in out
    assert "0:27" in out and "1:7" in out


def test_kr_m0(capsys):
    code, out, _ = run(capsys, "kr", "--family", "u2", "--m", "0")
    assert code == 0
    assert "(0,0)" in out
    assert "total 1" in out


def test_kr_json_schema(capsys):
    code, out, _ = run(capsys, "kr", "--family", "t2", "--m", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["family", "m", "source", "components"]
    assert payload["family"] == "t2"
    assert payload["m"] == 1
    assert payload["source"] == "theorem"
    assert payload["components"] == [
        {"grade": 0, "weight": [0, 1], "mult": 1},
        {"grade": 1, "weight": [1, 0], "mult": 1},
        {"grade": 2, "weight": [1, 0], "mult": 1},
        {"grade": 3, "weight": [0, 0], "mult": 1},
    ]
    assert json.dumps(payload, indent=2) + "\n" == out


def test_kr_conjecture_source(capsys):
    code, out, _ = run(capsys, "kr", "--family", "u1", "--m", "3",
                       "--conjecture", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "conjecture"
    theorem = json.loads(
        run(capsys, "kr", "--family", "u1", "--m", "3", "--format", "json")[1]
    )
    assert payload["components"] == theorem["components"]


def test_kr_csv_columns(capsys):
    code, out, _ = run(capsys, "kr", "--family", "u2", "--m", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "grade,weight_a,weight_b,mult,dim"
    assert lines[1:] == ["0,0,1,1,14", "1,0,0,1,1"]


def test_kr_weight_basis(capsys):
    code, out, _ = run(capsys, "kr", "--family", "u2", "--m", "1",
                       "--basis", "weight", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "weight"
    grade0 = [c for c in payload["components"] if c["grade"] == 0]
    assert sum(c["mult"] for c in grade0) == 14
    zero_weight = [c for c in grade0 if c["weight"] == [0, 0]]
    assert zero_weight[0]["mult"] == 2


def test_kr_rejects_negative_m(capsys):
    code, _, err = run(capsys, "kr", "--family", "u1", "--m", "-3")
    assert code == 2
    assert "nonnegative" in err


def test_unknown_family_is_usage_error(capsys):
    code = main(["kr", "--family", "x9", "--m", "1"])
    capsys.readouterr()
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_verify_conjecture(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--family", "u1",
                       "--max-m", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["negative_coefficients"] == []
    assert len(payload["checks"]) == 11
    assert all(c["ok"] for c in payload["checks"])
    assert {c["m"] for c in payload["checks"]} == set(range(11))
    assert json.dumps(payload, indent=2) + "\n" == out


def test_verify_classes(capsys):
    code, out, _ = run(capsys, "verify", "classes", "--max-m", "8",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    families = {c["family"] for c in payload["checks"]}
    assert families == {"u1", "t2"}


def test_verify_classes_rejects_ladder_family(capsys):
    code, _, err = run(capsys, "verify", "classes", "--family", "u2",
                       "--max-m", "3")
    assert code == 2
    assert "ladder" in err


def test_verify_all_with_ladder_family_skips_classes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--family", "t1",
                       "--max-m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    kinds = {c["check"] for c in payload["checks"]}
    assert "conjecture" in kinds
    assert "classes" not in kinds


def test_verify_chevalley(capsys):
    code, out, _ = run(capsys, "verify", "chevalley")
    assert code == 0
    assert "result: ok" in out


def test_verify_all_table(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-m", "4")
    assert code == 0
    assert "result: ok" in out
    assert "pre-clamp negative coefficients: none" in out


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--family", "u2",
                       "--max-m", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,family,m,status"
    assert lines[1] == "conjecture,u2,0,ok"


def test_verify_failure_exits_one(monkeypatch, capsys):
    # inject a fake discrepancy to exercise the failure contract
    from g2kr.weights import Weight

    monkeypatch.setattr(
        "g2kr.cli.compare", lambda a, b: [(0, Weight(1, 0), 1, 2)]
    )
    code, out, _ = run(capsys, "verify", "conjecture", "--family", "u1",
                       "--max-m", "1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert all(not c["ok"] for c in payload["checks"])
    assert payload["checks"][0]["differences"] == [
        {"grade": 0, "weight": [1, 0], "theorem": 1, "conjecture": 2}
    ]
    code_table, out_table, _ = run(capsys, "verify", "conjecture", "--family",
                                   "u1", "--max-m", "1")
    assert code_table == 1
    assert "FAIL" in out_table


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "kr", "--family", "u1", "--m", "1",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["components"] == [
        {"grade": 0, "weight": [1, 0], "mult": 1}
    ]


def test_out_file_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "char", "1", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["verify", "all", "--max-m", "10"], id="verify-all"),
        pytest.param(["verify", "chevalley"], id="verify-chevalley"),
        pytest.param(["tensor", "3", "2", "2", "3"], id="tensor"),
        pytest.param(["char", "7", "5"], id="char"),
    ],
)
def test_optimized_run_matches_plain_run(command):
    # python -O strips assert statements; no result may depend on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(g2kr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = ["-m", "g2kr.cli", *command, "--format", "json"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True,
                           env=env, check=False)
    optimized = subprocess.run([sys.executable, "-O", *argv],
                               capture_output=True, env=env, check=False)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    payload = json.loads(plain.stdout)
    if command[0] == "verify":
        assert payload["ok"] is True


def test_width_hint(monkeypatch, capsys):
    monkeypatch.setenv("G2KR_WIDTH", "44")
    code, narrow, _ = run(capsys, "char", "0", "1")
    monkeypatch.setenv("G2KR_WIDTH", "400")
    code2, wide, _ = run(capsys, "char", "0", "1")
    assert code == code2 == 0
    assert narrow.count("\n") > wide.count("\n")
    # same content either way
    assert sorted(narrow.split()) == sorted(wide.split())
