import hashlib
import json
import os
import subprocess
import sys

import pytest

from g2kr import cli, equivalence, kr
from g2kr.characters import irreducible_character, tensor, weyl_dim
from g2kr.cli import main
from g2kr.kr import (
    _REGIONS,
    Family,
    compare,
    conjecture_graded_character,
    expand_weights,
    graded_dimensions,
    kr_graded_character,
)
from g2kr.weights import height


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


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["tensor", "2", "-1", "1", "0"], "(2,-1)"),
        (["tensor", "1", "0", "0", "-2"], "(0,-2)"),
    ],
    ids=["first-factor", "second-factor"],
)
def test_tensor_rejects_non_dominant(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert bad in lines[0] and "not dominant" in lines[0]


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


@pytest.mark.parametrize("basis", ["irrep", "weight"])
@pytest.mark.parametrize("family, m", [("u1", 6), ("t2", 5)])
def test_kr_table_footer_matches_graded_dimensions(capsys, family, m, basis):
    code, out, _ = run(capsys, "kr", "--family", family, "--m", str(m),
                       "--basis", basis)
    assert code == 0
    dims = graded_dimensions(kr_graded_character(Family(family), m))
    footer = out.splitlines()[-1]
    assert footer == (
        "graded dimensions: "
        + "  ".join(f"{grade}:{d}" for grade, d in dims)
        + f"  total {sum(d for _, d in dims)}"
    )


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


def test_verify_classes_reuses_the_graded_character(monkeypatch, capsys):
    # verify hands the region count it holds to the class check
    def recompute(*args):
        raise AssertionError("region counted twice")

    monkeypatch.setattr(kr, "_region_counts", recompute)
    code, out, _ = run(capsys, "verify", "classes", "--max-m", "6",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


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


def _u1_coefficient_fault(monkeypatch):
    # one copy too many of the label (0, 0) at every m, and at m = 8 a
    # negative pre-clamp coefficient that drops the label (2, 0)
    region = _REGIONS[Family.U1]

    def coefficient(m, j, k):
        if (m, j, k) == (8, 2, 0):
            return -1
        return region.coefficient(m, j, k) + ((j, k) == (0, 0))

    monkeypatch.setitem(_REGIONS, Family.U1,
                        region._replace(coefficient=coefficient))


def test_verify_failure_exits_one(monkeypatch, capsys):
    # a wrong table coefficient exercises the failure contract
    _u1_coefficient_fault(monkeypatch)
    code, out, _ = run(capsys, "verify", "conjecture", "--family", "u1",
                       "--max-m", "1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert all(not c["ok"] for c in payload["checks"])
    assert [c["differences"] for c in payload["checks"]] == [
        [{"grade": 0, "weight": [0, 0], "theorem": 1, "conjecture": 2}],
        [{"grade": 0, "weight": [1, 0], "theorem": 1, "conjecture": 2}],
    ]
    code_table, out_table, _ = run(capsys, "verify", "conjecture", "--family",
                                   "u1", "--max-m", "1")
    assert code_table == 1
    assert "FAIL" in out_table


def _per_m_verify_kr(conjecture_families, class_families, max_m):
    # the verify runner as one call of the public functions per check
    conjecture, classes, negatives = [], [], []
    for family in Family:
        for m in range(max_m + 1):
            theorem = kr_graded_character(family, m)
            if family in conjecture_families:
                diffs = compare(
                    theorem, conjecture_graded_character(family, m, negatives)
                )
                differences = [
                    {"grade": g, "weight": [w.a, w.b], "theorem": ma,
                     "conjecture": mb}
                    for g, w, ma, mb in diffs
                ]
                conjecture.append(cli._entry(
                    "conjecture", differences, "differences",
                    family=family.value, m=m,
                ))
            if family in class_families:
                failures = equivalence.verify_partition(family, m, theorem)
                classes.append(cli._entry("classes", failures,
                                          family=family.value, m=m))
    return conjecture + classes, [
        {"family": f.value, "m": m, "j": j, "k": k, "coefficient": c}
        for f, m, j, k, c in negatives
    ]


@pytest.mark.parametrize("max_m", ["0", "1", "8"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_failing_verify_matches_per_m_functions(monkeypatch, capsys, fmt,
                                                max_m):
    _u1_coefficient_fault(monkeypatch)
    argv = ("verify", "all", "--max-m", max_m, "--format", fmt)
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(cli, "_verify_kr", _per_m_verify_kr)
    expected_code, expected, _ = run(capsys, *argv)
    assert code == expected_code == 1
    assert out == expected
    assert "coefficient 2 != region count 1" in out
    if max_m == "8":
        quote = "'" if fmt == "table" else '"'
        assert f"{quote}coefficient{quote}: -1" in out


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
        pytest.param(["verify", "classes", "--max-m", "12"],
                     id="verify-classes"),
        pytest.param(["tensor", "3", "2", "2", "3"], id="tensor"),
        pytest.param(["char", "7", "5"], id="char"),
        pytest.param(["kr", "--family", "t2", "--m", "8", "--basis", "weight"],
                     id="kr-weight"),
        pytest.param(["kr", "--family", "t2", "--m", "6", "--basis", "weight"],
                     id="kr-t2-6-weight"),
        pytest.param(["kr", "--family", "u1", "--m", "12", "--conjecture"],
                     id="kr-u1-12-conjecture"),
    ],
)
def test_optimized_run_matches_plain_run(command, child_env):
    # python -O strips assert statements; no result may depend on them
    argv = ["-m", "g2kr.cli", *command, "--format", "json"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True,
                           env=child_env, check=False)
    optimized = subprocess.run([sys.executable, "-O", *argv],
                               capture_output=True, env=child_env, check=False)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    payload = json.loads(plain.stdout)
    if command[0] == "verify":
        assert payload["ok"] is True


def test_chevalley_loaded_only_by_its_verify_targets(child_env):
    # each command imports only what it runs: chevalley for verify
    # chevalley|all, equivalence for the class checks, csv for --format
    # csv, and logging only when a coefficient is negative
    script = (
        "import sys\n"
        "from g2kr.cli import main\n"
        "for argv in (['char', '1', '0'], ['tensor', '1', '0', '1', '0'],\n"
        "             ['kr', '--family', 'u1', '--m', '2', '--format', 'json'],\n"
        "             ['kr', '--family', 't2', '--m', '3', '--basis', 'weight',\n"
        "              '--format', 'json'],\n"
        "             ['verify', 'conjecture', '--max-m', '1'],\n"
        "             ['verify', 'chevalley'],\n"
        "             ['verify', 'classes', '--max-m', '1'],\n"
        "             ['char', '1', '0', '--format', 'csv']):\n"
        "    main(argv + ['--out', sys.argv[1]])\n"
        "    print(*(int(name in sys.modules) for name in (\n"
        "        'g2kr.chevalley', 'g2kr.equivalence', 'csv', 'logging')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script, os.devnull],
                            capture_output=True, text=True, env=child_env,
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "0 0 0 0",  # char
        "0 0 0 0",  # tensor
        "0 0 0 0",  # kr json
        "0 0 0 0",  # kr weight basis json
        "0 0 0 0",  # verify conjecture
        "1 0 0 0",  # verify chevalley
        "1 1 0 0",  # verify classes
        "1 1 1 0",  # csv
    ]


def test_no_module_loads_typing(child_env):
    # -S skips site, which may import typing itself; the package must not
    script = (
        "import sys\n"
        "import g2kr.cli, g2kr.equivalence, g2kr.chevalley\n"
        "print(int('typing' in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, env=child_env,
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_package_serves_every_name_lazily(child_env):
    script = (
        "import sys\n"
        "import g2kr\n"
        "print(sorted(m for m in sys.modules if m.startswith('g2kr.')))\n"
        "print([getattr(g2kr, m).__name__\n"
        "       for m in ('kr', 'characters', 'weights')])\n"
        "print(int('g2kr.equivalence' in sys.modules))\n"
        "print(sorted(set(g2kr.__all__) - set(dir(g2kr))))\n"
        "from g2kr import *\n"
        "names = vars()\n"
        "print(sorted(n for n in g2kr.__all__ if n not in names))\n"
        "print(verify_partition is sys.modules['g2kr.equivalence']"
        ".verify_partition)\n"
        "try:\n"
        "    g2kr.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=child_env,
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]", "['g2kr.kr', 'g2kr.characters', 'g2kr.weights']",
        "0", "[]", "[]", "True",
        "module 'g2kr' has no attribute 'no_such_name'",
    ]


# The JSON payloads as the CLI built them before it had its own writer,
# rendered by json.dumps(indent=2): the oracle of the writer.
def _char_payload(a, b):
    char = irreducible_character((a, b))
    return {
        "weight": [a, b],
        "dim": weyl_dim((a, b)),
        "terms": [{"weight": [w.a, w.b], "mult": m}
                  for w, m in sorted(char.items())],
    }


def _tensor_payload(a1, b1, a2, b2):
    parts = tensor((a1, b1), (a2, b2))
    ordered = sorted(parts.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    return {
        "factors": [[a1, b1], [a2, b2]],
        "dim": weyl_dim((a1, b1)) * weyl_dim((a2, b2)),
        "components": [{"weight": [w.a, w.b], "mult": m, "dim": weyl_dim(w)}
                       for w, m in ordered],
    }


def _kr_payload(family, m, basis="irrep"):
    g = kr_graded_character(Family(family), m)
    payload = {"family": family, "m": m, "source": "theorem"}
    if basis == "weight":
        payload["basis"] = "weight"
        items = [(grade, w, k) for grade, char in expand_weights(g).items()
                 for w, k in sorted(char.items())]
    else:
        items = list(g.items())
    payload["components"] = [{"grade": grade, "weight": [w.a, w.b], "mult": k}
                             for grade, w, k in items]
    return payload


JSON_ORACLE_CASES = [
    ("char 40 40", lambda: _char_payload(40, 40)),
    ("char 0 0", lambda: _char_payload(0, 0)),
    ("tensor 6 6 6 6", lambda: _tensor_payload(6, 6, 6, 6)),
    ("kr --family u1 --m 30 --basis weight",
     lambda: _kr_payload("u1", 30, "weight")),
    ("kr --family t2 --m 40", lambda: _kr_payload("t2", 40)),
    ("kr --family u1 --m 0", lambda: _kr_payload("u1", 0)),
    ("kr --family t2 --m 0 --basis weight",
     lambda: _kr_payload("t2", 0, "weight")),
]


@pytest.mark.parametrize("command, payload", JSON_ORACLE_CASES,
                         ids=[case[0] for case in JSON_ORACLE_CASES])
def test_json_writer_matches_json_dumps(capsys, command, payload):
    code, out, _ = run(capsys, *command.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(payload(), indent=2) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(0, 0, 0, 0)],
        [(-1, -2, 3, -4), (10**40, -(10**40), 7, 0), (2**64, -1, 0, 12)],
    ],
    ids=["empty", "one", "negative-and-large"],
)
def test_json_writer_edge_cases(rows):
    head = {"family": "u1", "m": -5, "basis": "100%",
            "nested": {"a": [1, [2, []]], "b": None, "c": {}}}
    items = [{"grade": g, "weight": [a, b], "mult": m} for g, a, b, m in rows]
    expected = json.dumps({**head, "components": items}, indent=2) + "\n"
    assert cli._json(head, "components", cli._KR_COMPONENT, rows) == expected
    assert cli._json(head) == json.dumps(head, indent=2) + "\n"
    # a % in a key and nesting deeper than the CLI's items
    sentinel = {"100%": 0, "x": {"y": [0, [0]]}}
    template = cli._template(sentinel, 3)
    items = [{"100%": a, "x": {"y": [b, [m]]}} for _, a, b, m in rows]
    expected = json.dumps({**head, "k": items}, indent=2) + "\n"
    assert cli._json(head, "k", template, [r[1:] for r in rows]) == expected


@pytest.mark.parametrize(
    "sentinel, fields, error",
    [
        ({"weight": [0, 0], "mult": 0}, 4, ValueError),
        ({"weight": [0, 0], "mult": 0}, 2, ValueError),
        ({"weight": [0, 0.0], "mult": 0}, 3, TypeError),
        ({"weight": [0, 0], "mult": True}, 3, TypeError),
        ({"weight": [0, 0], "mult": "0"}, 3, TypeError),
        ({"weight": [0, 0], "mult": None}, 3, TypeError),
    ],
    ids=["too-few", "too-many", "float", "bool", "str", "none"],
)
def test_template_rejects_mismatched_sentinel(sentinel, fields, error):
    with pytest.raises(error, match="template"):
        cli._template(sentinel, fields)


def test_width_hint(monkeypatch, capsys):
    monkeypatch.setenv("G2KR_WIDTH", "44")
    code, narrow, _ = run(capsys, "char", "0", "1")
    monkeypatch.setenv("G2KR_WIDTH", "400")
    code2, wide, _ = run(capsys, "char", "0", "1")
    assert code == code2 == 0
    assert narrow.count("\n") > wide.count("\n")
    # same content either way
    assert sorted(narrow.split()) == sorted(wide.split())


# SHA-256 of stdout and the exit code of each command, as recorded before
# the renderers were merged into one; every format of every command is
# pinned, not only fragments of it.
OUTPUT_DIGESTS = [
    ("char 7 5 --format json",
     "970f6590968453ce7e656653b7a406e01bcbcf96d5bc22b0074e4adfa2d9f650", 0),
    ("char 7 5 --format csv",
     "3d9dd6e9ed67a8275da17a8c37aa2e7e05a20f956b6c708f98e1b1eb62ac1a46", 0),
    ("char 7 5 --format table",
     "98ae921775a3b89a46f80a27381ae70529e7bed4d8d69b3977f12e4ba51e7938", 0),
    ("tensor 3 2 2 3 --format json",
     "3c7672f10043bf2ce8f481d6cd96661080559a72008a862f0bcc6bf095ea4e89", 0),
    ("tensor 3 2 2 3 --format csv",
     "2099e5c71c4614194ec7dfd63ef4486dfdcda71d95da40d361340888aa4441ed", 0),
    ("tensor 3 2 2 3 --format table",
     "5548f418208813147d7bbf4919c338250dab33761dd92b1f5bd14a3b8a41745c", 0),
    ("kr --family u1 --m 6 --format json",
     "3c2df41a3aabe3cd263492fe5be36aad648d5ed0087840e35ee179fde9939ed3", 0),
    ("kr --family u1 --m 6 --format csv",
     "c1c946a99a3d8bd78683b3b51006d9674082fd9b44d7b251f05957794bac8b83", 0),
    ("kr --family u1 --m 6 --format table",
     "96b4f2978f3299bce7e0d8cdf78f9564692e33a41e9e13e70a83daad1c530269", 0),
    ("kr --family u1 --m 6 --basis weight --format json",
     "1361c70f6050b02d709b550b6d4ee35d4aa6016481a74b881abf3ddd92a3dd6c", 0),
    ("kr --family u1 --m 6 --basis weight --format csv",
     "2ca1981b9a73e0d95bc6c3b5d21742587ff5964b1772f17554321351ba9dffe0", 0),
    ("kr --family u1 --m 6 --basis weight --format table",
     "c68867f6bea076eef0b1db05f20f3570cfa9fcd15f5ca52b8e53da90a5113931", 0),
    ("kr --family u1 --m 6 --conjecture --format json",
     "d1af1f9ca873c0262a4947914a5e0a292261cdd947882b5339a9ec78713544b6", 0),
    ("kr --family u1 --m 6 --conjecture --format csv",
     "c1c946a99a3d8bd78683b3b51006d9674082fd9b44d7b251f05957794bac8b83", 0),
    ("kr --family u1 --m 6 --conjecture --format table",
     "0e6c9d5a17068511e9f5ea5efa96ce4752b8dff1c63457afafe2ae2ea6a8e7af", 0),
    ("kr --family t2 --m 5 --format json",
     "ae4c376792936b3f77a7a4613496ec391c6744729b48c9a4d8fb0940b1d5299a", 0),
    ("kr --family t2 --m 5 --format csv",
     "20b27bd42cf41768c8ce2cbe502740b763b272cbe35bc1c8e2b912f4f5a91027", 0),
    ("kr --family t2 --m 5 --format table",
     "da64da4bc146e819305eb33becfff96049cf12896fd4626773ff0af55849ce99", 0),
    ("kr --family t2 --m 5 --basis weight --format json",
     "e71d4d1f42ea4af63f3e52bf6ae6cd216a8fd87b166337d20468e37d371167c8", 0),
    ("kr --family t2 --m 5 --basis weight --format csv",
     "88f031d6cb77093a51207e2b86d89090e01c76d87fe5f8402361a65fdaadfbf9", 0),
    ("kr --family t2 --m 5 --basis weight --format table",
     "f3a5c316f6522bb7e4b94b9fb947b4ba5ee49abe64e60b07bf0efe310b80a8b5", 0),
    ("kr --family t2 --m 5 --conjecture --format json",
     "2a68a8690b72667f36800c67407aa48ab317dbafd257a7c2c46ba8a9696e876f", 0),
    ("kr --family t2 --m 5 --conjecture --format csv",
     "20b27bd42cf41768c8ce2cbe502740b763b272cbe35bc1c8e2b912f4f5a91027", 0),
    ("kr --family t2 --m 5 --conjecture --format table",
     "4556bf94a902aae0ba31e3f97cc9109779a710c23ac64bd3268beca717c1a0ee", 0),
    ("kr --family u2 --m 3 --format json",
     "e800577728df50c52f97fd619e8384c0eaec703c446cfd4489bf84f2169bb1a2", 0),
    ("kr --family u2 --m 3 --format csv",
     "bfb95199b6346be3d4448a3bb104ec5893a60fdb200370210728454c516f2af2", 0),
    ("kr --family u2 --m 3 --format table",
     "2aae701d72e10135ce6bfcc0a81d0c330c4342fa0c91d6d29ebed52fc87e291e", 0),
    ("verify all --max-m 8 --format json",
     "e564a5c4f8d2528065326ac931f96ce16fa57027c3656972f48c6bfe81ebed5d", 0),
    ("verify all --max-m 8 --format csv",
     "7c926a6d666ae3a2f0273a10858c9974e8ac6947dfd39402a5369ad98e691433", 0),
    ("verify all --max-m 8 --format table",
     "33b03f86f259910256824c273fe93576ec073570bb1c8712963e1c3cc126bebb", 0),
    ("verify classes --max-m 12 --format json",
     "8adc40809df637321648832155c1628239f77c7c8520606203de3dc63e3aaa19", 0),
    ("verify classes --max-m 12 --format table",
     "85e69dfe4240058165ae28cac5170478d96060e4dbc3a5d89c2daa3ffee595e2", 0),
    ("verify classes --family t2 --max-m 20 --format csv",
     "d5f60f5e911767aae12dbd848014fff3fabd584105932ff72fd96d0eaa1f4b24", 0),
    ("verify chevalley --format json",
     "6c1fad430b637c18da323b5f678415cb289a606861d360a360fc0f512ccb8c17", 0),
    ("verify chevalley --format csv",
     "7632189a1c2310ab8087535a20f14711d37392ea06cbd47db108f86717324d5f", 0),
    ("verify chevalley --format table",
     "51daccc938816904a14754baf0c1b90d260874e5eec317a4448a6729b5ef4873", 0),
    ("kr --family t2 --m 30 --conjecture --format json",
     "a556e427a625918cabaa564a2a676464ec64e3d46e3fab8090b2433f48e7d406", 0),
    ("kr --family u1 --m 30 --conjecture --format csv",
     "dee7e5cd42a5398adcf58f20c60e717f9fc477bb60ef9d219a0aee9953bd9712", 0),
    ("verify conjecture --max-m 40 --format json",
     "8424a4eeb32a795d2db15e2dc2fc3c4451e3faaf57de9531ba6d36daebc4eadd", 0),
    ("char 2 -1 --format json",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("tensor 1 0 0 -2 --format json",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("kr --family u1 --m -3 --format json",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("verify all --max-m -1 --format json",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
]


@pytest.mark.parametrize(
    "command, digest, exit_code", OUTPUT_DIGESTS,
    ids=[case[0] for case in OUTPUT_DIGESTS],
)
def test_output_bytes_unchanged(monkeypatch, capsys, command, digest,
                                exit_code):
    monkeypatch.delenv("G2KR_WIDTH", raising=False)
    code, out, _ = run(capsys, *command.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
