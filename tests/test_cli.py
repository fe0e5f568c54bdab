import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kr import characters, cli, equivalence, kr
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


@pytest.mark.parametrize("grade", [0, 7, 42, 999, 4096, 12345, 999999,
                                   1000000, 12345678])
def test_kr_table_line_template(grade):
    # a grade's template pads the weight as `ljust(18)` padded the head of
    # the line, for grades of 1 to 8 digits, where the head outgrows 18
    template = cli._kr_line(grade)
    for a, b, m, d in [(0, 0, 1, 1), (3, -1, 12, 3456),
                       (-123, 45, 100000, 7), (-1234, -56789, 3, 123456789)]:
        old = f"{grade:<6} ({a},{b})".ljust(18) + f"{m:<5} {d}"
        assert template % ("(%d,%d)" % (a, b), m, d) == old


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


def _subparser(name):
    (commands,) = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return commands.choices[name]


@pytest.mark.parametrize("command, argv", [("kr", ["--m", "1"]),
                                           ("verify", ["all"])],
                         ids=["kr", "verify"])
def test_family_choices_are_the_family_values(command, argv, capsys):
    # the parser spells the families out; kr.Family is their one definition
    (family,) = (action for action in _subparser(command)._actions
                 if action.dest == "family")
    assert list(family.choices) == [f.value for f in Family]
    assert "{u1,u2,t1,t2}" in _subparser(command).format_help()
    code = main([command, "--family", "x", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "argument --family: invalid choice: 'x'" in err


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def _argparse_reads(argv):
    """vars() of what build_parser().parse_args(argv) returns, or None where
    argparse exits (help or a usage error) or raises."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (SystemExit, TypeError):
            return None


def _check_parse(argv):
    namespace = cli._parse(argv)
    expected = _argparse_reads(argv)
    if namespace is not None:
        assert vars(namespace) == expected
    if expected is None:
        assert namespace is None
    return namespace


#: The argv shapes of the benchmark's workloads (benchmarks/workloads.py):
#: each is a plain command line, which `_parse` reads without argparse.
BENCHMARK_ARGVS = [
    ["tensor", "6", "0", "3", "4", "--format", "json"],
    ["char", "36", "17", "--format", "json"],
    ["verify", "conjecture", "--family", "u2", "--max-m", "24",
     "--format", "json"],
    ["verify", "classes", "--max-m", "19", "--format", "json"],
    ["verify", "all", "--family", "t1", "--max-m", "32", "--format", "json"],
    ["kr", "--family", "u1", "--m", "40", "--conjecture", "--format", "csv"],
    ["kr", "--family", "t1", "--m", "12", "--basis", "weight",
     "--format", "table"],
    ["kr", "--family", "u2", "--m", "4", "--conjecture", "--basis", "weight",
     "--format", "json"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
def test_benchmark_command_lines_skip_argparse(argv):
    assert _check_parse(argv) is not None
    assert _check_parse(tuple(argv)) is not None


#: Tokens that make a command line no longer plain, or wrong: abbreviations,
#: = forms, help, --, negative numbers, bad ints and bad choices.
_ODD_TOKENS = [
    "--fam", "--f", "--ma", "--max", "--con", "--b", "--fo", "--o", "--he",
    "--family=u1", "--m=2", "--format=json", "--max-m=3", "--out=x",
    "--", "-h", "--help", "-", "-3", "-0", "--bogus", "-m",
    "x", "", "U1", "xml", "3.0", "1_0", " 5", "+2", "٣", "10" * 3000,
    "all", "kr", "char", "u1", "json", "weight", "3",
    "--m", "--family", "--format", "--out", "--conjecture", "--basis",
    "--max-m",
]


def _value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(0, 40).map(str)
    return st.just("out.txt")  # --out: parsed only, never written


@st.composite
def _command_lines(draw):
    """A command line of every command and format, positionals interleaved
    with options in any order, then up to two tokens inserted, replaced or
    deleted, as a list or a tuple."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    groups, positionals = [], []
    for name, keywords in cli._COMMANDS[command][1].items():
        if name[0] != "-":
            positionals.append([draw(_value(keywords))])
        elif keywords.get("required") or draw(st.booleans()):
            groups.append([name] if keywords.get("action") else
                          [name, draw(_value(keywords))])
    groups = draw(st.permutations(groups))
    at = -1
    for group in positionals:  # in order, each at any place among options
        at = draw(st.integers(at + 1, len(groups)))
        groups.insert(at, group)
    argv = [command, *chain.from_iterable(groups)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit != "insert" and at == len(argv):
            continue
        if edit != "delete":
            argv[at:at + (edit == "replace")] = [
                draw(st.sampled_from(_ODD_TOKENS))]
        else:
            del argv[at]
    return tuple(argv) if draw(st.booleans()) else argv


@given(_command_lines())
@settings(deadline=None, max_examples=300)
def test_parse_agrees_with_argparse(argv):
    _check_parse(argv)


@pytest.mark.parametrize("argv", [
    ["kr", "--fam", "u1", "--m", "2"],
    ["kr", "--family=u1", "--m=2"],
    ["kr", "--family", "u1", "--m", "2", "--m", "3"],
    ["kr", "--family", "u1", "--m", "-3"],
    ["tensor", "1", "0", "0", "-2"],
    ["char", "--", "1", "0"],
    ["char", "1", "0", "--out", "-"],
    ["char", "1", "0", "--help"], ["-h"], ["--help"], [],
    ["char", "x", "0"], ["char", "1"], ["char", "1", "0", "2"],
    ["verify", "bogus"], ["kr", "--m", "1"], ["nope"],
    ["char", 1, 0], "char 1 0", ("char", "1", b"0"),
], ids=repr)
def test_parse_leaves_other_command_lines_to_argparse(argv):
    # abbreviations, = forms, repeats, negative values, --, help, usage
    # errors and non-str argvs
    assert _check_parse(argv) is None


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


def test_verify_classes_counts_no_region(monkeypatch, capsys):
    # the class check works in r-space: only the conjecture check sweeps
    # the region counts, of every family, the ladders included
    calls = []
    region_counts = kr._region_counts

    def counted(family, *args):
        calls.append(family)
        return region_counts(family, *args)

    monkeypatch.setattr(kr, "_region_counts", counted)
    code, out, _ = run(capsys, "verify", "classes", "--max-m", "6",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert calls == []
    code, _, _ = run(capsys, "verify", "all", "--max-m", "6")
    assert code == 0
    assert calls == list(Family)


#: (target, --family, the checks `verify` runs at --max-m 1, in order): a
#: group "check f g" is check's entries for f at m = 0 and 1, then g's;
#: "chevalley" is the four Chevalley checks, which take no family.  A
#: ladder (u2, t1) has no classes: "classes" refuses one (None), "all"
#: skips it.
_VERIFY_RUNS = [
    ("conjecture", None, ["conjecture u1 u2 t1 t2"]),
    ("conjecture", "u1", ["conjecture u1"]),
    ("conjecture", "u2", ["conjecture u2"]),
    ("conjecture", "t1", ["conjecture t1"]),
    ("conjecture", "t2", ["conjecture t2"]),
    ("classes", None, ["classes u1 t2"]),
    ("classes", "u1", ["classes u1"]),
    ("classes", "u2", None),
    ("classes", "t1", None),
    ("classes", "t2", ["classes t2"]),
    ("chevalley", None, ["chevalley"]),
    ("chevalley", "u1", ["chevalley"]),
    ("chevalley", "u2", ["chevalley"]),
    ("chevalley", "t1", ["chevalley"]),
    ("chevalley", "t2", ["chevalley"]),
    ("all", None, ["conjecture u1 u2 t1 t2", "classes u1 t2", "chevalley"]),
    ("all", "u1", ["conjecture u1", "classes u1", "chevalley"]),
    ("all", "u2", ["conjecture u2", "chevalley"]),
    ("all", "t1", ["conjecture t1", "chevalley"]),
    ("all", "t2", ["conjecture t2", "classes t2", "chevalley"]),
]


@pytest.mark.parametrize(
    "target, family, groups", _VERIFY_RUNS,
    ids=[f"{target}-{family or 'every'}" for target, family, _ in _VERIFY_RUNS],
)
def test_verify_runs_each_family_resolved(capsys, target, family, groups):
    argv = ["verify", target, "--max-m", "1", "--format", "json"]
    if family:
        argv += ["--family", family]
    code, out, err = run(capsys, *argv)
    if groups is None:
        assert (code, out, err) == (2, "", f"error: family {family} is "
                                           "ladder-indexed, not quad-indexed\n")
        return
    assert (code, err) == (0, "")
    expected = []
    for check, *families in map(str.split, groups):
        if check == "chevalley":
            expected += [(f"chevalley-{name}", None, None) for name in (
                "structure", "killing", "kr-relations", "adjoint-weights")]
        else:
            expected += [(check, f, m) for f in families for m in (0, 1)]
    payload = json.loads(out)
    assert (payload["target"], payload["family"]) == (target, family)
    assert [(c["check"], c.get("family"), c.get("m"))
            for c in payload["checks"]] == expected


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


@pytest.mark.parametrize("argv", [
    "char 7 5", "tensor 3 2 2 3", "kr --family t2 --m 8 --basis weight",
    "kr --family u1 --m 6 --conjecture", "verify all --max-m 2",
])
def test_csv_is_what_csv_writer_writes(capsys, argv):
    # the csv module is the oracle: the output, read and written back by
    # it, gives the same bytes, so no field needed quoting, and every row
    # has the header's fields; only verify leaves fields (family, m) empty
    code, out, _ = run(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(rows)
    assert written.getvalue() == out
    assert all(len(row) == len(rows[0]) for row in rows)
    assert any("" in row for row in rows) == argv.startswith("verify")


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


def _ladder_fault(region, fault):
    # a fault in a ladder's generating function: the term of the label
    # (3, 0, 0) one grade up, the label (2, 0, 0) dropped, or coefficient 2
    # at the label (1, 0, 0)
    if fault == "grade":
        def term(m, j, k):
            a, b, base = region.term(m, j, k)
            return a, b, base + (j == 3)

        return region._replace(term=term)
    if fault == "label":
        return region._replace(labels=lambda m: (
            label for label in region.labels(m) if label != (2, 0, 0)
        ))
    return region._replace(coefficient=lambda m, j, k: 1 + (j == 1))


#: (m, grade, n, theorem, conjecture) of each difference that a ladder
#: fault makes at m <= 4, at the weight n*omega.
_LADDER_DIFFERENCES = {
    "grade": [(m, grade, m - 3, *mults) for m in (3, 4)
              for grade, mults in ((3, (1, 0)), (4, (0, 1)))],
    "label": [(m, 2, m - 2, 1, 0) for m in (2, 3, 4)],
    "coefficient": [(m, 1, m - 1, 1, 2) for m in (1, 2, 3, 4)],
}


@pytest.mark.parametrize("fault", list(_LADDER_DIFFERENCES))
@pytest.mark.parametrize("family", [Family.U2, Family.T1], ids=["u2", "t1"])
def test_ladder_table_fault_fails_verify(monkeypatch, capsys, family, fault):
    # the ladders' conjecture entries check the table's labels against the
    # cone: a fault in either fails them, though neither is an oracle from
    # outside the paper
    monkeypatch.setitem(_REGIONS, family,
                        _ladder_fault(_REGIONS[family], fault))
    code, out, _ = run(capsys, "verify", "conjecture", "--family",
                       family.value, "--max-m", "4", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    expected = [[] for _ in range(5)]
    for m, grade, n, theorem, conjecture in _LADDER_DIFFERENCES[fault]:
        weight = list(n * family.fundamental)
        expected[m].append({"grade": grade, "weight": weight,
                            "theorem": theorem, "conjecture": conjecture})
    assert [c.get("differences", []) for c in checks] == expected
    assert [c["ok"] for c in checks] == [not d for d in expected]


@pytest.mark.parametrize("family", ["u2", "t1"])
def test_ladder_facet_of_degree_two_is_refused(monkeypatch, capsys, family):
    # 2m - n >= 0 in place of m - n >= 0: the facet matrix has det 2, so
    # the cone has no generators to count from
    region = _REGIONS[Family(family)]
    monkeypatch.setitem(_REGIONS, Family(family), region._replace(
        constraints=(((1,), 0), ((-1,), 2))
    ))
    message = (f"error: the {family} region is not a unimodular simplicial "
               f"cone in (r, m)\n")
    for argv in (("verify", "conjecture", "--family", family),
                 ("kr", "--family", family, "--m", "3")):
        assert run(capsys, *argv) == (2, "", message)


def _per_m_conjecture_differences(family, m, count, negatives):
    # the swept compare as one call of the public functions per m
    return compare(kr_graded_character(family, m),
                   conjecture_graded_character(family, m, negatives))


@pytest.mark.parametrize("max_m", ["0", "1", "8"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_failing_verify_matches_per_m_functions(monkeypatch, capsys, fmt,
                                                max_m):
    _u1_coefficient_fault(monkeypatch)
    argv = ("verify", "all", "--max-m", max_m, "--format", fmt)
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(kr, "conjecture_differences",
                        _per_m_conjecture_differences)
    expected_code, expected, _ = run(capsys, *argv)
    assert code == expected_code == 1
    assert out == expected
    assert "coefficient 2 != class size 1" in out
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


@pytest.mark.parametrize("argv", [["--out", ""], ["--out="]],
                         ids=["plain", "argparse"])
def test_out_file_empty_path_is_usage_error(capsys, argv):
    # an empty path is a file that cannot be opened, not stdout
    assert run(capsys, "char", "1", "0", *argv) == (
        2, "", "error: [Errno %d] %s: ''\n" % (errno.ENOENT,
                                               os.strerror(errno.ENOENT)))


@pytest.mark.parametrize("argv", [["char", 1, 0], ["kr", "--m", 2],
                                  ["char", "1", "0", "--out", None]],
                         ids=["positional", "option", "none"])
def test_argument_not_a_str_is_usage_error(capsys, argv):
    # argparse, the one writer of usage errors, reports it
    code, out, err = run(capsys, *argv)
    bad = next(token for token in argv if not isinstance(token, str))
    assert (code, out) == (2, "")
    assert err.startswith("usage: g2kr ")
    assert err.endswith(f"g2kr: error: argument {bad!r} is not a str\n")


@pytest.mark.parametrize("wrap", [iter, lambda argv: (t for t in argv)],
                         ids=["iterator", "generator"])
@pytest.mark.parametrize("argv", [["char", "1", "0"],
                                  ["kr", "--fam", "t2", "--m", "3"]],
                         ids=["plain", "argparse"])
def test_argv_is_read_once(capsys, wrap, argv):
    # an iterator or a generator runs like the same list
    expected = run(capsys, *argv)
    assert expected[0] == 0
    code = main(wrap(argv))
    assert (code, *capsys.readouterr()) == expected


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


#: The g2kr modules each command loads in a fresh process, with argparse,
#: csv, gettext, json and logging if it loads them, sorted: characters where
#: a character or a dimension is computed, kr for kr and the KR checks,
#: chevalley for verify chevalley|all, equivalence for the class checks, and
#: logging only when a coefficient is negative.  No command loads csv:
#: --format csv writes its lines through a % template.  A plain command line
#: loads neither argparse nor its gettext, which come only for help and
#: other spellings; json comes only for verify's free-text payload.
_LOADS = [
    (["char", "1", "0"], "characters weights"),
    (["char", "1", "0", "--format", "csv"], "characters weights"),
    (["char", "1", "0", "--format", "json"], "characters weights"),
    (["tensor", "1", "0", "1", "0"], "characters weights"),
    (["tensor", "1", "0", "1", "0", "--format", "json"], "characters weights"),
    (["kr", "--family", "u1", "--m", "2", "--format", "json"], "kr weights"),
    (["kr", "--family", "t2", "--m", "3", "--basis", "weight",
      "--format", "json"], "characters kr weights"),
    (["kr", "--family", "u1", "--m", "2", "--format", "csv"],
     "characters kr weights"),
    (["kr", "--family", "u1", "--m", "2", "--conjecture"],
     "characters kr weights"),
    (["kr", "--help"], "argparse gettext weights"),
    (["kr", "--fam", "u1", "--m", "2"],
     "argparse characters gettext kr weights"),
    (["verify", "conjecture", "--max-m", "1"], "kr weights"),
    (["verify", "classes", "--max-m", "1"], "equivalence kr weights"),
    (["verify", "chevalley"], "characters chevalley weights"),
    (["verify", "chevalley", "--format", "csv"],
     "characters chevalley weights"),
    (["verify", "all", "--max-m", "1", "--format", "json"],
     "characters chevalley equivalence json kr weights"),
]


@pytest.mark.parametrize("argv, loads", _LOADS,
                         ids=[" ".join(argv) for argv, _ in _LOADS])
def test_each_command_loads_only_what_it_runs(argv, loads, child_env):
    # a fresh process per command, run as `python -m g2kr.cli` runs it: in a
    # shared process the modules of one command would hide the next one's.
    # cli.run ends the process with os._exit, which skips finally blocks:
    # the child's os._exit prints the modules first
    script = (
        "import os, runpy, sys\n"
        "def _exit(code, _exit=os._exit):\n"
        "    print(*sorted(m.removeprefix('g2kr.') for m in sys.modules\n"
        "                  if m.startswith('g2kr.') or m in ('argparse',\n"
        "                  'csv', 'gettext', 'json', 'logging')), flush=True)\n"
        "    _exit(code)\n"
        "os._exit = _exit\n"
        "runpy.run_module('g2kr.cli', run_name='__main__', alter_sys=True)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", os.devnull],
        capture_output=True, text=True, env=child_env, check=False,
    )
    assert result.returncode == 0, result.stderr
    # the last line: help goes to stdout, not to --out
    assert result.stdout.splitlines()[-1] == loads


@pytest.mark.parametrize("argv, plain", [
    ("kr --fam u1 --m 2", "kr --family u1 --m 2"),
    ("kr --family=u1 --m=2", "kr --family u1 --m 2"),
    ("kr --family t1 --m 2 --family u1", "kr --family u1 --m 2"),
    ("kr --m 2 --fam u1 --format=json", "kr --family u1 --m 2 --format json"),
    ("char 3 --for csv 2", "char 3 2 --format csv"),
])
def test_other_spellings_write_the_plain_bytes(capsys, argv, plain):
    # argparse reads the other spelling, `_parse` the plain one
    assert cli._parse(argv.split()) is None
    assert cli._parse(plain.split()) is not None
    assert run(capsys, *argv.split()) == run(capsys, *plain.split())


def test_cli_import_loads_neither_kr_nor_characters(child_env):
    script = (
        "import sys\n"
        "import g2kr.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('g2kr')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=child_env,
                            check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "g2kr g2kr.cli g2kr.weights\n"


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
    ("char 1 0", lambda: _char_payload(1, 0)),
    ("tensor 6 6 6 6", lambda: _tensor_payload(6, 6, 6, 6)),
    ("tensor 0 0 0 0", lambda: _tensor_payload(0, 0, 0, 0)),
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


# each head template filled in, with negative and >64-bit ints, the head
# of the payload that it renders, and the payload's list: its key, its item
# template and the item of a row
_KR_ITEM = (cli._KR_COMPONENT,
            lambda g, a, b, m: {"grade": g, "weight": [a, b], "mult": m})
JSON_HEADS = [
    (cli._CHAR_HEAD % (-1, 2**64, 10**40),
     {"weight": [-1, 2**64], "dim": 10**40}, "terms", cli._CHAR_TERM,
     lambda a, b, m: {"weight": [a, b], "mult": m}),
    (cli._TENSOR_HEAD % (0, -2, 2**64, 7, -(10**40)),
     {"factors": [[0, -2], [2**64, 7]], "dim": -(10**40)}, "components",
     cli._TENSOR_COMPONENT,
     lambda a, b, m, d: {"weight": [a, b], "mult": m, "dim": d}),
    *((cli._KR_HEAD % (family.value, m, source, cli._KR_BASIS[basis]),
       {"family": family.value, "m": m, "source": source,
        **({"basis": "weight"} if basis == "weight" else {})},
       "components", *_KR_ITEM)
      for family, m in zip(Family, (0, -5, 2**64, 40))
      for source in ("theorem", "conjecture")
      for basis in ("irrep", "weight")),
]


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
    for head, payload, key, template, item in JSON_HEADS:
        fields = [row[:item.__code__.co_argcount] for row in rows]
        items = [item(*row) for row in fields]
        expected = json.dumps({**payload, key: items}, indent=2) + "\n"
        assert "".join(cli._json(head, template, fields)) == expected


def test_unwalkable_region_is_one_error_line(monkeypatch, capsys):
    # r1 + r2 + r3 + r4 <= 2m: the region's lattice is not unimodular, so
    # it has no five generators to count from
    region = _REGIONS[Family.T2]
    *kept, (c, _) = region.constraints
    monkeypatch.setitem(_REGIONS, Family.T2, region._replace(
        constraints=(*kept, (c, 2))
    ))
    assert run(capsys, "kr", "--family", "t2", "--m", "2") == (
        2, "", "error: the t2 region is not a unimodular simplicial cone "
        "in (r, m)\n"
    )


@pytest.mark.parametrize(
    "family, rows, count",
    [
        # r2 >= 0 back in U1, a row implied by r4 >= 0 and r2 - r4 >= 0
        ("u1", lambda rows: (*rows, ((0, 1, 0, 0), 0)), 6),
        # r4 >= 0 left out of T2
        ("t2", lambda rows: tuple(r for r in rows if r != ((0, 0, 0, 1), 0)),
         4),
    ],
    ids=["u1-implied-row", "t2-four-rows"],
)
def test_table_of_other_row_count_is_one_error_line(monkeypatch, capsys,
                                                    family, rows, count):
    # a table must list exactly the cone's rank + 1 facets
    region = _REGIONS[Family(family)]
    monkeypatch.setitem(_REGIONS, Family(family), region._replace(
        constraints=rows(region.constraints)
    ))
    message = (f"error: the {family} region lists {count} constraints, not "
               "its rank + 1 = 5 facets\n")
    for argv in (("kr", "--family", family, "--m", "2"),
                 ("verify", "conjecture", "--family", family),
                 ("verify", "classes", "--family", family)):
        assert run(capsys, *argv) == (2, "", message), argv


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
    # wall weights: orbits of 6, not 12, distinct weights
    ("char 0 9 --format json",
     "a8c313cf300bc2c0e6320a4c3f5e71c849c570551944fc714eb16d8629b3a052", 0),
    ("char 0 9 --format csv",
     "eea6b5db66d4a08c0ace7ac70d7186ef2dca704d92f562a75565201a5b3b86d2", 0),
    ("char 0 9 --format table",
     "c4d43946ef1d6ad82eaf1a0acd389a4f94b7e3d4f84b4ab8b732592968afec4d", 0),
    ("char 11 0 --format json",
     "765d186d4994d007763eb6ebe5092d2a811693bf378e2ec751e7b047211b8d2f", 0),
    ("char 11 0 --format csv",
     "0d53986ec8bf6e16fb635a1d81929eb94bdfb3c526d14445e545daf811717b33", 0),
    ("char 11 0 --format table",
     "fae4b459c3bbf70dcaa75c75c2c4e60b05f287787555b8a7635263115744a645", 0),
    ("char 36 17 --format json",
     "f70d3d137ae98accf6750fbeaeb4699a3e3bf808b927dc02dfcaf63bad1c31dd", 0),
    # outputs of many chunks (`cli._CHUNK` rows each), recorded while the
    # CLI still rendered each output as one string
    ("char 40 40 --format json",
     "ce989edb21b7f66a112bbc120339df5998032cd89fcd042c890d7683f89995fa", 0),
    ("char 40 40 --format csv",
     "e2344b2c513955882581d08b43150c56080a7f12c5e84caf60cfa20cb9ce8e3f", 0),
    ("char 40 40 --format table",
     "dee54e7551bc5c366299a964e7f9a67e88fadac6406db1c5badde4a1b4d755ac", 0),
    ("kr --family t2 --m 40 --format json",
     "18cfa538a23d99704cc1ff7dcf4349e44559cf38c333359f7284cadaf618953b", 0),
    ("kr --family t2 --m 40 --format csv",
     "487b1a835eb2857cdb621bfab89d4552b40c3a36cb17b24c5029f54986e03672", 0),
    ("kr --family t2 --m 40 --format table",
     "f47cf9ddc796fad19effdf1db54dae2a433e320617fdb5395e5017891b8c68e2", 0),
    ("kr --family t2 --m 9 --basis weight --format json",
     "0e5e0d6f5b809782c80398f4a6ef3d3047f633f81e659087b0e1ec6b30c18c71", 0),
    # every `kr` path in outputs of many chunks, recorded while `kr` still
    # held its rows as lists: the generating function, the weight basis of
    # T2, U1 and a ladder, and a single row
    ("kr --family t2 --m 40 --conjecture --format csv",
     "487b1a835eb2857cdb621bfab89d4552b40c3a36cb17b24c5029f54986e03672", 0),
    ("kr --family t2 --m 40 --conjecture --format table",
     "b0326eef38e8f0065b63d98d999fa58b1e9deb45a25e980c335fe78d4acdb666", 0),
    ("kr --family t2 --m 9 --basis weight --format csv",
     "be0ea1bda416f30346052e9f387f995d4688caf10f1298ed49b711f039aed15a", 0),
    ("kr --family t2 --m 9 --basis weight --format table",
     "f88c6cbe02ecc3171e98043046722ad3ecb861a75c2a1e9afe88bd33a92c8817", 0),
    ("kr --family u1 --m 16 --basis weight --format csv",
     "dfe8987b5130efc94b00f83e7aab2523c624dd7fc048c465c50e9ae423a684c0", 0),
    ("kr --family u1 --m 16 --basis weight --format table",
     "ce7ea484bef00fcd0bbacb82898cb68552c0cffdb67905e2526ab6357728bc88", 0),
    ("kr --family u2 --m 40 --basis weight --format table",
     "6a833eb3e743b29d0cfc4996ec8985b3fa9691a0d2bb12630e017fa4dd50eb91", 0),
    ("kr --family t1 --m 0 --format json",
     "4258cac3471cd1ef65a97f6cd956f74128d532fdec2d148a14d5bdcded050fba", 0),
    # the ladders' other paths, recorded while U2 and T1 still had their
    # own code path beside the region table
    ("kr --family u2 --m 40 --conjecture --format json",
     "a62cc1dd13e88e8c71d83b1f56127107baa917b1f78141180c3d06c023a072a1", 0),
    ("kr --family u2 --m 40 --conjecture --format csv",
     "52b9858077700c784e4145af5fe18d1d01d69e499b96c1d6a9448a6145055deb", 0),
    ("kr --family u2 --m 40 --conjecture --format table",
     "04d050f384066c7f7c755f180d16c7047c9c5f3ff94021acd380fb3a59c5a480", 0),
    ("kr --family t1 --m 40 --conjecture --format json",
     "829ea2ef2c14488656bb1574316388334cd2fde23b8d2f0b007b6f448fa3b82d", 0),
    ("kr --family t1 --m 14 --basis weight --format json",
     "a49e50a3478748031ca97aa60caae98fb6dcf67da6099d0d46b8c893d1bc8c2d", 0),
    ("kr --family t1 --m 14 --basis weight --format csv",
     "ef84e47705262aed1578a88dcf353548cfea440feeb8044e930e4f0f75109584", 0),
    ("kr --family u2 --m 6 --conjecture --basis weight --format table",
     "f313268ff8d609eed881658c28ee8382f03f4ec31f8ec46ef4cc01cd9f027b58", 0),
    ("verify conjecture --family t1 --max-m 32 --format table",
     "401cad9a3613f396ec927068b7dd0ea6f64ad945a9632b62433059865077f256", 0),
    ("verify all --family u2 --max-m 16 --format json",
     "66c947177c0fee025fe9a250d8db268a5556762a308c00e3e93a184801702344", 0),
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
    ("kr --family t2 --m 9 --conjecture --basis weight --format csv",
     "be0ea1bda416f30346052e9f387f995d4688caf10f1298ed49b711f039aed15a", 0),
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
    # the benchmark's slowest `kr` runs, recorded while each row still
    # passed through a Python step
    ("kr --family t2 --m 36 --format csv",
     "c117a1786543717bd68b922c34d3f7b38aa8341ca21b7bef1d66f6c84011cba1", 0),
    ("kr --family t2 --m 36 --conjecture --format table",
     "72ceb63b70a1b844f9e9348a054c2707e43ae90ad55471009e6cd0205d34a8fe", 0),
    ("kr --family u1 --m 12 --basis weight --format table",
     "23452e444776e555d007491d60aa11629ec5a8b6ddf2a8654c151bc31155757b", 0),
    ("kr --family t2 --m 8 --basis weight --format csv",
     "531c06771c3bae783fe930dd69908d650ee42607ffac1847c5fad1059081effe", 0),
    ("kr --family u1 --m 16 --conjecture --basis weight --format json",
     "2968134bdbd078bf143582c7e99f5bb25473e4ecaedf798a0eba6243c3ff0355", 0),
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
    code, out, _ = run(capsys, *command.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "command, digest, exit_code", OUTPUT_DIGESTS,
    ids=[case[0] for case in OUTPUT_DIGESTS],
)
def test_output_bytes_unchanged_in_small_chunks(monkeypatch, capsys, command,
                                                digest, exit_code, chunk):
    # runs of one and of three rows: every chunk boundary, and a last run
    # that is full, short or alone
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    test_output_bytes_unchanged(monkeypatch, capsys, command, digest,
                                exit_code)


class _Stdout(io.StringIO):
    """A stdout that records each write, and raises `error` on write
    number `at`; its descriptor is `fd`."""

    def __init__(self, fd=None, error=None, at=2):
        super().__init__()
        self.fd, self.error, self.at, self.writes = fd, error, at, []

    def write(self, text):
        self.writes.append(text)
        if self.error is not None and len(self.writes) == self.at:
            raise self.error
        return super().write(text)

    def fileno(self):
        return self.fd


def test_output_arrives_in_bounded_writes(monkeypatch):
    # 3.2 MB of json: never held whole, nor written in one piece
    stdout = _Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["char", "40", "40", "--format", "json"]) == 0
    monkeypatch.undo()
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) <= 256 * 1024
    text = "".join(stdout.writes)
    assert text == stdout.getvalue()
    digests = {command: digest for command, digest, _ in OUTPUT_DIGESTS}
    assert hashlib.sha256(text.encode()).hexdigest() == digests[
        "char 40 40 --format json"
    ]


_FULL = (errno.ENOSPC, os.strerror(errno.ENOSPC))
_CLOSED = (errno.EPIPE, os.strerror(errno.EPIPE))
_CHAR = ["char", "40", "40", "--format", "json"]
_FAILED_VERIFY = ["verify", "conjecture", "--family", "u1", "--max-m", "1"]


@pytest.mark.parametrize(
    "argv, error, expected, at",
    [
        (_CHAR, OSError(*_FULL), (2, "error: [Errno %d] %s\n" % _FULL), 2),
        # the reader stopped reading: the output ends quietly, with the
        # command's own exit code, 1 for a failed verification
        (_CHAR, BrokenPipeError(*_CLOSED), (0, ""), 2),
        (_FAILED_VERIFY, BrokenPipeError(*_CLOSED), (1, ""), 2),
        # help is one write, under the same rule
        (["--help"], OSError(*_FULL), (2, "error: [Errno %d] %s\n" % _FULL),
         1),
        (["--help"], BrokenPipeError(*_CLOSED), (0, ""), 1),
        (["kr", "--help"], OSError(*_FULL),
         (2, "error: [Errno %d] %s\n" % _FULL), 1),
    ],
    ids=["full-disk", "closed-pipe", "closed-pipe-failed-verify",
         "help-full-disk", "help-closed-pipe", "kr-help-full-disk"],
)
def test_failed_write_is_one_error_line(monkeypatch, capsys, tmp_path, argv,
                                        error, expected, at):
    _u1_coefficient_fault(monkeypatch)
    monkeypatch.setattr(cli, "_CHUNK", 1)  # a table of many writes
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout = _Stdout(fd, error, at)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = main(argv)
        assert (code, capsys.readouterr().err) == expected
        assert len(stdout.writes) == at  # no write after the failed one
        # the descriptor now discards what the interpreter flushes at exit
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


@pytest.mark.parametrize(
    "argv, target, unbuffered",
    [
        (["char", "40", "40", "--format", "csv"], "full", "1"),
        (["char", "40", "40", "--format", "csv"], "full", ""),
        (["char", "0", "0"], "full", ""),
        (["char", "40", "40", "--format", "json"], "pipe", ""),
        (["char", "40", "40", "--format", "json"], "pipe", "1"),
        (["--help"], "pipe", ""),
        (["--help"], "pipe", "1"),
        (["kr", "--help"], "pipe", ""),
        (["--help"], "full", ""),
        (["--help"], "full", "1"),
        (["kr", "--help"], "full", ""),
        (["kr", "--help"], "full", "1"),
    ],
    ids=["full-unbuffered", "full-buffered", "full-small", "closed-pipe",
         "closed-pipe-unbuffered", "help-closed-pipe",
         "help-closed-pipe-unbuffered", "kr-help-closed-pipe",
         "help-full-buffered", "help-full-unbuffered",
         "kr-help-full-buffered", "kr-help-full-unbuffered"],
)
def test_failed_write_in_a_process_exits_two(child_env, argv, target,
                                             unbuffered):
    # the whole path: a full disk is one error line and exit 2, a closed
    # pipe no line and exit 0, also for help, whose one write fails at once
    # (unbuffered) or waits in stdout's buffer until main flushes it
    if target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    env = {**child_env, "PYTHONUNBUFFERED": unbuffered}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "g2kr.cli", *argv], stdout=fd,
            stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(fd)
    assert (result.returncode, result.stderr) == (
        (2, "error: [Errno %d] %s\n" % _FULL) if target == "full" else (0, "")
    )


#: A child that seeds `_u1_coefficient_fault`'s table fault, then runs its
#: command line through cli.run, as `python -m g2kr.cli` does.
_FAULTED_RUN = (
    "from g2kr import cli, kr\n"
    "region = kr._REGIONS[kr.Family.U1]\n"
    "def coefficient(m, j, k):\n"
    "    if (m, j, k) == (8, 2, 0):\n"
    "        return -1\n"
    "    return region.coefficient(m, j, k) + ((j, k) == (0, 0))\n"
    "kr._REGIONS[kr.Family.U1] = region._replace(coefficient=coefficient)\n"
    "cli.run()\n"
)


def _process(child_env, *argv, script=None):
    """(exit code, stdout, stderr) of argv run by cli.run in a fresh
    process, with stdout buffered: what os._exit would drop unflushed."""
    entry = ["-c", script] if script else ["-m", "g2kr.cli"]
    result = subprocess.run([sys.executable, *entry, *argv],
                            capture_output=True, text=True, check=False,
                            env={**child_env, "PYTHONUNBUFFERED": "",
                                 "COLUMNS": "80"})
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("argv, code", [
    (["char", "1", "0"], 0),
    (["kr", "--family", "t2", "--m", "40", "--format", "csv"], 0),
    (["kr", "--help"], 0),
    (["kr", "--family", "x", "--m", "1"], 2),
    (["tensor", "1", "0", "0", "-2"], 2),
], ids=["ok", "ok-many-chunks", "help", "usage-error", "domain-error"])
def test_process_writes_what_main_writes(monkeypatch, capsys, child_env,
                                         argv, code):
    # main writes argparse's help, as any output, and flushes it
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, as in _process
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert _process(child_env, *argv) == expected


def test_failed_verify_process_writes_what_main_writes(monkeypatch, capsys,
                                                        child_env):
    argv = ["verify", "conjecture", "--family", "u1", "--max-m", "8",
            "--format", "json"]
    code, out, err = _process(child_env, *argv, script=_FAULTED_RUN)
    _u1_coefficient_fault(monkeypatch)
    assert (code, out) == run(capsys, *argv)[:2]
    assert code == 1 and json.loads(out)["negative_coefficients"]
    # the warning logged on the way reaches stderr before the process ends
    assert err == ("negative pre-clamp coefficient -1 for u1 at m=8, j=2, "
                   "k=0\n")


@pytest.mark.parametrize("argv", [
    ["char", "1", "0", "--format", "json"],
    ["kr", "--family", "t2", "--m", "40", "--format", "table"],
], ids=["one-chunk", "many-chunks"])
def test_process_out_file_equals_stdout(child_env, tmp_path, argv):
    target = tmp_path / "out.txt"
    assert _process(child_env, *argv, "--out", str(target)) == (0, "", "")
    code, out, err = _process(child_env, *argv)
    assert (code, err) == (0, "")
    assert target.read_text(encoding="utf-8") == out


def _no_dimension(weight):
    raise ArithmeticError(f"no dimension for {tuple(weight)}")


@pytest.mark.parametrize(
    "fmt", ["csv", "table", "csv --conjecture", "table --conjecture"],
    ids=["csv", "table", "conjecture-csv", "conjecture-table"],
)
def test_error_in_rows_leaves_no_output(monkeypatch, capsys, tmp_path, fmt):
    # the csv and table rows' dims are computed before the first byte
    monkeypatch.setattr(characters, "weyl_dim", _no_dimension)
    argv = ["kr", "--family", "t2", "--m", "5", "--format", *fmt.split()]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: no dimension for (") and err.count("\n") == 1
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (1, "", err)
    assert not target.exists()
    # json lists no dims, so it never asks
    code, out, _ = run(capsys, *argv[:5], "--format", "json", *argv[7:])
    assert code == 0 and json.loads(out)["family"] == "t2"


class _ClosedStderr(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(*_CLOSED)


@pytest.mark.parametrize("argv, fault", [
    (["char", "1", "-3"], None),
    (["kr", "--family", "t2", "--m", "5", "--format", "csv"], _no_dimension),
], ids=["domain-error", "exactness-check"])
def test_error_line_on_a_closed_stderr_is_never_success(monkeypatch, argv,
                                                        fault):
    # the write rule is stdout's: an error line that cannot be written
    # escapes main, and the process does not exit 0
    if fault is not None:
        monkeypatch.setattr(characters, "weyl_dim", fault)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys, "stderr", _ClosedStderr())
    with pytest.raises(BrokenPipeError):
        main(argv)
    assert sys.stdout.getvalue() == ""


def test_usage_error_leaves_stdout_alone(monkeypatch, capsys):
    # a usage error writes nothing to stdout, nor flushes it: with stdout
    # closed at startup (sys.stdout is None) it is still exit 2
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["kr", "--family", "x", "--m", "1"]) == 2
    assert "invalid choice: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["u1", "u2", "t1", "t2"])
def test_kr_decodes_each_weight_once(monkeypatch, capsys, family):
    # the count's keys are decoded a grade at a time, each distinct weight
    # once, whatever the format and basis
    decoded = []
    weight = kr._weight

    def counted(pair):
        decoded.append(pair)
        return weight(pair)

    monkeypatch.setattr(kr, "_weight", counted)
    g = kr_graded_character(Family(family), 12)
    distinct = {w for _, w, _ in g.items()}
    decoded.clear()
    for fmt in ("json", "csv", "table"):
        for basis in ("irrep", "weight"):
            code, _, _ = run(capsys, "kr", "--family", family, "--m", "12",
                             "--format", fmt, "--basis", basis)
            assert code == 0
            assert sorted(decoded) == sorted(distinct)
            decoded.clear()


def _no_multiplicities(monkeypatch):
    # Racah's formula fails at V(0,0), in the last grade of T2 and U2
    dominant = characters._dominant_multiplicities

    def faulty(a, b):
        if (a, b) == (0, 0):
            raise ArithmeticError("no multiplicities for (0,0)")
        return dominant(a, b)

    monkeypatch.setattr(characters, "_dominant_multiplicities", faulty)


def _non_dominant(monkeypatch):
    # the closed form's a = r1 + r2 - 2r3, which is -1 at (1, 0, 1, 0) in
    # grade 3; the generating function's label (0, 0) carries V(0,-1) in
    # the last grade, 3m
    region = _REGIONS[Family.T2]

    def term(m, j, k):
        return (0, -1, 3 * m) if (j, k) == (0, 0) else region.term(m, j, k)

    wt_gr = (((1, 1, -2, 0), 0), *region.wt_gr[1:])
    monkeypatch.setitem(_REGIONS, Family.T2,
                        region._replace(wt_gr=wt_gr, term=term))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "fault, argv, code, error",
    [
        (_no_multiplicities, ["t2", "--basis", "weight"], 1,
         "no multiplicities for (0,0)"),
        (_no_multiplicities, ["t2", "--basis", "weight", "--conjecture"], 1,
         "no multiplicities for (0,0)"),
        (_no_multiplicities, ["u2", "--basis", "weight"], 1,
         "no multiplicities for (0,0)"),
        (_non_dominant, ["t2", "--basis", "weight"], 2,
         "highest weight component (-"),
        (_non_dominant, ["t2", "--basis", "weight", "--conjecture"], 2,
         "highest weight component (0,-1) is not dominant"),
    ],
    ids=["racah", "racah-conjecture", "racah-ladder", "non-dominant",
         "non-dominant-conjecture"],
)
def test_weight_basis_fault_leaves_no_output(monkeypatch, capsys, tmp_path,
                                             fault, argv, code, error, fmt):
    # every component of the weight basis is checked before the first byte,
    # also where the fault is in a late grade
    fault(monkeypatch)
    argv = ["kr", "--family", *argv, "--m", "5", "--format", fmt]
    result = run(capsys, *argv)
    assert result[:2] == (code, "")
    assert result[2].startswith(f"error: {error}")
    assert result[2].count("\n") == 1
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == result
    assert not target.exists()


class _Sink:
    """A stdout that counts the characters written to it and keeps none."""

    length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def flush(self):
        pass


def test_kr_rows_are_never_held(monkeypatch):
    # rows are decoded as they are written, and the weight basis expands
    # one grade at a time: the peak is set by the count and by one grade,
    # well below the 1.05 MB of text (6.5 MB while rows were held).  A
    # first run fills Racah's cache, which outlives the command.
    argv = ["kr", "--family", "t2", "--m", "14", "--basis", "weight",
            "--format", "table"]
    monkeypatch.setattr(sys, "stdout", _Sink())
    assert main(argv) == 0
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.length
