"""Tests of the benchmark itself: ``python3 -m pytest benchmarks -q``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import g2math  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from g2kr import cli  # noqa: E402
from g2kr.characters import irreducible_character, weyl_dim  # noqa: E402
from g2kr.kr import Family, enumerate_region  # noqa: E402


def first_rounds(workload, seed, count=3):
    gen = workloads.rounds(workload, seed)
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)
    for ops in first_rounds(workload, 7):
        assert len(ops) == len(workloads.SLOTS[workload])
        for argv in ops:
            assert cli.build_parser().parse_args(argv)


def test_tail_is_the_sample_with_ten_beyond_it():
    value, percentile = run.tail([float(x) for x in range(100, 0, -1)])
    assert (value, percentile) == (90.0, 90.0)
    value, percentile = run.tail([float(x) for x in range(1, 41)])
    assert (value, percentile) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_are_scaled_by_the_yardsticks_around_them():
    class Runner:
        def yardstick(self):
            return {"wall": 0.3, "cpu": 0.2}

    results = [{"wall": 1.0, "cpu": 0.5}, {"wall": 2.0, "cpu": 1.0}]
    after = run.scale(Runner(), results, {"wall": 0.1, "cpu": 0.2})
    assert after == {"wall": 0.3, "cpu": 0.2}
    ref = run.YARDSTICK_REF_S
    assert results[1] == pytest.approx(
        {"wall": 2.0 * ref / 0.2, "raw_wall": 2.0, "cpu": 1.0 * ref / 0.2, "raw_cpu": 1.0}
    )


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 60]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 60]
    assert spans.self_times(parents, starts, ends) == [60, 20, 10, 10]
    # Tracing cost: 1 ns inside every span, 2 ns in the caller per child.
    assert spans.self_times(parents, starts, ends, 1, 2) == [55, 17, 9, 9]
    totals = spans.Totals()
    header = {"counters": {"kr.enumerate_region.points": 3}, "cache": {"hits": 3, "misses": 1},
              "overhead_ns": {"own": 0, "caller": 0}}
    names = ["cli.main", "kr.expand_weights", "characters.irreducible_character",
             "weights.inner"]
    totals.add(header, names, parents, starts, ends)
    metrics = totals.metrics()
    assert metrics["cli.render.self_s"] == 60e-9
    assert metrics["kr.expand_weights.self_s"] == 20e-9
    assert metrics["kr.expand_weights.components"] == 1
    assert metrics["weights.calls"] == 1
    assert metrics["characters.cache_hit_ratio"] == 0.75
    assert metrics["kr.enumerate_region.points"] == 3


def test_own_arithmetic_matches_the_library():
    for a, b in [(0, 0), (1, 0), (0, 1), (3, 4), (7, 2), (0, 9), (11, 0)]:
        assert g2math.weyl_dim(a, b) == weyl_dim((a, b))
        assert g2math.support_size(a, b) == len(irreducible_character((a, b)))
    for family in ("u1", "t2"):
        for m in (0, 1, 5, 9):
            assert g2math.region_count(family, m) == len(
                enumerate_region(Family(family), m)
            )


def cli_output(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue().encode()


COMMANDS = [
    ["tensor", "2", "1", "0", "1", "--format", "json"],
    ["char", "3", "2", "--format", "json"],
    ["kr", "--family", "u1", "--m", "7", "--format", "json"],
    ["kr", "--family", "t2", "--m", "4", "--conjecture", "--format", "csv"],
    ["kr", "--family", "u2", "--m", "3", "--basis", "weight", "--format", "table"],
    ["kr", "--family", "t1", "--m", "5", "--basis", "weight", "--format", "json"],
    ["kr", "--family", "t2", "--m", "3", "--basis", "weight", "--format", "csv"],
    ["verify", "all", "--family", "u1", "--max-m", "4", "--format", "json"],
    ["verify", "classes", "--max-m", "3", "--format", "json"],
]


def corrupt(out: bytes) -> bytes:
    """Change the last multiplicity-like digit run by one."""
    text = out.decode()
    for i in range(len(text) - 1, -1, -1):
        if text[i] in "123456789" and not text[i + 1 : i + 2].isdigit():
            return (text[:i] + str(int(text[i]) + 1) + text[i + 1 :]).encode()
    raise AssertionError("no digit to corrupt")


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:4]))
def test_correct_output_passes_and_corrupted_output_fails(argv):
    out = cli_output(argv)
    assert checks.check(argv, 0, out) is None
    assert checks.check(argv, 0, corrupt(out)) is not None
    assert checks.check(argv, 1, out) == "exit code 1"
    if "json" in argv:
        # Valid JSON, but not the canonical rendering.
        compact = json.dumps(json.loads(out)).encode()
        assert "round-trip" in checks.check(argv, 0, compact)


def test_corrupted_output_is_counted_as_failed(tmp_path):
    argv = COMMANDS[0]
    out = cli_output(argv)
    with run.Runner(tmp_path) as runner:
        result = runner.op(argv)
        assert result["code"] == 0 and result["out"] == out
        tally = run.Tally(runner)
        assert tally.checked(argv, result)
        result["out"] = out.replace(b'"mult": 1', b'"mult": 2', 1)
        assert not tally.checked(argv, result)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons[0].startswith("g2kr tensor 2 1 0 1")


def test_spawner_reports_the_child_not_the_benchmark(tmp_path):
    ballast = b"\x01" * (64 << 20)  # the benchmark grows; its children must not
    with run.Runner(tmp_path) as runner:
        result = runner.run([sys.executable, "-c", "print(1)"])
    assert result["out"] == b"1\n" and result["code"] == 0
    assert result["rss_kb"] < 32 << 10
    assert result["wall"] > 0 and result["cpu"] > 0
    del ballast


def test_shim_records_nested_spans_through_imported_aliases(tmp_path):
    with run.Runner(tmp_path) as runner:
        argv = ["verify", "classes", "--family", "u1", "--max-m", "2", "--format", "json"]
        result, path = runner.traced_op(argv, 5)
        assert checks.check(argv, result["code"], result["out"]) is None
        header, names, parents, starts, ends = spans.read(path)
        assert header["op"] == 5
        assert names[0] == "cli.main" and parents[0] == -1
        pairs = {(names[p], n) for n, p in zip(names, parents) if p >= 0}
        # equivalence imported enumerate_region from kr; the alias is traced.
        assert ("equivalence.verify_partition", "kr.enumerate_region") in pairs
        assert ("equivalence.class_members", "kr.in_region") in pairs
        # Calls inside weights are not spans: only calls into the layer are.
        assert not any(names[p].startswith("weights.") for p in parents if p >= 0)
        assert header["counters"]["equivalence.class_keys.count"] > 0
        assert all(s <= e for s, e in zip(starts, ends))
        assert 0 < header["overhead_ns"]["own"] < 1e5
        assert 0 < header["overhead_ns"]["caller"] < 1e5
        assert "trace.calibrate" not in names
        # Work counting is a span of its own, outside the caller's self time.
        assert ("equivalence.verify_partition", "trace.count") in pairs

        argv = ["tensor", "1", "1", "1", "0", "--format", "json"]
        result, path = runner.traced_op(argv, 6)
        assert checks.check(argv, result["code"], result["out"]) is None
        header, names, parents, _, _ = spans.read(path)
        pairs = {(names[p], n) for n, p in zip(names, parents) if p >= 0}
        assert {("cli.main", "characters.tensor"),
                ("characters.tensor", "characters.multiply"),
                ("characters.tensor", "characters.decompose"),
                ("characters.irreducible_character", "weights.weyl_orbit")} <= pairs
        assert header["counters"]["characters.multiply.term_pairs"] == (
            g2math.support_size(1, 1) * g2math.support_size(1, 0)
        )


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "kr-render",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
