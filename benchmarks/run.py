"""End-to-end benchmark of the ``g2kr`` command line.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives the CLI in a closed loop: every operation is a
fresh ``python -m g2kr.cli ...`` process, as users run it, and the next one
starts only after it has exited, so every operation starts with the same
empty caches.  The operations come from ``workloads.rounds(W, N)``, and
every output is checked with the benchmark's own arithmetic (``checks``).

``--trace 0`` runs whole rounds for about S reference seconds (see
``YARDSTICK``), so that a seed gives the same operations on a slow machine
as on a fast one, and reports the end-to-end metrics with times in
reference seconds.  A slow machine stops the run after WALL_CAP * S seconds.
``--trace 1`` runs the first round, each operation
once plainly and once through ``shim.py``, and reports per-layer counts and
self times plus the tracing overhead; the round is fixed so that its counts
repeat exactly for a seed.  A JSON record of the run (environment, shares
of the operation properties later changes may target, tail percentile,
error rate, and with ``--trace 0`` every operation's argv, wall time, CPU
time and peak RSS) is printed before the result, which is the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units are those of ``BENCHMARK.json`` at the root of the
checkout.  The benchmark's own tests: ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_ROUND = 3

#: A fixed pure-Python job (tuple keys, dict updates, integer arithmetic, as
#: in the library) that is run in a fresh interpreter between operations.
#: A shared virtual machine can change speed by half within seconds, so
#: times are reported in reference seconds: multiplied by YARDSTICK_REF_S
#: over the yardstick's own time around them, that is, as on a machine on
#: which the yardstick takes YARDSTICK_REF_S.
YARDSTICK = """
d = {}
for i in range(150_000):
    k = (i % 97, i % 89)
    d[k] = d.get(k, 0) + 3 * i
"""
YARDSTICK_REF_S = 0.1
WALL_CAP = 1.2
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10
LIGHT_S = 0.2


def declared_units(trace: int) -> dict:
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The table width hint would make table output depend on the caller.
    env.pop("G2KR_WIDTH", None)
    return env


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs one child command at a time through ``spawn.py`` and measures it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def run(self, cmd: list[str]) -> dict:
        """Wall time, child rusage, exit code and stdout of one command."""
        request = {
            "cmd": cmd,
            "stdout": str(self.stdout_path),
            "stderr": str(self.stderr_path),
            "timeout": OP_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        reply["wall"] = (reply["end_ns"] - reply["start_ns"]) / 1e9
        reply["out"] = self.stdout_path.read_bytes()
        return reply

    def stderr_line(self) -> str:
        text = self.stderr_path.read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""

    def op(self, argv: list[str]) -> dict:
        return self.run([sys.executable, "-m", "g2kr.cli", *argv])

    def traced_op(self, argv: list[str], op_id: int) -> tuple[dict, Path]:
        path = self.workdir / f"spans-{op_id}"
        cmd = [sys.executable, str(HERE / "shim.py"), str(path), str(op_id), *argv]
        return self.run(cmd), path

    def checked_run(self, code: str) -> dict:
        """A ``python -c`` child that has to succeed."""
        result = self.run([sys.executable, "-c", code])
        if result["code"] != 0:
            raise RuntimeError(f"python -c failed: {self.stderr_line()}")
        return result

    def setup(self) -> dict:
        """Fresh interpreter to ``import g2kr.cli`` done, as the wall time."""
        result = self.checked_run("import time, g2kr.cli; print(time.monotonic_ns())")
        result["wall"] = (int(result["out"]) - result["start_ns"]) / 1e9
        return result

    def yardstick(self) -> dict:
        return self.checked_run(YARDSTICK)


def scale(runner, results, before) -> dict:
    """Run the yardstick after ``results`` and put their wall and CPU times
    in reference seconds, by the mean yardstick just before and just after
    them; the times as measured stay under ``raw_wall`` and ``raw_cpu``.
    Returns the new yardstick, which is the next ``before``."""
    after = runner.yardstick()
    for key in ("wall", "cpu"):
        factor = 2 * YARDSTICK_REF_S / (before[key] + after[key])
        for result in results:
            result["raw_" + key] = result[key]
            result[key] *= factor
    return after


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it: the (TAIL_BEYOND + 1)-th largest sample.  With fewer samples
    than that, the maximum, reported as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Tally:
    """Attempted and failed commands, with the first few failure reasons."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def checked(self, argv, result) -> bool:
        self.attempted += 1
        reason = checks.check(argv, result["code"], result["out"])
        if reason is None:
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            stderr = self.runner.stderr_line()
            self.reasons.append(
                f"g2kr {' '.join(argv)}: {reason}" + (f" ({stderr})" if stderr else "")
            )
        return False


def share(ops, predicate) -> float:
    return sum(1 for op in ops if predicate(op)) / len(ops) if ops else 0.0


def measure(runner, tally, workload, seed, seconds):
    """Closed loop over whole rounds for about ``seconds``; end-to-end metrics.

    Every round holds the same mix, so throughput and CPU per operation are
    taken per round and reported as the median round: a burst of load from
    outside the benchmark then moves one round, not the result.  Set-up
    time is sampled a few times before every round for the same reason.
    Times are in reference seconds (``scale``); the same metrics in seconds
    as measured are in the record.
    """
    setup = []
    done = []  # (round, argv, result without its output)
    yardstick = runner.yardstick()
    loop_start = time.perf_counter()
    reference_s = 0.0  # the loop's time so far, in reference seconds
    for count, ops in enumerate(workloads.rounds(workload, seed), 1):
        samples = [runner.setup() for _ in range(SETUP_PER_ROUND)]
        yardstick = scale(runner, samples, yardstick)
        setup += samples
        for argv in ops:
            result = runner.op(argv)
            result["ok"] = tally.checked(argv, result)
            del result["out"]
            yardstick = scale(runner, [result], yardstick)
            done.append((count, argv, result))
        reference_s += sum(r["wall"] for r in samples) + sum(r["wall"] for *_, r in done[-len(ops):])
        reference_s += YARDSTICK_REF_S * (len(ops) + 1)
        elapsed = time.perf_counter() - loop_start
        # Stop before a round that would end past the limit.
        if (reference_s + reference_s / count > seconds
                or elapsed + elapsed / count > WALL_CAP * seconds):
            break
    results = [r for _, _, r in done]
    per_round = [[r for c, _, r in done if c == i] for i in range(1, count + 1)]
    metrics = end_to_end(setup, results, per_round, "")
    _, tail_pct = tail([r["wall"] for r in results])
    n = len(done)
    record = {
        "rounds": count,
        "operations": n,
        "latency_tail": {"percentile": tail_pct, "samples": n, "beyond": TAIL_BEYOND},
        "error_rate": tally.failed / tally.attempted,
        "shares": {
            "basis_weight": share(done, lambda d: "weight" in d[1]),
            f"under_{LIGHT_S}s": share(results, lambda r: r["wall"] < LIGHT_S),
        },
        "yardstick_ref_s": YARDSTICK_REF_S,
        "measured": end_to_end(setup, results, per_round, "raw_"),
        "setup_samples": [{k: r[k] for k in ("wall", "raw_wall")} for r in setup],
        "per_operation": [
            {"round": c, "argv": argv, **{k: r[k] for k in OP_FIELDS}} for c, argv, r in done
        ],
    }
    return metrics, record


OP_FIELDS = ("wall", "raw_wall", "cpu", "raw_cpu", "rss_kb", "code", "ok")


def end_to_end(setup, results, per_round, prefix) -> dict:
    """The end-to-end metrics from the times under ``prefix + "wall"`` and
    ``prefix + "cpu"``."""
    wall, cpu = prefix + "wall", prefix + "cpu"
    walls = [r[wall] for r in results]
    return {
        "setup_s": statistics.median(r[wall] for r in setup),
        "ops_per_s": statistics.median(
            sum(r["ok"] for r in rs) / sum(r[wall] for r in rs) for rs in per_round
        ),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail(walls)[0],
        "cpu_s_per_op": statistics.median(sum(r[cpu] for r in rs) / len(rs) for rs in per_round),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }


def trace(runner, tally, workload, seed):
    """The first round, plain and traced; per-layer metrics and overhead."""
    ops = next(workloads.rounds(workload, seed))
    totals = spans.Totals()
    plain_s = traced_s = 0.0
    output_bytes = light = 0
    for op_id, argv in enumerate(ops):
        plain = runner.op(argv)
        tally.checked(argv, plain)
        light += plain["wall"] < LIGHT_S
        traced, path = runner.traced_op(argv, op_id)
        if tally.checked(argv, traced):
            totals.add(*spans.read(path))
        path.unlink(missing_ok=True)
        plain_s += plain["wall"]
        traced_s += traced["wall"]
        output_bytes += len(traced["out"])
    values = totals.metrics()
    values["cli.output_bytes"] = output_bytes
    values["trace.overhead_s"] = traced_s - plain_s
    record = {
        "operations": len(ops),
        "error_rate": tally.failed / tally.attempted,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "traced_over_plain": traced_s / plain_s,
        "spans": totals.spans,
        "tracing_cost": {
            **{
                f"{part}_ns_per_span": statistics.median(c[part] for c in totals.calibrations)
                for part in ("caller", "own") if totals.calibrations
            },
            "subtracted_s": totals.overhead_ns / 1e9,
        },
        "cache": {
            "hits": totals.cache["hits"],
            "misses": totals.cache["misses"],
            "hit_ratio": values["characters.cache_hit_ratio"],
        },
        "shares": {
            "basis_weight": share(ops, lambda argv: "weight" in argv),
            f"under_{LIGHT_S}s": light / len(ops),
        },
    }
    return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "g2kr" / "cli.py").is_file():
        print(f"error: no g2kr sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    env = environment()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        with Runner(workdir) as runner:
            # Compile the package's bytecode once, outside every measurement.
            runner.checked_run("import g2kr.cli")
            env["yardstick_s"] = runner.yardstick()["wall"]
            tally = Tally(runner)
            if args.trace:
                metrics, record = trace(runner, tally, args.workload, args.seed)
            else:
                metrics, record = measure(
                    runner, tally, args.workload, args.seed, args.seconds
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        **record,
        "failures": tally.reasons,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
