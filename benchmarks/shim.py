"""Traced entry point: ``python shim.py SPAN_FILE OP_ID ARGV...``.

Wraps the library's functions so that every call records a span (name,
start, end, parent span, operation id), runs ``g2kr.cli.main(ARGV)`` and
writes the spans to SPAN_FILE when the command ends.  Standard output and
the exit code are the command's own, so the output checks apply unchanged.

Which calls become spans:

- every public function of ``characters``, ``kr`` and ``equivalence``, in
  every module namespace that holds it (its own module too, so calls inside
  a layer, such as ``tensor`` -> ``decompose``, are spans as well);
- every public function of ``weights``, but only where another module
  imported it: a ``weights`` span is a call into that layer, and the
  reflections inside ``weyl_orbit`` stay in its self time;
- ``chevalley.verify_all`` and ``cli.main``, the entry points of those
  layers; the ``cli.main`` self time is argument parsing plus rendering.

``Weight`` arithmetic operators and other methods are not spans; their
time counts in the calling function.  Generator functions
(``class_keys``) get a yield counter instead of a span.  The work counts
of ``COUNTS`` are computed after the counted call returns, inside a
``trace.count`` span, so that their cost leaves the caller's self time.

Every span costs some bookkeeping, part inside its own interval and part
outside it, in its caller's.  Before the command runs, the shim times calls
of an empty function, traced and plain, and writes both parts (ns per
call) to the header; ``spans.self_times`` subtracts them.  Spans are kept
in flat arrays and written as one JSON header line followed by the raw
arrays, in the order name id, parent index, start ns, end ns.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

import g2kr
import g2kr.characters
import g2kr.chevalley
import g2kr.cli
import g2kr.equivalence
import g2kr.kr
import g2kr.weights
from g2math import dominant_weights, support_size

LAYERS = ("weights", "characters", "kr", "equivalence", "chevalley", "cli")
ENTRY_ONLY = {"chevalley": ("verify_all",), "cli": ("main",)}

names: list[str] = []
span_name = array.array("H")
span_parent = array.array("i")
span_start = array.array("q")
span_end = array.array("q")
stack = [-1]
counters: Counter = Counter()


def _count_decompose(args, result):
    # Each peel walks every weight of one irreducible character; only its
    # dominant weights are needed to find the next highest weight.
    counters["characters.decompose.peels"] += len(result)
    counters["characters.decompose.weights_touched"] += sum(
        support_size(a, b) for a, b in result
    )
    counters["characters.decompose.dominant_touched"] += sum(
        len(dominant_weights(a, b)) for a, b in result
    )


def _count_multiply(args, result):
    counters["characters.multiply.term_pairs"] += len(args[0]) * len(args[1])


def _count_region(args, result):
    counters["kr.enumerate_region.points"] += len(result)


#: Work counts taken from a call's arguments and result, after its span ends.
COUNTS = {
    "characters.decompose": _count_decompose,
    "characters.multiply": _count_multiply,
    "kr.enumerate_region": _count_region,
}


def traced(name, fn):
    """``fn`` wrapped to record a span (or, for a generator, count yields)."""
    if inspect.isgeneratorfunction(fn):
        key = f"{name}.count"

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return generator

    name_id = _name_id(name)
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(span_name)
        span_name.append(name_id)
        span_parent.append(stack[-1])
        span_start.append(0)
        span_end.append(0)
        stack.append(index)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span_end[index] = perf_counter_ns()
            span_start[index] = start
            stack.pop()
        if count is not None:
            start = perf_counter_ns()
            count(args, result)
            _append(COUNTING, stack[-1], start, perf_counter_ns())
        return result

    return wrapper


def _name_id(name: str) -> int:
    names.append(name)
    return len(names) - 1


def _append(name_id, parent, start, end) -> None:
    span_name.append(name_id)
    span_parent.append(parent)
    span_start.append(start)
    span_end.append(end)


COUNTING = _name_id("trace.count")


def calibrate(calls: int = 1000, repeats: int = 7) -> dict:
    """Median ns one traced call adds inside its span and in its caller.

    An empty function is called ``calls`` times traced, then plainly.  The
    traced loop's time outside the spans, less the plain loop's, is the cost
    left in the caller; the spans' own length is the cost inside them.  The
    calibration spans are dropped again.
    """

    def empty():
        pass

    wrapped = traced("trace.calibrate", empty)
    caller, inside = [], []
    for _ in range(repeats):
        first = len(span_name)
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced_ns = perf_counter_ns() - start
        in_spans = sum(span_end[first:]) - sum(span_start[first:])
        start = perf_counter_ns()
        for _ in range(calls):
            empty()
        plain_ns = perf_counter_ns() - start
        caller.append((traced_ns - in_spans - plain_ns) / calls)
        inside.append(in_spans / calls)
        for column in (span_name, span_parent, span_start, span_end):
            del column[first:]
    return {"caller": statistics.median(caller), "own": statistics.median(inside)}


def install() -> None:
    """Replace every traced function, and every alias of it, by its wrapper."""
    modules = {layer: getattr(g2kr, layer) for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr in ENTRY_ONLY.get(layer) or list(vars(module)):
            fn = getattr(module, attr)
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ):
                wrappers[fn] = (traced(f"{layer}.{attr}", fn), layer)
    for namespace in (g2kr, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            try:
                wrapper, layer = wrappers[value]
            except (KeyError, TypeError):
                continue
            if not (layer == "weights" and namespace is modules["weights"]):
                setattr(namespace, attr, wrapper)


def write(path: str, op_id: int, overhead_ns: dict) -> None:
    info = g2kr.characters._irreducible_character.cache_info()
    header = {
        "op": op_id,
        "names": names,
        "spans": len(span_name),
        "overhead_ns": overhead_ns,
        "counters": dict(counters),
        "cache": {"hits": info.hits, "misses": info.misses},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for column in (span_name, span_parent, span_start, span_end):
            column.tofile(fh)


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    overhead_ns = calibrate()
    install()
    try:
        return g2kr.cli.main(argv)
    finally:
        write(path, op_id, overhead_ns)


if __name__ == "__main__":
    sys.exit(main())
