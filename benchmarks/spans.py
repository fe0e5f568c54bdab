"""Reading span files written by ``shim.py`` and deriving per-layer metrics."""

from __future__ import annotations

import array
import json
from collections import Counter


def read(path):
    """(header, names, parents, starts, ends) of one span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in ("H", "i", "q", "q"):
            column = array.array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    span_names, parents, starts, ends = columns
    return header, [header["names"][i] for i in span_names], parents, starts, ends


def self_times(parents, starts, ends, own_ns=0.0, caller_ns=0.0):
    """Each span's duration minus the durations of its direct children and
    the tracing cost: ``own_ns`` of its own and ``caller_ns`` per child.

    Spans of one process nest (one thread), so the children of a span cover
    disjoint parts of its interval and their durations simply add.
    """
    own = [end - start - own_ns for start, end in zip(starts, ends)]
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            own[parent] -= end - start + caller_ns
    return own


class Totals:
    """Span counts and self times summed over many span files."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.under = Counter()  # (parent name, child name) -> calls
        self.counters = Counter()
        self.cache = Counter()
        self.spans = 0
        self.overhead_ns = 0.0  # tracing cost taken out of the self times
        self.calibrations = []  # the per-call costs of every span file

    def add(self, header, names, parents, starts, ends):
        cost = header["overhead_ns"]
        self.calibrations.append(cost)
        own = self_times(parents, starts, ends, cost["own"], cost["caller"])
        children = sum(1 for parent in parents if parent >= 0)
        self.overhead_ns += len(names) * cost["own"] + children * cost["caller"]
        for name, parent, self_ns in zip(names, parents, own):
            self.calls[name] += 1
            self.self_ns[name] += self_ns
            if parent >= 0:
                self.under[names[parent], name] += 1
        self.counters.update(header["counters"])
        self.cache.update(header["cache"])
        self.spans += len(names)

    def layer_calls(self, layer):
        return sum(n for name, n in self.calls.items() if name.startswith(layer + "."))

    def layer_self_s(self, layer):
        return sum(
            ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")
        ) / 1e9

    def metrics(self):
        """Per-layer metric values, by metric name."""
        calls, counters = self.calls, self.counters
        self_s = {name: ns / 1e9 for name, ns in self.self_ns.items()}
        lookups = self.cache["hits"] + self.cache["misses"]
        touched = counters["characters.decompose.weights_touched"]
        values = {
            "weights.calls": self.layer_calls("weights"),
            "weights.self_s": self.layer_self_s("weights"),
            "characters.self_s": self.layer_self_s("characters"),
            "characters.irreducible_character.calls":
                calls["characters.irreducible_character"],
            "characters.freudenthal_runs": self.cache["misses"],
            "characters.cache_hit_ratio":
                self.cache["hits"] / lookups if lookups else 0.0,
            "characters.multiply.term_pairs":
                counters["characters.multiply.term_pairs"],
            "characters.decompose.peels": counters["characters.decompose.peels"],
            "characters.decompose.weights_touched": touched,
            "characters.decompose.dominant_ratio":
                counters["characters.decompose.dominant_touched"] / touched
                if touched else 0.0,
            "characters.weyl_dim.calls": calls["characters.weyl_dim"],
            "kr.self_s": self.layer_self_s("kr"),
            "kr.enumerate_region.points": counters["kr.enumerate_region.points"],
            "kr.conjecture_graded_character.cells":
                self.under["kr.conjecture_graded_character", "kr.conjecture_coefficient"],
            "kr.expand_weights.components":
                self.under["kr.expand_weights", "characters.irreducible_character"],
            "equivalence.self_s": self.layer_self_s("equivalence"),
            "equivalence.class_keys.count": counters["equivalence.class_keys.count"],
            "equivalence.class_members.calls": calls["equivalence.class_members"],
            "cli.render.self_s": self_s.get("cli.main", 0.0),
        }
        for name in SELF_TIMED:
            values[f"{name}.self_s"] = self_s.get(name, 0.0)
        return values


#: Functions whose own self time is a per-layer metric.
SELF_TIMED = (
    "characters.irreducible_character",
    "characters.multiply",
    "characters.decompose",
    "characters.weyl_dim",
    "kr.enumerate_region",
    "kr.kr_graded_character",
    "kr.conjecture_graded_character",
    "kr.compare",
    "kr.expand_weights",
    "kr.graded_dimensions",
    "equivalence.class_members",
    "equivalence.verify_partition",
    "equivalence.rebuild_graded_character",
    "chevalley.verify_all",
)
