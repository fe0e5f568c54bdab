"""Correctness checks on the output of one ``g2kr`` command.

Every invariant is recomputed with the benchmark's own arithmetic
(``g2math``), never with the library under test.  ``check`` returns None
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import lru_cache

import g2math

CHEVALLEY_CHECKS = ("structure", "killing", "kr-relations", "adjoint-weights")
FAMILIES = ("u1", "u2", "t1", "t2")
CLASS_FAMILIES = ("u1", "t2")

kr_summands = lru_cache(maxsize=None)(g2math.kr_summands)
kr_dimension = lru_cache(maxsize=None)(g2math.kr_dimension)


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _canonical_json(text: str):
    payload = json.loads(text)
    if json.dumps(payload, indent=2) + "\n" != text:
        raise ValueError("JSON does not round-trip byte-identically")
    return payload


def _check_tensor(argv, text):
    a1, b1, a2, b2 = map(int, argv[1:5])
    payload = _canonical_json(text)
    total = g2math.weyl_dim(a1, b1) * g2math.weyl_dim(a2, b2)
    if payload["factors"] != [[a1, b1], [a2, b2]] or payload["dim"] != total:
        raise ValueError("wrong factors or total dimension")
    mass = 0
    for comp in payload["components"]:
        a, b = comp["weight"]
        if a < 0 or b < 0 or comp["mult"] <= 0:
            raise ValueError(f"bad component {comp}")
        if comp["dim"] != g2math.weyl_dim(a, b):
            raise ValueError(f"wrong dimension for {comp}")
        mass += comp["mult"] * comp["dim"]
    if mass != total:
        raise ValueError(f"sum mult*dim = {mass}, expected {total}")


def _check_char(argv, text):
    a, b = int(argv[1]), int(argv[2])
    payload = _canonical_json(text)
    dim = g2math.weyl_dim(a, b)
    if payload["weight"] != [a, b] or payload["dim"] != dim:
        raise ValueError("wrong weight or dimension")
    terms = {tuple(t["weight"]): t["mult"] for t in payload["terms"]}
    if len(terms) != len(payload["terms"]) or sum(terms.values()) != dim:
        raise ValueError(f"multiplicities do not sum to dim {dim}")
    for (x, y), mult in terms.items():
        for i in (1, 2):
            if terms.get(g2math.reflect(i, x, y)) != mult:
                raise ValueError(f"not invariant under s{i} at ({x},{y})")


_TABLE_ROW = re.compile(r"^(\d+)\s+\((-?\d+),(-?\d+)\)\s+(\d+)\s+(\d+)$")
_TABLE_TOTAL = re.compile(r"^graded dimensions: .*\btotal (\d+)$")


def _kr_rows(fmt, text, family, m, source, basis):
    """(grade, a, b, mult, dim) rows of a kr output; dim is None for json."""
    if fmt == "json":
        payload = _canonical_json(text)
        expected = {"family": family, "m": m, "source": source}
        if basis == "weight":
            expected["basis"] = "weight"
        if {k: payload.get(k) for k in expected} != expected or (
            basis != "weight" and "basis" in payload
        ):
            raise ValueError("wrong header fields")
        return [
            (c["grade"], *c["weight"], c["mult"], None)
            for c in payload["components"]
        ]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["grade", "weight_a", "weight_b", "mult", "dim"]:
            raise ValueError("wrong csv header")
        return [tuple(map(int, row)) for row in rows[1:]]
    lines = text.splitlines()
    if lines[0].split() != [
        "family", family, "m", str(m), "source", source, "basis", basis
    ]:
        raise ValueError("wrong table header")
    total = _TABLE_TOTAL.match(lines[-1])
    if total is None or int(total.group(1)) != kr_dimension(family, m):
        raise ValueError("wrong total graded dimension")
    rows = [_TABLE_ROW.match(line) for line in lines[2:-1]]
    if not all(rows):
        raise ValueError("malformed table row")
    return [tuple(map(int, row.groups())) for row in rows]


def _check_kr(argv, text):
    family, m = _option(argv, "--family"), int(_option(argv, "--m"))
    basis = _option(argv, "--basis", "irrep")
    source = "conjecture" if "--conjecture" in argv else "theorem"
    rows = _kr_rows(_option(argv, "--format", "table"), text, family, m, source, basis)
    if basis == "weight":
        # Every weight of the module, counted with multiplicity.
        expected = kr_dimension(family, m)
    else:
        # One summand per lattice point of the region, or m + 1 for ladders.
        expected = kr_summands(family, m)
    total = 0
    for grade, a, b, mult, dim in rows:
        if mult <= 0 or grade < 0:
            raise ValueError(f"bad row {(grade, a, b, mult, dim)}")
        if basis == "irrep" and (a < 0 or b < 0):
            raise ValueError(f"non-dominant highest weight ({a},{b})")
        want = mult if basis == "weight" else mult * g2math.weyl_dim(a, b)
        if dim is not None and dim != want:
            raise ValueError(f"wrong dim column in {(grade, a, b, mult, dim)}")
        total += mult
    if total != expected:
        raise ValueError(f"total multiplicity {total}, expected {expected}")


def _check_verify(argv, text):
    target, max_m = argv[1], int(_option(argv, "--max-m"))
    family = _option(argv, "--family")
    payload = _canonical_json(text)
    if (payload["target"], payload["max_m"], payload["family"]) != (
        target, max_m, family
    ):
        raise ValueError("wrong header fields")
    if payload["ok"] is not True or payload["negative_coefficients"]:
        raise ValueError("verification reported a failure or a negative coefficient")
    expected = []
    if target in ("conjecture", "all"):
        fams = [family] if family else FAMILIES
        expected += [("conjecture", f, m) for f in fams for m in range(max_m + 1)]
    if target in ("classes", "all"):
        fams = [f for f in CLASS_FAMILIES if family in (None, f)]
        expected += [("classes", f, m) for f in fams for m in range(max_m + 1)]
    if target == "all":
        expected += [(f"chevalley-{name}", None, None) for name in CHEVALLEY_CHECKS]
    got = [(c["check"], c.get("family"), c.get("m")) for c in payload["checks"]]
    if sorted(got, key=repr) != sorted(expected, key=repr):
        raise ValueError("checks are not exactly one per (family, m)")
    if not all(c["ok"] is True for c in payload["checks"]):
        raise ValueError("a check failed")


_CHECKERS = {
    "tensor": _check_tensor,
    "char": _check_char,
    "kr": _check_kr,
    "verify": _check_verify,
}


def check(argv, returncode: int, out: bytes) -> str | None:
    """None if the command's output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        _CHECKERS[argv[0]](argv, out.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
