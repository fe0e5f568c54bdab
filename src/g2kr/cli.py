"""Command-line surface: characters, tensor products, graded KR characters,
and the verification sweeps, with table / json / csv output.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
JSON output is canonical (fixed key order, integers only) and round-trips
byte-identically through json.loads/json.dumps.  The only environment
variable consulted is G2KR_WIDTH, a width hint for table output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import chevalley, equivalence
from .characters import irreducible_character, tensor, weyl_dim
from .kr import (
    Family,
    compare,
    conjecture_graded_character,
    expand_weights,
    graded_dimensions,
    kr_graded_character,
)
from .weights import Weight, height, is_dominant

FAMILIES = [f.value for f in Family]


def _width() -> int:
    try:
        return max(40, int(os.environ.get("G2KR_WIDTH", "80")))
    except ValueError:
        return 80


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _weight_key(w: Weight):
    return (w.a, w.b)


# --- char -------------------------------------------------------------------

def _run_char(args) -> tuple[str, int]:
    lam = Weight(args.a, args.b)
    if not is_dominant(lam):
        raise ValueError(f"weight ({lam.a},{lam.b}) is not dominant")
    char = irreducible_character(lam)
    dim = weyl_dim(lam)
    terms = sorted(char.items(), key=lambda kv: _weight_key(kv[0]))
    if args.format == "json":
        payload = {
            "weight": [lam.a, lam.b],
            "dim": dim,
            "terms": [
                {"weight": [w.a, w.b], "mult": m} for w, m in terms
            ],
        }
        return _render_json(payload), 0
    if args.format == "csv":
        rows = [(w.a, w.b, m) for w, m in terms]
        return _render_csv(("weight_a", "weight_b", "mult"), rows), 0
    # Table: weights packed highest-first into lines under the width hint.
    ordered = sorted(char.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    cells = [f"({w.a},{w.b}):{m}" for w, m in ordered]
    lines = [f"ch V({lam.a},{lam.b})   dim {dim}   weights {len(cells)}"]
    width = _width()
    line = ""
    for cell in cells:
        if line and len(line) + len(cell) + 2 > width:
            lines.append(line)
            line = ""
        line = f"{line}  {cell}" if line else f"  {cell}"
    if line:
        lines.append(line)
    return "\n".join(lines) + "\n", 0


# --- tensor -----------------------------------------------------------------

def _run_tensor(args) -> tuple[str, int]:
    lam = Weight(args.a1, args.b1)
    mu = Weight(args.a2, args.b2)
    for w in (lam, mu):
        if not is_dominant(w):
            raise ValueError(f"weight ({w.a},{w.b}) is not dominant")
    parts = tensor(lam, mu)
    ordered = sorted(parts.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    dims = [(w, m, weyl_dim(w)) for w, m in ordered]
    total = weyl_dim(lam) * weyl_dim(mu)
    if args.format == "json":
        payload = {
            "factors": [[lam.a, lam.b], [mu.a, mu.b]],
            "dim": total,
            "components": [
                {"weight": [w.a, w.b], "mult": m, "dim": d}
                for w, m, d in dims
            ],
        }
        return _render_json(payload), 0
    if args.format == "csv":
        rows = [(w.a, w.b, m, d) for w, m, d in dims]
        return _render_csv(("weight_a", "weight_b", "mult", "dim"), rows), 0
    lines = [f"V({lam.a},{lam.b}) (x) V({mu.a},{mu.b})"]
    for w, m, d in dims:
        lines.append(f"  V({w.a},{w.b})  x{m}  dim {d}")
    identity = " + ".join(
        f"{m}*{d}" if m > 1 else f"{d}" for _, m, d in dims
    )
    lines.append(
        f"dimension: {weyl_dim(lam)} x {weyl_dim(mu)} = {total} = {identity}"
    )
    return "\n".join(lines) + "\n", 0


# --- kr ---------------------------------------------------------------------

def _run_kr(args) -> tuple[str, int]:
    family = Family(args.family)
    if args.m < 0:
        raise ValueError(f"m must be nonnegative, got {args.m}")
    source = "conjecture" if args.conjecture else "theorem"
    if args.conjecture:
        g = conjecture_graded_character(family, args.m)
    else:
        g = kr_graded_character(family, args.m)

    if args.basis == "weight":
        per_grade = expand_weights(g)
        triples = [
            (grade, w, m)
            for grade in sorted(per_grade)
            for w, m in sorted(per_grade[grade].items(),
                               key=lambda kv: _weight_key(kv[0]))
        ]
        row_dim = {(grade, w): m for grade, w, m in triples}
    else:
        triples = sorted(g.items(), key=lambda t: (t[0], _weight_key(t[1])))
        row_dim = {
            (grade, w): m * weyl_dim(w) for grade, w, m in triples
        }

    if args.format == "json":
        payload = {
            "family": family.value,
            "m": args.m,
            "source": source,
        }
        if args.basis == "weight":
            payload["basis"] = "weight"
        payload["components"] = [
            {"grade": grade, "weight": [w.a, w.b], "mult": m}
            for grade, w, m in triples
        ]
        return _render_json(payload), 0
    if args.format == "csv":
        rows = [
            (grade, w.a, w.b, m, row_dim[(grade, w)])
            for grade, w, m in triples
        ]
        return _render_csv(
            ("grade", "weight_a", "weight_b", "mult", "dim"), rows
        ), 0
    lines = [
        f"family {family.value}  m {args.m}  source {source}  basis {args.basis}"
    ]
    lines.append("grade  weight     mult  dim")
    for grade, w, m in triples:
        lines.append(
            f"{grade:<6} ({w.a},{w.b})".ljust(18)
            + f"{m:<5} {row_dim[(grade, w)]}"
        )
    dims = graded_dimensions(g)
    lines.append(
        "graded dimensions: "
        + "  ".join(f"{grade}:{d}" for grade, d in dims)
        + f"  total {sum(d for _, d in dims)}"
    )
    return "\n".join(lines) + "\n", 0


# --- verify -----------------------------------------------------------------

def _verify_kr(conjecture_families, class_families, max_m):
    """Conjecture checks, then class checks, for each family and m <= max_m.

    Each closed-form graded character is computed once and serves both.
    """
    conjecture, classes, negatives = [], [], []
    for family in Family:
        if family not in conjecture_families and family not in class_families:
            continue
        for m in range(max_m + 1):
            theorem = kr_graded_character(family, m)
            if family in conjecture_families:
                conjecture.append(
                    _conjecture_entry(family, m, theorem, negatives)
                )
            if family in class_families:
                classes.append(_classes_entry(family, m, theorem))
    negative_entries = [
        {"family": f.value, "m": m, "j": j, "k": k, "coefficient": c}
        for f, m, j, k, c in negatives
    ]
    return conjecture + classes, negative_entries


def _conjecture_entry(family, m, theorem, negatives):
    diffs = compare(
        theorem, conjecture_graded_character(family, m, negatives)
    )
    entry = {"check": "conjecture", "family": family.value, "m": m,
             "ok": not diffs}
    if diffs:
        entry["differences"] = [
            {"grade": g, "weight": [w.a, w.b], "theorem": ma, "conjecture": mb}
            for g, w, ma, mb in diffs
        ]
    return entry


def _classes_entry(family, m, theorem):
    failures = equivalence.verify_partition(family, m)
    if equivalence.rebuild_graded_character(family, m) != theorem:
        failures = failures + ["rebuilt graded character differs"]
    entry = {"check": "classes", "family": family.value, "m": m,
             "ok": not failures}
    if failures:
        entry["failures"] = failures
    return entry


def _verify_chevalley():
    checks = []
    for name, failures in chevalley.verify_all().items():
        entry = {"check": f"chevalley-{name}", "ok": not failures}
        if failures:
            entry["failures"] = failures[:20]
        checks.append(entry)
    return checks


def _run_verify(args) -> tuple[str, int]:
    if args.max_m < 0:
        raise ValueError(f"--max-m must be nonnegative, got {args.max_m}")
    family = Family(args.family) if args.family else None

    conjecture_families, class_families = [], []
    if args.target in ("conjecture", "all"):
        conjecture_families = [family] if family else list(Family)
    if args.target in ("classes", "all"):
        # Ladder families have no classes: the library rejects an explicit
        # request; "all" skips them.
        if family is None:
            class_families = [f for f in Family if f.quad_indexed]
        elif family.quad_indexed or args.target == "classes":
            class_families = [family]
    checks, negatives = _verify_kr(
        conjecture_families, class_families, args.max_m
    )
    if args.target in ("chevalley", "all"):
        checks.extend(_verify_chevalley())

    ok = all(entry["ok"] for entry in checks)
    code = 0 if ok else 1

    if args.format == "json":
        payload = {
            "target": args.target,
            "max_m": args.max_m,
            "family": family.value if family else None,
            "ok": ok,
            "negative_coefficients": negatives,
            "checks": checks,
        }
        return _render_json(payload), code
    if args.format == "csv":
        rows = [
            (
                entry["check"],
                entry.get("family", ""),
                entry.get("m", ""),
                "ok" if entry["ok"] else "fail",
            )
            for entry in checks
        ]
        return _render_csv(("check", "family", "m", "status"), rows), code

    lines = []
    by_group: dict[tuple, list] = {}
    for entry in checks:
        key = (entry["check"], entry.get("family"))
        by_group.setdefault(key, []).append(entry)
    for (check, fam), entries in by_group.items():
        bad = [e for e in entries if not e["ok"]]
        label = f"{check} {fam}" if fam else check
        if len(entries) > 1:
            label += f" (m <= {args.max_m})"
        if bad:
            lines.append(f"{label}: FAIL at m = "
                         + ", ".join(str(e.get("m", "?")) for e in bad))
            for e in bad:
                for failure in e.get("failures", [])[:5]:
                    lines.append(f"    {failure}")
                for d in e.get("differences", [])[:5]:
                    lines.append(f"    {d}")
        else:
            lines.append(f"{label}: ok")
    if negatives:
        lines.append(f"pre-clamp negative coefficients: {negatives}")
    else:
        lines.append("pre-clamp negative coefficients: none")
    lines.append("result: " + ("ok" if ok else "FAIL"))
    return "\n".join(lines) + "\n", code


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2kr",
        description="Exact G2 characters and graded Kirillov-Reshetikhin "
        "characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p_char = sub.add_parser("char", help="character of an irreducible module")
    p_char.add_argument("a", type=int, help="coefficient of omega1")
    p_char.add_argument("b", type=int, help="coefficient of omega2")
    add_common(p_char)

    p_tensor = sub.add_parser("tensor", help="tensor product decomposition")
    for name in ("a1", "b1", "a2", "b2"):
        p_tensor.add_argument(name, type=int)
    add_common(p_tensor)

    p_kr = sub.add_parser("kr", help="graded Kirillov-Reshetikhin character")
    p_kr.add_argument("--family", choices=FAMILIES, required=True)
    p_kr.add_argument("--m", type=int, required=True)
    p_kr.add_argument(
        "--basis",
        choices=("irrep", "weight"),
        default="irrep",
        help="list irreducible components or expanded weights",
    )
    p_kr.add_argument(
        "--conjecture",
        action="store_true",
        help="render the generating-function form instead of the closed form",
    )
    add_common(p_kr)

    p_verify = sub.add_parser("verify", help="run the verification sweeps")
    p_verify.add_argument(
        "target", choices=("conjecture", "classes", "chevalley", "all")
    )
    p_verify.add_argument("--family", choices=FAMILIES)
    p_verify.add_argument("--max-m", type=int, default=30)
    add_common(p_verify)

    return parser


_RUNNERS = {
    "char": _run_char,
    "tensor": _run_tensor,
    "kr": _run_kr,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code = _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
