"""Command-line surface: characters, tensor products, graded KR characters,
and the verification sweeps, with table / json / csv output.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
JSON output is canonical (fixed key order, integers only) and round-trips
byte-identically through json.loads/json.dumps.  The only environment
variable consulted is G2KR_WIDTH, a width hint for table output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .characters import irreducible_character, tensor, weyl_dim
from .kr import (
    Family,
    _region_counts,
    compare,
    conjecture_differences,
    conjecture_graded_character,
    expand_weights,
    kr_graded_character,
)
from .weights import height

FAMILIES = [f.value for f in Family]


def _width() -> int:
    try:
        return max(40, int(os.environ.get("G2KR_WIDTH", "80")))
    except ValueError:
        return 80


#: json.dumps writes this string as "\u0000"; no payload holds it.
_FIELD = "\x00"
_SLOT = json.dumps(_FIELD)


def _marked(value):
    """value with each int leaf replaced by _FIELD; TypeError for any other
    leaf."""
    if isinstance(value, dict):
        return {k: _marked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_marked(v) for v in value]
    if type(value) is not int:
        raise TypeError(f"template fields must be ints, got {value!r}")
    return _FIELD


def _template(sentinel: dict, fields: int) -> str:
    """The % template of one item of a long list, taken from json.dumps.

    The template renders a tuple of `fields` ints as json.dumps(indent=2)
    renders sentinel as an item of a list that is a value of the top-level
    object, except for the indent of the first line, which the list
    supplies.  sentinel's int leaves, in order, become the fields.  Raises
    TypeError for a leaf that is not an int and ValueError unless there
    are `fields` leaves.
    """
    text = json.dumps({"": [_marked(sentinel)]}, indent=2)
    item = text[text.index("[\n") + 2:text.rindex("\n  ]")].lstrip(" ")
    count = item.count(_SLOT)
    if count != fields:
        raise ValueError(
            f"template sentinel has {count} int fields, expected {fields}"
        )
    return item.replace("%", "%%").replace(_SLOT, "%d")


_CHAR_TERM = _template({"weight": [0, 0], "mult": 0}, 3)
_TENSOR_COMPONENT = _template({"weight": [0, 0], "mult": 0, "dim": 0}, 4)
_KR_COMPONENT = _template({"grade": 0, "weight": [0, 0], "mult": 0}, 4)


def _json(head: dict, key: str | None = None, template: str = "",
          rows=()) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte.

    payload is head, followed, if key is given, by key: a list with one
    item per row (a tuple of ints), rendered by template (`_template`).
    json.dumps renders the head, the list's brackets and the separators;
    each item is one % operation.
    """
    if key is None:
        return json.dumps(head, indent=2) + "\n"
    if not rows:
        return json.dumps({**head, key: []}, indent=2) + "\n"
    before, separator, after = json.dumps(
        {**head, key: [_FIELD, _FIELD]}, indent=2
    ).split(_SLOT)
    return before + separator.join(map(template.__mod__, rows)) + after + "\n"


def _render(fmt: str, payload, header, rows, table) -> str:
    """Output text in format fmt.

    Each runner returns (payload, header, rows, table, exit code); payload,
    rows and table are thunks, and only the one that fmt asks for is called.
    payload gives the arguments of `_json`.
    """
    if fmt == "json":
        return _json(*payload())
    if fmt == "csv":
        import csv  # loaded only for the format that writes it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
        return buf.getvalue()
    return "\n".join(table()) + "\n"


# --- char -------------------------------------------------------------------

def _run_char(args):
    char = irreducible_character((args.a, args.b))
    dim = weyl_dim((args.a, args.b))

    def payload():
        head = {"weight": [args.a, args.b], "dim": dim}
        return head, "terms", _CHAR_TERM, rows()

    def table():
        # Weights packed highest-first into lines under the width hint.
        ordered = sorted(char.items(), key=lambda kv: (-height(kv[0]), kv[0]))
        cells = [f"({w.a},{w.b}):{m}" for w, m in ordered]
        lines = [f"ch V({args.a},{args.b})   dim {dim}   weights {len(cells)}"]
        width = _width()
        line = ""
        for cell in cells:
            if line and len(line) + len(cell) + 2 > width:
                lines.append(line)
                line = ""
            line = f"{line}  {cell}" if line else f"  {cell}"
        if line:
            lines.append(line)
        return lines

    def rows():
        return [(a, b, m) for (a, b), m in sorted(char.items())]

    return payload, ("weight_a", "weight_b", "mult"), rows, table, 0


# --- tensor -----------------------------------------------------------------

def _run_tensor(args):
    lam, mu = (args.a1, args.b1), (args.a2, args.b2)
    parts = tensor(lam, mu)
    dim_lam, dim_mu = weyl_dim(lam), weyl_dim(mu)
    ordered = sorted(parts.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    dims = [(w, m, weyl_dim(w)) for w, m in ordered]

    def payload():
        head = {"factors": [list(lam), list(mu)], "dim": dim_lam * dim_mu}
        return head, "components", _TENSOR_COMPONENT, rows()

    def table():
        lines = [f"V({lam[0]},{lam[1]}) (x) V({mu[0]},{mu[1]})"]
        lines += [f"  V({w.a},{w.b})  x{m}  dim {d}" for w, m, d in dims]
        identity = " + ".join(
            f"{m}*{d}" if m > 1 else f"{d}" for _, m, d in dims
        )
        lines.append(f"dimension: {dim_lam} x {dim_mu} = {dim_lam * dim_mu}"
                     f" = {identity}")
        return lines

    def rows():
        return [(w.a, w.b, m, d) for w, m, d in dims]

    return payload, ("weight_a", "weight_b", "mult", "dim"), rows, table, 0


# --- kr ---------------------------------------------------------------------

def _run_kr(args):
    family = Family(args.family)
    if args.conjecture:
        source, g = "conjecture", conjecture_graded_character(family, args.m)
    else:
        source, g = "theorem", kr_graded_character(family, args.m)
    # (grade, a, b, mult), sorted by grade and weight (a, b).
    weight_basis = args.basis == "weight"
    if weight_basis:
        items = [
            (grade, a, b, m)
            for grade, char in expand_weights(g).items()
            for (a, b), m in sorted(char.items())
        ]
    else:
        items = [(grade, a, b, m) for grade, (a, b), m in g.items()]

    def payload():
        head = {"family": family.value, "m": args.m, "source": source}
        if weight_basis:
            head["basis"] = "weight"
        return head, "components", _KR_COMPONENT, items

    def rows():
        # A row's dim is its share of the grade's dimension.
        if weight_basis:
            return [(grade, a, b, m, m) for grade, a, b, m in items]
        dims = {w: weyl_dim(w) for w in {(a, b) for _, a, b, _ in items}}
        return [(grade, a, b, m, m * dims[a, b]) for grade, a, b, m in items]

    def table():
        lines = [
            f"family {family.value}  m {args.m}  source {source}  "
            f"basis {args.basis}",
            "grade  weight     mult  dim",
        ]
        totals: dict[int, int] = {}
        for grade, a, b, m, d in rows():
            lines.append(f"{grade:<6} ({a},{b})".ljust(18) + f"{m:<5} {d}")
            totals[grade] = totals.get(grade, 0) + d
        lines.append(
            "graded dimensions: "
            + "  ".join(f"{grade}:{d}" for grade, d in totals.items())
            + f"  total {sum(totals.values())}"
        )
        return lines

    header = ("grade", "weight_a", "weight_b", "mult", "dim")
    return payload, header, rows, table, 0


# --- verify -----------------------------------------------------------------

def _entry(check, problems, key="failures", **where):
    """One verify check: its name, where it ran, ok, and any problems."""
    entry = {"check": check, **where, "ok": not problems}
    if problems:
        entry[key] = problems
    return entry


def _verify_kr(conjecture_families, class_families, max_m):
    """Conjecture checks, then class checks, for each family and m <= max_m.

    The closed form of U1 and T2 is one region count per family, grown
    over m (`kr._region_counts`), and serves both checks.
    """
    conjecture, classes, negatives = [], [], []

    def conjecture_entry(family, m, diffs):
        differences = [
            {"grade": g, "weight": [w.a, w.b], "theorem": ma, "conjecture": mb}
            for g, w, ma, mb in diffs
        ]
        return _entry("conjecture", differences, "differences",
                      family=family.value, m=m)

    for family in Family:
        checks_conjecture = family in conjecture_families
        checks_classes = family in class_families
        if checks_classes:
            from . import equivalence  # loaded only for the class checks
        elif not checks_conjecture:
            continue
        elif not family.quad_indexed:
            for m in range(max_m + 1):
                diffs = compare(
                    kr_graded_character(family, m),
                    conjecture_graded_character(family, m, negatives),
                )
                conjecture.append(conjecture_entry(family, m, diffs))
            continue
        # raises ValueError for the classes of a ladder family: no region
        for m, count in _region_counts(family, max_m):
            if checks_conjecture:
                diffs = conjecture_differences(family, m, count, negatives)
                conjecture.append(conjecture_entry(family, m, diffs))
            if checks_classes:
                failures = equivalence.verify_partition(family, m, count)
                classes.append(_entry("classes", failures,
                                      family=family.value, m=m))
    negative_entries = [
        {"family": f.value, "m": m, "j": j, "k": k, "coefficient": c}
        for f, m, j, k, c in negatives
    ]
    return conjecture + classes, negative_entries


def _run_verify(args):
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
        from . import chevalley  # loaded only for the targets that run it

        checks += [
            _entry(f"chevalley-{name}", failures[:20])
            for name, failures in chevalley.verify_all().items()
        ]

    ok = all(entry["ok"] for entry in checks)

    def payload():
        return ({
            "target": args.target,
            "max_m": args.max_m,
            "family": family.value if family else None,
            "ok": ok,
            "negative_coefficients": negatives,
            "checks": checks,
        },)

    def rows():
        return [
            (
                entry["check"],
                entry.get("family", ""),
                entry.get("m", ""),
                "ok" if entry["ok"] else "fail",
            )
            for entry in checks
        ]

    def table():
        lines = []
        groups: dict[tuple, list] = {}
        for entry in checks:
            key = (entry["check"], entry.get("family"))
            groups.setdefault(key, []).append(entry)
        for (check, fam), entries in groups.items():
            bad = [e for e in entries if not e["ok"]]
            label = f"{check} {fam}" if fam else check
            if len(entries) > 1:
                label += f" (m <= {args.max_m})"
            if not bad:
                lines.append(f"{label}: ok")
                continue
            lines.append(f"{label}: FAIL at m = "
                         + ", ".join(str(e.get("m", "?")) for e in bad))
            for e in bad:
                # an entry has failures or differences, never both
                problems = e.get("failures") or e.get("differences")
                lines += [f"    {x}" for x in problems[:5]]
        lines.append("pre-clamp negative coefficients: "
                     + (str(negatives) if negatives else "none"))
        lines.append("result: " + ("ok" if ok else "FAIL"))
        return lines

    header = ("check", "family", "m", "status")
    return payload, header, rows, table, 0 if ok else 1


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
        *view, code = _RUNNERS[args.command](args)
        text = _render(args.format, *view)
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
