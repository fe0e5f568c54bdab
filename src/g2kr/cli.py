"""Command-line surface: characters, tensor products, graded KR characters,
and the verification sweeps, with table / json / csv output.

Exit codes: 0 success, 1 verification failure (or an exactness check that
fails while computing, as one `error:` line), 2 usage or domain error, or a
failed write of the output or of help (a full disk); a closed pipe on
stdout ends the output quietly, with the command's own code.  Output is
written in chunks as its rows are decoded, never held whole; every check
runs before the first byte, so an error leaves no output.
JSON output is canonical (fixed key order, integers only) and round-trips
byte-identically through json.loads/json.dumps.  Nothing is read from the
environment but the width of argparse's help (`COLUMNS`).  One table,
`_COMMANDS`, holds the grammar: `_parse` reads a plain command line, and
argparse, built from it, any other, writing usage errors; its help is output.

`main()` is the in-process entry: it returns the exit code, with stdout
flushed or, after a failed write, pointing at os.devnull.  `run()` is the
process entry (`python -m g2kr.cli`, the `g2kr` script): it calls `main()`,
flushes stderr and ends the process with `os._exit`, skipping the
interpreter's teardown and any `atexit` handler, so `coverage run -m
g2kr.cli` records nothing.
"""

from __future__ import annotations

import os
import sys
from io import StringIO
from itertools import chain, islice, repeat
from operator import itemgetter, mul
from types import SimpleNamespace

from .weights import height

#: The values of `kr.Family`, spelled out: the command line is read before
#: any command runs, and a command that never uses `kr` does not load it.
FAMILIES = ("u1", "u2", "t1", "t2")


#: Rows (or table lines) per chunk of output, about 100 KB of text: each
#: chunk is one write, so the text is never held whole, and an unbuffered
#: stdout still makes few writes.
_CHUNK = 1024

# The % templates of json.dumps(payload, indent=2) for char, tensor and kr:
# a head is the text up to the "[" of the payload's one long list, an item
# what it writes for one item, but for its first line's indent; a %d for
# each int field, a %s for each fixed name (family, source, basis line).
_CHAR_HEAD = '{\n  "weight": [\n    %d,\n    %d\n  ],\n  "dim": %d,\n  "terms": ['
_TENSOR_HEAD = ('{\n  "factors": [\n    [\n      %d,\n      %d\n    ],\n'
                '    [\n      %d,\n      %d\n    ]\n  ],\n  "dim": %d,\n'
                '  "components": [')
_KR_HEAD = ('{\n  "family": "%s",\n  "m": %d,\n  "source": "%s",\n'
            '%s  "components": [')
_KR_BASIS = {"irrep": "", "weight": '  "basis": "weight",\n'}
_WEIGHT_MULT = ('"weight": [\n        %d,\n        %d\n      ],\n'
                '      "mult": %d')
_CHAR_TERM = "{\n      " + _WEIGHT_MULT + "\n    }"
_TENSOR_COMPONENT = "{\n      " + _WEIGHT_MULT + ',\n      "dim": %d\n    }'
_KR_COMPONENT = '{\n      "grade": %d,\n      ' + _WEIGHT_MULT + "\n    }"

_A, _B = itemgetter(0), itemgetter(1)  # the coordinates of a weight (a, b)


def _chunks(before: str, separator: str, items, after: str):
    """before + separator.join(items) + after, in chunks of `_CHUNK` items
    each, the first one led by before, and after on its own."""
    items = iter(items)
    yield before + separator.join(islice(items, _CHUNK))
    while run := list(islice(items, _CHUNK)):
        yield separator + separator.join(run)
    yield after


def _json(head: str, template: str, rows):
    """json.dumps(payload, indent=2) + "\n", byte for byte, in chunks.

    head is the payload's text up to the "[" of its one long list (a filled
    `_CHAR_HEAD`, ...); the list has one item per row (a tuple of ints) of
    the iterable rows, rendered by template (`_CHAR_TERM`, ...).
    """
    rows = iter(rows)
    first = next(rows, None)  # a peek for the empty list
    if first is None:
        yield head + "]\n}\n"
        return
    yield from _chunks(head + "\n    ", ",\n    ",
                       map(template.__mod__, chain([first], rows)),
                       "\n  ]\n}\n")


def _render(fmt: str, payload, header, rows, table):
    """Output text in format fmt, as an iterator of chunks of `_CHUNK`
    rows or lines each.

    Each runner returns (payload, header, rows, table, exit code); payload,
    rows and table are thunks, and only the one that fmt asks for is called,
    here, before the first chunk: an error they raise leaves no output.
    payload gives the json chunks; table gives the lines; csv's lines are
    the header and each row (a tuple) through one % template.
    """
    if fmt == "json":
        return payload()
    if fmt == "csv":
        # csv.writer (QUOTE_MINIMAL) would quote no field: each is an int, a
        # header or check name, a family or "", an m or "", or ok/fail, none
        # holds , " \r or \n, and no row has only one field
        template = ",".join(["%s"] * len(header))
        lines = chain([",".join(header)], map(template.__mod__, rows()))
    else:
        lines = table()
    return _chunks("", "\n", lines, "\n")


# --- char -------------------------------------------------------------------

def _run_char(args):
    from .characters import _dominant_multiplicities, _weight_rows, weyl_dim

    dim = weyl_dim((args.a, args.b))  # ValueError unless dominant
    # strict: every column runs to its end, which frees the packed keys
    terms = zip(*_weight_rows(_dominant_multiplicities(args.a, args.b)),
                strict=True)

    def payload():
        return _json(_CHAR_HEAD % (args.a, args.b, dim), _CHAR_TERM, terms)

    def table():
        # Weights packed highest-first into lines of 80 columns; the sort is
        # stable, so equal heights stay in (a, b) order.
        cells = sorted(terms, key=lambda t: -3 * t[0] - 5 * t[1])
        yield f"ch V({args.a},{args.b})   dim {dim}   weights {len(cells)}"
        line = ""
        for a, b, m in cells:
            cell = f"({a},{b}):{m}"
            if line and len(line) + len(cell) + 2 > 80:
                yield line
                line = ""
            line = f"{line}  {cell}" if line else f"  {cell}"
        if line:
            yield line

    return payload, ("weight_a", "weight_b", "mult"), lambda: terms, table, 0


# --- tensor -----------------------------------------------------------------

def _run_tensor(args):
    from .characters import tensor, weyl_dim

    lam, mu = (args.a1, args.b1), (args.a2, args.b2)
    parts = tensor(lam, mu)
    dim_lam, dim_mu = weyl_dim(lam), weyl_dim(mu)
    ordered = sorted(parts.items(), key=lambda kv: (-height(kv[0]), kv[0]))
    dims = [(w, m, weyl_dim(w)) for w, m in ordered]

    def payload():
        head = _TENSOR_HEAD % (*lam, *mu, dim_lam * dim_mu)
        return _json(head, _TENSOR_COMPONENT, rows())

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

def _kr_line(grade: int) -> str:
    """The % template of a table line of grade, for (weight text, mult,
    dim): f"{grade:<6} {weight}".ljust(18) + f"{mult:<5} {dim}"."""
    head = "%-6d " % grade
    return f"{head}%-{max(18 - len(head), 0)}s%-5d %d"


def _run_kr(args):
    from .kr import (Family, _check_m, _closed_form, _weight_basis,
                     conjecture_graded_character)

    family = Family(args.family)
    _check_m(args.m)
    source = "conjecture" if args.conjecture else "theorem"
    # weights: the distinct component weights; grades: (grade, weights,
    # mults) for each grade in order, decoded as they are written
    if args.conjecture:
        g = conjecture_graded_character(family, args.m)
        weights, grades = g._by_grade()
    else:
        weights, grades = _closed_form(family, args.m)
    weight_basis = args.basis == "weight"
    if weight_basis:
        grades = _weight_basis(weights, grades)

    def payload():
        head = _KR_HEAD % (family.value, args.m, source, _KR_BASIS[args.basis])
        return _json(head, _KR_COMPONENT, chain.from_iterable(
            zip(repeat(grade), map(_A, ws), map(_B, ws), mults)
            for grade, ws, mults in grades))

    def shares():
        # (grade, weights, mults, dims): a row's dim is its share of the
        # grade's dimension; every weyl_dim runs here, before the first byte
        if weight_basis:
            return ((grade, ws, mults, mults) for grade, ws, mults in grades)
        from .characters import weyl_dim  # csv and table only

        dim = {w: weyl_dim(w) for w in weights}.__getitem__
        return ((grade, ws, mults, list(map(mul, mults, map(dim, ws))))
                for grade, ws, mults in grades)

    def lines(data):
        yield (f"family {family.value}  m {args.m}  source {source}  "
               f"basis {args.basis}", "grade  weight     mult  dim")
        # a weight's text "(a,b)", made once for each of the components, or
        # for each row of the weight basis, which repeats fewer weights
        text = "(%d,%d)".__mod__
        if not weight_basis:
            text = dict(zip(weights, map(text, weights))).__getitem__
        totals = {}
        for grade, ws, mults, dims in data:
            totals[grade] = sum(dims)
            yield map(_kr_line(grade).__mod__, zip(map(text, ws), mults, dims))
        yield ("graded dimensions: "
               + "  ".join(f"{grade}:{d}" for grade, d in totals.items())
               + f"  total {sum(totals.values())}",)

    def rows():
        return chain.from_iterable(
            zip(repeat(grade), map(_A, ws), map(_B, ws), mults, dims)
            for grade, ws, mults, dims in shares())

    header = ("grade", "weight_a", "weight_b", "mult", "dim")
    return payload, header, rows, lambda: chain.from_iterable(
        lines(shares())), 0


# --- verify -----------------------------------------------------------------

def _entry(check, problems, key="failures", **where):
    """One verify check: its name, where it ran, ok, and any problems."""
    entry = {"check": check, **where, "ok": not problems}
    if problems:
        entry[key] = problems
    return entry


def _run_verify(args):
    if args.max_m < 0:
        raise ValueError(f"--max-m must be nonnegative, got {args.max_m}")

    checks, negatives = [], []
    if args.target != "chevalley":
        from . import kr  # loaded only for the targets that run it

        conjecture, classes = [], []
        for family in [kr.Family(args.family)] if args.family else kr.Family:
            # A ladder family has no classes: the library refuses one that
            # `verify classes` names; otherwise the ladders are skipped.
            if args.target in ("classes", "all") and (
                family.quad_indexed or args.family and args.target == "classes"
            ):
                from . import equivalence  # loaded only for the class checks

                classes += [
                    _entry("classes", equivalence.verify_partition(family, m),
                           family=family.value, m=m)
                    for m in range(args.max_m + 1)
                ]
            if args.target == "classes":
                continue
            # the closed form is one region count, swept over m
            for m, count in kr._region_counts(family, args.max_m):
                diffs = kr.conjecture_differences(family, m, count, negatives)
                differences = [
                    {"grade": g, "weight": [w.a, w.b], "theorem": ma,
                     "conjecture": mb} for g, w, ma, mb in diffs
                ]
                conjecture.append(_entry("conjecture", differences,
                                         "differences", family=family.value,
                                         m=m))
        checks = conjecture + classes
        negatives = [
            {"family": f.value, "m": m, "j": j, "k": k, "coefficient": c}
            for f, m, j, k, c in negatives
        ]
    if args.target in ("chevalley", "all"):
        from . import chevalley  # loaded only for the targets that run it

        checks += [
            _entry(f"chevalley-{name}", failures[:20])
            for name, failures in chevalley.verify_all().items()
        ]

    ok = all(entry["ok"] for entry in checks)

    def payload():
        import json  # free text: the one payload json.dumps renders

        return [json.dumps({"target": args.target, "max_m": args.max_m,
                            "family": args.family, "ok": ok,
                            "negative_coefficients": negatives,
                            "checks": checks}, indent=2) + "\n"]

    def rows():
        return [(entry["check"], entry.get("family", ""), entry.get("m", ""),
                 "ok" if entry["ok"] else "fail") for entry in checks]

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


# --- command line -----------------------------------------------------------

_OUTPUT = {"--format": {"choices": ("table", "json", "csv"), "default": "table",
                        "help": "output format (default: table)"},
           "--out": {"metavar": "FILE", "help": "write output to FILE"}}

#: The grammar: for each command its help and its arguments, each name with
#: the keywords of its add_argument, in the order of the help text.
_COMMANDS = {
    "char": ("character of an irreducible module", {
        "a": {"type": int, "help": "coefficient of omega1"},
        "b": {"type": int, "help": "coefficient of omega2"},
        **_OUTPUT}),
    "tensor": ("tensor product decomposition", {
        **{name: {"type": int} for name in ("a1", "b1", "a2", "b2")},
        **_OUTPUT}),
    "kr": ("graded Kirillov-Reshetikhin character", {
        "--family": {"choices": FAMILIES, "required": True},
        "--m": {"type": int, "required": True},
        "--basis": {"choices": ("irrep", "weight"), "default": "irrep",
                    "help": "list irreducible components or expanded weights"},
        "--conjecture": {"action": "store_true", "default": False,
                         "help": "render the generating-function form "
                                 "instead of the closed form"},
        **_OUTPUT}),
    "verify": ("run the verification sweeps", {
        "target": {"choices": ("conjecture", "classes", "chevalley", "all")},
        "--family": {"choices": FAMILIES},
        "--max-m": {"type": int, "default": 30},
        **_OUTPUT}),
}


def build_parser() -> "argparse.ArgumentParser":
    """The parser of `_COMMANDS`, the one writer of help and usage errors."""
    import argparse  # loaded only for a command line that `_parse` refuses

    parser = argparse.ArgumentParser(prog="g2kr", description=(
        "Exact G2 characters and graded Kirillov-Reshetikhin characters."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
    return parser


def _parse(argv):
    """What build_parser().parse_args(argv) returns for a plain command line:
    a command, its options spelled in full and at most once, its positionals,
    no value starting with "-", each passing its type and choices, none
    missing.  Else None (help, a usage error, an abbreviation, --opt=value,
    a repeat, a negative value, --): argparse reads those."""
    if not (isinstance(argv, (list, tuple)) and argv
            and all(isinstance(token, str) for token in argv)
            and argv[0] in _COMMANDS):
        return None
    arguments = _COMMANDS[argv[0]][1]
    positionals = iter([name for name in arguments if name[0] != "-"])
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            name, value = next(positionals, None), token  # None: too many
        elif token in given or token not in arguments:
            return None
        elif arguments[token].get("action") == "store_true":
            name, value = token, True
        else:
            name, value = token, next(tokens, "-")  # "-": no value follows
        if name is None or value is not True and value[:1] == "-":
            return None
        given[name] = value
    namespace = {"command": argv[0]}
    for name, keywords in arguments.items():
        if name in given:
            value = given[name]
            if "type" in keywords:  # argparse's order: type, then choices
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        elif name[0] != "-" or keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        namespace[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**namespace)


_RUNNERS = {"char": _run_char, "tensor": _run_tensor, "kr": _run_kr,
            "verify": _run_verify}


def main(argv=None) -> int:
    """Parse, run, render and write the command line argv (default:
    sys.argv[1:]); return its exit code.  On return, what it wrote to
    stdout, help included, is flushed, or stdout points at os.devnull."""
    argv = sys.argv[1:] if argv is None else list(argv)  # an iterator, once
    args = _parse(argv)
    try:
        if args is None:  # help, a usage error or another spelling
            from contextlib import redirect_stdout
            parser, shown = build_parser(), StringIO()
            for token in argv:
                if not isinstance(token, str):
                    parser.error(f"argument {token!r} is not a str")
            with redirect_stdout(shown):  # help: written below
                args = parser.parse_args(argv)
        *view, code = _RUNNERS[args.command](args)
        chunks = _render(args.format, *view)
    except SystemExit as exc:  # argparse's help, or its usage error on stderr
        code = exc.code if isinstance(exc.code, int) else 2
        chunks = [shown.getvalue()]
        if not chunks[0]:  # a usage error: stdout is left alone
            return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an exactness check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)  # args is None after help
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except OSError as exc:  # a full disk or a closed pipe
        if out is None:
            # what waits in stdout's buffer goes there at the next flush
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return code  # the reader stopped reading, as `head` does
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    """Run main() on sys.argv and end the process with its exit code,
    without the interpreter's teardown: main leaves stdout flushed and the
    `--out` file closed; stderr, where `g2kr.kr` logs, is flushed here."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
