"""Command-line front end: build, measure, predict, bound, compare.

All stdout output is deterministic (timings go to stderr).  Exit codes:
0 success, 2 bad input, 3 budget exceeded, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _quote

from . import bounds
from .codes import (
    DEFAULT_BUDGET,
    LinearCode,
    code_from_descriptor,
    ghw,
    min_distance,
    weight_distribution,
)
from .errors import BudgetExceeded, InputError, InternalError
from .families import (
    applicable_bounds,
    build_point_set,
    check_arguments,
    lower_bound_value,
    predict,
    require_fields,
)
from .gf import GF, field
from .varieties import VarietyDescriptor

BOUND_COMMANDS = {
    "elementary": bounds.elementary_bound,
    "covering-family": bounds.covering_family_bound,
    "cayley-bacharach": bounds.cayley_bacharach_bound,
    "weil-hypersurface": bounds.weil_hypersurface_interval,
    "lachaud-sections": bounds.lachaud_section_bounds,
    "griesmer": bounds.griesmer,
    "singleton": bounds.singleton,
    "sorensen": bounds.sorensen_bound,
    "hermitian-ch": bounds.hermitian_ch_bound,
    "ruled-surface": bounds.ruled_surface_bound,
    "dl-a24": bounds.dl_a24_params,
    "counts": None,  # special-cased: family plus keyword params
}


def _load_json_arg(arg: str):
    """Inline JSON, or @path to read it from a file.

    Every ValueError is bad input: a JSONDecodeError, the bare ValueError of an
    integer past Python's int-string digit limit, or a file that is not UTF-8.
    So is the RecursionError of arrays or objects nested past the parser's depth."""
    try:
        if arg.startswith("@"):
            with open(arg[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(arg)
    except (ValueError, RecursionError) as exc:
        raise InputError(str(exc)) from exc


def _write_text(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj, pad: str = "\n", text: Sequence[str] = ()) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    With indent= the json module falls back to its pure-Python encoder; here
    only the containers are walked in Python, and a list of plain ints (a
    generator row) or of plain strings (labels) is one join.  An int i below
    len(text) is written as text[i], a field's element text (GF.array_ops),
    other ints by str.  pad is the newline and indent before a closing
    bracket.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and set(map(type, obj)) <= {str}:
        left, right = "{}"
        items = (f"{_quote(key)}: {_dumps(obj[key], inner, text)}" for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        left, right = "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            values = set(obj)  # a row of field elements has few distinct values
            in_text = 0 <= min(values) and max(values) < len(text)
            items = map(text.__getitem__ if in_text else str, obj)
        elif kinds == {str}:
            items = map(_quote, obj)
        else:
            items = (_dumps(x, inner, text) for x in obj)
    elif isinstance(obj, dict):  # keys that json itself converts to strings
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    else:
        return json.dumps(obj)
    if not obj:
        return left + right
    return left + inner + ("," + inner).join(items) + pad + right


def _emit(payload, out_path: str | None, fld: GF | None = None):
    """Write payload as indented JSON; fld's element text writes its int lists.

    An int past Python's int-string digit limit is refused before anything
    is written."""
    text = fld.array_ops().text.tolist() if fld is not None else ()
    try:
        out = _dumps(payload, text=text)
    except ValueError as exc:  # the only one _dumps raises: str of an int past the limit
        raise InputError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an int"
        ) from exc
    _write_text(out + "\n", out_path)


def cmd_field(args) -> int:
    fld = field(args.p, args.e)
    payload = fld.to_dict()
    payload["generator"] = fld.generator
    if args.tables:
        payload["exp"] = list(fld.exp)
    _emit(payload, args.out, fld)
    return 0


def cmd_points(args) -> int:
    desc = VarietyDescriptor.from_dict(_load_json_arg(args.descriptor))
    points = build_point_set(desc, GF.from_order(args.q))
    payload = points.to_dict()
    payload["descriptor"] = desc.to_dict()
    _emit(payload, args.out, points.field)
    return 0


def cmd_build(args) -> int:
    desc = VarietyDescriptor.from_dict(_load_json_arg(args.descriptor))
    code = code_from_descriptor(desc, args.h, GF.from_order(args.q))
    if args.out:
        _emit(code.to_dict(), args.out, code.field)
    _emit({"n": code.n, "k": code.k, "kernel_dim": code.kernel_dim}, None)
    return 0


def _load_code(path: str) -> LinearCode:
    return LinearCode.from_dict(_load_json_arg("@" + path))


def cmd_analyze(args) -> int:
    code = _load_code(args.artifact)
    report = {"n": code.n, "k": code.k, "q": code.field.q}
    for task in args.tasks.split(","):
        task = task.strip()
        t0 = time.perf_counter()
        if task == "d":
            report["d"] = min_distance(code, args.budget)
        elif task == "wdist":
            report["weight_distribution"] = weight_distribution(code, args.budget).to_dict()
        elif task.startswith("ghw:"):
            r = task.split(":", 1)[1]
            if not r.isdecimal():
                raise InputError(f"ghw task needs a rank ghw:R, got {task!r}")
            r = int(r)
            report.setdefault("ghw", {})[str(r)] = ghw(code, r, args.budget)
        else:
            raise InputError(f"unknown analysis task {task!r}")
        print(f"{task}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    _emit(report, args.out)
    return 0


def cmd_bound(args) -> int:
    params = _load_json_arg(args.params)
    if not isinstance(params, dict):
        raise InputError("bound parameters must be a JSON object")
    if args.name == "counts":
        family = params.get("family")
        formula = bounds.COUNT_FORMULAS.get(family) if isinstance(family, str) else None
        if formula is None:
            raise InputError(f"unknown count family {family!r}")
        check_arguments(formula, {k: v for k, v in params.items() if k != "family"})
        report = bounds.counts(**params)
    else:
        fn = BOUND_COMMANDS[args.name]
        check_arguments(fn, params)
        # Looked up now, so that a rebinding of the bounds module applies.
        report = getattr(bounds, fn.__name__)(**params)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_predict(args) -> int:
    desc = VarietyDescriptor.from_dict(_load_json_arg(args.descriptor))
    _emit(predict(desc, args.h, args.q).to_dict(), args.out)
    return 0


def _compare_row(entry: dict, budget: int) -> dict:
    desc = VarietyDescriptor.from_dict(entry["descriptor"])
    h = entry.get("h", 1)
    q = entry["q"]
    row = {"family": desc.label(), "q": q, "h": h}
    code = code_from_descriptor(desc, h, GF.from_order(q))
    row["n"], row["k"] = code.n, code.k
    row["d"] = min_distance(code, budget)
    try:
        pred = predict(desc, h, q)
        row["d_predicted"] = pred.d
        row["d_status"] = pred.d_status
        if pred.d_options:
            row["d_options"] = list(pred.d_options)
    except InputError as exc:
        row["d_predicted"] = None
        row["d_status"] = f"no prediction ({exc})"
    row["griesmer_max_d"] = bounds.griesmer(code.n, code.k, q).value
    row["singleton"] = code.n - code.k + 1
    row["attains_griesmer"] = row["d"] == row["griesmer_max_d"]
    lows = applicable_bounds(desc, h, q, code.n)
    row["lower_bounds"] = {rep.name: lower_bound_value(rep) for rep in lows}
    return row


_ENTRY_KINDS = {"descriptor": "dict", "h": "int", "q": "int"}

_COMPARE_COLUMNS = [
    "family", "q", "h", "n", "k", "d", "d_predicted", "d_status",
    "griesmer_max_d", "singleton", "attains_griesmer", "lower_bounds",
]


def _cell(row: dict, column: str) -> str:
    value = row.get(column, "")
    if column == "lower_bounds" and isinstance(value, dict):
        return ";".join(f"{name}>={v}" for name, v in sorted(value.items()))
    return str(value)


def cmd_compare(args) -> int:
    entries = _load_json_arg(args.specs)
    if not isinstance(entries, list):
        raise InputError("compare expects a JSON list of {descriptor, h, q} entries")
    for entry in entries:
        require_fields("compare entry", entry, _ENTRY_KINDS, {"h"})
    rows = []
    for entry in entries:
        try:
            rows.append(_compare_row(entry, args.budget))
        except (InputError, BudgetExceeded) as exc:
            rows.append({"family": str(entry.get("descriptor")), "error": str(exc)})
    if args.format == "json":
        _emit(rows, args.out)
    elif args.format == "csv":
        lines = [",".join(_COMPARE_COLUMNS)]
        for row in rows:
            lines.append(",".join(_cell(row, c) for c in _COMPARE_COLUMNS))
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        good = [r for r in rows if "error" not in r]  # error rows are one free-form line
        widths = {c: max([len(c), *(len(_cell(r, c)) for r in good)]) for c in _COMPARE_COLUMNS}
        lines = ["  ".join(c.ljust(widths[c]) for c in _COMPARE_COLUMNS)]
        for row in rows:
            if "error" in row:
                lines.append(f"{row['family']}: ERROR {row['error']}")
            else:
                lines.append(
                    "  ".join(_cell(row, c).ljust(widths[c]) for c in _COMPARE_COLUMNS)
                )
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_export(args) -> int:
    code = _load_code(args.artifact)
    if args.format == "csv":
        _write_text(code.to_csv(), args.out)
    else:
        _emit(code.to_dict(), args.out, code.field)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Command c runs cmd_c, looked up by name in main, so a rebinding of a
    command function (a test's monkeypatch) still applies.
    """
    parser = argparse.ArgumentParser(
        prog="varcodes",
        description="evaluation codes from varieties: build, measure, predict, bound, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print a field description")
    p.add_argument("p", type=int)
    p.add_argument("e", type=int, nargs="?", default=1)
    p.add_argument("--tables", action="store_true", help="include the exp table")
    p.add_argument("--out")

    p = sub.add_parser("points", help="enumerate the evaluation point set")
    p.add_argument("descriptor", help="descriptor JSON (inline or @file)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("build", help="build a code artifact")
    p.add_argument("descriptor", help="descriptor JSON (inline or @file)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--out", help="artifact path (JSON)")

    p = sub.add_parser("analyze", help="measure d / weights / GHW of an artifact")
    p.add_argument("artifact")
    p.add_argument("--tasks", default="d", help="comma list: d, wdist, ghw:R")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1, help="ignored; goes once the bench drops it")
    p.add_argument("--out")

    p = sub.add_parser("bound", help="run a bound calculator")
    p.add_argument("name", choices=sorted(BOUND_COMMANDS))
    p.add_argument("params", help="parameter JSON object (inline or @file)")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="closed-form expected parameters")
    p.add_argument("descriptor", help="descriptor JSON (inline or @file)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("compare", help="measured vs predicted vs bounds table")
    p.add_argument("specs", help="JSON list of {descriptor, h, q} (inline or @file)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--out")

    p = sub.add_parser("export", help="export an artifact (csv generator or json)")
    p.add_argument("artifact")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("budget", "workers"):
            if getattr(args, flag, 1) < 1:
                raise InputError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
        return globals()["cmd_" + args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
