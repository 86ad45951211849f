"""Command-line front end: rank, sweep and validate decision problems.

Problem files are CSV (header ``alt,<attr...>``, cells ``eta;xi;t;i;f``,
optional trailing ``weights,...`` row) or JSON (object with
``alternatives``, ``attributes``, ``weights`` and a row-major ``cells``
array of 5-field objects).  Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 degenerate computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .aggregate import OPERATORS, check_weights
from .core import Fnnn, check_cell
from .errors import (
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    FnnError,
    LambdaInvalid,
    LengthMismatch,
    ParseError,
    WeightInvalid,
)
from .pipeline import (
    METRICS,
    DecisionMatrix,
    PipelineConfig,
    RankingReport,
    SweepResult,
    _problems,
    lambda_sweep,
    run_pipeline,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3

DEFAULT_PRECISION = 4
MAX_PRECISION = 17  # float64 carries at most 17 significant digits
PRECISION_ENV = "FNN_MADM_PRECISION"

# most values an a..b range may expand to; it is sized before it is built
LAMBDA_GRID_CAP = 10_000


# ---------------------------------------------------------------------------
# problem-file loading


@dataclass
class RawProblem:
    """Parsed but not yet validated problem content."""

    alternatives: list[str]
    attributes: list[str]
    cells: list[list[tuple[float, float, float, float, float]]]
    weights: list[float] | None


def _numbers(values, where: str, row: int | None = None, col: int | None = None) -> list[float]:
    """The fields of a cell, or the weights, of either file format as
    floats.  Anything ``float`` rejects, an integer too large for a float
    included, is a ParseError that names ``where``."""
    try:
        return list(map(float, values))
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{where}: {e}", row=row, col=col) from None


def _parse_cell(text: str, row: int, col: int) -> tuple[float, ...]:
    parts = text.split(";")
    if len(parts) == 5:
        try:
            return tuple(map(float, parts))  # float strips whitespace itself
        except ValueError:
            pass  # name the fault as below, from the stripped fields
    parts = [p.strip() for p in parts]
    if len(parts) != 5:
        raise ParseError(f"cell {text!r} must have 5 ';'-separated fields eta;xi;t;i;f", row, col)
    return tuple(_numbers(parts, f"cell {text!r}", row, col))


def _read_csv_problem(path: str) -> RawProblem:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(field.strip() for field in r)]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = rows[0]
    if len(header) < 2:
        raise ParseError("header must be 'alt,<attr1>,...,<attrm>'", row=1)
    attributes = [h.strip() for h in header[1:]]
    weights = None
    data_rows = rows[1:]
    if data_rows and data_rows[-1][0].strip().lower() == "weights":
        wrow = data_rows.pop()
        if len(wrow) != len(attributes) + 1:
            raise ParseError(
                f"weights row has {len(wrow) - 1} entries, expected {len(attributes)}",
                row=len(rows),
            )
        weights = _numbers(wrow[1:], "weights row", len(rows))
    if not data_rows:
        raise ParseError("no alternative rows found")
    alternatives, cells = [], []
    for r, row in enumerate(data_rows, start=2):
        if len(row) != len(attributes) + 1:
            raise ParseError(
                f"row has {len(row) - 1} cells, expected {len(attributes)}", row=r
            )
        alternatives.append(row[0].strip())
        cells.append(
            [_parse_cell(cell, r, c) for c, cell in enumerate(row[1:], start=2)]
        )
    return RawProblem(alternatives, attributes, cells, weights)


def _read_json_problem(path: str) -> RawProblem:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers an integer of over 4300 digits as well
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    try:
        alternatives = doc["alternatives"]
        attributes = doc["attributes"]
        raw_cells = doc["cells"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"{path}: missing field {e}") from None
    weights = doc.get("weights")  # absent or null: no weights
    fields = (alternatives, attributes, raw_cells, [] if weights is None else weights)
    if not all(isinstance(v, list) for v in fields):
        raise ParseError(f"{path}: alternatives, attributes, cells and weights must be lists")
    alternatives = [str(a) for a in alternatives]
    attributes = [str(a) for a in attributes]
    n, m = len(alternatives), len(attributes)
    if len(raw_cells) != n * m:
        raise ParseError(f"expected {n * m} cells (row-major), got {len(raw_cells)}")
    cells = []
    for i in range(n):
        row = []
        for j in range(m):
            where = f"cell object {i * m + j}"
            d = raw_cells[i * m + j]
            try:
                fields = [d[k] for k in ("eta", "xi", "t", "i", "f")]
            except (KeyError, TypeError) as e:
                raise ParseError(f"{where}: {e}", row=i, col=j) from None
            row.append(tuple(_numbers(fields, where, i, j)))
        cells.append(row)
    if weights is not None:
        weights = _numbers(weights, f"{path}: weights must be numbers")
    return RawProblem(alternatives, attributes, cells, weights)


def _read_raw(path: str, fmt: str | None = None) -> RawProblem:
    fmt = fmt or ("json" if path.lower().endswith(".json") else "csv")
    try:
        return _read_json_problem(path) if fmt == "json" else _read_csv_problem(path)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: {e}") from None


def _cell_faults(raw: RawProblem) -> dict[tuple[int, int], ParseError]:
    """The error ``rank`` gives for each cell ``check_cell`` rejects, by (row, column)."""
    faults = {}
    for i, row in enumerate(raw.cells):
        for j, values in enumerate(row):
            try:
                check_cell(*values)
            except FnnError as e:
                where = f"({raw.alternatives[i]}, {raw.attributes[j]})"
                faults[i, j] = ParseError(f"invalid cell at {where}: {e}")
    return faults


def _build_matrix(
    raw: RawProblem,
    weights_override: list[float] | None = None,
    renormalize: bool = False,
) -> DecisionMatrix:
    for fault in _cell_faults(raw).values():
        raise fault
    weights = weights_override if weights_override is not None else raw.weights
    if weights is None:
        raise ParseError("no weights: embed a 'weights' row or pass --weights")
    if renormalize:  # weights this rejects, the matrix rejects too, after its other problems
        with suppress(LengthMismatch, WeightInvalid):
            weights = check_weights(weights, n=len(raw.attributes), renormalize=True)
    rows = tuple(tuple(zip(*row)) for row in raw.cells)
    return DecisionMatrix(tuple(raw.alternatives), tuple(raw.attributes), rows, weights)


def parse_problem(path: str, fmt: str | None = None) -> DecisionMatrix:
    """Load and fully validate a problem file (weights must be embedded)."""
    return _build_matrix(_read_raw(path, fmt))


# ---------------------------------------------------------------------------
# report serialization


def _precision() -> int:
    value = os.environ.get(PRECISION_ENV)
    if value is None:
        return DEFAULT_PRECISION
    if value.strip() not in [str(k) for k in range(MAX_PRECISION + 1)]:
        raise _UsageError(
            f"{PRECISION_ENV} must be an integer from 0 to {MAX_PRECISION}, got {value!r}"
        )
    return int(value)


def fnnn_to_dict(v: Fnnn) -> dict:
    return {"eta": v.eta, "xi": v.xi, "t": v.t, "i": v.i, "f": v.f}


def _fmt_fnnn(v: Fnnn, prec: int) -> str:
    return (
        f"({v.eta:.{prec}f}, {v.xi:.{prec}f}); "
        f"{v.t:.{prec}f}, {v.i:.{prec}f}, {v.f:.{prec}f}"
    )


def _ordering_str(report_labels) -> str:
    return " >= ".join(report_labels)


def report_to_dict(rep: RankingReport) -> dict:
    dm = rep.matrix
    return {
        "config": {
            "operator": rep.config.operator,
            "metric": rep.config.metric,
            "lambda": rep.config.lam,
        },
        "alternatives": list(dm.alternatives),
        "attributes": list(dm.attributes),
        "weights": list(dm.weights),
        "normalized": [
            [{"eta": eta, "xi": xi, "t": t, "i": i, "f": f} for eta, xi, t, i, f in zip(*row)]
            for row in dm.rows
        ],
        "aggregates": [fnnn_to_dict(a) for a in rep.aggregates],
        "positive_ideal": fnnn_to_dict(rep.positive_ideal),
        "negative_ideal": fnnn_to_dict(rep.negative_ideal),
        "d_plus": list(rep.d_plus),
        "d_minus": list(rep.d_minus),
        "closeness": list(rep.closeness),
        "ordering": list(rep.ordering),
        "ordering_labels": list(rep.ordered_labels()),
        "notes": list(rep.notes),
    }


_encode_str = json.encoder.encode_basestring_ascii


def _dump_json(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` renders
    it, byte for byte.

    The standard library encodes indented output in pure Python, one
    generator per container, which made rendering the slowest step of a
    large ``rank``.  Here a list whose items are all finite plain floats,
    plain ints or strings is joined in one call, and a list of dicts that
    share their str keys and hold only finite plain floats, as a report's
    cells do, fills one format template per dict.  Takes dicts with str
    keys, lists, tuples, str, int, float, bool and None, subclasses
    included; any other value, and any dict key that is not a str,
    raises TypeError.
    """
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    """One value at the depth whose line break and indent is ``nl``."""
    if not isinstance(o, (list, tuple, dict)) or not o:
        return json.dumps(o)  # a scalar or an empty container takes one line
    inner = nl + "  "
    if isinstance(o, dict):
        entries = (f"{_check_key(k)}: {_encode(v, inner)}" for k, v in sorted(o.items()))
        return f"{{{inner}{(',' + inner).join(entries)}{nl}}}"
    kinds = set(map(type, o))
    if kinds == {float} and all(map(math.isfinite, o)):
        items = map(float.__repr__, o)
    elif kinds == {int}:
        items = map(int.__repr__, o)
    elif kinds == {str}:
        items = map(_encode_str, o)
    elif kinds == {dict} and (same := _float_dicts(o, inner)):
        template, values = same
        items = map(template.__mod__, values)
    else:
        items = [_encode(v, inner) for v in o]
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _float_dicts(dicts, nl: str) -> tuple[str, list[tuple]] | None:
    """If the dicts share one set of at least two str keys and every value
    is a finite plain float: a ``%``-template of such a dict at the depth
    of ``nl``, one ``%r`` per value, and each dict's values in the order
    of its sorted keys.  Else None."""
    keys = sorted(dicts[0]) if set(map(type, dicts[0])) == {str} else ()
    if len(keys) < 2 or set(map(len, dicts)) != {len(keys)}:
        return None
    try:
        values = list(map(itemgetter(*keys), dicts))
    except KeyError:
        return None
    flat = list(chain.from_iterable(values))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    inner = nl + "  "
    entries = (f"{_encode_str(k).replace('%', '%%')}: %r" for k in keys)
    return f"{{{inner}{(',' + inner).join(entries)}{nl}}}", values


def _check_key(key) -> str:
    """A dict key, encoded; only str keys are taken."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _render_rank_table(rep: RankingReport, prec: int) -> str:
    dm = rep.matrix
    lines = [
        f"operator={rep.config.operator}  metric={rep.config.metric}  "
        f"lambda={rep.config.lam:g}",
        "",
        "Normalized decision matrix:",
    ]
    width = max(len(a) for a in dm.alternatives)
    for label, row in zip(dm.alternatives, dm.cells):
        cells = "  ".join(_fmt_fnnn(c, prec) for c in row)
        lines.append(f"  {label:<{width}}  {cells}")
    lines += ["", "Aggregates:"]
    for label, agg in zip(dm.alternatives, rep.aggregates):
        lines.append(f"  {label:<{width}}  {_fmt_fnnn(agg, prec)}")
    lines += [
        "",
        f"Positive ideal: {_fmt_fnnn(rep.positive_ideal, prec)}",
        f"Negative ideal: {_fmt_fnnn(rep.negative_ideal, prec)}",
        "",
        "Distances and closeness:",
        f"  {'alt':<{width}}  {'D+':>{prec + 4}}  {'D-':>{prec + 4}}  "
        f"{'D*':>{prec + 4}}  rank",
    ]
    position = {k: r + 1 for r, k in enumerate(rep.ordering)}
    for k, label in enumerate(dm.alternatives):
        lines.append(
            f"  {label:<{width}}  {rep.d_plus[k]:>{prec + 4}.{prec}f}  "
            f"{rep.d_minus[k]:>{prec + 4}.{prec}f}  "
            f"{rep.closeness[k]:>{prec + 4}.{prec}f}  {position[k]:>4}"
        )
    lines += ["", f"Ranking: {_ordering_str(rep.ordered_labels())}"]
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _csv_text(rows) -> str:
    """Rows of str fields as CSV, quoted as RFC 4180 asks (only a field
    that holds a comma, a quote or a line break), without the last line
    break."""
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(rows)
    return out.getvalue()[:-1]


def _render_rank_csv(rep: RankingReport) -> str:
    position = {k: r + 1 for r, k in enumerate(rep.ordering)}
    rows = [["alternative", "d_plus", "d_minus", "closeness", "rank"]]
    for k, label in enumerate(rep.matrix.alternatives):
        values = (rep.d_plus[k], rep.d_minus[k], rep.closeness[k])
        rows.append([label, *map(repr, values), str(position[k])])
    return _csv_text(rows)


def sweep_to_dict(result: SweepResult, dm: DecisionMatrix, config: PipelineConfig) -> dict:
    labels = dm.alternatives
    return {
        "config": {"operator": config.operator, "metric": config.metric},
        "alternatives": list(labels),
        "rows": [
            {
                "lambda": row.lam,
                "closeness": list(row.closeness),
                "ordering": list(row.ordering),
                "ordering_labels": [labels[k] for k in row.ordering],
            }
            for row in result.rows
        ],
        "transitions": [
            {
                "lambda": tr.lam,
                "previous": list(tr.previous),
                "ordering": list(tr.ordering),
            }
            for tr in result.transitions
        ],
    }


def _render_sweep_table(result: SweepResult, dm: DecisionMatrix, prec: int) -> str:
    labels = dm.alternatives
    head = "  ".join(f"{a:>{prec + 3}}" for a in labels)
    lines = [f"{'lambda':>7}  {head}  ordering"]
    transition_lams = {tr.lam for tr in result.transitions}
    for row in result.rows:
        vals = "  ".join(f"{v:>{prec + 3}.{prec}f}" for v in row.closeness)
        mark = "  <- transition" if row.lam in transition_lams else ""
        lines.append(
            f"{row.lam:>7g}  {vals}  "
            f"{_ordering_str([labels[k] for k in row.ordering])}{mark}"
        )
    if result.transitions:
        lines.append("")
        for tr in result.transitions:
            lines.append(
                f"transition at lambda={tr.lam:g}: "
                f"{_ordering_str([labels[k] for k in tr.previous])} -> "
                f"{_ordering_str([labels[k] for k in tr.ordering])}"
            )
    return "\n".join(lines)


def closeness_csv(result: SweepResult, labels, ordering: bool = False) -> str:
    """The ``lambda,D1,...,Dn`` closeness table, one row per lambda, at
    full precision; ``ordering`` appends each row's ordering by label."""
    head = ["lambda"] + [f"D{k + 1}" for k in range(len(labels))]
    rows = [head + ["ordering"] if ordering else head]
    for row in result.rows:
        fields = [repr(row.lam)] + [repr(v) for v in row.closeness]
        if ordering:
            fields.append(_ordering_str([labels[k] for k in row.ordering]))
        rows.append(fields)
    return _csv_text(rows)


# ---------------------------------------------------------------------------
# commands


def _load_matrix(args) -> DecisionMatrix:
    """Read the problem file; apply the --weights override if given.

    File/data problems raise FnnError subclasses (exit 2); --weights that
    the matrix rejects are a usage problem and raise _UsageError
    (exit 1), as --weights that do not parse are to argparse.
    """
    raw = _read_raw(args.path, args.input_format)
    try:
        return _build_matrix(raw, args.weights, renormalize=args.renormalize_weights)
    except (LengthMismatch, WeightInvalid) as e:
        if args.weights is None:
            raise
        raise _UsageError(f"--weights: {e}") from None


class _UsageError(Exception):
    pass


def cmd_rank(args) -> int:
    dm = _load_matrix(args)
    try:
        config = PipelineConfig(operator=args.operator, metric=args.metric, lam=args.lam)
    except LambdaInvalid as e:
        raise _UsageError(str(e)) from None
    rep = run_pipeline(dm, config)
    prec = _precision()
    if args.format == "json":
        print(_dump_json(report_to_dict(rep)))
    elif args.format == "csv":
        print(_render_rank_csv(rep))
    else:
        print(_render_rank_table(rep, prec))
    return EXIT_OK


def cmd_sweep(args) -> int:
    dm = _load_matrix(args)
    config = PipelineConfig(operator=args.operator, metric=args.metric)
    try:
        result = lambda_sweep(dm, config, args.lams)
    except (LambdaInvalid, EmptyInput) as e:
        raise _UsageError(str(e)) from None
    prec = _precision()
    if args.plot_out:
        with open(args.plot_out, "w", encoding="utf-8") as fh:
            fh.write(closeness_csv(result, dm.alternatives) + "\n")
    if args.format == "json":
        print(_dump_json(sweep_to_dict(result, dm, config)))
    elif args.format == "csv":
        print(closeness_csv(result, dm.alternatives, ordering=True))
    else:
        print(_render_sweep_table(result, dm, prec))
    return EXIT_OK


def cmd_validate(args) -> int:
    """Print every reason ``rank`` would reject the file for; ``rank`` reports the first."""
    raw = _read_raw(args.path, args.input_format)
    faults = _cell_faults(raw)
    rows = tuple(tuple(zip(*row)) for row in raw.cells)
    problems = [*faults.items(), *_problems(raw.alternatives, raw.attributes, rows, raw.weights,
                                            skip=faults)]
    for cell, e in problems:
        if cell is not None:
            print(f"invalid cell {str(e).removeprefix('invalid cell at ')}")
        else:
            print(f"invalid {'labels' if isinstance(e, DuplicateLabel) else 'weights'}: {e}")
    total = len(raw.alternatives) * len(raw.attributes)
    if problems:
        print(f"{total - sum(cell is not None for cell, _ in problems)} of {total} cells valid")
        return EXIT_DATA
    print(f"{total} cells valid")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _floats(text: str) -> list[float]:
    """``x,y,...`` as floats: the values of --weights and --lambdas."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _lambda_range(text: str) -> list[float]:
    """``a..b`` as the grid a, a + 1, ... up to b, sized before it is built;
    ``lambda_sweep`` checks its values."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must look like 'a..b', got {text!r}") from None
    span = hi - lo
    if not (math.isfinite(span) and span <= LAMBDA_GRID_CAP - 1):
        raise argparse.ArgumentTypeError(
            f"must be finite and hold at most {LAMBDA_GRID_CAP} values, got {text!r}"
        )
    lams, v = [], lo
    for _ in range(math.floor(span + 1e-9) + 1):
        lams.append(v)
        v += 1.0
    return lams


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fnn-madm",
        description=(
            "Rank alternatives described by Fermatean neutrosophic normal "
            "numbers with TOPSIS-style relative closeness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_lambda=True):
        p.add_argument("path", help="problem file (CSV or JSON)")
        p.add_argument(
            "--input-format",
            choices=("csv", "json"),
            help="problem file format (default: by extension)",
        )
        p.add_argument(
            "--operator",
            choices=sorted(OPERATORS),
            default="fnnwa",
            help="aggregation operator (default: fnnwa)",
        )
        p.add_argument(
            "--metric",
            choices=sorted(METRICS),
            default="hamming",
            help="ideal-distance measure (default: hamming)",
        )
        p.add_argument(
            "--weights",
            type=_floats,
            metavar="w1,...,wm",
            help="attribute weights; overrides a weights row in the file",
        )
        p.add_argument(
            "--renormalize-weights",
            action="store_true",
            help="rescale weights to sum 1 instead of rejecting them",
        )
        if with_lambda:
            p.add_argument(
                "--lambda",
                dest="lam",
                type=float,
                default=1.0,
                help="operation parameter, real >= 1 (default: 1)",
            )
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="report format (default: table)",
        )

    p_rank = sub.add_parser("rank", help="run the full ranking pipeline")
    add_common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_sweep = sub.add_parser("sweep", help="rank repeatedly over a lambda grid")
    add_common(p_sweep, with_lambda=False)
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument(
        "--lambda-range",
        dest="lams",
        type=_lambda_range,
        metavar="a..b",
        help="integer-stepped grid from a to b, 1 <= a <= b",
    )
    grid.add_argument(
        "--lambdas",
        dest="lams",
        type=_floats,
        metavar="x,y,...",
        help="explicit strictly increasing lambda values",
    )
    p_sweep.add_argument(
        "--plot-out",
        metavar="PATH",
        help="write closeness-vs-lambda CSV (header: lambda,D1,...,Dn)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="report every reason rank would reject the file for")
    p_val.add_argument("path", help="problem file (CSV or JSON)")
    p_val.add_argument("--input-format", choices=("csv", "json"))
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (_UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateCloseness as e:
        print(f"error: degenerate computation: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (FnnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
