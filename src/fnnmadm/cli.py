"""Command-line front end: rank, sweep and validate decision problems.

Problem files are CSV (header ``alt,<attr...>``, cells ``eta;xi;t;i;f``,
optional trailing ``weights,...`` row) or JSON (object with
``alternatives``, ``attributes``, ``weights`` and a row-major ``cells``
array of 5-field objects).  Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 degenerate computation, 141 (128 + SIGPIPE)
when the reader of stdout closed it early, with nothing printed.

:func:`main` may be called repeatedly in one process: it builds its
parser on the first call, not at import, and reuses it.  An argument
that starts with ``-`` and then a digit or ``.`` is a value, never an
option: after an option that takes a value, abbreviated or not, it is
that option's value (``--weig -0.5,1.5``); elsewhere it is a positional
(``validate -1.csv``).  ``rank`` and ``sweep`` rank the normalized copy
of the matrix they read (no logs kept); only a table reads the precision.
A file is checked once, and its matrix holds the reader's rows of plain
floats as they are, not read again by the constructor (see
:func:`_build_matrix`).  A CSV data row is read in one split and one
``float`` pass over its fields, as the next row arrives.  A line with no
quote, CR or NUL is split on commas without csv.reader, which reads the
file from the first other line on: only those characters and the line
ends are special to csv, so every row is the one csv.reader gives.  ``rank --format json``
renders each cell straight from the matrix's float rows and the
aggregates' columns, without the per-cell dicts of
:func:`report_to_dict`, to the same bytes; ``sweep --format json``
renders each row alike straight from the sweep's rows, without the
per-row dicts of :func:`sweep_to_dict`, one piece per row.  Every format
of ``rank`` and ``sweep``, and the ``--plot-out`` file, is written as it is
rendered, a piece at a time: a table a line at a time, CSV a row at a time
through one csv.writer on its stream, so no copy of the whole text is built.
A label stdout cannot encode stops the output where it is met (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

from .aggregate import OPERATORS, check_weights
from .core import Fnnn
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
    SweepRow,
    _labels,
    _made,
    _problems,
    lambda_sweep,
    normalize,
    run_pipeline,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool a closed pipe stopped

DEFAULT_PRECISION = 4
MAX_PRECISION = 17  # float64 carries at most 17 significant digits
PRECISION_ENV = "FNN_MADM_PRECISION"

# most values an a..b range may expand to; it is sized before it is built
LAMBDA_GRID_CAP = 10_000


# ---------------------------------------------------------------------------
# problem-file loading


class RawProblem(NamedTuple):
    """Parsed but not yet validated problem content, as :class:`DecisionMatrix`
    takes it, and :func:`_problems` its first three; weights None if the file has none."""

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], ...], ...]
    weights: list[float] | None


def _as_floats(values) -> list[float]:
    """The fields of a cell, or the weights, of either file format as
    floats.  Anything ``float`` rejects raises TypeError, ValueError or, for
    an integer too large for a float, OverflowError; so does a JSON ``true``
    or ``false``, which ``float`` reads as 1 or 0, as a ValueError."""
    if bool in map(type, values):
        raise ValueError("true and false are no numbers")
    return list(map(float, values))


def _numbers(values, where: str, row: int | None = None, col: int | None = None) -> list[float]:
    """:func:`_as_floats` of ``values``, a fault a ParseError that names ``where``."""
    try:
        return _as_floats(values)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{where}: {e}", row=row, col=col) from None


def _parse_cell(text: str, row: int, col: int) -> tuple[float, ...]:
    parts = text.split(";")
    if len(parts) != 5:
        raise ParseError(f"cell {text!r} must have 5 ';'-separated fields eta;xi;t;i;f", row, col)
    try:
        return tuple(map(float, parts))  # float strips whitespace itself
    except ValueError:  # name the fault from the stripped fields
        return tuple(_numbers([p.strip() for p in parts], f"cell {text!r}", row, col))


def _parse_row(row: list[str], r: int, m: int) -> tuple[tuple[float, ...], ...]:
    """The eta, xi, t, i and f of every cell of data row ``r``, which must hold m cells."""
    if len(row) != m + 1:
        raise ParseError(f"row has {len(row) - 1} cells, expected {m}", row=r)
    cells = row[1:]
    try:  # the row's fields in one split and one float pass, cell after cell
        if [*map(str.count, cells, repeat(";"))] != [4] * m:
            raise ValueError("a cell without five fields")
        values = tuple(map(float, ";".join(cells).split(";")))
    except ValueError:  # the per-cell reader names the first cell at fault
        values = tuple(chain.from_iterable(
            _parse_cell(cell, r, c) for c, cell in enumerate(cells, start=2)))
    return values[0::5], values[1::5], values[2::5], values[3::5], values[4::5]


def _csv_rows(fh):
    """Yield the rows ``csv.reader(fh)`` yields, for a file opened with
    ``newline=""``, one line at a time.  Only ``,``, ``"`` and the line
    ends are special to csv's default dialect, so a line with no ``"``,
    no CR and no NUL (which csv rejects before 3.11) that is no longer
    than csv's field limit is split on ``,`` here, its ``\\n`` dropped.
    csv.reader, which scans character by character, reads from the
    first other line to the end: the plain lines before it each ended a
    record, so it starts at one."""
    limit = csv.field_size_limit()
    for line in fh:
        if '"' in line or "\r" in line or "\0" in line or len(line) > limit:
            yield from csv.reader(chain([line], fh))
            return
        line = line.removesuffix("\n")
        yield line.split(",") if line else []


def _read_csv_problem(path: str) -> RawProblem:
    """The problem in a CSV file, read in one pass.  Each data row is parsed
    as the next one arrives, so only the last, which may be the weights row,
    is held back.  Its lines are read by :func:`_csv_rows`: csv.reader reads
    them only from the first that holds a quote, a CR or a NUL, or is too
    long, and every row is the one csv.reader gives.  The first fault in
    file order is raised where it is met, the weights row's and a lack of
    data rows at the end; an undecodable byte when its block is decoded.
    Rows are numbered from the header, blank rows not counted."""
    alternatives, rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = (r for r in _csv_rows(fh) if r and any(field.strip() for field in r))
        header = next(lines, [])
        if not header:
            raise ParseError(f"{path}: file is empty")
        m, n, last = len(header) - 1, 1, None
        if m < 1:
            raise ParseError("header must be 'alt,<attr1>,...,<attrm>'", row=1)
        for n, line in enumerate(lines, start=2):
            if last is not None:
                rows.append(_parse_row(last, n - 1, m))
                alternatives.append(last[0].strip())
            last = line
    weights = None
    if last is not None and last[0].strip().lower() == "weights":
        if len(last) != m + 1:
            raise ParseError(f"weights row has {len(last) - 1} entries, expected {m}", row=n)
        weights = _numbers(last[1:], "weights row", n)
    elif last is not None:
        rows.append(_parse_row(last, n, m))
        alternatives.append(last[0].strip())
    if not rows:
        raise ParseError("no alternative rows found")
    attributes = tuple(h.strip() for h in header[1:])
    return RawProblem(tuple(alternatives), attributes, tuple(rows), weights)


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
    alternatives = _labels(alternatives, "alternatives")
    attributes = _labels(attributes, "attributes")
    for kind, labels in (("alternative", alternatives), ("attribute", attributes)):
        for label in labels:  # a lone surrogate, from a \ud800 escape, is no UTF-8 text
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path}: {kind} label {label!r} holds a lone surrogate") from None
    n, m = len(alternatives), len(attributes)
    if len(raw_cells) != n * m:
        raise ParseError(f"expected {n * m} cells (row-major), got {len(raw_cells)}")
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            d = raw_cells[i * m + j]
            try:
                row.append(_as_floats([d[k] for k in ("eta", "xi", "t", "i", "f")]))
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                # named, only now, by its index and labels: a JSON file has no rows or
                # columns to number
                where = f"cell object {i * m + j} ({alternatives[i]!r}, {attributes[j]!r})"
                raise ParseError(f"{where}: {e}") from None
        rows.append(tuple(zip(*row)))
    if weights is not None:
        weights = _numbers(weights, f"{path}: weights must be numbers")
    return RawProblem(alternatives, attributes, tuple(rows), weights)


def _read_raw(path: str, fmt: str | None = None) -> RawProblem:
    fmt = fmt or ("json" if path.lower().endswith(".json") else "csv")
    try:
        return _read_json_problem(path) if fmt == "json" else _read_csv_problem(path)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: {e}") from None


def _build_matrix(
    raw: RawProblem,
    weights_override: list[float] | None = None,
    renormalize: bool = False,
) -> DecisionMatrix:
    """The matrix of ``raw``, with ``weights_override`` as its weights if given.

    The problem is checked once: the first of :func:`_problems` over its labels and rows,
    then its weights, so a fault of the weights comes after the matrix's other problems;
    one of ``weights_override`` is a usage problem, _UsageError (exit 1), as --weights that
    do not parse are.  The matrix then holds the reader's rows as they are, plain floats in
    tuples, which the constructor would read and check again; it equals
    ``DecisionMatrix(*raw)``."""
    for _, problem in _problems(*raw[:3]):
        raise problem
    weights = weights_override if weights_override is not None else raw.weights
    if weights is None:
        raise ParseError("no weights: embed a 'weights' row or pass --weights")
    try:
        weights = check_weights(weights, n=len(raw.attributes), renormalize=renormalize)
    except (LengthMismatch, WeightInvalid) as e:
        if weights_override is None:
            raise
        raise _UsageError(f"--weights: {e}") from None
    return _made(DecisionMatrix, *raw._replace(weights=weights))


def parse_problem(path: str, fmt: str | None = None) -> DecisionMatrix:
    """Load and fully validate a problem file (weights must be embedded)."""
    return _build_matrix(_read_raw(path, fmt))


# ---------------------------------------------------------------------------
# report serialization


def _precision() -> int:
    value = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
    if value.strip() not in [str(k) for k in range(MAX_PRECISION + 1)]:
        raise _UsageError(
            f"{PRECISION_ENV} must be an integer from 0 to {MAX_PRECISION}, got {value!r}"
        )
    return int(value)


def fnnn_to_dict(v: Fnnn) -> dict:
    return {"eta": v.eta, "xi": v.xi, "t": v.t, "i": v.i, "f": v.f}


def _fmt_fnnn(values, prec: int) -> str:
    """A value's five floats eta, xi, t, i and f as a table shows them."""
    eta, xi, t, i, f = (f"{v:.{prec}f}" for v in values)
    return f"({eta}, {xi}); {t}, {i}, {f}"


def _ordering_str(report_labels) -> str:
    return " >= ".join(report_labels)


class _Cells(NamedTuple):
    """Values as five columns of finite plain floats, which :func:`_json_chunks` does not check:
    a report's normalized row, the matrix's own tuples, or the aggregates."""

    eta: tuple[float, ...]
    xi: tuple[float, ...]
    t: tuple[float, ...]
    i: tuple[float, ...]
    f: tuple[float, ...]

    def dicts(self) -> list[dict]:
        """Each value as :func:`fnnn_to_dict` gives it."""
        return [dict(zip(self._fields, values)) for values in zip(*self)]


_by_key = attrgetter(*sorted(_Cells._fields))  # the columns in the order JSON keys sort
_CELL_ENTRIES = [f'"{k}": %r' for k in sorted(_Cells._fields)]


class _SweepRows(NamedTuple):
    """A sweep's rows and the labels their orderings index, which
    :func:`_json_chunks` does not check: each closeness and lambda a finite
    plain float, as :func:`~fnnmadm.pipeline.lambda_sweep` gives them."""

    rows: tuple[SweepRow, ...]
    labels: tuple[str, ...]

    def dicts(self) -> list[dict]:
        """Each row as :func:`sweep_to_dict` gives it."""
        return [{"lambda": row.lam, "closeness": list(row.closeness),
                 "ordering": list(row.ordering),
                 "ordering_labels": [self.labels[k] for k in row.ordering]} for row in self.rows]


def _report_doc(rep: RankingReport) -> dict:
    """The document of :func:`report_to_dict` with its cells as _Cells records."""
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
        "normalized": [_Cells(*row) for row in dm.rows],
        "aggregates": _Cells(*zip(*map(attrgetter(*_Cells._fields), rep.aggregates))),
        "positive_ideal": fnnn_to_dict(rep.positive_ideal),
        "negative_ideal": fnnn_to_dict(rep.negative_ideal),
        "d_plus": list(rep.d_plus),
        "d_minus": list(rep.d_minus),
        "closeness": list(rep.closeness),
        "ordering": list(rep.ordering),
        "ordering_labels": list(rep.ordered_labels()),
        "notes": list(rep.notes),
    }


def report_to_dict(rep: RankingReport) -> dict:
    doc = _report_doc(rep)
    doc["normalized"] = [row.dicts() for row in doc["normalized"]]
    doc["aggregates"] = doc["aggregates"].dicts()
    return doc


_encode_str = json.encoder.encode_basestring_ascii


def _dump_json(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` renders
    it, byte for byte: the pieces of :func:`_json_chunks`, joined.

    Takes dicts with str keys, lists, tuples, str, int, float, bool and
    None, subclasses included; any other value, and any dict key that is
    not a str, raises TypeError.
    """
    return "".join(_json_chunks(obj, "\n"))


def _plain_json(o) -> str | None:
    """The text ``json.dumps`` gives a plain str, a plain int or a finite
    plain float, from the encoder's own routines; None for any other value,
    a bool, a subclass or a non-finite float included."""
    kind = type(o)
    if kind is str:
        return _encode_str(o)
    if kind is int:
        return int.__repr__(o)
    if kind is float and -math.inf < o < math.inf:
        return float.__repr__(o)
    return None


def _json_chunks(o, nl: str):
    """Yield the text of one value, at the depth whose line break and
    indent is ``nl``, in pieces that join to :func:`_dump_json`'s.

    A writer can send each piece on as it comes, so no copy of the whole
    text is built.  The standard library encodes indented output in pure
    Python, one generator per container, which made rendering the slowest
    step of a large ``rank``.  Here a list whose every item
    :func:`_plain_json` renders is one piece, joined in one call, and so
    is a _Cells record, rendered as the list of its dicts: it fills
    one format template per value, with the ``repr`` of each float, so a
    record must hold finite plain floats.  A _SweepRows record is rendered
    as the list of its dicts too, one template and one piece per row.
    Other containers yield their items' pieces in turn.  A scalar that
    :func:`_plain_json` renders, alone or as a dict's value, is one piece
    (with its key), made without ``json.dumps``.
    """
    if not isinstance(o, (list, tuple, dict)) or not o:
        yield _plain_json(o) or json.dumps(o)  # a scalar or an empty container takes one line
        return
    inner = nl + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for k, v in sorted(o.items()):
            key = f"{sep}{_encode_str(k)}: "  # TypeError for a key that is no str
            text = _plain_json(v)
            if text is None:
                yield key
                yield from _json_chunks(v, inner)
            else:
                yield key + text
            sep = "," + inner
        yield nl + "}"
        return
    if type(o) is _SweepRows:  # one piece per row, so that a long sweep streams
        yield from _sweep_row_chunks(o, inner, nl)
        return
    if type(o) is _Cells:
        cell = inner + "  "
        template = f"{{{cell}{(',' + cell).join(_CELL_ENTRIES)}{inner}}}"
        items = map(template.__mod__, zip(*_by_key(o)))
    elif None in (items := [*map(_plain_json, o)]):
        sep = "[" + inner
        for v in o:
            yield sep
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield nl + "]"
        return
    yield f"[{inner}{(',' + inner).join(items)}{nl}]"


def _sweep_row_chunks(record: _SweepRows, inner: str, nl: str):
    """Yield a _SweepRows record as :func:`_json_chunks` renders the list
    of its dicts, one piece per row: each row fills one template with the
    ``repr`` of its numbers and its labels, each encoded once."""
    key, item = inner + "  ", inner + "    "
    numbers, labels = (f"[{item}{(',' + item).join([spec] * len(record.labels))}{key}]"
                       for spec in ("%r", "%s"))
    template = (f'{{{key}"closeness": {numbers},{key}"lambda": %r,{key}"ordering": {numbers},'
                f'{key}"ordering_labels": {labels}{inner}}}')
    encoded = [*map(_encode_str, record.labels)]
    sep = "[" + inner
    for row in record.rows:
        yield sep + template % (*row.closeness, row.lam, *row.ordering,
                                *map(encoded.__getitem__, row.ordering))
        sep = "," + inner
    yield nl + "]" if record.rows else "[]"


def _render_json(doc):
    """Yield ``doc`` as :func:`_dump_json` renders it, then a line break,
    in the pieces of :func:`_json_chunks`."""
    yield from _json_chunks(doc, "\n")
    yield "\n"


def _render_rank_table(rep: RankingReport, prec: int):
    """Yield the lines of ``rank``'s table, each with its line break."""
    dm = rep.matrix
    yield (f"operator={rep.config.operator}  metric={rep.config.metric}  "
           f"lambda={rep.config.lam:g}\n")
    yield "\nNormalized decision matrix:\n"
    width = max(len(a) for a in dm.alternatives)
    for label, row in zip(dm.alternatives, dm.rows):
        cells = "  ".join(_fmt_fnnn(c, prec) for c in zip(*row))
        yield f"  {label:<{width}}  {cells}\n"
    yield "\nAggregates:\n"
    for label, agg in zip(dm.alternatives, rep.aggregates):
        yield f"  {label:<{width}}  {_fmt_fnnn(fnnn_to_dict(agg).values(), prec)}\n"
    yield f"\nPositive ideal: {_fmt_fnnn(fnnn_to_dict(rep.positive_ideal).values(), prec)}\n"
    yield f"Negative ideal: {_fmt_fnnn(fnnn_to_dict(rep.negative_ideal).values(), prec)}\n"
    yield "\nDistances and closeness:\n"
    yield (f"  {'alt':<{width}}  {'D+':>{prec + 4}}  {'D-':>{prec + 4}}  "
           f"{'D*':>{prec + 4}}  rank\n")
    position = {k: r + 1 for r, k in enumerate(rep.ordering)}
    for k, label in enumerate(dm.alternatives):
        yield (f"  {label:<{width}}  {rep.d_plus[k]:>{prec + 4}.{prec}f}  "
               f"{rep.d_minus[k]:>{prec + 4}.{prec}f}  "
               f"{rep.closeness[k]:>{prec + 4}.{prec}f}  {position[k]:>4}\n")
    yield f"\nRanking: {_ordering_str(rep.ordered_labels())}\n"
    for note in rep.notes:
        yield f"note: {note}\n"


def _render_rank_csv(rep: RankingReport):
    """Yield the rows of ``rank``'s CSV, each a list of str fields."""
    position = {k: r + 1 for r, k in enumerate(rep.ordering)}
    yield ["alternative", "d_plus", "d_minus", "closeness", "rank"]
    for k, label in enumerate(rep.matrix.alternatives):
        values = (rep.d_plus[k], rep.d_minus[k], rep.closeness[k])
        yield [label, *map(repr, values), str(position[k])]


def _sweep_doc(result: SweepResult, dm: DecisionMatrix, config: PipelineConfig) -> dict:
    """The document of :func:`sweep_to_dict` with its rows as one _SweepRows record."""
    return {
        "config": {"operator": config.operator, "metric": config.metric},
        "alternatives": list(dm.alternatives),
        "rows": _SweepRows(result.rows, dm.alternatives),
        "transitions": [
            {
                "lambda": tr.lam,
                "previous": list(tr.previous),
                "ordering": list(tr.ordering),
            }
            for tr in result.transitions
        ],
    }


def sweep_to_dict(result: SweepResult, dm: DecisionMatrix, config: PipelineConfig) -> dict:
    doc = _sweep_doc(result, dm, config)
    doc["rows"] = doc["rows"].dicts()
    return doc


def _render_sweep_table(result: SweepResult, dm: DecisionMatrix, prec: int):
    """Yield the lines of ``sweep``'s table, each with its line break."""
    labels = dm.alternatives
    head = "  ".join(f"{a:>{prec + 3}}" for a in labels)
    yield f"{'lambda':>7}  {head}  ordering\n"
    transition_lams = {tr.lam for tr in result.transitions}
    for row in result.rows:
        vals = "  ".join(f"{v:>{prec + 3}.{prec}f}" for v in row.closeness)
        mark = "  <- transition" if row.lam in transition_lams else ""
        yield f"{row.lam:>7g}  {vals}  {_ordering_str([labels[k] for k in row.ordering])}{mark}\n"
    if result.transitions:
        yield "\n"
    for tr in result.transitions:
        yield (f"transition at lambda={tr.lam:g}: "
               f"{_ordering_str([labels[k] for k in tr.previous])} -> "
               f"{_ordering_str([labels[k] for k in tr.ordering])}\n")


def _csv_writer(fh):
    """A csv.writer to ``fh`` that writes each row as it is given, quoted as
    RFC 4180 asks (only a field that holds a comma, a quote or a line break)."""
    return csv.writer(fh, lineterminator="\n")


def write_closeness_csv(fh, result: SweepResult, labels, ordering: bool = False) -> None:
    """Write to ``fh`` the ``lambda,D1,...,Dn`` closeness table, one row per
    lambda at full precision, each as it is made; ``ordering`` appends each
    row's ordering by label."""
    head = ["lambda"] + [f"D{k + 1}" for k in range(len(labels))]
    writer = _csv_writer(fh)
    writer.writerow(head + ["ordering"] if ordering else head)
    for row in result.rows:
        fields = [repr(row.lam), *map(repr, row.closeness)]
        if ordering:
            fields.append(_ordering_str([labels[k] for k in row.ordering]))
        writer.writerow(fields)


# ---------------------------------------------------------------------------
# commands


def _load_matrix(args) -> DecisionMatrix:
    """The normalized matrix of the problem file, with the --weights override if given."""
    raw = _read_raw(args.path, args.input_format)
    return normalize(_build_matrix(raw, args.weights, renormalize=args.renormalize_weights))


class _UsageError(Exception):
    pass


def cmd_rank(args) -> int:
    dm = _load_matrix(args)
    rep = run_pipeline(dm, PipelineConfig(operator=args.operator, metric=args.metric, lam=args.lam))
    if args.format == "csv":
        _csv_writer(sys.stdout).writerows(_render_rank_csv(rep))
    elif args.format == "json":
        sys.stdout.writelines(_render_json(_report_doc(rep)))
    else:
        sys.stdout.writelines(_render_rank_table(rep, _precision()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    dm = _load_matrix(args)
    config = PipelineConfig(operator=args.operator, metric=args.metric)
    try:
        result = lambda_sweep(dm, config, args.lams)
    except EmptyInput as e:  # an empty --lambda-range such as 3..1
        raise _UsageError(str(e)) from None
    if args.plot_out:
        with open(args.plot_out, "w", encoding="utf-8") as fh:
            write_closeness_csv(fh, result, dm.alternatives)
    if args.format == "csv":
        write_closeness_csv(sys.stdout, result, dm.alternatives, ordering=True)
    elif args.format == "json":
        sys.stdout.writelines(_render_json(_sweep_doc(result, dm, config)))
    else:
        sys.stdout.writelines(_render_sweep_table(result, dm, _precision()))
    return EXIT_OK


def cmd_validate(args) -> int:
    """Print every reason ``rank`` would reject the file for; ``rank`` reports the first."""
    raw = _read_raw(args.path, args.input_format)
    problems = list(_problems(*raw[:3]))
    if raw.weights is not None:
        try:
            check_weights(raw.weights, n=len(raw.attributes))
        except (LengthMismatch, WeightInvalid) as e:
            problems.append((None, e))
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
    if len(lams) > 1 and lams[-1] == lams[-2]:  # from 2**53 on, v + 1.0 may round back to v
        raise argparse.ArgumentTypeError(
            f"must step by 1, which float64 cannot from 2**53 on, got {text!r}"
        )
    return lams


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that this matches, and that names no
        # option, as a value: widened from plain negative numbers to any
        # value that starts with "-" and then a digit or "."
        self._negative_number_matcher = re.compile(r"-[0-9.]")

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``rank``, ``sweep`` and ``validate`` commands."""
    parser = _Parser(
        prog="fnn-madm",
        description=(
            "Rank alternatives described by Fermatean neutrosophic normal "
            "numbers with TOPSIS-style relative closeness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("path", help="problem file (CSV or JSON)")
        p.add_argument(
            "--input-format",
            choices=("csv", "json"),
            help="problem file format (default: by extension)",
        )

    def add_common(p, with_lambda=True):
        add_file(p)
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
    add_file(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built on the first call, then shared
    by every later call in the process.  Nothing changes it once built;
    each parse keeps its state in its own Namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    # ValueError: a path with a NUL byte, a label stdout cannot encode; a
    # LambdaInvalid only ever comes from a flag
    except (_UsageError, ValueError, LambdaInvalid) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateCloseness as e:
        print(f"error: degenerate computation: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BrokenPipeError:  # the reader stopped early, which is no fault of the data
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no real stream: left as it is
            return EXIT_BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit writes to nowhere
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (FnnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
