"""Spans recorded around the calls into each layer, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, request, iteration), plus counts set
by the code inside it (cells parsed or aggregated, distance calls, bytes
rendered).  Spans stay in memory and are written out when the run ends.
Some spans time a call the request itself does not make in that form:
``core.build`` after parsing (``make_fnnn`` over every parsed cell once
more), ``pipeline.run`` (the untraced ``run_pipeline``/``lambda_sweep``
that glue is measured against), and a layer a workload's requests never
reach, timed on its problem so that every run reports every metric.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from fnnmadm import (
    METRICS,
    OPERATORS,
    PipelineConfig,
    aggregate_rows,
    closeness,
    ideal_values,
    lambda_sweep,
    make_decision_matrix,
    make_fnnn,
    normalize,
    rank,
    run_pipeline,
)
from fnnmadm.cli import parse_problem

from checks import require

# the stages run_pipeline and lambda_sweep call; glue is their time's remainder
STAGES = ("pipeline.normalize", "aggregate.", "pipeline.ideals", "distance", "pipeline.closeness_rank")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.request = 0
        self.iteration = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
            "iteration": self.iteration,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            self._open.pop()

    def write(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans}, fh)


class NullTracer(Tracer):
    """Records nothing.  A replay under it runs the same calls as under a
    ``Tracer``, so the difference of the two wall times is the spans' cost."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) * 1e-9


# ---------------------------------------------------------------------------
# stage-by-stage replays through the public functions, in pipeline order


def parse(tr: Tracer, path):
    with tr.span("cli.parse") as s:
        dm = parse_problem(str(path))
        s["cells"] = dm.n_alternatives * dm.n_attributes
    return dm


def build(tr: Tracer, alternatives, attributes, rows, weights):
    """``make_fnnn`` over every cell, then ``make_decision_matrix``."""
    with tr.span("core.build"):
        cells = [[make_fnnn(*values) for values in row] for row in rows]
    with tr.span("pipeline.build"):
        return make_decision_matrix(alternatives, attributes, cells, weights)


def rebuild(tr: Tracer, dm):
    """Build a parsed matrix's cells once more, to time construction alone."""
    rows = [[(c.eta, c.xi, c.t, c.i, c.f) for c in row] for row in dm.cells]
    build(tr, dm.alternatives, dm.attributes, rows, dm.weights)


def aggregate(tr: Tracer, nm, operator: str, lam: float):
    with tr.span(f"aggregate.{operator}") as s:
        aggs = aggregate_rows(nm, operator, lam)
        s["cells"] = nm.n_alternatives * nm.n_attributes
    return aggs


def stages(tr: Tracer, nm, operator: str, metric: str, lam: float):
    aggs = aggregate(tr, nm, operator, lam)
    with tr.span("pipeline.ideals"):
        positive, negative = ideal_values(aggs)
    dist = METRICS[metric]
    with tr.span("distance") as s:
        dplus = tuple(dist(a, positive) for a in aggs)
        dminus = tuple(dist(a, negative) for a in aggs)
        s["calls"] = 2 * len(aggs)
    with tr.span("pipeline.closeness_rank"):
        close = tuple(closeness(dplus, dminus))
        ordering = tuple(rank(close))
    return aggs, dplus, dminus, close, ordering


def ranking(tr: Tracer, dm, operator: str, metric: str, lam: float):
    """Replay ``run_pipeline``; returns its report, checked equal to the
    stages' results."""
    with tr.span("pipeline.normalize"):
        nm = normalize(dm)
    staged = stages(tr, nm, operator, metric, lam)
    with tr.span("pipeline.run"):
        rep = run_pipeline(dm, PipelineConfig(operator=operator, metric=metric, lam=lam))
    require(
        staged == (rep.aggregates, rep.d_plus, rep.d_minus, rep.closeness, rep.ordering),
        "traced stages differ from run_pipeline",
    )
    return rep


def sweep(tr: Tracer, dm, operator: str, metric: str, lams):
    """Replay ``lambda_sweep``; returns its result and config."""
    with tr.span("pipeline.normalize"):
        nm = normalize(dm)
    staged = [stages(tr, nm, operator, metric, lam)[3:] for lam in lams]
    config = PipelineConfig(operator=operator, metric=metric, lam=lams[0])
    with tr.span("pipeline.run"):
        result = lambda_sweep(dm, config, lams)
    require(
        staged == [(row.closeness, row.ordering) for row in result.rows],
        "traced stages differ from lambda_sweep",
    )
    return result, config


def render(tr: Tracer, to_dict, *args) -> str:
    """``report_to_dict``/``sweep_to_dict`` plus JSON serialisation as the
    CLI does it."""
    with tr.span("cli.render") as s:
        text = json.dumps(to_dict(*args), indent=2, sort_keys=True) + "\n"
        s["bytes"] = len(text.encode("utf-8"))
    return text


def other_operators(tr: Tracer, nm, operator: str, lam: float) -> None:
    """Aggregate with the operators a request does not use, as a request of
    their own, so that glue is not measured against them."""
    tr.request += 1
    for op in sorted(OPERATORS):
        if op != operator:
            aggregate(tr, nm, op, lam)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, traced_walls: list, null_walls: list, ops_per_iteration: int) -> dict:
    """Each time is the median over traced iterations of the layer's total
    time in one iteration; rates are over the whole run.  Glue, a small
    difference of two large times, takes the fastest iteration of each side
    instead, as a host that changes speed within a run can make the median
    difference negative.  ``traced_walls`` and ``null_walls`` hold each
    iteration's replay wall time under a ``Tracer`` and a ``NullTracer``;
    the overhead is the median of their paired differences."""
    per_iter = defaultdict(lambda: defaultdict(float))
    totals = defaultdict(float)
    by_request = defaultdict(list)
    for s in spans:
        dt = _seconds(s)
        per_iter[s["iteration"]][s["name"]] += dt
        totals[s["name"]] += dt
        for count in ("cells", "calls", "bytes"):
            if count in s:
                totals[f"{s['name']}#{count}"] += s[count]
                per_iter[s["iteration"]][f"{s['name']}#{count}"] += s[count]
        by_request[s["request"]].append(s)
    for request in by_request.values():
        runs = [s for s in request if s["name"] == "pipeline.run"]
        if runs:
            iteration = per_iter[request[0]["iteration"]]
            iteration["#run"] += sum(map(_seconds, runs))
            iteration["#staged"] += sum(_seconds(s) for s in request if s["name"].startswith(STAGES))

    iterations = sorted(per_iter)

    def median(key):
        return statistics.median(per_iter[i][key] for i in iterations)

    def fastest(key):
        return min(per_iter[i][key] for i in iterations)

    def rate(name):
        return totals[f"{name}#cells"] / totals[name]

    aggregate_names = [f"aggregate.{op}" for op in sorted(OPERATORS)]
    metrics = {
        "cli.parse_s": (median("cli.parse"), "s"),
        "cli.parse_cells_per_s": (rate("cli.parse"), "cells/s"),
        "core.build_s": (median("core.build"), "s"),
        "pipeline.build_s": (median("pipeline.build"), "s"),
        "pipeline.normalize_s": (median("pipeline.normalize"), "s"),
    }
    for name in aggregate_names:
        metrics[f"{name}_s"] = (median(name), "s")
    metrics["aggregate.cells_per_s"] = (
        sum(totals[f"{n}#cells"] for n in aggregate_names)
        / sum(totals[n] for n in aggregate_names),
        "cells/s",
    )
    metrics.update(
        {
            "distance.s": (median("distance"), "s"),
            "distance.calls": (median("distance#calls"), "count"),
            "pipeline.ideals_s": (median("pipeline.ideals"), "s"),
            "pipeline.closeness_rank_s": (median("pipeline.closeness_rank"), "s"),
            "pipeline.glue_s": (fastest("#run") - fastest("#staged"), "s"),
            "cli.render_s": (median("cli.render"), "s"),
            "cli.render_bytes": (median("cli.render#bytes"), "bytes"),
            "trace.overhead_s": (
                statistics.median(t - n for t, n in zip(traced_walls, null_walls)) / ops_per_iteration,
                "s",
            ),
        }
    )
    return metrics
