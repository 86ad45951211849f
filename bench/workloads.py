"""The three workloads: their requests, traced replays and checks.

Import this module only after ``run.import_program`` has put the
checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from fnnmadm import (
    OPERATORS,
    PipelineConfig,
    aggregate_rows,
    lambda_sweep,
    make_decision_matrix,
    make_fnnn,
    normalize,
    run_pipeline,
)
from fnnmadm.cli import main as cli_main
from fnnmadm.cli import parse_problem, report_to_dict, sweep_to_dict
from fnnmadm.reference import FOLDS

import checks
import inputs
import spans

LAMBDAS = [float(v) for v in range(1, 35)]


@dataclass
class Op:
    """One request of a workload iteration."""

    key: str
    kind: str  # "rank", "sweep" or "validate": the end-to-end metric it times
    run: Callable[[], Any]  # the untraced request; returns its output
    replay: Callable[[spans.Tracer], Any]  # the same request stage by stage
    cells: int = 0  # alternatives x attributes x lambdas aggregated
    digest: Callable[[Any], Any] = lambda out: out  # what is kept and compared


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def run_cli(argv) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return CliOutput(code, out.getvalue())


def via_cli(tr: spans.Tracer, argv) -> CliOutput:
    """The replay of a request with no public stage functions to drive."""
    with tr.span("cli.main"):
        return run_cli(argv)


def same(a, b) -> bool:
    """Equal outputs; a replay renders JSON itself, so JSON texts are
    compared as data, not layout."""
    if a == b:
        return True
    if not (isinstance(a, CliOutput) and isinstance(b, CliOutput) and a.code == b.code):
        return False
    try:
        return json.loads(a.text) == json.loads(b.text)
    except json.JSONDecodeError:
        return False


def cli_json(out: CliOutput, what: str) -> dict:
    if out.code != 0:
        raise checks.OpFailed(f"{what} exited {out.code}")
    return json.loads(out.text)


def check_rank_json(out: CliOutput, problem, operator, metric, lam, fold_rows) -> checks.Ranking:
    """Independent checks of one ``rank --format json`` output."""
    doc = cli_json(out, f"rank {operator} {metric}")
    checks.require(
        doc["config"] == {"operator": operator, "metric": metric, "lambda": lam},
        "rank config echoed wrongly",
    )
    r = checks.ranking_from_json(doc)
    checks.check_normalized(np.array(problem.cells), r.normalized)
    checks.near(r.weights, problem.weights, "weights")
    checks.check_ranking(r, r.aggregates, metric)
    checks.check_folds(FOLDS[operator], r.normalized, r.weights, lam, r.aggregates, fold_rows)
    return r


def cli_op(key: str, kind: str, argv, replay=None, cells: int = 0) -> Op:
    return Op(key, kind, lambda: run_cli(argv), replay or (lambda tr: via_cli(tr, argv)), cells)


class Workload:
    name = ""

    def setup(self, seed: int, work: Path) -> None:
        """Generate inputs and write problem files; repeated, so idempotent."""
        raise NotImplementedError

    def ops(self, small: bool = False) -> list[Op]:
        """One iteration's requests; ``small`` gives them on a 5-row
        slice, for warm-up."""
        raise NotImplementedError

    def check(self, first: dict) -> set[str]:
        """Check each op's first output; returns the keys of ops that
        failed."""
        raise NotImplementedError

    def peak(self) -> None:
        """The request whose traced heap peak is reported."""
        raise NotImplementedError


class Engineers(Workload):
    """The paper's 5x4 problem through ``cli.main``: per-call overhead,
    parsing and rendering dominate.  The seed orders the requests."""

    name = "engineers"

    def setup(self, seed, work):
        self.seed = seed
        self.problem = inputs.engineers()
        self.path = work / "engineers.csv"
        self.cells = len(self.problem.alternatives) * len(self.problem.attributes)
        inputs.write_csv(self.problem, self.path)

    def sweep_argv(self):
        return ["sweep", self.path, "--lambda-range", "1..34", "--format", "json"]

    def ops(self, small=False):
        path = self.path

        def replay_rank(tr, operator, metric):
            dm = spans.parse(tr, path)
            spans.rebuild(tr, dm)
            rep = spans.ranking(tr, dm, operator, metric, 1.0)
            return CliOutput(0, spans.render(tr, report_to_dict, rep))

        def replay_sweep(tr):
            dm = spans.parse(tr, path)
            result, config = spans.sweep(tr, dm, "fnnwa", "hamming", LAMBDAS)
            return CliOutput(0, spans.render(tr, sweep_to_dict, result, dm, config))

        ops = [
            cli_op(
                f"rank {operator} {metric}",
                "rank",
                ["rank", path, "--operator", operator, "--metric", metric, "--format", "json"],
                lambda tr, o=operator, m=metric: replay_rank(tr, o, m),
            )
            for operator in sorted(OPERATORS)
            for metric in ("hamming", "euclidean")
        ]
        ops += [
            cli_op("sweep", "sweep", self.sweep_argv(), replay_sweep, cells=self.cells * len(LAMBDAS)),
            cli_op("rank csv", "rank", ["rank", path, "--format", "csv"]),
            cli_op("validate", "validate", ["validate", path]),
        ]
        random.Random(self.seed).shuffle(ops)
        return ops

    def check(self, first):
        every_row = range(5)
        ranked = {}
        for operator in sorted(OPERATORS):
            for metric in ("hamming", "euclidean"):
                out = first[f"rank {operator} {metric}"]
                r = check_rank_json(out, self.problem, operator, metric, 1.0, every_row)
                checks.check_published_ranking(r, operator, metric)
                ranked[operator, metric] = r
        for metric in ("hamming", "euclidean"):
            for base in ("fnnwa", "fnnwg"):
                checks.check_lambda_one(
                    ranked["g" + base, metric].aggregates,
                    ranked[base, metric].aggregates,
                    f"g{base} against {base} ({metric})",
                )

        s = checks.sweep_from_json(cli_json(first["sweep"], "sweep"))
        nm = normalize(parse_problem(str(self.path)))
        normalized = checks.matrix(nm.cells)
        aggs_by_lam = [checks.values(aggregate_rows(nm, "fnnwa", lam)) for lam in LAMBDAS]
        checks.check_sweep(s, LAMBDAS, aggs_by_lam, "hamming")
        for lam, aggs in zip(LAMBDAS, aggs_by_lam):
            checks.check_folds(FOLDS["fnnwa"], normalized, nm.weights, lam, aggs, every_row)
        checks.check_published_sweep(s)
        checks.near(s.closeness[0], ranked["fnnwa", "hamming"].closeness, "sweep row 1 against rank")

        out = first["validate"]
        checks.require(out.code == 0 and "20 cells valid" in out.text, "validate")

        out = first["rank csv"]
        try:
            if out.code != 0:
                raise checks.OpFailed(f"rank csv exited {out.code}")
            rows = checks.parse_rank_csv(out.text)
        except checks.OpFailed:
            return {"rank csv"}
        checks.check_rank_csv(rows, ranked["fnnwa", "hamming"], self.problem.alternatives)
        return set()

    def peak(self):
        run_cli(self.sweep_argv())


class Synthetic(Workload):
    """A problem from ``inputs.generate``, n x 20, written to a file."""

    n = 0
    fold_sample = 8

    def setup(self, seed, work):
        self.seed = seed
        self.problem = inputs.generate(self.n, 20, seed)
        self.path = work / f"{self.name}.csv"
        self.small_path = work / f"{self.name}-small.csv"
        inputs.write_csv(self.problem, self.path)
        inputs.write_csv(self.problem.head(5), self.small_path)
        self.fold_rows = sorted(random.Random(seed).sample(range(self.n), self.fold_sample))


def build(problem: inputs.Problem):
    cells = [[make_fnnn(*values) for values in row] for row in problem.cells]
    return make_decision_matrix(problem.alternatives, problem.attributes, cells, problem.weights)


class SweepWorkload(Synthetic):
    """A 100x20 matrix built once and passed to ``lambda_sweep`` over
    lambda = 1..34, all four operators in turn: aggregation does over 90 %
    of the work.  Each call is one request, so that a run holds four
    samples of each iteration rather than one."""

    name = "sweep-100x20"
    n = 100
    calls = (("fnnwa", "hamming"), ("fnnwg", "euclidean"), ("gfnnwa", "hamming"), ("gfnnwg", "euclidean"))
    rank_lambda = 3.0

    def setup(self, seed, work):
        super().setup(seed, work)
        self.dm = build(self.problem)
        self.small_dm = build(self.problem.head(5))

    def ops(self, small=False):
        dm = self.small_dm if small else self.dm
        problem = self.problem.head(5) if small else self.problem
        path = self.small_path if small else self.path

        def replay_sweep(tr, op, metric):
            result, config = spans.sweep(tr, dm, op, metric, LAMBDAS)
            # the CLI would render it; no request here does
            spans.render(tr, sweep_to_dict, result, dm, config)
            return result

        def replay_validate(tr):
            # the CLI would parse the file first; no request here does
            spans.parse(tr, path)
            return spans.build(
                tr, problem.alternatives, problem.attributes, problem.cells, problem.weights
            )

        small_ops = [
            Op(
                f"rank {op} {metric}",
                "rank",
                lambda config=PipelineConfig(operator=op, metric=metric, lam=self.rank_lambda): run_pipeline(dm, config),
                lambda tr, op=op, metric=metric: spans.ranking(tr, dm, op, metric, self.rank_lambda),
            )
            for op, metric in self.calls
        ]
        small_ops.append(Op("validate", "validate", lambda: build(problem), replay_validate))
        # the short requests follow every sweep, so that their samples spread
        # over the whole run like the sweeps' do
        ops = []
        for op, metric in self.calls:
            config = PipelineConfig(operator=op, metric=metric)
            ops.append(
                Op(
                    f"sweep {op} {metric}",
                    "sweep",
                    lambda config=config: lambda_sweep(dm, config, LAMBDAS),
                    lambda tr, op=op, metric=metric: replay_sweep(tr, op, metric),
                    cells=dm.n_alternatives * dm.n_attributes * len(LAMBDAS),
                    digest=lambda result: (result.rows, result.transitions),
                )
            )
            ops += small_ops
        return ops

    def check(self, first):
        raw = np.array(self.problem.cells)
        dm = first["validate"]
        checks.require(checks.matrix(dm.cells).tolist() == raw.tolist(), "validate: cells differ from the input")
        checks.require(list(dm.weights) == list(self.problem.weights), "validate: weights differ from the input")

        nm = normalize(self.dm)
        normalized = checks.matrix(nm.cells)
        checks.check_normalized(raw, normalized)
        sweeps = {}
        for op, metric in self.calls:
            s = checks.sweep_from_rows(*first[f"sweep {op} {metric}"])
            aggs_by_lam = [checks.values(aggregate_rows(nm, op, lam)) for lam in LAMBDAS]
            checks.check_sweep(s, LAMBDAS, aggs_by_lam, metric)
            for lam, aggs in zip(LAMBDAS, aggs_by_lam):
                checks.check_folds(FOLDS[op], normalized, nm.weights, lam, aggs, self.fold_rows)
            sweeps[op] = s
        for base in ("fnnwa", "fnnwg"):
            checks.check_lambda_one(
                sweeps["g" + base].closeness[0],
                sweeps[base].closeness[0],
                f"g{base} row against {base}",
            )

        at = LAMBDAS.index(self.rank_lambda)
        for op, metric in self.calls:
            r = checks.ranking_from_report(first[f"rank {op} {metric}"])
            checks.check_normalized(raw, r.normalized)
            checks.check_ranking(r, r.aggregates, metric)
            checks.check_folds(FOLDS[op], r.normalized, r.weights, self.rank_lambda, r.aggregates, self.fold_rows)
            checks.near(r.closeness, sweeps[op].closeness[at], f"rank {op} against its sweep row")
        return set()

    def peak(self):
        # the four calls allocate the same structures; the first stands for all
        op, metric = self.calls[0]
        lambda_sweep(self.dm, PipelineConfig(operator=op, metric=metric), LAMBDAS)


class RankWorkload(Synthetic):
    """A 500x20 CSV file through ``cli.main``: parsing, double cell
    construction, normalize and rendering dominate; one aggregation pass."""

    name = "rank-500x20"
    n = 500
    operator, lam = "gfnnwa", 3.0

    def argv(self, path):
        common = ["--operator", self.operator, "--format", "json"]
        return {
            "rank": ["rank", path, "--lambda", "3", *common],
            "sweep": ["sweep", path, "--lambdas", "3", *common],
            "validate": ["validate", path],
        }

    def ops(self, small=False):
        path = self.small_path if small else self.path
        argv = self.argv(path)

        def replay_rank(tr):
            dm = spans.parse(tr, path)
            spans.rebuild(tr, dm)
            rep = spans.ranking(tr, dm, self.operator, "hamming", self.lam)
            spans.other_operators(tr, rep.matrix, self.operator, self.lam)
            return CliOutput(0, spans.render(tr, report_to_dict, rep))

        def replay_sweep(tr):
            dm = spans.parse(tr, path)
            result, config = spans.sweep(tr, dm, self.operator, "hamming", [self.lam])
            return CliOutput(0, spans.render(tr, sweep_to_dict, result, dm, config))

        n = 5 if small else self.n
        validate = cli_op("validate", "validate", argv["validate"])
        # validate is short: twice per iteration, for more samples
        return [
            cli_op("rank", "rank", argv["rank"], replay_rank),
            validate,
            cli_op("sweep", "sweep", argv["sweep"], replay_sweep, cells=n * 20),
            validate,
        ]

    def check(self, first):
        r = check_rank_json(first["rank"], self.problem, self.operator, "hamming", self.lam, self.fold_rows)
        out = first["validate"]
        checks.require(out.code == 0 and f"{self.n * 20} cells valid" in out.text, "validate")
        s = checks.sweep_from_json(cli_json(first["sweep"], "sweep"))
        checks.check_sweep(s, [self.lam], [r.aggregates], "hamming")
        checks.near(s.closeness[0], r.closeness, "sweep row against rank")
        return set()

    def peak(self):
        run_cli(self.argv(self.path)["rank"])


WORKLOADS = {w.name: w for w in (Engineers, SweepWorkload, RankWorkload)}
