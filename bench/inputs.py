"""Seeded problem generator and problem-file writer owned by the benchmark.

The generator shares no code with the library (not even
``fnnmadm.reference.gen_fnnn``), so a library change cannot change a
workload.  Every cell it draws is valid: location in [0.1, 1), spread in
[0.05, 1), memberships in [0.1, 0.95] redrawn together until their cubic
sum is at most 2.  Weights are drawn from [0.05, 1) and divided by their
sum.  The draw order is fixed: row by row, cell by cell (eta, xi, then the
triple), then the weights, all from one ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from paper import ALTERNATIVES, ATTRIBUTES, CELLS, WEIGHTS

ETA_RANGE = (0.1, 1.0)
XI_RANGE = (0.05, 1.0)
MEMBERSHIP_RANGE = (0.1, 0.95)
WEIGHT_RANGE = (0.05, 1.0)
CUBIC_SUM_BOUND = 2.0


@dataclass(frozen=True)
class Problem:
    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: tuple[tuple[tuple[float, float, float, float, float], ...], ...]
    weights: tuple[float, ...]

    def head(self, rows: int) -> "Problem":
        """The first ``rows`` alternatives, for warm-up."""
        return Problem(
            self.alternatives[:rows], self.attributes, self.cells[:rows], self.weights
        )


def engineers() -> Problem:
    return Problem(ALTERNATIVES, ATTRIBUTES, CELLS, WEIGHTS)


def generate(n: int, m: int, seed: int) -> Problem:
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            eta = rng.uniform(*ETA_RANGE)
            xi = rng.uniform(*XI_RANGE)
            while True:
                t, i, f = (rng.uniform(*MEMBERSHIP_RANGE) for _ in range(3))
                if t**3 + i**3 + f**3 <= CUBIC_SUM_BOUND:
                    break
            row.append((eta, xi, t, i, f))
        rows.append(tuple(row))
    raw = [rng.uniform(*WEIGHT_RANGE) for _ in range(m)]
    total = sum(raw)
    return Problem(
        tuple(f"A{k + 1}" for k in range(n)),
        tuple(f"C{j + 1}" for j in range(m)),
        tuple(rows),
        tuple(w / total for w in raw),
    )


def write_csv(problem: Problem, path) -> None:
    """Write the CSV problem format: ``alt,<attrs>``, ``eta;xi;t;i;f`` cells,
    a trailing weights row.  ``repr`` round-trips every float exactly."""
    lines = ["alt," + ",".join(problem.attributes)]
    for label, row in zip(problem.alternatives, problem.cells):
        lines.append(
            label + "," + ",".join(";".join(map(repr, cell)) for cell in row)
        )
    lines.append("weights," + ",".join(map(repr, problem.weights)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
