#!/usr/bin/env python3
"""How the ranking of the engineers dataset responds to the lam parameter.

Sweeps lam over the integer grid 1..34 with the weighted-averaging
operator and the hamming metric, prints the closeness trajectory of each
alternative, reports every ranking transition, and writes the plot data
to closeness_vs_lambda.csv (header: lambda,D1,...,Dn) for external
plotting.  Equivalent CLI run:
  fnn-madm sweep demos/engineers.csv --lambda-range 1..34 --plot-out out.csv
"""

import pathlib

from fnnmadm import PipelineConfig, lambda_sweep
from fnnmadm.cli import closeness_csv, parse_problem

HERE = pathlib.Path(__file__).parent
dm = parse_problem(str(HERE / "engineers.csv"))
labels = dm.alternatives

sweep = lambda_sweep(dm, PipelineConfig(operator="fnnwa", metric="hamming"),
                     list(range(1, 35)))

closeness = [row.closeness for row in sweep.rows]
lams = [row.lam for row in sweep.rows]

print("closeness vs lambda (every 3rd row):")
print("  lam  " + "  ".join(f"{a:>7}" for a in labels))
for k in range(0, len(lams), 3):
    vals = "  ".join(f"{v:7.4f}" for v in closeness[k])
    print(f"  {lams[k]:>3g}  {vals}")

print("\nper-alternative closeness growth over the sweep:")
for j, label in enumerate(labels):
    column = [row[j] for row in closeness]
    print(f"  {label}: {column[0]:.4f} -> {column[-1]:.4f} "
          f"(spread {max(column) - min(column):.4f})")

print("\nranking transitions:")
for tr in sweep.transitions:
    before = " >= ".join(labels[k] for k in tr.previous)
    after = " >= ".join(labels[k] for k in tr.ordering)
    print(f"  lam={tr.lam:g}: {before}  ->  {after}")
print("(the recommended alternative itself flips at the last transition)")

out = HERE / "closeness_vs_lambda.csv"
out.write_text(closeness_csv(sweep, labels) + "\n")  # what --plot-out writes
print(f"\nplot data written to {out.name}")
