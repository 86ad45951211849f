"""Published figures for the engineers problem, transcribed from the paper.

Five candidates E1..E5 are scored on four attributes.  Every figure below
is printed in the paper to 4 decimals; the checks in ``checks.py`` compare
the program's full-precision output with them at half a unit of the 4th
decimal (``PUBLISHED_TOL``).  Indices are 0-based: E1 is 0, E5 is 4.
"""

ALTERNATIVES = ("E1", "E2", "E3", "E4", "E5")
ATTRIBUTES = ("team work", "creativity", "analytical ability", "leadership")
WEIGHTS = (0.35, 0.27, 0.23, 0.15)

# (eta, xi, t, i, f) per cell, one row per candidate
CELLS = (
    ((0.85, 0.5, 0.88, 0.8, 0.8), (0.55, 0.5, 0.85, 0.7, 0.9),
     (0.65, 0.6, 0.8, 0.8, 0.85), (0.6, 0.55, 0.7, 0.85, 0.9)),
    ((0.7, 0.65, 0.75, 0.95, 0.75), (0.65, 0.45, 0.85, 0.65, 0.95),
     (0.5, 0.4, 0.7, 0.85, 0.9), (0.8, 0.65, 0.85, 0.95, 0.65)),
    ((0.75, 0.6, 0.8, 0.7, 0.85), (0.75, 0.7, 0.9, 0.85, 0.8),
     (0.65, 0.5, 0.75, 0.9, 0.8), (0.65, 0.5, 0.8, 0.7, 0.95)),
    ((0.5, 0.4, 0.7, 0.85, 0.9), (0.6, 0.5, 0.95, 0.75, 0.75),
     (0.75, 0.55, 0.8, 0.95, 0.7), (0.75, 0.7, 0.75, 0.85, 0.85)),
    ((0.65, 0.55, 0.9, 0.75, 0.85), (0.7, 0.6, 0.75, 0.9, 0.8),
     (0.7, 0.65, 0.9, 0.75, 0.85), (0.7, 0.5, 0.85, 0.9, 0.7)),
)

PUBLISHED_TOL = 5e-5

# normalized (eta, xi) per cell
NORMALIZED = (
    ((1.0, 0.4525), (0.7333, 0.6494), (0.8667, 0.8521), (0.75, 0.7202)),
    ((0.8235, 0.9286), (0.8667, 0.4451), (0.6667, 0.4923), (1.0, 0.7545)),
    ((0.8824, 0.7385), (1.0, 0.9333), (0.8667, 0.5917), (0.8125, 0.5495)),
    ((0.5882, 0.4923), (0.8, 0.5952), (1.0, 0.6205), (0.9375, 0.9333)),
    ((0.7647, 0.716), (0.9333, 0.7347), (0.9333, 0.9286), (0.875, 0.5102)),
)

# weighted-averaging (fnnwa) aggregates at lambda = 1: (eta, xi, t, i, f)
AGGREGATES_FNNWA = (
    (0.8598, 0.6377, 0.8375, 0.7863, 0.8524),
    (0.8256, 0.6716, 0.7924, 0.8911, 0.8160),
    (0.9000, 0.7290, 0.8277, 0.8068, 0.8385),
    (0.7925, 0.6157, 0.8441, 0.8663, 0.8017),
    (0.8656, 0.7391, 0.8660, 0.8299, 0.8122),
)
POSITIVE_IDEAL = (0.9, 0.6157)  # (eta, xi); memberships are (1, 1, 0)
NEGATIVE_IDEAL = (0.7925, 0.7391)  # (eta, xi); memberships are (0, 0, 1)

# fnnwa + hamming at lambda = 1
D_PLUS = (0.1954, 0.1746, 0.1776, 0.1759, 0.1602)
D_MINUS = (0.1733, 0.1938, 0.1908, 0.1925, 0.2082)
CLOSENESS = (0.4704, 0.5260, 0.5180, 0.5224, 0.5651)
# E1's printed D+ disagrees with its own closeness: 0.1733 / (0.1954 + 0.1733)
# is 0.4700, not the printed 0.4704, which 0.1951 gives.  Full precision
# gives 0.19513, so that one entry is compared at this wider tolerance.
D_PLUS_E1_TOL = 3e-4

ORDERING_FNNWA = (4, 1, 3, 2, 0)  # E5 >= E2 >= E4 >= E3 >= E1
ORDERING_FNNWG = (4, 2, 1, 3, 0)  # E5 >= E3 >= E2 >= E4 >= E1

# sensitivity table (fnnwa + hamming): closeness per candidate
SWEEP_ROWS = {
    2: (0.4730, 0.5311, 0.5226, 0.5316, 0.5687),
    10: (0.4897, 0.5636, 0.5617, 0.5807, 0.5930),
    13: (0.4939, 0.5704, 0.5725, 0.5901, 0.5994),
    34: (0.5111, 0.5905, 0.6073, 0.6230, 0.6229),
}
# the lambda = 12 row, E2 and E3 only
SWEEP_ROW_12 = {1: 0.5683, 2: 0.5692}

# Transitions of the integer grid 1..34, each as (lambda, ordering before,
# ordering from then on).  They follow from the published rows: the worked
# example's order at lambda = 1 gives way to the lambda = 2 row's order;
# the lambda = 12 row already puts E3 (0.5692) above E2 (0.5683), although
# the table's ordering column and its text place that swap at 13; and the
# lambda = 34 row puts E4 (0.6230) above E5 (0.6229).
TRANSITIONS = (
    (2.0, (4, 1, 3, 2, 0), (4, 3, 1, 2, 0)),
    (12.0, (4, 3, 1, 2, 0), (4, 3, 2, 1, 0)),
    (34.0, (4, 3, 2, 1, 0), (3, 4, 2, 1, 0)),
)
