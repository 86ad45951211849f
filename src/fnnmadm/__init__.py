"""Fermatean neutrosophic normal numbers and TOPSIS-style decision making.

The library covers the value algebra (construction, parameterized
addition/multiplication, weighted scaling and powering), phi-weighted
Hamming/Euclidean distance measures, four weighted aggregation operators
with fold-of-primitives reference implementations, and a seven-step
ranking pipeline with lambda sensitivity sweeps.  A CLI front end lives
in :mod:`fnnmadm.cli` (``fnn-madm`` or ``python -m fnnmadm``).
"""

from types import ModuleType as _ModuleType

from .aggregate import (
    OPERATORS,
    WEIGHT_SUM_TOLERANCE,
    check_weights,
    fnnwa,
    fnnwg,
    gfnnwa,
    gfnnwg,
)
from .core import (
    CUBIC_SUM_BOUND,
    Fnnn,
    MembershipTriple,
    NormalParams,
    accuracy_ffn,
    boxplus,
    boxtimes,
    check_lambda,
    make_fnnn,
    membership_at,
    power,
    scale,
    score_ffn,
)
from .distance import euclidean, hamming, normal_distance, phi
from .errors import (
    CubicSumExceeded,
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    FnnError,
    LambdaInvalid,
    LengthMismatch,
    MembershipOutOfRange,
    NormalDomainError,
    NotFinite,
    ParseError,
    SpreadNonPositive,
    UnknownName,
    ValidationError,
    WeightInvalid,
    WeightNonPositive,
    ZeroLocation,
)
from .pipeline import (
    METRICS,
    DecisionMatrix,
    PipelineConfig,
    RankingReport,
    SweepResult,
    SweepRow,
    Transition,
    aggregate_rows,
    closeness,
    detect_transitions,
    ideal_values,
    lambda_sweep,
    make_decision_matrix,
    normalize,
    rank,
    run_pipeline,
)
from .reference import (
    FOLDS,
    FnnnGenConfig,
    fold_fnnwa,
    fold_fnnwg,
    fold_gfnnwa,
    fold_gfnnwg,
    gen_fnnn,
    gen_weights,
)

__version__ = "0.1.0"

# the names imported from the submodules above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
