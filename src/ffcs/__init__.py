"""Compressed sensing over finite fields.

Exact GF(q) arithmetic, seeded signal/matrix draws, exhaustive
minimum-weight (L0) recovery, closed-form and combinatorial bounds on
the recovery error probability, measurement thresholds, and
phase-transition curve generation.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EnumerationCapExceeded,
    InvalidGamma,
    UnsupportedOrder,
)
from .field import FiniteField, check_axioms, make_field, supported_orders
from .model import (
    ModelParams,
    SignalSetSize,
    candidate_matrix,
    dense_gamma,
    matrix_from_json,
    matrix_to_json,
    matvec,
    signal_from_json,
    signal_set_size,
    signal_to_json,
    sparse_gamma,
)
from .decoder import DecodeResult, DecodeStatus, ErrorEvents, decode_l0, error_events
from .bounds import (
    LogProb,
    PairVariant,
    WeightEnumeration,
    binary_entropy,
    closed_dense_bound,
    convolution_oracle,
    exponent_bound,
    fano_lower_bound,
    necessary_m,
    nh_count,
    nh_log_profile,
    nh_oracle,
    pair_total,
    row_zero_prob_dense,
    row_zero_prob_sparse,
    sufficient_m,
    union_bound,
)
from .curves import (
    CurvePoint,
    GammaMode,
    MinMeasurements,
    curve,
    default_k_grid,
    min_measurements,
)
from .montecarlo import TrialReport, run_trials, sample_trials

__all__ = [
    "__version__",
    "UnsupportedOrder",
    "DivisionByZero",
    "InvalidGamma",
    "DimensionMismatch",
    "EnumerationCapExceeded",
    "FiniteField",
    "make_field",
    "check_axioms",
    "supported_orders",
    "ModelParams",
    "SignalSetSize",
    "signal_set_size",
    "dense_gamma",
    "sparse_gamma",
    "matvec",
    "candidate_matrix",
    "signal_to_json",
    "signal_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "DecodeResult",
    "DecodeStatus",
    "ErrorEvents",
    "decode_l0",
    "error_events",
    "LogProb",
    "PairVariant",
    "WeightEnumeration",
    "row_zero_prob_dense",
    "row_zero_prob_sparse",
    "convolution_oracle",
    "nh_count",
    "nh_oracle",
    "nh_log_profile",
    "pair_total",
    "union_bound",
    "closed_dense_bound",
    "exponent_bound",
    "binary_entropy",
    "sufficient_m",
    "necessary_m",
    "fano_lower_bound",
    "GammaMode",
    "CurvePoint",
    "MinMeasurements",
    "min_measurements",
    "curve",
    "default_k_grid",
    "TrialReport",
    "run_trials",
    "sample_trials",
]
