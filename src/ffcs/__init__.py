"""Compressed sensing over finite fields.

Exact GF(q) arithmetic, seeded signal/matrix draws, exhaustive
minimum-weight (L0) recovery, closed-form and combinatorial bounds on
the recovery error probability, measurement thresholds, and
phase-transition curve generation.

``import ffcs`` loads no submodule.  Each public name, and each
submodule named as an attribute (``ffcs.decoder``), is imported on first
use and then kept in the package namespace (PEP 562), so a caller that
only builds fields pays for ``errors`` and ``field`` alone.  The CLI,
``ffcs.cli``, imports every module its commands use when it is itself
imported, so no command pays for an import on its first call.
"""

import sys

__version__ = "0.1.0"

# home module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("UnsupportedOrder", "DivisionByZero", "InvalidGamma", "DimensionMismatch",
               "EnumerationCapExceeded"),
    "field": ("FiniteField", "make_field", "check_axioms", "supported_orders"),
    "model": ("ModelParams", "SignalSetSize", "signal_set_size", "dense_gamma", "sparse_gamma",
              "matvec", "candidate_matrix", "signal_to_json", "signal_from_json",
              "matrix_to_json", "matrix_from_json"),
    "decoder": ("DecodeResult", "DecodeStatus", "ErrorEvents", "decode_l0", "error_events"),
    "bounds": ("LogProb", "PairVariant", "row_zero_prob_sparse", "convolution_oracle",
               "nh_count", "nh_oracle", "nh_log_profile", "pair_total", "union_bound",
               "closed_dense_bound", "exponent_bound", "binary_entropy", "sufficient_m",
               "necessary_m", "fano_lower_bound"),
    "curves": ("GammaMode", "CurvePoint", "MinMeasurements", "min_measurements", "curve",
               "default_k_grid"),
    "montecarlo": ("TrialReport", "run_trials", "sample_trials"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "util"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, so that -X importtime lists the submodule
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
