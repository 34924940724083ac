"""Exhaustive minimum-weight recovery and exact error-event detection.

The decoder enumerates candidates in increasing sparsity (and within a
sparsity level in a fixed lexicographic order), stops at the first level
containing any feasible candidate, and returns every feasible candidate
of that level.  A tie at the minimum level is reported as Ambiguous and
always counted as a recovery error: the error event is the existence of
a confusable candidate, not the luck of a tie-break.

This is the ground-truth oracle for the probabilistic machinery, so the
feasibility check is exact, with no elimination shortcuts: a candidate
of weight w is feasible exactly where the packed sum of its first w - 1
scaled columns equals y less its last scaled column, in every lane of
the measurement word.  model's level kernel (_ColumnTable), which the
Monte Carlo flags share, decides that equality for every candidate:
levels 0 and 1 by reading off where y and y less each scaled column are
zero, and from level 2 on by a sweep that compares each candidate's
partial sum or, where it costs less, by a join that sorts those
differences by their first word and looks up each candidate of level
w - 1 among them, confirming its other words.  It yields each level's
feasible ranks in canonical order, a level at a time, so the decoder
stops at the first level that has any.  Only the feasible candidates
are unranked into vectors (model.level_members).  error_events reads
both of its flags off the hit counts of the same scan on y = A x, and
unranks nothing.  As in model, the public call that receives an array
checks it, once, and the kernel trusts its callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .field import FiniteField
from .model import _check_entries, _ColumnTable, check_enumeration_cap
from .model import level_members, measure_candidates, pack_measurements


class DecodeStatus(str, Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    INFEASIBLE = "infeasible"


@dataclass
class DecodeResult:
    """Outcome of exhaustive minimum-weight recovery.

    min_sparsity is None iff no candidate of weight <= k_max is feasible.
    solutions holds every feasible candidate at the minimum weight, in
    enumeration order.
    """

    min_sparsity: int | None
    solutions: list[np.ndarray]
    status: DecodeStatus


@dataclass(frozen=True)
class ErrorEvents:
    """Per-instance error flags.

    e_error  : some candidate x' != x with weight <= weight(x) satisfies
               A x' = A x (the decoder could output it in place of x).
    e0_error : the decoder output is not exactly x (ambiguity counts).

    For this decoder the two are one event.  It counts ties as errors,
    so its output differs from x exactly when some x' != x of weight
    <= weight(x) is feasible: one lighter than x makes it stop at a
    level below x's, one of x's weight makes a tie at x's level.  x is
    feasible, so the scan's first feasible level is at most weight(x),
    and both flags are that level lying below weight(x) or holding two
    or more candidates: the rule montecarlo's batch flags apply.
    error_events computes that one event and reports it under both keys.
    """

    e0_error: bool
    e_error: bool


def decode_l0(field: FiniteField, matrix, y, k_max: int) -> DecodeResult:
    """Find all sparsest candidates x' with A x' = y and weight <= k_max; y has length m.

    Raises EnumerationCapExceeded if |L| at k_max is above
    model.ENUMERATION_CAP (10^8 candidates).
    """
    rows, y = np.asarray(matrix), np.asarray(y)
    if rows.ndim != 2 or y.shape != rows.shape[:1]:
        raise DimensionMismatch(f"measurements {y.shape} do not match matrix {rows.shape}")
    check_enumeration_cap(rows.shape[1], k_max, field.q)
    _check_entries(field.q, rows)
    # every candidate measures integers in 0..q-1; y is screened as
    # given, since a cast to int16 would wrap or truncate it into them:
    # integers by their range, other types (floats, bools, objects) by value
    if y.dtype.kind in "iu":
        inside = not y.size or (y.min() >= 0 and y.max() < field.q)
    else:
        inside = np.isin(y, np.arange(field.q)).all()
    if not inside:
        return DecodeResult(min_sparsity=None, solutions=[], status=DecodeStatus.INFEASIBLE)
    hits = _first_hits(field, rows, k_max, y)
    if hits is None:
        return DecodeResult(min_sparsity=None, solutions=[], status=DecodeStatus.INFEASIBLE)
    k, ranks = hits
    feasible = level_members(rows.shape[1], k, field.q, ranks)
    feasible.setflags(write=False)
    status = DecodeStatus.UNIQUE if len(feasible) == 1 else DecodeStatus.AMBIGUOUS
    return DecodeResult(min_sparsity=k, solutions=list(feasible), status=status)


def _first_hits(field: FiniteField, rows: np.ndarray, k_max: int, y):
    """The first level <= k_max that measures y and its members' ranks, or None; rows come checked."""
    for k, ranks in _ColumnTable(field, rows).levels(k_max, pack_measurements(field, y)):
        if ranks.size:
            return k, ranks
    return None


def error_events(field: FiniteField, matrix, x, k_max: int) -> ErrorEvents:
    """Evaluate both error events for a known signal x.

    Both flags are read off the hit counts of decode_l0's scan on
    y = A x.  x is feasible, so the scan stops by weight(x), and the
    decoder's output is not x alone, and some x' != x no heavier than
    x is feasible, exactly where that first feasible level lies below
    weight(x) or holds two or more candidates.  A scan that finds no
    feasible level up to weight(x) is a fault of the kernel and raises
    RuntimeError.  x must weigh at most k_max, and |L| at k_max must
    not be above model.ENUMERATION_CAP (10^8 candidates).
    """
    rows, xe = np.asarray(matrix), np.asarray(x)
    if rows.ndim != 2 or xe.shape != rows.shape[1:]:
        raise DimensionMismatch(f"signal {xe.shape} does not match matrix {rows.shape}")
    k1 = int(np.count_nonzero(xe))
    if k1 > k_max:
        raise ValueError(f"x has weight {k1}, above k_max = {k_max}")
    y = measure_candidates(field, rows, xe[None, :])[:, 0]  # checks A and x for the scan too
    check_enumeration_cap(rows.shape[1], k_max, field.q)
    hits = _first_hits(field, rows, k1, y)
    if hits is None:
        raise RuntimeError(f"no member of weight <= {k1} measures A x: the level kernel missed x")
    k, ranks = hits
    error = k < k1 or ranks.size > 1
    return ErrorEvents(e0_error=error, e_error=error)
