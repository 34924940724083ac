"""The three workloads: seeded inputs, the timed calls into ffcs, and output checks.

Each workload round is a list of calls.  A call runs inside the timed
region and returns its output; its check runs afterwards, outside the
timed region, and returns how many of the call's operations failed.  An
operation is one curve point, one simulate config or one decode
instance.

Why these workloads:

* ``curve`` is the analytic path at n = 1000.  Building the log
  pair-count profile (``bounds.nh_log_profile``) is nearly all of its
  cost; the c = 10 pass reuses the cached q = 4 profiles.
* ``simulate`` is seeded Monte Carlo through the CLI.  ``montecarlo``
  does the work: per-trial RNG setup dominates prime q, the GF(2^m)
  gather kernel dominates q = 4, and the 100k-trial config shows memory
  growing with the trial count.
* ``decode`` is exhaustive minimum-weight recovery on instances the
  benchmark draws.  Python-loop enumeration and the measurement kernel
  dominate; ``bounds`` and ``montecarlo`` do nothing here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

# Inputs per size.  The seed moves curve K inside fixed-width bands and
# draws decode matrices and signals; it never changes how much work a
# round does, so runs on different seeds stay comparable.
SIZES = {
    "full": {
        "curve": {"n": 1000, "bands": [26 + 30 * i for i in range(10)], "width": 5},
        "simulate": {"n": 10, "k": 2, "m": 6, "trials": 10_000, "big_trials": 100_000},
        # (q, m, signal weight).  The weight-3 signals at m = 7, two above
        # the threshold log_q |L| ~ 5, scan all of L and are almost always
        # unique, so their cost does not depend on the seed; the weight-1
        # and weight-2 signals stop the decoder early, and m = 3 makes them
        # ambiguous.
        "decode": {"n": 12, "k": 3, "shapes": [
            (16, 7, 3), (13, 7, 3), (13, 7, 3),
            (16, 4, 2), (16, 3, 2), (13, 3, 2), (13, 4, 1), (16, 3, 1),
        ]},
    },
    "quick": {
        "curve": {"n": 200, "bands": [5 + 6 * i for i in range(10)], "width": 2},
        "simulate": {"n": 8, "k": 2, "m": 5, "trials": 500, "big_trials": 2_000},
        "decode": {"n": 8, "k": 2, "shapes": [
            (16, 4, 2), (13, 4, 2), (16, 3, 2), (13, 2, 1), (16, 2, 1),
        ]},
    },
}

# field orders built during set-up, per workload
FIELDS = {"curve": (), "simulate": (2, 3, 4), "decode": (16, 13)}

CURVE_TARGET = 1e-2
CURVE_SPARSE_C = 10.0
SIM_GAMMAS = ("dense", "0.3")


@dataclass
class Call:
    key: str  # stable name of the call within a round, used for digests
    ops: int
    run: Callable[[], dict]  # timed; returns at least {"rc", "text", "items"}
    check: Callable[[dict], int]  # outside the timed region; failed ops


def _cli(ffcs, tracer, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = ffcs.cli.main(argv)
    return rc, buf.getvalue()


# curve ------------------------------------------------------------------------


def _curve_ks(size: dict, seed: int, rnd: int) -> list[int]:
    """One K per band; round r shifts every offset by r, so rounds never
    share a K and never hit each other's cached profiles."""
    rng = np.random.default_rng([seed, 1])
    offs = rng.integers(0, size["width"], size=len(size["bands"]))
    return [lo + int((o + rnd) % size["width"]) for lo, o in zip(size["bands"], offs)]


def _dense_threshold(n: int, k: int, q: int, target: float) -> int:
    """Smallest m with (|L| - 1) q^-m <= target, in exact rational arithmetic."""
    excess = sum(math.comb(n, j) * (q - 1) ** j for j in range(k + 1)) - 1
    t = Fraction(target)
    m = max(1, int((math.log(excess) - math.log(target)) / math.log(q)) - 2)
    while excess * t.denominator > t.numerator * q**m:
        m += 1
    return m


def _check_point(text: str, n: int, q: int, k: int, gamma: float, dense: bool) -> bool:
    from ffcs.bounds import union_bound
    from ffcs.model import ModelParams

    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    if len(rows) != 1:
        return False
    q_out, _mode, k_out, m, _sr, _cr, achieved = rows[0].split(",")
    m = int(m)
    if (int(q_out), int(k_out), achieved) != (q, k, "true"):
        return False
    log_target = math.log(CURVE_TARGET)
    if union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)).log_value > log_target:
        return False
    if m > 1 and union_bound(ModelParams(n=n, k=k, m=m - 1, q=q, gamma=gamma)).log_value <= log_target:
        return False
    return not dense or m == _dense_threshold(n, k, q, CURVE_TARGET)


def curve_calls(ffcs, tracer, size: dict, seed: int, rnd: int, fields: dict) -> list[Call]:
    """One CLI call per (pass, q, K), in the order of ``curve --q 2 --q 4
    --gamma dense`` followed by ``curve --q 4 --gamma c=10`` over the same
    grid, so the second pass hits the q = 4 profiles of the first.  Single
    points keep each call short enough to bracket with reference samples."""
    n = size["n"]
    ks = _curve_ks(size, seed, rnd)
    passes = [("dense", 2, "dense"), ("dense", 4, "dense"),
              ("c=10", 4, f"c={CURVE_SPARSE_C:g}")]
    calls = []
    for label, q, gamma_arg in passes:
        dense = label == "dense"
        gamma = 1.0 - 1.0 / q if dense else CURVE_SPARSE_C * math.log(n) / n
        for i, k in enumerate(ks):
            argv = ["curve", "--n", str(n), "--q", str(q), "--gamma", gamma_arg,
                    "--grid", f"{k / n:.6g}"]

            def run(argv=argv):
                rc, text = _cli(ffcs, tracer, argv)
                return {"rc": rc, "text": text, "items": 1}

            def check(res, q=q, k=k, gamma=gamma, dense=dense):
                return int(res["rc"] != 0 or not _check_point(res["text"], n, q, k, gamma, dense))

            calls.append(Call(key=f"{label}-q{q}-{i}", ops=1, run=run, check=check))
    return calls


# simulate -----------------------------------------------------------------------


def _check_simulate(res: dict, trials: int, seed: int) -> int:
    if res["rc"] != 0:
        return 1
    out = json.loads(res["text"])
    ok = (
        out["trials"] == trials
        and out["seed"] == seed
        and out["inclusion_violations"] == 0
        and 0 <= out["e0_errors"] <= out["e_errors"] <= trials
    )
    return int(not ok)


def simulate_calls(ffcs, tracer, size: dict, seed: int, rnd: int, fields: dict) -> list[Call]:
    run_seed = seed + rnd * 10**9
    configs = [(q, g, size["trials"]) for q in FIELDS["simulate"] for g in SIM_GAMMAS]
    configs.append((2, "dense", size["big_trials"]))
    calls = []
    for q, gamma, trials in configs:
        argv = ["simulate", "--n", str(size["n"]), "--k", str(size["k"]),
                "--m", str(size["m"]), "--q", str(q), "--gamma", gamma,
                "--trials", str(trials), "--seed", str(run_seed)]

        def run(argv=argv, trials=trials):
            rc, text = _cli(ffcs, tracer, argv)
            return {"rc": rc, "text": text, "items": trials}

        def check(res, trials=trials):
            return _check_simulate(res, trials, run_seed)

        calls.append(Call(key=f"q{q}-{gamma}-{trials}", ops=1, run=run, check=check))
    return calls


# decode -------------------------------------------------------------------------


def _reference_matvec(field, rows: np.ndarray, x: np.ndarray) -> list[int]:
    """A x through the field's add and mul tables, one entry at a time."""
    add, mul = field.add_table, field.mul_table
    return [
        int(reduce(lambda acc, j: add[acc, mul[row[j], x[j]]], range(len(x)), 0))
        for row in rows
    ]


def _level_sizes(n: int, k: int, q: int) -> list[int]:
    return [math.comb(n, j) * (q - 1) ** j for j in range(k + 1)]


def _check_decode(dec, ev, field, rows, x, y) -> int:
    if dec is None:
        return 1
    w = int(np.count_nonzero(x))
    ms = dec.min_sparsity
    sols = dec.solutions
    ok = ms is not None and ms <= w and len(sols) >= 1
    ok = ok and all(
        int(np.count_nonzero(s)) == ms and _reference_matvec(field, rows, s) == y for s in sols
    )
    ok = ok and len({bytes(np.asarray(s, dtype=np.int16)) for s in sols}) == len(sols)
    ok = ok and (dec.status.value == "unique") == (len(sols) == 1)
    if ok and ms == w:
        ok = any(np.array_equal(s, x) for s in sols)
    exact = ok and dec.status.value == "unique" and np.array_equal(sols[0], x)
    ok = ok and ev.e0_error == (not exact) and (ev.e_error or not ev.e0_error)
    return int(not ok)


def decode_calls(ffcs, tracer, size: dict, seed: int, rnd: int, fields: dict) -> list[Call]:
    """Two calls per instance, decode_l0 then error_events, each short
    enough to bracket with reference samples.  The instance is the
    operation; its output text and checks ride on the error_events call."""
    from ffcs import decoder

    n, k = size["n"], size["k"]
    rng = np.random.default_rng([seed, 3, rnd])
    calls = []
    for i, (q, m, w) in enumerate(size["shapes"]):
        field = fields[q]
        rows = rng.integers(0, q, size=(m, n)).astype(np.int16)
        x = np.zeros(n, dtype=np.int16)
        x[rng.choice(n, size=w, replace=False)] = rng.integers(1, q, size=w)
        y = _reference_matvec(field, rows, x)
        levels = _level_sizes(n, k, q)
        state = {}

        def run_decode(field=field, rows=rows, y=y, levels=levels, state=state):
            with tracer.span("decoder.decode_l0"):
                dec = decoder.decode_l0(field, rows, np.asarray(y, dtype=np.int16), k)
            state["decode"] = dec
            stop = k if dec.min_sparsity is None else dec.min_sparsity
            return {"rc": 0, "text": "", "items": sum(levels[: stop + 1]), "decode": dec}

        def run_events(field=field, rows=rows, x=x, state=state):
            with tracer.span("decoder.error_events"):
                ev = decoder.error_events(field, rows, x, k)
            dec = state.get("decode")
            text = json.dumps({
                "status": dec and dec.status.value,
                "min_sparsity": dec and dec.min_sparsity,
                "solutions": [s.astype(int).tolist() for s in dec.solutions] if dec else None,
                "e0_error": ev.e0_error,
                "e_error": ev.e_error,
            })
            return {"rc": 0, "text": text, "items": 0, "events": ev}

        def check(res, field=field, rows=rows, x=x, y=y, state=state):
            return _check_decode(state.get("decode"), res["events"], field, rows, x, y)

        key = f"{i}-q{q}-m{m}-w{w}"
        calls.append(Call(key=f"{key}-decode", ops=0, run=run_decode, check=lambda res: 0))
        calls.append(Call(key=f"{key}-events", ops=1, run=run_events, check=check))
    return calls


BUILDERS = {"curve": curve_calls, "simulate": simulate_calls, "decode": decode_calls}

# what one work item is, per workload, for items_per_s (items per second
# of call time); decode_l0's scan is computed from its min_sparsity, and
# the time includes the error_events call on the same instance
ITEM = {"curve": "curve point", "simulate": "Monte Carlo trial",
        "decode": "decode_l0 candidate scanned"}
