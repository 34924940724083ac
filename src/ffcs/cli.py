"""Command-line interface.

Subcommands: field, bound, nh, curve, simulate.  Data goes to stdout (or
--out); diagnostics go to stderr only.  Exit codes: 0 success, 1
parameter/usage error, 2 runtime failure such as more than the 10^8
candidates of the enumeration cap, a fault of the level kernel, an
unwritable file or exhausted memory.

Every output embeds the tool version, the full parameter echo, the pair
variant, and the seed, so any emitted artifact can be regenerated from
its own metadata.  Probabilities appear both in natural-log domain and
as (possibly underflowing) linear values; the log value is authoritative.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .bounds import (
    PairVariant,
    closed_dense_bound,
    exponent_bound,
    fano_lower_bound,
    necessary_m,
    nh_count,
    nh_oracle,
    sufficient_m,
    union_bound,
)
from .curves import GammaMode, curve, default_k_grid
from .field import check_prime_power, make_field
from .model import ModelParams, check_signal_set, matrix_to_json, signal_to_json
from .montecarlo import run_trials


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through our own codes
    def error(self, message):
        raise _UsageError(message)


def _meta(args: argparse.Namespace, **extra) -> dict:
    skip = {"func", "out"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    meta = {"tool": "ffcs", "version": __version__, "config": params}
    meta.update(extra)
    return meta


def _write(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_out(payload: dict, out: str | Path | None) -> None:
    _write(_indented_json(payload) + "\n", out)


def _indented_json(value, indent: str = "") -> str:
    """The text of every JSON artifact: json.dumps' two-space indented form, built fast.

    json's C encoder does not indent, and its Python one was most of a
    dump's time.  Here an int is str(), a finite float float.__repr__
    and None null, as json writes them; a list of ints is joined at
    once, and keys and any other scalar (a bool, a string, an infinite
    float) go through json.dumps.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_json_key(k)}: {_indented_json(v, indent + '  ')}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if {*map(type, value)} == {int}:
            items = list(map(str, value))
        else:
            items = [_indented_json(v, indent + "  ") for v in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


_json_key = cache(json.dumps)


def _csv_out(header: list[str], rows: list[list], meta: dict, out: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# tool: ffcs {__version__}\n")
    for key, val in meta["config"].items():
        buf.write(f"# {key}: {val}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    _write(buf.getvalue(), out)


def _parse_gamma(text: str, q: int, n: int) -> tuple[float, str]:
    """Accept a literal gamma (ModelParams checks its range), 'dense' or 'c=<real>'."""
    try:
        gamma = float(text)
    except ValueError:
        mode = GammaMode.parse(text)
        return mode.resolve(q, n), mode.label
    return gamma, f"{gamma:g}"


# subcommand handlers --------------------------------------------------------


def _cmd_field(args) -> int:
    f = make_field(args.q)
    payload = {
        "meta": _meta(args),
        "q": f.q,
        "p": f.p,
        "m": f.m,
        "reduction_poly": f.reduction_poly,
        "reduction_poly_str": f.poly_str(),
        "table_checksums": f.table_checksums(),
    }
    _json_out(payload, args.out)
    return 0


def _cmd_bound(args) -> int:
    gamma, label = _parse_gamma(args.gamma, args.q, args.n)
    params = ModelParams(n=args.n, k=args.k, m=args.m, q=args.q, gamma=gamma)
    n, k, m, q = args.n, args.k, args.m, args.q
    union = union_bound(params, PairVariant(args.variant))
    # the dense formulas take (n, k, q, m) and ignore gamma
    closed = closed_dense_bound(n, k, q, m)
    exponent = exponent_bound(n, k, q, m)
    payload = {
        "meta": _meta(args, gamma_value=gamma, gamma_label=label),
        "union_bound_log": union.log_value,
        "union_bound_linear": union.linear,
        "union_bound_capped": union.capped_linear,
        "closed_dense_log": closed.log_value,
        "closed_dense_linear": closed.linear,
        "exponent_log": exponent.log_value,
        "exponent_linear": exponent.linear,
        "fano_lower": fano_lower_bound(n, k, q, m),
        "sufficient_M": sufficient_m(n, k, q),
        "necessary_M": necessary_m(n, k, q),
    }
    _json_out(payload, args.out)
    return 0


def _cmd_nh(args) -> int:
    counts_all = nh_count(args.n, args.k, args.q, PairVariant.ALL_PAIRS)
    counts_res = nh_count(args.n, args.k, args.q, PairVariant.RESTRICTED_PAIRS)
    verified = None
    if args.verify:
        oracle = nh_oracle(make_field(args.q), args.n, args.k)
        verified = oracle == {PairVariant.ALL_PAIRS: counts_all, PairVariant.RESTRICTED_PAIRS: counts_res}
    hs = sorted(set(counts_all) | set(counts_res))
    if args.format == "json":
        payload = {
            "meta": _meta(args),
            "verified": verified,
            "all_pairs": {str(h): counts_all.get(h, 0) for h in hs},
            "restricted_pairs": {str(h): counts_res.get(h, 0) for h in hs},
        }
        _json_out(payload, args.out)
    else:
        rows = [[h, counts_all.get(h, 0), counts_res.get(h, 0)] for h in hs]
        _csv_out(["h", "all_pairs", "restricted_pairs"], rows, _meta(args), args.out)
    if verified is False:
        print("pair-count verification FAILED", file=sys.stderr)
        return 2
    return 0


def _cmd_curve(args) -> int:
    if args.grid is not None:
        ratios = [float(r) for r in args.grid.split(",")]
        if any(not 0.0 <= r <= 1.0 for r in ratios):
            raise ValueError("grid ratios must lie in [0, 1]")
        k_grid = sorted({round(r * args.n) for r in ratios})
        k_grid = [k for k in k_grid if k >= 1]
    else:
        k_grid = default_k_grid(args.n)
    if not k_grid:
        raise ValueError(f"no sparsity level K >= 1 on the grid at n = {args.n}")
    mode = GammaMode.parse(args.gamma)
    rows = []
    for q in args.q:
        for pt in curve(
            args.n, q, mode, k_grid=k_grid, target=args.target,
            variant=PairVariant(args.variant),
        ):
            rows.append(
                [
                    pt.q,
                    pt.gamma_mode,
                    pt.k,
                    pt.m,
                    f"{pt.sparsity_ratio:.6g}",
                    f"{pt.compression_ratio:.6g}",
                    str(pt.achieved).lower(),
                ]
            )
    _csv_out(
        ["q", "gamma_mode", "K", "M", "sparsity_ratio", "compression_ratio", "achieved"],
        rows,
        _meta(args),
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    gamma, label = _parse_gamma(args.gamma, args.q, args.n)
    params = ModelParams(n=args.n, k=args.k, m=args.m, q=args.q, gamma=gamma)
    on_block = _dump_writer(params, args.seed, Path(args.dump)) if args.dump else None
    report = run_trials(params, args.trials, args.seed, on_block=on_block)
    payload = {
        "meta": _meta(args, gamma_value=gamma, gamma_label=label),
        "trials": report.trials,
        # e0 and e are one event: the v1 keys hold it twice, and never a violation
        "e0_errors": report.errors,
        "e_errors": report.errors,
        "e0_rate": report.rate,
        "e_rate": report.rate,
        "e0_ci": [report.ci_low, report.ci_high],
        "e_ci": [report.ci_low, report.ci_high],
        "inclusion_violations": 0,
        "union_bound_log": report.union_bound_log,
        "union_bound_value": report.union_bound_value,
        "fano_value": report.fano_value,
        "seed": report.seed,
    }
    _json_out(payload, args.out)
    return 0


def _dump_writer(params: ModelParams, seed: int, dump_dir: Path):
    """A run_trials on_block callback writing each trial's matrix, signal and y as JSON."""

    def write_block(start, mats, signals, y):
        # made here, so a run rejected before its first block leaves no directory
        dump_dir.mkdir(parents=True, exist_ok=True)
        for i, (rows, x, y_i) in enumerate(zip(mats, signals, y), start):
            obj = {
                "matrix": matrix_to_json(rows, params.q, params.gamma, seed),
                "signal": signal_to_json(x, params.q, seed),
                "y": y_i.astype(int).tolist(),
            }
            _json_out(obj, dump_dir / f"trial_{i:05d}.json")

    return write_block


# parser ----------------------------------------------------------------------


# built once per process: parsing leaves no state in it, and each handler
# reads the module's globals (run_trials, ...) when it runs, not when bound
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ffcs", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ffcs {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_field = sub.add_parser("field", help="inspect a field: polynomial and table checksums")
    p_field.add_argument("--q", type=int, required=True)
    p_field.add_argument("--out")
    p_field.set_defaults(func=_cmd_field)

    p_bound = sub.add_parser("bound", help="evaluate all bounds for one parameter tuple")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--gamma", default="dense", help="'dense', 'c=<real>', or a value in (0,1]")
    p_bound.add_argument("--variant", choices=[v.value for v in PairVariant], default="all")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=_cmd_bound)

    p_nh = sub.add_parser("nh", help="exact pair-distance counts (small parameters)")
    p_nh.add_argument("--n", type=int, required=True)
    p_nh.add_argument("--k", type=int, required=True)
    p_nh.add_argument("--q", type=int, required=True)
    p_nh.add_argument("--verify", action="store_true", help="cross-check against the exhaustive oracle")
    p_nh.add_argument("--format", choices=["json", "csv"], default="json")
    p_nh.add_argument("--out")
    p_nh.set_defaults(func=_cmd_nh)

    p_curve = sub.add_parser("curve", help="phase-transition curve(s), CSV")
    p_curve.add_argument("--n", type=int, required=True)
    p_curve.add_argument("--q", type=int, action="append", required=True,
                         help="field order; repeat for several curves")
    p_curve.add_argument("--gamma", default="dense", help="'dense' or 'c=<real>'")
    p_curve.add_argument("--target", type=float, default=1e-2)
    p_curve.add_argument("--grid", help="comma-separated K/N ratios (default 0.01..0.50)")
    p_curve.add_argument("--variant", choices=[v.value for v in PairVariant], default="all")
    p_curve.add_argument("--out")
    p_curve.set_defaults(func=_cmd_curve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo error-rate estimation")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--q", type=int, required=True)
    p_sim.add_argument("--gamma", default="dense")
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dump", help="directory for per-trial instance JSON dumps")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _validate(args: argparse.Namespace) -> None:
    if getattr(args, "n", 1) < 1:
        raise ValueError("n must be >= 1")
    if hasattr(args, "k"):
        check_signal_set(args.n, args.k, args.q)
    if getattr(args, "m", 1) < 1:
        raise ValueError("m must be >= 1")
    if hasattr(args, "target") and not 0.0 < args.target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    if getattr(args, "trials", 1) < 1:
        raise ValueError("trials must be >= 1")
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be a non-negative integer")
    qs = getattr(args, "q", [])
    for q in qs if isinstance(qs, list) else [qs]:
        check_prime_power(q)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValueError as exc:  # UnsupportedOrder, InvalidGamma and DimensionMismatch too
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, MemoryError) as exc:  # EnumerationCapExceeded too
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
