"""Run one ffcs benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload {curve,simulate,decode} --seed N \\
        --seconds S --trace {0,1} [--quick] [--record-digests]

Load shape: one caller, one thread, closed loop; every run is a fresh
process.  The workload body is repeated ceil(S / nominal) times
("rounds"), each round on fresh inputs drawn from (seed, round), so the
amount of work depends only on S and never on the machine's speed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from spans recorded around ffcs functions (see spans.py); the spans are
also written to .bench_out/.  The last stdout line is the result object;
the line before it holds the environment and run record.  Output checks
run outside the timed region; an exception or a failed check counts the
operation as failed.  For seed 0 the outputs of round 0 must also match
the sha256 digests in digests.json byte for byte.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
TRACE_DIR = ROOT / ".bench_out"

# seconds one round takes on the reference machine (a 2-core Xeon VM,
# Python 3.11); a run does the fewest whole rounds that cover --seconds
NOMINAL_ROUND_S = {"curve": 15.0, "simulate": 12.0, "decode": 10.0}
SETUP_SAMPLES = 3

# The speed of the reference machine, a VM shared with other tenants,
# swings by 15-30 % within seconds and drifts over minutes; the same
# decode_l0 call was seen to take 0.95 s and 1.98 s.  No amount of work in one run averages that
# out, so each timed call is bracketed by samples of a fixed reference
# computation that runs no ffcs code, and its time is multiplied by
# REF_NOMINAL_S / (mean reference sample around it).  Reported times are
# thus "reference seconds": the time on a machine where one reference
# sample takes REF_NOMINAL_S.  Raw times stay in the run record.
# REF_NOMINAL_S only fixes the unit; changing it rescales every result.
REF_NOMINAL_S = 0.075
REF_ELEMS = 1 << 18
REF_PER_GAP = 2
GAP_MIN_S = 0.5


class Reference:
    """Samples a fixed mix of interpreter and memory-bound numpy work."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._arr = np.linspace(0.0, 1.0, REF_ELEMS)
        self.samples: list[float] = []

    def _sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(8):
            self._np.logaddexp(self._arr, self._arr[::-1]).sum()
        return time.perf_counter() - t0

    def gap(self) -> float:
        """Mean of REF_PER_GAP fresh samples."""
        vals = [self._sample() for _ in range(REF_PER_GAP)]
        self.samples += vals
        return sum(vals) / len(vals)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from raw to reference seconds for work between two gaps."""
        return 2.0 * REF_NOMINAL_S / (before + after)


SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ffcs; "
    "[ffcs.make_field(int(q)) for q in sys.argv[2:]]; print('ready', flush=True)"
)


def import_ffcs():
    """Import ffcs from this checkout's src/, never from anywhere else."""
    if not (SRC / "ffcs" / "__init__.py").is_file():
        sys.exit(f"error: no ffcs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ffcs
    import ffcs.cli

    if SRC not in Path(ffcs.__file__).resolve().parents:
        sys.exit(f"error: ffcs was imported from {ffcs.__file__}, not from {SRC}")
    return ffcs


def setup_sample(qs) -> float:
    """Seconds from starting a fresh interpreter until ffcs is imported and
    the workload's fields are built."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, qs)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"error: set-up process failed with exit code {proc.returncode}")
    return elapsed


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced inputs and one round: a self-test in seconds")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's round-0 output digests (seed 0 only)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.record_digests and args.seed != 0:
        p.error("--record-digests needs --seed 0")
    return args


def run_rounds(wl, ffcs, tracer, ref, args, size, fields, rounds):
    """The timed region: every call of every round.  Reference samples are
    taken before the first call and again whenever GAP_MIN_S of call time
    has passed, never inside a call; each call is scaled by the gaps
    around it."""
    done = []  # [round, call, result or None, raw seconds, scale]
    walls = []
    for rnd in range(rounds):
        calls = wl.BUILDERS[args.workload](ffcs, tracer, size, args.seed, rnd, fields)
        before = ref.gap()
        pending = []
        for pos, call in enumerate(calls):
            t0 = time.perf_counter()
            try:
                res = call.run()
            except Exception:
                traceback.print_exc()
                res = None
            pending.append([rnd, call, res, time.perf_counter() - t0, None])
            if sum(d[3] for d in pending) >= GAP_MIN_S or pos == len(calls) - 1:
                after = ref.gap()
                for d in pending:
                    d[4] = ref.scale(before, after)
                done += pending
                pending = []
                before = after
        walls.append(sum(d[3] * d[4] for d in done if d[0] == rnd))
    return done, walls


def measure_setup(ref, qs) -> tuple[list[float], list[float]]:
    """SETUP_SAMPLES set-up times, scaled and raw."""
    scaled, raw = [], []
    before = ref.gap()
    for _ in range(SETUP_SAMPLES):
        secs = setup_sample(qs)
        after = ref.gap()
        scaled.append(secs * ref.scale(before, after))
        raw.append(secs)
        before = after
    return scaled, raw


def check_results(done, args, profile) -> dict:
    """Output checks and, for seed 0, digest comparison; outside the timed region."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = digests.get(profile, {}).get(args.workload, {})
    recorded = {}
    out = {"attempted": 0, "failed": 0, "items": 0, "item_s": 0.0,
           "unique": 0, "decodes": 0}
    for rnd, call, res, secs, scale in done:
        out["attempted"] += call.ops
        if res is None:
            out["failed"] += call.ops
            continue
        out["items"] += res["items"]
        out["item_s"] += secs * scale
        if "decode" in res:
            out["decodes"] += 1
            out["unique"] += res["decode"].status.value == "unique"
        digest = sha256(res["text"])
        if rnd == 0 and args.seed == 0 and call.ops:
            recorded[call.key] = digest
            if not args.record_digests and expected.get(call.key) != digest:
                print(f"digest mismatch: {args.workload} {call.key}", file=sys.stderr)
                out["failed"] += call.ops
                continue
        try:
            bad = call.check(res)
        except Exception:
            traceback.print_exc()
            bad = call.ops
        if bad:
            print(f"check failed: {args.workload} round {rnd} {call.key}: {bad} op(s)",
                  file=sys.stderr)
        out["failed"] += bad
    if args.record_digests:
        digests.setdefault(profile, {})[args.workload] = recorded
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    ffcs = import_ffcs()
    sys.path.insert(0, str(BENCH))
    import spans as tr
    import workloads as wl

    profile = "quick" if args.quick else "full"
    size = wl.SIZES[profile][args.workload]
    qs = wl.FIELDS[args.workload]
    rounds = 1 if args.quick else math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload])

    tracer = tr.Tracer()
    tracer.enabled = bool(args.trace)
    if args.trace:
        tracer.install({name: getattr(ffcs, name, None) for name in
                        ("bounds", "cli", "curves", "decoder", "montecarlo")})
    ref = Reference()
    setup, raw_setup = ([], []) if args.trace else measure_setup(ref, qs)
    fields = {}
    for q in qs:
        with tracer.span("field.make_field"):
            fields[q] = ffcs.make_field(q)

    done, walls = run_rounds(wl, ffcs, tracer, ref, args, size, fields, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    res = check_results(done, args, profile)

    # span times get the run's overall raw-to-reference factor
    raw_total = sum(d[3] for d in done)
    speed = sum(d[3] * d[4] for d in done) / raw_total if raw_total else 1.0
    wall_s = statistics.median(walls)
    if args.trace:
        extra = {
            "curve_points": res["items"] if args.workload == "curve" else 0,
            "candidates_scanned": res["items"] if args.workload == "decode" else 0,
            "unique_decodes": res["unique"],
            "decode_calls": res["decodes"],
            "wall_s": wall_s,
        }
        metrics = tr.layer_metrics(tracer, extra, speed)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        item_s = res["item_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": res["items"] / item_s if item_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": profile,
        "trace": args.trace,
        "rounds": rounds,
        "speed": speed,
        "round_walls_s": walls,
        "raw_call_s": [d[3] for d in done],
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "raw_reference_samples_s": ref.samples,
        "item": wl.ITEM[args.workload],
        "items": res["items"],
        "error_ratio": failed / attempted if attempted else 1.0,
        "outputs_sha256": sha256("".join(d[2]["text"] for d in done if d[2])),
        "computed_counts": tr.COMPUTED_COUNTS,
        "absent": sorted(tracer.absent),
        "env": environment(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
