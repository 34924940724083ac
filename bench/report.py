"""Run the benchmark over several seeds and print every metric by name and unit.

    python3 bench/report.py [--workloads curve simulate decode]
        [--seeds 0 1] [--trace] [--quick] [--out FILE]

Each (workload, seed) is one untraced run of bench/run.py, plus one
traced run with --trace.  Per workload it prints the median, quartiles
and quartile spread (as a share of the median) of each end-to-end
metric next to the bound in BENCHMARK.json, the error ratio, and, for
traced runs, the per-layer medians, the tracing overhead (traced wall_s
over untraced wall_s) and whether traced outputs matched untraced ones
byte for byte.  --out also writes everything, with the environment, as
JSON.  Runs are sequential so they never compete for the two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int, quick: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["info"] = json.loads(lines[-2])["info"]
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()

    record = {"seconds": args.seconds, "seeds": args.seeds, "quick": args.quick,
              "workloads": {}}
    ok = True
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            untraced = run_once(w, seed, args.seconds, 0, args.quick)
            traced = run_once(w, seed, args.seconds, 1, args.quick) if args.trace else None
            runs.append((seed, untraced, traced))
            print(f"{w} seed {seed}: wall_s {untraced['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr)
        attempted = sum(r["attempted"] + (t["attempted"] if t else 0) for _, r, t in runs)
        failed = sum(r["failed"] + (t["failed"] if t else 0) for _, r, t in runs)
        rec = {"error_ratio": failed / attempted, "attempted": attempted, "failed": failed,
               "env": runs[0][1]["info"]["env"], "end_to_end": {}, "per_layer": {},
               "runs": [{"seed": seed, "untraced": r, "traced": t} for seed, r, t in runs]}
        ok &= failed == 0
        print(f"\n== {w}  ({len(runs)} seeds, item = {runs[0][1]['info']['item']})")
        print(f"   error_ratio {rec['error_ratio']:.4g}  ({failed} of {attempted} ops failed)")
        print(f"   {'metric':<32}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound/3':>9}")
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for _, r, _ in runs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            rec["end_to_end"][m["name"]] = s
            flag = "" if m["name"] == "setup_s" or s["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"   {m['name']:<32}{m['unit']:<7}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.3%}{m['bound'] / 3:>9.3%}{flag}")
        if args.trace:
            same = all(r["info"]["outputs_sha256"] == t["info"]["outputs_sha256"]
                       for _, r, t in runs)
            ok &= same
            wall = statistics.median(r["metrics"]["wall_s"]["value"] for _, r, _ in runs)
            for m in spec["per_layer"]:
                vals = [t["metrics"][m["name"]]["value"] for _, _, t in runs]
                if any(v is None for v in vals):
                    rec["per_layer"][m["name"]] = None
                    print(f"   {m['name']:<32}{m['unit']:<7}{'absent':>14}")
                    continue
                s = summarize(vals)
                s["unit"] = m["unit"]
                if m["unit"] == "s" and m["name"] != "trace.wall_s":
                    # layer times are summed over the run's rounds
                    s["share_of_wall"] = statistics.median(
                        v / sum(t["info"]["round_walls_s"]) for v, (_, _, t) in zip(vals, runs))
                rec["per_layer"][m["name"]] = s
                share = f"{s['share_of_wall']:>9.1%} of wall" if "share_of_wall" in s else ""
                print(f"   {m['name']:<32}{m['unit']:<7}{s['median']:>14.6g}{share}")
            traced_wall = rec["per_layer"]["trace.wall_s"]["median"]
            rec["trace_overhead"] = traced_wall / wall - 1.0
            rec["traced_outputs_identical"] = same
            print(f"   tracing overhead {rec['trace_overhead']:+.2%} on wall_s; "
                  f"traced outputs byte-identical: {same}")
        record["workloads"][w] = rec
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
