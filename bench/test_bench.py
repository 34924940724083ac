"""Quick self-test of the benchmark: reduced inputs, checks and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_pass_untraced_and_traced(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, info = parse(run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] is not None
        digests.append(info["outputs_sha256"])
    assert digests[0] == digests[1], "traced outputs differ from untraced outputs"


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_fails_without_program_sources(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = run("decode", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digest_mismatch_counts_as_failure(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    path = tmp_path / "bench" / "digests.json"
    digests = json.loads(path.read_text())
    key = sorted(digests["quick"]["simulate"])[0]
    digests["quick"]["simulate"][key] = "0" * 64
    path.write_text(json.dumps(digests))
    result, info = parse(run("simulate", 0, root=tmp_path))
    assert not result["correct"]
    assert result["failed"] == 1
    assert info["error_ratio"] == pytest.approx(1 / result["attempted"])


def test_removed_function_marks_metrics_absent():
    sys.path.insert(0, str(BENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install({name: types.SimpleNamespace() for name in
                    ("bounds", "cli", "curves", "decoder", "montecarlo")})
    extra = {"curve_points": 0, "candidates_scanned": 0, "unique_decodes": 0,
             "decode_calls": 0, "wall_s": 1.0}
    metrics = spans.layer_metrics(tracer, extra, 1.0)
    assert metrics["bounds.profile_miss_s"]["value"] is None
    assert metrics["model.measure_ops"]["value"] is None
    assert metrics["decoder.decode_s"]["value"] == 0
