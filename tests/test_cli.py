import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffcs
from ffcs import cli, error_events, make_field, matrix_from_json, matvec, montecarlo, signal_from_json
from ffcs.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldCommand:
    def test_extension_field_report(self, capsys):
        code, out, err = run_cli(capsys, "field", "--q", "16")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["q"] == 16 and obj["p"] == 2 and obj["m"] == 4
        assert obj["reduction_poly_str"] == "x^4 + x + 1"
        assert set(obj["table_checksums"]) == {"add_table", "mul_table", "neg_table", "inv_table"}
        assert obj["meta"]["version"]

    def test_prime_field_has_no_poly(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--q", "7")
        assert code == 0
        assert json.loads(out)["reduction_poly"] is None

    def test_unsupported_order_is_parameter_error(self, capsys):
        code, out, err = run_cli(capsys, "field", "--q", "12")
        assert code == 1
        assert out == ""
        assert "parameter error" in err


class TestBoundCommand:
    def test_threshold_echo(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "1000", "--k", "200", "--m", "722", "--q", "2", "--gamma", "dense"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["sufficient_M"] == 722
        assert obj["necessary_M"] < 722
        assert obj["union_bound_log"] <= 0.0
        assert obj["union_bound_capped"] <= 1.0
        assert obj["meta"]["config"]["gamma"] == "dense"

    def test_literal_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "12", "--k", "3", "--m", "6", "--q", "4", "--gamma", "0.3"
        )
        assert code == 0
        assert json.loads(out)["meta"]["gamma_value"] == 0.3

    def test_invalid_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "5", "--k", "9", "--m", "2", "--q", "2")
        assert code == 1 and "parameter error" in err


class TestNhCommand:
    def test_verified_table(self, capsys):
        code, out, _ = run_cli(capsys, "nh", "--n", "2", "--k", "1", "--q", "2", "--verify")
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["all_pairs"] == {"1": 4, "2": 2}
        assert obj["restricted_pairs"] == {"1": 2, "2": 2}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "nh", "--n", "3", "--k", "1", "--q", "3", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "h,all_pairs,restricted_pairs"
        assert len(lines) == 3  # h = 1, 2


class TestCurveCommand:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        args = [
            "curve", "--n", "40", "--q", "2", "--q", "4",
            "--gamma", "dense", "--target", "1e-2", "--grid", "0.1,0.2,0.3",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        lines = [l for l in f1.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "q,gamma_mode,K,M,sparsity_ratio,compression_ratio,achieved"
        assert len(lines) == 1 + 2 * 3  # two fields, three grid points
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "dense" and first[6] == "true"

    def test_sparse_mode_label(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--n", "30", "--q", "4", "--gamma", "c=5", "--grid", "0.2"
        )
        assert code == 0
        data_line = [l for l in out.splitlines() if not l.startswith(("#", "q,"))][0]
        assert data_line.split(",")[1] == "c=5"

    def test_bad_target(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--n", "30", "--q", "2", "--target", "2.0")
        assert code == 1 and "parameter error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "1", "--q", "2"],  # the default ratios all round to K = 0
            ["--n", "100", "--q", "2", "--grid", "0.001"],
            ["--n", "100", "--q", "2", "--grid", "0"],
        ],
    )
    def test_grid_without_sparsity_level_is_parameter_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "curve", *argv)
        assert code == 1
        assert out == ""
        assert "parameter error" in err


class TestFieldOrderValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "50", "--k", "5", "--m", "20", "--q", "6"],
            ["curve", "--n", "50", "--q", "6", "--gamma", "dense", "--grid", "0.1"],
            ["curve", "--n", "50", "--q", "4", "--q", "6", "--grid", "0.1"],
            ["nh", "--n", "4", "--k", "2", "--q", "6"],
            # a prime, but far above the supported orders
            ["bound", "--n", "50", "--k", "5", "--m", "20", "--q", str(2**61 - 1)],
        ],
    )
    def test_unsupported_order_is_parameter_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    def test_prime_power_bounds_accepted(self, capsys):
        # GF(9) has no lookup tables here, but the analytic bounds depend
        # on q alone; n = 100 takes the log-domain profile path
        code, out, _ = run_cli(capsys, "bound", "--n", "100", "--k", "10", "--m", "40", "--q", "9")
        assert code == 0
        obj = json.loads(out)
        assert math.isclose(obj["union_bound_log"], obj["closed_dense_log"], rel_tol=1e-9)


class TestSimulateCommand:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "6", "--k", "2", "--m", "3", "--q", "2",
            "--gamma", "dense", "--trials", "200", "--seed", "42",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["trials"] == 200
        assert obj["e0_errors"] <= obj["e_errors"] <= 200
        assert obj["inclusion_violations"] == 0
        assert obj["seed"] == 42
        assert 0.0 <= obj["union_bound_value"] <= 1.0
        assert obj["meta"]["config"]["trials"] == 200

    def test_dump_writes_instances(self, capsys, tmp_path):
        dump = tmp_path / "dump"
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4",
            "--gamma", "0.5", "--trials", "3", "--seed", "1", "--dump", str(dump),
        )
        assert code == 0
        files = sorted(dump.iterdir())
        assert [f.name for f in files] == ["trial_00000.json", "trial_00001.json", "trial_00002.json"]
        inst = json.loads(files[0].read_text())
        assert inst["matrix"]["dims"] == [2, 5]
        assert inst["signal"]["dims"] == [5]
        assert inst["matrix"]["q"] == 4
        assert len(inst["y"]) == 2

    @pytest.mark.parametrize("q,gamma", [(3, "0.4"), (4, "dense")])
    def test_dumped_instances_reproduce_counts(self, capsys, tmp_path, q, gamma):
        dump = tmp_path / "dump"
        k = 2
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "5", "--k", str(k), "--m", "3", "--q", str(q),
            "--gamma", gamma, "--trials", "40", "--seed", "9", "--dump", str(dump),
        )
        assert code == 0
        obj = json.loads(out)
        field = make_field(q)
        files = sorted(dump.iterdir())
        assert len(files) == 40
        e0 = e = 0
        for path in files:
            inst = json.loads(path.read_text())
            mat = matrix_from_json(inst["matrix"])
            sig = signal_from_json(inst["signal"])
            assert inst["y"] == matvec(field, mat, sig).tolist()
            ev = error_events(field, mat, sig, k)
            e0 += ev.e0_error
            e += ev.e_error
        assert obj["e_errors"] > 0
        assert (obj["e0_errors"], obj["e_errors"]) == (e0, e)

    def test_dump_is_written_block_by_block(self, capsys, tmp_path, monkeypatch):
        argv = ["simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4",
                "--gamma", "0.5", "--trials", "10", "--seed", "3"]
        code, whole, _ = run_cli(capsys, *argv, "--dump", str(tmp_path / "whole"))
        assert code == 0
        # width max(|L|, q n) = 20 and m = 2: blocks of 3 trials
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 3 * 2 * 20)
        code, streamed, _ = run_cli(capsys, *argv, "--dump", str(tmp_path / "streamed"))
        assert code == 0
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "meta"}
        assert strip(streamed) == strip(whole)
        names = sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert names == [f"trial_{i:05d}.json" for i in range(10)]
        for name in names:
            assert (tmp_path / "streamed" / name).read_text() == (tmp_path / "whole" / name).read_text()

    def test_dump_draws_each_trial_once(self, capsys, tmp_path, monkeypatch):
        # every trial's stream is seeded by one row of _child_seed_words
        seed_words = montecarlo._child_seed_words
        drawn = []

        def counting(seed, start, stop):
            drawn.append(stop - start)
            return seed_words(seed, start, stop)

        monkeypatch.setattr(montecarlo, "_child_seed_words", counting)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 3 * 2 * 20)  # blocks of 3 trials
        monkeypatch.setattr(montecarlo, "_WINDOW_TRIALS", 6)  # drawn two blocks at a time
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4",
            "--gamma", "0.5", "--trials", "10", "--seed", "3", "--dump", str(tmp_path / "dump"),
        )
        assert code == 0
        assert drawn == [6, 4]
        assert len(list((tmp_path / "dump").iterdir())) == 10

    def test_negative_seed_is_parameter_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4",
            "--trials", "3", "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    def test_enumeration_cap_is_runtime_error(self, capsys):
        # candidate count is checked before any allocation, so an
        # impossibly large instance fails fast with exit code 2
        code, _, err = run_cli(
            capsys, "simulate", "--n", "60", "--k", "30", "--m", "3", "--q", "4", "--trials", "1"
        )
        assert code == 2 and "runtime error" in err

    def test_memory_error_is_runtime_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_trials", exhausted)
        code, out, err = run_cli(
            capsys, "simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4", "--trials", "3"
        )
        assert code == 2
        assert out == ""
        assert "runtime error: MemoryError" in err


# sha256 of the simulate JSON (no --dump) at n = 10, k = 2, m = 6, 2,000
# trials, seed 0, and of the --dump files of n = 6, k = 2, m = 4, 30
# trials, seed 5, concatenated in trial order.  Recorded at version 0.1.0;
# only a deliberate change of the seed scheme or the output format may
# move them, and it re-records them.
SIMULATE_SHA256 = {
    (3, "0.3"): "71f476918b0086650fff862e8a0a86a1d6a46f5a660a8d07b3034a0722256716",
    (4, "dense"): "263e682c86b71bd02cbf86585b4427ff4f734edb7817fbb332ed3cb7eaf92648",
    (2, "dense"): "098359f868bee36c59a0bac2547780258509190062075287bb714dc4700e93a2",
    (2, "0.3"): "8215a003a99369b32760c171c0317446126bfec92238e69bbdd94224d8aa790e",
}
DUMP_SHA256 = {
    (3, "0.4"): "2d7f5b7f08b8e4011ce739d3504db55b533a7786d8f6ae9c7d3687959444977c",
    (3, "dense"): "a353d030be374afd9a286d5fbe1f401f5b349e25aba35f823f8cc553986ac02e",
    (4, "0.4"): "01fb36f927a8278e756032e3c8a6cd745c93c72b1846664b89a61e8bfa888935",
    (4, "dense"): "ec25db64c6ef50db77743b89922ff185c2c78adef069335f2fe13a615f605bd3",
    (2, "dense"): "2806f869e33a05ea3b200734dc3d256c516e083d0bac34f527a0e2130f472616",
    (2, "0.4"): "2217f7bdada24abbf03de3b2e3f2c8748f75452f7030b3a1cb2aa934d4b866b9",
    (13, "0.4"): "5e367027a1347f44a034ebd0bf8539bbecc9cded5f53b3df19edbac97042a1a6",
}
# sha256 of the simulate JSON at n = 8, k = 1, m = 10, q = 251, dense,
# 2,000 trials, seed 0: ten 9-bit lanes take two words per matrix.  This
# pin and the q = 13 dump (5-bit lanes, 20 of a 32-bit word) were
# recorded with the row-by-row kernel that packed words replaced.
SIMULATE_TWO_WORD_SHA256 = "0ab83fa2891c1bcbff84499fbf77e047975096f45bfd7012bb93333165ade865"
# sha256 of the curve CSV at n = 1000 on two sparse-gamma grids, the path
# that builds the log pair-count profiles, and on the dense default grid
# over the paper's four fields (200 points).  Recorded at version 0.1.0;
# a faster profile build must leave every byte as it is.
CURVE_SHA256 = {
    ("--q", "4", "--gamma", "c=10", "--grid", "0.01,0.05,0.1,0.2,0.3"):
        "eb5eaf80c6451b68e0f78b5a227488ae1f67499708b32ae3e07ddb52281e0439",
    ("--q", "2", "--q", "16", "--gamma", "c=5", "--variant", "restricted", "--grid", "0.02,0.1,0.25"):
        "af2695062f9a42d7035f3d96c0f1c7db02307ecae78f43310964e236ad0ddaf9",
    ("--q", "2", "--q", "4", "--q", "16", "--q", "256"):
        "1990a43e148091599afd45d31bc819f03dec8081ef9e4b7a2852a39fe09d1ea4",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("q,gamma", list(SIMULATE_SHA256))
    def test_simulate_json_bytes(self, capsys, q, gamma):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "10", "--k", "2", "--m", "6", "--q", str(q),
            "--gamma", gamma, "--trials", "2000", "--seed", "0",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_SHA256[q, gamma]

    def test_simulate_two_word_json_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "8", "--k", "1", "--m", "10", "--q", "251",
            "--trials", "2000", "--seed", "0",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_TWO_WORD_SHA256

    @pytest.mark.parametrize("q,gamma", list(DUMP_SHA256))
    def test_dump_bytes(self, capsys, tmp_path, q, gamma):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "6", "--k", "2", "--m", "4", "--q", str(q),
            "--gamma", gamma, "--trials", "30", "--seed", "5", "--dump", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.iterdir())
        assert len(files) == 30
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        assert digest == DUMP_SHA256[q, gamma]

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], (), 7, -3, 2**70, 0.3, -0.0, 1e-300, float("inf"), float("nan"), None, True, "k\u00e9\"",
            [[]], [{}], [1, True], [0.5, 1], [None, 2], (1, [2, (3,)]),
            {"a": [], "b": {}, "c": [[0, 1], [2]], "d": {"e": None, "f": 0.75}, "\u00e9": False},
        ],
    )
    def test_dump_writer_formats_json_as_json_dumps_indent_2(self, value):
        # the --dump pins above cover the dump's own shape; these are the
        # other types and nestings the formatter may meet
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", list(CURVE_SHA256), ids=["q4-c10", "q2-q16-c5-restricted", "dense-default"])
    def test_curve_csv_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, "curve", "--n", "1000", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SHA256[argv]


class TestGammaValidation:
    @pytest.mark.parametrize("gamma", ["1.5", "0", "c=-1", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "12", "--k", "3", "--m", "6", "--q", "4"],
            ["simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4", "--trials", "3"],
        ],
    )
    def test_bad_gamma_is_parameter_error(self, capsys, argv, gamma):
        code, out, err = run_cli(capsys, *argv, "--gamma", gamma)
        assert code == 1
        assert out == ""
        assert "parameter error" in err


class TestFileErrors:
    def test_out_into_missing_directory_is_runtime_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bound", "--n", "12", "--k", "3", "--m", "6", "--q", "4",
            "--out", str(tmp_path / "missing" / "bound.json"),
        )
        assert code == 2
        assert out == ""
        assert "runtime error" in err

    def test_dump_under_regular_file_is_runtime_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys, "simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4",
            "--trials", "3", "--dump", str(blocker / "dump"),
        )
        assert code == 2
        assert out == ""
        assert "runtime error" in err


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert out == ""
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--frobnicate", "1")
        assert code == 1 and "usage" in err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def run_fresh(*argv):
    """main(argv) as the first call of a new process: (exit code, stdout, stderr)."""
    code = "import sys; from ffcs.cli import main; sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join(filter(None, [str(Path(ffcs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


CURVE_ARGS = ("curve", "--n", "20", "--grid", "0.1,0.2")


class TestParserReuse:
    # the parser is built once per process, so a call must leave nothing
    # in it for the next: each call answers as it would in a new process
    @pytest.mark.parametrize(
        "first,second",
        [
            ((*CURVE_ARGS, "--q", "2", "--q", "4"), (*CURVE_ARGS, "--q", "4")),
            (("bound", "--frobnicate", "1"), ("bound", "--n", "12", "--k", "3", "--m", "6", "--q", "4")),
            (("simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "4", "--trials", "3"), (*CURVE_ARGS, "--q", "2")),
        ],
        ids=["curve-then-fewer-q", "usage-error-then-bound", "simulate-then-curve"],
    )
    def test_a_call_leaves_no_state_for_the_next(self, capsys, first, second):
        assert run_cli(capsys, *first) == run_fresh(*first)
        assert run_cli(capsys, *second) == run_fresh(*second)

    def test_repeated_q_resets_between_calls(self, capsys):
        run_cli(capsys, *CURVE_ARGS, "--q", "2", "--q", "4")
        code, out, _ = run_cli(capsys, *CURVE_ARGS, "--q", "4")
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
        assert code == 0 and rows and all(row.startswith("4,") for row in rows)
        assert "# q: [4]\n" in out


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = "import ffcs, ffcs.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(Path(ffcs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
