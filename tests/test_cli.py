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

    def test_no_row_annihilates_one_entry_at_gamma_one(self, capsys):
        # the only confusable pair differs in one entry, and at gamma = 1
        # every entry is nonzero: the union bound is exactly 0
        code, out, _ = run_cli(capsys, "bound", "--n", "1", "--k", "1", "--m", "1", "--q", "3", "--gamma", "1")
        assert code == 0
        assert '"union_bound_log": -Infinity,' in out and '"union_bound_linear": 0.0,' in out
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "1", "--k", "1", "--m", "1", "--q", "3", "--gamma", "1", "--trials", "50",
        )
        obj = json.loads(out)
        assert code == 0 and obj["e_errors"] == 0 and obj["union_bound_value"] == 0.0


class TestNhCommand:
    def test_verified_table(self, capsys):
        code, out, _ = run_cli(capsys, "nh", "--n", "2", "--k", "1", "--q", "2", "--verify")
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["all_pairs"] == {"1": 4, "2": 2}
        assert obj["restricted_pairs"] == {"1": 2, "2": 2}

    def test_verification_failure_is_runtime_error(self, capsys, monkeypatch):
        # an oracle that disagrees with the closed form exits 2, after the table
        real = cli.nh_oracle

        def disagree(*args):
            tables = real(*args)
            table = next(iter(tables.values()))
            table[1] += 1
            return tables

        monkeypatch.setattr(cli, "nh_oracle", disagree)
        code, out, err = run_cli(capsys, "nh", "--n", "2", "--k", "1", "--q", "2", "--verify")
        assert code == 2
        assert json.loads(out)["verified"] is False
        assert "pair-count verification FAILED" in err

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
            ["--n", "100", "--q", "2", "--grid", ""],  # an empty grid, not the default one
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

    @pytest.mark.parametrize("q", ["9", "257"])
    def test_orders_without_tables_are_parameter_errors_for_instances(self, capsys, tmp_path, q):
        # the analytic path takes GF(9) and GF(257); field and simulate
        # need tables, and a refused simulate leaves no dump directory
        dump = tmp_path / "dump"
        for argv in (
            ["field", "--q", q],
            ["simulate", "--n", "4", "--k", "1", "--m", "3", "--q", q, "--dump", str(dump)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert "parameter error" in err
        assert not dump.exists()

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

    def test_dump_at_n_1000_unranks_only_the_drawn_signals(self, capsys, tmp_path):
        # |L| = 4,498,501 at n = 1000, k = 2, q = 4: a dump that built all
        # of L as int16 rows would ask for 8.4 GiB and exit 2
        dump = tmp_path / "dump"
        code, _, err = run_cli(
            capsys, "simulate", "--n", "1000", "--k", "2", "--m", "15", "--q", "4",
            "--trials", "2", "--seed", "7", "--dump", str(dump),
        )
        assert code == 0, err
        files = sorted(dump.iterdir())
        assert [f.name for f in files] == ["trial_00000.json", "trial_00001.json"]
        field = make_field(4)
        for path in files:
            inst = json.loads(path.read_text())
            mat, sig = matrix_from_json(inst["matrix"]), signal_from_json(inst["signal"])
            assert inst["y"] == matvec(field, mat, sig).tolist()

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

    def test_kernel_fault_is_runtime_error(self, capsys, kernel_misses_first_trial):
        # a level kernel that misses a trial's own signal stops the run
        # with exit 2 and one line, not a count or a traceback
        code, out, err = run_cli(
            capsys, "simulate", "--n", "10", "--k", "2", "--m", "6", "--q", "3",
            "--gamma", "0.5", "--trials", "500",
        )
        assert code == 2
        assert out == ""
        assert err == "runtime error: the level kernel missed the signal of trial 0 of its block\n"


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
# sha256 of the simulate JSON at n = 1000, k = 2, q = 4, m = 60, c = 10,
# 200 trials, seed 7: |L| = 4.5e6, so a block holds one trial, and its
# two-word measurements take the one-matrix join from level 2 on.
# Recorded while those scans still took the sweep.
SIMULATE_JOIN_SHA256 = "d8de87dd9c458a6e31dbf45f10c1ef56656444060825cb66cfe8ef156a9257a4"
# sha256 of the simulate JSON at n = 6, k = 2, m = 5, q = 7, dense,
# 20,000 trials, seed 3: blocks of 363 trials, draw windows of several
# blocks (3,993 trials under 4,096-trial windows, 6,171 under 6,400),
# and 31 trials whose Lemire value or rank draw rejects and is drawn
# again through Generator.  Recorded with 4,096-trial windows.
SIMULATE_WINDOWS_SHA256 = "65921bac945eb3857dde39654e2140f201faebfba6aa98e59f7a528b8e5b62df"
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

# sha256 of the field, bound and nh artifacts, one argv each.  The bound
# pins stay at n <= 64, where the union bound takes its exact-integer
# branch.  Recorded while _json_out still called json.dumps, before every
# JSON artifact went through the dump's formatter.
ARTIFACT_SHA256 = {
    ("bound", "--n", "10", "--k", "2", "--m", "6", "--q", "4", "--gamma", "0.3"):
        "082397fc3b6a9ac4f1b94d7caa04414e89c7fd5e44fc8a73e15204b1c315f88e",
    ("bound", "--n", "64", "--k", "10", "--m", "20", "--q", "16"):
        "8f272df7f0a775fb4c90074705850327e946064955e2f6bf164e28c04f38bcc2",
    ("bound", "--n", "40", "--k", "5", "--m", "12", "--q", "9", "--gamma", "c=5", "--variant", "restricted"):
        "6bcee24dc75028f3deec7a93d44ee3801a94267898aa33fe92047d2811b5a671",
    ("field", "--q", "256"): "65a5d146cc2cead9b9d2ea126d84709a05ecca0898e7f61576a12bc534d32a2a",
    ("field", "--q", "251"): "6995f2e313938ea618aa9ad543ecb18cfce562a35a709eeb468794ca51eb86f3",
    ("nh", "--n", "6", "--k", "3", "--q", "4", "--verify"):
        "3fe66462b562b7aeee1f87798c9ae03899fda972b890fa10d385784b5731b062",
    ("nh", "--n", "6", "--k", "3", "--q", "4", "--verify", "--format", "csv"):
        "7c88d3b8b6d8c1e6918da40e7e585ccf3951b442e81a8a5af6f67caaae676045",
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

    def test_simulate_one_trial_join_json_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "1000", "--k", "2", "--q", "4", "--m", "60",
            "--gamma", "c=10", "--trials", "200", "--seed", "7",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_JOIN_SHA256

    def test_simulate_across_draw_windows_json_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "6", "--k", "2", "--m", "5", "--q", "7",
            "--trials", "20000", "--seed", "3",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_WINDOWS_SHA256

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
            # the shapes of the field, bound, nh and simulate payloads
            float("-inf"), 2**64 + 1, False, {"add_table": "9f0c", "mul_table": "e1"}, [0.0, 0.00123],
            {"verified": None, "all_pairs": {"1": 2**65, "2": 0}, "up": [True, False], "log": -math.inf},
        ],
    )
    def test_dump_writer_formats_json_as_json_dumps_indent_2(self, value):
        # the pins above cover every artifact's own shape; these are the
        # other types and nestings the formatter may meet
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "argv", list(ARTIFACT_SHA256),
        ids=["bound-q4-0.3", "bound-q16-dense", "bound-q9-c5-restricted", "field-q256", "field-q251", "nh-json", "nh-csv"],
    )
    def test_artifact_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ARTIFACT_SHA256[argv]

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


class TestRangeValidation:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bound", "--n", "0", "--k", "0", "--m", "2", "--q", "2"], "n must be >= 1"),
            (["bound", "--n", "5", "--k", "1", "--m", "0", "--q", "2"], "m must be >= 1"),
            (["simulate", "--n", "5", "--k", "1", "--m", "2", "--q", "2", "--trials", "0"], "trials must be >= 1"),
            (["curve", "--n", "30", "--q", "2", "--grid", "1.5"], "grid ratios must lie in [0, 1]"),
        ],
        ids=["bound-n0", "bound-m0", "simulate-no-trials", "curve-grid-above-1"],
    )
    def test_out_of_range_value_is_parameter_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"parameter error: {message}" in err


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


def test_pyproject_version_is_the_package_version():
    # a release moves both; the artifacts' meta reports ffcs.__version__
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ffcs.__version__


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
