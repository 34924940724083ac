"""The ffcs namespace: names resolve on first use, and ffcs.cli imports up front.

Each test runs in a fresh interpreter, so what it sees loaded was loaded
by the code under test and by nothing else in the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ffcs

# the public names of ffcs, __version__ included
PUBLIC = [
    "__version__",
    "UnsupportedOrder", "DivisionByZero", "InvalidGamma", "DimensionMismatch",
    "EnumerationCapExceeded",
    "FiniteField", "make_field", "check_axioms", "supported_orders",
    "ModelParams", "SignalSetSize", "signal_set_size", "dense_gamma", "sparse_gamma", "matvec",
    "candidate_matrix", "signal_to_json", "signal_from_json", "matrix_to_json", "matrix_from_json",
    "DecodeResult", "DecodeStatus", "ErrorEvents", "decode_l0", "error_events",
    "LogProb", "PairVariant", "row_zero_prob_sparse", "convolution_oracle", "nh_count", "nh_oracle",
    "nh_log_profile", "pair_total", "union_bound", "closed_dense_bound", "exponent_bound",
    "binary_entropy", "sufficient_m", "necessary_m", "fano_lower_bound",
    "GammaMode", "CurvePoint", "MinMeasurements", "min_measurements", "curve", "default_k_grid",
    "TrialReport", "run_trials", "sample_trials",
]

SUBMODULES = ["bounds", "cli", "curves", "decoder", "errors", "field", "model", "montecarlo", "util"]

LOADED = "sorted(m for m in sys.modules if m.startswith('ffcs.'))"


def fresh(code: str):
    """The JSON value that ``code`` prints as the last line of a new interpreter."""
    path = os.pathsep.join(filter(None, [str(Path(ffcs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_public_names_are_the_50_of_all():
    assert len(PUBLIC) == 50
    assert ffcs.__all__ == PUBLIC


def test_import_loads_no_submodule_and_a_field_loads_two():
    loaded = fresh(
        "import json, sys; import ffcs; a = " + LOADED + "; v = ffcs.__version__; "
        "ffcs.make_field(4); print(json.dumps([a, v, " + LOADED + "]))"
    )
    assert loaded == [[], ffcs.__version__, ["ffcs.errors", "ffcs.field"]]


def test_every_public_name_is_the_object_of_its_home_module():
    homes = fresh(
        "import importlib, json, ffcs\n"
        "out = {}\n"
        "for name in ffcs.__all__[1:]:\n"
        "    obj = getattr(ffcs, name)\n"
        "    out[name] = [obj.__module__, getattr(importlib.import_module(obj.__module__), name) is obj]\n"
        "print(json.dumps(out))"
    )
    assert list(homes) == PUBLIC[1:]
    for name, (module, same) in homes.items():
        assert module.startswith("ffcs.") and module.count(".") == 1 and same, name


def test_star_import_binds_every_public_name():
    bound = fresh(
        "import json; ns = {}; exec('from ffcs import *', ns); "
        "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))"
    )
    assert bound == sorted(PUBLIC)


def test_submodules_by_name_and_unknown_names_refused():
    got = fresh(
        "import json, sys, ffcs\n"
        "mods = [getattr(ffcs, name) is sys.modules['ffcs.' + name] for name in " + repr(SUBMODULES) + "]\n"
        "try:\n"
        "    ffcs.no_such_name\n"
        "    refused = None\n"
        "except AttributeError as exc:\n"
        "    refused = str(exc)\n"
        "print(json.dumps([mods, getattr(ffcs, 'decoder', None).__name__, refused, dir(ffcs)]))"
    )
    mods, decoder, refused, listed = got
    assert mods == [True] * len(SUBMODULES)
    assert decoder == "ffcs.decoder"
    assert refused == "module 'ffcs' has no attribute 'no_such_name'"
    assert set(PUBLIC) | set(SUBMODULES) <= set(listed)


def test_cli_import_loads_every_module_its_commands_use(tmp_path):
    # a command's first call imports nothing, so no timed call pays for an import
    runs = [
        ["field", "--q", "4"],
        ["bound", "--n", "12", "--k", "2", "--m", "6", "--q", "4"],
        ["nh", "--n", "8", "--k", "2", "--q", "3"],
        ["curve", "--n", "20", "--q", "4", "--grid", "0.1"],
        ["simulate", "--n", "6", "--k", "1", "--m", "3", "--q", "3", "--trials", "20",
         "--dump", str(tmp_path / "dump")],
    ]
    codes, added = fresh(
        "import contextlib, io, json, sys\n"
        "import ffcs.cli\n"
        "before = " + LOADED + "\n"
        "codes = []\n"
        "for argv in " + repr(runs) + ":\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(ffcs.cli.main(argv))\n"
        "print(json.dumps([codes, sorted(set(" + LOADED + ") - set(before))]))"
    )
    assert codes == [0] * len(runs)
    assert added == []
