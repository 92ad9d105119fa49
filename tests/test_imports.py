"""Each CLI command loads only the modules it runs, `import herman_lab` is lazy, and only array work loads numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import herman_lab

# every name `herman_lab` exported when it still imported all its modules eagerly
EXPORTS = (
    "ALPHA V V3 V5 f f3 f5 CapacityError TransitionLaw delta_moment expected_time_exact "
    "lyapunov_bound_check max_expected_time successor_distribution theorem1_bound verify_drift_V verify_drift_V3 "
    "verify_drift_V5 verify_prop17 SimStats coupled_equivalence estimate simulate_once OptimizerConfig "
    "interior_max_scan kkt_report maximize SparsePolynomial build_f build_f3 build_f5 BitRing Configuration "
    "GapVector apply_step bit_step bits_from_config canonical_rotation config_from_bits config_from_gaps gap_vector "
    "parse_configuration parse_gap_vector random_step CoinStream stream_key __version__"
).split()

# runs the CLI, then prints its exit code (also from --help or an argparse refusal) and every module loaded
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    from herman_lab.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _fresh_python(code: str, *argv: str):
    """The JSON that `code` prints, run in a new interpreter with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _cli_modules(code: int, *argv: str) -> set[str]:
    """The modules a fresh `cli.main(argv)` loads, after checking that it returns `code`."""
    result = _fresh_python(PROBE, *argv)
    assert result["code"] == code
    assert "herman_lab.cli" in result["modules"]
    return set(result["modules"])


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(
            ("exact", "--sweep", "7"),
            ("numpy.ma", "herman_lab.optimize", "herman_lab.polynomials", "herman_lab.montecarlo"),
            id="exact",
        ),
        pytest.param(
            ("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10"),
            # the runs are split over raw forks, not a process or thread pool
            ("numpy.ma", "herman_lab.markov", "herman_lab.optimize", "herman_lab.polynomials", "multiprocessing", "concurrent.futures"),
            id="simulate",
        ),
    ],
)
def test_command_loads_only_its_own_modules(argv, absent):
    modules = _cli_modules(0, *argv)
    assert "numpy" in modules  # both step uint64 arrays
    assert not modules & set(absent)


def test_import_cli_loads_no_numpy():
    loaded = _fresh_python("import json, sys, herman_lab.cli; print(json.dumps(sorted(sys.modules)))")
    assert "herman_lab.cli" in loaded and "herman_lab.ring" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "code, argv",
    [
        pytest.param(0, ("--help",), id="help"),
        pytest.param(0, ("verify", "identities", "--max-k", "5"), id="verify-identities"),
        pytest.param(2, ("simulate", "--config", "N=8;gaps=4,4"), id="simulate-even-k"),
        pytest.param(2, ("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "0"), id="simulate-runs"),
        pytest.param(2, ("simulate", "--config", "N=9;gaps=3,3,3", "--seed", "-1"), id="simulate-seed"),
        pytest.param(2, ("simulate", "--config", "N=9;gaps=3,3,4"), id="simulate-bad-config"),
        pytest.param(2, ("simulate", "--config", "N=99;gaps=33,33,33"), id="simulate-ring-size"),
        pytest.param(2, ("exact",), id="exact-no-state"),
        pytest.param(2, ("exact", "--config", "N=8;gaps=4,4"), id="exact-even-k"),
        pytest.param(2, ("exact", "--sweep", "7", "--seed", "1"), id="exact-unread-flag"),
        pytest.param(2, ("exact", "--sweep", "30"), id="exact-sweep-capacity"),
        pytest.param(2, ("exact", "--float", "--sweep", "30"), id="exact-sweep-block-limit"),
        pytest.param(2, ("exact", "--sweep", "22", "--exact-capacity-n", "22"), id="exact-sweep-22-block-limit"),
        pytest.param(2, ("exact", "--float", "--sweep", "21"), id="float-sweep-21-block-limit"),
        pytest.param(2, ("exact", "--config", "N=64;gaps=12,13,13,13,13"), id="exact-config-block-limit"),
        pytest.param(2, ("exact", "--config", "N=99;gaps=33,33,33"), id="exact-ring-size"),
        pytest.param(2, ("exact", "--float", "--config", "N=9;gaps=3,3,3"), id="exact-float-config"),
        pytest.param(2, ("exact", "--config", "N=9;gaps=3,3,3", "--exact-capacity-n", "9"), id="exact-capacity-config"),
        pytest.param(2, ("optimize", "--target", "f", "--k", "65"), id="optimize-k-cap"),
        pytest.param(2, ("verify", "identities", "--max-k", "65"), id="verify-max-k-cap"),
        pytest.param(2, ("verify", "drift", "--n", "65"), id="verify-ring-size"),
        pytest.param(2, ("optimize", "--target", "f", "--k", "4"), id="optimize-even-k"),
        pytest.param(2, ("optimize", "--target", "f", "--k", "5", "--seed", "-1"), id="optimize-seed"),
        pytest.param(2, ("optimize", "--target", "f", "--k", "5", "--starts", "0"), id="optimize-starts"),
        pytest.param(2, ("optimize", "--target", "f", "--k", "5", "--max-iters", "0"), id="optimize-max-iters"),
    ],
)
def test_commands_that_step_no_array_load_no_numpy(code, argv):
    assert "numpy" not in _cli_modules(code, *argv)


def test_import_herman_lab_loads_no_submodule():
    loaded = _fresh_python("import json, sys, herman_lab; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith("herman_lab")] == ["herman_lab"]


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves(name):
    assert getattr(herman_lab, name) is not None
    assert name == "__version__" or name in herman_lab.__all__


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        herman_lab.not_an_export
    from herman_lab import GapVector, maximize, markov  # a name, a name from another module, a submodule

    assert GapVector.__module__ == "herman_lab.ring" and maximize.__module__ == "herman_lab.optimize"
    assert markov.CapacityError is herman_lab.CapacityError
