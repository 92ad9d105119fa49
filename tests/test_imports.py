"""Each CLI command loads only the modules it runs, and `import herman_lab` is lazy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import herman_lab

# every name `herman_lab` exported when it still imported all its modules eagerly
EXPORTS = (
    "ALPHA V V3 V5 f f3 f5 CapacityError TransitionLaw delta_moment expected_time_exact expected_time_float "
    "lyapunov_bound_check max_expected_time successor_distribution theorem1_bound verify_drift_V verify_drift_V3 "
    "verify_drift_V5 verify_prop17 SimStats coupled_equivalence estimate simulate_once OptimizerConfig "
    "interior_max_scan kkt_report maximize SparsePolynomial build_f build_f3 build_f5 BitRing Configuration "
    "GapVector apply_step bit_step bits_from_config canonical_rotation config_from_bits config_from_gaps gap_vector "
    "parse_configuration parse_gap_vector random_step CoinStream stream_key __version__"
).split()

# runs the CLI, then prints its exit code and every module loaded
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    from herman_lab.cli import main
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _fresh_python(code: str, *argv: str):
    """The JSON that `code` prints, run in a new interpreter with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
            ("numpy.ma", "herman_lab.markov", "herman_lab.optimize", "herman_lab.polynomials"),
            id="simulate",
        ),
    ],
)
def test_command_loads_only_its_own_modules(argv, absent):
    result = _fresh_python(PROBE, *argv)
    assert result["code"] == 0
    assert "herman_lab.cli" in result["modules"]
    assert not set(result["modules"]) & set(absent)


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
