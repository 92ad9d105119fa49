"""Golden output: the sweeps print the same bytes as the recorded reference.

The digests in golden/exact_sweep_sha256.json are the sha256 of the
stdout of `herman-lab exact --sweep N`: N = 3..12 recorded before the
successor enumeration moved to the occupancy kernel, N = 13, 14 before
the exact solve moved to integer blocks with p-adic lifting.  Any change
to a state, a rational, the row order or the verdict line changes a
digest.  The float sweep's digest was recorded with one BLAS thread,
since its last digits depend on the BLAS thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from herman_lab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "exact_sweep_sha256.json").read_text())
FLOAT_SWEEP_12_SHA256 = "f886d9302fa59b14b51f1f8adea85455639999494e70cad33019098b896afa84"


@pytest.mark.parametrize("n", sorted(GOLDEN, key=int))
def test_exact_sweep_stdout_is_golden(n, capsys):
    assert main(["exact", "--sweep", n]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[n]


def test_float_sweep_stdout_is_golden():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["exact", "--float", "--sweep", "12", "--exact-capacity-n", "11"]
    proc = subprocess.run([sys.executable, "-m", "herman_lab", *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == FLOAT_SWEEP_12_SHA256
