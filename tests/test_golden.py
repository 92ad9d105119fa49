"""Golden output: the exact sweep prints the same bytes for N = 3..12.

The digests in golden/exact_sweep_sha256.json are the sha256 of the
stdout of `herman-lab exact --sweep N`, recorded before the successor
enumeration moved to the occupancy kernel.  Any change to a state, a
rational, the row order or the verdict line changes a digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from herman_lab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "exact_sweep_sha256.json").read_text())


@pytest.mark.parametrize("n", sorted(GOLDEN, key=int))
def test_exact_sweep_stdout_is_golden(n, capsys):
    assert main(["exact", "--sweep", n]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[n]
