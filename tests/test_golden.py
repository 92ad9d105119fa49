"""Golden output: the sweeps print the same bytes as the recorded reference.

The digests in golden/exact_sweep_sha256.json are the sha256 of the
stdout of `herman-lab exact --sweep N`: N = 3..12 recorded before the
successor enumeration moved to the occupancy kernel, N = 13, 14 before
the exact solve moved to integer blocks with p-adic lifting.  Any change
to a state, a rational, the row order or the verdict line changes a
digest.  The float sweep's digest was recorded with one BLAS thread,
since its last digits depend on the BLAS thread count.

golden/cli_corpus_sha256.json holds the stdout sha256 of a fixed set of
commands that cover the drift, moment, identity, KKT and coupling
suites, the optimizer, one exact state and one simulation together with
its histogram file; `simulate` writes the histogram to a temporary path,
so the path is not part of the recorded argv.  They were recorded before
every alternating index chain moved onto `lyapunov.alternating_tuples`.
Two sweeps joined them before the hitting-time solve moved onto one CSR
successor table: `exact --float --sweep 14 --exact-capacity-n 13`, whose
last digits pin the order in which each row's exit terms are summed, and
`exact --sweep 15 --exact-capacity-n 15`, a sweep past the default
capacity.  Two more were recorded before the exact solve moved onto
reflection classes: `exact --sweep 16 --exact-capacity-n 16`, and
`exact --config "N=15;gaps=1,2,3,4,5" --exact-capacity-n 15`, whose seed
is not its own mirror image, so it is solved over its reachable states.
`exact --sweep 17 --exact-capacity-n 17` was recorded before the block
solve moved from mod-p lifting onto a float64 inverse with exact integer
residuals, so the largest blocks the suite solves keep their bytes
across that change; it runs in about 3 s.  `exact --float --sweep 16`
was recorded before each token count's block came to be built straight
from its successor pass, as a float64 array: the float path's blocks
were pinned only at N = 12 and 14 before, and this sweep's largest block
has 715 rows; it runs in under a second.  Two were recorded before the
optimizer came to ascend from one three-token embedding in place of all K
rotations of it, and before `SparsePolynomial` came to sum its terms
through one accumulator: `optimize --target f --k 63 --starts 1
--max-iters 1`, the largest K the optimizer accepts, which pins its
start points and its verdict there in about 1.5 s; and `verify identities
--max-k 17`, which runs the identity checks past the K = 9 that `verify
all --max-k 9` reaches, in under a second.  Two single queries were
recorded before a query came to solve every state with at most its token
count in place of a search for the states its seed reaches: `exact
--config "N=64;gaps=21,21,22" --exact-capacity-n 64`, the paper's worst
case of three equally spaced tokens on the largest ring the occupancy
word holds; and `exact --float --config "N=16;gaps=1,2,3,4,6"`, whose
float bits pinned the row order of the query's state list for five
tokens.  That float query left the corpus when `--float` came to apply
to sweeps only, a single query being solved exactly; the float sweeps
still pin the float rows' order.  Each runs in about 0.2 s.  `simulate
--config "N=63;gaps=21,21,21" --runs 70000 --seed 42` was recorded
before the simulator came to step each batch in blocks of steps, with
its coins drawn straight from the stream keys and one absorption check
per block: it is the paper's worst case, its 70 000 runs span one full
batch of 65 536 and a short one of 4 464, and its slowest run takes
5 097 steps, so it pins the step counts of long tails in about 0.5 s.
Two CSV records were recorded before `SimStats` and `CriticalPointReport`
came to write their records as their dataclass fields
(`dataclasses.asdict`), which hands `_print_record` tuples where it had
lists: `simulate --config "N=9;gaps=3,3,3" --runs 20000 --seed 42
--output-format csv` and `optimize --target f --k 7 --starts 20 --seed 1
--output-format csv`, the first entries in CSV mode.  Each runs in under
a second.  An entry whose
first two arguments another entry shares names its test `id`.

golden/demo_sha256.json holds the stdout sha256 of demos whose output
pins a part of the library API that no CLI command prints.
`03_drift_identities.py` prints `V`, `V3` and `V5`, and
`04_polynomial_identities.py` tours `SparsePolynomial`; both were
recorded before `V3`, `V5` and `V` lost their `exact` parameter, `f`,
`c_value`, `derivative_terms` and `build_f` lost `alpha`, and the
polynomial operations moved onto one accumulator.  Each runs in under
half a second.  Demo 05, the optimizer tour, takes about 5 s, so CI
checks its digest instead.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from herman_lab.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "exact_sweep_sha256.json").read_text())
CORPUS = json.loads((GOLDEN_DIR / "cli_corpus_sha256.json").read_text())
DEMOS = json.loads((GOLDEN_DIR / "demo_sha256.json").read_text())
FLOAT_SWEEP_12_SHA256 = "f886d9302fa59b14b51f1f8adea85455639999494e70cad33019098b896afa84"


@pytest.mark.parametrize("n", sorted(GOLDEN, key=int))
def test_exact_sweep_stdout_is_golden(n, capsys):
    assert main(["exact", "--sweep", n]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[n]


def _run_python(*args: str) -> bytes:
    """stdout of `python args` with this checkout's src on its path and one BLAS thread; asserts exit 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _run_cli(argv: list[str]) -> bytes:
    """stdout of `python -m herman_lab argv`; asserts exit 0."""
    return _run_python("-m", "herman_lab", *argv)


def test_float_sweep_stdout_is_golden():
    stdout = _run_cli(["exact", "--float", "--sweep", "12", "--exact-capacity-n", "11"])
    assert hashlib.sha256(stdout).hexdigest() == FLOAT_SWEEP_12_SHA256


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.get("id", " ".join(case["argv"][:2])))
def test_cli_corpus_is_golden(case, tmp_path):
    argv = list(case["argv"])
    histogram = tmp_path / "hist.csv"
    if "histogram" in case:
        argv += ["--histogram", str(histogram)]
    assert hashlib.sha256(_run_cli(argv)).hexdigest() == case["stdout"]
    if "histogram" in case:
        assert hashlib.sha256(histogram.read_bytes()).hexdigest() == case["histogram"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_is_golden(demo):
    """The demo prints the recorded bytes.

    `01_token_ring_basics.py` tours the position and bit API: `apply_step`,
    `random_step`, `bits_from_config`, `bit_step` and `config_from_bits`.
    Its digest was recorded before those came to step occupancy words
    (`step_occupancy` and Herman's rule on the bit word) in place of
    their set and bit-list loops, so the tour keeps its bytes across that
    change.  It runs in about 0.1 s.
    """
    assert hashlib.sha256(_run_python(str(REPO / "demos" / demo))).hexdigest() == DEMOS[demo]
