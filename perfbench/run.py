"""Benchmark for herman-lab: four fixed CLI workloads, one fresh process per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (each a closed loop: one client, one command at a time):

    exact-sweep   herman-lab exact --sweep 13
    float-sweep   herman-lab exact --float --sweep 13 --exact-capacity-n 12
    simulate      herman-lab simulate --config "N=63;gaps=21,21,21" --runs 50000 --seed SEED
    verify-all    herman-lab verify all --max-k 14 --samples 150 --n 12 --runs 300 --seed SEED

The sizes keep one command near a second or two, so a run holds many
repetitions and its medians are steady on a shared host.  `--exact-capacity-n
12` sends the N = 13 sweep down the float path, so the two sweeps enumerate
the same 316 states and differ only in the solver.

BENCHMARK.json times only exact-sweep and simulate, so that each run can be
long.  A shared host runs the same command up to 1.7 times slower in
phases of 10-60 s; those phases, not the repetitions inside one run, set
the run-to-run spread, and only long runs average over them.  Timing
float-sweep and verify-all too would halve the run length the time budget
allows, and verify-all is the most phase-sensitive (its ten-run spread
reached 0.32 of the median in 36 s runs on a 2-CPU Xeon VM).  Both are
timed on request (`--workload float-sweep|verify-all|all`), and every
traced run covers all four, so each layer is still measured.

`--trace 0` runs one untimed warm-up of the command (checked like the
others), then alternates, each in a new interpreter, a timed `import
herman_lab.cli` (the set-up every CLI call pays) with a timed run of the
workload's command, until the next pair would end past S seconds.  The
package keeps module-global caches, so only a new process pays the cold
cost a CLI user pays.  It reports medians over the repetitions:

    wall_s        time from spawn to exit
    work_per_s    work done per second of wall time: states for the two
                  sweeps, run-steps (runs x mean) for simulate, checks for
                  verify-all
    peak_rss_mib  the child's own peak resident set, from os.wait4
    setup_s       interpreter start plus `import herman_lab.cli`

`--workload all` measures every workload in turn, naming its metrics
`<workload>.<metric>`, and with `--trace 1` then makes the traced run.

`--trace 1` runs every workload once untraced and once under
perfbench/traced.py, each in a fresh process, and reports per-layer
metrics named `<workload>.<module>.<metric>`: the self time of the spans
of each layer, the work counts, and traced over untraced wall time.  It
covers every workload whatever `--workload` names, so each layer is timed
on the workload that exercises it, and it ignores `--seconds`.  The traced
numbers never enter the end-to-end metrics.

Every child runs with OPENBLAS_NUM_THREADS=1, so one command uses one core
and no idle BLAS thread competes for another.  The float sweep's last digits depend on the
BLAS thread count, so this also keeps its reference bytes the same on any
number of cores.

Every output is checked: the exit code, the verdict, the work counts, and
the stdout sha256 against the bytes the reference commands print.  The
sweeps do not depend on the seed; simulate and verify-all are compared
byte for byte only at their reference seed (42 and 7), and at any other
seed by their seed-independent parts.  A failed check, a non-zero exit or
a timeout counts as a failed command.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The same result, with the machine
record and every repetition, is written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
PACKAGE = ROOT / "src" / "herman_lab"
TRACER = ROOT / "perfbench" / "traced.py"

MIN_REPS = 3  # timed commands in a run, however short --seconds is
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
SWEEP_HEADER = "N,K,gaps,expected_time,bound,pass"


@dataclass
class Rep:
    """One finished child process."""

    wall_s: float
    peak_rss_mib: float
    exit_code: int
    stdout: str
    stderr: str
    work: float = 0.0
    problems: tuple[str, ...] = ()


def spawn(argv: list[str], timeout: float) -> Rep:
    """Run argv to completion; wall time from spawn to exit, rusage of this child only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # wait4 reaped the child behind Popen's back; record its status there
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Rep(wall, usage.ru_maxrss / 1024, proc.returncode, out.read().decode(), err.read().decode()[-2000:])


# ---------------------------------------------------------------------------
# workloads and their output checks


def check_sweep(n: int, states: int, argmax: list[int]):
    def check(stdout: str, seed: int) -> tuple[float, list[str]]:
        lines = stdout.splitlines()
        if len(lines) < 2 or lines[0] != SWEEP_HEADER:
            return 0, ["sweep output has no CSV header"]
        rows, verdict = lines[1:-1], json.loads(lines[-1])
        problems = []
        if len(rows) != states:
            problems.append(f"{len(rows)} states, expected {states}")
        if not all(row.endswith(",1") for row in rows):
            problems.append("a state fails the 4N^2/27 bound")
        if (verdict.get("verdict"), verdict.get("N"), verdict.get("argmax_gaps")) != ("PASS", n, argmax):
            problems.append(f"verdict {verdict}, expected PASS at N={n} with argmax {argmax}")
        return len(rows), problems

    return check


SIM_RUNS = 50_000
SIM_EXACT_MEAN = 588  # 4 N^2 / 27 at N = 63: exact for three equally spaced tokens


def check_simulate(stdout: str, seed: int) -> tuple[float, list[str]]:
    record = json.loads(stdout)
    run_steps = round(record["runs"] * record["mean"])
    problems = []
    if (record["runs"], record["seed"]) != (SIM_RUNS, seed):
        problems.append(f"runs={record['runs']} seed={record['seed']}, expected {SIM_RUNS} and {seed}")
    if abs(record["mean"] - SIM_EXACT_MEAN) > 5 * record["stderr"]:
        problems.append(f"mean {record['mean']} is over 5 standard errors from the exact {SIM_EXACT_MEAN}")
    if seed == 42 and run_steps != 29_377_511:
        problems.append(f"{run_steps} run-steps, expected 29377511 at seed 42")
    return run_steps, problems


def check_verify(stdout: str, seed: int) -> tuple[float, list[str]]:
    records = [json.loads(line) for line in stdout.splitlines()]
    summary = records[-1]
    problems = []
    if (summary.get("summary"), summary.get("checks"), summary.get("failures")) != (True, 77, 0):
        problems.append(f"summary {summary}, expected 77 checks and 0 failures")
    if not all(r.get("pass") for r in records):
        problems.append("a check line does not pass")
    return summary.get("checks", 0), problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # seed -> herman-lab arguments
    reference_seed: int | None  # seed at which stdout is pinned; None when stdout ignores the seed
    sha256: str  # stdout of the reference command
    check: Callable[[str, int], tuple[float, list[str]]]  # (stdout, seed) -> (work, problems)
    work_unit: str
    layers: tuple[str, ...]  # per-layer times reported from the traced run
    counts: dict  # per-layer count -> value it must have (None: seed-dependent, checked against stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-sweep",
            lambda seed: ["exact", "--sweep", "13"],
            None,
            "1db0cae75445ce56b2244fbd570b3f80a888fe16ac17bab31c943b51812c1a19",
            check_sweep(13, 316, [4, 4, 5]),
            "states",
            ("markov.enumerate", "markov.successors", "markov.solve_exact", "cli.format"),
            {"markov.states": 316, "markov.successor_pairs": 32_014, "markov.max_block": 132, "markov.result_bits": 584},
        ),
        Workload(
            "float-sweep",
            lambda seed: ["exact", "--float", "--sweep", "13", "--exact-capacity-n", "12"],
            None,
            "64a076c59cc503a844a9ebe012ab63a764b834809e60c1a292b42f70f93a8b0d",
            check_sweep(13, 316, [4, 4, 5]),
            "states",
            ("markov.enumerate", "markov.successors", "markov.solve_float"),
            {"markov.states": 316, "markov.successor_pairs": 32_014, "markov.max_block": 132},
        ),
        Workload(
            "simulate",
            lambda seed: ["simulate", "--config", "N=63;gaps=21,21,21", "--runs", str(SIM_RUNS), "--seed", str(seed)],
            42,
            "501acb77006df0add2f008c840a5431303581d65acf9d32fa55844d7b2987582",
            check_simulate,
            "run-steps",
            ("montecarlo.run_steps",),
            {"montecarlo.run_steps": None},
        ),
        Workload(
            "verify-all",
            lambda seed: ["verify", "all", "--max-k", "14", "--samples", "150", "--n", "12", "--runs", "300", "--seed", str(seed)],
            7,
            "1db8e8579a6d22dc305c87a3f4633127d96af9d238e6426a4206ec16e08d5847",
            check_verify,
            "checks",
            ("markov.drift", "markov.moments", "lyapunov.eval", "montecarlo.coupling", "polynomials.identities", "optimize.kkt"),
            {},
        ),
    )
}


# ---------------------------------------------------------------------------
# measurement


def run_command(w: Workload, seed: int, deadline: float, trace_file: Path | None = None) -> Rep:
    """One fresh process running the workload's command, checked."""
    prefix = ["-m", "herman_lab"] if trace_file is None else [str(TRACER), str(trace_file), "--"]
    rep = spawn([sys.executable, *prefix, *w.argv(seed)], deadline - time.perf_counter())
    if rep.exit_code != 0:
        rep.problems = (f"exit code {rep.exit_code}: {rep.stderr.strip()[-300:]}",)
        return rep
    problems = []
    if w.reference_seed in (None, seed) and hashlib.sha256(rep.stdout.encode()).hexdigest() != w.sha256:
        problems.append("stdout differs from the reference bytes")
    try:
        rep.work, found = w.check(rep.stdout, seed)
        problems += found
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    rep.problems = tuple(problems)
    return rep


IMPORT_ARGV = [sys.executable, "-c", "import herman_lab.cli"]


def measure_import(deadline: float) -> Rep:
    rep = spawn(IMPORT_ARGV, deadline - time.perf_counter())
    if rep.exit_code != 0:
        rep.problems = (f"import failed: {rep.stderr.strip()[-300:]}",)
    return rep


def end_to_end(w: Workload, seed: int, seconds: int) -> tuple[list[Rep], dict]:
    """A warm-up, then timed imports and timed commands in turn for `seconds`."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    warmup = [measure_import(deadline), run_command(w, seed, deadline)]  # untimed: bytecode caches, page cache
    setup: list[Rep] = []
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        setup.append(measure_import(deadline))
        rep = run_command(w, seed, deadline)
        if rep.stdout != warmup[1].stdout:
            rep.problems += ("stdout differs between repetitions with one seed",)
        reps.append(rep)
        now = time.perf_counter()
        pair_s = (now - start) / len(reps)
        if (len(reps) >= MIN_REPS and now + pair_s - start > seconds) or now + 1.5 * pair_s > deadline:
            break
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "work_per_s": (statistics.median(r.work / r.wall_s for r in reps), "1/s"),
        "peak_rss_mib": (statistics.median(r.peak_rss_mib for r in reps), "MiB"),
        "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
    }
    walls = sorted(r.wall_s for r in reps)
    everything = warmup + setup + reps
    failed = sum(1 for r in everything if r.problems)
    print(f"{w.name}: wall_s over {len(walls)} runs: median {metrics['wall_s'][0]:.4f} min {walls[0]:.4f} max {walls[-1]:.4f}")
    print(f"{w.name}: setup_s over {len(setup)} imports: median {metrics['setup_s'][0]:.4f}")
    print(f"{w.name}: {w.work_unit.replace('-', '_')}_per_s = {metrics['work_per_s'][0]:.6g} 1/s")
    print(f"{w.name}: error_rate = {failed}/{len(everything)}")
    return everything, metrics


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus that of its direct children."""
    covered = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    totals: dict[str, float] = {}
    for span, child_ns in zip(spans, covered):
        own = (span["end_ns"] - span["start_ns"] - child_ns) / 1e9
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals


def per_layer(seed: int) -> tuple[list[Rep], dict]:
    """Every workload once untraced and once traced, each in its own process."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    reps: list[Rep] = []
    metrics: dict = {}
    for w in WORKLOADS.values():
        plain = run_command(w, seed, deadline)
        trace_file = OUT_DIR / f"trace-{w.name}.json"
        trace_file.unlink(missing_ok=True)
        traced = run_command(w, seed, deadline, trace_file)
        reps += [plain, traced]
        metrics[f"{w.name}.trace_overhead"] = (traced.wall_s / plain.wall_s, "ratio")
        trace = json.loads(trace_file.read_text()) if traced.exit_code == 0 else {"spans": [], "counts": {}}
        times, counts = layer_times(trace["spans"]), trace["counts"]
        problems = []
        for layer in w.layers:
            if times.get(layer, 0.0) <= 0:
                problems.append(f"no {layer} span")
            metrics[f"{w.name}.{layer}_s"] = (times.get(layer, 0.0), "s")
        for name, expected in w.counts.items():
            value, want = counts.get(name, 0), traced.work if expected is None else expected
            if value != want:
                problems.append(f"{name} = {value}, expected {want}")
            metrics[f"{w.name}.{name}"] = (value, "count")
        if "montecarlo.run_steps" in w.counts:
            rate = counts.get("montecarlo.run_steps", 0) / max(times.get("montecarlo.run_steps", 0.0), 1e-9)
            metrics[f"{w.name}.montecarlo.steps_per_s"] = (rate, "1/s")
        if traced.exit_code == 0:
            traced.problems += tuple(problems)
    return reps, metrics


def machine_record() -> dict:
    record = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": next(
            (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
            platform.processor(),
        ),
        "blas_threads": None,
    }
    try:
        import numpy

        lib_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        lib = ctypes.CDLL(glob.glob(str(lib_dir / "*openblas*"))[0])
        get = lib.scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        record["blas_threads"] = get()
    except (ImportError, IndexError, OSError, AttributeError):
        record["blas_threads_env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no herman_lab package source at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # every child inherits it; the machine record reads it back
    reps: list[Rep] = []
    metrics: dict = {}
    if args.workload == "all":  # every end-to-end measurement, then (with --trace 1) the traced run
        for w in WORKLOADS.values():
            w_reps, w_metrics = end_to_end(w, args.seed, args.seconds)
            reps += w_reps
            metrics.update({f"{w.name}.{name}": value for name, value in w_metrics.items()})
    elif not args.trace:
        reps, metrics = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        t_reps, t_metrics = per_layer(args.seed)
        reps += t_reps
        metrics.update(t_metrics)
    failed = [r for r in reps if r.problems]
    machine = machine_record()  # after the runs: it loads the BLAS library into this process
    print(f"machine: {json.dumps(machine)}")
    print(f"{len(reps)} commands at seed {args.seed}, {len(failed)} failed")
    for rep in failed:
        print(f"  FAILED: {'; '.join(rep.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "args": vars(args),
        "machine": machine,
        "result": result,
        "commands": [
            {"wall_s": r.wall_s, "peak_rss_mib": r.peak_rss_mib, "exit": r.exit_code, "work": r.work, "problems": list(r.problems)}
            for r in reps
        ],
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
