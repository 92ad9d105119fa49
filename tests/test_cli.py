import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import no_annihilation
from herman_lab import cli, lyapunov
from herman_lab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_config_prints_rational(capsys):
    code, out, _ = run_cli(capsys, "exact", "--config", "N=9;gaps=3,3,3")
    assert code == 0
    assert out.strip() == "12/1"


def test_exact_tokens_literal(capsys):
    code, out, _ = run_cli(capsys, "exact", "--config", "N=5;tokens=1,2,5")
    assert code == 0
    assert out.strip() == "12/5"  # gaps (1,1,3): 4*1*1*3/5


def test_exact_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "exact")
    assert code == 2
    code, _, err = run_cli(capsys, "exact", "--config", "N=9;gaps=3,3,3", "--sweep", "9")
    assert code == 2


def test_exact_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "exact", "--sweep", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,K,gaps,expected_time,bound,pass"
    verdict = json.loads(lines[-1])
    assert verdict == {
        "verdict": "PASS",
        "N": 9,
        "max_num": 12,
        "max_den": 1,
        "argmax_gaps": [3, 3, 3],
        "bound_num": 12,
        "bound_den": 1,
    }


def test_exact_and_float_sweeps_write_the_same_rows(capsys):
    code, exact, _ = run_cli(capsys, "exact", "--sweep", "9")
    assert code == 0
    code, floats, _ = run_cli(capsys, "exact", "--float", "--sweep", "9", "--exact-capacity-n", "8")
    assert code == 0
    exact, floats = exact.splitlines()[:-1], floats.splitlines()[:-1]  # the verdict lines differ by design
    assert exact[0] == floats[0] == "N,K,gaps,expected_time,bound,pass"
    assert len(exact) == len(floats) > 1
    for row, float_row in zip(exact[1:], floats[1:]):
        n, k, gaps, et, bound, passed = row.split(",")
        float_n, float_k, float_gaps, float_et, float_bound, float_passed = float_row.split(",")
        assert (n, k, gaps, passed) == (float_n, float_k, float_gaps, float_passed)
        for rational, value in ((et, float_et), (bound, float_bound)):
            num, den = map(int, rational.split("/"))
            assert abs(float(value) - num / den) <= 1e-9


def test_exact_sweep_twelve_hits_bound_exactly(capsys):
    code, out, _ = run_cli(capsys, "exact", "--sweep", "12")
    assert code == 0
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict["verdict"] == "PASS"
    # the bound 4*144/27 = 64/3 is attained (not beaten) by the equidistant state
    assert (verdict["max_num"], verdict["max_den"]) == (64, 3)
    assert verdict["argmax_gaps"] == [4, 4, 4]


def test_exact_capacity_without_float_flag(capsys):
    code, _, err = run_cli(capsys, "exact", "--config", "N=17;gaps=5,5,7")
    assert code == 2
    assert "capacity" in err


def test_exact_capacity_error_names_the_refused_state_count(capsys):
    code, out, err = run_cli(capsys, "exact", "--sweep", "18")
    assert (code, out) == (2, "")
    assert err.startswith("error: ring size 18 exceeds the configured capacity 14 (7286 states); ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("config, states", [("N=64;gaps=21,21,22", 652), ("N=17;gaps=5,5,7", 41)])
def test_exact_config_capacity_error_names_the_states_the_query_solves(config, states, capsys):
    # a single query solves the states with at most its token count, not the whole sweep's
    code, out, err = run_cli(capsys, "exact", "--config", config)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ring size {config[2:4]} exceeds the configured capacity 14 ({states} states); ")


def test_exact_capacity_override_flag(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--config", "N=17;gaps=5,5,7", "--exact-capacity-n", "17"
    )
    assert code == 0
    assert out.strip() == "700/17"  # 4*5*5*7/17


def test_exact_float_fallback(capsys):
    code, out, _ = run_cli(capsys, "exact", "--sweep", "15", "--float")  # past the default exact capacity of 14
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("15,3,4|5|6,"))
    assert abs(float(row.split(",")[3]) - 4 * 4 * 5 * 6 / 15) <= 1e-9


def test_simulate_deterministic(capsys):
    argv = ("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "3000", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["runs"] == 3000 and record["seed"] == 42
    assert abs(record["mean"] - 12.0) < 1.0


def test_simulate_rejects_malformed_config(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "N=9;gap=3,3,3")
    assert code == 2


def test_simulate_rejects_even_k(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "N=6;gaps=3,3")
    assert code == 2
    assert "odd" in err


def test_simulate_rejects_zero_runs(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--config", "N=9;gaps=3,3,3", "--runs", "0")
    assert code == 2


def test_simulate_step_cap_is_exit_one(capsys, monkeypatch):
    from herman_lab import montecarlo

    def explode(*args, **kwargs):
        raise montecarlo.StepLimitError(1, run_index=7)

    monkeypatch.setattr(montecarlo, "run_steps", explode)
    code, _, err = run_cli(capsys, "simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10")
    assert code == 1
    assert "run 7" in err


@pytest.mark.parametrize("suite", ["coupling", "all"])
def test_verify_step_cap_is_one_error_line(suite, capsys, monkeypatch):
    from herman_lab import montecarlo

    argv = ["verify", suite, "--n", "5", "--runs", "20", "--max-k", "5", "--samples", "2", "--opt-starts", "2"]
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(montecarlo, "DEFAULT_STEP_CAP_FACTOR", 0)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "error: simulation exceeded the 0-step cap in run 6\n"
    # the records printed before the breach, up to the first coupled trajectory check
    assert out == full[: full.index('{"suite": "coupling", "check": "trajectories"')]


def test_simulate_histogram_file(tmp_path, capsys):
    path = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        "N=5;gaps=1,1,3",
        "--runs",
        "500",
        "--seed",
        "1",
        "--histogram",
        str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step_count,frequency"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 500


def test_simulate_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        "N=9;gaps=3,3,3",
        "--runs",
        "200",
        "--seed",
        "1",
        "--output-format",
        "csv",
    )
    assert code == 0
    import csv as csv_module
    import io

    rows = list(csv_module.reader(io.StringIO(out)))
    assert rows[0][:2] == ["ci95", "max_steps"]
    assert len(rows[1]) == len(rows[0])
    record = dict(zip(rows[0], rows[1]))
    assert json.loads(record["ci95"])  # list survives CSV quoting
    assert record["runs"] == "200"


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--max-k", "7")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["pass"] is True and summary["failures"] == 0


def test_verify_moments(capsys):
    code, out, _ = run_cli(capsys, "verify", "moments", "--max-k", "7")
    assert code == 0


def test_verify_drift(capsys):
    code, out, _ = run_cli(capsys, "verify", "drift", "--n", "10", "--samples", "10", "--seed", "7")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r.get("check") == "lemma3" for r in lines)


def test_verify_drift_fails_with_corrupted_alpha(capsys, monkeypatch):
    monkeypatch.setattr(lyapunov, "ALPHA", 23)
    code, out, _ = run_cli(capsys, "verify", "drift", "--n", "10", "--samples", "10", "--seed", "7")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    alpha_checks = [r for r in lines if r.get("check") == "alpha_constant_24"]
    assert alpha_checks and alpha_checks[0]["pass"] is False
    # the V identity pins the coefficient on every K >= 5 state with f5 > 0
    identity = [r for r in lines if r.get("check") == "v_identity" and r.get("K", 0) >= 5]
    assert any(r["failures"] > 0 for r in identity)


@pytest.mark.parametrize(
    "alpha, digest, failing",
    [
        # alpha_constant_24, and lemma6 and v_identity at K = 5, 7 and 9
        (30, "918cf6876d6cd989197177e452cda5e0ace98fbd54dda33dc3de0c66c6d55e7a", 7),
        (0, "e1c1aac8dc5e320b47b4d8828b540270be26593d6e991c8cd6f704ccf416d875", 4),
    ],
)
def test_alpha_mutation_fails_the_drift_suite(alpha, digest, failing, capsys, monkeypatch):
    # every module reads the f5 coefficient as `lyapunov.ALPHA` at call time, so one patch reaches them all;
    # the digests are the output of the `verify --alpha` flag this patch replaces
    monkeypatch.setattr(lyapunov, "ALPHA", alpha)
    code, out, _ = run_cli(capsys, "verify", "drift", "--samples", "150", "--n", "12", "--seed", "7")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(not r["pass"] for r in records if "check" in r) == failing


def test_verify_coupling(capsys):
    code, out, _ = run_cli(capsys, "verify", "coupling", "--n", "5", "--runs", "50")
    assert code == 0


def test_verify_coupling_reports_a_broken_step(capsys, monkeypatch):
    from herman_lab import montecarlo

    monkeypatch.setattr(montecarlo, "step_occupancy", no_annihilation)
    code, out, _ = run_cli(capsys, "verify", "coupling", "--n", "5", "--runs", "20")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    broken = [r for r in records if r.get("check") == "trajectories" and r["pass"] is False]
    assert broken and all(r["failure"] is not None for r in broken)


# the least value of each flag a suite reads, below which it runs no check; `all` takes each flag's largest
VERIFY_LEAST = {
    "drift": {"--samples": 1, "--n": 4},
    "moments": {"--max-k": 3},
    "identities": {"--max-k": 5},
    "kkt": {"--max-k": 5, "--samples": 1},
    "coupling": {"--n": 3, "--runs": 1},
    "all": {"--samples": 1, "--n": 4, "--max-k": 5, "--runs": 1},
}
VERIFY_FLAGS = ("--samples", "--n", "--max-k", "--runs")


def _verify_argv(suite, **values):
    """`verify suite` with each flag it reads at its least value, every other at 0, then `values`."""
    least = VERIFY_LEAST[suite]
    flags = {flag: least.get(flag, 0) for flag in VERIFY_FLAGS} | values
    return ["verify", suite, "--opt-starts", "2", *(str(x) for item in flags.items() for x in item)]


@pytest.mark.parametrize("suite", VERIFY_LEAST)
def test_verify_runs_at_the_least_value_of_each_flag_it_reads_and_any_value_of_the_rest(suite, capsys):
    # so coupling steps a 3-process ring, and moments runs with --n 0, which it does not read
    code, out, _ = run_cli(capsys, *_verify_argv(suite))
    assert code == 0
    assert json.loads(out.splitlines()[-1])["checks"] > 0


@pytest.mark.parametrize(
    "suite, flag",
    [pytest.param(suite, flag, id=f"{suite} {flag} {low - 1}") for suite, least in VERIFY_LEAST.items() for flag, low in least.items()],
)
def test_verify_input_that_runs_no_checks_is_exit_two(suite, flag, capsys):
    low = VERIFY_LEAST[suite][flag]
    code, out, err = run_cli(capsys, *_verify_argv(suite, **{flag: low - 1}))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= {low} for verify {suite}, got {low - 1}\n"


@pytest.mark.parametrize("suite", ["kkt", "all"])
def test_verify_refuses_optimizer_settings_before_any_record(suite, capsys):
    code, out, err = run_cli(capsys, "verify", suite, "--opt-starts", "0", "--max-k", "5", "--samples", "2", "--n", "5", "--runs", "2")
    assert (code, out, err) == (2, "", "error: starts must be >= 1, got 0\n")


def test_verify_drift_runs_at_the_occupancy_word(capsys):
    code, out, _ = run_cli(capsys, "verify", "drift", "--n", "64", "--samples", "1")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["pass"] is True


def test_optimize_f3_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--target", "f3", "--k", "9", "--starts", "10", "--seed", "1"
    )
    assert code == 0
    record = json.loads(out.strip().splitlines()[0])
    assert abs(record["value"] - (1 - 1 / 81) / 24) <= 1e-9


def test_optimize_f_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--target", "f", "--k", "5", "--starts", "10", "--seed", "1"
    )
    assert code == 0
    verdict = json.loads(out.strip().splitlines()[-1])
    assert verdict["verdict"] == "PASS"
    assert abs(verdict["value"] - 1 / 27) <= 1e-9


def test_optimize_unknown_target_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["optimize", "--target", "f7", "--k", "5"])
    assert info.value.code == 2


def test_simulate_rejects_ring_beyond_occupancy_word(capsys):
    code, out, err = run_cli(capsys, "simulate", "--config", "N=65;gaps=21,21,23", "--runs", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "64" in err and len(err.strip().splitlines()) == 1


def test_exact_rejects_raised_capacity_beyond_occupancy_word(capsys):
    code, out, err = run_cli(capsys, "exact", "--config", "N=65;gaps=21,21,23", "--exact-capacity-n", "65")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "occupancy word" in err


def test_exact_float_rejects_raised_capacity_beyond_occupancy_word(capsys):
    for raised in ((), ("--exact-capacity-n", "65")):
        code, out, err = run_cli(capsys, "exact", "--sweep", "65", "--float", *raised)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "occupancy word" in err


def test_exact_float_sweep_over_capacity_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "exact", "--sweep", "21", "--float")
    assert code == 2
    assert out == ""
    assert err == "error: ring size 21 has a block of 16796 rows at K=11, above the 10000-row limit of a solve\n"


def test_exact_float_config_over_capacity_is_exit_two(capsys):
    # a float single query is refused before its ring is read, whatever its size
    code, out, err = run_cli(capsys, "exact", "--float", "--config", "N=25;gaps=5,5,15")
    assert (code, out) == (2, "")
    assert err == "error: --float applies to --sweep only; a single query is solved exactly\n"


@pytest.mark.parametrize("float_flags", [(), ("--float", "--exact-capacity-n", "-4")])
@pytest.mark.parametrize("n", ["-3", "0", "1", "2"])
def test_exact_sweep_below_three_is_exit_two(n, float_flags, capsys):
    code, out, err = run_cli(capsys, "exact", "--sweep", n, *float_flags)
    assert code == 2
    assert out == ""
    assert err == f"error: ring size must be >= 3, got {n}\n"


def test_simulate_bad_histogram_path_fails_before_output(tmp_path, capsys):
    paths = [tmp_path / "missing" / "hist.csv"]
    if os.path.exists("/dev/full"):  # opens, then fails the write when the file is closed
        paths.append(Path("/dev/full"))
    for path in paths:
        code, out, err = run_cli(
            capsys, "simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10", "--histogram", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write the histogram:") and len(err.strip().splitlines()) == 1


def test_simulate_runs_beyond_memory_is_exit_two(capsys, monkeypatch):
    import numpy as np

    runs = 10**10
    empty = np.empty

    def refuse_step_counts(shape, *args, **kwargs):
        if shape == runs:
            raise MemoryError("unable to allocate the step counts")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_step_counts)
    code, out, err = run_cli(capsys, "simulate", "--config", "N=9;gaps=3,3,3", "--runs", str(runs))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --runs") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--sweep", "7"],
        ["exact", "--config", "N=9;gaps=3,3,3"],
        ["exact", "--float", "--sweep", "9", "--exact-capacity-n", "8"],
    ],
    ids=("sweep", "config", "float-sweep"),
)
def test_exact_solve_beyond_memory_is_exit_two(argv, capsys, monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise MemoryError("unable to allocate the block")

    monkeypatch.setattr(np.linalg, "inv", refuse)  # the exact path's block inverse
    monkeypatch.setattr(np.linalg, "solve", refuse)  # the float path's block solve
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the solve over ring size") and len(err.strip().splitlines()) == 1


def test_verify_kkt_violation_is_a_failing_record(capsys, monkeypatch):
    # with the bound lowered to 0, every interior critical point the scan finds breaks it
    from herman_lab import optimize

    monkeypatch.setattr(optimize, "ONE_27", 0.0)
    code, out, _ = run_cli(capsys, "verify", "kkt", "--max-k", "5", "--opt-starts", "5", "--samples", "2")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    scan = next(r for r in records if r.get("check") == "interior_scan")
    assert scan["violations"] == scan["interior_points"] > 0 and scan["pass"] is False
    assert records[-1]["summary"] and records[-1]["failures"] >= 1 and records[-1]["pass"] is False


@pytest.mark.parametrize("max_iters", ["0", "-1"])
def test_optimize_max_iters_below_one_is_exit_two(max_iters, capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--target", "f", "--k", "7", "--starts", "3", "--max-iters", max_iters
    )
    assert code == 2
    assert out == ""
    assert err == f"error: max_iters must be >= 1, got {max_iters}\n"


def test_optimize_k_above_the_occupancy_word_is_exit_two(capsys):
    # the cost grows as K^5: without the bound, K = 81 took 26 s and K = 121 failed to allocate under a 3 GB limit
    code, out, err = run_cli(capsys, "optimize", "--target", "f", "--k", "65")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --k must be at most 63") and len(err.strip().splitlines()) == 1


def test_defaults_are_the_parser_defaults(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--config", "N=9;gaps=3,3,3")
    assert code == 0
    record = json.loads(out)
    assert (record["runs"], record["seed"]) == (10000, 0)
    optimize = ("optimize", "--target", "f3", "--k", "3")
    bare = run_cli(capsys, *optimize)
    assert bare[0] == 0
    assert bare == run_cli(capsys, *optimize, "--starts", "50", "--seed", "0", "--output-format", "json")
    # the optimizer's best point rarely depends on the start count, so read it off the parser
    parser = build_parser()
    assert parser.parse_args(optimize).opt_starts == parser.parse_args(["verify", "kkt"]).opt_starts == 50


SHARED_FLAG_COMMANDS = {
    "simulate": ("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10"),
    "exact": ("exact", "--sweep", "7"),
    "verify": ("verify", "moments", "--max-k", "5"),
    "optimize": ("optimize", "--target", "f3", "--k", "3", "--starts", "1"),
}
# flag -> (a value, the subcommands that read it); no subcommand reads --config-file, --float-capacity-n or --threads
SHARED_FLAGS = {
    "--config-file": ("run.cfg", ()),
    "--seed": ("1", ("simulate", "verify", "optimize")),
    "--exact-capacity-n": ("9", ("exact",)),
    "--float-capacity-n": ("9", ()),
    "--output-format": ("json", ("simulate", "optimize")),
    "--threads": ("2", ()),
}


@pytest.mark.parametrize("command", SHARED_FLAG_COMMANDS)
@pytest.mark.parametrize("flag", SHARED_FLAGS)
def test_shared_flag_is_accepted_only_where_it_is_read(flag, command, capsys):
    value, readers = SHARED_FLAGS[flag]
    argv = [*SHARED_FLAG_COMMANDS[command], flag, value]
    if command in readers:
        assert run_cli(capsys, *argv)[0] == 0
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10"),
        ("verify", "drift", "--samples", "1", "--n", "6"),
        ("optimize", "--target", "f", "--k", "5", "--starts", "1"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("seed", ["-5", "-1", str(2**64), "36893488147419103227"])
def test_seed_outside_64_bits_is_exit_two(argv, seed, capsys):
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err == f"error: seed must lie in 0..2^64-1, got {seed}\n"


def test_seed_at_64_bit_limit_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--config", "N=9;gaps=3,3,3", "--runs", "10", "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["exact", "--sweep", "5"], 0),
        (["verify", "drift", "--samples", "1", "--n", "5"], 1),  # alpha_constant_24 fails, with ALPHA at 25
        (["exact", "--sweep", "30"], 2),
    ],
)
def test_run_returns_the_code_of_main_then_freezes_the_heap(argv, code, capsys, monkeypatch):
    monkeypatch.setattr(lyapunov, "ALPHA", 25)  # read by verify drift only
    events = []

    def spy(argv):
        events.append("main")
        result = main(argv)
        events.append(result)
        return result

    monkeypatch.setattr(cli, "main", spy)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    assert cli.run(argv) == code
    assert events == ["main", code, "freeze"]
    capsys.readouterr()


def _cli_process(argv, stdout):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.Popen([sys.executable, "-m", "herman_lab", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_reader_closing_the_pipe_after_one_line_ends_quietly():
    # about 190 kB of output, more than a pipe holds: the sweep is still writing when the pipe closes
    proc = _cli_process(["exact", "--sweep", "15", "--exact-capacity-n", "15"], subprocess.PIPE)
    assert proc.stdout.readline() == b"N,K,gaps,expected_time,bound,pass\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_pipe_closed_before_the_first_write_ends_quietly():
    # this output fits in one buffer, so its only write is the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(["verify", "moments", "--max-k", "6"], write_end)
    os.close(write_end)
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
