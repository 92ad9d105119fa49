import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_exact_capacity_override_flag(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--config", "N=17;gaps=5,5,7", "--exact-capacity-n", "17"
    )
    assert code == 0
    assert out.strip() == "700/17"  # 4*5*5*7/17


def test_exact_float_fallback(capsys):
    code, out, _ = run_cli(capsys, "exact", "--config", "N=15;gaps=4,5,6", "--float")
    assert code == 0
    assert abs(float(out.strip()) - 4 * 4 * 5 * 6 / 15) <= 1e-9


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


def test_verify_drift_fails_with_corrupted_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "drift", "--n", "10", "--samples", "10", "--seed", "7", "--alpha", "23"
    )
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    alpha_checks = [r for r in lines if r.get("check") == "alpha_constant_24"]
    assert alpha_checks and alpha_checks[0]["pass"] is False
    # the V identity pins the coefficient on every K >= 5 state with f5 > 0
    identity = [r for r in lines if r.get("check") == "v_identity" and r.get("K", 0) >= 5]
    assert any(r["failures"] > 0 for r in identity)


def test_verify_coupling(capsys):
    code, out, _ = run_cli(capsys, "verify", "coupling", "--n", "5", "--runs", "50")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("drift", "--samples", "0"),
        ("coupling", "--runs", "0"),
        ("drift", "--n", "3"),
        ("moments", "--max-k", "2"),
        ("identities", "--max-k", "4"),
        ("kkt", "--max-k", "4"),
        ("all", "--max-k", "4"),
        ("drift", "--n", "65"),
        ("coupling", "--n", "65"),
        ("all", "--n", "65"),
    ],
    ids=" ".join,
)
def test_verify_input_that_runs_no_checks_is_exit_two(argv, capsys):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and argv[1] in err and len(err.strip().splitlines()) == 1


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
    for mode in (("--config", "N=65;gaps=21,21,23"), ("--sweep", "65", "--exact-capacity-n", "65")):
        code, out, err = run_cli(capsys, "exact", *mode, "--float", "--float-capacity-n", "65")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "occupancy word" in err


def test_exact_float_sweep_over_capacity_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "exact", "--sweep", "21", "--float")
    assert code == 2
    assert out == ""
    assert "capacity" in err


@pytest.mark.parametrize("float_flags", [(), ("--float", "--exact-capacity-n", "-4")])
@pytest.mark.parametrize("n", ["-3", "0", "1", "2"])
def test_exact_sweep_below_three_is_exit_two(n, float_flags, capsys):
    code, out, err = run_cli(capsys, "exact", "--sweep", n, *float_flags)
    assert code == 2
    assert out == ""
    assert err == f"error: ring size must be at least 3, got {n}\n"


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


@pytest.mark.parametrize("max_iters", ["0", "-1"])
def test_optimize_max_iters_below_one_is_exit_two(max_iters, capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--target", "f", "--k", "7", "--starts", "3", "--max-iters", max_iters
    )
    assert code == 2
    assert out == ""
    assert err == f"error: max_iters must be >= 1, got {max_iters}\n"


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
# flag -> (a value, the subcommands that read it); no subcommand reads --config-file or --threads
SHARED_FLAGS = {
    "--config-file": ("run.cfg", ()),
    "--seed": ("1", ("simulate", "verify", "optimize")),
    "--exact-capacity-n": ("9", ("exact",)),
    "--float-capacity-n": ("9", ("exact",)),
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
