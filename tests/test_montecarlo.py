import json
import math
import os
import signal

import numpy as np
import pytest

from conftest import no_annihilation
from herman_lab import montecarlo as mc
from herman_lab.markov import expected_time_exact
from herman_lab.montecarlo import (
    CouplingResult,
    SimStats,
    StepLimitError,
    coupled_equivalence,
    estimate,
    exhaustive_coupling,
    run_steps,
    simulate_once,
    step_histogram,
    summarize,
)
from herman_lab.ring import BitRing, Configuration, GapVector, config_from_gaps, token_positions
from herman_lab.streams import CoinStream


def state(n, gaps):
    return config_from_gaps(GapVector(n, gaps))


def force_split(monkeypatch):
    """Split every `run_steps` call over three processes, whatever the CPUs and the work."""
    monkeypatch.setattr(mc, "SPLIT_MIN_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def spy_forks(monkeypatch):
    """The pids of the children `run_steps` forks from now on, recorded in the parent."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(mc.os, "fork", spy)
    return pids


def assert_reaped(pids):
    """Some child was recorded, and each has been reaped, so none is running or a zombie; then forgets them.

    Only the recorded pids are waited on, so a child of this process that
    another test left behind is neither blamed nor reaped here."""
    assert pids
    while pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pids.pop(), os.WNOHANG)


def test_single_token_takes_zero_steps():
    assert simulate_once(Configuration(5, (2,)), CoinStream.from_seed(0, 0)) == 0
    assert run_steps(Configuration(5, (2,)), 10, 0).tolist() == [0] * 10


@pytest.mark.parametrize(
    "n,gaps,runs",
    [
        (9, (3, 3, 3), 400),
        (63, (21, 21, 21), 60),
        (64, (21, 21, 22), 60),
        (63, (13, 13, 13, 12, 12), 60),
        (64, (13, 13, 13, 13, 12), 60),
        (63, (9,) * 7, 60),
        (64, (9,) * 6 + (10,), 60),
        (11, (2, 4, 5), 5000),
    ],
    ids=lambda value: None if isinstance(value, int) else f"K{len(value)}",
)
def test_scalar_and_vectorized_runs_agree(n, gaps, runs, monkeypatch):
    # N = 64 fills the uint64 word, so the rotation wraps at bit 63
    config = state(n, gaps)
    scalar = [simulate_once(config, CoinStream.from_seed(42, i)) for i in range(runs)]
    assert run_steps(config, runs, 42).tolist() == scalar
    # (BLOCK_WORDS, MAX_BLOCK_STEPS): one step per block; blocks bounded only by the
    # steps taken and the cap, so the last one steps past every run's absorption;
    # blocks of 7 steps, which end between most runs' absorptions
    for words, most in ((1, 1), (1 << 20, 1 << 20), (1 << 20, 7)):
        monkeypatch.setattr(mc, "BLOCK_WORDS", words)
        monkeypatch.setattr(mc, "MAX_BLOCK_STEPS", most)
        assert run_steps(config, runs, 42).tolist() == scalar
    # three batches, the last one short: batching changes no step count
    monkeypatch.setattr(mc, "BATCH_RUNS", runs // 3 + 1)
    assert run_steps(config, runs, 42).tolist() == scalar
    # three ranges, two of them stepped in forked children: the split changes no step
    # count.  Fresh arrays are filled, so that the step counts cannot come from the
    # memory of an earlier call rather than from the children
    force_split(monkeypatch)
    full = np.full
    monkeypatch.setattr(np, "empty", lambda shape, dtype=None: full(shape, 12345, dtype))
    assert run_steps(config, runs, 42).tolist() == scalar


def test_estimate_reproducible():
    config = state(9, (3, 3, 3))
    assert estimate(config, 20_000, 12345) == estimate(config, 20_000, 12345)


def test_estimate_stats_fields():
    steps = run_steps(state(7, (2, 2, 3)), 5000, 3)
    stats = summarize(steps, 3)
    assert stats.runs == 5000
    assert stats.min_steps == int(steps.min())
    assert stats.max_steps == int(steps.max())
    expected_stderr = float(np.std(steps, ddof=1) / math.sqrt(5000))
    assert math.isclose(stats.stderr, expected_stderr)
    assert math.isclose(stats.ci95[0], stats.mean - 1.96 * stats.stderr)
    assert math.isclose(stats.ci95[1], stats.mean + 1.96 * stats.stderr)
    assert stats.seed == 3


def test_estimate_requires_positive_runs():
    with pytest.raises(ValueError):
        estimate(state(9, (3, 3, 3)), 0, 1)


def test_geometric_first_step_three_ring():
    # P(done after one step) = 3/4 from the exact one-step law
    steps = run_steps(state(3, (1, 1, 1)), 40_000, 77)
    ones = int((steps == 1).sum())
    sigma = math.sqrt(40_000 * 0.75 * 0.25)
    assert abs(ones - 30_000) <= 4 * sigma


@pytest.mark.parametrize(
    "n,gaps",
    [(9, (3, 3, 3)), (3, (1, 1, 1)), (7, (1, 1, 1, 1, 3)), (11, (2, 4, 5))],
)
def test_estimates_match_exact_values(n, gaps):
    exact = float(expected_time_exact(GapVector(n, gaps)))
    stats = estimate(state(n, gaps), 50_000, 2026)
    assert abs(stats.mean - exact) <= 4 * stats.stderr


def cap_steps(monkeypatch, cap):
    """Cap every run at `cap` steps; `run_steps` reads the cap before it forks, so its children inherit it."""
    monkeypatch.setattr(mc, "_default_cap", lambda n: cap)


def _breaches_cap(config, seed, run):
    try:
        simulate_once(config, CoinStream.from_seed(seed, run))
    except StepLimitError:
        return True
    return False


@pytest.mark.parametrize("split", (False, True), ids=("serial", "split"))
@pytest.mark.parametrize("cap", (0, 4, 7, 42, 43))
def test_step_cap_breach_is_an_error(cap, split, monkeypatch):
    # at seed 1, run 0 takes 4 steps: with cap 4 its retired zero word leads
    # the array, and cap 7 ends the block from step 4 to 8 early.  The longest
    # run, run 65, takes 43 steps: cap 42 ends the block from step 32 to 64
    # early, after two compactions, and with cap 43 the run absorbs on the last
    # step the cap allows, which is no breach, as in simulate_once.  Split in
    # three, runs 0-32 stay in this process and 33-65 and 66-99 go to children:
    # cap 42 breaches only in a child's range, and a low cap in every range,
    # where the lowest range's error wins
    if split:
        force_split(monkeypatch)
    cap_steps(monkeypatch, cap)
    config = state(9, (3, 3, 3))
    first = next((i for i in range(100) if _breaches_cap(config, 1, i)), None)
    if first is None:
        scalar = [simulate_once(config, CoinStream.from_seed(1, i)) for i in range(100)]
        assert max(scalar) == cap
        assert run_steps(config, 100, 1).tolist() == scalar
        return
    with pytest.raises(StepLimitError) as info:
        run_steps(config, 100, 1)
    assert info.value.run_index == first
    assert info.value.cap == cap


def test_no_worker_outlives_run_steps(monkeypatch):
    force_split(monkeypatch)
    pids = spy_forks(monkeypatch)
    config = state(9, (3, 3, 3))
    run_steps(config, 100, 1)
    assert_reaped(pids)
    with monkeypatch.context() as capped, pytest.raises(StepLimitError):
        cap_steps(capped, 42)
        run_steps(config, 100, 1)
    assert_reaped(pids)
    # interrupted while this process steps its own range, before any child is read
    parent, run_batch = os.getpid(), mc._run_batch

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return run_batch(*args)

    monkeypatch.setattr(mc, "_run_batch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_steps(config, 100, 1)
    assert_reaped(pids)


@pytest.mark.parametrize("died", (True, False), ids=("died", "raised"))
def test_a_failed_worker_fails_run_steps(died, monkeypatch):
    # a child that dies without a result fails the call here, and one that raises
    # raises its own exception here, as `cli` needs of a MemoryError; both children
    # fail, and the lower range, runs 33-65, is the one reported
    force_split(monkeypatch)
    pids = spy_forks(monkeypatch)
    parent, run_batch = os.getpid(), mc._run_batch

    def failing(*args):
        if os.getpid() != parent:
            if died:
                os._exit(3)
            raise MemoryError(f"unable to allocate the coin words of runs {args[3]}..{args[4] - 1}")
        return run_batch(*args)

    monkeypatch.setattr(mc, "_run_batch", failing)
    signal.alarm(60)  # a wait for a dead child's result ends the test run rather than hanging it
    try:
        with pytest.raises(RuntimeError if died else MemoryError, match="runs 33..65"):
            run_steps(state(9, (3, 3, 3)), 100, 1)
    finally:
        signal.alarm(0)
    assert_reaped(pids)


def test_split_needs_the_work_bound_to_pay_for_a_fork(monkeypatch):
    # N = 9 has the bound ceil(4 * 81 / 27) = 12 steps a run, so each of two ranges needs 349 526 runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert mc._workers(699_051, 9) == 1
    assert mc._workers(699_052, 9) == 2
    assert mc._workers(10**9, 9) == 3
    assert mc._workers(50_000, 63) == 3


def test_max_steps_below_default_cap():
    config = state(9, (1, 3, 5))
    stats = estimate(config, 100_000, 5)
    assert stats.max_steps <= 100 * 81


def test_histogram_matches_counts():
    steps = run_steps(state(5, (1, 1, 3)), 2000, 8)
    hist = step_histogram(steps)
    assert sum(hist.values()) == 2000
    assert hist[int(steps[0])] >= 1
    lines = mc.histogram_csv_lines(hist)
    assert lines[0] == "step_count,frequency"
    assert len(lines) == len(hist) + 1


def test_sim_stats_json():
    stats = SimStats(10, 1.5, 0.1, (1.3, 1.7), 1, 3, 42)
    record = stats.to_record()
    assert record["runs"] == 10 and record["seed"] == 42
    assert json.dumps(record) == (
        '{"runs": 10, "mean": 1.5, "stderr": 0.1, "ci95": [1.3, 1.7], "min_steps": 1, "max_steps": 3, "seed": 42}'
    )


# --- coupling ------------------------------------------------------------------

def test_exhaustive_coupling_n3_to_n7():
    # the results `exhaustive_coupling` gave when it still stepped positions and bit tuples
    for n in (3, 5, 7):
        assert exhaustive_coupling(n) == CouplingResult(True, 4**n)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_coupled_trajectories(n):
    result = coupled_equivalence(n, 500, 31)
    assert result.passed
    assert result.failure is None


def _clockwise_tokens(bits, n):
    """The token word with each bit compared to its clockwise neighbour instead."""
    return ~(bits ^ (bits >> 1 | bits << (n - 1))) & ((1 << n) - 1)


def _assert_caught(result, where=("run", "step")):
    assert result.passed is False
    failure = result.failure
    assert set(failure) == {*where, "coins", "expected_positions", "extracted_positions"}
    for key in ("expected_positions", "extracted_positions"):
        assert failure[key] == sorted(failure[key])
    assert failure["expected_positions"] != failure["extracted_positions"]


def test_coupling_catches_an_occupancy_step_without_annihilation(monkeypatch):
    monkeypatch.setattr(mc, "step_occupancy", no_annihilation)
    _assert_caught(coupled_equivalence(5, 20, 0))


def test_coupling_catches_tokens_read_against_the_wrong_neighbour(monkeypatch):
    monkeypatch.setattr(mc, "token_word", _clockwise_tokens)
    _assert_caught(coupled_equivalence(5, 20, 0))


def test_exhaustive_coupling_catches_an_occupancy_step_without_annihilation(monkeypatch):
    monkeypatch.setattr(mc, "step_occupancy", no_annihilation)
    result = exhaustive_coupling(3)
    _assert_caught(result, where=("bits",))
    # the second case: bit word 0 holds three tokens, and coin word 1 moves the first onto the second
    assert (result.runs, result.failure["bits"], result.failure["coins"]) == (2, 0, 1)
    assert (result.failure["expected_positions"], result.failure["extracted_positions"]) == ([2, 3], [3])


def test_exhaustive_coupling_catches_tokens_read_against_the_wrong_neighbour(monkeypatch):
    monkeypatch.setattr(mc, "token_word", _clockwise_tokens)
    _assert_caught(exhaustive_coupling(3), where=("bits",))


def test_coupling_step_cap_names_the_first_run_with_a_step(monkeypatch):
    # runs 0 and 1 of seed 2 start from a single token, so they take no step
    n, seed = 5, 2
    starts = [CoinStream.from_seed(seed, run).coin_word(n) for run in range(20)]
    counts = [len(token_positions(BitRing(tuple(bool(w >> i & 1) for i in range(n))))) for w in starts]
    first = next(run for run, count in enumerate(counts) if count > 1)
    assert first > 0
    monkeypatch.setattr(mc, "DEFAULT_STEP_CAP_FACTOR", 0)
    with pytest.raises(StepLimitError) as info:
        coupled_equivalence(n, 20, seed)
    assert info.value.run_index == first
    assert info.value.cap == 0


def test_single_token_start_couples_trivially():
    # a one-token bit ring never changes its extracted configuration
    from herman_lab.ring import bit_step, bits_from_config, config_from_bits

    config = Configuration(5, (3,))
    bits = bits_from_config(config)
    for coins in range(2):
        stepped = bit_step(bits, (bool(coins),))
        assert config_from_bits(stepped).token_count == 1
