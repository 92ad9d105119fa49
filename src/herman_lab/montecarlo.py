"""Trajectory simulation and seeded estimation of stabilization times.

The simulator works on the occupancy bitmask of the ring and draws one
coin word per step: every process gets a fair coin, and a token moves
clockwise exactly when its process coin is set, which is the original
bit-flipping formulation of the protocol.  The step is
`ring.step_occupancy`, the same one the exact chain enumerates.
`coupled_equivalence` steps Herman's bit flips beside it under shared
coins and checks that both give the same trajectory word for word;
`exhaustive_coupling` checks one step of the two on every bit word and
every coin word of a small ring.

Run i consumes only the stream derived as stream_key(master_seed, i)
(see `streams`), so estimates are bit-identical however runs are
batched or split.

On Linux, `run_steps` splits its runs over the CPUs the process may run
on: one contiguous range per CPU, the first stepped by the calling process
and each other one by a forked child, which pickles its step counts or its
exception back through a pipe.  It splits only when each range holds at
least SPLIT_MIN_STEPS steps of the `4N^2/27` worst-case mean, so that a
fork of a few milliseconds is paid only by work that dwarfs it; a platform
without `fork` or `sched_getaffinity` steps every run in the calling
process.  The output is byte-identical for any split, and no flag or
setting chooses one.

`run_steps` steps a batch of runs as uint64 arrays, one slot per run, in
blocks of steps.  A block draws all its coin words at once, straight from
the stream keys, since word t of a run depends only on its key and t;
each step then writes the next words into one row of a history array, and
only the block's last row is checked for absorption.  A block is one step
while the batch is large and up to MAX_BLOCK_STEPS once few runs are left,
so the short tail of slow runs pays few calls per step.  An absorbed run
is retired by recording its step count and zeroing its word, which the
step keeps at 0 and which has popcount 0.  The arrays are compacted once
the steps spent on retired slots add up to half a step of all slots, a
little less than a compaction costs.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass

import numpy as np

from .ring import Configuration, StepLimitError, check_bit_ring, check_odd_k, check_simulator_ring, positions_word, step_occupancy, token_word, word_positions
from .streams import GOLDEN, MASK64, SCRAMBLE_MULTIPLIERS, SCRAMBLE_SHIFTS, CoinStream

DEFAULT_STEP_CAP_FACTOR = 100  # cap = factor * N^2; a breach is a bug, not a sample
COMPACT_DIVISOR = 2  # compact once the steps spent on retired slots add up to half a step of all slots
BATCH_RUNS = 1 << 16  # runs stepped together; any size gives the same step counts
BLOCK_WORDS = 1 << 16  # words of one block's coin array; a block of a full batch is one step
MAX_BLOCK_STEPS = 256  # steps of one block at most, whatever few runs are left
SPLIT_MIN_STEPS = 1 << 22  # bound-steps each range needs before a split, about 30 ms of steps at N = 63 against a 2.7 ms fork


@dataclass(frozen=True)
class SimStats:
    runs: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    min_steps: int
    max_steps: int
    seed: int

    to_record = asdict  # the record's keys are the fields, in this order


def _default_cap(n: int, step_cap: int | None) -> int:
    return DEFAULT_STEP_CAP_FACTOR * n * n if step_cap is None else step_cap


def simulate_once(config: Configuration, stream: CoinStream, *, step_cap: int | None = None) -> int:
    """Steps until one token remains, driving the occupancy mask with `stream`."""
    check_odd_k(config.token_count, 1)
    n = config.ring_size
    cap = _default_cap(n, step_cap)
    occ = positions_word(config.positions)
    steps = 0
    while occ.bit_count() > 1:
        if steps >= cap:
            raise StepLimitError(cap)
        occ = step_occupancy(occ, occ & stream.coin_word(n), n)
        steps += 1
    return steps


def _scramble_into(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`streams.scramble64` of every word of `z`, written to `out` (which may be `z`)."""
    s1, s2, s3 = SCRAMBLE_SHIFTS
    m1, m2 = SCRAMBLE_MULTIPLIERS
    np.right_shift(z, s1, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    np.multiply(out, m1, out=out)
    np.right_shift(out, s2, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.multiply(out, m2, out=out)
    np.right_shift(out, s3, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    return out


def _stream_keys(master_seed: int, lo: int, hi: int) -> np.ndarray:
    keys = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    scratch = np.empty_like(keys)
    np.multiply(keys, GOLDEN, out=keys)
    _scramble_into(keys, keys, scratch)
    np.bitwise_xor(keys, master_seed & MASK64, out=keys)
    return _scramble_into(keys, keys, scratch)


def _run_batch(occ0: int, n: int, master_seed: int, lo: int, hi: int, cap: int) -> np.ndarray:
    """Step all runs [lo, hi) to absorption; returns their step counts.

    The batch advances in blocks of b steps, b = BLOCK_WORDS // slots
    clamped to [1, MAX_BLOCK_STEPS], to the steps left under the cap and
    to the steps already taken.  So a block of a large batch is one step,
    a block of a short tail is hundreds, and the last block at most
    doubles the steps of a batch whose runs are all short.  Word t of run
    i is scramble(key_i + t * GOLDEN) (see `streams`), so one add of the
    keys and the block's offsets and one in-place scramble draw a
    (b, slots) coin array; no counter advances.  Step j writes row j of a
    (b, slots) history whose rows are the scramble's scratch until then,
    and the current word is a view of the last row written; two history
    buffers take turns, so the next block's scratch never overwrites it.

    A popcount of 1 is absorbing, since a lone token never meets another,
    so only the last row is checked: a run that finished in the block has
    popcount 1 there, and its first row with popcount 1 is its step count.
    It is then retired by zeroing its word: 0 is a fixed point of the step
    with popcount 0, so the run is never counted again.  A compaction
    gathers three arrays by one index array, which costs a little less
    than a step of all slots, so the arrays are compacted once the
    slot-steps spent on retired runs since the last one exceed
    slots / COMPACT_DIVISOR.  A batch whose runs end fast then compacts
    every few steps, and one with a long tail after a few percent retire.
    """
    count = hi - lo
    steps = np.zeros(count, dtype=np.int64)
    if occ0.bit_count() == 1:
        return steps
    keys = _stream_keys(master_seed, lo, hi)
    occ = np.full(count, occ0, dtype=np.uint64)
    size = max(BLOCK_WORDS, count)
    coins, history, spare = (np.empty(size, dtype=np.uint64) for _ in range(3))
    orig = np.arange(count)
    live, retired, idle, t = count, 0, 0, 0
    while live:
        if t >= cap:
            # retired zero words may sit anywhere; orig stays ascending
            raise StepLimitError(cap, run_index=lo + int(orig[np.flatnonzero(occ)[0]]))
        if idle * COMPACT_DIVISOR > occ.size:
            keep = np.flatnonzero(occ)
            occ, keys, orig = occ[keep], keys[keep], orig[keep]
            retired = idle = 0
        slots = occ.size
        b = max(1, min(BLOCK_WORDS // slots, MAX_BLOCK_STEPS, cap - t, t))
        coin = coins[: b * slots].reshape(b, slots)
        rows = history[: b * slots].reshape(b, slots)
        np.add(keys, np.multiply(np.arange(t + 1, t + b + 1, dtype=np.uint64), GOLDEN)[:, None], out=coin)
        _scramble_into(coin, coin, rows)
        for j in range(b):
            # coins above bit n-1 meet no token, so the word needs no masking
            moving = coin[j]
            np.bitwise_and(moving, occ, out=moving)
            occ = step_occupancy(occ, moving, n, out=rows[j])
        history, spare = spare, history
        t += b
        idle += retired * b
        done = np.bitwise_count(occ) == 1
        if done.any():
            finished = done.nonzero()[0]
            first = (np.bitwise_count(rows[:, finished]) == 1).argmax(axis=0) if b > 1 else 0
            steps[orig[finished]] = t - b + 1 + first
            occ[finished] = 0
            live -= finished.size
            retired += finished.size
    return steps


def _workers(runs: int, n: int) -> int:
    """Processes to step `runs` runs on: one per CPU, while each range gets SPLIT_MIN_STEPS bound-steps."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    bound = -(-4 * n * n // 27)  # ceil(4N^2/27), the worst-case mean number of steps of a run
    workers = min(len(os.sched_getaffinity(0)), runs)
    while workers > 1 and runs // workers * bound < SPLIT_MIN_STEPS:
        workers -= 1
    return workers


def _run_range(occ0: int, n: int, master_seed: int, lo: int, hi: int, cap: int, out: np.ndarray) -> np.ndarray:
    """Steps runs [lo, hi) into out[lo:hi], BATCH_RUNS at a time."""
    for start in range(lo, hi, BATCH_RUNS):
        stop = min(start + BATCH_RUNS, hi)
        out[start:stop] = _run_batch(occ0, n, master_seed, start, stop, cap)
    return out[lo:hi]


def _fork_range(*args):
    """Steps `_run_range(*args)` in a child; returns its pid and the pipe its pickled result comes from."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns: os._exit skips the parent's buffers and exit hooks
        try:
            os.close(read)
            try:
                result = _run_range(*args)
            except BaseException as exc:  # the parent raises it, interrupts too
                result = exc
            with open(write, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def run_steps(config: Configuration, runs: int, master_seed: int, *, step_cap: int | None = None) -> np.ndarray:
    """Per-run stabilization steps for runs 0..runs-1, stepped BATCH_RUNS at a time.

    On Linux the runs are split over the process's CPUs, one contiguous
    range each, when every range gets SPLIT_MIN_STEPS steps of the
    `4N^2/27` bound; this process steps the first and a forked child each
    other one.  The steps are byte-identical for any split, and no flag
    chooses it.  A child's exception is raised here with its own type, the
    lowest range's first, and no child outlives the call, however it ends.
    """
    check_odd_k(config.token_count, 1)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n = config.ring_size
    check_simulator_ring(n)
    cap = _default_cap(n, step_cap)
    occ0 = positions_word(config.positions)
    out = np.empty(runs, dtype=np.int64)
    workers = _workers(runs, n)
    bounds = [runs * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork_range(occ0, n, master_seed, lo, hi, cap, out), lo, hi))
        _run_range(occ0, n, master_seed, 0, bounds[1], cap, out)
        for _, pipe, lo, hi in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"the worker stepping runs {lo}..{hi - 1} ended without a result")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            out[lo:hi] = result
    finally:
        for pid, pipe, _, _ in children:
            # an unreaped child keeps its pid, so the kill cannot reach another process
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def summarize(steps: np.ndarray, master_seed: int) -> SimStats:
    runs = int(steps.size)
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return SimStats(
        runs=runs,
        mean=mean,
        stderr=stderr,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        min_steps=int(steps.min()),
        max_steps=int(steps.max()),
        seed=master_seed,
    )


def estimate(config: Configuration, runs: int, master_seed: int, *, step_cap: int | None = None) -> SimStats:
    """Aggregate `runs` independent simulations, reproducible from the seed."""
    steps = run_steps(config, runs, master_seed, step_cap=step_cap)
    return summarize(steps, master_seed)


def step_histogram(steps: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(steps, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def histogram_csv_lines(hist: dict[int, int]) -> list[str]:
    lines = ["step_count,frequency"]
    lines.extend(f"{k},{hist[k]}" for k in sorted(hist))
    return lines


@dataclass(frozen=True)
class CouplingResult:
    passed: bool
    runs: int
    failure: dict | None = None


def _failure(expected: int, extracted: int, **case) -> dict:
    """A coupling failure record: the case, then the token positions of both sides' words."""
    expected, extracted = list(word_positions(expected)), list(word_positions(extracted))
    return {**case, "expected_positions": expected, "extracted_positions": extracted}


def coupled_equivalence(n: int, runs: int, master_seed: int) -> CouplingResult:
    """Run Herman's bit-flip ring and the occupancy step under shared coins.

    Run i reads stream i: its first coin word is the bit ring, then one
    word per step.  The bit side flips the bit of every token-holding
    process whose coin is set; the occupancy side starts at the ring's
    token word and moves the same tokens with `step_occupancy`.  After
    every step the token word of the bits must equal the occupancy word.
    """
    check_bit_ring(n)
    check_simulator_ring(n)
    cap = _default_cap(n, None)
    for run in range(runs):
        stream = CoinStream.from_seed(master_seed, run)
        bits = stream.coin_word(n)
        occ = tokens = token_word(bits, n)
        steps = 0
        while occ.bit_count() > 1:
            if steps >= cap:
                raise StepLimitError(cap, run_index=run)
            coins = stream.coin_word(n)
            bits ^= coins & tokens  # Herman's rule: a token-holding process flips its bit on heads
            occ = step_occupancy(occ, occ & coins, n)
            tokens = token_word(bits, n)
            if tokens != occ:
                return CouplingResult(False, runs, _failure(occ, tokens, run=run, step=steps, coins=coins))
            steps += 1
    return CouplingResult(True, runs)


def exhaustive_coupling(n: int) -> CouplingResult:
    """One step of Herman's bit flips against `step_occupancy` on all 4^n bit and coin words."""
    check_bit_ring(n)
    for bits in range(1 << n):
        tokens = token_word(bits, n)
        for coins in range(1 << n):
            stepped = step_occupancy(tokens, tokens & coins, n)
            extracted = token_word(bits ^ (coins & tokens), n)
            if extracted != stepped:  # runs counts the cases checked in (bits, coins) order, this one included
                return CouplingResult(False, (bits << n | coins) + 1, _failure(stepped, extracted, bits=bits, coins=coins))
    return CouplingResult(True, 1 << 2 * n)
