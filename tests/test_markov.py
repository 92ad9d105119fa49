import signal
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, groupby, product

import numpy as np
import pytest

from conftest import random_gaps
from herman_lab import lyapunov, markov, ring
from herman_lab.lyapunov import V, f3, f5
from herman_lab.markov import (
    BoundCheck,
    delta_moment,
    enumerate_states,
    expected_time_exact,
    expected_time_float,
    lyapunov_bound_check,
    max_expected_time,
    moment_formula,
    successor_distribution,
    theorem1_bound,
    verify_drift_V,
    verify_drift_V3,
    verify_drift_V5,
    verify_prop17,
)
from herman_lab.ring import (
    Configuration,
    GapVector,
    apply_step,
    canonical_rotation,
    config_from_gaps,
    gap_vector,
    least_rotation,
)


def closed_form_k3(g: GapVector) -> Fraction:
    g0, g1, g2 = g.gaps
    return Fraction(4 * g0 * g1 * g2, g.ring_size)


# --- one-step law -----------------------------------------------------------

def test_single_token_is_absorbing():
    law = successor_distribution(GapVector(6, (6,)))
    assert law.outcomes == ((GapVector(6, (6,)), Fraction(1)),)


def test_three_ring_law():
    law = successor_distribution(GapVector(3, (1, 1, 1)))
    assert dict(((o.gaps, p) for o, p in law.outcomes)) == {
        (3,): Fraction(3, 4),
        (1, 1, 1): Fraction(1, 4),
    }


def test_three_ring_law_against_position_enumeration():
    # oracle: step every mask through the position pipeline
    config = Configuration(3, (1, 2, 3))
    counts = {}
    for mask in product((False, True), repeat=3):
        succ = canonical_rotation(gap_vector(apply_step(config, mask))).gaps
        counts[succ] = counts.get(succ, 0) + 1
    law = successor_distribution(GapVector(3, (1, 1, 1)))
    assert {o.gaps: p for o, p in law.outcomes} == {
        gaps: Fraction(c, 8) for gaps, c in counts.items()
    }


def test_even_token_law_parity_and_sums():
    law = successor_distribution(GapVector(4, (1, 3)))
    for outcome, _p in law.outcomes:
        assert outcome.token_count in (0, 2)
        assert sum(outcome.gaps) in (0, 4)
    assert sum(p for _o, p in law.outcomes) == 1


def test_law_is_stochastic_with_conserved_sums(rng):
    for _ in range(100):
        k = rng.choice((1, 2, 3, 4, 5, 6, 7))
        n = rng.randint(max(3, k + 1), 16)
        g = random_gaps(rng, k, n) if k > 1 else GapVector(n, (n,))
        law = successor_distribution(g)
        assert sum(p for _o, p in law.outcomes) == 1
        for outcome, p in law.outcomes:
            assert p.denominator & (p.denominator - 1) == 0  # a power of two
            assert outcome.token_count <= k
            assert outcome.token_count % 2 == k % 2
            if outcome.token_count:
                assert sum(outcome.gaps) == n


# --- the gap-space step: the reference the package's kernels are checked against

def raw_increments(gaps, mask):
    """Gap values after the mask's moves, zeros (collisions) retained."""
    return [g + d for g, d in zip(gaps, markov.gap_increments(len(gaps), mask))]


def merge_zeros(new):
    """Remove annihilated token pairs; a zero gap merges its two neighbors.

    Zero gaps are never cyclically adjacent (a shared token cannot both
    move and stay), so each zero removes a disjoint token pair.
    """
    k = len(new)
    dead = set()
    for i, v in enumerate(new):
        if v == 0:
            dead.add((i - 1) % k)
            dead.add(i)
    if not dead:
        return tuple(new)
    survivors = [i for i in range(k) if i not in dead]
    if not survivors:
        return ()
    out = []
    for idx, b in enumerate(survivors):
        a = survivors[idx - 1]
        j = (a + 1) % k
        total = 0
        while True:
            total += new[j]
            if j == b:
                break
            j = (j + 1) % k
        out.append(total)
    return tuple(out)


def step_gaps(gaps, mask):
    """Successor gap vector (token numbering preserved, not canonicalized)."""
    return merge_zeros(raw_increments(gaps, mask))


def test_step_gaps_matches_position_pipeline(rng):
    for _ in range(500):
        k = rng.randint(2, 8)
        n = rng.randint(k + 1, 16)
        g = random_gaps(rng, k, n)
        config = config_from_gaps(g)
        mask_bits = rng.getrandbits(k)
        mask = tuple(bool((mask_bits >> i) & 1) for i in range(k))
        succ = step_gaps(g.gaps, mask_bits)
        try:
            expected = gap_vector(apply_step(config, mask)).gaps
        except ValueError:
            assert succ == ()
            continue
        assert sum(succ) == n
        assert min(succ) >= 1
        assert tuple(sorted(succ)) != () and canonical_rotation(
            GapVector(n, succ)
        ) == canonical_rotation(GapVector(n, expected))


def reference_successor_counts(n, gaps):
    """Gap-space oracle: every mask through step_gaps, keyed by canonical rotation."""
    counts = {}
    for mask in range(1 << len(gaps)):
        succ = step_gaps(gaps, mask)
        key = canonical_rotation(GapVector(n, succ)).gaps
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items(), key=lambda item: (len(item[0]), item[0])))


def test_successor_kernel_matches_gap_reference_on_every_state():
    for n in range(3, 13):
        for gaps in enumerate_states(n):
            assert markov._successor_counts(n, gaps) == reference_successor_counts(n, gaps), (n, gaps)


def test_successor_kernel_non_canonical_and_even_k(rng):
    assert markov._successor_counts(4, (1, 3)) == (((), 1), ((1, 3), 2), ((2, 2), 1))
    assert markov._successor_counts(4, (3, 1)) == markov._successor_counts(4, (1, 3))
    for _ in range(200):
        k = rng.randint(2, 9)
        n = rng.randint(k + 1, 20)
        gaps = random_gaps(rng, k, n).gaps
        assert markov._successor_counts(n, gaps) == reference_successor_counts(n, gaps), (n, gaps)


def test_successor_kernel_at_word_size():
    gaps = (21, 21, 22)
    assert markov._successor_counts(64, gaps) == reference_successor_counts(64, gaps)
    with pytest.raises(ValueError, match="occupancy word"):
        successor_distribution(GapVector(65, (21, 21, 23)))


def block_rows(n, states, classes):
    """Each row of `_blocks` as (class, its (class column, mask count) pairs by column).

    The same-K counts are read back from the matrix, its off-diagonal
    entries negated and its diagonal subtracted from 2^K; the row's exits,
    whose columns are the lesser, come first.  Asserts the dtypes and that
    the exits run row by row, by column within a row.
    """
    rows = []
    for k, first, matrix, exits in markov._blocks(n, states, markov._state_keys(n, states), classes):
        assert matrix.dtype == np.float64 and all(part.dtype == np.int32 for part in exits)
        triples = list(zip(*(part.tolist() for part in exits)))
        assert triples == sorted(triples)
        by_row = {i: [(col, count) for _i, col, count in row] for i, row in groupby(triples, key=lambda t: t[0])}
        for i, row in enumerate(((1 << k) * np.eye(len(matrix)) - matrix).tolist()):
            assert all(c == int(c) for c in row)
            rows.append((first + i, by_row.get(i, []) + [(first + j, int(c)) for j, c in enumerate(row) if c]))
    return rows


def class_summed_rows(n, states, classes):
    """(class, `_successor_counts` of its first member summed per class column) of each class with K >= 2."""
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for column, i in enumerate(np.unique(classes, return_index=True)[1].tolist()):
        if len(states[i]) >= 2:
            summed = {}
            for succ, count in markov._successor_counts(n, states[i]):
                j = int(classes[index[succ]])
                summed[j] = summed.get(j, 0) + count
            rows.append((column, sorted(summed.items())))
    return rows


def test_block_rows_match_successor_counts_on_every_state():
    # with every state its own class, a row is `_successor_counts` itself, in its order
    for n in range(3, 15):
        states = enumerate_states(n)
        index = {s: i for i, s in enumerate(states)}
        expected = [(i, [(index[t], c) for t, c in markov._successor_counts(n, s)]) for i, s in enumerate(states) if len(s) >= 2]
        assert block_rows(n, states, np.arange(len(states))) == expected, n


def test_lumped_block_rows_are_class_summed_successor_counts():
    for n in range(3, 15):
        states = enumerate_states(n)
        classes = markov._mirror_classes(n, markov._state_keys(n, states))
        assert block_rows(n, states, classes) == class_summed_rows(n, states, classes), n


def blocks_as_bytes(n, states, keys, classes):
    """`_blocks` output as (K, first, and the dtype, shape and bytes of the matrix and of each exit array)."""
    return [
        (k, first, *((part.dtype.str, part.shape, part.tobytes()) for part in (matrix, *exits)))
        for k, first, matrix, exits in markov._blocks(n, states, keys, classes)
    ]


def sides_of_the_word_limit(monkeypatch, n):
    """Patch `markov` onto the word-table side of `_columns`' choice for every block, then onto the sorted-key side.

    Yields the side.  Each side has the other's helper taken away, so a
    call that took the wrong side fails."""
    for side in ("table", "sorted"):
        with monkeypatch.context() as patch:
            if side == "table":
                patch.setattr(markov, "TABLE_ENTRIES_PER_WORD", 1 << n)
                patch.setattr(markov, "necklace_key", None)
            else:
                patch.setattr(markov, "WORD_TABLE_BITS", n - 1)
                patch.setattr(markov, "_rotl", None)
            yield side


def test_the_word_table_is_built_only_for_enough_successor_words(monkeypatch):
    # a table of 2^13 entries pays for 2^13 / TABLE_ENTRIES_PER_WORD successor words, not one fewer,
    # once it has more entries than a pass has words; with fewer it is always built
    states = enumerate_states(13)
    keys, classes = markov._state_keys(13, states), np.arange(len(states))
    words = np.concatenate(list(markov._successor_words(13, markov._token_bits(13, np.array(states[1:4])))))
    enough = (1 << 13) // markov.TABLE_ENTRIES_PER_WORD
    with monkeypatch.context() as patch:
        patch.setattr(markov, "_rotl", None)
        patch.setattr(markov, "TABLE_PASS_WORDS", 1 << 12)
        keyed = markov._columns(13, keys, classes, enough - 1)(words)
    for count, pass_words in ((enough, 1 << 12), (1, 1 << 13)):
        with monkeypatch.context() as patch:
            patch.setattr(markov, "necklace_key", None)
            patch.setattr(markov, "TABLE_PASS_WORDS", pass_words)
            assert np.array_equal(markov._columns(13, keys, classes, count)(words), keyed)
    assert keyed.min() >= 0
    # a few-token query below the table's width limit fills no 2^24-entry table
    with monkeypatch.context() as patch:
        patch.setattr(markov, "_rotl", None)
        assert expected_time_exact(GapVector(24, (1, 1, 22))) == Fraction(4 * 22, 24)


def test_blocks_are_the_same_when_a_token_count_spans_passes(monkeypatch):
    # byte for byte, whole or split over passes of 4 states of K = 5, 1 of K = 7 up, on either side of the word limit
    states = enumerate_states(13)
    keys = markov._state_keys(13, states)
    for classes in (np.arange(len(states)), markov._mirror_classes(13, keys)):
        whole, summed = blocks_as_bytes(13, states, keys, classes), class_summed_rows(13, states, classes)
        for _side in sides_of_the_word_limit(monkeypatch, 13):
            assert blocks_as_bytes(13, states, keys, classes) == whole
            with monkeypatch.context() as patch:
                patch.setattr(markov, "TABLE_PASS_WORDS", 1 << 7)
                assert blocks_as_bytes(13, states, keys, classes) == whole
                assert block_rows(13, states, classes) == summed
    # and the two sides agree on every ring up to 16, with and without mirror classes
    for n in range(3, 17):
        states = enumerate_states(n)
        keys = markov._state_keys(n, states)
        for classes in (np.arange(len(states)), markov._mirror_classes(n, keys)):
            table, keyed = (blocks_as_bytes(n, states, keys, classes) for _side in sides_of_the_word_limit(monkeypatch, n))
            assert table == keyed, n


def test_blocks_at_word_size():
    states = enumerate_states(64, 3)
    classes = np.arange(len(states))
    assert block_rows(64, states, classes) == class_summed_rows(64, states, classes)


def test_blocks_reject_a_list_not_closed_under_successors(monkeypatch):
    # (9,) has the largest key, so on the sorted-key side its successor keys would search past
    # the end; every other state is reached from the rest of its token count
    for missing in ((9,), (1, 1, 7), (1, 1, 2, 2, 3)):
        states = enumerate_states(9)
        states.remove(missing)
        for _side in sides_of_the_word_limit(monkeypatch, 9):
            with pytest.raises(ValueError, match="not closed"):
                list(markov._blocks(9, states, markov._state_keys(9, states), np.arange(len(states))))


@pytest.mark.parametrize("solve", [markov.solve_all_exact, markov.solve_all_float])
def test_no_block_is_alive_while_the_next_token_count_is_stepped(solve, monkeypatch):
    refs, alive = [], []
    blocks, words = markov._blocks, markov._successor_words

    def track(block):
        refs.append(weakref.ref(block[2]))
        return block

    def spy(n, tokens):
        alive.append(sum(ref() is not None for ref in refs))
        return words(n, tokens)

    # neither wrapper holds a block: `map` keeps no item it has returned
    monkeypatch.setattr(markov, "_blocks", lambda *args: map(track, blocks(*args)))
    monkeypatch.setattr(markov, "_successor_words", spy)
    solve(11)
    assert alive == [0] * 5  # one pass for each of K = 3, 5, 7, 9, 11


# --- reflection classes --------------------------------------------------------

def mirror(gaps):
    return least_rotation(gaps[::-1])


def class_summed(n, gaps):
    """`_successor_counts` of a state with each successor replaced by its class, the lesser of it and its mirror."""
    summed = {}
    for succ, count in markov._successor_counts(n, gaps):
        cls = min(succ, mirror(succ))
        summed[cls] = summed.get(cls, 0) + count
    return summed


def test_a_state_and_its_mirror_have_the_same_class_summed_law():
    asymmetric = 0
    for n in range(3, 15):
        for gaps in enumerate_states(n):
            asymmetric += gaps != mirror(gaps)
            assert class_summed(n, gaps) == class_summed(n, mirror(gaps)), (n, gaps)
    assert asymmetric > 0


def test_mirror_classes_pair_each_state_with_its_mirror_in_first_member_order():
    for n in range(3, 15):
        states = enumerate_states(n)
        index = {s: i for i, s in enumerate(states)}
        classes = markov._mirror_classes(n, markov._state_keys(n, states)).tolist()
        assert classes == [classes[index[mirror(s)]] for s in states]
        assert len(set(classes)) == len({min(s, mirror(s)) for s in states})
        firsts = [c for i, c in enumerate(classes) if c not in classes[:i]]
        assert firsts == list(range(len(firsts)))
    assert len(set(markov._mirror_classes(13, markov._state_keys(13, enumerate_states(13))).tolist())) == 190


def _gauss_fraction(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination in Fractions: the reference the integer solver is checked against."""
    n = len(rhs)
    aug = [rows[i] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular hitting-time system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def necklace_reference(n):
    """E[T] of every state from the unlumped system, one Fraction row per necklace, a token count at a time."""
    values = {}
    for k, group in groupby(enumerate_states(n), len):
        block = list(group)
        index = {s: i for i, s in enumerate(block)}
        rows, rhs = [], []
        for s in block:
            row, b = [Fraction(0)] * len(block), Fraction(1)
            row[index[s]] += 1
            for succ, count in markov._successor_counts(n, s):
                if succ in index:
                    row[index[succ]] -= Fraction(count, 1 << k)
                else:
                    b += Fraction(count, 1 << k) * values[succ]
            rows.append(row)
            rhs.append(b)
        values.update(zip(block, [Fraction(0)] * len(block) if k == 1 else _gauss_fraction(rows, rhs)))
    return values


@pytest.mark.parametrize("n", range(3, 12))
def test_lumped_solve_equals_the_unreduced_necklace_system(n):
    assert markov.solve_all_exact(n) == necklace_reference(n)


# --- exact expected times ------------------------------------------------------

def test_absorbed_state_time_zero():
    assert expected_time_exact(GapVector(8, (8,))) == 0


def test_three_ring_time():
    assert expected_time_exact(GapVector(3, (1, 1, 1))) == Fraction(4, 3)


def test_mciver_morgan_nine():
    assert expected_time_exact(GapVector(9, (3, 3, 3))) == 12


def test_five_ring_k3():
    assert expected_time_exact(GapVector(5, (1, 1, 3))) == Fraction(12, 5)


def test_k3_closed_form_random(rng):
    for _ in range(10):
        n = rng.randint(4, 14)
        g = random_gaps(rng, 3, n)
        assert expected_time_exact(g) == closed_form_k3(g)


def test_expected_time_rejects_even_k():
    with pytest.raises(ValueError):
        expected_time_exact(GapVector(6, (3, 3)))


def test_expected_time_rotation_invariant(rng):
    for _ in range(10):
        k = rng.choice((3, 5))
        n = rng.randint(k + 1, 11)
        g = random_gaps(rng, k, n)
        times = {
            expected_time_exact(GapVector(n, g.gaps[i:] + g.gaps[:i])) for i in range(k)
        }
        assert len(times) == 1


def test_float_path_agrees_with_exact(rng):
    for _ in range(10):
        k = rng.choice((3, 5))
        n = rng.randint(k + 1, 11)
        g = random_gaps(rng, k, n)
        assert abs(expected_time_float(g) - float(expected_time_exact(g))) <= 1e-9


def test_raised_capacity_stops_at_the_occupancy_word():
    g = GapVector(65, (21, 21, 23))
    with pytest.raises(ValueError, match="occupancy word"):
        expected_time_exact(g)
    with pytest.raises(ValueError, match="occupancy word"):
        expected_time_float(g)
    with pytest.raises(ValueError, match="occupancy word"):
        markov.solve_all_exact(65)


def test_state_count_is_the_length_of_the_enumeration():
    for n in range(3, 21):
        states = enumerate_states(n)
        for most in range(1, n + 1, 2):
            assert ring._state_count(n, most) == sum(len(s) <= most for s in states), (n, most)
        if n > 16:
            continue
        # each K's block: its necklaces on the float path, its reflection classes (bracelets) on the exact one
        classes = markov._mirror_classes(n, markov._state_keys(n, states))
        for k, members in groupby(range(len(states)), lambda i: len(states[i])):
            members = list(members)
            assert ring._necklaces(n, k) == len(members), (n, k)
            assert ring._necklaces(n, k, mirrored=True) == len(set(classes[members].tolist())), (n, k)
    assert ring._state_count(64, 3) == len(enumerate_states(64, 3)) == 652


@pytest.mark.parametrize("n", [-3, 0, 1, 2])
@pytest.mark.parametrize("solve", [markov.solve_all_exact, markov.solve_all_float])
def test_solve_all_rejects_rings_below_three(solve, n, monkeypatch):
    def no_work(n):
        raise AssertionError("states were enumerated")

    monkeypatch.setattr(markov, "enumerate_states", no_work)
    with pytest.raises(ValueError, match=f"ring size must be >= 3, got {n}"):
        solve(n)


def test_solve_all_float_matches_exact():
    exact = markov.solve_all_exact(8)
    floats = markov.solve_all_float(8)
    assert set(floats) == set(exact)
    for state, value in exact.items():
        assert abs(floats[state] - float(value)) <= 1e-9


# --- worst case -------------------------------------------------------------

def test_max_expected_time_three_ring():
    g, value = max_expected_time(3)
    assert (g.gaps, value) == ((1, 1, 1), Fraction(4, 3))
    assert value == theorem1_bound(3)


def test_max_expected_time_nine_ring():
    g, value = max_expected_time(9)
    assert value == 12
    assert g.gaps == (3, 3, 3)


def test_max_expected_time_five_ring_cross_oracle():
    # K=3 candidates from the closed form; K=5 candidate solved exactly
    g, value = max_expected_time(5)
    k3_best = max(
        closed_form_k3(GapVector(5, gaps))
        for gaps in enumerate_states(5)
        if len(gaps) == 3
    )
    k5_value = expected_time_exact(GapVector(5, (1, 1, 1, 1, 1)))
    assert value == max(k3_best, k5_value)
    assert closed_form_k3(GapVector(5, (1, 2, 2))) == Fraction(16, 5)


def test_theorem1_strict_up_to_default_capacity():
    # 13 and 14 are not multiples of 3, so the bound is strict there
    for n in (13, 14):
        _g, value = max_expected_time(n)
        assert value < theorem1_bound(n)


# --- exact integer solver -----------------------------------------------------

def _fraction_system(a, b):
    return [[Fraction(v) for v in row] for row in a], [Fraction(v) for v in b]


def _random_nonsingular(rng, n):
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        try:
            _gauss_fraction(*_fraction_system(a, [0] * n))
        except ArithmeticError:
            continue
        return a


@contextmanager
def _deadline(seconds):
    """Fail a solve that has not returned after `seconds`, rather than let it hang."""

    def expire(signum, frame):
        raise TimeoutError(f"the solve ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _random_cases(rng, count):
    cases = []
    for trial in range(count):
        n = rng.randint(1, 8)
        a = _random_nonsingular(rng, n)
        big = 1 << rng.randint(1, 300)
        b = [
            [rng.randint(0, big) for _ in range(n)],
            [-rng.randint(0, big) for _ in range(n)],
            [rng.randint(-big, big) for _ in range(n)],
        ][trial % 3]
        cases.append((a, b, _gauss_fraction(*_fraction_system(a, b))))
    return cases


def test_integer_solver_matches_fraction_elimination(rng):
    for a, b, expected in _random_cases(rng, 40):
        assert markov._solve_integer(np.array(a, dtype=np.int64), b) == expected


def test_integer_solver_tolerates_an_inexact_inverse(rng, monkeypatch):
    # 1.5 F still contracts: each step halves the residual instead of clearing it
    cases = _random_cases(rng, 12)
    expected = markov.solve_all_exact(11)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: 1.5 * inv(a))
    for a, b, solution in cases:
        assert markov._solve_integer(np.array(a, dtype=np.int64), b) == solution
    assert markov.solve_all_exact(11) == expected


@pytest.mark.parametrize("scale", [-1.0, 0.0])
def test_non_contracting_inverse_is_an_arithmetic_error(scale, monkeypatch):
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: scale * inv(a))
    with _deadline(1.0), pytest.raises(ArithmeticError, match=r"K=3 block: .* on a 7-row system"):
        markov.solve_all_exact(9)


def test_each_token_count_is_strongly_connected_without_collisions():
    # a single query relies on this: it solves every state with at most its
    # token count K, which is the set it reaches only because a collision
    # leaves K - 2 tokens and every token count is reached whole
    for n in range(3, 13):
        by_k = {}
        for s in enumerate_states(n):
            by_k.setdefault(len(s), set()).add(s)
        for k, states in by_k.items():
            for start in states:
                seen, stack = {start}, [start]
                while stack:
                    for succ, _count in markov._successor_counts(n, stack.pop()):
                        if len(succ) == k and succ not in seen:
                            seen.add(succ)
                            stack.append(succ)
                assert seen == states


def test_every_sweep_block_is_accepted_without_fallback(monkeypatch):
    # the exact check is the only gate, and every block passes it at its first reconstruction
    checks = []
    verify = markov._verify_solution

    def spy(*args):
        checks.append(verify(*args))
        return checks[-1]

    monkeypatch.setattr(markov, "_verify_solution", spy)
    markov.solve_all_exact(12)
    assert checks == [True] * sum(1 for k, _ in groupby(enumerate_states(12), len) if k >= 2)


def test_integer_solver_rejects_singular_system():
    with pytest.raises(ArithmeticError):
        markov._solve_integer(np.array([[1, 2], [2, 4]], dtype=np.int64), [1, 1])


def test_failed_verification_is_an_arithmetic_error(rng, monkeypatch):
    a = _random_nonsingular(rng, 5)
    b = [rng.randint(-(10**40), 10**40) for _ in range(5)]
    # a denominator that is no power of two keeps the residual from reaching 0
    assert any(v.denominator & (v.denominator - 1) for v in _gauss_fraction(*_fraction_system(a, b)))
    monkeypatch.setattr(markov, "_verify_solution", lambda *args: False)
    with _deadline(5.0), pytest.raises(ArithmeticError, match="passed the exact check"):
        markov._solve_integer(np.array(a, dtype=np.int64), b)


def test_dyadic_system_ends_at_a_zero_residual(monkeypatch):
    def reconstruct(*args):
        raise AssertionError("a dyadic solution was reconstructed instead of read off R = 0")

    monkeypatch.setattr(markov, "_common_denominator", reconstruct)
    assert markov._solve_integer(np.array([[2, 0], [0, 4]], dtype=np.int64), [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]


def test_sweep_rows_schema():
    assert markov.sweep_csv_line(6, (6,), "0/1", "16/3", True) == "6,1,6,0/1,16/3,1"
    assert markov.sweep_csv_line(7, (1, 2, 4), "2.5", "7.25", False) == "7,3,1|2|4,2.5,7.25,0"
    for gaps, et in markov.solve_all_exact(6).items():
        line = markov.sweep_csv_line(6, gaps, str(et), "16/3", et <= theorem1_bound(6))
        assert line.count(",") == markov.SWEEP_CSV_HEADER.count(",")
        assert line.endswith(",1") and sum(map(int, line.split(",")[2].split("|"))) == 6


def test_enumerate_states_counts_by_brute_force():
    for n in range(3, 15):
        brute = set()
        for k in range(1, n + 1, 2):
            for cuts in combinations(range(1, n), k - 1):
                points = (0,) + cuts + (n,)
                gaps = tuple(points[i + 1] - points[i] for i in range(k))
                brute.add(min(gaps[i:] + gaps[:i] for i in range(k)))
        # the block solve relies on this order, not only on the set
        expected = sorted(brute, key=lambda s: (len(s), s))
        assert enumerate_states(n) == expected
        for most in range(1, n + 1, 2):
            assert enumerate_states(n, most) == [s for s in expected if len(s) <= most], (n, most)


# --- drift identities ---------------------------------------------------------

def test_drift_v3_is_minus_one_for_k3(rng):
    from herman_lab.lyapunov import V3

    for _ in range(20):
        n = rng.randint(4, 20)
        g = random_gaps(rng, 3, n)
        check = verify_drift_V3(g)
        assert check.passed
        assert check.lhs == V3(g) - 1


def test_drift_v3_examples():
    from herman_lab.lyapunov import V3

    for gaps, n, drop in (((1, 1, 1, 1, 1), 5, 2), ((1, 2, 3, 1, 3, 2, 2), 14, 3)):
        g = GapVector(n, gaps)
        check = verify_drift_V3(g)
        assert check.passed
        assert check.lhs == V3(g) - drop


def test_drift_v5_uniform_five():
    from herman_lab.lyapunov import V5

    g = GapVector(5, (1, 1, 1, 1, 1))
    check = verify_drift_V5(g)
    assert check.passed
    assert check.lhs - V5(g) == Fraction(-3, 100)


def test_drift_v5_examples(rng):
    assert verify_drift_V5(GapVector(7, (1, 1, 1, 1, 3))).passed
    for _ in range(5):
        g = random_gaps(rng, 7, 10)
        assert verify_drift_V5(g).passed


def test_drift_v5_rejects_k3():
    with pytest.raises(ValueError):
        verify_drift_V5(GapVector(5, (1, 1, 3)))


def test_prop17_examples(rng):
    # K=3: every term vanishes
    check = verify_prop17(GapVector(6, (1, 2, 3)))
    assert check.passed and check.lhs == 0 and check.rhs == 0
    assert verify_prop17(GapVector(5, (1, 1, 1, 1, 1))).passed
    assert verify_prop17(GapVector(9, (1, 1, 1, 1, 1, 1, 3))).passed
    for _ in range(5):
        g = random_gaps(rng, 5, rng.randint(6, 14))
        assert verify_prop17(g).passed


def test_drift_v_k3_exactly_minus_one(rng):
    for _ in range(20):
        n = rng.randint(4, 20)
        g = random_gaps(rng, 3, n)
        drift, passed = verify_drift_V(g)
        assert passed and drift == -1


def test_drift_v_examples(rng):
    drift, passed = verify_drift_V(GapVector(5, (1, 1, 1, 1, 1)))
    assert passed and drift <= -1
    for _ in range(5):
        g = random_gaps(rng, 9, 12)
        drift, passed = verify_drift_V(g)
        assert passed and drift <= -1


def test_drift_v_detects_oversized_alpha(monkeypatch):
    # the f5 coefficient cannot exceed 24 K^2/(K^2-1); 26 breaks near-uniform states
    g = GapVector(25, (5, 5, 5, 5, 5))
    assert verify_drift_V(g).passed
    monkeypatch.setattr(lyapunov, "ALPHA", 26)
    assert not verify_drift_V(g).passed


def reference_drift_sums(n, gaps):
    """(sum f3(succ), sum f5(succ), sum f5(raw)) by stepping every mask in gap space."""
    sums = [0, 0, 0]
    for mask in range(1 << len(gaps)):
        raw = raw_increments(gaps, mask)
        succ = merge_zeros(raw)
        sums[0] += f3(succ, check=False)
        sums[1] += f5(succ, check=False)
        sums[2] += f5(raw, check=False)
    return tuple(sums)


def test_drift_sums_match_the_gap_space_step_on_every_state():
    for n in range(3, 14):
        for gaps in enumerate_states(n):
            if len(gaps) >= 3:
                assert markov._drift_sums(n, gaps) == reference_drift_sums(n, gaps), (n, gaps)


def test_drift_sums_match_the_gap_space_step_on_random_rotated_states(rng):
    for _ in range(150):
        k = rng.choice((3, 5, 7, 9))
        n = rng.randint(k + 1, 64)
        gaps = random_gaps(rng, k, n).gaps
        turn = rng.randrange(k)
        gaps = gaps[turn:] + gaps[:turn]
        assert markov._drift_sums(n, gaps) == reference_drift_sums(n, gaps), (n, gaps)


def test_drift_sums_refuse_a_state_whose_raw_sum_could_wrap_int64():
    # 2^33 * 64^5 = 2^63: refused before any of the 2^33 masks is stepped
    with pytest.raises(OverflowError, match="exceed int64"):
        markov._drift_sums(64, (1,) * 32 + (32,))


# --- gap increment moments -------------------------------------------------------

def test_moment_examples():
    assert delta_moment(7, [2]) == 0
    assert delta_moment(5, [0, 1]) == Fraction(-1, 4)
    assert delta_moment(7, [0, 1, 2, 3]) == Fraction(1, 16)
    assert delta_moment(7, [0, 1, 3, 4]) == Fraction(1, 16)


def test_moment_formula_blocks():
    assert moment_formula(7, [2]) == 0
    assert moment_formula(5, [0, 1]) == Fraction(-1, 4)
    assert moment_formula(7, [0, 1, 2, 3]) == Fraction(1, 16)
    assert moment_formula(7, [0, 1, 3, 4]) == Fraction(1, 16)
    assert moment_formula(7, [0, 1, 3, 4, 5]) == 0  # odd second block
    assert moment_formula(5, [0, 1, 2, 3]) is not None
    assert moment_formula(7, [0, 2, 4]) is None  # three blocks


def test_moment_enumeration_matches_formula_small():
    for k in (3, 5, 7):
        for start in range(k):
            for length in range(1, k + 1):
                idx = [(start + j) % k for j in range(length)]
                assert delta_moment(k, idx) == moment_formula(k, idx)


def test_moment_wraparound_block():
    # blocks are cyclic: {K-1, 0} is adjacent
    assert delta_moment(9, [8, 0]) == Fraction(-1, 4)
    assert moment_formula(9, [8, 0]) == Fraction(-1, 4)


# --- Lyapunov bound ----------------------------------------------------------

def test_bound_equality_for_k3():
    check = lyapunov_bound_check(GapVector(9, (3, 3, 3)))
    assert check == BoundCheck(Fraction(12), Fraction(12), True, True)
    check = lyapunov_bound_check(GapVector(3, (1, 1, 1)))
    assert check.passed and check.equality and check.expected_time == Fraction(4, 3)


def test_bound_strict_for_k5():
    check = lyapunov_bound_check(GapVector(7, (1, 1, 1, 1, 3)))
    assert check.passed and not check.equality
    assert check.expected_time < check.bound


def test_bound_random_states(rng):
    for _ in range(10):
        k = rng.choice((3, 5))
        n = rng.randint(k + 1, 11)
        g = random_gaps(rng, k, n)
        check = lyapunov_bound_check(g)
        assert check.passed
        assert check.bound == V(g)


def test_gap_increments_structure():
    for k in (3, 5, 7):
        for mask in range(1 << k):
            delta = markov.gap_increments(k, mask)
            assert sum(delta) == 0
            assert all(d in (-1, 0, 1) for d in delta)
            for i in range(k):
                expected = ((mask >> i) & 1) - ((mask >> ((i - 1) % k)) & 1)
                assert delta[i] == expected


def _is_closed(n, states):
    """Closure under transitions, including the absorbing one-token class."""
    members = set(states)
    return all(succ in members for s in states for succ, _count in markov._successor_counts(n, s))


def _reached(n, seed, successors):
    """The states a search over `successors(state)` reaches from `seed`, in (K, gaps) order."""
    seen, stack = {seed}, [seed]
    while stack:
        for succ, _count in successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return sorted(seen, key=lambda s: (len(s), s))


def test_reachable_states_match_a_search_over_successor_counts():
    for n, seed in ((7, (1, 2, 4)), (9, (1, 1, 1, 1, 5)), (12, (1, 1, 1, 2, 2, 2, 3)), (13, (1,) * 10 + (3,))):
        assert enumerate_states(n, len(seed)) == _reached(n, seed, partial(markov._successor_counts, n)), n


def test_every_state_reaches_each_state_with_at_most_its_token_count():
    for n in range(3, 12):
        successors = lru_cache(maxsize=None)(partial(markov._successor_counts, n))
        for s in enumerate_states(n):
            assert enumerate_states(n, len(s)) == _reached(n, s, successors), s


def test_a_solve_keeps_nothing_between_calls(monkeypatch):
    # no solved value survives a call: every solve steps every token count again
    stepped = []
    words = markov._successor_words

    def spy(n, tokens):
        stepped.append(tokens.shape[1])
        return words(n, tokens)

    monkeypatch.setattr(markov, "_successor_words", spy)
    every_k = {k for k in map(len, enumerate_states(11)) if k >= 2}  # the one-token class has no block to build
    expected = markov.solve_all_exact(11)
    assert set(stepped) == every_k
    stepped.clear()
    assert markov.solve_all_exact(11) == expected
    assert set(stepped) == every_k
    stepped.clear()
    assert markov.expected_time_exact(GapVector(11, (1, 1, 9))) == expected[(1, 1, 9)]
    assert set(stepped) == {3}


@pytest.mark.parametrize(
    "n, seed", [(7, (1, 2, 4)), (12, (1, 1, 1, 2, 2, 2, 3)), (13, (1,) * 10 + (3,)), (15, (1, 2, 3, 4, 5))]
)
def test_reachable_states_are_closed_under_successors_and_mirroring(n, seed):
    states = enumerate_states(n, len(seed))
    assert seed in states and mirror(seed) in states
    assert _is_closed(n, states)
    assert {mirror(s) for s in states} == set(states)


def test_state_space_reachable_and_closed():
    states = enumerate_states(7, 3)
    assert (7,) in states  # absorbing class present
    assert _is_closed(7, states)
    assert len(set(states)) == len(states)


def test_state_space_full_is_closed():
    assert _is_closed(8, enumerate_states(8))
