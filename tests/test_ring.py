import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import random_gaps, reference_apply_step, reference_bit_step, reference_token_positions
from herman_lab import cli, lyapunov, markov, montecarlo, optimize, polynomials
from herman_lab.ring import (
    STATE_LIMIT,
    BitRing,
    CapacityError,
    Configuration,
    GapVector,
    StepLimitError,
    apply_step,
    bit_step,
    _check_capacity,
    _state_count,
    bracelet_key,
    bits_from_config,
    canonical_rotation,
    config_from_bits,
    config_from_gaps,
    gap_vector,
    necklace_key,
    parse_configuration,
    parse_gap_vector,
    positions_word,
    random_step,
    step_occupancy,
    token_positions,
    token_word,
    word_positions,
)
from herman_lab.streams import CoinStream


def all_masks(k):
    return list(product((False, True), repeat=k))


# --- configurations and gap vectors -------------------------------------

def test_gap_vector_wraparound_first():
    assert gap_vector(Configuration(7, (2, 3, 6))).gaps == (3, 1, 3)


def test_gap_vector_unit_gaps():
    assert gap_vector(Configuration(5, (1, 2, 3, 4, 5))).gaps == (1, 1, 1, 1, 1)


def test_gap_vector_single_token():
    assert gap_vector(Configuration(4, (3,))).gaps == (4,)


def test_config_round_trip_through_gaps(rng):
    for _ in range(200):
        n = rng.randint(3, 20)
        k = rng.randint(1, n)
        positions = tuple(sorted(rng.sample(range(1, n + 1), k)))
        c = Configuration(n, positions)
        g = gap_vector(c)
        assert sum(g.gaps) == n
        back = config_from_gaps(g)
        # same gap vector up to rotation
        assert canonical_rotation(gap_vector(back)) == canonical_rotation(g)


@pytest.mark.parametrize("run_index", (3, None))
def test_step_limit_error_pickles_by_its_fields(run_index):
    # a forked simulation worker sends a cap breach back pickled
    error = pickle.loads(pickle.dumps(StepLimitError(5, run_index)))
    assert (type(error), error.cap, error.run_index) == (StepLimitError, 5, run_index)
    assert str(error) == str(StepLimitError(5, run_index))
    assert str(error) == "simulation exceeded the 5-step cap" + (" in run 3" if run_index else "")


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(2, (1,))
    with pytest.raises(ValueError):
        Configuration(5, ())
    with pytest.raises(ValueError):
        Configuration(5, (1, 1))
    with pytest.raises(ValueError):
        Configuration(5, (0, 2))
    with pytest.raises(ValueError):
        GapVector(6, (1, 2, 2))
    with pytest.raises(ValueError):
        GapVector(6, (0, 3, 3))


# --- the synchronous step ------------------------------------------------

def test_apply_step_all_stay_is_identity():
    c = Configuration(9, (1, 4, 7))
    assert apply_step(c, (False,) * 3) == c


def test_apply_step_all_move_preserves_gaps():
    c = Configuration(5, (1, 3, 4))
    stepped = apply_step(c, (True,) * 3)
    assert stepped.positions == (2, 4, 5)
    assert canonical_rotation(gap_vector(stepped)) == canonical_rotation(gap_vector(c))


def test_apply_step_annihilation():
    c = Configuration(5, (1, 2, 5))
    assert apply_step(c, (True, False, False)).positions == (5,)


def test_apply_step_mask_length_checked():
    with pytest.raises(ValueError):
        apply_step(Configuration(5, (1, 2)), (True,))


def test_step_invariants_random(rng):
    for _ in range(300):
        n = rng.randint(3, 15)
        k = rng.randint(1, n)
        c = Configuration(n, tuple(sorted(rng.sample(range(1, n + 1), k))))
        mask = tuple(rng.random() < 0.5 for _ in range(k))
        try:
            stepped = apply_step(c, mask)
        except ValueError:
            assert k % 2 == 0  # only even K can annihilate everything
            continue
        # gap sum conservation, parity conservation, monotone token count
        assert sum(gap_vector(stepped).gaps) == n
        assert stepped.token_count % 2 == k % 2
        assert stepped.token_count <= k


def test_rotation_equivariance(rng):
    for _ in range(200):
        n = rng.randint(3, 12)
        k = rng.randint(1, n - 1)
        positions = tuple(sorted(rng.sample(range(1, n + 1), k)))
        c = Configuration(n, positions)
        mask = tuple(rng.random() < 0.5 for _ in range(k))
        shift = rng.randint(1, n - 1)
        rotated = Configuration(n, tuple(sorted((p - 1 + shift) % n + 1 for p in positions)))
        # rotating relabels token order; rotate the mask along with the tokens
        order = sorted(range(k), key=lambda i: (positions[i] - 1 + shift) % n + 1)
        rotated_mask = tuple(mask[i] for i in order)
        try:
            lhs = apply_step(rotated, rotated_mask)
            rhs = apply_step(c, mask)
        except ValueError:
            continue
        expected = tuple(sorted((p - 1 + shift) % n + 1 for p in rhs.positions))
        assert lhs.positions == expected


def test_random_step_single_token_fixed():
    c = Configuration(6, (4,))
    stream = CoinStream.from_seed(0, 0)
    for _ in range(50):
        c2 = random_step(c, stream)
        assert c2.token_count == 1
        c = c2


def test_random_step_collision_rate_matches_enumeration():
    # oracle: enumerate all 8 masks with apply_step
    c = Configuration(3, (1, 2, 3))
    collapsed = sum(apply_step(c, m).token_count == 1 for m in all_masks(3))
    assert collapsed == 6
    stream = CoinStream.from_seed(11, 0)
    runs = 20000
    hits = sum(random_step(c, stream).token_count == 1 for _ in range(runs))
    sigma = (runs * 0.75 * 0.25) ** 0.5
    assert abs(hits - runs * 0.75) <= 4 * sigma


# --- bit representation --------------------------------------------------

def test_config_from_bits_examples():
    assert config_from_bits(BitRing((False, False, False))).positions == (1, 2, 3)
    assert config_from_bits(BitRing((False, True, True))).positions == (3,)


def test_bits_round_trip_random(rng):
    for _ in range(10_000):
        n = rng.choice((3, 5, 7, 9, 11, 13, 15))
        k = rng.choice(range(1, n + 1, 2))
        c = Configuration(n, tuple(sorted(rng.sample(range(1, n + 1), k))))
        assert config_from_bits(bits_from_config(c)) == c


def test_bits_complement_degeneracy():
    c = Configuration(5, (2, 4, 5))
    bits = bits_from_config(c)
    flipped = BitRing(tuple(not b for b in bits.bits))
    assert config_from_bits(flipped) == c


def test_bit_ring_needs_a_token():
    with pytest.raises(ValueError):
        BitRing((True, False, True, False))


def test_bit_step_no_flips_keeps_configuration():
    bits = bits_from_config(Configuration(7, (1, 4, 6)))
    stepped = bit_step(bits, (False, False, False))
    assert config_from_bits(stepped).positions == (1, 4, 6)


def test_bit_step_global_flip_keeps_tokens():
    bits = BitRing((False, False, False))
    stepped = bit_step(bits, (True, True, True))
    assert stepped.bits == (True, True, True)
    assert config_from_bits(stepped).positions == (1, 2, 3)


def bit_ring(word, n):
    return BitRing(tuple(bool((word >> i) & 1) for i in range(n)))


@pytest.mark.parametrize("n", (3, 5))
def test_bit_step_coupling_exhaustive(n):
    # every bit state, every flip vector: bit stepping implements token passing
    for word in range(1 << n):
        bits = bit_ring(word, n)
        config = Configuration(n, reference_token_positions(bits))
        for mask in all_masks(config.token_count):
            stepped = bit_step(bits, mask)
            assert stepped == reference_bit_step(bits, mask)
            assert config_from_bits(stepped) == reference_apply_step(config, mask)


def test_bit_step_coupling_random(rng):
    # N = 65 and 100 lie beyond a uint64 word; an even N holds an even token count
    for trial in range(10_000):
        n = rng.choice((65, 100)) if trial % 10 == 0 else rng.choice((3, 5, 7, 9, 11, 13, 15))
        bits = bit_ring(rng.getrandbits(n), n)
        config = Configuration(n, reference_token_positions(bits))
        mask = tuple(rng.random() < 0.5 for _ in range(config.token_count))
        stepped = bit_step(bits, mask)
        assert stepped == reference_bit_step(bits, mask)
        assert config_from_bits(stepped) == reference_apply_step(config, mask)


def test_odd_ring_forces_odd_token_count(rng):
    for _ in range(500):
        n = rng.choice((3, 5, 7, 9, 11))
        assert config_from_bits(bit_ring(rng.getrandbits(n), n)).token_count % 2 == 1


def test_token_positions_matches_definition():
    bits = BitRing((True, False, False, True, True))
    expected = tuple(
        i + 1 for i in range(5) if bits.bits[i] == bits.bits[i - 1]
    )
    assert token_positions(bits) == expected


@pytest.mark.parametrize("n", (3, 5, 7, 9, 11))
def test_token_word_matches_token_positions(n):
    for word in range(1 << n):
        bits = bit_ring(word, n)
        tokens = token_word(word, n)
        assert tuple(p + 1 for p in range(n) if tokens >> p & 1) == reference_token_positions(bits)
        assert token_positions(bits) == reference_token_positions(bits)


@pytest.mark.parametrize("n", (64, 65, 100))
def test_token_word_matches_token_positions_sampled(n, rng):
    for _ in range(200):
        word = rng.getrandbits(n)
        bits = bit_ring(word, n)
        tokens = token_word(word, n)
        assert tuple(p + 1 for p in range(n) if tokens >> p & 1) == reference_token_positions(bits)
        assert token_positions(bits) == reference_token_positions(bits)


# --- canonical rotation and literals -------------------------------------

def test_canonical_rotation_examples():
    assert canonical_rotation(GapVector(5, (1, 3, 1))).gaps == (1, 1, 3)
    assert canonical_rotation(GapVector(6, (2, 2, 2))).gaps == (2, 2, 2)
    assert canonical_rotation(GapVector(5, (5,))).gaps == (5,)


def test_canonical_rotation_is_rotation_invariant(rng):
    for _ in range(200):
        n = rng.randint(3, 20)
        k = rng.randint(1, min(n, 9))
        g = random_gaps(rng, k, n) if k > 1 else GapVector(n, (n,))
        shift = rng.randrange(k)
        rotated = GapVector(n, g.gaps[shift:] + g.gaps[:shift])
        assert canonical_rotation(g) == canonical_rotation(rotated)


def test_parse_literals():
    assert parse_gap_vector("N=7;gaps=3,1,3").gaps == (3, 1, 3)
    assert parse_gap_vector("N=7;tokens=2,3,6").gaps == (3, 1, 3)
    assert parse_configuration("N=7;tokens=2,3,6").positions == (2, 3, 6)
    assert parse_configuration("N=7;gaps=3,1,3").positions == (3, 4, 7)


@pytest.mark.parametrize(
    "bad",
    [
        "", "N=7", "gaps=1,2;N=7", "N=x;gaps=1,2", "N=7;gaps=", "N=7;stuff=1,2", "N=7;gaps=1,a",
        "N=9;gaps=3,,3,3", "N=9;gaps=3,3,3,", "N=9;gaps=,3,3,3", "N=9;tokens=1,,4,7",  # an empty field is no value
    ],
)
def test_parse_literal_errors(bad):
    with pytest.raises(ValueError):
        parse_gap_vector(bad)


# --- occupancy kernel ------------------------------------------------------------

def occupancy(config):
    return sum(1 << (p - 1) for p in config.positions)


def random_configuration(rng, n):
    k = rng.randint(1, n)
    return Configuration(n, tuple(sorted(rng.sample(range(1, n + 1), k))))


def moving_mask(config, mask):
    return sum(1 << (p - 1) for p, move in zip(config.positions, mask) if move)


def test_step_occupancy_matches_apply_step(rng):
    # every fourth trial fills the uint64 word (N = 64) or lies beyond it (N = 65, 100)
    for trial in range(600):
        n = (64, 65, 100)[trial // 4 % 3] if trial % 4 == 0 else rng.randint(3, 64)
        config = random_configuration(rng, n)
        mask = tuple(rng.random() < 0.5 for _ in config.positions)
        stepped = step_occupancy(occupancy(config), moving_mask(config, mask), n)
        try:
            expected = reference_apply_step(config, mask)
        except ValueError:  # every token annihilated
            assert stepped == 0
            with pytest.raises(ValueError, match="all tokens annihilated"):
                apply_step(config, mask)
            continue
        assert stepped == occupancy(expected)
        assert apply_step(config, mask) == expected


def test_positions_word_round_trip(rng):
    for n in (3, 17, 64, 65, 100):
        for _ in range(50):
            config = random_configuration(rng, n)
            word = positions_word(config.positions)
            assert word == occupancy(config)
            assert word_positions(word) == config.positions
    assert word_positions(0) == ()


def test_step_occupancy_wraps_at_word_boundary():
    config = Configuration(64, (1, 63, 64))
    # the token on process 64 passes to process 1, which its holder leaves
    assert step_occupancy(occupancy(config), 1 << 63 | 1, 64) == occupancy(Configuration(64, (1, 2, 63)))
    # received on process 1 while that token stays: the pair annihilates
    assert step_occupancy(occupancy(config), 1 << 63, 64) == occupancy(Configuration(64, (63,)))


def test_step_occupancy_matches_bit_step(rng):
    for trial in range(300):
        n = rng.choice((65, 100)) if trial % 4 == 0 else rng.randrange(3, 64, 2)
        bits = BitRing(tuple(rng.random() < 0.5 for _ in range(n)))
        config = Configuration(n, reference_token_positions(bits))
        flips = tuple(rng.random() < 0.5 for _ in config.positions)
        stepped = step_occupancy(occupancy(config), moving_mask(config, flips), n)
        assert stepped == occupancy(Configuration(n, reference_token_positions(reference_bit_step(bits, flips))))


def test_occupancy_kernel_on_uint64_arrays(rng):
    for n in (3, 17, 63, 64):
        occ = [rng.getrandbits(n) for _ in range(200)]
        moving = [o & rng.getrandbits(n) for o in occ]
        stepped = step_occupancy(np.array(occ, dtype=np.uint64), np.array(moving, dtype=np.uint64), n)
        assert stepped.dtype == np.uint64
        assert stepped.tolist() == [step_occupancy(o, m, n) for o, m in zip(occ, moving)]
        out = np.empty(len(occ), dtype=np.uint64)
        in_place = step_occupancy(np.array(occ, dtype=np.uint64), np.array(moving, dtype=np.uint64), n, out=out)
        assert in_place is out and out.tolist() == stepped.tolist()
        keys = necklace_key(np.array(occ, dtype=np.uint64), n)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [necklace_key(o, n) for o in occ]


def test_necklace_key_is_least_rotation(rng):
    for _ in range(200):
        n = rng.randint(3, 64)
        mask = rng.getrandbits(n)
        ring = (1 << n) - 1
        rotations = [((mask << r) | (mask >> (n - r))) & ring for r in range(n)]
        assert necklace_key(mask, n) == min(rotations)
        assert {necklace_key(r, n) for r in rotations} == {min(rotations)}


def test_bracelet_key_is_least_rotation_of_mask_or_mirror(rng):
    for n in (3, 8, 17, 63, 64):
        ring = (1 << n) - 1
        masks = [rng.getrandbits(n) for _ in range(100)]
        keys = bracelet_key(np.array(masks, dtype=np.uint64), n)
        assert keys.dtype == np.uint64
        for mask, key in zip(masks, keys.tolist()):
            mirror = int(format(mask, f"0{n}b")[::-1], 2)
            words = [w << r & ring | w >> (n - r) for w in (mask, mirror) for r in range(n)]
            assert key == min(words)


@pytest.mark.parametrize("n", range(3, 65))
def test_necklace_key_of_an_array_is_the_key_of_each_word(n, rng):
    words = [rng.getrandbits(n) for _ in range(200)]
    keys = necklace_key(np.array(words, dtype=np.uint64), n)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [necklace_key(w, n) for w in words]


# --- the envelope ------------------------------------------------------------------

def odd_k(minimum, k):
    return f"K must be odd and >= {minimum}, got {k}"


def bit_ring_size(n):
    return f"a bit ring needs an odd N >= 3, got {n}"


def token_cap(flag, k):
    return f"{flag} must be at most 63, the most tokens (K odd) a ring of 64 holds, got {k}"


def at_least(name, least, value):
    return f"{name} must be >= {least}, got {value}"


def seed(value):
    return f"seed must lie in 0..2^64-1, got {value}"


def block(n, rows, k):
    return f"ring size {n} has a block of {rows} rows at K={k}, above the 10000-row limit of a solve"


WORD_65 = "ring size 65 exceeds the 64-process occupancy word"
RING_65 = GapVector(65, (21, 21, 23))
EVEN = Configuration(5, (1, 3))
ODD = Configuration(9, (3, 6, 9))
SCAN = optimize.OptimizerConfig(starts=1, max_iters=1)

# every entry point of each rule, each kind of bad input, and the one message of its `ring` check
LIBRARY_REFUSALS = [
    (lambda: montecarlo.simulate_once(EVEN, CoinStream.from_seed(0, 0)), odd_k(1, 2)),
    (lambda: montecarlo.run_steps(EVEN, 10, 0), odd_k(1, 2)),
    (lambda: montecarlo.run_steps(Configuration(65, (1, 2, 3)), 10, 0), WORD_65),
    (lambda: markov.expected_time_exact(RING_65), WORD_65),
    (lambda: markov.solve_all_exact(65), WORD_65),
    (lambda: markov.solve_all_float(65), WORD_65),
    (lambda: markov.enumerate_states(65, 1), WORD_65),
    (lambda: markov.successor_distribution(RING_65), WORD_65),
    (lambda: markov.expected_time_exact(GapVector(6, (3, 3))), odd_k(1, 2)),
    (lambda: markov.expected_time_exact(GapVector(6, ())), odd_k(1, 0)),
    (lambda: markov.verify_drift_V3(GapVector(5, (5,))), odd_k(3, 1)),
    (lambda: markov.verify_drift_V5(GapVector(5, (1, 1, 3))), odd_k(5, 3)),
    (lambda: markov.verify_drift_V(GapVector(6, (3, 3))), odd_k(3, 2)),
    (lambda: markov.verify_prop17(GapVector(6, (1, 1, 1, 3))), odd_k(3, 4)),
    (lambda: lyapunov.check_simplex((Fraction(1, 2), Fraction(1, 2))), odd_k(3, 2)),
    (lambda: lyapunov.check_simplex((Fraction(1),)), odd_k(3, 1)),
    (lambda: lyapunov.V3(GapVector(6, (3, 3))), odd_k(1, 2)),
    (lambda: lyapunov.V5(GapVector(6, (3, 3))), odd_k(1, 2)),
    (lambda: lyapunov.V(GapVector(6, ())), odd_k(1, 0)),
    (lambda: lyapunov.derivative_terms((Fraction(1, 6),) * 6), odd_k(5, 6)),
    (lambda: bits_from_config(EVEN), odd_k(1, 2)),
    (lambda: bits_from_config(Configuration(4, (1, 2, 3))), bit_ring_size(4)),
    (lambda: optimize.maximize("f", 4, SCAN), odd_k(3, 4)),
    (lambda: optimize.interior_max_scan(3, SCAN), odd_k(5, 3)),
    (lambda: optimize.alpha_threshold(6), odd_k(5, 6)),
    (lambda: optimize.alpha_threshold(3), odd_k(5, 3)),
    (lambda: optimize.gradient_fd_validation(3, 10), odd_k(5, 3)),
    (lambda: polynomials.build_f3(4), odd_k(3, 4)),
    (lambda: polynomials.build_f(1), odd_k(3, 1)),
    (lambda: polynomials.check_continuity(3), odd_k(5, 3)),
    (lambda: montecarlo.coupled_equivalence(4, 10, 0), bit_ring_size(4)),
    (lambda: montecarlo.coupled_equivalence(1, 10, 0), bit_ring_size(1)),
    (lambda: montecarlo.coupled_equivalence(65, 10, 0), WORD_65),
    (lambda: montecarlo.exhaustive_coupling(4), bit_ring_size(4)),
    (lambda: montecarlo.exhaustive_coupling(1), bit_ring_size(1)),
    (lambda: Configuration(2, (1,)), at_least("ring size", 3, 2)),
    (lambda: GapVector(2, (1, 1)), at_least("ring size", 3, 2)),
    (lambda: BitRing((False, True)), at_least("ring size", 3, 2)),
    (lambda: markov.enumerate_states(2), at_least("ring size", 3, 2)),
    (lambda: markov.solve_all_exact(2), at_least("ring size", 3, 2)),
    (lambda: montecarlo.run_steps(ODD, 0, 0), at_least("runs", 1, 0)),
    (lambda: montecarlo.coupled_equivalence(5, 0, 0), at_least("runs", 1, 0)),
    (lambda: montecarlo.coupled_equivalence(5, -3, 0), at_least("runs", 1, -3)),
    (lambda: optimize.gradient_fd_validation(5, 0), at_least("samples", 1, 0)),
    (lambda: optimize.OptimizerConfig(starts=0), at_least("starts", 1, 0)),
    (lambda: optimize.OptimizerConfig(max_iters=0), at_least("max_iters", 1, 0)),
    (lambda: montecarlo.run_steps(ODD, 10, 2**64), seed(2**64)),
    (lambda: montecarlo.run_steps(ODD, 10, -1), seed(-1)),
    (lambda: CoinStream.from_seed(2**64), seed(2**64)),
    (lambda: montecarlo.coupled_equivalence(5, 3, -1), seed(-1)),
]

# every solve's refusal of a block too big to hold: a CapacityError, the ValueError of a limit rather than of an input rule
BLOCK_REFUSALS = [
    (lambda: markov.solve_all_exact(22), block(22, 16159, 11)),
    (lambda: markov.solve_all_float(21), block(21, 16796, 11)),
    (lambda: markov.expected_time_exact(GapVector(64, (12, 13, 13, 13, 13))), block(64, 59799, 5)),
]

# a query answers to the block limit alone, so it refuses the exact sweep's ring-size cap at any value, 0 or N included
QUERY_CAPACITY = "--exact-capacity-n applies to --sweep only; a single query is bounded by the block limit"
CLI_REFUSALS = [
    (("simulate", "--config", "N=8;gaps=4,4"), odd_k(1, 2)),
    (("simulate", "--config", "N=65;gaps=21,21,23", "--runs", "10"), WORD_65),
    (("exact", "--config", "N=8;gaps=4,4"), odd_k(1, 2)),
    (("exact", "--config", "N=65;gaps=21,21,23"), WORD_65),
    (("exact", "--float", "--sweep", "65"), WORD_65),
    (("exact", "--sweep", "65", "--exact-capacity-n", "65"), WORD_65),
    (("exact", "--sweep", "22", "--exact-capacity-n", "22"), block(22, 16159, 11)),
    (("exact", "--float", "--sweep", "21"), block(21, 16796, 11)),
    (("exact", "--config", "N=64;gaps=12,13,13,13,13"), block(64, 59799, 5)),
    (("verify", "drift", "--n", "65"), WORD_65),
    (("verify", "coupling", "--n", "65"), WORD_65),
    (("verify", "all", "--n", "65"), WORD_65),
    (("optimize", "--target", "f", "--k", "4"), odd_k(3, 4)),
    (("optimize", "--target", "f3", "--k", "1"), odd_k(3, 1)),
    (("optimize", "--target", "f", "--k", "65"), token_cap("--k", 65)),
    (("verify", "identities", "--max-k", "65"), token_cap("--max-k", 65)),
    (("verify", "moments", "--max-k", "64"), token_cap("--max-k", 64)),
    (("verify", "all", "--max-k", "65"), token_cap("--max-k", 65)),
    (("exact", "--config", "N=2;gaps=1,1"), at_least("ring size", 3, 2)),
    (("exact", "--sweep", "2"), at_least("ring size", 3, 2)),
    (("simulate", "--config", "N=9;gaps=3,3,3", "--runs", "0"), at_least("--runs", 1, 0)),
    (("optimize", "--target", "f", "--k", "5", "--starts", "0"), at_least("starts", 1, 0)),
    (("optimize", "--target", "f", "--k", "5", "--max-iters", "0"), at_least("max_iters", 1, 0)),
    (("exact", "--float", "--sweep", "30"), block(30, 5170604, 15)),
    (("exact", "--config", "N=9;gaps=3,,3,3"), "bad integer list in 'N=9;gaps=3,,3,3'"),
    (("exact", "--float", "--config", "N=9;gaps=3,3,3"), "--float applies to --sweep only; a single query is solved exactly"),
    (("exact", "--config", "N=9;gaps=3,3,3", "--exact-capacity-n", "0"), QUERY_CAPACITY),
    (("exact", "--config", "N=64;gaps=21,21,22", "--exact-capacity-n", "64"), QUERY_CAPACITY),
]


@pytest.mark.parametrize("call, message", LIBRARY_REFUSALS)
def test_every_entry_point_refuses_outside_the_envelope_with_its_rules_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("call, message", BLOCK_REFUSALS)
def test_every_solve_refuses_a_block_too_big_to_hold_before_it_enumerates(call, message, monkeypatch):
    monkeypatch.setattr(np, "zeros", None)  # refused before the first word is built
    with pytest.raises(CapacityError) as info:
        call()
    assert (type(info.value), str(info.value)) == (CapacityError, message)


@pytest.mark.parametrize("argv, message", CLI_REFUSALS)
def test_every_command_refuses_outside_the_envelope_with_one_error_line(argv, message, capsys):
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_a_capacity_refusal_is_a_value_error(monkeypatch):
    monkeypatch.setattr(np, "zeros", None)  # refused before the first word is built
    for call in (lambda: markov.solve_all_exact(22), lambda: markov.enumerate_states(26)):
        with pytest.raises(ValueError, match="above the"):
            call()


def test_the_state_limit_admits_the_largest_lists_reported_and_refuses_past_them(monkeypatch):
    for n, most in ((24, 24), (25, 25), (40, 7), (64, 5)):  # 349 536, 671 092, 482 788 and 119 785 states
        assert _state_count(n, most) <= STATE_LIMIT
    monkeypatch.setattr(np, "zeros", None)  # refused before the first word is built
    for n, most in ((26, 26), (30, 30), (64, 7)):
        with pytest.raises(CapacityError, match=f"above the {STATE_LIMIT}-state limit of a list"):
            markov.enumerate_states(n, most)


def test_the_block_rule_admits_every_sweep_that_runs():
    for n, most, lumped in ((21, 21, True), (20, 20, False), (64, 3, True)):  # 8 524, 8 398 and 341 rows
        _check_capacity(n, most, lumped)
