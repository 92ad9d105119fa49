"""Command-line interface: simulate, exact, verify, optimize.

Exit codes: 0 all checks passed, 1 a verification failed (or a step cap
was breached, or the reader closed stdout early), 2 usage or configuration
error.  All regular output is JSON lines or CSV; everything is
reproducible from the flags alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from itertools import combinations

from .lyapunov import ALPHA, TARGETS, V, V3, V5
from .ring import OCCUPANCY_BITS, CapacityError, GapVector, parse_configuration, parse_gap_vector
from .streams import MASK64, CoinStream, stream_key

OUTPUT_FORMATS = ("json", "csv")


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MASK64:  # the coin streams take a 64-bit seed
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")


def _print_record(record: dict, fmt: str) -> None:
    if fmt == "csv":
        keys = sorted(record)
        writer = csv.writer(sys.stdout)
        writer.writerow(keys)
        writer.writerow(
            [json.dumps(record[k]) if isinstance(record[k], (list, dict)) else record[k] for k in keys]
        )
    else:
        print(json.dumps(record))


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# subcommands; each imports the modules it runs, so a process loads only its own

def cmd_simulate(args: argparse.Namespace) -> int:
    from . import montecarlo
    _check_seed(args.seed)
    config = parse_configuration(args.config)
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    if config.token_count % 2 == 0:
        raise ValueError("simulation requires an odd token count (odd K)")
    try:
        steps = montecarlo.run_steps(config, args.runs, args.seed)
    except montecarlo.StepLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        raise ValueError(f"--runs {args.runs} needs more memory for its step counts than can be allocated") from None
    if args.histogram:  # written and closed before any output, so a failed write prints nothing
        lines = montecarlo.histogram_csv_lines(montecarlo.step_histogram(steps))
        try:
            with open(args.histogram, "w") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write the histogram: {exc}") from None
    _print_record(montecarlo.summarize(steps, args.seed).to_record(), args.output_format)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from . import markov
    if (args.config is None) == (args.sweep is None):
        raise ValueError("provide exactly one of --config or --sweep")
    if args.config is not None:
        g = parse_gap_vector(args.config)
        if g.token_count % 2 == 0:
            raise ValueError("expected time requires an odd token count (odd K)")
        try:
            print(_frac_str(markov.expected_time_exact(g, max_ring=args.exact_capacity_n)))
        except CapacityError:
            if not args.use_float:
                raise
            print(repr(markov.expected_time_float(g, max_ring=args.float_capacity_n)))
        return 0
    n = args.sweep
    try:
        rows = markov.sweep_rows(n, max_ring=args.exact_capacity_n)
    except CapacityError:
        if not args.use_float:
            raise
        return _float_sweep(n, args.float_capacity_n)
    print(markov.SWEEP_CSV_HEADER)
    for row in rows:
        print(markov.sweep_csv_line(row))
    best = max(rows, key=lambda r: r.expected_time)
    verdict = {
        "verdict": "PASS" if all(r.passed for r in rows) else "FAIL",
        "N": n,
        "max_num": best.expected_time.numerator,
        "max_den": best.expected_time.denominator,
        "argmax_gaps": list(best.gaps),
        "bound_num": best.bound.numerator,
        "bound_den": best.bound.denominator,
    }
    print(json.dumps(verdict))
    return 0 if verdict["verdict"] == "PASS" else 1


def _float_sweep(n: int, max_ring: int | None) -> int:
    from . import markov
    bound = float(markov.theorem1_bound(n))
    values = markov.solve_all_float(n, max_ring=max_ring)
    print(markov.SWEEP_CSV_HEADER)
    worst = (None, -1.0)
    ok = True
    for state in sorted(values, key=lambda s: (len(s), s)):
        et = values[state]
        passed = et <= bound + 1e-9
        ok = ok and passed
        if et > worst[1]:
            worst = (state, et)
        gaps = "|".join(str(x) for x in state)
        print(f"{n},{len(state)},{gaps},{et!r},{bound!r},{int(passed)}")
    print(json.dumps({"verdict": "PASS" if ok else "FAIL", "N": n, "max": worst[1], "argmax_gaps": list(worst[0])}))
    return 0 if ok else 1


def _random_gap_state(rng_stream: CoinStream, k: int, n: int) -> GapVector:
    """Uniform composition of n into k positive parts from stream coins."""
    cuts: set[int] = set()  # k-1 distinct cut points in 1..n-1, by rejection on stream words
    while len(cuts) < k - 1:
        cuts.add(1 + rng_stream.next_word() % (n - 1))
    points = [0] + sorted(cuts) + [n]
    return GapVector(n, tuple(b - a for a, b in zip(points, points[1:])))


def _verify_drift(args, emit) -> tuple[int, int]:
    from . import markov
    alpha = args.alpha if args.alpha is not None else ALPHA
    total = failures = 0

    def record(check, k, states, fails):
        nonlocal total, failures
        total += 1
        failures += 1 if fails else 0
        emit({"suite": "drift", "check": check, "K": k, "states": states, "failures": fails, "pass": fails == 0})

    alpha_ok = alpha == 24
    record("alpha_constant_24", None, 1, 0 if alpha_ok else 1)
    stream = CoinStream(stream_key(args.seed, 977))
    for k in (3, 5, 7, 9):
        if k + 1 > args.n:
            continue
        fails = {"lemma3": 0, "lemma6": 0, "v_identity": 0, "lemma8": 0, "prop17": 0}
        for _ in range(args.samples):
            n = k + 1 + stream.next_word() % (args.n - k)
            g = _random_gap_state(stream, k, n)
            if not markov.verify_drift_V3(g).passed:
                fails["lemma3"] += 1
            if not markov.verify_drift_V(g, alpha=alpha).passed:
                fails["lemma6"] += 1
            if V(g, alpha=alpha) != V3(g) - 24 * V5(g):
                fails["v_identity"] += 1
            if k >= 5:
                if not markov.verify_drift_V5(g).passed:
                    fails["lemma8"] += 1
                if not markov.verify_prop17(g).passed:
                    fails["prop17"] += 1
        checks = ("lemma3", "lemma6", "v_identity") + (("lemma8", "prop17") if k >= 5 else ())
        for check in checks:
            record(check, k, args.samples, fails[check])
    return total, failures


def _verify_moments(args, emit) -> tuple[int, int]:
    from . import markov
    total = failures = 0
    for k in range(3, min(args.max_k, 11) + 1, 2):
        eq12_cases = eq12_fails = 0
        for start in range(k):
            for length in range(1, k + 1):
                idx = [(start + j) % k for j in range(length)]
                eq12_cases += 1
                if markov.delta_moment(k, idx) != markov.moment_formula(k, idx):
                    eq12_fails += 1
        eq13_cases = eq13_fails = 0
        for idx in _two_block_splits(k):
            eq13_cases += 1
            if markov.delta_moment(k, idx) != markov.moment_formula(k, idx):
                eq13_fails += 1
        total += 2
        failures += (1 if eq12_fails else 0) + (1 if eq13_fails else 0)
        emit({"suite": "moments", "check": "eq12_blocks", "K": k, "cases": eq12_cases, "failures": eq12_fails, "pass": eq12_fails == 0})
        emit({"suite": "moments", "check": "eq13_two_blocks", "K": k, "cases": eq13_cases, "failures": eq13_fails, "pass": eq13_fails == 0})
    return total, failures


def _two_block_splits(k: int) -> list[list[int]]:
    """The index sets of 0..k-1 that are exactly two maximal cyclic blocks."""
    from . import markov
    subsets = (idx for size in range(k + 1) for idx in combinations(range(k), size))
    return [list(idx) for idx in subsets if len(markov._cyclic_blocks(k, idx)) == 2]


def _verify_identities(args, emit) -> tuple[int, int]:
    from . import polynomials
    total = failures = 0
    for k in range(5, args.max_k + 1, 2):
        checks = [
            polynomials.check_continuity(k),
            polynomials.check_rotation_sum_identity(k),
            polynomials.check_fancy_sum(k, 3),
            polynomials.check_fancy_sum(k, 5),
            polynomials.check_corollary_sums(k),
            polynomials.check_c_rotation_sum(k),
        ]
        for check in checks:
            total += 1
            failures += 0 if check.ok else 1
            emit({"suite": "identities", **json.loads(check.to_json())})
    return total, failures


def _verify_kkt(args, emit) -> tuple[int, int]:
    from . import optimize
    total = failures = 0
    opt_cfg = optimize.OptimizerConfig(starts=args.opt_starts, seed=args.seed)
    for k in (5, 7, 9):
        if k > args.max_k:
            continue
        reports = optimize.interior_max_scan(k, opt_cfg)
        bad = sum(1 for r in reports if r.value > optimize.ONE_27 + 1e-9)
        chains = [optimize.contradiction_chain_check(r.point) for r in reports]
        chain_bad = sum(1 for c in chains if c.applicable and (c.implied_alpha_bound or 0) >= 24)
        threshold = optimize.alpha_threshold(k)
        expected = Fraction(216 * (k - 1), 23 * k - 71)
        thr_ok = threshold == expected
        total += 3
        failures += (1 if bad else 0) + (0 if thr_ok else 1) + (1 if chain_bad else 0)
        emit({"suite": "kkt", "check": "interior_scan", "K": k, "interior_points": len(reports), "violations": bad, "pass": bad == 0})
        emit({"suite": "kkt", "check": "alpha_threshold", "K": k, "threshold": _frac_str(threshold), "pass": thr_ok})
        emit({"suite": "kkt", "check": "contradiction_chain", "K": k, "applicable": sum(c.applicable for c in chains), "pass": chain_bad == 0})
        err = optimize.gradient_fd_validation(k, args.samples, seed=args.seed)
        total += 1
        ok = bool(err <= 1e-6)
        failures += 0 if ok else 1
        emit({"suite": "kkt", "check": "derivative_fd", "K": k, "max_rel_err": err, "pass": ok})
    return total, failures


def _verify_coupling(args, emit) -> tuple[int, int]:
    from . import montecarlo
    total = failures = 0
    exhaustive = montecarlo.exhaustive_coupling(3)
    total += 1
    failures += 0 if exhaustive.passed else 1
    emit({"suite": "coupling", "check": "exhaustive_n3", "cases": exhaustive.runs, "pass": exhaustive.passed})
    for n in range(3, args.n + 1, 2):
        result = montecarlo.coupled_equivalence(n, args.runs, args.seed)
        total += 1
        failures += 0 if result.passed else 1
        emit({"suite": "coupling", "check": "trajectories", "N": n, "runs": args.runs, "pass": result.passed, "failure": result.failure})
    return total, failures


def cmd_verify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    # below these a suite runs no check; N = 4 is the smallest ring with a 3-token drift state
    least = {"samples": 1, "runs": 1, "n": 4}
    if args.suite in ("moments", "identities", "kkt", "all"):
        least["max_k"] = 3 if args.suite == "moments" else 5
    for name, low in least.items():
        if getattr(args, name) < low:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= {low} for verify {args.suite}, got {getattr(args, name)}")
    # drift and coupling step rings of up to --n processes as occupancy words
    if args.suite in ("drift", "coupling", "all") and args.n > OCCUPANCY_BITS:
        raise ValueError(f"--n must be <= {OCCUPANCY_BITS} for verify {args.suite}, got {args.n}")
    emit = lambda record: print(json.dumps(record))
    suites = {
        "drift": lambda: _verify_drift(args, emit),
        "moments": lambda: _verify_moments(args, emit),
        "identities": lambda: _verify_identities(args, emit),
        "kkt": lambda: _verify_kkt(args, emit),
        "coupling": lambda: _verify_coupling(args, emit),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    grand_total = grand_failures = 0
    for name in names:
        total, failures = suites[name]()
        grand_total += total
        grand_failures += failures
        emit({"suite": name, "summary": True, "checks": total, "failures": failures, "pass": failures == 0})
    emit({"summary": True, "checks": grand_total, "failures": grand_failures, "pass": grand_failures == 0})
    return 0 if grand_failures == 0 else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    from . import optimize
    _check_seed(args.seed)
    opt_cfg = optimize.OptimizerConfig(starts=args.opt_starts, seed=args.seed, max_iters=args.max_iters)
    report = optimize.maximize(args.target, args.k, opt_cfg)
    _print_record(report.to_record(), args.output_format)
    if args.target == "f":
        ok = report.value <= optimize.ONE_27 + 1e-9
        verdict = {
            "verdict": "PASS" if ok else "FAIL",
            "target": "f",
            "K": args.k,
            "value": report.value,
            "bound": optimize.ONE_27,
        }
        print(json.dumps(verdict))
        return 0 if ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="herman-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # a capacity left unset is markov's default limit
        "--seed": {"type": int, "default": 0},
        "--exact-capacity-n": {"type": int},
        "--float-capacity-n": {"type": int},
        "--output-format": {"choices": OUTPUT_FORMATS, "default": "json"},
    }

    def common(p, *flags):
        """The shared flags that the subcommand reads."""
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of the stabilization time")
    common(p_sim, "--seed", "--output-format")
    p_sim.add_argument("--config", required=True, help='state literal, e.g. "N=9;gaps=3,3,3"')
    p_sim.add_argument("--runs", type=int, default=10000)
    p_sim.add_argument("--histogram", help="write a step_count,frequency CSV to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_exact = sub.add_parser("exact", help="exact rational expected stabilization time")
    common(p_exact, "--exact-capacity-n", "--float-capacity-n")
    p_exact.add_argument("--config", help="state literal")
    p_exact.add_argument("--sweep", type=int, help="sweep every canonical odd-K state of this ring size")
    p_exact.add_argument("--float", dest="use_float", action="store_true", help="allow the float path beyond the exact capacity")
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify, "--seed")
    p_verify.add_argument("suite", choices=("drift", "moments", "identities", "kkt", "coupling", "all"))
    p_verify.add_argument("--max-k", dest="max_k", type=int, default=13)
    p_verify.add_argument("--n", type=int, default=12, help="max ring size for random drift states / coupling")
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--runs", type=int, default=200, help="coupling trajectories per ring size")
    p_verify.add_argument("--alpha", type=int, default=None, help="fault-injection hook: corrupt the f5 coefficient")
    p_verify.add_argument("--opt-starts", type=int, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_opt = sub.add_parser("optimize", help="maximize f3/f5/f over the simplex")
    common(p_opt, "--seed", "--output-format")
    p_opt.add_argument("--target", required=True, choices=TARGETS)
    p_opt.add_argument("--k", type=int, required=True)
    p_opt.add_argument("--starts", dest="opt_starts", type=int, default=50)
    p_opt.add_argument("--max-iters", dest="max_iters", type=int, default=400)
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here rather than at exit
        return code
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: stop quietly, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
