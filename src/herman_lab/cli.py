"""Command-line interface: simulate, exact, verify, optimize.

Exit codes: 0 all checks passed, 1 a verification failed (or a step cap
was breached, or the reader closed stdout early), 2 usage or configuration
error.  All regular output is JSON lines or CSV; everything is
reproducible from the flags alone.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from fractions import Fraction
from itertools import combinations

from . import lyapunov
from .lyapunov import TARGETS, V, V3, V5
from .ring import CapacityError, GapVector, StepLimitError, _check_capacity, _state_count, check_at_least
from .ring import check_occupancy_word, check_odd_k, check_token_cap, parse_configuration, parse_gap_vector
from .streams import CoinStream, check_seed, stream_key

OUTPUT_FORMATS = ("json", "csv")


def _print_record(record: dict, fmt: str) -> None:
    if fmt == "csv":
        keys = sorted(record)
        writer = csv.writer(sys.stdout)
        writer.writerow(keys)
        writer.writerow(
            [json.dumps(record[k]) if isinstance(record[k], (list, tuple, dict)) else record[k] for k in keys]
        )
    else:
        print(json.dumps(record))


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# subcommands; each checks its flags, then imports the modules it runs, so a process
# loads only its own and a refusal loads no numpy

def cmd_simulate(args: argparse.Namespace) -> int:
    check_seed(args.seed)
    config = parse_configuration(args.config)
    check_at_least(args.runs, 1, "--runs")
    check_odd_k(config.token_count, 1)
    check_occupancy_word(config.ring_size)
    from . import montecarlo
    try:
        steps = montecarlo.run_steps(config, args.runs, args.seed)
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
    if (args.config is None) == (args.sweep is None):
        raise ValueError("provide exactly one of --config or --sweep")
    capacity = args.exact_capacity_n  # the ring-size cap of an exact sweep, None unless given
    if args.config is not None:
        if args.use_float:
            raise ValueError("--float applies to --sweep only; a single query is solved exactly")
        if capacity is not None:
            raise ValueError("--exact-capacity-n applies to --sweep only; a single query is bounded by the block limit")
        query = parse_gap_vector(args.config)
        check_odd_k(query.token_count, 1)
        n, most = query.ring_size, query.token_count
    else:
        query = n = most = args.sweep
        if not args.use_float:  # ring size, word, capacity, then the block rule below
            capacity = 14 if capacity is None else capacity
            check_at_least(n, 3, "ring size")
            check_occupancy_word(n)
            if n > capacity:
                raise CapacityError(f"ring size {n} exceeds the configured capacity {capacity} ({_state_count(n, most)} "
                                    "states); raise the capacity explicitly to run larger instances")
    _check_capacity(n, most, lumped=not args.use_float)
    from . import markov
    if args.config is not None:
        solve = markov.expected_time_exact
    else:
        solve = markov.solve_all_float if args.use_float else markov.solve_all_exact
    try:
        result = solve(query)
    except MemoryError:
        raise ValueError(f"the solve over ring size {n} needs more memory than can be allocated") from None
    if args.config is not None:
        print(_frac_str(result))
        return 0
    bound = markov.theorem1_bound(n)
    if args.use_float:
        ok, argmax, most = _print_sweep(n, result, float(bound), float(bound) + 1e-9, repr)
        fields = {"max": most, "argmax_gaps": list(argmax)}
    else:
        ok, argmax, most = _print_sweep(n, result, bound, bound, _frac_str)
        fields = {"max_num": most.numerator, "max_den": most.denominator, "argmax_gaps": list(argmax),
                  "bound_num": bound.numerator, "bound_den": bound.denominator}
    print(json.dumps({"verdict": "PASS" if ok else "FAIL", "N": n, **fields}))
    return 0 if ok else 1


def _print_sweep(n: int, values: dict, bound, limit, write) -> tuple:
    """Print the CSV of a sweep's values, each number written by `write`, a row passing at `limit` or less.

    Returns whether every row passed, and the first state with the largest value, and that value."""
    from . import markov
    print(markov.SWEEP_CSV_HEADER)
    written = write(bound)
    for gaps, et in values.items():  # in enumerate_states order: (K, gaps)
        print(markov.sweep_csv_line(n, gaps, write(et), written, et <= limit))
    argmax, most = max(values.items(), key=lambda item: item[1])
    return all(et <= limit for et in values.values()), argmax, most


def _random_gap_state(rng_stream: CoinStream, k: int, n: int) -> GapVector:
    """Uniform composition of n into k positive parts from stream coins."""
    cuts: set[int] = set()  # k-1 distinct cut points in 1..n-1, by rejection on stream words
    while len(cuts) < k - 1:
        cuts.add(1 + rng_stream.next_word() % (n - 1))
    points = [0] + sorted(cuts) + [n]
    return GapVector(n, tuple(b - a for a, b in zip(points, points[1:])))


def _verify_drift(args):
    from . import markov

    def record(check, k, states, fails):
        return {"suite": "drift", "check": check, "K": k, "states": states, "failures": fails, "pass": fails == 0}

    yield record("alpha_constant_24", None, 1, 0 if lyapunov.ALPHA == 24 else 1)
    stream = CoinStream(stream_key(args.seed, 977))
    for k in (3, 5, 7, 9):
        if k + 1 > args.n:
            continue
        fails = {"lemma3": 0, "lemma6": 0, "v_identity": 0, "lemma8": 0, "prop17": 0}
        for _ in range(args.samples):
            n = k + 1 + stream.next_word() % (args.n - k)
            g = _random_gap_state(stream, k, n)
            fails["lemma3"] += not markov.verify_drift_V3(g).passed
            fails["lemma6"] += not markov.verify_drift_V(g).passed
            fails["v_identity"] += V(g) != V3(g) - 24 * V5(g)
            if k >= 5:
                fails["lemma8"] += not markov.verify_drift_V5(g).passed
                fails["prop17"] += not markov.verify_prop17(g).passed
        checks = ("lemma3", "lemma6", "v_identity") + (("lemma8", "prop17") if k >= 5 else ())
        for check in checks:
            yield record(check, k, args.samples, fails[check])


def _verify_moments(args):
    from . import markov
    for k in range(3, min(args.max_k, 11) + 1, 2):
        blocks = [[(start + j) % k for j in range(length)] for start in range(k) for length in range(1, k + 1)]
        for check, cases in (("eq12_blocks", blocks), ("eq13_two_blocks", _two_block_splits(k))):
            fails = sum(markov.delta_moment(k, idx) != markov.moment_formula(k, idx) for idx in cases)
            yield {"suite": "moments", "check": check, "K": k, "cases": len(cases), "failures": fails, "pass": fails == 0}


def _two_block_splits(k: int) -> list[list[int]]:
    """The index sets of 0..k-1 that are exactly two maximal cyclic blocks."""
    from . import markov
    subsets = (idx for size in range(k + 1) for idx in combinations(range(k), size))
    return [list(idx) for idx in subsets if len(markov._cyclic_blocks(k, idx)) == 2]


def _verify_identities(args):
    from . import polynomials
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
            yield {"suite": "identities", **check.to_record()}


def _verify_kkt(args):
    from . import optimize
    opt_cfg = optimize.OptimizerConfig(starts=args.opt_starts, seed=args.seed)  # refused here, before any record

    def records(k):
        reports = optimize.interior_max_scan(k, opt_cfg)
        bad = sum(1 for r in reports if r.value > optimize.ONE_27 + 1e-9)
        chains = [optimize.contradiction_chain_check(r) for r in reports]
        chain_bad = sum(1 for c in chains if c.applicable and (c.implied_alpha_bound or 0) >= 24)
        threshold = optimize.alpha_threshold(k)
        expected = Fraction(216 * (k - 1), 23 * k - 71)
        yield {"suite": "kkt", "check": "interior_scan", "K": k, "interior_points": len(reports), "violations": bad, "pass": bad == 0}
        yield {"suite": "kkt", "check": "alpha_threshold", "K": k, "threshold": _frac_str(threshold), "pass": threshold == expected}
        yield {"suite": "kkt", "check": "contradiction_chain", "K": k, "applicable": sum(c.applicable for c in chains), "pass": chain_bad == 0}
        err = optimize.gradient_fd_validation(k, args.samples, seed=args.seed)
        yield {"suite": "kkt", "check": "derivative_fd", "K": k, "max_rel_err": err, "pass": bool(err <= 1e-6)}

    return (record for k in (5, 7, 9) if k <= args.max_k for record in records(k))


def _verify_coupling(args):
    from . import montecarlo
    exhaustive = montecarlo.exhaustive_coupling(3)
    yield {"suite": "coupling", "check": "exhaustive_n3", "cases": exhaustive.runs, "pass": exhaustive.passed}
    for n in range(3, args.n + 1, 2):
        result = montecarlo.coupled_equivalence(n, args.runs, args.seed)
        yield {"suite": "coupling", "check": "trajectories", "N": n, "runs": args.runs, "pass": result.passed, "failure": result.failure}


# each suite's record generator and the least value of each flag it reads, below which it runs no check (N = 4 is the
# smallest ring with a 3-token drift state, N = 3 the smallest bit ring); `all` takes each flag's largest
SUITES = {
    "drift": (_verify_drift, {"samples": 1, "n": 4}),
    "moments": (_verify_moments, {"max_k": 3}),
    "identities": (_verify_identities, {"max_k": 5}),
    "kkt": (_verify_kkt, {"max_k": 5, "samples": 1}),
    "coupling": (_verify_coupling, {"n": 3, "runs": 1}),
}
# the upper bound of a flag, by its envelope rule: --n rings are stepped as occupancy words, --max-k counts tokens
UPPER = {"n": check_occupancy_word, "max_k": lambda k: check_token_cap(k, "--max-k")}


def cmd_verify(args: argparse.Namespace) -> int:
    check_seed(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for flag in dict.fromkeys(flag for name in names for flag in SUITES[name][1]):
        value, low = getattr(args, flag), max(SUITES[name][1].get(flag, 0) for name in names)
        if value < low:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {low} for verify {args.suite}, got {value}")
        if flag in UPPER:
            UPPER[flag](value)
    records = [(name, SUITES[name][0](args)) for name in names]  # so a suite refuses its own settings before any output
    grand_total = grand_failures = 0
    for name, suite in records:
        total = failures = 0
        for record in suite:  # each suite yields one record per check
            print(json.dumps(record))
            total += 1
            failures += not record["pass"]
        print(json.dumps({"suite": name, "summary": True, "checks": total, "failures": failures, "pass": failures == 0}))
        grand_total += total
        grand_failures += failures
    print(json.dumps({"summary": True, "checks": grand_total, "failures": grand_failures, "pass": grand_failures == 0}))
    return 0 if grand_failures == 0 else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    check_seed(args.seed)
    check_token_cap(args.k, "--k")
    check_at_least(args.opt_starts, 1, "starts")  # `OptimizerConfig`'s names and order, before numpy loads
    check_at_least(args.max_iters, 1, "max_iters")
    check_odd_k(args.k, 3)
    from . import optimize
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

    shared = {
        "--seed": {"type": int, "default": 0},
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
    p_exact.add_argument("--config", help="state literal")
    p_exact.add_argument("--sweep", type=int, help="sweep every canonical odd-K state of this ring size")
    p_exact.add_argument("--float", dest="use_float", action="store_true", help="solve the sweep on the float path, at any ring size")
    p_exact.add_argument("--exact-capacity-n", type=int, help="largest ring an exact sweep solves (default 14); not for --config")
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify, "--seed")
    p_verify.add_argument("suite", choices=("drift", "moments", "identities", "kkt", "coupling", "all"))
    p_verify.add_argument("--max-k", dest="max_k", type=int, default=13)
    p_verify.add_argument("--n", type=int, default=12, help="max ring size for random drift states / coupling")
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--runs", type=int, default=200, help="coupling trajectories per ring size")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: stop quietly, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def run(argv=None) -> int:
    """The process entry (`python -m herman_lab`, `herman-lab`): `main`'s exit code, the heap then frozen.

    `gc.freeze` moves every tracked object to the permanent generation,
    which the interpreter's final collection does not walk, so exit does
    not pay to traverse the objects numpy and the solve made.  Refcounts
    still free them, every output file is closed by `with`, and stdio is
    flushed at exit as before.  `main` sets no process policy, for its
    in-process callers."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
