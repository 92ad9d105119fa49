"""Run one herman-lab CLI command in this process with span tracing on.

Usage: python3 perfbench/traced.py OUT.json -- <herman-lab arguments>

The package source is left untouched.  Public functions are replaced, at
the module attribute their caller looks up, by wrappers that record a
span (layer, function, start, end, parent) in memory.  Calls made from
inside a module through its own globals are caught the same way.  When
the command exits, the spans and the work counts are written to OUT.json;
stdout is exactly what the untraced command prints.

For `exact --sweep N` the command is preceded by a pass that calls
`enumerate_states(N)` and a cold `successor_distribution` on every state,
so successor enumeration is timed on its own and the solve that follows
finds every successor list already cached.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from herman_lab import cli, markov, montecarlo, optimize, polynomials  # noqa: E402
from herman_lab.ring import GapVector  # noqa: E402

# (layer, module, public names); `cli.V*` are the lyapunov functions as the
# CLI imported them.  `cli.format` is the sweep command's own body (CSV and
# verdict printing) together with the CSV line formatter it calls.
LAYERS = (
    ("markov.enumerate", markov, ("enumerate_states",)),
    ("markov.successors", markov, ("successor_distribution",)),
    ("markov.solve_exact", markov, ("solve_all_exact",)),
    ("markov.solve_float", markov, ("solve_all_float",)),
    ("markov.drift", markov, ("verify_drift_V3", "verify_drift_V5", "verify_drift_V", "verify_prop17")),
    ("markov.moments", markov, ("delta_moment", "moment_formula")),
    ("lyapunov.eval", cli, ("V", "V3", "V5")),
    ("montecarlo.run_steps", montecarlo, ("run_steps",)),
    ("montecarlo.coupling", montecarlo, ("coupled_equivalence", "exhaustive_coupling")),
    (
        "polynomials.identities",
        polynomials,
        ("check_continuity", "check_rotation_sum_identity", "check_fancy_sum", "check_corollary_sums", "check_c_rotation_sum"),
    ),
    (
        "optimize.kkt",
        optimize,
        ("interior_max_scan", "contradiction_chain_check", "alpha_threshold", "gradient_fd_validation"),
    ),
    ("cli.format", cli, ("cmd_exact",)),
    ("cli.format", markov, ("sweep_csv_line",)),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, function, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, module, name: str, layer: str, on_result=None) -> None:
        fn = getattr(module, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, time.perf_counter_ns(), None, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, name, traced)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def successor_pass(tracer: Tracer, n: int) -> None:
    """Cold successor enumeration over every canonical state of ring size n."""
    states = markov.enumerate_states(n)
    tracer.add("markov.states", len(states))
    block_sizes: dict[int, int] = {}
    for s in states:
        if len(s) >= 2:
            block_sizes[len(s)] = block_sizes.get(len(s), 0) + 1
    tracer.high("markov.max_block", max(block_sizes.values()))
    for s in states:
        law = markov.successor_distribution(GapVector(n, s))
        if len(s) >= 2:  # the one-token state is absorbing: no row in any solve
            tracer.add("markov.successor_pairs", len(law.outcomes))


def result_bits(values: dict) -> int:
    return max(v.numerator.bit_length() + v.denominator.bit_length() for v in values.values())


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <herman-lab arguments>", file=sys.stderr)
        return 2
    out, cli_argv = Path(argv[0]), argv[2:]
    tracer = Tracer()
    hooks = {
        "solve_all_exact": lambda values: tracer.high("markov.result_bits", result_bits(values)),
        "run_steps": lambda steps: tracer.add("montecarlo.run_steps", int(steps.sum())),
    }
    for layer, module, names in LAYERS:
        for name in names:
            tracer.wrap(module, name, layer, hooks.get(name))
    args = cli.build_parser().parse_args(cli_argv)
    if args.command == "exact" and args.sweep is not None:
        successor_pass(tracer, args.sweep)
    code = cli.main(cli_argv)
    sys.stdout.flush()
    spans = [dict(zip(("layer", "function", "start_ns", "end_ns", "parent"), s)) for s in tracer.spans]
    out.write_text(json.dumps({"exit": code, "counts": tracer.counts, "spans": spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
