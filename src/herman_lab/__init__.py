"""Exact and numerical analysis toolkit for Herman's randomized token ring.

The library covers the full verification surface for the 4/27 N^2
worst-case expected stabilization time: the protocol itself in position,
gap and bit form (`ring`), exact rational hitting times and drift
identities on the gap-vector chain (`markov`), the Lyapunov polynomials
and their derivative quantities (`lyapunov`), exact sparse-polynomial
identity checks (`polynomials`), simplex maximization (`optimize`) and
reproducible Monte Carlo estimation (`montecarlo`).

The names below are loaded on first use (PEP 562), so `import herman_lab`
imports no submodule and a CLI command loads only the modules it runs.
"""

import importlib

_EXPORTS = {  # module: the names it exports here
    "lyapunov": "ALPHA V V3 V5 f f3 f5",
    "markov": "TransitionLaw delta_moment expected_time_exact lyapunov_bound_check "
    "max_expected_time successor_distribution theorem1_bound verify_drift_V verify_drift_V3 verify_drift_V5 "
    "verify_prop17",
    "montecarlo": "SimStats coupled_equivalence estimate simulate_once",
    "optimize": "OptimizerConfig interior_max_scan kkt_report maximize",
    "polynomials": "SparsePolynomial build_f build_f3 build_f5",
    "ring": "BitRing CapacityError Configuration GapVector apply_step bit_step bits_from_config canonical_rotation "
    "config_from_bits config_from_gaps gap_vector parse_configuration parse_gap_vector random_step",
    "streams": "CoinStream stream_key",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
