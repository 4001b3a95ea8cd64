"""Densities and profinite closure measures for definable integer sets.

The package splits into a small expression language for arithmetic sets
(`setdsl`), exact Haar-measure computations along divisibility chains
(`measure`), Dirichlet-series machinery (`analytic`), a family of density
estimators plus the finite-axiom test bench (`density`), supernatural
numbers (`supernatural`), and theorem-level verification harnesses
(`verify`) fronted by the `zhat` command line tool.

Importing the package loads none of them: each exported name imports its
module on first access (PEP 562).
"""

import importlib

# every exported name and the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "SupernaturalNumber", "divides", "gcd_lcm", "limit_profile",
        "mul", "parse_supernatural", "rho", "supernatural_text",
    ), "supernatural"),
    **dict.fromkeys((
        "BudgetExceeded", "DimensionMismatch", "DslError", "DslSyntaxError", "DslValueError",
        "FAIL", "INCONCLUSIVE", "PASS", "VerificationReport",
    ), "_primes"),
    **dict.fromkeys((
        "EXACT", "TRUNCATED", "CompiledSet", "Polynomial", "ResidueImage",
        "compile_set", "crt_split", "parse", "to_text",
    ), "setdsl"),
    **dict.fromkeys((
        "Bracket", "ChainError", "LevelMeasure", "MeasureTrace", "ModulusChain",
        "closure_measure_trace", "euler_product", "haar_ideal", "masked_power_sums",
        "multiples_measure_ie", "multiples_measure_prefixes", "zeta_bracket", "zeta_partial",
    ), "measure"),
    **dict.fromkeys((
        "DirichletTruncation",
        "de_delta_bracket", "de_delta_exact", "de_delta_table", "delta_ratio",
        "dlog_zeta_check", "vm_identity_check", "vm_identity_scan",
        "von_mangoldt", "zeta_set", "zeta_sets",
    ), "analytic"),
    **dict.fromkeys((
        "DensityReport", "axiom_suite", "deformed_pair",
        "density_alpha", "density_analytic", "density_buck", "density_uniform",
        "density_weighted", "exact_pair", "harmonic", "log_density_window",
    ), "density"),
    **dict.fromkeys((
        "asdmltp_verify", "counterexample_cover",
        "davenport_erdos", "dirichlet_coverage", "eulerian_check",
        "mt_criterion", "omega_bound_measure", "poonen_stoll_tail",
        "prime_power_family", "union_dense_check",
    ), "verify"),
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, "to_text" if name == "supernatural_text" else name)
    globals()[name] = value
    return value
