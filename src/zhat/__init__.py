"""Densities and profinite closure measures for definable integer sets.

The package splits into a small expression language for arithmetic sets
(`setdsl`), exact Haar-measure computations along divisibility chains
(`measure`), Dirichlet-series machinery (`analytic`), a family of density
estimators plus the finite-axiom test bench (`density`), supernatural
numbers (`supernatural`), and theorem-level verification harnesses
(`verify`) fronted by the `zhat` command line tool.
"""

from .supernatural import (
    SupernaturalNumber,
    divides,
    gcd_lcm,
    limit_profile,
    mul,
    parse_supernatural,
    rho,
    to_text as supernatural_text,
)
from .setdsl import (
    EXACT,
    TRUNCATED,
    BudgetExceeded,
    CompiledSet,
    DimensionMismatch,
    DslError,
    DslSyntaxError,
    DslValueError,
    Polynomial,
    ResidueImage,
    compile_set,
    crt_split,
    parse,
    to_text,
)
from .measure import (
    Bracket,
    ChainError,
    LevelMeasure,
    MeasureTrace,
    ModulusChain,
    closure_measure_trace,
    euler_product,
    haar_ideal,
    masked_power_sums,
    multiples_measure_ie,
    multiples_measure_prefixes,
    zeta_bracket,
    zeta_partial,
)
from .analytic import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    DirichletTruncation,
    de_delta_bracket,
    de_delta_exact,
    de_delta_table,
    delta_ratio,
    dlog_zeta_check,
    vm_identity_check,
    vm_identity_scan,
    von_mangoldt,
    zeta_set,
    zeta_sets,
)
from .density import (
    DensityReport,
    axiom_suite,
    deformed_pair,
    density_alpha,
    density_analytic,
    density_buck,
    density_uniform,
    density_weighted,
    log_density_window,
    exact_pair,
    harmonic,
)
from .verify import (
    VerificationReport,
    asdmltp_verify,
    counterexample_cover,
    davenport_erdos,
    dirichlet_coverage,
    eulerian_check,
    mt_criterion,
    omega_bound_measure,
    poonen_stoll_tail,
    prime_power_family,
    union_dense_check,
)

__version__ = "0.1.0"

__all__ = [
    "SupernaturalNumber", "divides", "gcd_lcm", "limit_profile",
    "mul", "parse_supernatural", "rho", "supernatural_text",
    "EXACT", "TRUNCATED", "BudgetExceeded", "CompiledSet",
    "DimensionMismatch", "DslError", "DslSyntaxError", "DslValueError",
    "Polynomial", "ResidueImage", "compile_set", "crt_split", "parse", "to_text",
    "Bracket", "ChainError", "LevelMeasure", "MeasureTrace", "ModulusChain",
    "closure_measure_trace", "euler_product", "haar_ideal", "masked_power_sums",
    "multiples_measure_ie", "multiples_measure_prefixes", "zeta_bracket", "zeta_partial",
    "FAIL", "INCONCLUSIVE", "PASS", "DirichletTruncation",
    "de_delta_bracket", "de_delta_exact", "de_delta_table", "delta_ratio",
    "dlog_zeta_check", "vm_identity_check", "vm_identity_scan",
    "von_mangoldt", "zeta_set", "zeta_sets",
    "DensityReport", "axiom_suite", "deformed_pair",
    "density_alpha", "density_analytic", "density_buck", "density_uniform",
    "density_weighted", "exact_pair", "harmonic", "log_density_window",
    "VerificationReport", "asdmltp_verify", "counterexample_cover",
    "davenport_erdos", "dirichlet_coverage", "eulerian_check",
    "mt_criterion", "omega_bound_measure", "poonen_stoll_tail",
    "prime_power_family", "union_dense_check",
    "__version__",
]
