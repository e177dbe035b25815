"""Analysis helpers: ECDFs, reductions, text tables and ASCII plots.

Every name loads on first use: :mod:`~repro.analysis.theory` pulls in the
scheduler layer, and a simulation run imports none of this package.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cdf": (
        "ecdf",
        "ecdf_at",
        "fraction_above",
        "quantile",
        "reduction_percent",
    ),
    ".render": ("ascii_cdf", "format_cdf_points", "format_table"),
    ".stats": (
        "BootstrapCI",
        "paired_bootstrap_ci",
        "paired_permutation_test",
        "seed_sweep",
    ),
    ".theory": (
        "AcceptanceStats",
        "acceptance_stats",
        "feasible_pmin",
        "tradeoff_curve",
    ),
})

__all__ = [
    "AcceptanceStats",
    "BootstrapCI",
    "acceptance_stats",
    "ascii_cdf",
    "ecdf",
    "ecdf_at",
    "format_cdf_points",
    "feasible_pmin",
    "format_table",
    "fraction_above",
    "paired_bootstrap_ci",
    "paired_permutation_test",
    "quantile",
    "reduction_percent",
    "seed_sweep",
    "tradeoff_curve",
]
