"""Exact-arithmetic verification of q-supercongruences.

The package checks truncated q-hypergeometric sums against their closed
forms in Z[q]/(Phi_n(q)^2) by fraction-free cross-multiplication, divides
the prefactored sum of the divisibility family by [n]^2, checks
parametric congruences at the substitutions a = q^n and a = q^{-n},
verifies the supporting summation and proof-step identities exactly, and
confirms the classical mod-p^2 shadows of the q-statements.  All
arithmetic is exact.

The package root exports what the command line runs; the layers live in
their own modules.
"""

__version__ = "0.1.0"

from .catalog import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    REGISTRY,
    SUITES,
    km_offset_lists,
    run_check,
)
from .report import Report, SweepPlan
from .results import CheckResult, Status

__all__ = [
    "__version__",
    "CheckResult",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "REGISTRY",
    "Report",
    "SUITES",
    "Status",
    "SweepPlan",
    "km_offset_lists",
    "run_check",
]
