"""Pure summary statistics used by the benchmark.

Kept free of ellsel imports so the rules can be tested on hand-made
inputs: the p90 sample-count rule, the failed fraction and the accuracy
headroom over passing cases.
"""

from __future__ import annotations

import math

P90_MIN_BEYOND = 10
RATIO_FLOOR = 1e-16


def p90(values) -> float | None:
    """Nearest-rank 90th percentile, or None when fewer than ten samples
    lie beyond it (fewer than 100 samples), because such a tail is one or
    two outliers rather than a percentile."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < P90_MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def failed_frac(outcomes) -> float:
    """Cases whose status is not ``pass`` (fail, budget, infeasible or an
    exception) over cases attempted.  ``outcomes`` holds
    ``(case_id, status, tol_ratio)`` triples."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no cases attempted")
    return sum(1 for _, status, _ in outcomes if status != "pass") / len(outcomes)


def worst_tol_ratio(outcomes) -> float:
    """Largest rel_err/tol (residual/tol for the algebraic suite) over
    passing cases; 0 when nothing passed."""
    return max((ratio for _, status, ratio in outcomes if status == "pass"), default=0.0)


def tol_margin_digits(ratio: float) -> float:
    """Decimal digits of headroom between the worst passing residual and
    its tolerance: -log10(worst rel_err/tol).  A log scale, so that
    round-off-level residuals that double under a reordered sum do not
    read as a 100 % regression while a real loss of accuracy still does.
    The ratio is floored at 1e-16, which caps the headroom at 16."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"tolerance ratio {ratio!r} outside [0, 1]")
    return -math.log10(max(ratio, RATIO_FLOOR))
