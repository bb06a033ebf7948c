"""Statistical confidence for Monte-Carlo verdicts.

A fuzzing campaign that observes zero violations does not prove the
violation probability is zero — it bounds it.  This module provides the
standard quantifications so experiment reports can state them honestly:

* :func:`violation_rate_upper_bound` — the exact one-sided Clopper-Pearson
  upper confidence bound on the per-trial violation probability, given
  ``k`` violations in ``n`` trials (for ``k = 0`` this reduces to the
  "rule of three": roughly ``3/n`` at 95%);
* :func:`trials_needed` — how many clean trials are required to push the
  bound below a target;
* :func:`summarize_confidence` — a sentence for experiment write-ups.

Exact binomial tail inversion via ``scipy.stats.beta`` (the standard
Clopper-Pearson construction).
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def violation_rate_upper_bound(
    n_trials: int, n_violations: int = 0, confidence: float = 0.95
) -> float:
    """One-sided Clopper-Pearson upper bound on the violation probability.

    With ``n_violations == 0`` the bound is ``1 - (1 - confidence)**(1/n)``
    (the exact zero-failures formula); in general it is the
    ``confidence``-quantile of ``Beta(k + 1, n - k)``.
    """
    _check(n_trials, n_violations, confidence)
    if n_violations >= n_trials:
        return 1.0
    # Imported at the call: scipy.stats costs ~1 s and ~80 MB to load, and
    # this is the only function in the package that needs it.
    from scipy import stats

    return float(
        stats.beta.ppf(confidence, n_violations + 1, n_trials - n_violations)
    )


def trials_needed(
    target_bound: float, confidence: float = 0.95
) -> int:
    """Clean trials needed so the zero-violation upper bound <= *target_bound*.

    Solves ``1 - (1 - confidence)**(1/n) <= target`` for the smallest
    integer ``n``.
    """
    if not 0.0 < target_bound < 1.0:
        raise AnalysisError(f"target_bound must be in (0, 1), got {target_bound}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    n = math.log(1.0 - confidence) / math.log(1.0 - target_bound)
    return max(1, math.ceil(n))


def summarize_confidence(
    n_trials: int, n_violations: int = 0, confidence: float = 0.95
) -> str:
    """A report-ready sentence for a campaign's statistical strength."""
    bound = violation_rate_upper_bound(n_trials, n_violations, confidence)
    pct = int(round(confidence * 100))
    if n_violations == 0:
        return (
            f"0 violations in {n_trials} randomized trials: the per-trial "
            f"violation probability is below {bound:.2e} at {pct}% confidence"
        )
    return (
        f"{n_violations} violations in {n_trials} trials: per-trial "
        f"violation probability is below {bound:.2e} at {pct}% confidence"
    )


def _check(n_trials: int, n_violations: int, confidence: float) -> None:
    if n_trials < 1:
        raise AnalysisError(f"n_trials must be >= 1, got {n_trials}")
    if not 0 <= n_violations <= n_trials:
        raise AnalysisError(
            f"n_violations must be in [0, n_trials], got {n_violations}"
        )
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
