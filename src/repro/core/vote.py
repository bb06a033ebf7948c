"""Threshold voting primitives.

The heart of algorithm BYZ is the paper's ``VOTE(alpha, beta)`` function:

    ``VOTE(alpha, beta)`` of values ``w_1 .. w_beta`` is ``nu`` if at least
    ``alpha`` of the values equal ``nu``; otherwise it is the default value
    ``V_d``.  In case of a tie (two distinct values both reaching the
    threshold) the result is also ``V_d``.

Ties can only occur when ``alpha <= beta / 2``; algorithm BYZ always calls
``VOTE`` with ``alpha > beta / 2`` so ties never fire there, but the
primitive itself honours the paper's definition exactly (the paper's own
example: ``VOTE(2, 4)`` of ``1, 2, 2, 1`` is ``V_d``).

Also provided: plain majority voting (used by the Lamport OM baseline) and
the external voter's ``k``-out-of-``n`` vote from Section 3.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Sequence

from repro.core.values import DEFAULT, Value
from repro.exceptions import ConfigurationError


def vote(threshold: int, values: Sequence[Value]) -> Value:
    """The paper's ``VOTE(alpha, beta)`` with ``alpha = threshold``.

    Parameters
    ----------
    threshold:
        Minimum multiplicity ``alpha`` a value needs to win.
    values:
        The ``beta`` ballots.  ``beta`` is taken to be ``len(values)``; the
        caller is responsible for passing exactly the vector the protocol
        prescribes (missing messages must already have been replaced by
        ``V_d`` upstream).

    Returns
    -------
    The unique value reaching the threshold, or :data:`DEFAULT` when no value
    reaches it or two distinct values tie at or above it.  Ballots are
    counted by equality (``V_d`` is a ballot like any other and may be the
    winner) in one plain dict, first occurrence first; the scan stops at
    the second winner.

    Raises
    ------
    ConfigurationError
        If *threshold* is not positive — a non-positive threshold would make
        every value (and the default) "win" — or if it exceeds the ballot
        count.  The paper's ``VOTE(alpha, beta)`` presumes ``alpha <= beta``;
        a threshold no ballot vector can reach is always a caller bug (a
        short ballot vector, usually a missing upstream ``V_d``
        substitution), and silently returning the default would mask it.
        ``alpha == beta`` is legal: that is the unanimity vote.
    """
    if threshold <= 0:
        raise ConfigurationError(
            f"VOTE threshold must be positive, got {threshold}"
        )
    if threshold > len(values):
        raise ConfigurationError(
            f"VOTE threshold alpha={threshold} exceeds ballot count "
            f"beta={len(values)}: the paper's VOTE(alpha, beta) presumes "
            f"alpha <= beta — the caller passed a short ballot vector"
        )
    counts: Dict[Value, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    winner = DEFAULT
    won = False
    for value, count in counts.items():
        if count >= threshold:
            if won:
                return DEFAULT  # a tie between two values: default
            winner, won = value, True
    return winner  # still V_d when no value reached the threshold


def majority(values: Sequence[Value], default: Value = DEFAULT) -> Value:
    """Strict majority of *values*, or *default* when none exists.

    This is the vote used by Lamport's OM(m) baseline ("majority", with an
    arbitrary deterministic default when no majority exists — we use
    ``V_d`` so OM and BYZ outcomes are directly comparable).
    """
    if not values:
        return default
    counts = Counter(values)
    value, count = counts.most_common(1)[0]
    if count * 2 > len(values):
        return value
    return default


def k_of_n_vote(k: int, values: Sequence[Value]) -> Value:
    """The external voter's ``k``-out-of-``n`` vote (Section 3).

    Returns the unique value occurring at least *k* times among *values*,
    otherwise the default value.  The paper instantiates this with
    ``k = m + u`` and ``n = 2m + u`` channel outputs (footnote 2).

    Unlike :func:`vote`, the default value itself **may** win: when at least
    *k* channels output ``V_d``, the external entity legitimately observes
    the default and takes the safe action.
    """
    if k <= 0:
        raise ConfigurationError(f"k-out-of-n threshold must be positive, got {k}")
    if k > len(values):
        return DEFAULT
    counts = Counter(values)
    winners = [v for v, c in counts.items() if c >= k]
    if len(winners) == 1:
        return winners[0]
    return DEFAULT


def unanimity(values: Sequence[Value]) -> Value:
    """Unanimous vote: the common value if all ballots agree, else ``V_d``.

    Equivalent to ``VOTE(len(values), values)``; used by the ``m = 0`` entry
    point of algorithm BYZ (the paper omits that case; see DESIGN.md).
    """
    if not values:
        return DEFAULT
    first = values[0]
    if all(v == first for v in values[1:]):
        return first
    return DEFAULT


def tally(values: Iterable[Value]) -> Counter:
    """Multiplicity count of *values* (exposed for analysis code)."""
    return Counter(values)
