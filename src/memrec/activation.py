"""Memory-activation math core.

Implements the ACT-R style activation of an item: a base-level component
driven by how often and how recently the item was used, plus an associative
component that primes items related to the current context.

Base level for an item with past occurrence times ``t_1..t_n`` at reference
time ``now``::

    base = ln( sum_j  max(now - t_j, 1) ** -d )

The negative exponent ``d`` gives power-law forgetting: each occurrence's
contribution fades with elapsed time, so frequent *and* recent items score
highest. Elapsed times are clamped below at one second, the dataset
resolution, because the power term is undefined at zero.

:func:`histories` gathers these times from timestamped records; an item's
frequency is the length of its history and its recency ``now - t_n``.

The associative component for item ``i`` under a context of weighted tags,
the :func:`context_profile` of a resource's :func:`histories` map, is
``sum_j weight_j * strength(j, i)``, where the strength of association is the
conditional co-use rate ``cooccurrence(i, j) / count(j)`` (Kowald & Lex,
HT 2016). :func:`associations` computes it for the candidate tags a scorer
reads, one sum per candidate over the context's rows of the folksonomy's
co-occurrence index, which is built on the first such call.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .data import Folksonomy

__all__ = [
    "DecayParams",
    "OccurrenceHistory",
    "ContextProfile",
    "histories",
    "base_level",
    "base_levels",
    "context_profile",
    "associations",
]

#: Occurrence timestamps (seconds since epoch) of one item for one owner.
OccurrenceHistory = Sequence[float]

#: Weighted context tags ``(tag, weight)``; weights are >= 0 and sum to 1.
ContextProfile = Sequence[tuple[str, float]]


@dataclass(frozen=True)
class DecayParams:
    """Decay exponent of the base level, in ``(0, 1e300]``: ``ln`` of a finite
    elapsed time is below 710, so every term ``-d * ln(elapsed)`` stays finite."""

    d: float = 0.5

    def __post_init__(self):
        if not 0 < self.d <= 1e300:
            raise ValueError(f"decay exponent d must be > 0 and <= 1e300, got {self.d}")


def histories(events: Iterable[tuple[float, Iterable[str]]]) -> dict[str, list[float]]:
    """Occurrence times of each item over ``(timestamp, items)`` events, ascending.

    Items are listed in order of first appearance.
    """
    hist: dict[str, list[float]] = defaultdict(list)
    for t, items in events:
        for item in items:
            hist[item].append(t)
    for times in hist.values():
        times.sort()
    return dict(hist)


def base_level(hist: OccurrenceHistory, now: float, params: DecayParams = DecayParams()) -> float:
    """Base-level activation (natural-log units) of one occurrence history.

    Raises ValueError for an empty history (callers must treat absent items
    as "no base-level score" rather than feeding -inf into sums) and for
    occurrences after ``now`` (a leakage guard for offline protocols).
    When every term of the sum underflows to 0 (a large ``d`` on an old
    history), the same sum is taken in the log domain.
    """
    if not hist:
        raise ValueError("empty occurrence history")
    neg_d = -params.d
    total = 0.0
    for t in hist:
        if t > now:
            raise ValueError(f"occurrence at {t} is after reference time {now}")
        elapsed = now - t
        total += (elapsed if elapsed > 1.0 else 1.0) ** neg_d
    if total == 0.0:
        # Every term underflowed (large d, old history): sum in the log domain.
        logs = [neg_d * math.log(now - t if now - t > 1.0 else 1.0) for t in hist]
        top = max(logs)
        return top + math.log(math.fsum(math.exp(x - top) for x in logs))
    return math.log(total)


def base_levels(
    hist: dict[str, OccurrenceHistory], now: float, params: DecayParams = DecayParams()
) -> dict[str, float]:
    """Base level of every item of a :func:`histories` map, as an unordered score map."""
    return {item: base_level(times, now, params) for item, times in hist.items()}


def context_profile(hist: dict[str, OccurrenceHistory]) -> list[tuple[str, float]]:
    """Tags of a resource's :func:`histories` map, weighted by relative frequency.

    Weights are assignment counts normalized to sum to 1; an empty map (an
    unseen resource) yields an empty profile. Tags are in ascending id order,
    the order in which :func:`associations` sums, so each priming has fixed bits.
    """
    total = sum(map(len, hist.values()))
    return [(tag, len(hist[tag]) / total) for tag in sorted(hist)]


def associations(f: Folksonomy, ctx: ContextProfile, candidates: Iterable[str]) -> dict[str, float]:
    """Priming ``sum_j weight_j * c(i, j) / c(j)`` of each candidate tag ``i``,
    in candidate order, summed over the context's co-occurrence rows in context
    order; a candidate in no row, or any candidate of an empty context, reads 0.0.
    The strength ``c(i, j) / c(j)`` is the share of ``j``'s posts that carry ``i``,
    so it is 1 for ``i == j``."""
    rows = f.cooccurrence
    primed = [(row, weight, row[j]) for j, weight in ctx if (row := rows.get(j))]
    spread: dict[str, float] = {}
    for i in candidates:
        total = 0.0
        for row, weight, n in primed:
            if i in row:
                total += weight * (row[i] / n)
        spread[i] = total
    return spread
