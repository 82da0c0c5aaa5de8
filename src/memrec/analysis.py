"""Tag-reuse analysis: how frequency, recency, and context predict reuse.

For every qualifying user the newest post is held out, one observation is
emitted per tag of the user's earlier posts, and the observations are binned
into reuse-probability curves; the predictors read the two tag histories that
``TagModel.bind`` builds for the held-out query. ``fit_decay`` / ``compare_decay``
then test whether the recency curve drops off like a power function (straight
line in log-log space) or an exponential (straight line in log-linear space).
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .activation import associations, context_profile
from .data import Folksonomy, chronological_split
from .recommenders import TagModel

__all__ = [
    "DIMENSIONS",
    "DEFAULT_FREQUENCY_EDGES",
    "DEFAULT_RECENCY_EDGES",
    "DEFAULT_CONTEXT_EDGES",
    "ReuseObservation",
    "CurveBin",
    "ReuseCurve",
    "DecayFit",
    "DecayComparison",
    "reuse_observations",
    "bin_reuse",
    "fit_decay",
    "compare_decay",
]

DIMENSIONS = ("frequency", "recency", "context")

# Unit bins for usage counts 1..20.
DEFAULT_FREQUENCY_EDGES: tuple[float, ...] = tuple(range(1, 22))
# Log-spaced elapsed seconds: 1 s up to ~4.2 years.
DEFAULT_RECENCY_EDGES: tuple[float, ...] = tuple(float(2**i) for i in range(28))
# Ten uniform bins on the [0, 1] similarity range.
DEFAULT_CONTEXT_EDGES: tuple[float, ...] = tuple(i / 10 for i in range(11))


class ReuseObservation(NamedTuple):
    """One (user, tag) comparison of past usage against the held-out post."""

    user: str
    tag: str
    frequency: int
    recency: int
    context_sim: float
    reused: bool


class CurveBin(NamedTuple):
    lower: float
    probability: float
    support: int


@dataclass(frozen=True)
class ReuseCurve:
    """Reuse probability per bin; bins with no observations are omitted."""

    dimension: str
    bins: tuple[CurveBin, ...]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line fit of a curve under one decay model.

    ``power`` fits ln(p) against ln(bin); ``exponential`` fits ln(p) against
    bin. ``r_squared`` is the coefficient of determination on the
    transformed scale.
    """

    model: str
    slope: float
    intercept: float
    r_squared: float


class DecayComparison(NamedTuple):
    winner: str
    power: DecayFit
    exponential: DecayFit


def reuse_observations(f: Folksonomy, min_posts: int) -> list[ReuseObservation]:
    """Compare each qualifying user's past tags with their newest post.

    For every distinct tag in the user's first n-1 posts: how many of those
    posts contain it, how many seconds before the newest post it was last
    used, how strongly it associates with the newest post's resource context,
    and whether the newest post reuses it. Both histories come from the tag
    scorer of the held-out query, on the training side only, so the held-out
    posts cannot leak into their own predictors.
    """
    train, test = chronological_split(f, min_posts)
    # Frees the full folksonomy's own post tuple before the observations grow,
    # unless the caller holds it; train shares its Post objects.
    del f
    model = TagModel(train)
    observations: list[ReuseObservation] = []
    for held_out in test:
        scorer = model.bind((held_out.user, held_out.resource, held_out.timestamp))
        hist = scorer.user_hist
        tags = sorted(hist)
        spread = associations(train, context_profile(scorer.resource_hist), tags)
        reused_tags = set(held_out.tags)
        for tag in tags:
            observations.append(
                ReuseObservation(
                    user=held_out.user,
                    tag=tag,
                    frequency=len(hist[tag]),
                    recency=held_out.timestamp - hist[tag][-1],
                    # a convex mix of strengths <= 1, whose float sum can exceed 1 by an ulp
                    context_sim=min(spread[tag], 1.0),
                    reused=tag in reused_tags,
                )
            )
    return observations


def bin_reuse(
    observations: Sequence[ReuseObservation],
    dimension: str,
    bin_edges: Sequence[float],
) -> ReuseCurve:
    """Reuse probability per bin along one observation dimension.

    Bins are half-open ``[edge_i, edge_i+1)`` with the last bin closed;
    values outside the edge range are dropped. Empty bins are omitted.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}; expected one of {DIMENSIONS}")
    edges = list(bin_edges)
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError("bin_edges must be strictly increasing with at least 2 edges")
    attr = {"frequency": "frequency", "recency": "recency", "context": "context_sim"}[dimension]
    n_bins = len(edges) - 1
    totals = [0] * n_bins
    reused = [0] * n_bins
    for obs in observations:
        value = getattr(obs, attr)
        if value < edges[0] or value > edges[-1]:
            continue
        idx = min(bisect_right(edges, value) - 1, n_bins - 1)  # edges[-1] joins the last bin
        totals[idx] += 1
        reused[idx] += obs.reused
    bins = tuple(
        CurveBin(float(edges[i]), reused[i] / totals[i], totals[i])
        for i in range(n_bins)
        if totals[i] > 0
    )
    return ReuseCurve(dimension, bins)


def fit_decay(curve: ReuseCurve, model: str) -> DecayFit:
    """Least-squares line on the model's linearizing transform of the curve.

    Bins with nonpositive probability or nonpositive lower bound are
    excluded; fewer than 3 usable bins is an error. A constant transformed
    response has no variance to explain, so its r-squared is defined as 0.
    """
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown decay model {model!r}")
    points = [(b.lower, b.probability) for b in curve.bins if b.probability > 0 and b.lower > 0]
    if len(points) < 3:
        raise ValueError(f"need at least 3 usable bins to fit, got {len(points)}")
    if model == "power":
        xs = [math.log(lower) for lower, _ in points]
    else:
        xs = [lower for lower, _ in points]
    ys = [math.log(p) for _, p in points]
    try:
        line = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError as exc:
        raise ValueError(f"degenerate curve: {exc}") from None
    try:
        r_squared = statistics.correlation(xs, ys) ** 2
    except statistics.StatisticsError:
        r_squared = 0.0
    r_squared = min(max(r_squared, 0.0), 1.0)
    return DecayFit(model, line.slope, line.intercept, r_squared)


def compare_decay(curve: ReuseCurve) -> DecayComparison:
    """Fit both decay models and pick the one explaining more variance.

    Ties go to the power model, the theoretically expected shape of
    forgetting.
    """
    power = fit_decay(curve, "power")
    exponential = fit_decay(curve, "exponential")
    winner = "power" if power.r_squared >= exponential.r_squared else "exponential"
    return DecayComparison(winner, power, exponential)
