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
from array import array
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
    "ReuseObservations",
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


class ReuseObservations:
    """Observations as columns, one row per (user, past tag) comparison of past
    usage against the held-out post: ``user``, ``tag``, ``frequency``,
    ``recency``, ``context`` and ``reused``. Each predictor column is named
    after the dimension :func:`bin_reuse` bins it by."""

    def __init__(self):
        self.user: list[str] = []
        self.tag: list[str] = []
        self.frequency = array("q")
        self.recency = array("q")
        self.context = array("d")
        self.reused = bytearray()

    def __len__(self) -> int:
        return len(self.user)


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


def reuse_observations(f: Folksonomy, min_posts: int) -> ReuseObservations:
    """Compare each qualifying user's past tags with their newest post.

    For every distinct tag in the user's first n-1 posts: how many of those
    posts contain it, how many seconds before the newest post it was last
    used, how strongly it associates with the newest post's resource context,
    and whether the newest post reuses it. Both histories come from the tag
    scorer of the held-out query, on the training side only, so the held-out
    posts cannot leak into their own predictors.
    """
    train, test = chronological_split(f, min_posts)
    # Frees the full folksonomy's own columns before the observations grow,
    # unless the caller holds them; train shares their ids and tag tuples.
    del f
    model = TagModel(train)
    observations = ReuseObservations()
    for held_out in test:
        scorer = model.bind((held_out.user, held_out.resource, held_out.timestamp))
        hist = scorer.user_hist
        tags = sorted(hist)
        spread = associations(train, context_profile(scorer.resource_hist), tags)
        reused_tags = set(held_out.tags)
        for tag in tags:
            observations.user.append(held_out.user)
            observations.tag.append(tag)
            observations.frequency.append(len(hist[tag]))
            observations.recency.append(held_out.timestamp - hist[tag][-1])
            # a convex mix of strengths <= 1, whose float sum can exceed 1 by an ulp
            observations.context.append(min(spread[tag], 1.0))
            observations.reused.append(tag in reused_tags)
    return observations


def bin_reuse(
    observations: ReuseObservations,
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
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):  # NaN fails
        raise ValueError("bin_edges must be strictly increasing with at least 2 edges")
    n_bins = len(edges) - 1
    totals = [0] * n_bins
    reused = [0] * n_bins
    for value, was_reused in zip(getattr(observations, dimension), observations.reused):
        if not edges[0] <= value <= edges[-1]:  # drops NaN too
            continue
        idx = min(bisect_right(edges, value) - 1, n_bins - 1)  # edges[-1] joins the last bin
        totals[idx] += 1
        reused[idx] += was_reused
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
    import statistics  # here, as it loads random, decimal and fractions (about 0.45 MB)

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
