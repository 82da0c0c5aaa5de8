"""Tag recommenders over a folksonomy, behind one scoring interface.

Every scorer maps a query to an unordered ``{tag: score}`` map; ranking order
is the one rule of :func:`top_k`, (-score, tag id). :data:`TAG_REGISTRY` lists
the algorithm ids; each query is scored by one :meth:`TagModel.bind` scorer,
which builds the user's and the resource's tag histories once and each id's
scores once, on first read. :func:`recommend` scores one id and truncates to a
deterministic top-k. Registered ids:

* ``mp_u`` / ``mp_r``: the user's / the resource's most popular tags.
* ``mp_ur``: softmax-normalized mix of the two popularity scores.
* ``cf``: user-based collaborative filtering (cosine over binary user-tag
  incidence, neighbors restricted to users of the query resource).
* ``bll``: recency-weighted usage frequency of the user's own tags
  (base-level activation with power-law decay).
* ``bll_ac``: ``bll`` plus associative priming from the tags already on the
  query resource.
* ``bll_ac_mp_r``: softmax mix of ``bll_ac`` with resource popularity, so
  tag imitation can fill in where personal history is thin.

Scores from different families live on different scales (counts vs. log
activations), so hybrids first map each component through a softmax onto a
common simplex and then mix linearly.

Each formula lives only in the scorer. :func:`score_cf` is the one component
still public, so a trace of the package's public functions charges CF's time
to this module.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

from .activation import (
    DecayParams,
    associations,
    # Not called here; bench/tracing.py checks that rebinding a public
    # function reaches the modules that import it, through this name.
    base_level,  # noqa: F401
    base_levels,
    context_profile,
)
from .data import Folksonomy, _check_count, _check_timestamp

__all__ = [
    "ALGORITHMS",
    "TAG_REGISTRY",
    "ScoredList",
    "HybridParams",
    "Registry",
    "TagModel",
    "softmax_norm",
    "mix_softmax",
    "top_k",
    "score_cf",
    "recommend",
]

@dataclass(frozen=True)
class ScoredList:
    """Ranked (item, score) pairs: score descending, ties by item id."""

    items: tuple[tuple[str, float], ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item for item, _ in self.items)


def _check_weight(name: str, weight: float) -> None:
    """The one weight rule, for mixing weights: a number in ``[0, 1]``."""
    try:
        if 0.0 <= weight <= 1.0:  # also rejects NaN
            return
    except TypeError:  # not a number
        pass
    raise ValueError(f"{name} must be in [0, 1], got {weight!r}")


@dataclass(frozen=True)
class HybridParams:
    """Mixing weights in [0, 1] and the CF neighborhood size (an integer >= 1),
    checked at construction. ``beta`` mixes two components, ``gamma`` history
    with content."""

    beta: float = 0.5
    cf_neighbors: int = 20
    gamma: float = 0.5

    def __post_init__(self):
        _check_weight("beta", self.beta)
        _check_weight("gamma", self.gamma)
        _check_count("cf_neighbors", self.cf_neighbors, 1)


# Above this many items per requested item, top_k sorts only the items at or
# above the k-th largest score; below it the plain sort is faster.
_THRESHOLD_PER_K = 8


def top_k(scores: Mapping[str, float], k: int) -> ScoredList:
    """Deterministic top-k of a score map under (-score, item id)."""
    _check_count("k", k, 1)
    items = scores.items()
    if len(scores) > _THRESHOLD_PER_K * k:
        # min, not the last of nlargest: with a NaN among the scores the
        # order is undefined, and min still leaves k items at or above cut
        cut = min(heapq.nlargest(k, scores.values()))
        items = [kv for kv in items if not kv[1] < cut]  # keeps every tie at the cut
    ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    return ScoredList(tuple(ranked[:k]))


def _softmax(scores: Mapping[str, float], weight: float) -> dict[str, float]:
    """``weight * softmax(scores)``, each value rounded as ``weight * (e / z)``."""
    if not scores:
        return {}
    m = max(scores.values())
    exps = {key: math.exp(score - m) for key, score in scores.items()}
    z = math.fsum(exps.values())
    return {key: weight * (e / z) for key, e in exps.items()}


def softmax_norm(scores: Mapping[str, float]) -> dict[str, float]:
    """Overflow-safe softmax; outputs sum to 1, empty map stays empty. The exactly
    rounded ``math.fsum`` makes the values independent of key order."""
    return _softmax(scores, 1.0)


def mix_softmax(
    first: Mapping[str, float],
    second: Mapping[str, float],
    weight: float,
) -> dict[str, float]:
    """``weight * softmax(first) + (1 - weight) * softmax(second)``.

    Keys are the union of both maps, unordered; a key missing from one
    component contributes 0 from that side. The degenerate weights 0 and 1 return the
    surviving component's softmax exactly, without keys from the other side.
    """
    _check_weight("weight", weight)
    if weight == 1.0:
        return softmax_norm(first)
    if weight == 0.0:
        return softmax_norm(second)
    # One map, built in one pass over each side. A side without the key adds
    # exactly +0.0, and no weighted share is -0.0, so each value has the bits
    # of the two-sided sum, whose terms commute.
    mixed = _softmax(second, 1.0 - weight)
    for key, share in _softmax(first, weight).items():
        mixed[key] = mixed.get(key, 0.0) + share
    return mixed


class Registry:
    """The algorithm ids of one scoring domain, in report order.

    A model's ``bind(query)`` returns that query's scorer. The scorer's
    attribute named after an id is ``{item: score}``, or None where the id
    does not apply to the query.
    """

    def __init__(self, ids: Sequence[str]):
        self.ids = tuple(ids)

    def check(self, ids: Sequence[str]) -> tuple[str, ...]:
        """The ids as a tuple; ValueError when empty, unknown or repeated."""
        if not ids:
            raise ValueError(f"no algorithm ids given; valid: {', '.join(self.ids)}")
        unknown = [a for a in ids if a not in self.ids]
        if unknown:
            raise ValueError(f"unknown ids {unknown}; valid: {', '.join(self.ids)}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate ids in {list(ids)}")
        return tuple(ids)

    def score(self, ids: Sequence[str], model, query) -> dict[str, Optional[dict[str, float]]]:
        """Scores of each id for one query, read from one scorer."""
        ids = self.check(ids)
        scorer = model.bind(query)
        return {name: getattr(scorer, name) for name in ids}


def score_cf(train: Folksonomy, user: str, resource: str, neighbors: int = 20) -> dict[str, float]:
    """User-based CF: cosine similarity over binary user-tag incidence.

    Neighbors are the most similar users who bookmarked the query resource;
    when nobody did, the most similar users overall. Each neighbor votes for
    all of their tags with weight equal to the similarity. Users with no tag
    overlap never vote, so a user orthogonal to everyone gets no scores.

    Only candidate neighbors are visited: the resource's bookmarkers, or
    else the users found in the tag -> users postings of the user's tags.
    """
    _check_count("neighbors", neighbors, 1)
    user_tags, tag_users = train.tag_incidence
    mine = user_tags.get(user)
    if not mine:
        return {}
    bookmarkers = set(map(train.users.__getitem__, train.resource_index.get(resource, ()))) - {user}
    if bookmarkers:
        overlap = {other: len(mine & user_tags[other]) for other in bookmarkers}
    else:
        overlap = Counter(other for tag in mine for other in tag_users[tag])
        del overlap[user]
    sims = [
        (shared / math.sqrt(len(mine) * len(user_tags[other])), other)
        for other, shared in overlap.items()
        if shared
    ]
    sims.sort(key=lambda sv: (-sv[0], sv[1]))  # picks the neighbors, ties by id
    scores: dict[str, float] = defaultdict(float)
    for sim, other in sims[:neighbors]:
        for tag in user_tags[other]:  # one += per neighbor, in neighbor order
            scores[tag] += sim
    return dict(scores)


class TagModel(NamedTuple):
    """Training folksonomy and parameters; :meth:`bind` gives the scorer of
    one ``(user, resource, now)`` query over the ids of :data:`TAG_REGISTRY`."""

    train: Folksonomy
    decay: DecayParams = DecayParams()
    hybrid: HybridParams = HybridParams()

    def bind(self, query) -> "_TagScorer":
        return _TagScorer(self, query)


class _TagScorer:
    """One query's scores: an attribute per registered id, computed on first
    read. The user's and the resource's tag histories are built once, and the
    hybrids mix the components' own scores. ``analyze`` reads the same two
    histories for its frequency, recency and context predictors."""

    def __init__(self, model: TagModel, query):
        self.model = model
        self.user, self.resource, self.now = query
        _check_timestamp(self.now)  # the records' rule, as for a HashtagQuery

    def _history(self, index: dict, key: str) -> dict[str, list[float]]:
        """Each tag's occurrence times over the training rows that ``index`` lists
        for ``key``, read from the columns, as ``activation.histories`` derives
        them. The rows ascend in time, as canonical order does, so each tag's
        times are already ascending and need no sort."""
        train = self.model.train
        timestamps, tags = train.timestamps, train.tags
        hist: dict[str, list[float]] = defaultdict(list)
        for i in index.get(key, ()):
            t = timestamps[i]
            for tag in tags[i]:
                hist[tag].append(t)
        return dict(hist)

    @cached_property
    def user_hist(self) -> dict[str, list[float]]:
        return self._history(self.model.train.user_index, self.user)

    @cached_property
    def resource_hist(self) -> dict[str, list[float]]:
        return self._history(self.model.train.resource_index, self.resource)

    @cached_property
    def mp_u(self) -> dict[str, float]:
        return {tag: len(times) for tag, times in self.user_hist.items()}

    @cached_property
    def mp_r(self) -> dict[str, float]:
        return {tag: len(times) for tag, times in self.resource_hist.items()}

    @cached_property
    def mp_ur(self) -> dict[str, float]:
        return mix_softmax(self.mp_u, self.mp_r, self.model.hybrid.beta)

    @cached_property
    def cf(self) -> dict[str, float]:
        model = self.model
        return score_cf(model.train, self.user, self.resource, model.hybrid.cf_neighbors)

    @cached_property
    def bll(self) -> dict[str, float]:
        return base_levels(self.user_hist, self.now, self.model.decay)

    @cached_property
    def bll_ac(self) -> dict[str, float]:
        """Candidates are the user's tags plus the resource's; a tag without
        personal history gets a purely associative score, and an unseen
        resource (empty context) leaves ``bll`` exactly as it is."""
        bll = self.bll
        ctx = context_profile(self.resource_hist)
        spread = associations(self.model.train, ctx, bll.keys() | {j for j, _ in ctx})
        return {tag: bll.get(tag, 0.0) + primed for tag, primed in spread.items()}

    @cached_property
    def bll_ac_mp_r(self) -> dict[str, float]:
        return mix_softmax(self.bll_ac, self.mp_r, self.model.hybrid.beta)


TAG_REGISTRY = Registry(("mp_u", "mp_r", "mp_ur", "cf", "bll", "bll_ac", "bll_ac_mp_r"))
ALGORITHMS = TAG_REGISTRY.ids


def recommend(
    algorithm: str,
    train: Folksonomy,
    query: tuple[str, str, float],
    k: int,
    decay: DecayParams = DecayParams(),
    hybrid: HybridParams = HybridParams(),
) -> ScoredList:
    """Run one registered algorithm for a (user, resource, now) query."""
    scores = TAG_REGISTRY.score((algorithm,), TagModel(train, decay, hybrid), query)
    return top_k(scores[algorithm], k)
