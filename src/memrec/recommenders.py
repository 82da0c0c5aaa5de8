"""Tag recommenders over a folksonomy, behind one scoring interface.

Every scorer maps a query to ``{tag: score}``. :data:`TAG_REGISTRY` lists
the algorithm ids, each scored by the :class:`TagModel` method of that name;
:func:`recommend` scores one id and truncates to a deterministic top-k.
Registered ids:

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
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from .activation import DecayParams, activation, base_level, context_profile
from .data import Folksonomy

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
    "score_mp_u",
    "score_mp_r",
    "score_mp_ur",
    "score_cf",
    "score_bll",
    "score_bll_ac",
    "score_bll_ac_mp_r",
    "recommend",
]

@dataclass(frozen=True)
class ScoredList:
    """Ranked (item, score) pairs: score descending, ties by item id."""

    items: tuple[tuple[str, float], ...]
    k: int

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item for item, _ in self.items)


@dataclass(frozen=True)
class HybridParams:
    """Mixing weight for score hybrids and the CF neighborhood size."""

    beta: float = 0.5
    cf_neighbors: int = 20

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.cf_neighbors < 1:
            raise ValueError("cf_neighbors must be >= 1")


def top_k(scores: Mapping[str, float], k: int) -> ScoredList:
    """Deterministic top-k of a score map under (-score, item id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ScoredList(tuple(ranked[:k]), k)


def softmax_norm(scores: Mapping[str, float]) -> dict[str, float]:
    """Overflow-safe softmax; outputs sum to 1, empty map stays empty."""
    if not scores:
        return {}
    m = max(scores.values())
    keys = sorted(scores)
    exps = {key: math.exp(scores[key] - m) for key in keys}
    z = math.fsum(exps.values())
    return {key: exps[key] / z for key in keys}


def mix_softmax(
    first: Mapping[str, float],
    second: Mapping[str, float],
    weight: float,
) -> dict[str, float]:
    """``weight * softmax(first) + (1 - weight) * softmax(second)``.

    Keys are the union of both maps; a key missing from one component
    contributes 0 from that side. The degenerate weights 0 and 1 return the
    surviving component's softmax exactly, without keys from the other side.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("mixing weight must be in [0, 1]")
    if weight == 1.0:
        return softmax_norm(first)
    if weight == 0.0:
        return softmax_norm(second)
    a = softmax_norm(first)
    b = softmax_norm(second)
    return {
        key: weight * a.get(key, 0.0) + (1.0 - weight) * b.get(key, 0.0)
        for key in sorted(set(a) | set(b))
    }


class Registry:
    """The algorithm ids of one scoring domain, in report order.

    Each id is the model's method of that name, mapping a query to
    ``{item: score}``, or to None where the id does not apply to the query.
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
        """Scores of each id for one query."""
        return {name: getattr(model, name)(query) for name in self.check(ids)}


def score_mp_u(train: Folksonomy, user: str) -> dict[str, float]:
    """Tag -> number of the user's posts containing it."""
    counts: dict[str, float] = defaultdict(int)
    for post in train.posts_by(user):
        for tag in post.tags:
            counts[tag] += 1
    return dict(counts)


def score_mp_r(train: Folksonomy, resource: str) -> dict[str, float]:
    """Tag -> number of posts assigning it to the resource."""
    counts: dict[str, float] = defaultdict(int)
    for post in train.posts_on(resource):
        for tag in post.tags:
            counts[tag] += 1
    return dict(counts)


def score_mp_ur(train: Folksonomy, user: str, resource: str, beta: float = 0.5) -> dict[str, float]:
    """Softmax mix of user popularity and resource popularity."""
    return mix_softmax(score_mp_u(train, user), score_mp_r(train, resource), beta)


def _user_tag_sets(train: Folksonomy) -> dict[str, set[str]]:
    return {u: {t for p in posts for t in p.tags} for u, posts in train.user_index.items()}


def score_cf(train: Folksonomy, user: str, resource: str, neighbors: int = 20) -> dict[str, float]:
    """User-based CF: cosine similarity over binary user-tag incidence.

    Neighbors are the most similar users who bookmarked the query resource;
    when nobody did, the most similar users overall. Each neighbor votes for
    all of their tags with weight equal to the similarity. Users with no tag
    overlap never vote, so a user orthogonal to everyone gets no scores.
    """
    if neighbors < 1:
        raise ValueError("neighbors must be >= 1")
    tag_sets = _user_tag_sets(train)
    mine = tag_sets.get(user, set())
    if not mine:
        return {}
    sims: list[tuple[float, str]] = []
    for other in tag_sets:
        if other == user:
            continue
        theirs = tag_sets[other]
        shared = len(mine & theirs)
        if shared:
            sims.append((shared / math.sqrt(len(mine) * len(theirs)), other))
    bookmarkers = {p.user for p in train.posts_on(resource)} - {user}
    if bookmarkers:
        sims = [(s, v) for s, v in sims if v in bookmarkers]
    sims.sort(key=lambda sv: (-sv[0], sv[1]))
    scores: dict[str, float] = defaultdict(float)
    for sim, other in sims[:neighbors]:
        for tag in sorted(tag_sets[other]):
            scores[tag] += sim
    return dict(scores)


def _tag_histories(train: Folksonomy, user: str) -> dict[str, list[int]]:
    """Per-tag occurrence timestamps from the user's posts, oldest first."""
    hist: dict[str, list[int]] = defaultdict(list)
    for post in train.posts_by(user):
        for tag in post.tags:
            hist[tag].append(post.timestamp)
    return hist


def score_bll(
    train: Folksonomy,
    user: str,
    now: float,
    params: DecayParams = DecayParams(),
) -> dict[str, float]:
    """Base-level activation of each tag the user has used before ``now``."""
    hist = _tag_histories(train, user)
    return {tag: base_level(times, now, params) for tag, times in sorted(hist.items())}


def score_bll_ac(
    train: Folksonomy,
    user: str,
    resource: str,
    now: float,
    params: DecayParams = DecayParams(),
) -> dict[str, float]:
    """Base-level activation tuned by the query resource's tag context.

    Candidates are the user's past tags plus the tags already on the
    resource; candidates without personal history get a purely associative
    score. With an unseen resource (empty context) this equals
    :func:`score_bll` exactly.
    """
    hist = _tag_histories(train, user)
    ctx = context_profile(train, resource)
    candidates = set(hist).union(j for j, _ in ctx)
    scores: dict[str, float] = {}
    for tag in sorted(candidates):
        base = base_level(hist[tag], now, params) if tag in hist else None
        scores[tag] = activation(base, ctx, train, tag)
    return scores


def score_bll_ac_mp_r(
    train: Folksonomy,
    user: str,
    resource: str,
    now: float,
    params: DecayParams = DecayParams(),
    hybrid: HybridParams = HybridParams(),
) -> dict[str, float]:
    """Softmax mix of the activation scores with resource tag popularity."""
    return mix_softmax(
        score_bll_ac(train, user, resource, now, params),
        score_mp_r(train, resource),
        hybrid.beta,
    )


class TagModel(NamedTuple):
    """Training folksonomy and parameters; its methods are the scorers of
    :data:`TAG_REGISTRY`, for ``(user, resource, now)`` queries."""

    train: Folksonomy
    decay: DecayParams = DecayParams()
    hybrid: HybridParams = HybridParams()

    def mp_u(self, query) -> dict[str, float]:
        return score_mp_u(self.train, query[0])

    def mp_r(self, query) -> dict[str, float]:
        return score_mp_r(self.train, query[1])

    def mp_ur(self, query) -> dict[str, float]:
        return score_mp_ur(self.train, query[0], query[1], self.hybrid.beta)

    def cf(self, query) -> dict[str, float]:
        return score_cf(self.train, query[0], query[1], self.hybrid.cf_neighbors)

    def bll(self, query) -> dict[str, float]:
        return score_bll(self.train, query[0], query[2], self.decay)

    def bll_ac(self, query) -> dict[str, float]:
        return score_bll_ac(self.train, query[0], query[1], query[2], self.decay)

    def bll_ac_mp_r(self, query) -> dict[str, float]:
        return score_bll_ac_mp_r(self.train, *query, self.decay, self.hybrid)


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
