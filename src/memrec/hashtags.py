"""Hashtag recommenders over a tweet corpus and a follow graph.

Two query scenarios are supported: ranking hashtags from usage history
alone (individual reuse, social reuse by followees, or a softmax mix of
both), and additionally matching the current tweet's terms against each
hashtag's term profile with TF-IDF.

``hashtag_usage_breakdown`` provides the descriptive statistic behind the
history-based scorers: how many hashtag assignments repeat the author's own
past hashtags, a followee's, both, or neither.

:data:`HASHTAG_REGISTRY` lists the ids ``bll_i``, ``bll_s``, ``bll_is`` (mix of
the first two) and ``bll_isc`` (``bll_is`` mixed with TF-IDF content scores).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .activation import DecayParams, base_levels, histories
from .data import SocialGraph, SplitSpec, TweetRecord, _check_timestamp, _grouped, _hold_out_newest
from .recommenders import HybridParams, Registry, mix_softmax

__all__ = [
    "HASHTAG_REGISTRY",
    "TweetCorpus",
    "TermIndex",
    "HashtagQuery",
    "HashtagModel",
    "UsageBreakdown",
    "score_bll_i",
    "score_bll_s",
    "score_bll_is",
    "score_content",
    "score_bll_isc",
    "hashtag_usage_breakdown",
    "leave_newest_out",
]


class TermIndex(NamedTuple):
    """Term -> {hashtag: count of the term summed over all tweets containing
    the hashtag}, and term -> number of tweets whose term set contains it."""

    postings: dict[str, dict[str, int]]
    doc_freq: dict[str, int]


class TweetCorpus:
    """Immutable tweet collection. Construction stores the tweets; each index
    is built on its first read, once, as only some readers read it:
    ``user_index`` (tweets per user, oldest first, file order for ties),
    ``term_index`` (content scoring) and ``hashtag_times`` (history scoring)."""

    def __init__(self, tweets: Iterable[TweetRecord] = ()):
        self.tweets: tuple[TweetRecord, ...] = tuple(tweets)

    @cached_property
    def user_index(self) -> dict[str, tuple[TweetRecord, ...]]:
        return _grouped(sorted(self.tweets, key=attrgetter("timestamp")), attrgetter("user"))

    @cached_property
    def term_index(self) -> TermIndex:
        """Term postings and document frequencies."""
        postings: dict[str, dict[str, int]] = {}
        doc_freq: Counter = Counter()
        for tweet in self.tweets:
            term_counts = Counter(tweet.terms)
            doc_freq.update(term_counts.keys())
            for tag in tweet.hashtags:
                for term, tf in term_counts.items():
                    row = postings.setdefault(term, {})
                    row[tag] = row.get(tag, 0) + tf
        return TermIndex(postings, doc_freq)

    @cached_property
    def hashtag_times(self) -> dict[str, dict[str, tuple[int, ...]]]:
        """User -> {hashtag: ascending times of the user's tweets that carry it};
        scorers cut each row at the query time. A user with no row reads as empty."""
        return {
            u: {
                tag: tuple(times)
                for tag, times in histories((t.timestamp, t.hashtags) for t in tweets).items()
            }
            for u, tweets in self.user_index.items()
        }

    def __len__(self) -> int:
        return len(self.tweets)

    def __repr__(self) -> str:
        return (
            f"TweetCorpus({len(self.tweets)} tweets, {len({t.user for t in self.tweets})} users, "
            f"{len({h for t in self.tweets for h in t.hashtags})} hashtags)"
        )


@dataclass(frozen=True)
class HashtagQuery:
    """A recommendation request; ``now`` obeys the records' ``data._check_timestamp``,
    and ``current_terms`` is None when the tweet being written is not available."""

    user: str
    now: int
    current_terms: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        _check_timestamp(self.now)


class UsageBreakdown(NamedTuple):
    """Fractions of hashtag assignments by where the hashtag appeared before."""

    individual_only: float
    social_only: float
    both: float
    external: float


def _pooled_history(corpus: TweetCorpus, users: Iterable[str], now: float) -> dict[str, list[int]]:
    """Hashtag -> ascending times up to ``now`` of the users' tweets that carry
    it: each user's row cut at ``now``, pooled in user order."""
    pooled: dict[str, list[int]] = {}
    for v in users:
        for tag, times in corpus.hashtag_times.get(v, {}).items():
            if times[0] > now:
                continue
            if times[-1] > now:
                times = times[: bisect_right(times, now)]
            pooled.setdefault(tag, []).extend(times)
    for times in pooled.values():
        times.sort()  # fixes the order of base_level's sum; equal times give equal terms
    return pooled


def score_bll_i(
    corpus: TweetCorpus,
    user: str,
    now: float,
    params: DecayParams = DecayParams(),
) -> dict[str, float]:
    """Base-level activation of the user's own past hashtags."""
    return base_levels(_pooled_history(corpus, (user,), now), now, params)


def score_bll_s(
    corpus: TweetCorpus,
    graph: SocialGraph,
    user: str,
    now: float,
    params: DecayParams = DecayParams(),
) -> dict[str, float]:
    """Base-level activation of hashtags used by the user's followees.

    Occurrences pool across followees with no per-followee weighting; a user
    following nobody gets an empty map.
    """
    return base_levels(_pooled_history(corpus, graph.followees(user), now), now, params)


def score_bll_is(
    corpus: TweetCorpus,
    graph: SocialGraph,
    user: str,
    now: float,
    params: DecayParams = DecayParams(),
    beta: float = 0.5,
) -> dict[str, float]:
    """Softmax mix of individual and social hashtag reuse scores."""
    return mix_softmax(
        score_bll_i(corpus, user, now, params),
        score_bll_s(corpus, graph, user, now, params),
        beta,
    )


def score_content(corpus: TweetCorpus, current_terms: Sequence[str]) -> dict[str, float]:
    """TF-IDF match of the current tweet's terms against hashtag profiles.

    For each hashtag, sums ``tf(term in profile) * idf(term)`` over the query
    terms, in query order, with the smoothed ``idf = ln(1 + N / (1 +
    doc_freq))``. Hashtags sharing no terms with the query are omitted.
    """
    if not current_terms:
        raise ValueError("current_terms must be non-empty for content scoring")
    n = len(corpus.tweets)
    postings, doc_freq = corpus.term_index
    scores: dict[str, float] = {}
    for term in current_terms:
        term = term.lower()
        row = postings.get(term)
        if row:
            idf = math.log(1 + n / (1 + doc_freq[term]))
            for tag, tf in row.items():
                scores[tag] = scores.get(tag, 0.0) + tf * idf
    return scores


def score_bll_isc(
    corpus: TweetCorpus,
    graph: SocialGraph,
    query: HashtagQuery,
    params: DecayParams = DecayParams(),
    beta: float = 0.5,
    gamma: float = 0.5,
) -> dict[str, float]:
    """Softmax mix of history-based scores with content TF-IDF scores.

    ``gamma`` weights the history half; :func:`score_content` raises without terms.
    """
    return mix_softmax(
        score_bll_is(corpus, graph, query.user, query.now, params, beta),
        score_content(corpus, query.current_terms),
        gamma,
    )


class HashtagModel(NamedTuple):
    """Training corpus, follow graph and parameters; :meth:`bind` gives the
    scorer of one query over the ids of :data:`HASHTAG_REGISTRY`."""

    corpus: TweetCorpus
    graph: SocialGraph
    decay: DecayParams = DecayParams()
    hybrid: HybridParams = HybridParams()

    def bind(self, query: HashtagQuery) -> "_HashtagScorer":
        return _HashtagScorer(self, query)


class _HashtagScorer(NamedTuple):
    """One query's scores: an attribute per registered id, each read from the
    public scorer of that name. ``bll_isc`` is None when the query has no terms."""

    model: HashtagModel
    query: HashtagQuery

    @property
    def bll_i(self) -> dict[str, float]:
        m, q = self
        return score_bll_i(m.corpus, q.user, q.now, m.decay)

    @property
    def bll_s(self) -> dict[str, float]:
        m, q = self
        return score_bll_s(m.corpus, m.graph, q.user, q.now, m.decay)

    @property
    def bll_is(self) -> dict[str, float]:
        m, q = self
        return score_bll_is(m.corpus, m.graph, q.user, q.now, m.decay, m.hybrid.beta)

    @property
    def bll_isc(self) -> Optional[dict[str, float]]:
        m, q = self
        if not q.current_terms:
            return None
        return score_bll_isc(m.corpus, m.graph, q, m.decay, m.hybrid.beta, m.hybrid.gamma)


HASHTAG_REGISTRY = Registry(("bll_i", "bll_s", "bll_is", "bll_isc"))


def hashtag_usage_breakdown(corpus: TweetCorpus, graph: SocialGraph) -> UsageBreakdown:
    """Classify every hashtag assignment by where the hashtag appeared before.

    An assignment (tweet, hashtag) counts as individual reuse when the author
    used the hashtag in a strictly earlier own tweet, as social reuse when a
    followee did, as both when both hold, and as external otherwise.
    Same-second usage is not "earlier". The four fractions sum to 1.
    """
    if not corpus.tweets:
        raise ValueError("empty corpus")
    first_use = {
        user: {tag: times[0] for tag, times in row.items()}
        for user, row in corpus.hashtag_times.items()
    }
    counts = Counter()  # (individual, social) -> assignments
    for tweet in corpus.tweets:
        followees = graph.followees(tweet.user)
        own = first_use[tweet.user]
        for tag in tweet.hashtags:
            individual = own.get(tag, tweet.timestamp) < tweet.timestamp
            social = any(
                first_use.get(v, {}).get(tag, tweet.timestamp) < tweet.timestamp
                for v in followees
            )
            counts[individual, social] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("corpus contains no hashtag assignments")
    # in field order: individual_only, social_only, both, external
    keys = ((True, False), (False, True), (True, True), (False, False))
    return UsageBreakdown(*(counts[key] / total for key in keys))


def leave_newest_out(corpus: TweetCorpus, min_tweets: int = 2) -> SplitSpec:
    """Hold out the newest hashtagged tweet of each qualifying user.

    A user qualifies with at least ``min_tweets`` hashtagged tweets; ties on
    the timestamp are broken by position in the corpus (later wins). The
    training corpus keeps all remaining tweets in their original order.
    """
    tweets = corpus.tweets
    tagged = ((i, t.user, t.timestamp) for i, t in enumerate(tweets) if t.hashtags)
    train, held = _hold_out_newest(tagged, len(tweets), min_tweets)
    return SplitSpec(TweetCorpus(compress(tweets, train)), tuple(tweets[i] for i in held))
