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
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence

from .activation import DecayParams, base_levels, histories
from .data import SocialGraph, SplitSpec, TweetRecord, _check_timestamp, _hold_out_newest, _rows_by
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
    """The hashtag term profiles as flat postings over dense ids.

    A hashtag's id is its position in ``hashtags``, the training hashtags in
    ascending string order, so integer order is id order. ``terms`` numbers
    the terms in order of first appearance in the corpus. The postings of
    term ``j`` are the slice ``offsets[j]:offsets[j + 1]`` of ``tag_ids`` and
    ``counts``: one posting per hashtag that shares a tweet with the term,
    holding the term's count summed over those tweets (its tf in the
    hashtag's profile). ``doc_freq[j]`` is the number of tweets that contain
    term ``j``, with or without a hashtag, so a term seen only in
    hashtagless tweets has an empty slice and a document frequency above 0."""

    hashtags: tuple[str, ...]
    terms: dict[str, int]
    offsets: array
    tag_ids: array
    counts: array
    doc_freq: array


class TweetCorpus:
    """Immutable tweet collection. Construction stores the tweets, in file
    order, and nothing else; each index is built on its first read, once, as
    only some readers read it: ``term_index`` (content scoring) and
    ``hashtag_times`` (history scoring). Like the indexes of a folksonomy,
    they hold row positions or values derived from the rows, never records."""

    def __init__(self, tweets: Iterable[TweetRecord] = ()):
        self.tweets: tuple[TweetRecord, ...] = tuple(tweets)

    @cached_property
    def term_index(self) -> TermIndex:
        """:class:`TermIndex` of the corpus: flat postings (hashtag id, tf) per
        term, with hashtag ids in ascending string order. A posting's tf is
        an exact integer count, so :func:`score_content` sums the same floats
        in the same order as over term -> {hashtag: tf} maps.

        Built one term at a time: first the rows of the hashtagged tweets
        that hold each term, then each term's postings from one small
        {hashtag id: tf} map, so no map of all the postings exists at any
        point, not even while it is built."""
        tweets = self.tweets
        hashtags = tuple(sorted({tag for t in tweets for tag in t.hashtags}))
        tag_id = {tag: h for h, tag in enumerate(hashtags)}
        terms: dict[str, int] = {}
        doc_freq = array("I")
        last: list[int] = []  # term id -> row of the last tweet counted in doc_freq
        rows: list[array] = []  # term id -> row of each occurrence in a hashtagged tweet
        for i, tweet in enumerate(tweets):
            for term in tweet.terms:
                j = terms.get(term)
                if j is None:
                    j = terms[term] = len(rows)
                    doc_freq.append(0)
                    last.append(-1)
                    rows.append(array("I"))
                if last[j] != i:
                    last[j] = i
                    doc_freq[j] += 1
                if tweet.hashtags:
                    rows[j].append(i)
        offsets, tag_ids, counts = array("I", [0]), array("I"), array("I")
        for row in rows:
            postings: dict[int, int] = {}  # hashtag id -> tf
            for i in row:
                for tag in tweets[i].hashtags:
                    h = tag_id[tag]
                    postings[h] = postings.get(h, 0) + 1
            tag_ids.extend(postings)
            counts.extend(postings.values())
            offsets.append(len(tag_ids))
        return TermIndex(hashtags, terms, offsets, tag_ids, counts, doc_freq)

    @cached_property
    def hashtag_times(self) -> dict[str, dict[str, tuple[int, ...]]]:
        """User -> {hashtag: ascending times of the user's tweets that carry it},
        gathered over the user's rows in file order: :func:`histories` sorts
        each row, and no reader depends on the order of a user's hashtags.
        Scorers cut each row at the query time. A user with no row reads as empty."""
        tweets = self.tweets
        return {
            u: {
                tag: tuple(times)
                for tag, times in histories(
                    (tweets[i].timestamp, tweets[i].hashtags) for i in rows
                ).items()
            }
            for u, rows in _rows_by(t.user for t in tweets).items()
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

    The sums accumulate term at a time, over each query term's postings in
    :attr:`TweetCorpus.term_index`, into one float per hashtag id. A
    hashtag's float starts at ``0.0`` and adds the terms that reach it in
    query order, and ``0.0 + x == x``, so each score has the bits of the
    same sum kept in a {hashtag: score} map. Every term that reaches a
    hashtag adds ``tf * idf > 0`` (``tf >= 1``, and ``N >= doc_freq`` puts
    ``idf`` at ``ln 1.5`` or above), so the floats above 0 are exactly the
    hashtags that share a term with the query.
    """
    if not current_terms:
        raise ValueError("current_terms must be non-empty for content scoring")
    n = len(corpus.tweets)
    hashtags, terms, offsets, tag_ids, counts, doc_freq = corpus.term_index
    acc = [0.0] * len(hashtags)
    for term in current_terms:
        j = terms.get(term.lower())
        if j is not None:
            idf = math.log(1 + n / (1 + doc_freq[j]))
            start, end = offsets[j], offsets[j + 1]
            for h, tf in zip(tag_ids[start:end], counts[start:end]):
                acc[h] += tf * idf
    return dict(compress(zip(hashtags, acc), acc))


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
    first_use: dict[str, dict[str, int]] = {}  # user -> {hashtag: earliest time}
    for tweet in corpus.tweets:
        if tweet.hashtags:
            row = first_use.setdefault(tweet.user, {})
            for tag in tweet.hashtags:
                row[tag] = min(row.get(tag, tweet.timestamp), tweet.timestamp)
    unused: dict[str, int] = {}  # the row of a user with no hashtag; never written
    counts = Counter()  # (individual, social) -> assignments
    for tweet in corpus.tweets:
        followees = graph.followees(tweet.user)
        own = first_use.get(tweet.user, unused)
        for tag in tweet.hashtags:
            individual = own.get(tag, tweet.timestamp) < tweet.timestamp
            social = any(
                first_use.get(v, unused).get(tag, tweet.timestamp) < tweet.timestamp
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
