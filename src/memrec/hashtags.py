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
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .activation import DecayParams, base_level
from .data import SocialGraph, TweetRecord
from .recommenders import Registry, mix_softmax

__all__ = [
    "HASHTAG_REGISTRY",
    "TweetCorpus",
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


class TweetCorpus:
    """Immutable tweet collection with the indices the scorers need.

    * ``user_index``: tweets per user, oldest first (file order for ties).
    * ``hashtag_doc_freq``: hashtag -> number of tweets containing it.
    * ``hashtag_term_profile``: hashtag -> {term: count summed over all
      tweets containing the hashtag}.
    * ``term_doc_freq``: term -> number of tweets whose term set contains it.
    """

    __slots__ = ("tweets", "user_index", "hashtag_doc_freq", "hashtag_term_profile", "term_doc_freq")

    def __init__(self, tweets: Iterable[TweetRecord] = ()):
        self.tweets: tuple[TweetRecord, ...] = tuple(tweets)
        user_index: dict[str, list[TweetRecord]] = defaultdict(list)
        hashtag_doc_freq: Counter = Counter()
        profiles: dict[str, Counter] = defaultdict(Counter)
        term_doc_freq: Counter = Counter()
        for tweet in self.tweets:
            user_index[tweet.user].append(tweet)
            term_counts = Counter(tweet.terms)
            for term in term_counts:
                term_doc_freq[term] += 1
            for tag in tweet.hashtags:
                hashtag_doc_freq[tag] += 1
                profiles[tag].update(term_counts)
        for user in user_index:
            user_index[user].sort(key=lambda t: t.timestamp)
        self.user_index = {u: tuple(ts) for u, ts in user_index.items()}
        self.hashtag_doc_freq = hashtag_doc_freq
        self.hashtag_term_profile = {h: dict(profiles[h]) for h in profiles}
        self.term_doc_freq = term_doc_freq

    def tweets_by(self, user: str) -> tuple[TweetRecord, ...]:
        return self.user_index.get(user, ())

    def __len__(self) -> int:
        return len(self.tweets)

    def __repr__(self) -> str:
        return (
            f"TweetCorpus({len(self.tweets)} tweets, {len(self.user_index)} users, "
            f"{len(self.hashtag_doc_freq)} hashtags)"
        )


@dataclass(frozen=True)
class HashtagQuery:
    """A recommendation request; ``current_terms`` is None when the tweet
    being written is not available to the recommender."""

    user: str
    now: int
    current_terms: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.now < 0:
            raise ValueError("now must be >= 0")


class UsageBreakdown(NamedTuple):
    """Fractions of hashtag assignments by where the hashtag appeared before."""

    individual_only: float
    social_only: float
    both: float
    external: float


def _pooled_histories(tweet_lists: Iterable[Sequence[TweetRecord]], now: float) -> dict[str, list[int]]:
    """Per-hashtag occurrence timestamps pooled over tweet lists, ascending.

    Occurrences after ``now`` are dropped: in offline replay other users'
    later activity exists in the corpus but must not leak into scores.
    """
    hist: dict[str, list[int]] = defaultdict(list)
    for tweets in tweet_lists:
        for tweet in tweets:
            if tweet.timestamp > now:
                continue
            for tag in tweet.hashtags:
                hist[tag].append(tweet.timestamp)
    for times in hist.values():
        times.sort()
    return hist


def score_bll_i(
    corpus: TweetCorpus,
    user: str,
    now: float,
    params: DecayParams = DecayParams(),
) -> dict[str, float]:
    """Base-level activation of the user's own past hashtags."""
    hist = _pooled_histories([corpus.tweets_by(user)], now)
    return {tag: base_level(times, now, params) for tag, times in sorted(hist.items())}


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
    followees = sorted(graph.followees(user))
    hist = _pooled_histories([corpus.tweets_by(v) for v in followees], now)
    return {tag: base_level(times, now, params) for tag, times in sorted(hist.items())}


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
    terms, with the smoothed ``idf = ln(1 + N / (1 + doc_freq))``. Hashtags
    sharing no terms with the query are omitted.
    """
    if not current_terms:
        raise ValueError("current_terms must be non-empty for content scoring")
    n = len(corpus.tweets)
    scores: dict[str, float] = {}
    for tag in sorted(corpus.hashtag_term_profile):
        profile = corpus.hashtag_term_profile[tag]
        total = 0.0
        for term in current_terms:
            tf = profile.get(term.lower(), 0)
            if tf:
                total += tf * math.log(1 + n / (1 + corpus.term_doc_freq[term.lower()]))
        if total > 0:
            scores[tag] = total
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

    ``gamma`` weights the history half; requires the current tweet's terms.
    """
    if not query.current_terms:
        raise ValueError("query.current_terms is required for content-aware scoring")
    return mix_softmax(
        score_bll_is(corpus, graph, query.user, query.now, params, beta),
        score_content(corpus, query.current_terms),
        gamma,
    )


class HashtagModel(NamedTuple):
    """Training corpus, follow graph and parameters; its methods are the
    scorers of :data:`HASHTAG_REGISTRY`. ``bll_isc`` needs the query's terms."""

    corpus: TweetCorpus
    graph: SocialGraph
    decay: DecayParams = DecayParams()
    beta: float = 0.5
    gamma: float = 0.5

    def bll_i(self, query: HashtagQuery) -> dict[str, float]:
        return score_bll_i(self.corpus, query.user, query.now, self.decay)

    def bll_s(self, query: HashtagQuery) -> dict[str, float]:
        return score_bll_s(self.corpus, self.graph, query.user, query.now, self.decay)

    def bll_is(self, query: HashtagQuery) -> dict[str, float]:
        return score_bll_is(self.corpus, self.graph, query.user, query.now, self.decay, self.beta)

    def bll_isc(self, query: HashtagQuery) -> Optional[dict[str, float]]:
        if not query.current_terms:
            return None
        return score_bll_isc(self.corpus, self.graph, query, self.decay, self.beta, self.gamma)


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
    first_use: dict[str, dict[str, int]] = defaultdict(dict)
    for tweet in corpus.tweets:
        seen = first_use[tweet.user]
        for tag in tweet.hashtags:
            if tag not in seen or tweet.timestamp < seen[tag]:
                seen[tag] = tweet.timestamp
    counts = {"individual_only": 0, "social_only": 0, "both": 0, "external": 0}
    total = 0
    for tweet in corpus.tweets:
        followees = graph.followees(tweet.user)
        own = first_use[tweet.user]
        for tag in tweet.hashtags:
            total += 1
            individual = own.get(tag, tweet.timestamp) < tweet.timestamp
            social = any(
                first_use.get(v, {}).get(tag, tweet.timestamp) < tweet.timestamp
                for v in followees
            )
            if individual and social:
                counts["both"] += 1
            elif individual:
                counts["individual_only"] += 1
            elif social:
                counts["social_only"] += 1
            else:
                counts["external"] += 1
    if total == 0:
        raise ValueError("corpus contains no hashtag assignments")
    return UsageBreakdown(
        counts["individual_only"] / total,
        counts["social_only"] / total,
        counts["both"] / total,
        counts["external"] / total,
    )


def leave_newest_out(
    corpus: TweetCorpus,
    min_tweets: int = 2,
) -> tuple[TweetCorpus, tuple[TweetRecord, ...]]:
    """Hold out the newest hashtagged tweet of each qualifying user.

    A user qualifies with at least ``min_tweets`` hashtagged tweets; ties on
    the timestamp are broken by position in the corpus (later wins). The
    training corpus keeps all remaining tweets in their original order.
    """
    if min_tweets < 2:
        raise ValueError("min_tweets must be >= 2")
    newest: dict[str, tuple[int, int]] = {}
    tagged_counts: Counter = Counter()
    for idx, tweet in enumerate(corpus.tweets):
        if tweet.hashtags:
            tagged_counts[tweet.user] += 1
            key = (tweet.timestamp, idx)
            if tweet.user not in newest or key > newest[tweet.user]:
                newest[tweet.user] = key
    held_out = {
        idx for user, (_, idx) in newest.items() if tagged_counts[user] >= min_tweets
    }
    train = [t for i, t in enumerate(corpus.tweets) if i not in held_out]
    test = [corpus.tweets[i] for i in sorted(held_out)]
    test.sort(key=lambda t: (t.timestamp, t.user))
    return TweetCorpus(train), tuple(test)
