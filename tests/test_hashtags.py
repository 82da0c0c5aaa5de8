import dataclasses
import gc
import io
import math
import pickle
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synth import synthetic_tweets, write_tweets_tsv

from memrec import (
    DecayParams,
    HashtagQuery,
    HybridParams,
    SocialGraph,
    SplitSpec,
    TweetCorpus,
    TweetRecord,
    UsageBreakdown,
    base_levels,
    hashtag_usage_breakdown,
    histories,
    leave_newest_out,
    parse_tweets,
    score_bll_i,
    score_bll_is,
    score_bll_isc,
    score_bll_s,
    score_content,
    softmax_norm,
)
from memrec.cli import main
from memrec.evaluation import _evaluate
from memrec.hashtags import HASHTAG_REGISTRY, HashtagModel


def corpus_of(*tweets):
    return TweetCorpus([TweetRecord(*t) for t in tweets])


def decoded(index):
    """A packed term index read back as term -> {hashtag: tf}, over the terms
    with a posting, and term -> document frequency, over every term."""
    hashtags, terms, offsets, tag_ids, counts, doc_freq = index
    postings = {}
    for term, j in terms.items():
        row = range(offsets[j], offsets[j + 1])
        if row:
            postings[term] = {hashtags[tag_ids[p]]: counts[p] for p in row}
    return postings, {term: doc_freq[j] for term, j in terms.items()}


class TestCorpusIndices:
    def test_indices(self, tweet_corpus):
        postings, doc_freq = decoded(tweet_corpus.term_index)
        ml_profile = {w: row["ml"] for w, row in postings.items() if "ml" in row}
        assert ml_profile == {"deep": 1, "learning": 2, "fast": 1}
        assert doc_freq["learning"] == 2

    def test_term_index_built_on_first_read_only(self, follow_graph):
        tweets, _ = synthetic_tweets()
        corpus = TweetCorpus(tweets)
        train, _ = leave_newest_out(corpus)
        hashtag_usage_breakdown(corpus, follow_graph)
        # the breakdown reads the tweets alone: the full corpus holds no index
        assert set(vars(corpus)) == {"columns"}
        score_bll_i(train, "u00", 10**9)
        assert "term_index" not in vars(corpus) and "term_index" not in vars(train)
        assert train.term_index is train.term_index
        assert "term_index" not in vars(corpus)


class TestBllIndividual:
    def test_two_occurrences(self):
        now = 1000
        corpus = corpus_of(
            ("u", ("x",), (), now - 16),
            ("u", ("x",), (), now - 4),
        )
        assert score_bll_i(corpus, "u", now)["x"] == pytest.approx(math.log(0.75), abs=1e-12)

    def test_no_history(self, tweet_corpus):
        assert score_bll_i(tweet_corpus, "ghost", 100) == {}

    def test_recent_beats_old_at_equal_frequency(self):
        now = 10_000
        corpus = corpus_of(
            ("u", ("old",), (), 100),
            ("u", ("recent",), (), 9_000),
        )
        scores = score_bll_i(corpus, "u", now)
        assert scores["recent"] > scores["old"]


HISTORY_SCORERS = {
    "bll_i": lambda corpus, graph, now: score_bll_i(corpus, "u1", now),
    "bll_s": lambda corpus, graph, now: score_bll_s(corpus, graph, "u1", now),
    "bll_is": lambda corpus, graph, now: score_bll_is(corpus, graph, "u1", now),
}


class TestQueryTime:
    @pytest.mark.parametrize("scorer", HISTORY_SCORERS)
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, -1, 2**63, "5", None])
    def test_now_obeys_the_timestamp_rule(self, tweet_corpus, follow_graph, scorer, now):
        with pytest.raises(ValueError) as refused:
            HashtagQuery("u1", now)
        with pytest.raises(ValueError) as err:
            HISTORY_SCORERS[scorer](tweet_corpus, follow_graph, now)
        assert str(err.value) == str(refused.value)

    @pytest.mark.parametrize("scorer", HISTORY_SCORERS)
    def test_now_at_either_end_of_the_range(self, tweet_corpus, follow_graph, scorer):
        score = HISTORY_SCORERS[scorer]
        assert score(tweet_corpus, follow_graph, 0) == {}
        assert set(score(tweet_corpus, follow_graph, 2**63 - 1)) <= {"ml", "ai"}
        assert score(tweet_corpus, follow_graph, 2**63 - 1)


class TestBllSocial:
    def test_unit_recency(self):
        corpus = corpus_of(("vee", ("y",), (), 99))
        graph = SocialGraph({"u": {"vee"}})
        assert score_bll_s(corpus, graph, "u", 100) == {"y": 0.0}

    def test_occurrences_pool_across_followees(self):
        now = 1000
        corpus = corpus_of(
            ("v1", ("y",), (), now - 4),
            ("v2", ("y",), (), now - 16),
        )
        graph = SocialGraph({"u": {"v1", "v2"}})
        scores = score_bll_s(corpus, graph, "u", now)
        assert scores["y"] == pytest.approx(math.log(0.75), abs=1e-12)

    def test_no_followees(self, tweet_corpus):
        assert score_bll_s(tweet_corpus, SocialGraph(), "u1", 100) == {}

    def test_pooling_matches_transplanted_history(self):
        now = 500
        history = [("only", ("h1", "h2"), (), 100), ("only", ("h1",), (), 400)]
        social = corpus_of(*history)
        own = corpus_of(*[("u",) + t[1:] for t in history])
        graph = SocialGraph({"u": {"only"}})
        assert score_bll_s(social, graph, "u", now) == score_bll_i(own, "u", now)

    def test_future_followee_tweets_are_ignored(self):
        now = 1000
        corpus = corpus_of(
            ("v", ("y",), (), now - 4),
            ("v", ("y",), (), now + 50),  # later corpus activity must not leak
        )
        graph = SocialGraph({"u": {"v"}})
        scores = score_bll_s(corpus, graph, "u", now)
        assert scores["y"] == pytest.approx(math.log(4**-0.5), abs=1e-12)


class TestBllCombined:
    def test_beta_one_is_individual_ranking(self):
        now = 1000
        corpus = corpus_of(
            ("u", ("mine",), (), now - 4),
            ("v", ("theirs",), (), now - 4),
        )
        graph = SocialGraph({"u": {"v"}})
        scores = score_bll_is(corpus, graph, "u", now, beta=1.0)
        assert scores == softmax_norm(score_bll_i(corpus, "u", now))

    def test_empty_individual_half(self):
        now = 1000
        corpus = corpus_of(("v", ("theirs",), (), now - 4))
        graph = SocialGraph({"u": {"v"}})
        scores = score_bll_is(corpus, graph, "u", now, beta=0.5)
        social = softmax_norm(score_bll_s(corpus, graph, "u", now))
        assert scores == {k: 0.5 * v for k, v in social.items()}

    def test_hand_mixed_two_followees(self):
        now = 1000
        corpus = corpus_of(
            ("u", ("mine",), (), now - 1),
            ("v1", ("y",), (), now - 4),
            ("v2", ("y",), (), now - 16),
            ("v2", ("z",), (), now - 4),
        )
        graph = SocialGraph({"u": {"v1", "v2"}})
        left = softmax_norm(score_bll_i(corpus, "u", now))
        right = softmax_norm(score_bll_s(corpus, graph, "u", now))
        expected = {
            k: 0.5 * left.get(k, 0.0) + 0.5 * right.get(k, 0.0)
            for k in set(left) | set(right)
        }
        got = score_bll_is(corpus, graph, "u", now, beta=0.5)
        assert got == pytest.approx(expected, abs=1e-12)


class TestContent:
    def test_hand_tfidf(self, tweet_corpus):
        # "learning" appears twice in #ml's profile and in 2 of 3 tweets
        expected = 2 * math.log(1 + 3 / (1 + 2))
        assert score_content(tweet_corpus, ["learning"]) == {
            "ml": pytest.approx(expected, abs=1e-12)
        }

    def test_unknown_term(self, tweet_corpus):
        assert score_content(tweet_corpus, ["quantum"]) == {}

    def test_empty_terms_rejected(self, tweet_corpus):
        with pytest.raises(ValueError):
            score_content(tweet_corpus, [])

    def test_postings_match_full_profile_scan_bit_for_bit(self):
        tweets, _ = synthetic_tweets()
        corpus = TweetCorpus(tweets)
        n = len(tweets)
        doc_freq = {}
        profiles = {}
        for t in tweets:
            for w in set(t.terms):
                doc_freq[w] = doc_freq.get(w, 0) + 1
            for h in t.hashtags:
                profile = profiles.setdefault(h, {})
                for w in t.terms:
                    profile[w] = profile.get(w, 0) + 1
        checked = 0
        for t in tweets:
            if not t.terms:
                continue
            # repeated, upper-case and unknown terms alongside the tweet's own
            query = [*t.terms, t.terms[0].upper(), t.terms[-1], "nosuchterm"]
            expected = {}
            for h in sorted(profiles):
                total = 0.0
                for w in query:
                    tf = profiles[h].get(w.lower(), 0)
                    if tf:
                        total += tf * math.log(1 + n / (1 + doc_freq[w.lower()]))
                if total > 0:
                    expected[h] = total
            got = score_content(corpus, query)
            assert got == expected
            checked += 1
        assert checked > 100
        postings = {}
        for h, profile in profiles.items():
            for w, tf in profile.items():
                postings.setdefault(w, {})[h] = tf
        assert decoded(corpus.term_index) == (postings, doc_freq)

    def test_term_of_hashtagless_tweets_only(self):
        corpus = corpus_of(
            ("u", ("x",), ("shared",), 1),
            ("u", (), ("shared", "lonely"), 2),
            ("v", (), ("lonely", "lonely"), 3),
        )
        hashtags, terms, offsets, _, _, doc_freq = corpus.term_index
        j = terms["lonely"]
        assert offsets[j] == offsets[j + 1] and doc_freq[j] == 2
        assert score_content(corpus, ["lonely"]) == {}
        # both hashtagless tweets count toward N and toward "shared"'s idf
        assert score_content(corpus, ["lonely", "shared"]) == {"x": math.log(1 + 3 / 3)}

    def test_repeated_and_upper_case_terms_add(self, tweet_corpus):
        idf = math.log(1 + 3 / (1 + 2))
        got = score_content(tweet_corpus, ["LEARNING", "learning", "Learning"])
        assert got == {"ml": 2 * idf + 2 * idf + 2 * idf}

    def test_ids_ascend_in_string_order(self):
        corpus = corpus_of(
            ("u", ("zeta", "alpha"), ("b", "a", "b"), 1),
            ("v", ("mid",), ("c", "a"), 2),
            ("v", ("alpha",), (), 3),
        )
        hashtags, terms, offsets, _, _, doc_freq = corpus.term_index
        assert hashtags == ("alpha", "mid", "zeta")
        assert terms == {"b": 0, "a": 1, "c": 2}  # first appearance in the corpus
        assert list(offsets) == [0, 2, 5, 6] and list(doc_freq) == [1, 2, 1]
        assert decoded(corpus.term_index)[0] == {
            "b": {"zeta": 2, "alpha": 2},
            "a": {"zeta": 1, "alpha": 1, "mid": 1},
            "c": {"mid": 1},
        }

    @pytest.mark.parametrize("tweets", [[], [("u", (), ("a", "b"), 1)]])
    def test_no_hashtags_scores_nothing(self, tweets):
        assert score_content(corpus_of(*tweets), ["a", "b"]) == {}

    def test_duplicating_corpus_preserves_ranking(self, tweet_corpus):
        doubled = TweetCorpus(list(tweet_corpus.tweets) * 2)
        for query in (["learning"], ["learning", "robots"], ["fast", "deep"]):
            base = score_content(tweet_corpus, query)
            scaled = score_content(doubled, query)
            order = sorted(base, key=lambda h: (-base[h], h))
            scaled_order = sorted(scaled, key=lambda h: (-scaled[h], h))
            assert order == scaled_order


class TestContentAware:
    def test_gamma_one_is_history_ranking(self, tweet_corpus, follow_graph):
        query = HashtagQuery("u1", 100, ("learning",))
        got = score_bll_isc(tweet_corpus, follow_graph, query, gamma=1.0)
        base = score_bll_is(tweet_corpus, follow_graph, "u1", 100)
        # the extra softmax rescales but cannot reorder
        rank = lambda d: sorted(d, key=lambda h: (-d[h], h))
        assert rank(got) == rank(base)

    def test_gamma_zero_is_content_ranking(self, tweet_corpus, follow_graph):
        query = HashtagQuery("u1", 100, ("learning",))
        got = score_bll_isc(tweet_corpus, follow_graph, query, gamma=0.0)
        assert got == softmax_norm(score_content(tweet_corpus, ("learning",)))

    def test_missing_terms_rejected(self, tweet_corpus, follow_graph):
        with pytest.raises(ValueError):
            score_bll_isc(tweet_corpus, follow_graph, HashtagQuery("u1", 100, None))

    def test_mixes_history_and_content(self, tweet_corpus, follow_graph):
        query = HashtagQuery("u1", 100, ("learning",))
        left = softmax_norm(score_bll_is(tweet_corpus, follow_graph, "u1", 100))
        right = softmax_norm(score_content(tweet_corpus, ("learning",)))
        expected = {
            k: 0.5 * left.get(k, 0.0) + 0.5 * right.get(k, 0.0)
            for k in set(left) | set(right)
        }
        got = score_bll_isc(tweet_corpus, follow_graph, query)
        assert got == pytest.approx(expected, abs=1e-12)


class TestUsageBreakdown:
    def test_single_assignment_is_external(self):
        corpus = corpus_of(("u", ("x",), (), 10))
        breakdown = hashtag_usage_breakdown(corpus, SocialGraph())
        assert breakdown.external == 1.0
        assert breakdown.individual_only == breakdown.social_only == breakdown.both == 0.0

    def test_self_reuse(self):
        corpus = corpus_of(("u", ("x",), (), 10), ("u", ("x",), (), 20))
        breakdown = hashtag_usage_breakdown(corpus, SocialGraph())
        assert breakdown.individual_only == 0.5
        assert breakdown.external == 0.5

    def test_social_reuse(self):
        corpus = corpus_of(("v", ("x",), (), 10), ("u", ("x",), (), 20))
        graph = SocialGraph({"u": {"v"}})
        breakdown = hashtag_usage_breakdown(corpus, graph)
        assert breakdown.social_only == 0.5
        assert breakdown.external == 0.5

    def test_both_category(self):
        corpus = corpus_of(
            ("v", ("x",), (), 10),
            ("u", ("x",), (), 20),
            ("u", ("x",), (), 30),
        )
        graph = SocialGraph({"u": {"v"}})
        breakdown = hashtag_usage_breakdown(corpus, graph)
        assert breakdown.both == pytest.approx(1 / 3)

    def test_same_second_is_not_prior(self):
        corpus = corpus_of(("v", ("x",), (), 10), ("u", ("x",), (), 10))
        graph = SocialGraph({"u": {"v"}})
        breakdown = hashtag_usage_breakdown(corpus, graph)
        assert breakdown.external == 1.0

    def test_fractions_partition(self, tweet_corpus, follow_graph):
        breakdown = hashtag_usage_breakdown(tweet_corpus, follow_graph)
        assert all(0.0 <= v <= 1.0 for v in breakdown)
        assert math.fsum(breakdown) == pytest.approx(1.0, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            hashtag_usage_breakdown(TweetCorpus([]), SocialGraph())

    def test_no_assignments_rejected(self):
        corpus = corpus_of(("u", (), ("hello",), 10))
        with pytest.raises(ValueError):
            hashtag_usage_breakdown(corpus, SocialGraph())


class TestSmallCorpusOracles:
    """History and content scorers against direct formula reimplementations."""

    def test_history_scorers_match_brute_force(self):
        rng = random.Random(61)
        users = ["u0", "u1", "u2"]
        for _ in range(200):
            tweets = [
                TweetRecord(
                    rng.choice(users),
                    tuple(sorted(set(rng.sample(["x", "y", "z"], rng.randint(0, 2))))),
                    (),
                    rng.randrange(0, 400),
                )
                for _ in range(rng.randint(1, 6))
            ]
            corpus = TweetCorpus(tweets)
            graph = SocialGraph({"u0": {"u1", "u2"}})
            now = 400 + rng.randrange(0, 50)

            own = {}
            for t in sorted(tweets, key=lambda t: t.timestamp):
                if t.user == "u0":
                    for h in t.hashtags:
                        own.setdefault(h, []).append(t.timestamp)
            expected_i = {
                h: math.log(sum(max(now - ts, 1.0) ** -0.5 for ts in times))
                for h, times in own.items()
            }
            assert score_bll_i(corpus, "u0", now) == pytest.approx(expected_i, abs=1e-12)

            pooled = {}
            for t in sorted(tweets, key=lambda t: t.timestamp):
                if t.user in ("u1", "u2") and t.timestamp <= now:
                    for h in t.hashtags:
                        pooled.setdefault(h, []).append(t.timestamp)
            expected_s = {
                h: math.log(sum(max(now - ts, 1.0) ** -0.5 for ts in times))
                for h, times in pooled.items()
            }
            assert score_bll_s(corpus, graph, "u0", now) == pytest.approx(expected_s, abs=1e-12)

    def test_content_scorer_matches_brute_force(self):
        rng = random.Random(67)
        terms_pool = ["alpha", "beta", "gamma", "delta"]
        for _ in range(200):
            tweets = [
                TweetRecord(
                    f"u{rng.randrange(3)}",
                    tuple(sorted(set(rng.sample(["x", "y", "z"], rng.randint(0, 2))))),
                    tuple(rng.choices(terms_pool, k=rng.randint(0, 4))),
                    rng.randrange(0, 400),
                )
                for _ in range(rng.randint(1, 6))
            ]
            corpus = TweetCorpus(tweets)
            query = rng.choices(terms_pool, k=rng.randint(1, 3))
            n = len(tweets)
            doc_freq = {
                w: sum(1 for t in tweets if w in t.terms) for w in terms_pool
            }
            expected = {}
            hashtags = {h for t in tweets for h in t.hashtags}
            for h in hashtags:
                profile = {}
                for t in tweets:
                    if h in t.hashtags:
                        for w in t.terms:
                            profile[w] = profile.get(w, 0) + 1
                score = 0.0
                for w in query:
                    tf = profile.get(w, 0)
                    if tf:
                        score += tf * math.log(1 + n / (1 + doc_freq[w]))
                if score > 0:
                    expected[h] = score
            assert score_content(corpus, query) == pytest.approx(expected, abs=1e-12)
            assert set(score_content(corpus, query)) == set(expected)


class TestLeaveNewestOut:
    def test_holds_out_newest_hashtagged_tweet(self):
        corpus = corpus_of(
            ("u", ("a",), (), 10),
            ("u", ("b",), (), 20),
            ("u", (), ("notag",), 30),  # no hashtags: never held out
            ("v", ("c",), (), 5),  # below threshold: stays in train
        )
        train, tests = leave_newest_out(corpus, 2)
        assert [t.hashtags for t in tests] == [("b",)]
        assert len(train) == 3
        assert any(t.terms == ("notag",) for t in train.tweets)

    def test_tie_broken_by_corpus_position(self):
        corpus = corpus_of(
            ("u", ("a",), (), 10),
            ("u", ("b",), (), 10),
        )
        train, tests = leave_newest_out(corpus, 2)
        assert tests[0].hashtags == ("b",)

    def test_min_tweets_validated(self, tweet_corpus):
        with pytest.raises(ValueError, match="got 1"):
            leave_newest_out(tweet_corpus, 1)

    def test_returns_split_spec(self):
        corpus = corpus_of(("u", ("a",), (), 10), ("u", ("b",), (), 20))
        split = leave_newest_out(corpus)
        train, test = split
        assert isinstance(split, SplitSpec)
        assert (train, test) == (split.train, split.test)
        assert train.tweets == corpus.tweets[:1] and test == corpus.tweets[1:]


class TestRegistry:
    def test_each_id_scored_by_its_public_scorer(self, tweet_corpus, follow_graph):
        model = HashtagModel(tweet_corpus, follow_graph, hybrid=HybridParams(beta=0.3, gamma=0.7))
        query = HashtagQuery("u1", 40, ("learning",))
        scores = HASHTAG_REGISTRY.score(HASHTAG_REGISTRY.ids, model, query)
        assert scores == {
            "bll_i": score_bll_i(tweet_corpus, "u1", 40),
            "bll_s": score_bll_s(tweet_corpus, follow_graph, "u1", 40),
            "bll_is": score_bll_is(tweet_corpus, follow_graph, "u1", 40, beta=0.3),
            "bll_isc": score_bll_isc(tweet_corpus, follow_graph, query, beta=0.3, gamma=0.7),
        }

    def test_content_id_does_not_apply_without_terms(self, tweet_corpus, follow_graph):
        query = HashtagQuery("u1", 40)  # no terms
        scores = HASHTAG_REGISTRY.score(
            HASHTAG_REGISTRY.ids, HashtagModel(tweet_corpus, follow_graph), query
        )
        assert scores["bll_isc"] is None
        assert all(scores[a] is not None for a in ("bll_i", "bll_s", "bll_is"))

    def test_negative_jobs_rejected(self, tweet_corpus, follow_graph):
        model = HashtagModel(tweet_corpus, follow_graph)
        cases = [(HashtagQuery("u1", 40), frozenset({"ml"}))]
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 0, got -3$"):
            _evaluate(HASHTAG_REGISTRY, HASHTAG_REGISTRY.ids, model, cases, -3, False)

    def test_ids_checked_against_own_registry(self, tweet_corpus, follow_graph):
        with pytest.raises(ValueError, match="cf"):
            HASHTAG_REGISTRY.score(
                ("cf",), HashtagModel(tweet_corpus, follow_graph), HashtagQuery("u", 10)
            )


@st.composite
def split_tweets(draw):
    """Tweets with same-second ties, untagged tweets and users below the
    threshold, plus equal-valued copies and the same object listed twice."""
    tweets = draw(
        st.lists(
            st.builds(
                TweetRecord,
                st.sampled_from("abc"),
                st.sampled_from([(), (), ("x",), ("y",), ("x", "y")]),
                st.sampled_from([(), ("w",)]),
                st.integers(0, 3),
            ),
            max_size=12,
        )
    )
    for _ in range(draw(st.integers(0, 3)) if tweets else 0):
        source = tweets[draw(st.integers(0, len(tweets) - 1))]
        copy = source if draw(st.booleans()) else dataclasses.replace(source)
        tweets.insert(draw(st.integers(0, len(tweets))), copy)
    return tweets


class TestLeaveNewestOutRule:
    """The documented rule, stated by brute force over corpus positions."""

    @given(split_tweets(), st.integers(2, 4))
    def test_matches_brute_force(self, tweets, min_tweets):
        newest = {}  # user -> position of the newest hashtagged tweet
        counts = Counter()
        for i, t in enumerate(tweets):
            if t.hashtags:
                counts[t.user] += 1
                if t.user not in newest or t.timestamp >= tweets[newest[t.user]].timestamp:
                    newest[t.user] = i
        held = {i for user, i in newest.items() if counts[user] >= min_tweets}
        train, test = leave_newest_out(TweetCorpus(tweets), min_tweets)
        expected = sorted((tweets[i] for i in held), key=lambda t: (t.timestamp, t.user))
        assert test == tuple(expected)
        kept = [t for i, t in enumerate(tweets) if i not in held]
        assert train.tweets == tuple(kept)


def gathered_bll_i(corpus, user, now, params):
    """Reference: ``score_bll_i`` by re-gathering the user's raw tweets."""
    tweets = (t for t in corpus.tweets if t.user == user)
    hist = histories((t.timestamp, t.hashtags) for t in tweets if t.timestamp <= now)
    return base_levels(hist, now, params)


def gathered_bll_s(corpus, graph, user, now, params):
    """Reference: ``score_bll_s`` by gathering followee tweets in followee id order."""
    followees = sorted(graph.followees(user))
    tweets = (t for v in followees for t in corpus.tweets if t.user == v)
    events = ((t.timestamp, t.hashtags) for t in tweets if t.timestamp <= now)
    return base_levels(histories(events), now, params)


def gathered_breakdown(corpus, graph):
    """Reference: ``hashtag_usage_breakdown`` from first uses gathered per user."""
    first_use = {}
    for user in {t.user for t in corpus.tweets}:
        hist = histories((t.timestamp, t.hashtags) for t in corpus.tweets if t.user == user)
        first_use[user] = {tag: times[0] for tag, times in hist.items()}
    counts = Counter()
    for tweet in corpus.tweets:
        for tag in tweet.hashtags:
            before = lambda v: first_use.get(v, {}).get(tag, tweet.timestamp) < tweet.timestamp
            individual = before(tweet.user)
            social = any(before(v) for v in graph.followees(tweet.user))
            counts[(individual, social)] += 1
    total = sum(counts.values())
    order = [(True, False), (False, True), (True, True), (False, False)]
    return UsageBreakdown(*(counts[key] / total for key in order))


HISTORY_USERS = ["a", "b", "c", "d", "silent", "ghost"]


@st.composite
def history_cases(draw):
    """A corpus with same-second ties and untagged tweets, a follow graph with
    followees that never tweet, a query user (maybe unknown) and a ``now``
    before, inside or after the histories."""
    tweets = draw(
        st.lists(
            st.builds(
                TweetRecord,
                st.sampled_from("abcd"),
                st.lists(st.sampled_from("xyz"), unique=True, max_size=3).map(tuple),
                st.just(()),
                st.integers(1, 6),
            ),
            max_size=20,
        )
    )
    users = st.sampled_from(HISTORY_USERS)
    edges = draw(st.dictionaries(users, st.sets(users, max_size=4), max_size=6))
    graph = SocialGraph({u: vs - {u} for u, vs in edges.items()})
    now = draw(st.one_of(st.integers(0, 8), st.floats(0, 8)))
    return TweetCorpus(tweets), graph, draw(users), now


class TestHashtagTimesIndex:
    """The per-user hashtag-time index reproduces the raw-tweet gathering bit for bit."""

    @given(history_cases(), st.sampled_from([0.5, 1.0, 1.7]))
    def test_scorers_match_gathering_from_raw_tweets(self, case, d):
        corpus, graph, user, now = case
        params = DecayParams(d)
        before = {u: dict(corpus.hashtag_times.get(u, {})) for u in HISTORY_USERS}
        assert all(type(times) is tuple for row in before.values() for times in row.values())
        assert score_bll_i(corpus, user, now, params) == gathered_bll_i(corpus, user, now, params)
        expected_s = gathered_bll_s(corpus, graph, user, now, params)
        assert score_bll_s(corpus, graph, user, now, params) == expected_s
        if any(t.hashtags for t in corpus.tweets):
            assert hashtag_usage_breakdown(corpus, graph) == gathered_breakdown(corpus, graph)
        assert {u: corpus.hashtag_times.get(u, {}) for u in HISTORY_USERS} == before

    def test_rows_ascending_from_tweets_out_of_time_order(self):
        tweets = [
            ("u", ("x", "y"), (), 200),
            ("v", ("x",), (), 50),
            ("u", ("x",), (), 100),
            ("u", (), (), 1),
            ("u", ("y", "x"), (), 100),
            ("u", ("x",), (), 7),
        ]
        gathered = {}  # user -> {hashtag: times}, in file order
        for user, tags, _, time in tweets:
            for tag in tags:
                gathered.setdefault(user, {}).setdefault(tag, []).append(time)
        index = corpus_of(*tweets).hashtag_times
        assert index == {
            u: {tag: tuple(sorted(times)) for tag, times in row.items()} for u, row in gathered.items()
        }
        assert index["u"] == {"x": (7, 100, 100, 200), "y": (100, 200)}


def written_tweets(directory):
    """The planted tweets and follow graph written as TSV files: (tweets, edges) paths."""
    tweets, edges = synthetic_tweets()
    return write_tweets_tsv(directory / "t.tsv", directory / "e.tsv", tweets, edges)


class TestTweetColumns:
    """Tweets are stored as columns; records exist for held-out rows only."""

    def test_corpus_adopts_the_parsed_columns(self, tmp_path):
        tweets, _ = written_tweets(tmp_path)
        parsed = parse_tweets(tweets)
        corpus = TweetCorpus(parsed)
        assert corpus.columns is parsed and vars(corpus) == {"columns": parsed}
        assert corpus.tweets == tuple(parsed) == tuple(TweetCorpus(parsed).columns)

    def test_split_builds_records_for_held_out_rows_only(self, tmp_path):
        tweets, _ = written_tweets(tmp_path)

        def live_records():
            gc.collect()
            return sum(type(o) is TweetRecord for o in gc.get_objects())

        before = live_records()
        split = leave_newest_out(TweetCorpus(parse_tweets(tweets)), 2)  # the corpus is dropped
        assert live_records() - before == len(split.test) > 0

    def test_hashtag_evaluate_builds_records_for_held_out_rows_only(self, tmp_path, monkeypatch):
        tweets, edges = written_tweets(tmp_path)
        held_out = len(leave_newest_out(TweetCorpus(parse_tweets(tweets)), 2).test)
        built = []
        check = TweetRecord.__post_init__
        monkeypatch.setattr(TweetRecord, "__post_init__", lambda t: built.append(check(t)))
        argv = ["hashtag-evaluate", "--tweets", str(tweets), "--edges", str(edges)]
        assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "out")]) == 0
        assert len(built) == held_out > 0

    def test_fresh_hashtag_model_pickles_as_its_columns(self, tmp_path, follow_graph):
        # the state each pool worker is sent under spawn or forkserver
        tweets, _ = written_tweets(tmp_path)
        split = leave_newest_out(TweetCorpus(parse_tweets(tweets)), 2)
        shipped = pickle.dumps(HashtagModel(split.train, follow_graph))
        classes = []

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                classes.append(name)
                return super().find_class(module, name)

        model = Recording(io.BytesIO(shipped)).load()
        assert "TweetRecord" not in classes and "TweetCorpus" in classes
        assert model.corpus.tweets == split.train.tweets
        cases = [
            (HashtagQuery(t.user, t.timestamp, t.terms), frozenset(t.hashtags)) for t in split.test
        ]
        ids = HASHTAG_REGISTRY.ids
        assert _evaluate(HASHTAG_REGISTRY, ids, model, cases, 1, False) == _evaluate(
            HASHTAG_REGISTRY, ids, HashtagModel(split.train, follow_graph), cases, 1, False
        )


def reference_term_index(tweets):
    """:class:`TermIndex` by its definition, over records, as plain lists."""
    hashtags = tuple(sorted({h for t in tweets for h in t.hashtags}))
    terms, doc_freq, postings = {}, [], []  # postings: term id -> {hashtag id: tf}
    for t in tweets:
        for w in t.terms:
            if w not in terms:
                terms[w] = len(terms)
                doc_freq.append(0)
                postings.append({})
        for w in set(t.terms):
            doc_freq[terms[w]] += 1
        for w in t.terms:
            for h in map(hashtags.index, t.hashtags):
                row = postings[terms[w]]
                row[h] = row.get(h, 0) + 1
    offsets, tag_ids, counts = [0], [], []
    for row in postings:
        tag_ids += row
        counts += row.values()
        offsets.append(len(tag_ids))
    return hashtags, list(terms.items()), offsets, tag_ids, counts, doc_freq


EQUIVALENCE_GRAPH = SocialGraph({"ann": {"bob"}, "bob": {"ann", "cy"}, "dee": {"ann"}})


@st.composite
def held_out_only_ids(draw):
    """Tweets in any order, with hashtagless tweets, a user (dee) with only
    hashtagless tweets, and a held-out tweet of ann's whose hashtag and term
    no other tweet holds."""
    tweets = draw(
        st.lists(
            st.builds(
                TweetRecord,
                st.sampled_from(["ann", "bob", "cy"]),
                st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=3).map(tuple),
                st.lists(st.sampled_from(["w", "v", "u"]), max_size=3).map(tuple),
                st.integers(0, 5),
            ),
            max_size=12,
        )
    )
    tweets += [
        TweetRecord("ann", ("x",), ("w",), 6),
        TweetRecord("ann", ("only",), ("lonely", "w"), 7),
        TweetRecord("dee", (), ("v",), 3),
    ]
    return draw(st.permutations(tweets))


def corpus_results(corpus):
    """Everything read from a corpus and its split, as comparable values."""
    train, test = leave_newest_out(corpus, 2)
    index = train.term_index
    return {
        "term_index": (index.hashtags, list(index.terms.items()), *map(list, index[2:])),
        "hashtag_times": [(u, list(row.items())) for u, row in train.hashtag_times.items()],
        "breakdown": hashtag_usage_breakdown(corpus, EQUIVALENCE_GRAPH),
        "train": train.tweets,
        "test": test,
        "sizes": (len(corpus), repr(corpus), len(train), repr(train)),
    }


class TestColumnsEquivalence:
    @given(held_out_only_ids())
    def test_records_and_parsed_file_read_alike(self, tweets):
        with tempfile.TemporaryDirectory() as tmp:
            path, _ = write_tweets_tsv(Path(tmp) / "t.tsv", Path(tmp) / "e.tsv", tweets, [])
            parsed = TweetCorpus(parse_tweets(path))
        built = TweetCorpus(tweets)
        expected = corpus_results(built)
        assert corpus_results(parsed) == expected
        for corpus in (built, parsed):
            assert corpus_results(pickle.loads(pickle.dumps(corpus))) == expected
        train, test = leave_newest_out(parsed, 2)
        assert TweetRecord("ann", ("only",), ("lonely", "w"), 7) in test
        assert expected["term_index"] == reference_term_index(train.tweets)
        hashtags, terms = expected["term_index"][:2]
        assert "only" not in hashtags and "lonely" not in dict(terms)
        assert all("only" not in row for row in train.hashtag_times.values())
        assert train.hashtag_times["dee"] == {}
