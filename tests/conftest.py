from collections import Counter

import pytest
from hypothesis import settings

from memrec import Folksonomy, Post, SocialGraph, TweetCorpus, TweetRecord

# Same examples on every run, and no per-example deadline: host speed drifts
# too much for a wall-clock limit to mean anything.
settings.register_profile("memrec", derandomize=True, deadline=None)
settings.load_profile("memrec")


@pytest.fixture
def context_folks():
    """Resource r1 tagged a twice and b once: profile [(a, 2/3), (b, 1/3)]."""
    return Folksonomy(
        [
            Post("u1", "r1", ("a",), 10),
            Post("u2", "r1", ("a", "b"), 20),
        ]
    )


@pytest.fixture
def ac_folks():
    """Fixture with a known base level plus a known associative term.

    Resource r carries context [(a, 2/3), (b, 1/3)]; tag i co-occurs with a
    in 2 of a's 4 posts (strength 0.5) and never with b. User u5 used i at
    now-16 and now-4, so its base level at now=1000 is ln(0.75).
    """
    now = 1000
    folks = Folksonomy(
        [
            Post("u1", "r", ("a",), 100),
            Post("u2", "r", ("a", "b"), 101),
            Post("u3", "x1", ("a", "i"), 102),
            Post("u4", "x2", ("a", "i"), 103),
            Post("u5", "y1", ("i",), now - 16),
            Post("u5", "y2", ("i",), now - 4),
        ]
    )
    return folks, now


@pytest.fixture
def tweet_corpus():
    """Three tweets; only #ml's term profile contains "learning"."""
    return TweetCorpus(
        [
            TweetRecord("u1", ("ml",), ("deep", "learning"), 10),
            TweetRecord("u2", ("ai",), ("robots",), 20),
            TweetRecord("u3", ("ml",), ("learning", "fast"), 30),
        ]
    )


@pytest.fixture
def follow_graph():
    return SocialGraph({"u1": {"u2", "u3"}, "u2": {"u3"}})


@pytest.fixture
def per_pair_priming():
    """Reference associative component, one co-use lookup per (tag, context tag).

    ``per_pair_priming(f)(ctx, tag)`` sums ``weight * cooccurrence(tag, j) /
    tag_count(j)`` over the context in order, from tuple-keyed counts of
    ``f.posts``; an unknown context tag contributes 0.
    """

    def build(f):
        tag_count, cooccur = Counter(), Counter()
        for post in f.posts:
            for a in post.tags:
                tag_count[a] += 1
                for b in post.tags:
                    cooccur[a, b] += 1

        def priming(ctx, tag):
            spread = 0.0
            for j, weight in ctx:
                spread += weight * (cooccur[tag, j] / tag_count[j] if tag_count[j] else 0.0)
            return spread

        return priming

    return build
