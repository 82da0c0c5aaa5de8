"""Seeded synthetic inputs for the benchmark, written as memrec TSV files.

The benchmark owns these generators so that its inputs depend only on the
seed and the shape given here, never on the test suite. The program under
test sees only the files written by :func:`write_posts` and
:func:`write_tweets`.

* Posts follow the planted process of the test suite's ``synth`` module
  (recency-weighted reuse, imitation of resource topics, drifting
  exploration); see :func:`synthetic_posts`. Weights for the reuse draw are
  computed once per post instead of once per tag slot, which yields the same
  floats and the same random stream.
* Tweets and follow edges come from :func:`synthetic_tweets`, which plants
  own reuse, followee reuse and per-hashtag term profiles, and leaves some
  tweets without hashtags.
"""

from __future__ import annotations

import itertools
import random


def _recency_weights(occurrences: dict[str, list[int]], now: int, d: float):
    used = sorted(occurrences)
    return used, [sum(max(now - ts, 1) ** -d for ts in occurrences[tag]) for tag in used]


def synthetic_posts(
    seed: int,
    n_users: int = 200,
    n_resources: int = 500,
    posts_per_user: int = 30,
    n_communities: int = 10,
    community_tags: int = 15,
    topic_size: int = 4,
    p_imitate: float = 0.25,
    p_reuse: float = 0.55,
    plant_d: float = 2.0,
    gap: tuple[int, int] = (5, 60),
    drift_at: float = 0.6,
    min_tags: int = 2,
    max_tags: int = 3,
) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Planted bookmark process; returns (user, resource, timestamp, tags) rows.

    The vocabulary has ``n_communities * community_tags`` tags, each user
    makes ``posts_per_user`` posts (the history length) and each post
    carries ``min_tags..max_tags`` tags. Users belong to communities that
    share a tag vocabulary; every tag slot either imitates one of the
    resource's topic tags, reuses a past tag with probability proportional
    to ``sum_j elapsed_j ** -plant_d``, or explores the active half of the
    user's pool, which drifts at ``drift_at`` of the history.
    """
    rng = random.Random(seed)
    vocabulary = [f"t{i:03d}" for i in range(n_communities * community_tags)]
    community_vocab = [
        vocabulary[c * community_tags : (c + 1) * community_tags]
        for c in range(n_communities)
    ]
    resource_community = [rng.randrange(n_communities) for _ in range(n_resources)]
    resource_topics = [
        rng.sample(community_vocab[resource_community[r]], topic_size)
        for r in range(n_resources)
    ]
    by_community = [
        [r for r in range(n_resources) if resource_community[r] == c]
        for c in range(n_communities)
    ]

    rows = []
    for ui in range(n_users):
        user = f"u{ui:03d}"
        community = ui % n_communities
        pool = list(community_vocab[community])
        rng.shuffle(pool)
        early, late = pool[: len(pool) // 2], pool[len(pool) // 2 :]
        home = by_community[community]
        resources = rng.sample(home, min(len(home), posts_per_user))
        if len(resources) < posts_per_user:
            taken = set(resources)
            outside = [r for r in range(n_resources) if r not in taken]
            resources += rng.sample(outside, posts_per_user - len(resources))
        rng.shuffle(resources)

        t = rng.randrange(0, 3_600)
        occurrences: dict[str, list[int]] = {}
        for pi in range(posts_per_user):
            resource = resources[pi]
            t += rng.randrange(*gap)
            phase = early if pi < posts_per_user * drift_at else late
            want = rng.randint(min_tags, max_tags)
            chosen: set[str] = set()
            weighted = None
            while len(chosen) < want:
                roll = rng.random()
                if roll < p_imitate:
                    tag = rng.choice(resource_topics[resource])
                elif roll < p_imitate + p_reuse and occurrences:
                    if weighted is None:
                        weighted = _recency_weights(occurrences, t, plant_d)
                    tag = rng.choices(weighted[0], weights=weighted[1])[0]
                else:
                    tag = rng.choice(phase)
                chosen.add(tag)
            for tag in chosen:
                occurrences.setdefault(tag, []).append(t)
            rows.append((user, f"r{resource:03d}", t, tuple(sorted(chosen))))
    return rows


def synthetic_tweets(
    seed: int,
    n_users: int = 400,
    tweets_per_user: int = 40,
    n_followees: int = 30,
    n_hashtags: int = 1500,
    n_terms: int = 5000,
    n_communities: int = 20,
    p_untagged: float = 0.15,
    p_own: float = 0.35,
    p_social: float = 0.3,
    plant_d: float = 1.0,
    p_follow_home: float = 0.7,
    profile_size: int = 8,
    terms_per_hashtag: int = 2,
    background_terms: tuple[int, int] = (3, 6),
    max_hashtags: int = 3,
    gap: tuple[int, int] = (60, 7_200),
) -> tuple[list[tuple[str, int, tuple[str, ...], tuple[str, ...]]], list[tuple[str, str]]]:
    """Planted tweet process; returns (tweets, edges).

    Tweets are (user, timestamp, hashtags, terms) rows; edges are
    (follower, followee) pairs, ``n_followees`` per user, mostly inside the
    user's community. Tweets are generated in global time order. A fraction
    ``p_untagged`` carries no hashtag; every hashtag slot of the others
    reuses one of the author's own earlier hashtags (``p_own``), one of a
    followee's earlier hashtags (``p_social``), both drawn by power-law
    recency weight, or else a fresh hashtag from the author's community.
    Each hashtag owns ``profile_size`` characteristic terms, of which a tweet
    repeats ``terms_per_hashtag`` per hashtag, on top of Zipf-distributed
    background terms.
    """
    rng = random.Random(seed)
    users = [f"u{i:03d}" for i in range(n_users)]
    hashtags = [f"h{i:04d}" for i in range(n_hashtags)]
    terms = [f"w{i:04d}" for i in range(n_terms)]
    per_community = n_hashtags // n_communities
    community_tags = [
        hashtags[c * per_community : (c + 1) * per_community] for c in range(n_communities)
    ]
    profiles = {tag: rng.sample(terms, profile_size) for tag in hashtags}
    background_cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n_terms)))

    edges = []
    followees: list[list[int]] = []
    for ui in range(n_users):
        home = [v for v in range(ui % n_communities, n_users, n_communities) if v != ui]
        chosen: set[int] = set()
        while len(chosen) < min(n_followees, n_users - 1):
            v = rng.choice(home) if rng.random() < p_follow_home else rng.randrange(n_users)
            if v != ui:
                chosen.add(v)
        followees.append(sorted(chosen))
        edges.extend((users[ui], users[v]) for v in followees[-1])

    schedule = []
    for ui in range(n_users):
        t = rng.randrange(0, 86_400)
        for _ in range(tweets_per_user):
            t += rng.randrange(*gap)
            schedule.append((t, ui))
    schedule.sort()

    history: list[dict[str, list[int]]] = [{} for _ in range(n_users)]
    tweets = []
    for t, ui in schedule:
        chosen_tags: list[str] = []
        if rng.random() >= p_untagged:
            want = rng.randint(1, max_hashtags)
            for _ in range(4 * want):
                if len(chosen_tags) == want:
                    break
                roll = rng.random()
                source = None
                if roll < p_own:
                    source = history[ui]
                elif roll < p_own + p_social:
                    active = [v for v in followees[ui] if history[v]]
                    if active:
                        source = history[rng.choice(active)]
                if source:
                    used, weights = _recency_weights(source, t, plant_d)
                    tag = rng.choices(used, weights=weights)[0]
                else:
                    tag = rng.choice(community_tags[ui % n_communities])
                if tag not in chosen_tags:
                    chosen_tags.append(tag)
        words = [w for tag in chosen_tags for w in rng.sample(profiles[tag], terms_per_hashtag)]
        words += rng.choices(terms, cum_weights=background_cum, k=rng.randint(*background_terms))
        for tag in chosen_tags:
            history[ui].setdefault(tag, []).append(t)
        tweets.append((users[ui], t, tuple(chosen_tags), tuple(words)))
    return tweets, edges


def write_posts(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, resource, ts, tags in rows:
            fh.write(f"{user}\t{resource}\t{ts}\t{','.join(tags)}\n")


def write_tweets(tweets_path, edges_path, tweets, edges) -> None:
    with open(tweets_path, "w", encoding="utf-8", newline="\n") as fh:
        for user, ts, tags, words in tweets:
            fh.write(f"{user}\t{ts}\t{','.join(tags)}\t{' '.join(words)}\n")
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for follower, followee in edges:
            fh.write(f"{follower}\t{followee}\n")
