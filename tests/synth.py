"""Synthetic inputs: a folksonomy with a planted recency-driven reuse process,
and a small tweet corpus with planted hashtag reuse (:func:`synthetic_tweets`).

Users belong to communities that share a compact tag vocabulary, and
resources carry topic tags from their community's vocabulary. Each tag slot
of a post mixes three planted behaviors:

* reuse: a previously used tag drawn with probability proportional to
  ``sum_j elapsed_j ** -plant_d`` over its past occurrences, so tag choice
  depends on both how often and how recently a tag was used;
* imitation: one of the resource's topic tags, which other community members
  also use, making resource context informative;
* exploration: a fresh tag from the phase of the user's pool that is
  currently active; interests drift from the early to the late half of the
  pool partway through the history, so a user's most-counted tags are not
  their most recent ones.

Decay-aware scorers can exploit the reuse and drift structure; frequency-only
baselines see only lump counts.
"""

import random

from memrec import Folksonomy, Post, TweetRecord


def synthetic_posts(
    seed=20_240_811,
    n_users=200,
    n_resources=500,
    posts_per_user=30,
    n_communities=10,
    community_tags=15,
    topic_size=4,
    p_imitate=0.25,
    p_reuse=0.55,
    plant_d=2.0,
    gap=(5, 60),
    drift_at=0.6,
    min_tags=2,
    max_tags=3,
):
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

    posts = []
    for ui in range(n_users):
        user = f"u{ui:03d}"
        community = ui % n_communities
        pool = list(community_vocab[community])
        rng.shuffle(pool)
        early, late = pool[: len(pool) // 2], pool[len(pool) // 2 :]
        home = by_community[community]
        resources = rng.sample(home, min(len(home), posts_per_user))
        if len(resources) < posts_per_user:
            outside = [r for r in range(n_resources) if r not in set(resources)]
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
            while len(chosen) < want:
                roll = rng.random()
                if roll < p_imitate:
                    tag = rng.choice(resource_topics[resource])
                elif roll < p_imitate + p_reuse and occurrences:
                    used = sorted(occurrences)
                    weights = [
                        sum((t - ts) ** -plant_d for ts in occurrences[tag]) for tag in used
                    ]
                    tag = rng.choices(used, weights=weights)[0]
                else:
                    tag = rng.choice(phase)
                chosen.add(tag)
            for tag in chosen:
                occurrences.setdefault(tag, []).append(t)
            posts.append(Post(user, f"r{resource:03d}", tuple(sorted(chosen)), t))
    return posts


def synthetic_folksonomy(**kwargs) -> Folksonomy:
    return Folksonomy(synthetic_posts(**kwargs))


def write_posts_tsv(path, posts):
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            fh.write(f"{p.user}\t{p.resource}\t{p.timestamp}\t{','.join(p.tags)}\n")
    return path


def synthetic_tweets(seed=20_240_812, n_users=30):
    """Small tweet corpus and follow graph with planted hashtag reuse.

    Each user writes ten tweets, follows four others and has three
    favourite hashtags out of 24; a hashtag slot reuses one of the author's
    favourites, one of a followee's, or a random hashtag. Each hashtag owns
    three of 60 terms that its tweets repeat. One tweet in ten carries no
    hashtag and one in five no terms, so content-aware scoring applies to
    fewer held-out tweets than history-based scoring.

    Returns (tweets, edges) as TweetRecord objects and (follower, followee)
    pairs.
    """
    rng = random.Random(seed)
    users = [f"u{i:02d}" for i in range(n_users)]
    hashtags = [f"h{i:02d}" for i in range(24)]
    terms = [f"w{i:02d}" for i in range(60)]
    favourites = {u: rng.sample(hashtags, 3) for u in users}
    profiles = {h: rng.sample(terms, 3) for h in hashtags}
    followees = {u: sorted(rng.sample([v for v in users if v != u], 4)) for u in users}
    tweets = []
    for user in users:
        t = rng.randrange(0, 3_600)
        for _ in range(10):
            t += rng.randrange(60, 3_600)
            chosen: set[str] = set()
            if rng.random() >= 0.1:
                for _ in range(rng.randint(1, 2)):
                    roll = rng.random()
                    if roll < 0.5:
                        chosen.add(rng.choice(favourites[user]))
                    elif roll < 0.8:
                        chosen.add(rng.choice(favourites[rng.choice(followees[user])]))
                    else:
                        chosen.add(rng.choice(hashtags))
            words: list[str] = []
            if rng.random() >= 0.2:
                for tag in sorted(chosen):
                    words += rng.sample(profiles[tag], 2)
                words += rng.sample(terms, 2)
            tweets.append(TweetRecord(user, tuple(sorted(chosen)), tuple(words), t))
    edges = [(u, v) for u in users for v in followees[u]]
    return tweets, edges


def write_tweets_tsv(tweets_path, edges_path, tweets, edges):
    with open(tweets_path, "w", encoding="utf-8") as fh:
        for t in tweets:
            fh.write(f"{t.user}\t{t.timestamp}\t{','.join(t.hashtags)}\t{' '.join(t.terms)}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for follower, followee in edges:
            fh.write(f"{follower}\t{followee}\n")
    return tweets_path, edges_path
