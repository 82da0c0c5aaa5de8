"""Brute-force reference scorers, written from memrec's documented semantics.

They read the generated TSV files themselves and share no code with the
package, so a served top-k list can be checked for any seed, not only for
seeds with recorded digests. They are slow (every query rescans the
training data) and are run on a sample of the served lists.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

D = 0.5  # decay exponent, the CLI default
BETA = 0.5  # first mixing weight, the CLI default
GAMMA = 0.5  # history-vs-content weight, the CLI default
NEIGHBORS = 20  # CF neighborhood, the CLI default


def _split_ids(field: str) -> tuple[str, ...]:
    out: list[str] = []
    for piece in field.split(","):
        ident = piece.strip().lower()
        if ident and ident not in out:
            out.append(ident)
    return tuple(out)


def _base(times, now) -> float:
    return math.log(math.fsum(max(now - t, 1) ** -D for t in times))


def _softmax(scores: dict) -> dict:
    if not scores:
        return {}
    m = max(scores.values())
    exps = {k: math.exp(v - m) for k, v in scores.items()}
    z = math.fsum(exps.values())
    return {k: e / z for k, e in exps.items()}


def _mix(first: dict, second: dict, weight: float) -> dict:
    a, b = _softmax(first), _softmax(second)
    return {k: weight * a.get(k, 0.0) + (1 - weight) * b.get(k, 0.0) for k in set(a) | set(b)}


class PostsOracle:
    """Leave-newest-out split of a posts file and the seven tag scorers."""

    def __init__(self, path):
        posts = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                user, resource, ts, tags = line.rstrip("\n").split("\t")
                posts.append((user.strip().lower(), resource.strip().lower(), int(ts), _split_ids(tags)))
        by_user = defaultdict(list)
        for post in posts:
            by_user[post[0]].append(post)
        held_out = {
            max(ps, key=lambda p: (p[2], p[1])) for ps in by_user.values() if len(ps) >= 2
        }
        self.queries = {(u, r, ts): tags for u, r, ts, tags in held_out}
        self.train = [p for p in posts if p not in held_out]

    def _user_tags(self, user):
        return [(ts, tags) for u, _, ts, tags in self.train if u == user]

    def _resource_tags(self, resource):
        return [tags for _, r, _, tags in self.train if r == resource]

    def mp_u(self, user, resource, now):
        return dict(Counter(t for _, tags in self._user_tags(user) for t in tags))

    def mp_r(self, user, resource, now):
        return dict(Counter(t for tags in self._resource_tags(resource) for t in tags))

    def mp_ur(self, user, resource, now):
        return _mix(self.mp_u(user, resource, now), self.mp_r(user, resource, now), BETA)

    def bll(self, user, resource, now):
        hist = defaultdict(list)
        for ts, tags in self._user_tags(user):
            for t in tags:
                hist[t].append(ts)
        return {t: _base(times, now) for t, times in hist.items()}

    def bll_ac(self, user, resource, now):
        scores = self.bll(user, resource, now)
        counts = Counter(t for tags in self._resource_tags(resource) for t in tags)
        total = sum(counts.values())
        spread = defaultdict(float)
        for j, n_j in counts.items():
            with_j = [tags for _, _, _, tags in self.train if j in tags]
            for i, both in Counter(t for tags in with_j for t in tags).items():
                spread[i] += n_j / total * both / len(with_j)
        return {i: scores.get(i, 0.0) + spread[i] for i in set(scores) | set(counts)}

    def bll_ac_mp_r(self, user, resource, now):
        return _mix(self.bll_ac(user, resource, now), self.mp_r(user, resource, now), BETA)

    def cf(self, user, resource, now):
        tag_sets = defaultdict(set)
        for u, _, _, tags in self.train:
            tag_sets[u].update(tags)
        mine = tag_sets.get(user)
        if not mine:
            return {}
        bookmarkers = {u for u, r, _, _ in self.train if r == resource and u != user}
        sims = []
        for other, theirs in tag_sets.items():
            shared = len(mine & theirs)
            if other != user and shared and (not bookmarkers or other in bookmarkers):
                sims.append((shared / math.sqrt(len(mine) * len(theirs)), other))
        sims.sort(key=lambda sv: (-sv[0], sv[1]))
        scores = defaultdict(float)
        for sim, other in sims[:NEIGHBORS]:
            for t in tag_sets[other]:
                scores[t] += sim
        return dict(scores)

    def score(self, algorithm, query):
        return getattr(self, algorithm)(*query)


class TweetsOracle:
    """Leave-newest-out split of a tweets file and the four hashtag scorers."""

    def __init__(self, tweets_path, edges_path):
        tweets = []
        with open(tweets_path, encoding="utf-8") as fh:
            for line in fh:
                user, ts, tags, terms = line.rstrip("\n").split("\t")
                tweets.append((user.strip().lower(), int(ts), _split_ids(tags),
                               tuple(w.lower() for w in terms.split())))
        self.followees = defaultdict(set)
        with open(edges_path, encoding="utf-8") as fh:
            for line in fh:
                follower, followee = line.rstrip("\n").split("\t")
                self.followees[follower.strip().lower()].add(followee.strip().lower())
        tagged = defaultdict(list)
        for idx, tweet in enumerate(tweets):
            if tweet[2]:
                tagged[tweet[0]].append((tweet[1], idx))
        held_out = {max(keys)[1] for keys in tagged.values() if len(keys) >= 2}
        self.queries = {(tweets[i][0], tweets[i][1], tweets[i][3]): tweets[i][2] for i in held_out}
        self.train = [t for i, t in enumerate(tweets) if i not in held_out]
        self._profiles = None  # hashtag -> term counts, built on first use

    def _history(self, users, now):
        hist = defaultdict(list)
        for u, ts, tags, _ in self.train:
            if u in users and ts <= now:
                for t in tags:
                    hist[t].append(ts)
        return {t: _base(times, now) for t, times in hist.items()}

    def bll_i(self, user, now, terms):
        return self._history({user}, now)

    def bll_s(self, user, now, terms):
        return self._history(self.followees.get(user, set()), now)

    def bll_is(self, user, now, terms):
        return _mix(self.bll_i(user, now, terms), self.bll_s(user, now, terms), BETA)

    def content(self, terms):
        if self._profiles is None:
            self._doc_freq = Counter(w for _, _, _, words in self.train for w in set(words))
            self._profiles = defaultdict(Counter)
            for _, _, tags, words in self.train:
                for tag in tags:
                    self._profiles[tag].update(words)
        n = len(self.train)
        scores = {}
        for tag, profile in self._profiles.items():
            total = math.fsum(
                profile[w] * math.log(1 + n / (1 + self._doc_freq[w])) for w in terms if profile[w]
            )
            if total > 0:
                scores[tag] = total
        return scores

    def bll_isc(self, user, now, terms):
        return _mix(self.bll_is(user, now, terms), self.content(terms), GAMMA)

    def score(self, algorithm, query):
        return getattr(self, algorithm)(*query)


def topk_problem(reference: dict, served, k: int, tol: float = 1e-9) -> str | None:
    """Why a served top-k list disagrees with reference scores, or None.

    The list must have ``min(k, len(reference))`` entries, each with its
    reference score, in non-increasing score order, and no unserved
    candidate may outscore the last served one. Scores agree within a
    relative ``tol``, so lists that differ only by summation order or by
    the order of exact ties pass.
    """
    def close(a, b):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    if len(served) != min(k, len(reference)):
        return f"{len(served)} items served, expected {min(k, len(reference))}"
    for item, score in served:
        if item not in reference:
            return f"{item!r} is not a candidate"
        if not close(score, reference[item]):
            return f"{item!r} scored {score!r}, expected {reference[item]!r}"
    scores = [s for _, s in served]
    if any(b > a and not close(a, b) for a, b in zip(scores, scores[1:])):
        return "scores are not in descending order"
    ids = {item for item, _ in served}
    best_rest = max((s for item, s in reference.items() if item not in ids), default=None)
    if scores and best_rest is not None and best_rest > scores[-1] and not close(best_rest, scores[-1]):
        return f"an unserved candidate scores {best_rest!r} > {scores[-1]!r}"
    return None
