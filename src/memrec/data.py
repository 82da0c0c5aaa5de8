"""Domain types and dataset ingestion.

Everything downstream operates on the immutable structures built here: a
:class:`Folksonomy` (bookmark posts plus the count indices every scorer
needs), lists of :class:`TweetRecord`, and a :class:`SocialGraph`.

Input is plain UTF-8 TSV, one record per line, no header:

* posts:  ``user<TAB>resource<TAB>timestamp<TAB>tag1,tag2,...``
* tweets: ``user<TAB>timestamp<TAB>hashtag1,hashtag2,...<TAB>term1 term2 ...``
* edges:  ``follower<TAB>followee``

All ids are normalized to lowercase at ingest. Timestamps are integer
seconds since epoch.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "ParseError",
    "Post",
    "Folksonomy",
    "TweetRecord",
    "SocialGraph",
    "SplitSpec",
    "parse_posts",
    "parse_tweets",
    "parse_edges",
    "chronological_split",
]


class ParseError(ValueError):
    """An input line that violates the expected TSV format."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class Post:
    """One bookmark: a user annotating a resource with tags at some time."""

    user: str
    resource: str
    tags: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if not self.tags:
            raise ValueError("a post needs at least one tag")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError(f"duplicate tags in post: {self.tags!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


@dataclass(frozen=True)
class TweetRecord:
    """A (possibly hashtagged) message with its lowercased content tokens."""

    user: str
    hashtags: tuple[str, ...]
    terms: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if len(set(self.hashtags)) != len(self.hashtags):
            raise ValueError(f"duplicate hashtags in tweet: {self.hashtags!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


class Folksonomy:
    """Immutable collection of posts plus the count indices derived from it.

    At most one post per (user, resource) pair is allowed; re-bookmarking
    would make per-(user, tag) occurrence times ambiguous, so it is rejected
    at construction. Posts are kept in a canonical order (timestamp, user,
    resource) so that the same multiset of posts always produces the same
    structure, regardless of input order.

    Indices are pure caches over ``posts``:

    * ``user_index`` / ``resource_index``: posts per user / resource, oldest
      first.
    * ``cooccurrence[(a, b)]``: posts containing both tags; symmetric, and
      ``cooccurrence[(a, a)] == tag_count[a]``.
    * ``tag_count[tag]``: posts containing the tag.
    """

    __slots__ = (
        "posts",
        "user_index",
        "resource_index",
        "cooccurrence",
        "tag_count",
    )

    def __init__(self, posts: Iterable[Post] = ()):
        ordered = sorted(posts, key=lambda p: (p.timestamp, p.user, p.resource))
        seen: set[tuple[str, str]] = set()
        for post in ordered:
            pair = (post.user, post.resource)
            if pair in seen:
                raise ValueError(f"duplicate bookmark for (user={pair[0]!r}, resource={pair[1]!r})")
            seen.add(pair)

        user_index: dict[str, list[Post]] = defaultdict(list)
        resource_index: dict[str, list[Post]] = defaultdict(list)
        cooccurrence: Counter = Counter()
        tag_count: Counter = Counter()
        for post in ordered:
            user_index[post.user].append(post)
            resource_index[post.resource].append(post)
            for tag in post.tags:
                tag_count[tag] += 1
                for other in post.tags:
                    cooccurrence[tag, other] += 1

        self.posts: tuple[Post, ...] = tuple(ordered)
        self.user_index = {u: tuple(ps) for u, ps in user_index.items()}
        self.resource_index = {r: tuple(ps) for r, ps in resource_index.items()}
        self.cooccurrence = cooccurrence
        self.tag_count = tag_count

    def posts_by(self, user: str) -> tuple[Post, ...]:
        """Posts of one user, oldest first; empty for unknown users."""
        return self.user_index.get(user, ())

    def posts_on(self, resource: str) -> tuple[Post, ...]:
        """Posts on one resource, oldest first; empty for unseen resources."""
        return self.resource_index.get(resource, ())

    def __len__(self) -> int:
        return len(self.posts)

    def __repr__(self) -> str:
        return (
            f"Folksonomy({len(self.posts)} posts, {len(self.user_index)} users, "
            f"{len(self.resource_index)} resources, {len(self.tag_count)} tags)"
        )


class SocialGraph:
    """Directed follower -> followees map; unknown users follow nobody."""

    __slots__ = ("edges",)

    def __init__(self, edges: Mapping[str, Iterable[str]] = ()):
        cleaned: dict[str, frozenset[str]] = {}
        for follower, followees in dict(edges).items():
            fset = frozenset(followees)
            if follower in fset:
                raise ValueError(f"self-edge for user {follower!r}")
            if fset:
                cleaned[follower] = fset
        self.edges = cleaned

    def followees(self, user: str) -> frozenset[str]:
        return self.edges.get(user, frozenset())

    def __repr__(self) -> str:
        n_edges = sum(len(f) for f in self.edges.values())
        return f"SocialGraph({len(self.edges)} followers, {n_edges} edges)"


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: training folksonomy plus held-out newest posts."""

    train: Folksonomy
    test: tuple[Post, ...]


def _split_ids(field: str) -> tuple[str, ...]:
    """Split a comma-joined id list: lowercase, drop empties, dedupe in order."""
    out: list[str] = []
    seen: set[str] = set()
    for piece in field.split(","):
        ident = piece.strip().lower()
        if ident and ident not in seen:
            seen.add(ident)
            out.append(ident)
    return tuple(out)


def _parse_timestamp(path, line_no: int, field: str) -> int:
    try:
        ts = int(field)
    except ValueError:
        raise ParseError(path, line_no, f"bad timestamp {field!r}") from None
    if ts < 0:
        raise ParseError(path, line_no, f"negative timestamp {ts}")
    return ts


def _fields(path, line_no: int, line: str, n: int) -> list[str]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != n:
        raise ParseError(path, line_no, f"expected {n} tab-separated fields, got {len(parts)}")
    return parts


def parse_posts(path) -> Folksonomy:
    """Read a bookmark TSV file into a fully indexed :class:`Folksonomy`.

    Raises :class:`ParseError` (carrying the line number) for malformed
    lines, empty tag lists, and duplicate (user, resource) bookmarks.
    """
    posts: list[Post] = []
    seen: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            user, resource, ts_field, tag_field = _fields(path, line_no, line, 4)
            user = user.strip().lower()
            resource = resource.strip().lower()
            if not user or not resource:
                raise ParseError(path, line_no, "empty user or resource id")
            ts = _parse_timestamp(path, line_no, ts_field)
            tags = _split_ids(tag_field)
            if not tags:
                raise ParseError(path, line_no, "empty tag list")
            pair = (user, resource)
            if pair in seen:
                raise ParseError(
                    path,
                    line_no,
                    f"duplicate bookmark (user={user!r}, resource={resource!r}), "
                    f"first seen on line {seen[pair]}",
                )
            seen[pair] = line_no
            posts.append(Post(user, resource, tags, ts))
    return Folksonomy(posts)


def parse_tweets(path) -> list[TweetRecord]:
    """Read a tweet TSV file; records are returned in file order.

    The hashtag field may be empty; terms are lowercased and arrive
    pre-tokenized (space-joined).
    """
    records: list[TweetRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            user, ts_field, tag_field, term_field = _fields(path, line_no, line, 4)
            user = user.strip().lower()
            if not user:
                raise ParseError(path, line_no, "empty user id")
            ts = _parse_timestamp(path, line_no, ts_field)
            hashtags = _split_ids(tag_field)
            terms = tuple(w.lower() for w in term_field.split())
            records.append(TweetRecord(user, hashtags, terms, ts))
    return records


def parse_edges(path) -> SocialGraph:
    """Read a follower<TAB>followee TSV file; duplicate edges collapse."""
    edges: dict[str, set[str]] = defaultdict(set)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            follower, followee = _fields(path, line_no, line, 2)
            follower = follower.strip().lower()
            followee = followee.strip().lower()
            if not follower or not followee:
                raise ParseError(path, line_no, "empty user id")
            if follower == followee:
                raise ParseError(path, line_no, f"self-edge for user {follower!r}")
            edges[follower].add(followee)
    return SocialGraph(edges)


def chronological_split(f: Folksonomy, min_posts: int) -> SplitSpec:
    """Hold out each qualifying user's newest post; train on everything else.

    A user qualifies with at least ``min_posts`` posts; the newest post
    (ties broken by resource id, ascending) goes to test, the rest go to
    train. Users below the threshold contribute all their posts to train.
    """
    if min_posts < 2:
        raise ValueError("min_posts must be >= 2")
    train_posts: list[Post] = []
    test_posts: list[Post] = []
    for posts in f.user_index.values():
        if len(posts) >= min_posts:
            newest = max(posts, key=lambda p: (p.timestamp, p.resource))
            test_posts.append(newest)
            train_posts.extend(p for p in posts if p is not newest)
        else:
            train_posts.extend(posts)
    test_posts.sort(key=lambda p: (p.timestamp, p.user, p.resource))
    return SplitSpec(Folksonomy(train_posts), tuple(test_posts))
