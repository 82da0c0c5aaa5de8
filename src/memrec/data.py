"""Domain types and dataset ingestion.

Everything downstream operates on the immutable structures built here: a
:class:`Folksonomy` (bookmark posts, plus indices built on first read), lists
of :class:`TweetRecord`, and a :class:`SocialGraph`.

Input is plain UTF-8 TSV, one record per line, no header:

* posts:  ``user<TAB>resource<TAB>timestamp<TAB>tag1,tag2,...``
* tweets: ``user<TAB>timestamp<TAB>hashtag1,hashtag2,...<TAB>term1 term2 ...``
* edges:  ``follower<TAB>followee``

All ids are normalized to lowercase at ingest. Equal ids read by one parse
call share one string object: each call keeps its own table, freed when the
call returns, so no process-wide table (such as ``sys.intern``'s) grows with
the ids read. Timestamps are integer seconds since epoch, written as ASCII
digits only, in ``[0, 2**63 - 1]``.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .hashtags import TweetCorpus

__all__ = [
    "ParseError",
    "Post",
    "Folksonomy",
    "TagIncidence",
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


_OUT_OF_RANGE = "timestamp out of range [0, 2**63 - 1]"


def _check_timestamp(ts) -> None:
    """The one timestamp rule, for records and queries: seconds in ``[0, 2**63 - 1]``."""
    if not 0 <= ts <= 2**63 - 1:  # int64 range; also rejects NaN and +-inf
        raise ValueError(_OUT_OF_RANGE)


@dataclass(frozen=True, slots=True)
class Post:
    """One bookmark: a user annotating a resource with tags at some time. The post
    rules live here: one tag or more, none twice, and :func:`_check_timestamp`."""

    user: str
    resource: str
    tags: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if not self.tags:
            raise ValueError("a post needs at least one tag")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError(f"duplicate tags in post: {self.tags!r}")
        _check_timestamp(self.timestamp)


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """A (possibly hashtagged) message with its lowercased content tokens. Its
    rules live here: no hashtag twice, and :func:`_check_timestamp`."""

    user: str
    hashtags: tuple[str, ...]
    terms: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if len(set(self.hashtags)) != len(self.hashtags):
            raise ValueError(f"duplicate hashtags in tweet: {self.hashtags!r}")
        _check_timestamp(self.timestamp)


class TagIncidence(NamedTuple):
    """Which tags each user has used, and which users have used each tag."""

    user_tags: dict[str, frozenset[str]]
    tag_users: dict[str, list[str]]


_TIMESTAMP = attrgetter("timestamp")
_USER = attrgetter("user")
_RESOURCE = attrgetter("resource")


def _canonical(posts: list[Post]) -> list[Post]:
    """Sort ``posts`` in place into a folksonomy's canonical order, (timestamp,
    user, resource), and return them. No key tuple is built per post: one sort
    by timestamp, then each run of tied timestamps by resource and, stably, by user."""
    posts.sort(key=_TIMESTAMP)
    start = 0
    for _, run in groupby(posts, _TIMESTAMP):
        tied = list(run)
        end = start + len(tied)
        if len(tied) > 1:
            tied.sort(key=_RESOURCE)
            tied.sort(key=_USER)
            posts[start:end] = tied
        start = end
    return posts


def _grouped(records: Iterable, key) -> dict[str, tuple]:
    """Records by ``key(record)``, each group a tuple in the records' order."""
    groups: dict[str, list] = defaultdict(list)
    for record in records:
        groups[key(record)].append(record)
    return {k: tuple(group) for k, group in groups.items()}


class _CanonicalPosts(tuple):
    """Posts already in canonical order with no (user, resource) pair twice,
    as any subset of a folksonomy's posts is. :class:`Folksonomy` stores
    them as they are, without sorting or checking them again."""

    __slots__ = ()


class Folksonomy:
    """Immutable collection of posts plus the count indices derived from it.

    At most one post per (user, resource) pair is allowed; re-bookmarking
    would make per-(user, tag) occurrence times ambiguous, so it is rejected
    at construction. Posts are kept in a canonical order (timestamp, user,
    resource) so that the same multiset of posts always produces the same
    structure, regardless of input order.

    Construction stores the posts and nothing else. Each index is a cache over
    ``posts``, built on its first read, once, as only some readers read it:
    ``user_index`` / ``resource_index`` (posts per user / resource, oldest
    first), ``cooccurrence`` (tag rows, for associative scoring) and
    ``tag_incidence`` (user -> tags, tag -> users, for collaborative filtering).
    """

    def __init__(self, posts: Iterable[Post] = ()):
        if not isinstance(posts, _CanonicalPosts):
            posts = tuple(_canonical(list(posts)))
            seen: dict[str, set[str]] = defaultdict(set)  # user -> resources
            for post in posts:
                resources = seen[post.user]
                if post.resource in resources:
                    raise ValueError(
                        f"duplicate bookmark for (user={post.user!r}, resource={post.resource!r})"
                    )
                resources.add(post.resource)
        self.posts: tuple[Post, ...] = posts

    @functools.cached_property
    def user_index(self) -> dict[str, tuple[Post, ...]]:
        return _grouped(self.posts, _USER)

    @functools.cached_property
    def resource_index(self) -> dict[str, tuple[Post, ...]]:
        return _grouped(self.posts, _RESOURCE)

    @functools.cached_property
    def cooccurrence(self) -> dict[str, dict[str, int]]:
        """Rows ``{a: {b: posts containing both tags}}``, symmetric, with ``[a][a]``
        the posts containing ``a``."""
        rows: dict[str, dict[str, int]] = defaultdict(dict)
        for post in self.posts:
            for tag in post.tags:
                row = rows[tag]
                for other in post.tags:
                    row[other] = row.get(other, 0) + 1
        return dict(rows)

    @functools.cached_property
    def tag_incidence(self) -> TagIncidence:
        """Binary user-tag incidence, from both sides."""
        user_tags = {
            u: frozenset(t for p in posts for t in p.tags) for u, posts in self.user_index.items()
        }
        tag_users: dict[str, list[str]] = defaultdict(list)
        for user, tags in user_tags.items():
            for tag in tags:
                tag_users[tag].append(user)
        return TagIncidence(user_tags, dict(tag_users))

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
            f"Folksonomy({len(self.posts)} posts, {len({p.user for p in self.posts})} users, "
            f"{len({p.resource for p in self.posts})} resources, "
            f"{len({t for p in self.posts for t in p.tags})} tags)"
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


class SplitSpec(NamedTuple):
    """A leave-newest-out split: the training collection (a :class:`Folksonomy`
    or a ``TweetCorpus``) and the held-out records, by (timestamp, user)."""

    train: Folksonomy | TweetCorpus
    test: tuple


def _split_ids(field: str, ids: dict[str, str]) -> tuple[str, ...]:
    """Split a comma-joined id list: lowercase, drop empties, dedupe in order,
    and take each id's one object from the parse call's table ``ids``."""
    out: list[str] = []
    seen: set[str] = set()
    for piece in field.split(","):
        ident = piece.strip().lower()
        if ident and ident not in seen:
            seen.add(ident)
            out.append(ids.setdefault(ident, ident))
    return tuple(out)


def _parse_timestamp(path, line_no: int, field: str) -> int:
    """ASCII digits ``[0-9]+`` as an int. Digits after a ``-``, or too many for
    ``int``, are out of range, not malformed; any other field is a bad
    timestamp, named in at most 40 characters."""
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:  # more digits than int() converts
            pass
    elif not (field[:1] == "-" and field[1:].isascii() and field[1:].isdigit()):
        shown = field if len(field) <= 40 else field[:40] + "\u2026"
        raise ParseError(path, line_no, f"bad timestamp {shown!r}")
    raise ParseError(path, line_no, _OUT_OF_RANGE)


def _record(path, line_no: int, make, *fields):
    """``make(*fields)``, with a record rule's ValueError as a ParseError on the line."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None


def _fields(path, line_no: int, line: str, n: int) -> list[str]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != n:
        raise ParseError(path, line_no, f"expected {n} tab-separated fields, got {len(parts)}")
    return parts


def read_lines(path) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` pairs of a UTF-8 text file, numbered from 1.

    Raises :class:`ParseError` naming the line when it is not valid UTF-8,
    or when the file cannot be opened or read there.
    """
    line_no = 1  # the line being read
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:  # drops a BOM
            for line in fh:
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's mapping
                        raise ParseError(
                            path, line_no, f"not valid UTF-8 (byte 0x{byte:02x})"
                        ) from None
                yield line_no, line
                line_no += 1
    except OSError as exc:
        raise ParseError(path, line_no, f"cannot read ({exc.strerror or exc})") from None


def _acyclic(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    For bulk loads whose records form no reference cycles: their many new
    containers would trigger full collections that walk the whole heap and
    find nothing to free. Reference counting still frees everything. The
    collector's state is process-wide: it is off for every thread while
    ``fn`` runs, and is switched back on afterwards only if it was on before.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_acyclic
def parse_posts(path) -> Folksonomy:
    """Read a bookmark TSV file into a :class:`Folksonomy`.

    Raises :class:`ParseError` (carrying the line number) for malformed lines,
    duplicate (user, resource) bookmarks, and any rule of :class:`Post` a line breaks.
    """
    posts: list[Post] = []
    seen: dict[str, dict[str, Post]] = defaultdict(dict)  # user -> {resource: first post}
    ids: dict[str, str] = {}  # one object per id, shared across fields and lines
    for line_no, line in read_lines(path):
        user, resource, ts_field, tag_field = _fields(path, line_no, line, 4)
        user = user.strip().lower()
        resource = resource.strip().lower()
        if not user or not resource:
            raise ParseError(path, line_no, "empty user or resource id")
        user = ids.setdefault(user, user)
        resource = ids.setdefault(resource, resource)
        ts = _parse_timestamp(path, line_no, ts_field)
        tags = _split_ids(tag_field, ids)
        if resource in (firsts := seen[user]):
            raise ParseError(  # ahead of the Post rules; one post per earlier line
                path,
                line_no,
                f"duplicate bookmark (user={user!r}, resource={resource!r}), "
                f"first seen on line {posts.index(firsts[resource]) + 1}",
            )
        firsts[resource] = post = _record(path, line_no, Post, user, resource, tags, ts)
        posts.append(post)
    return Folksonomy(_CanonicalPosts(_canonical(posts)))  # no pair twice, as checked


def parse_tweets(path) -> list[TweetRecord]:
    """Read a tweet TSV file; records are returned in file order.

    The hashtag field may be empty; terms are lowercased and arrive
    pre-tokenized (space-joined). The whole term field is lowercased before
    it is split: no whitespace character changes under ``lower()``, none
    lowercases to whitespace, and a final sigma ends its word either way.
    """
    records: list[TweetRecord] = []
    ids: dict[str, str] = {}  # one object per id or term, shared across fields and lines
    for line_no, line in read_lines(path):
        user, ts_field, tag_field, term_field = _fields(path, line_no, line, 4)
        user = user.strip().lower()
        if not user:
            raise ParseError(path, line_no, "empty user id")
        user = ids.setdefault(user, user)
        ts = _parse_timestamp(path, line_no, ts_field)
        hashtags = _split_ids(tag_field, ids)
        words = term_field.lower().split()
        terms = tuple(map(ids.setdefault, words, words))
        records.append(_record(path, line_no, TweetRecord, user, hashtags, terms, ts))
    return records


def parse_edges(path) -> SocialGraph:
    """Read a follower<TAB>followee TSV file; duplicate edges collapse."""
    edges: dict[str, set[str]] = defaultdict(set)
    ids: dict[str, str] = {}  # one object per user id, as follower and as followee
    for line_no, line in read_lines(path):
        follower, followee = _fields(path, line_no, line, 2)
        follower = follower.strip().lower()
        followee = followee.strip().lower()
        if not follower or not followee:
            raise ParseError(path, line_no, "empty user id")
        if follower == followee:
            raise ParseError(path, line_no, f"self-edge for user {follower!r}")
        edges[ids.setdefault(follower, follower)].add(ids.setdefault(followee, followee))
    return SocialGraph(edges)


def _hold_out_newest(records: Sequence, candidates: Iterable[int], min_records: int):
    """Per user with at least ``min_records`` candidates (positions in
    ``records``), hold out the newest candidate; the later position wins a tie.

    Holding out by position keeps the other copy of a record listed twice.
    Returns the other records in order, and the held-out ones by (timestamp, user).
    """
    if min_records < 2:
        raise ValueError(f"the per-user minimum must be >= 2, got {min_records}")
    newest: dict[str, int] = {}
    counts: dict[str, int] = defaultdict(int)
    for i in candidates:
        user, ts = records[i].user, records[i].timestamp
        counts[user] += 1
        if user not in newest or ts >= records[newest[user]].timestamp:
            newest[user] = i
    held = {i for user, i in newest.items() if counts[user] >= min_records}
    train = [r for i, r in enumerate(records) if i not in held]
    test = sorted((records[i] for i in held), key=lambda r: (r.timestamp, r.user))
    return train, tuple(test)


@_acyclic
def chronological_split(f: Folksonomy, min_posts: int) -> SplitSpec:
    """Hold out each qualifying user's newest post; train on everything else.

    A user qualifies with at least ``min_posts`` posts. Posts are in canonical
    order, so of two newest posts at one second the larger resource id goes to test.
    The training posts keep that order, so they are stored as they are.
    """
    train, test = _hold_out_newest(f.posts, range(len(f.posts)), min_posts)
    return SplitSpec(Folksonomy(_CanonicalPosts(train)), test)
