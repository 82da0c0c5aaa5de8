"""Domain types and dataset ingestion.

Everything downstream operates on the immutable structures built here: a
:class:`Folksonomy` (bookmark posts as columns, plus indices built on first
read), tweets as columns of dense hashtag and term ids (a sequence of
:class:`TweetRecord`), and a :class:`SocialGraph`.

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
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress, count, groupby, islice, repeat
from operator import lt, sub
from typing import TYPE_CHECKING, NamedTuple

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
    """The one timestamp range rule, for records and queries: seconds in
    ``[0, 2**63 - 1]``. A query's ``now`` may be a float."""
    try:
        if 0 <= ts <= 2**63 - 1:  # int64 range; also rejects NaN and +-inf
            return
    except TypeError:  # not a number
        raise ValueError(f"timestamp must be a number, got {ts!r}") from None
    raise ValueError(_OUT_OF_RANGE)


def _check_record_timestamp(ts) -> None:
    """The record timestamp rule, for posts and tweets: :func:`_check_timestamp`,
    and integer seconds (an int, not a bool), as the columns store them."""
    if type(ts) is not int or not 0 <= ts <= 2**63 - 1:  # the range inline: one call per parsed line
        _check_timestamp(ts)  # its error first, for a value it refuses
        raise ValueError(f"timestamp must be an integer, got {ts!r}")


def _check_count(name: str, value, minimum: int) -> None:
    """The one count rule, for every count argument: an integer >= ``minimum``;
    a bool is no count."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_post(tags: tuple[str, ...], timestamp) -> None:
    """The post rules, for :class:`Post` and :func:`parse_posts`: one tag or more,
    none twice, and :func:`_check_record_timestamp`."""
    if not tags:
        raise ValueError("a post needs at least one tag")
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate tags in post: {tags!r}")
    _check_record_timestamp(timestamp)


@dataclass(frozen=True, slots=True)
class Post:
    """One bookmark: a user annotating a resource with tags at some time,
    under the rules of :func:`_check_post`."""

    user: str
    resource: str
    tags: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        _check_post(self.tags, self.timestamp)


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """A (possibly hashtagged) message with its lowercased content tokens. Its
    rules live here: no hashtag twice, and :func:`_check_record_timestamp`."""

    user: str
    hashtags: tuple[str, ...]
    terms: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if len(set(self.hashtags)) != len(self.hashtags):
            raise ValueError(f"duplicate hashtags in tweet: {self.hashtags!r}")
        _check_record_timestamp(self.timestamp)


class TagIncidence(NamedTuple):
    """Which tags each user has used, and which users have used each tag."""

    user_tags: dict[str, frozenset[str]]
    tag_users: dict[str, list[str]]


class _Columns(NamedTuple):
    """Posts as columns, one row per post, in canonical order (timestamp, user,
    resource) with no (user, resource) pair twice, as the parser's rows and any
    subset of a folksonomy's rows are. :class:`Folksonomy` stores them as they
    are, without sorting or checking them again."""

    users: list[str]
    resources: list[str]
    timestamps: array  # typecode "q"
    tags: list[tuple[str, ...]]


def _canonical(users: list, resources: list, timestamps: Sequence[int], tags: list) -> _Columns:
    """The rows of four parallel sequences, one row per post, as columns in
    canonical order; the three lists are sorted in place. No key tuple is built
    per row: one sort by timestamp, then each run of tied timestamps by resource
    and, stably, by user."""
    order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
    start = 0
    for _, run in groupby(order, timestamps.__getitem__):
        tied = list(run)
        end = start + len(tied)
        if len(tied) > 1:
            tied.sort(key=resources.__getitem__)
            tied.sort(key=users.__getitem__)
            order[start:end] = tied
        start = end
    for column in (users, resources, tags):  # one spare column at a time
        column[:] = map(column.__getitem__, order)
    return _Columns(users, resources, array("q", map(timestamps.__getitem__, order)), tags)


def _rows_by(ids: Iterable[str]) -> dict[str, array]:
    """Row positions of each id, ascending, keyed in order of first appearance,
    as ``array('I')``: no folksonomy or tweet corpus held in memory reaches
    2**32 rows. ``Folksonomy`` indexes its posts by user and by resource with
    it, ``TweetCorpus.hashtag_times`` its tweets by user."""
    rows: dict[str, array] = {}
    for i, ident in enumerate(ids):
        positions = rows.get(ident)
        if positions is None:
            rows[ident] = positions = array("I")
        positions.append(i)
    return rows


def _slices(offsets: array, ids: array) -> Iterator[array]:
    """Each row's ids of a flat id column: ``ids[offsets[i]:offsets[i + 1]]``."""
    return map(ids.__getitem__, map(slice, offsets, islice(offsets, 1, None)))


def _select_slices(offsets: array, ids: array, keep: bytearray) -> tuple[array, array]:
    """The offsets and ids of a flat id column's rows where ``keep`` is 1,
    copied one run of kept rows at a time."""
    new_offsets, new_ids = array("I", [0]), array("I")
    start, n = 0, len(keep)
    while start < n:
        end = keep.find(0, start)
        if end < 0:
            end = n
        shift = offsets[start] - new_offsets[-1]  # ids dropped before the run
        new_ids.extend(ids[offsets[start] : offsets[end]])
        new_offsets.extend(map(sub, offsets[start + 1 : end + 1], repeat(shift)))
        start = end + 1
    return new_offsets, new_ids


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class _TweetColumns(Sequence):
    """Tweets as columns, one row per tweet, in the order read; as a sequence,
    row ``i`` reads as a :class:`TweetRecord` built on each access.

    ``users`` and ``timestamps`` (an ``array('q')``) hold one value per row.
    Hashtags and terms are dense ids, flat ``array('I')`` columns with
    offsets: row ``i`` holds ``hashtag_ids[hashtag_offsets[i]:hashtag_offsets[i + 1]]``,
    and its terms likewise. ``hashtags`` and ``terms`` give each id's string,
    numbered in order of first appearance where the columns were built. A
    selection of rows (:meth:`select`) shares these tables, so they may name
    strings that none of its rows holds."""

    users: list[str]
    timestamps: array
    hashtag_offsets: array
    hashtag_ids: array
    term_offsets: array
    term_ids: array
    hashtags: tuple[str, ...]
    terms: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        return tuple(map(self.record, rows)) if isinstance(rows, range) else self.record(rows)

    def __iter__(self) -> Iterator[TweetRecord]:
        return map(self.record, range(len(self)))

    def record(self, i: int) -> TweetRecord:
        """Row ``i``, ``0 <= i < len(self)``, as a new :class:`TweetRecord`."""
        hashtags = self.hashtag_ids[self.hashtag_offsets[i] : self.hashtag_offsets[i + 1]]
        terms = self.term_ids[self.term_offsets[i] : self.term_offsets[i + 1]]
        return TweetRecord(
            self.users[i],
            tuple(map(self.hashtags.__getitem__, hashtags)),
            tuple(map(self.terms.__getitem__, terms)),
            self.timestamps[i],
        )

    def hashtag_rows(self) -> Iterator[array]:
        return _slices(self.hashtag_offsets, self.hashtag_ids)

    def term_rows(self) -> Iterator[array]:
        return _slices(self.term_offsets, self.term_ids)

    def tagged(self) -> Iterator[bool]:
        """Per row, whether it holds a hashtag."""
        return map(lt, self.hashtag_offsets, islice(self.hashtag_offsets, 1, None))

    def select(self, keep: bytearray) -> _TweetColumns:
        """The rows where ``keep`` is 1, in order, over the same id tables."""
        return _TweetColumns(
            list(compress(self.users, keep)),
            array("q", compress(self.timestamps, keep)),
            *_select_slices(self.hashtag_offsets, self.hashtag_ids, keep),
            *_select_slices(self.term_offsets, self.term_ids, keep),
            self.hashtags,
            self.terms,
        )


def _tweet_columns(rows: Iterable[tuple[str, int, Iterable[str], Iterable[str]]]) -> _TweetColumns:
    """``(user, timestamp, hashtags, terms)`` rows as columns, numbering each
    hashtag and each term in order of first appearance."""
    users: list[str] = []
    timestamps = array("q")
    hashtag_offsets, hashtag_ids = array("I", [0]), array("I")
    term_offsets, term_ids = array("I", [0]), array("I")
    hashtag_id: dict[str, int] = defaultdict(count().__next__)  # a new string gets the next id
    term_id: dict[str, int] = defaultdict(count().__next__)
    for user, timestamp, hashtags, terms in rows:
        users.append(user)
        timestamps.append(timestamp)
        hashtag_ids.extend(map(hashtag_id.__getitem__, hashtags))
        hashtag_offsets.append(len(hashtag_ids))
        term_ids.extend(map(term_id.__getitem__, terms))
        term_offsets.append(len(term_ids))
    return _TweetColumns(
        users,
        timestamps,
        hashtag_offsets,
        hashtag_ids,
        term_offsets,
        term_ids,
        tuple(hashtag_id),
        tuple(term_id),
    )


class Folksonomy:
    """Immutable collection of posts plus the count indices derived from it.

    At most one post per (user, resource) pair is allowed; re-bookmarking
    would make per-(user, tag) occurrence times ambiguous, so it is rejected
    at construction. Posts are kept in a canonical order (timestamp, user,
    resource) so that the same multiset of posts always produces the same
    structure, regardless of input order.

    The posts are stored as columns, one row per post: ``users`` and
    ``resources`` (ids), ``timestamps`` (an ``array('q')``) and ``tags`` (each
    post's tag tuple). ``posts``, ``posts_by`` and ``posts_on`` build
    :class:`Post` records from the rows on each call.

    Construction stores the columns and nothing else. Each index is a cache
    over them, built on its first read, once, as only some readers read it:
    ``user_index`` / ``resource_index`` (row positions per user / resource,
    oldest first), ``cooccurrence`` (tag rows, for associative scoring) and
    ``tag_incidence`` (user -> tags, tag -> users, for collaborative filtering).
    """

    def __init__(self, posts: Iterable[Post] = ()):
        if not isinstance(posts, _Columns):
            records = list(posts)
            posts = _canonical(
                [p.user for p in records],
                [p.resource for p in records],
                [p.timestamp for p in records],
                [p.tags for p in records],
            )
            seen: dict[str, set[str]] = defaultdict(set)  # user -> resources
            for user, resource in zip(posts.users, posts.resources):
                resources = seen[user]
                if resource in resources:
                    raise ValueError(
                        f"duplicate bookmark for (user={user!r}, resource={resource!r})"
                    )
                resources.add(resource)
        self.users, self.resources, self.timestamps, self.tags = posts

    @property
    def posts(self) -> tuple[Post, ...]:
        """Every post, in canonical order."""
        return self._posts(range(len(self)))

    def _posts(self, rows: Iterable[int]) -> tuple[Post, ...]:
        users, resources, tags, timestamps = self.users, self.resources, self.tags, self.timestamps
        return tuple(Post(users[i], resources[i], tags[i], timestamps[i]) for i in rows)

    @functools.cached_property
    def user_index(self) -> dict[str, array]:
        return _rows_by(self.users)

    @functools.cached_property
    def resource_index(self) -> dict[str, array]:
        return _rows_by(self.resources)

    @functools.cached_property
    def cooccurrence(self) -> dict[str, dict[str, int]]:
        """Rows ``{a: {b: posts containing both tags}}``, symmetric, with ``[a][a]``
        the posts containing ``a``."""
        rows: dict[str, dict[str, int]] = defaultdict(dict)
        for tags in self.tags:
            for tag in tags:
                row = rows[tag]
                for other in tags:
                    row[other] = row.get(other, 0) + 1
        return dict(rows)

    @functools.cached_property
    def tag_incidence(self) -> TagIncidence:
        """Binary user-tag incidence, from both sides."""
        tags = self.tags
        user_tags = {
            u: frozenset(t for i in rows for t in tags[i]) for u, rows in self.user_index.items()
        }
        tag_users: dict[str, list[str]] = defaultdict(list)
        for user, used in user_tags.items():
            for tag in used:
                tag_users[tag].append(user)
        return TagIncidence(user_tags, dict(tag_users))

    def posts_by(self, user: str) -> tuple[Post, ...]:
        """Posts of one user, oldest first; empty for unknown users."""
        return self._posts(self.user_index.get(user, ()))

    def posts_on(self, resource: str) -> tuple[Post, ...]:
        """Posts on one resource, oldest first; empty for unseen resources."""
        return self._posts(self.resource_index.get(resource, ()))

    def __len__(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:
        return (
            f"Folksonomy({len(self)} posts, {len(set(self.users))} users, "
            f"{len(set(self.resources))} resources, "
            f"{len({t for tags in self.tags for t in tags})} tags)"
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


def parse_posts(path) -> Folksonomy:
    """Read a bookmark TSV file into a :class:`Folksonomy`.

    Raises :class:`ParseError` (carrying the line number) for malformed lines,
    duplicate (user, resource) bookmarks, and any rule of :func:`_check_post` a
    line breaks. Each line becomes one row of the columns; no :class:`Post` is built.
    """
    users: list[str] = []
    resources: list[str] = []
    timestamps = array("q")
    tags: list[tuple[str, ...]] = []
    seen: dict[str, set[str]] = defaultdict(set)  # user -> resources
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
        post_tags = _split_ids(tag_field, ids)
        if resource in (known := seen[user]):
            # ahead of the post rules; each earlier line is one row, row i on line i + 1
            pairs = enumerate(zip(users, resources), 1)
            first = next(n for n, pair in pairs if pair == (user, resource))
            raise ParseError(
                path,
                line_no,
                f"duplicate bookmark (user={user!r}, resource={resource!r}), "
                f"first seen on line {first}",
            )
        _record(path, line_no, _check_post, post_tags, ts)  # ts then fits the array
        known.add(resource)
        users.append(user)
        resources.append(resource)
        timestamps.append(ts)
        tags.append(post_tags)
    del seen, ids  # before the sort's own lists grow
    return Folksonomy(_canonical(users, resources, timestamps, tags))  # no pair twice, as checked


def parse_tweets(path) -> Sequence[TweetRecord]:
    """Read a tweet TSV file into columns, one row per line in file order,
    which read as :class:`TweetRecord` records and which ``TweetCorpus``
    stores as they are. No record is built while reading.

    The hashtag field may be empty; terms are lowercased and arrive
    pre-tokenized (space-joined). The whole term field is lowercased before
    it is split: no whitespace character changes under ``lower()``, none
    lowercases to whitespace, and a final sigma ends its word either way.
    A line that breaks a :class:`TweetRecord` rule raises :class:`ParseError`.
    """
    return _tweet_columns(_tweet_rows(path))


def _tweet_rows(path) -> Iterator[tuple[str, int, tuple[str, ...], Iterator[str]]]:
    """The ``(user, timestamp, hashtags, terms)`` row of each line of a tweet file."""
    ids: dict[str, str] = {}  # one object per id or term, shared across fields and lines
    for line_no, line in read_lines(path):
        user, ts_field, tag_field, term_field = _fields(path, line_no, line, 4)
        user = user.strip().lower()
        if not user:
            raise ParseError(path, line_no, "empty user id")
        ts = _parse_timestamp(path, line_no, ts_field)
        _record(path, line_no, _check_timestamp, ts)  # an int; hashtags deduplicated by _split_ids
        hashtags = _split_ids(tag_field, ids)
        words = term_field.lower().split()
        yield ids.setdefault(user, user), ts, hashtags, map(ids.setdefault, words, words)


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


def _hold_out_newest(candidates: Iterable[tuple[int, str, int]], n: int, min_records: int):
    """Per user with at least ``min_records`` candidates, ``(position, user,
    timestamp)`` triples with positions below ``n``, hold out the newest
    candidate; the later position wins a tie.

    Holding out by position keeps the other copy of a record listed twice.
    Returns a mask of the ``n`` positions, 1 where a record trains, and the
    held-out positions by (timestamp, user).
    """
    _check_count("the per-user minimum", min_records, 2)
    newest: dict[str, tuple[int, int]] = {}  # user -> (timestamp, position)
    counts: dict[str, int] = defaultdict(int)
    for i, user, ts in candidates:
        counts[user] += 1
        if user not in newest or ts >= newest[user][0]:
            newest[user] = (ts, i)
    held = sorted((ts, user, i) for user, (ts, i) in newest.items() if counts[user] >= min_records)
    train = bytearray(b"\x01") * n
    for *_, i in held:
        train[i] = 0
    return train, [i for *_, i in held]


def chronological_split(f: Folksonomy, min_posts: int) -> SplitSpec:
    """Hold out each qualifying user's newest post; train on everything else.

    A user qualifies with at least ``min_posts`` posts. Posts are in canonical
    order, so of two newest posts at one second the larger resource id goes to test.
    The training rows keep that order, so they are stored as they are; only the
    held-out rows become :class:`Post` records.
    """
    n = len(f)
    train, held = _hold_out_newest(zip(range(n), f.users, f.timestamps), n, min_posts)
    rows = _Columns(
        list(compress(f.users, train)),
        list(compress(f.resources, train)),
        array("q", compress(f.timestamps, train)),
        list(compress(f.tags, train)),
    )
    return SplitSpec(Folksonomy(rows), f._posts(held))
