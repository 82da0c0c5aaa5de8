import gc
import io
import math
import pickle
import random
import signal
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synth import synthetic_posts, tag_scores, write_posts_tsv, write_tweets_tsv

from memrec import (
    ALGORITHMS,
    Folksonomy,
    HashtagQuery,
    ParseError,
    Post,
    SocialGraph,
    SplitSpec,
    TweetCorpus,
    TweetRecord,
    chronological_split,
    evaluate,
    leave_newest_out,
    parse_edges,
    parse_posts,
    parse_tweets,
    reuse_observations,
)
from memrec.cli import load_config_file, main
from memrec.data import _Columns
from memrec.recommenders import TagModel


def columns(f):
    """A folksonomy's columns by name, as its ``vars`` should hold them."""
    return {name: getattr(f, name) for name in _Columns._fields}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "parse, good, bad",
    [
        (parse_posts, "caf\u00e9\tr1\t100\ta\n", b"u1\tr\xc3\x28\t100\ta\n"),
        (parse_tweets, "caf\u00e9\t100\tml\tdeep\n", b"u1\t100\tml\tdeep \xff\n"),
        (parse_edges, "caf\u00e9\tu2\n", b"u1\tu\xe9\n"),
    ],
)
def test_non_utf8_line_carries_line_number(tmp_path, parse, good, bad):
    path = tmp_path / "input.tsv"
    path.write_bytes(good.encode("utf-8") + bad)
    with pytest.raises(ParseError) as err:
        parse(path)
    assert err.value.line_no == 2
    assert "not valid UTF-8" in err.value.reason


@pytest.mark.parametrize(
    "first_id, text",
    [
        pytest.param(lambda p: parse_posts(p).posts[0].user, "u1\tr1\t100\ta\n", id="posts"),
        pytest.param(lambda p: parse_tweets(p)[0].user, "u1\t100\tml\tdeep\n", id="tweets"),
        pytest.param(lambda p: next(iter(parse_edges(p).edges)), "u1\tu2\n", id="edges"),
        pytest.param(lambda p: load_config_file(str(p))["posts"], "posts = u1\n", id="config"),
    ],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, first_id, text):
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert first_id(path) == "u1"


@pytest.mark.parametrize(
    "parse, line", [(parse_posts, "u1\tr1\t{}\ta\n"), (parse_tweets, "u1\t{}\tml\tdeep\n")]
)
def test_timestamp_range(tmp_path, parse, line):
    assert len(parse(write(tmp_path / "ok.tsv", line.format(2**63 - 1)))) == 1
    with pytest.raises(ParseError, match="timestamp out of range") as err:
        parse(write(tmp_path / "big.tsv", line.format(2**63)))
    assert err.value.line_no == 1


@pytest.mark.parametrize("ts", [-1, 2**63, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda ts: Post("u", "r", ("a",), ts), id="Post"),
        pytest.param(lambda ts: TweetRecord("u", ("a",), (), ts), id="TweetRecord"),
        pytest.param(lambda ts: HashtagQuery("u", ts), id="HashtagQuery"),
    ],
)
def test_records_and_queries_hold_the_timestamp_range(make, ts):
    assert make(0) is not None and make(2**63 - 1) is not None
    with pytest.raises(ValueError, match="timestamp out of range"):
        make(ts)


@pytest.mark.parametrize(
    "ts, reason",
    [
        (1.5, "timestamp must be an integer, got 1.5"),
        (True, "timestamp must be an integer, got True"),
        ("5", "timestamp must be a number, got '5'"),
    ],
    ids=["float", "bool", "str"],
)
@pytest.mark.parametrize(
    "make, collect",
    [
        pytest.param(lambda ts: Post("u", "r", ("a",), ts), Folksonomy, id="Post"),
        pytest.param(lambda ts: TweetRecord("u", ("a",), (), ts), TweetCorpus, id="TweetRecord"),
    ],
)
def test_record_timestamps_are_integers(make, collect, ts, reason):
    # the columns are array('q'): a float would fail there with a bare
    # TypeError, and a bool would be stored as 1
    assert len(collect([make(7)])) == 1
    with pytest.raises(ValueError) as err:
        collect([make(ts)])
    assert str(err.value) == reason


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize(
    "record",
    [
        pytest.param(Post("u", "r", ("a", "b"), 7), id="Post"),
        pytest.param(TweetRecord("u", ("ml",), ("deep", "nets"), 7), id="TweetRecord"),
    ],
)
def test_slotted_records_pickle_round_trip(record, protocol):
    # the process pool of --jobs pickles records; slotted frozen dataclasses
    # had pickling bugs in early 3.10 releases
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert copy == record and type(copy) is type(record)


class TestPost:
    def test_rejects_empty_tags(self):
        with pytest.raises(ValueError):
            Post("u", "r", (), 0)

    def test_rejects_duplicate_tags(self):
        with pytest.raises(ValueError):
            Post("u", "r", ("a", "a"), 0)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            Post("u", "r", ("a",), -1)

    @pytest.mark.parametrize(
        "tags, ts, field, reason",
        [
            ((), 100, " , ", "a post needs at least one tag"),
            (("a",), 2**63, "a", "timestamp out of range [0, 2**63 - 1]"),
        ],
        ids=["no-tag", "timestamp-range"],
    )
    def test_parser_and_record_share_each_rule(self, tmp_path, tags, ts, field, reason):
        with pytest.raises(ValueError) as err:
            Post("u", "r", tags, ts)
        assert str(err.value) == reason
        path = write(tmp_path / "p.tsv", f"u1\tr1\t100\ta\nu\tr\t{ts}\t{field}\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert str(err.value) == f"{path}:2: {reason}"

    def test_parser_folds_repeated_tags_that_a_record_rejects(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate tags in post"):
            Post("u", "r", ("a", "b", "a"), 1)
        f = parse_posts(write(tmp_path / "p.tsv", "u\tr\t1\ta,b,A\n"))
        assert f.posts == (Post("u", "r", ("a", "b"), 1),)


class TestParsePosts:
    def test_single_line(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", "u1\tr1\t100\ta,b\n"))
        assert len(f) == 1
        assert f.cooccurrence["a"]["a"] == 1
        assert f.cooccurrence["a"]["b"] == 1

    def test_empty_file(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", ""))
        assert len(f) == 0
        assert not f.cooccurrence and not f.user_index and not f.resource_index

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = write(tmp_path / "p.tsv", "u1\tr1\t100\ta\nnot a record\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert err.value.line_no == 2
        assert "2" in str(err.value)

    def test_duplicate_pair_names_pair(self, tmp_path):
        path = write(tmp_path / "p.tsv", "u1\tr1\t100\ta\nu1\tr1\t200\tb\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert "u1" in str(err.value) and "r1" in str(err.value)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "lines, first",
        [
            (["u1\tr1\t100\ta", "u1\tr2\t200\ta", "u2\tr1\t300\ta", "u1\tr1\t400\ta"], 1),
            # the first copy on line 3, and a repeat that also breaks a Post rule
            # (no tags): the duplicate is reported first
            (["u2\tr1\t100\ta", "u1\tr2\t200\ta", "u1\tr1\t300\ta", "u1\tr1\t400\t"], 3),
        ],
    )
    def test_duplicate_is_checked_per_user(self, tmp_path, lines, first):
        path = write(tmp_path / "p.tsv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert err.value.line_no == 4
        assert str(err.value) == (
            f"{path}:4: duplicate bookmark (user='u1', resource='r1'), first seen on line {first}"
        )

    def test_folded_ids_repeat_a_bookmark(self, tmp_path):
        path = write(tmp_path / "p.tsv", "u1\tr1\t100\ta\n U1 \tR1\t200\tb\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert err.value.line_no == 2
        assert err.value.reason.endswith("first seen on line 1")

    def test_same_resource_under_another_user_is_no_repeat(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", "u1\tr1\t100\ta\nu2\tr1\t100\tb\n"))
        assert [(p.user, p.resource) for p in f.posts] == [("u1", "r1"), ("u2", "r1")]
        assert Folksonomy(f.posts[::-1]).posts == f.posts

    def test_empty_tag_list(self, tmp_path):
        path = write(tmp_path / "p.tsv", "u1\tr1\t100\t\n")
        with pytest.raises(ParseError) as err:
            parse_posts(path)
        assert "tag" in str(err.value)

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(ParseError):
            parse_posts(write(tmp_path / "p.tsv", "u1\tr1\tsoon\ta\n"))
        with pytest.raises(ParseError):
            parse_posts(write(tmp_path / "q.tsv", "u1\tr1\t-5\ta\n"))

    def test_ids_lowercased(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", "U1\tR1\t100\tA,b\n"))
        post = f.posts[0]
        assert (post.user, post.resource, post.tags) == ("u1", "r1", ("a", "b"))

    def test_order_insensitive(self, tmp_path):
        lines = [
            "u1\tr1\t100\ta,b",
            "u2\tr1\t200\ta",
            "u1\tr2\t50\tc",
            "u3\tr3\t200\tb,c",
        ]
        f1 = parse_posts(write(tmp_path / "a.tsv", "\n".join(lines) + "\n"))
        f2 = parse_posts(write(tmp_path / "b.tsv", "\n".join(reversed(lines)) + "\n"))
        assert f1.posts == f2.posts
        assert f1.user_index == f2.user_index
        assert f1.resource_index == f2.resource_index
        assert f1.cooccurrence == f2.cooccurrence


class TestFolksonomyIndices:
    def test_rebuild_is_idempotent(self, tmp_path):
        lines = "u1\tr1\t100\ta,b\nu2\tr1\t200\ta\nu1\tr2\t50\tc\n"
        f = parse_posts(write(tmp_path / "p.tsv", lines))
        rebuilt = Folksonomy(f.posts)
        assert rebuilt.posts == f.posts
        assert rebuilt.user_index == f.user_index
        assert rebuilt.resource_index == f.resource_index
        assert rebuilt.cooccurrence == f.cooccurrence

    def test_cooccurrence_symmetric_and_diagonal(self):
        rng = random.Random(7)
        tags = ["a", "b", "c", "d"]
        posts = []
        for i in range(30):
            chosen = tuple(sorted(rng.sample(tags, rng.randint(1, 3))))
            posts.append(Post(f"u{i % 6}", f"r{i}", chosen, rng.randrange(1000)))
        f = Folksonomy(posts)
        rows = f.cooccurrence
        for a in tags:
            assert rows[a][a] == sum(a in p.tags for p in posts)
            for b in tags:
                assert rows[a].get(b, 0) == rows[b].get(a, 0)

    def test_duplicate_bookmark_rejected(self):
        with pytest.raises(ValueError, match="duplicate bookmark"):
            Folksonomy([Post("u", "r", ("a",), 1), Post("u", "r", ("b",), 2)])

    def test_canonical_columns_are_kept_not_copied(self):
        canonical = _Columns(["u", "u"], ["r1", "r2"], array("q", [1, 2]), [("a",), ("a",)])
        f = Folksonomy(canonical)
        assert all(getattr(f, name) is column for name, column in canonical._asdict().items())
        posts = (Post("u", "r1", ("a",), 1), Post("u", "r2", ("a",), 2))
        assert f.posts == posts
        assert pickle.loads(pickle.dumps(f)).posts == posts

    def test_a_plain_tuple_is_sorted_and_checked(self):
        posts = (Post("u", "r2", ("a",), 2), Post("u", "r1", ("a",), 1))
        assert Folksonomy(posts).posts == posts[::-1]
        with pytest.raises(ValueError, match="duplicate bookmark"):
            Folksonomy((Post("u", "r", ("a",), 1), Post("u", "r", ("b",), 2)))

    def test_duplicate_bookmark_names_the_first_repeat_in_canonical_order(self):
        posts = [
            Post("u", "r2", ("a",), 5),
            Post("u", "r2", ("b",), 6),
            Post("u", "r1", ("a",), 1),
            Post("u", "r1", ("b",), 3),
        ]
        message = r"^duplicate bookmark for \(user='u', resource='r1'\)$"
        with pytest.raises(ValueError, match=message):
            Folksonomy(posts)

    def test_user_index_sorted_by_time(self):
        f = Folksonomy(
            [
                Post("u", "r2", ("a",), 300),
                Post("u", "r1", ("a",), 100),
                Post("u", "r3", ("a",), 200),
            ]
        )
        assert [p.timestamp for p in f.posts_by("u")] == [100, 200, 300]
        assert f.posts_by("ghost") == ()
        assert f.posts_on("ghost") == ()

    def test_derived_indexes_built_on_first_read_only(self, tmp_path):
        f = parse_posts(write_posts_tsv(tmp_path / "p.tsv", synthetic_posts(n_users=20)))
        split = chronological_split(f, 2)
        held_out = split.test[0]
        tag_scores("mp_u", split.train, (held_out.user, held_out.resource, held_out.timestamp))
        for folks in (f, split.train):
            assert " tags)" in repr(folks)
            assert "cooccurrence" not in vars(folks) and "tag_incidence" not in vars(folks)
        train = split.train
        assert train.cooccurrence is train.cooccurrence
        assert train.tag_incidence is train.tag_incidence
        assert "cooccurrence" not in vars(f) and "tag_incidence" not in vars(f)

    def test_parsed_set_holds_only_its_posts_after_an_evaluation(self, tmp_path):
        f = parse_posts(write_posts_tsv(tmp_path / "p.tsv", synthetic_posts(n_users=20)))
        split = chronological_split(f, 2)
        evaluate(split, ALGORITHMS)
        assert vars(f) == columns(f)
        assert {"user_index", "resource_index", "cooccurrence"} <= vars(split.train).keys()

    def test_repr_counts_from_the_records(self):
        folks = Folksonomy([Post("u", "r1", ("a", "b"), 1), Post("v", "r1", ("a",), 2)])
        assert repr(folks) == "Folksonomy(2 posts, 2 users, 1 resources, 2 tags)"
        assert vars(folks) == columns(folks)
        corpus = TweetCorpus([TweetRecord("u", ("h",), ("t",), 1), TweetRecord("u", (), (), 2)])
        assert repr(corpus) == "TweetCorpus(2 tweets, 1 users, 1 hashtags)"
        assert vars(corpus) == {"columns": corpus.columns}

    def test_fresh_tag_model_pickles_as_its_columns(self, tmp_path):
        # the state each pool worker is sent: a split's model before any query
        f = parse_posts(write_posts_tsv(tmp_path / "p.tsv", synthetic_posts(n_users=20)))
        split = chronological_split(f, 2)
        shipped = pickle.dumps(TagModel(split.train))
        classes = []

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                classes.append(name)
                return super().find_class(module, name)

        model = Recording(io.BytesIO(shipped)).load()
        assert "Post" not in classes and "Folksonomy" in classes
        assert vars(model.train) == columns(split.train)
        assert model.train.posts == split.train.posts
        shipped = evaluate(SplitSpec(model.train, split.test), ALGORITHMS)
        assert shipped == evaluate(split, ALGORITHMS)

    @pytest.mark.parametrize(
        "command", [["evaluate", "--algorithms", ",".join(ALGORITHMS)], ["analyze"]]
    )
    def test_commands_build_records_only_for_held_out_rows(self, tmp_path, monkeypatch, command):
        path = write_posts_tsv(tmp_path / "p.tsv", synthetic_posts(n_users=20))
        held_out = len(chronological_split(parse_posts(path), 2).test)
        built = []
        check = Post.__post_init__
        monkeypatch.setattr(Post, "__post_init__", lambda post: built.append(check(post)))
        argv = [*command, "--posts", str(path), "--jobs", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(built) == held_out > 0


# Lowercase ids, non-ASCII letters included; letters hold no tab, comma or whitespace.
IDS = st.text(st.characters(categories=["Ll"]), min_size=1, max_size=6).filter(
    lambda s: s == s.lower()
)
POSTS = st.lists(
    st.builds(
        Post,
        IDS,
        IDS,
        st.lists(IDS, min_size=1, max_size=4, unique=True).map(tuple),
        st.integers(0, 2**63 - 1),
    ),
    max_size=20,
    unique_by=lambda p: (p.user, p.resource),
)
# Timestamps and users from a few values each, so that sorting compares all three keys.
TIED_POSTS = st.lists(
    st.builds(
        Post,
        st.sampled_from(["a", "b", "\u00e9"]),
        IDS,
        st.lists(IDS, min_size=1, max_size=4, unique=True).map(tuple),
        st.integers(0, 2),
    ),
    max_size=20,
    unique_by=lambda p: (p.user, p.resource),
)
TWEETS = st.lists(
    st.builds(
        TweetRecord,
        IDS,
        st.lists(IDS, max_size=4, unique=True).map(tuple),
        st.lists(IDS, max_size=5).map(tuple),
        st.integers(0, 2**63 - 1),
    ),
    max_size=20,
)


class TestRoundTrip:
    @given(st.one_of(POSTS, TIED_POSTS))
    def test_parse_posts_reads_what_the_writer_wrote(self, posts):
        canonical = tuple(sorted(posts, key=lambda p: (p.timestamp, p.user, p.resource)))
        with tempfile.TemporaryDirectory() as tmp:
            parsed = parse_posts(write_posts_tsv(Path(tmp) / "posts.tsv", posts))
        assert parsed.posts == canonical
        assert Folksonomy(posts).posts == canonical

    @given(TWEETS)
    def test_parse_tweets_reads_what_the_writer_wrote(self, tweets):
        with tempfile.TemporaryDirectory() as tmp:
            path, _ = write_tweets_tsv(Path(tmp) / "tweets.tsv", Path(tmp) / "edges.tsv", tweets, [])
            parsed = parse_tweets(path)
        assert list(parsed) == tweets


class TestParseTweets:
    def test_basic(self, tmp_path):
        records = parse_tweets(write(tmp_path / "t.tsv", "u1\t50\tml,ai\tdeep learning\n"))
        assert list(records) == [TweetRecord("u1", ("ml", "ai"), ("deep", "learning"), 50)]

    def test_empty_hashtags(self, tmp_path):
        records = parse_tweets(write(tmp_path / "t.tsv", "u1\t50\t\thello\n"))
        assert records[0].hashtags == ()
        assert records[0].terms == ("hello",)

    def test_file_order_preserved(self, tmp_path):
        text = "u1\t90\tx\ta\nu1\t10\ty\tb\n"
        records = parse_tweets(write(tmp_path / "t.tsv", text))
        assert [r.timestamp for r in records] == [90, 10]

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_tweets(write(tmp_path / "t.tsv", "u1\t50\tml\n"))
        assert err.value.line_no == 1

    def test_terms_lowercased(self, tmp_path):
        records = parse_tweets(write(tmp_path / "t.tsv", "u1\t50\tML\tDeep LEARNING\n"))
        assert records[0].hashtags == ("ml",)
        assert records[0].terms == ("deep", "learning")


class TestParseEdges:
    def test_duplicate_edges_collapse(self, tmp_path):
        g = parse_edges(write(tmp_path / "e.tsv", "a\tb\na\tb\n"))
        assert g.followees("a") == {"b"}

    def test_self_edge_rejected(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_edges(write(tmp_path / "e.tsv", "a\ta\n"))
        assert err.value.line_no == 1

    def test_fanout_and_default(self, tmp_path):
        g = parse_edges(write(tmp_path / "e.tsv", "a\tb\na\tc\n"))
        assert g.followees("a") == {"b", "c"}
        assert g.followees("b") == frozenset()

    def test_constructor_rejects_self_edge(self):
        with pytest.raises(ValueError):
            SocialGraph({"a": {"a", "b"}})


class TestChronologicalSplit:
    def test_newest_post_held_out(self):
        f = Folksonomy([Post("u", f"r{i}", ("a",), t) for i, t in enumerate((1, 2, 3))])
        split = chronological_split(f, 2)
        assert len(split.test) == 1
        assert split.test[0].timestamp == 3
        assert len(split.train) == 2

    def test_below_threshold_goes_to_train(self):
        f = Folksonomy([Post("u", "r", ("a",), 1)])
        split = chronological_split(f, 2)
        assert split.test == ()
        assert len(split.train) == 1

    def test_mixed_users(self):
        posts = [
            Post("a", "r1", ("x",), 1),
            Post("a", "r2", ("x",), 2),
            Post("a", "r3", ("x",), 3),
            Post("b", "r1", ("y",), 4),
            Post("b", "r2", ("y",), 5),
        ]
        split = chronological_split(Folksonomy(posts), 3)
        assert [(p.user, p.timestamp) for p in split.test] == [("a", 3)]
        assert len(split.train) == 4

    def test_tie_broken_by_resource_ascending(self):
        f = Folksonomy([Post("u", "rb", ("a",), 5), Post("u", "ra", ("a",), 5)])
        split = chronological_split(f, 2)
        assert split.test[0].resource == "rb"

    def test_merge_recovers_all_posts(self):
        rng = random.Random(3)
        posts = []
        for ui in range(5):
            for pi in range(rng.randint(1, 4)):
                posts.append(Post(f"u{ui}", f"r{pi}", ("a",), rng.randrange(100)))
        f = Folksonomy(posts)
        split = chronological_split(f, 2)
        merged = sorted(
            list(split.train.posts) + list(split.test),
            key=lambda p: (p.timestamp, p.user, p.resource),
        )
        assert tuple(merged) == f.posts

    def test_min_posts_validated(self):
        with pytest.raises(ValueError, match="got 1"):
            chronological_split(Folksonomy([]), 1)

    def test_non_integer_min_posts_rejected(self):
        # checked where the minimum is owned: a count >= 2.5 would act as 3
        message = r"^the per-user minimum must be an integer >= 2, got 2.5$"
        f = Folksonomy([Post("u", "r1", ("a",), 1), Post("u", "r2", ("a",), 2)])
        with pytest.raises(ValueError, match=message):
            chronological_split(f, 2.5)
        corpus = TweetCorpus([TweetRecord("u", ("h",), ("t",), 1), TweetRecord("u", ("h",), (), 2)])
        with pytest.raises(ValueError, match=message):
            leave_newest_out(corpus, 2.5)
        with pytest.raises(ValueError, match=message):
            reuse_observations(f, 2.5)

    def test_empty_folksonomy(self):
        split = chronological_split(Folksonomy([]), 2)
        assert split.test == ()
        assert len(split.train) == 0


# Few users, resources, tags and seconds, so that same-second ties, shared
# multi-tag posts and users below the threshold are common.
SPLIT_POSTS = st.lists(
    st.builds(
        Post,
        st.sampled_from("abcd"),
        st.sampled_from(["r1", "r2", "r3", "r4", "r5"]),
        st.lists(st.sampled_from("tuvw"), min_size=1, max_size=3, unique=True).map(tuple),
        st.integers(0, 3),
    ),
    max_size=16,
    unique_by=lambda p: (p.user, p.resource),
)


class TestChronologicalSplitRule:
    """The documented rule, stated by brute force over the canonical posts."""

    @given(SPLIT_POSTS, st.integers(2, 4))
    def test_matches_brute_force(self, posts, min_posts):
        f = Folksonomy(posts)
        held = []
        for user in {p.user for p in f.posts}:
            own = [p for p in f.posts if p.user == user]
            if len(own) >= min_posts:
                held.append(max(own, key=lambda p: (p.timestamp, p.resource)))
        split = chronological_split(f, min_posts)
        assert split.test == tuple(sorted(held, key=lambda p: (p.timestamp, p.user)))
        assert split.train.posts == tuple(p for p in f.posts if p not in held)

    @given(SPLIT_POSTS, st.integers(2, 4))
    def test_derived_train_equals_the_rebuild(self, posts, min_posts):
        split = chronological_split(Folksonomy(posts), min_posts)
        train, rebuilt = split.train, Folksonomy(split.train.posts)
        assert train.posts == rebuilt.posts
        for index in ("user_index", "resource_index"):
            assert getattr(train, index) == getattr(rebuilt, index)
            assert list(getattr(train, index)) == list(getattr(rebuilt, index))  # key order
        assert train.cooccurrence == rebuilt.cooccurrence
        assert train.tag_incidence == rebuilt.tag_incidence

    def test_returns_split_spec(self):
        f = Folksonomy([Post("u", "r1", ("a",), 1), Post("u", "r2", ("a",), 2)])
        split = chronological_split(f, 2)
        train, test = split
        assert isinstance(split, SplitSpec)
        assert (train, test) == (split.train, split.test)
        assert train.posts == f.posts[:1] and test == f.posts[1:]


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestIngestLeavesCollectorState:
    """Posts ingest leaves the collector's state as it found it."""

    @pytest.mark.parametrize(
        "text, fails",
        [(None, True), ("u1\tr1\t100\ta\n", False), ("u1\tr1\tsoon\ta\n", True)],
        ids=["unreadable", "ok", "bad-line"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_state_is_restored(self, tmp_path, restore_gc, text, fails, enabled):
        path = tmp_path / "p.tsv"
        if text is not None:
            write(path, text)
        (gc.enable if enabled else gc.disable)()
        if fails:
            with pytest.raises(ParseError):
                parse_posts(path)
        else:
            chronological_split(parse_posts(path), 2)
        assert gc.isenabled() is enabled

    def test_split_errors_restore_state(self, restore_gc):
        gc.enable()
        with pytest.raises(ValueError):
            chronological_split(Folksonomy(), 1)
        assert gc.isenabled()

    def test_ingest_makes_no_reference_cycles(self, tmp_path, restore_gc):
        """Ingest leaves nothing for the collector: what it builds is freed
        by reference counting alone."""
        path = write_posts_tsv(tmp_path / "p.tsv", synthetic_posts(n_users=40))
        gc.collect()
        gc.disable()
        f = parse_posts(path)
        split = chronological_split(f, 2)
        assert split.test and len(split.train) + len(split.test) == len(f)
        assert gc.collect() == 0
        del f, split
        assert gc.collect() == 0


def assert_shared(strings):
    """Equal strings among ``strings`` are one object."""
    first: dict[str, str] = {}
    for s in strings:
        assert first.setdefault(s, s) is s, s


def post_ids(posts):
    return [s for p in posts for s in (p.user, p.resource, *p.tags)]


def tweet_ids(tweets):
    return [s for t in tweets for s in (t.user, *t.hashtags, *t.terms)]


class TestIdsAreShared:
    """Equal ids read by one parse call are one string object, across fields
    and lines, in the splits derived from the records, and in a pickled copy.
    Ids here are longer than one character: CPython shares those anyway."""

    def test_posts(self, tmp_path):
        text = "Ann\tDoc1\t100\tbob,ml\nbob\tdoc1\t200\tANN, ML\nann\tbob\t300\tml\n"
        f = parse_posts(write(tmp_path / "p.tsv", text))
        first, second, third = f.posts  # canonical order: by timestamp
        assert first.user is second.tags[0] is third.user  # a user id that is also a tag
        assert first.tags[0] is second.user is third.resource  # a tag that is also a user and a resource
        assert first.resource is second.resource
        assert first.tags[1] is second.tags[1] is third.tags[0]
        split = chronological_split(f, 2)
        every = post_ids(f.posts) + post_ids(split.train.posts) + post_ids(split.test)
        every += [*split.train.user_index, *split.train.resource_index]
        assert_shared(every)
        assert_shared(post_ids(pickle.loads(pickle.dumps(split.train)).posts))

    def test_tweets(self, tmp_path):
        text = "Ann\t100\tml,Deep\tdeep ML nets\nANN\t200\tml\tnets\nbob\t300\tann\tDEEP ann\n"
        tweets = parse_tweets(write(tmp_path / "t.tsv", text))
        first, second, third = tweets
        assert first.hashtags[1] is first.terms[0] is third.terms[0]  # a hashtag that is also a term
        assert first.hashtags[0] is first.terms[1] is second.hashtags[0]
        assert first.user is second.user is third.hashtags[0] is third.terms[1]
        train = leave_newest_out(TweetCorpus(tweets), 2).train
        assert_shared(tweet_ids(tweets) + tweet_ids(train.tweets))
        assert_shared(tweet_ids(pickle.loads(pickle.dumps(train)).tweets))

    def test_edges(self, tmp_path):
        graph = parse_edges(write(tmp_path / "e.tsv", "Ann\tbob\nBOB\tann\nann\tcarl\ncarl\tBob\n"))
        every = [*graph.edges] + [v for followees in graph.edges.values() for v in followees]
        assert sorted(set(every)) == ["ann", "bob", "carl"]
        assert_shared(every)


class TestNoProcessWideTable:
    def test_live_memory_stays_flat_over_fresh_ids(self, tmp_path):
        """The id tables go with their parse calls. A process-wide table would
        keep every id ever read: under Python 3.12, ``sys.intern``'d strings are
        immortal, and these rounds would grow live memory by megabytes."""
        n = 1000
        files = []
        for r in range(5):  # each round reads ids that no other round reads
            x = f"x{r}_"
            posts = "".join(f"{x}u{i}\t{x}r{i}\t{i}\t{x}a{i},{x}b{i}\n" for i in range(n))
            tweets = "".join(f"{x}u{i}\t{i}\t{x}h{i}\t{x}w{i} {x}v{i}\n" for i in range(n))
            edges = "".join(f"{x}u{i}\t{x}f{i}\n" for i in range(n))
            files.append(
                [(parse, write(tmp_path / f"{parse.__name__}{r}.tsv", text))
                 for parse, text in ((parse_posts, posts), (parse_tweets, tweets), (parse_edges, edges))]
            )

        def live_after(round_files):
            for parse, path in round_files:
                assert parse(path)  # read, then dropped
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            base = live_after(files[0])
            grown = max(live_after(round_files) for round_files in files[1:]) - base
        finally:
            tracemalloc.stop()
        # each round reads 10,000 fresh ids, well over 0.5 MB if a table kept them
        assert grown < 64 * 1024


#: Every character that ``str.split()`` splits on.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


class TestTermFieldLowering:
    """``parse_tweets`` lowercases the whole term field, then splits it. That
    equals lowering each term: ``str.lower`` maps each character on its own,
    except a capital sigma, which depends on the letters around it."""

    def test_lowering_moves_no_whitespace(self):
        changed = [hex(ord(c)) for c in WHITESPACE if c.lower() != c]
        to_space = [
            hex(cp)
            for cp in range(sys.maxunicode + 1)
            if not chr(cp).isspace() and any(x.isspace() for x in chr(cp).lower())
        ]
        assert changed == [] and to_space == []

    @pytest.mark.parametrize("context", ["A\u03a3{}B", "A{}\u03a3B", "\u0391\u03a3{0}\u03a3{0}\u03a3", "\u03a3{0}{0}A\u03a3"])
    def test_final_sigma_next_to_whitespace(self, context):
        assert len(WHITESPACE) > 20
        for ws in WHITESPACE:
            field = context.format(ws)
            assert field.lower().split() == [w.lower() for w in field.split()], repr(field)


class TestSyntheticShapes:
    """``tests/synth.py`` rejects a shape its draw loops cannot finish before
    drawing anything; an alarm turns a hang into a failure."""

    @pytest.mark.parametrize(
        "shape, name",
        [
            (dict(n_communities=1, community_tags=4, topic_size=1, min_tags=6, max_tags=6), "max_tags"),
            (dict(n_resources=5, posts_per_user=6), "posts_per_user"),
        ],
    )
    def test_unbuildable_shape_raises_at_once(self, shape, name):
        def hang(signum, frame):
            raise TimeoutError(f"synthetic_posts({shape}) still running after 2 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(ValueError, match=name):
                synthetic_posts(**shape)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_boundary_shape_builds(self):
        shape = dict(n_communities=1, community_tags=4, topic_size=1, min_tags=2, max_tags=2)
        posts = synthetic_posts(n_users=3, n_resources=6, posts_per_user=6, **shape)
        assert len(posts) == 18 and all(len(p.tags) == 2 for p in posts)
