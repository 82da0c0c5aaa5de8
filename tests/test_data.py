import random

import pytest

from memrec import (
    Folksonomy,
    ParseError,
    Post,
    SocialGraph,
    TweetRecord,
    chronological_split,
    parse_edges,
    parse_posts,
    parse_tweets,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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


class TestParsePosts:
    def test_single_line(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", "u1\tr1\t100\ta,b\n"))
        assert len(f) == 1
        assert f.tag_count["a"] == 1
        assert f.cooccurrence["a", "b"] == 1

    def test_empty_file(self, tmp_path):
        f = parse_posts(write(tmp_path / "p.tsv", ""))
        assert len(f) == 0
        assert not f.tag_count and not f.user_index and not f.resource_index

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
        assert f1.tag_count == f2.tag_count


class TestFolksonomyIndices:
    def test_rebuild_is_idempotent(self, tmp_path):
        lines = "u1\tr1\t100\ta,b\nu2\tr1\t200\ta\nu1\tr2\t50\tc\n"
        f = parse_posts(write(tmp_path / "p.tsv", lines))
        rebuilt = Folksonomy(f.posts)
        assert rebuilt.posts == f.posts
        assert rebuilt.user_index == f.user_index
        assert rebuilt.resource_index == f.resource_index
        assert rebuilt.cooccurrence == f.cooccurrence
        assert rebuilt.tag_count == f.tag_count

    def test_cooccurrence_symmetric_and_diagonal(self):
        rng = random.Random(7)
        tags = ["a", "b", "c", "d"]
        posts = []
        for i in range(30):
            chosen = tuple(sorted(rng.sample(tags, rng.randint(1, 3))))
            posts.append(Post(f"u{i % 6}", f"r{i}", chosen, rng.randrange(1000)))
        f = Folksonomy(posts)
        for a in tags:
            assert f.cooccurrence[a, a] == f.tag_count[a]
            for b in tags:
                assert f.cooccurrence[a, b] == f.cooccurrence[b, a]

    def test_duplicate_bookmark_rejected(self):
        with pytest.raises(ValueError, match="duplicate bookmark"):
            Folksonomy([Post("u", "r", ("a",), 1), Post("u", "r", ("b",), 2)])

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


class TestParseTweets:
    def test_basic(self, tmp_path):
        records = parse_tweets(write(tmp_path / "t.tsv", "u1\t50\tml,ai\tdeep learning\n"))
        assert records == [TweetRecord("u1", ("ml", "ai"), ("deep", "learning"), 50)]

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
        with pytest.raises(ValueError):
            chronological_split(Folksonomy([]), 1)

    def test_empty_folksonomy(self):
        split = chronological_split(Folksonomy([]), 2)
        assert split.test == ()
        assert len(split.train) == 0
