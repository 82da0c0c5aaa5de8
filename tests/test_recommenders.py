import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import resource_profile, synthetic_folksonomy, tag_scores

from memrec import (
    ALGORITHMS,
    DecayParams,
    Folksonomy,
    HashtagQuery,
    HybridParams,
    Post,
    base_level,
    chronological_split,
    histories,
    mix_softmax,
    recommend,
    score_cf,
    softmax_norm,
    top_k,
)
from memrec.recommenders import TAG_REGISTRY, TagModel


def mp_ur(train, user, resource, beta=0.5):
    return tag_scores("mp_ur", train, (user, resource, 0), hybrid=HybridParams(beta=beta))


def bll_ac_mp_r(train, user, resource, now, decay=DecayParams(), hybrid=HybridParams()):
    return tag_scores("bll_ac_mp_r", train, (user, resource, now), decay, hybrid)


class TestMostPopular:
    def test_mp_u_counts(self):
        f = Folksonomy(
            [
                Post("u", "r1", ("a",), 1),
                Post("u", "r2", ("a", "b"), 2),
            ]
        )
        assert tag_scores("mp_u", f, ("u", "r1", 3)) == {"a": 2, "b": 1}

    def test_mp_u_unknown_user(self, context_folks):
        assert tag_scores("mp_u", context_folks, ("ghost", "r1", 30)) == {}

    def test_mp_u_single_post_symmetry(self):
        f = Folksonomy([Post("u", "r", ("a", "b"), 1)])
        assert tag_scores("mp_u", f, ("u", "r", 2)) == {"a": 1, "b": 1}

    def test_mp_r_counts(self, context_folks):
        assert tag_scores("mp_r", context_folks, ("u1", "r1", 30)) == {"a": 2, "b": 1}

    def test_mp_r_unseen_resource(self, context_folks):
        assert tag_scores("mp_r", context_folks, ("u1", "nowhere", 30)) == {}

    def test_mp_r_single_post(self):
        f = Folksonomy([Post("u", "r", ("a",), 1)])
        assert tag_scores("mp_r", f, ("u", "r", 2)) == {"a": 1}


class TestSoftmax:
    def test_hand_example(self):
        out = softmax_norm({"a": 0.0, "b": math.log(0.75)})
        assert out["a"] == pytest.approx(0.571429, abs=1e-6)
        assert out["b"] == pytest.approx(0.428571, abs=1e-6)

    def test_singleton(self):
        assert softmax_norm({"a": 5.0}) == {"a": 1.0}

    def test_equal_scores_split_evenly(self):
        for c in (-1000.0, 0.0, 3.7, 1e6):
            out = softmax_norm({"a": c, "b": c})
            assert out == {"a": 0.5, "b": 0.5}

    def test_empty(self):
        assert softmax_norm({}) == {}

    def test_sums_to_one_and_shift_invariant(self):
        rng = random.Random(5)
        for _ in range(100):
            scores = {f"t{i}": rng.uniform(-50, 50) for i in range(rng.randint(1, 12))}
            out = softmax_norm(scores)
            assert math.fsum(out.values()) == pytest.approx(1.0, abs=1e-12)
            shifted = softmax_norm({k: v + 123.456 for k, v in scores.items()})
            for key in scores:
                assert shifted[key] == pytest.approx(out[key], rel=1e-12)


def two_softmax_mix(first, second, weight):
    """``mix_softmax`` as its formula: two softmax maps, weighted and summed per key."""
    if weight == 1.0:
        return softmax_norm(first)
    if weight == 0.0:
        return softmax_norm(second)
    a, b = softmax_norm(first), softmax_norm(second)
    return {
        key: weight * a.get(key, 0.0) + (1.0 - weight) * b.get(key, 0.0)
        for key in a.keys() | b.keys()
    }


# Overlapping keys, and scores far enough apart that some shares underflow to 0.
SCORE_MAPS = st.dictionaries(
    st.sampled_from("abcdefg"), st.floats(-1e4, 1e4, allow_nan=False), max_size=6
)


class TestMixSoftmax:
    @given(
        SCORE_MAPS,
        SCORE_MAPS,
        st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    )
    def test_equals_the_two_softmax_formula_bit_for_bit(self, first, second, weight):
        mixed = mix_softmax(first, second, weight)
        expected = two_softmax_mix(first, second, weight)
        assert mixed == expected
        assert {k: v.hex() for k, v in mixed.items()} == {k: v.hex() for k, v in expected.items()}

    @pytest.mark.parametrize("weight", [-0.1, 1.1, math.nan])
    def test_weight_outside_the_unit_interval_rejected(self, weight):
        with pytest.raises(ValueError, match=rf"^weight must be in \[0, 1\], got {weight}$"):
            mix_softmax({"a": 1.0}, {"b": 1.0}, weight)


class TestMpUr:
    def test_half_empty(self):
        f = Folksonomy([Post("other", "r1", ("a",), 1)])
        assert mp_ur(f, "nobody", "r1", beta=0.5) == {"a": 0.5}

    def test_beta_degenerate(self, context_folks):
        full_user = mp_ur(context_folks, "u2", "r1", beta=1.0)
        assert full_user == softmax_norm(tag_scores("mp_u", context_folks, ("u2", "r1", 0)))
        full_resource = mp_ur(context_folks, "u2", "r1", beta=0.0)
        assert full_resource == softmax_norm(tag_scores("mp_r", context_folks, ("u2", "r1", 0)))

    def test_beta_validated(self, context_folks):
        with pytest.raises(ValueError):
            mp_ur(context_folks, "u1", "r1", beta=1.5)


class TestHybridParams:
    @pytest.mark.parametrize("name", ["beta", "gamma"])
    @pytest.mark.parametrize("weight", [-0.1, 1.5, math.nan])
    def test_mixing_weights_in_unit_interval(self, name, weight):
        for bound in (0.0, 1.0):  # the interval is closed
            HybridParams(**{name: bound})
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
            HybridParams(**{name: weight})

    @pytest.mark.parametrize("neighbors", [0, -1, 2.5])
    def test_cf_neighbors_an_integer_at_least_one(self, neighbors):
        HybridParams(cf_neighbors=1)
        with pytest.raises(ValueError, match=r"cf_neighbors must be an integer >= 1"):
            HybridParams(cf_neighbors=neighbors)

    def test_gamma_appended_after_cf_neighbors(self):
        assert HybridParams(0.3, 5, 0.7) == HybridParams(beta=0.3, cf_neighbors=5, gamma=0.7)


class TestBll:
    def test_two_occurrence_history(self):
        now = 1000
        f = Folksonomy(
            [
                Post("u", "r1", ("a",), now - 16),
                Post("u", "r2", ("a",), now - 4),
            ]
        )
        scores = tag_scores("bll", f, ("u", "r3", now))
        assert scores["a"] == pytest.approx(math.log(0.75), abs=1e-12)

    def test_unit_recency(self):
        f = Folksonomy([Post("u", "r", ("a",), 99)])
        assert tag_scores("bll", f, ("u", "r", 100)) == {"a": 0.0}

    def test_recency_breaks_frequency_ties(self):
        now = 10_000
        f = Folksonomy(
            [
                Post("u", "r1", ("old",), 100),
                Post("u", "r2", ("recent",), 9_000),
            ]
        )
        scores = tag_scores("bll", f, ("u", "r3", now))
        assert scores["recent"] > scores["old"]


class TestBllAc:
    def test_empty_context_equals_bll(self):
        now = 1000
        f = Folksonomy(
            [
                Post("u", "r1", ("a",), now - 16),
                Post("u", "r2", ("a", "b"), now - 4),
            ]
        )
        query = ("u", "unseen", now)
        assert tag_scores("bll_ac", f, query) == tag_scores("bll", f, query)

    def test_pure_associative_candidate(self):
        f = Folksonomy([Post("other", "r", ("a",), 1)])
        assert tag_scores("bll_ac", f, ("newcomer", "r", 100)) == {"a": 1.0}

    def test_base_plus_associative(self, ac_folks):
        folks, now = ac_folks
        scores = tag_scores("bll_ac", folks, ("u5", "r", now))
        assert scores["i"] == pytest.approx(math.log(0.75) + 1 / 3, abs=1e-12)
        assert scores["i"] == pytest.approx(0.045651, abs=1e-6)
        # context tags are candidates even though u5 never used them
        assert set(scores) == {"a", "b", "i"}


class TestBllAcMpR:
    def test_unseen_resource_halves_the_softmax(self):
        now = 1000
        f = Folksonomy([Post("u", "r1", ("a",), now - 4)])
        scores = bll_ac_mp_r(f, "u", "unseen", now)
        expected = softmax_norm(tag_scores("bll_ac", f, ("u", "unseen", now)))
        assert scores == {k: 0.5 * v for k, v in expected.items()}

    def test_cold_start_follows_resource_popularity(self):
        f = Folksonomy(
            [
                Post("u1", "r", ("a",), 1),
                Post("u2", "r", ("a", "b"), 2),
                Post("u3", "r", ("a",), 3),
            ]
        )
        scores = bll_ac_mp_r(f, "newcomer", "r", 100)
        mp = tag_scores("mp_r", f, ("newcomer", "r", 100))
        assert max(scores, key=scores.get) == max(mp, key=mp.get) == "a"

    def test_hand_mixed_values(self, ac_folks):
        folks, now = ac_folks
        beta = 0.5
        left = softmax_norm(tag_scores("bll_ac", folks, ("u5", "r", now)))
        right = softmax_norm(tag_scores("mp_r", folks, ("u5", "r", now)))
        expected = {
            key: beta * left.get(key, 0.0) + (1 - beta) * right.get(key, 0.0)
            for key in set(left) | set(right)
        }
        got = bll_ac_mp_r(folks, "u5", "r", now, DecayParams(), HybridParams(beta=beta))
        assert got == pytest.approx(expected, abs=1e-12)


class TestCf:
    def test_identical_users(self):
        f = Folksonomy(
            [
                Post("u", "r1", ("c",), 1),
                Post("v", "rq", ("c",), 2),
            ]
        )
        assert score_cf(f, "u", "rq") == {"c": 1.0}

    def test_orthogonal_user_gets_nothing(self):
        f = Folksonomy(
            [
                Post("u", "r1", ("a",), 1),
                Post("v", "rq", ("b",), 2),
            ]
        )
        assert score_cf(f, "u", "rq") == {}

    def test_self_excluded(self):
        f = Folksonomy([Post("u", "rq", ("a",), 1)])
        assert score_cf(f, "u", "rq") == {}

    def test_fallback_when_resource_unseen(self):
        f = Folksonomy(
            [
                Post("u", "r1", ("a", "b"), 1),
                Post("v", "r2", ("a", "b"), 2),
            ]
        )
        scores = score_cf(f, "u", "unseen")
        assert scores == {"a": 1.0, "b": 1.0}

    def test_neighborhood_size_limits_voters(self):
        posts = [Post("u", "r0", ("a",), 1)]
        # v1 is most similar (identical), v2 less so; with neighbors=1 only v1 votes
        posts += [Post("v1", "rq", ("a",), 2)]
        posts += [Post("v2", "rq", ("a", "z"), 3)]
        f = Folksonomy(posts)
        only_best = score_cf(f, "u", "rq", neighbors=1)
        assert set(only_best) == {"a"}
        both = score_cf(f, "u", "rq", neighbors=2)
        assert set(both) == {"a", "z"}

    def test_neighbors_validated(self, context_folks):
        with pytest.raises(ValueError):
            score_cf(context_folks, "u1", "r1", neighbors=0)

    def test_neighbors_must_be_an_integer(self, context_folks):
        # a float would fail later, as a slice index of every query
        with pytest.raises(ValueError, match=r"neighbors must be an integer >= 1, got 2.5"):
            score_cf(context_folks, "u1", "r1", neighbors=2.5)


def full_scan_cf(train, user, resource, neighbors):
    """``score_cf`` as a scan over every user, with the same float operations."""
    tag_sets = {}
    for u, tags in zip(train.users, train.tags):
        tag_sets.setdefault(u, set()).update(tags)
    mine = tag_sets.get(user, set())
    if not mine:
        return {}
    sims = []
    for other, theirs in tag_sets.items():
        if other == user:
            continue
        shared = len(mine & theirs)
        if shared:
            sims.append((shared / math.sqrt(len(mine) * len(theirs)), other))
    bookmarkers = {p.user for p in train.posts_on(resource)} - {user}
    if bookmarkers:
        sims = [(s, v) for s, v in sims if v in bookmarkers]
    sims.sort(key=lambda sv: (-sv[0], sv[1]))
    scores = {}
    for sim, other in sims[:neighbors]:
        for tag in sorted(tag_sets[other]):
            scores[tag] = scores.get(tag, 0.0) + sim
    return scores


class TestCfIndexExact:
    def test_held_out_queries_match_full_scan_bit_for_bit(self):
        split = chronological_split(synthetic_folksonomy(), 2)
        train = split.train
        queries = [(p.user, p.resource) for p in split.test]
        # The same users on a resource nobody bookmarked take the other branch.
        queries += [(p.user, "unseen-resource") for p in split.test]
        queries.append(("unseen-user", split.test[0].resource))
        branches = {"bookmarkers": 0, "cold": 0}
        for user, resource in queries:
            if {p.user for p in train.posts_on(resource)} - {user}:
                branches["bookmarkers"] += 1
            else:
                branches["cold"] += 1
            for neighbors in (1, 20):
                got = score_cf(train, user, resource, neighbors)
                expected = full_scan_cf(train, user, resource, neighbors)
                assert got == expected
        assert branches["bookmarkers"] >= 100 and branches["cold"] >= 100


class TestBllAcRowsExact:
    def test_held_out_queries_match_per_pair_formula_bit_for_bit(self, per_pair_priming):
        split = chronological_split(synthetic_folksonomy(), 2)
        train = split.train
        priming = per_pair_priming(train)
        queries = [(p.user, p.resource, p.timestamp) for p in split.test]
        # The same users on a resource nobody bookmarked have an empty context.
        queries += [(p.user, "unseen-resource", p.timestamp) for p in split.test]
        primed = 0
        for user, resource, now in queries:
            hist = histories((p.timestamp, p.tags) for p in train.posts_by(user))
            ctx = resource_profile(train, resource)
            expected = {}
            for tag in sorted(set(hist).union(j for j, _ in ctx)):
                base = base_level(hist[tag], now) if tag in hist else None
                if not ctx:
                    expected[tag] = base if base is not None else 0.0
                else:
                    expected[tag] = (base if base is not None else 0.0) + priming(ctx, tag)
                    primed += priming(ctx, tag) > 0.0
            got = tag_scores("bll_ac", train, (user, resource, now))
            assert got == expected
        assert primed >= 1000


@st.composite
def synth_queries(draw):
    """A small ``tests/synth.py`` training folksonomy and its queries: the
    held-out posts, each user on an unseen resource (an empty context), and
    an unseen user on each held-out resource."""
    community_tags = draw(st.integers(4, 8))
    folks = synthetic_folksonomy(
        seed=draw(st.integers(0, 2**32)),
        n_users=draw(st.integers(2, 8)),
        n_resources=draw(st.integers(6, 20)),  # at least posts_per_user
        posts_per_user=draw(st.integers(2, 6)),
        n_communities=draw(st.integers(1, 3)),
        community_tags=community_tags,
        topic_size=draw(st.integers(1, 4)),
        max_tags=draw(st.integers(2, community_tags // 2)),  # a phase has that many tags
    )
    split = chronological_split(folks, 2)
    queries = [(p.user, p.resource, p.timestamp) for p in split.test]
    queries += [(user, "unseen-resource", now) for user, _, now in queries]
    queries += [("unseen-user", resource, now) for _, resource, now in queries]
    return split.train, queries


class TestOneScorerPerQuery:
    @settings(max_examples=60)
    @given(
        synth_queries(),
        st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_ids_scored_together_equal_each_scored_alone(self, data, ids, beta):
        train, queries = data
        decay, hybrid = DecayParams(0.7), HybridParams(beta=beta, cf_neighbors=3)
        model = TagModel(train, decay, hybrid)
        for query in queries:
            user, resource, _ = query
            alone = {name: TAG_REGISTRY.score((name,), model, query)[name] for name in ALGORITHMS}
            # the public CF, and each hybrid as a mix of its components scored alone
            mixed = dict(
                alone,
                cf=score_cf(train, user, resource, hybrid.cf_neighbors),
                mp_ur=mix_softmax(alone["mp_u"], alone["mp_r"], beta),
                bll_ac_mp_r=mix_softmax(alone["bll_ac"], alone["mp_r"], beta),
            )
            together = TAG_REGISTRY.score(ids, model, query)
            assert list(together) == ids
            for algorithm in ids:
                scores = together[algorithm]
                for other in (alone[algorithm], mixed[algorithm]):
                    assert scores == other
                    assert list(scores) == list(other)
                ranked = recommend(algorithm, train, query, max(1, len(scores)), decay, hybrid)
                assert ranked == top_k(scores, max(1, len(scores)))
                assert len(ranked.items) == len(scores)


class TestRecommend:
    def test_tie_broken_lexicographically(self):
        f = Folksonomy([Post("u", "r1", ("a", "b"), 1), Post("u", "r2", ("c",), 2)])
        # mp_u gives {a: 1, b: 1, c: 1}; ties resolve by tag id
        ranked = recommend("mp_u", f, ("u", "r1", 10), 2)
        assert ranked.ids == ("a", "b")

    def test_k_larger_than_candidates(self, context_folks):
        ranked = recommend("mp_r", context_folks, ("u1", "r1", 100), 50)
        assert ranked.ids == ("a", "b")

    def test_matches_full_sort_prefix(self):
        rng = random.Random(2)
        posts = []
        for i, tag_pool in enumerate([("a", "b"), ("b", "c"), ("d",), ("e", "f"), ("f",)]):
            posts.append(Post("u", f"r{i}", tag_pool, rng.randrange(100)))
        f = Folksonomy(posts)
        scores = tag_scores("mp_u", f, ("u", "rX", 1000))
        oracle = [t for t, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]
        ranked = recommend("mp_u", f, ("u", "rX", 1000), 5)
        assert list(ranked.ids) == oracle[:5]

    def test_unknown_algorithm(self, context_folks):
        with pytest.raises(ValueError) as err:
            recommend("pagerank", context_folks, ("u1", "r1", 10), 5)
        for algorithm in ALGORITHMS:
            assert algorithm in str(err.value)

    def test_k_validated(self, context_folks):
        with pytest.raises(ValueError):
            recommend("mp_u", context_folks, ("u1", "r1", 10), 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, -1, 2**63])
    def test_query_time_obeys_the_timestamp_rule(self, context_folks, algorithm, now):
        with pytest.raises(ValueError) as refused:
            HashtagQuery("u1", now)
        with pytest.raises(ValueError) as err:
            recommend(algorithm, context_folks, ("u1", "r1", now), 5)
        assert str(err.value) == str(refused.value)

    @pytest.mark.parametrize("now", [0, 2**63 - 1])
    def test_query_time_at_either_end_of_the_range(self, now):
        f = Folksonomy([Post("u1", "r1", ("a",), 0), Post("u2", "r1", ("a", "b"), 0)])
        for algorithm in ALGORITHMS:
            assert recommend(algorithm, f, ("u1", "r1", now), 5).ids

    def test_determinism_across_runs(self, ac_folks):
        folks, now = ac_folks
        queries = [("u5", "r", now), ("u1", "x1", now), ("ghost", "r", now)]
        for algorithm in ALGORITHMS:
            results = {
                tuple(recommend(algorithm, folks, q, 5).items) for q in queries for _ in range(3)
            }
            assert len(results) <= len(queries)

    def test_scored_list_ordering_invariant(self, ac_folks):
        folks, now = ac_folks
        for algorithm in ALGORITHMS:
            ranked = recommend(algorithm, folks, ("u5", "r", now), 10)
            keys = [(-score, item) for item, score in ranked.items]
            assert keys == sorted(keys)
            assert len(set(ranked.ids)) == len(ranked.ids)


class TestTopK:
    def test_truncates_and_orders(self):
        ranked = top_k({"a": 0.7, "b": 0.7, "c": 0.1}, 2)
        assert ranked.ids == ("a", "b")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k({"a": 1.0}, 0)

    def test_rejects_non_integer_k(self):
        # checked before the slice, which would raise TypeError for a float
        with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 2.5$"):
            top_k({"a": 1.0}, 2.5)
        f = Folksonomy([Post("u", "r1", ("a",), 1)])
        with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 2.5$"):
            recommend("mp_u", f, ("u", "r2", 10), 2.5)

    @given(
        st.dictionaries(
            st.text("abcdefgh", min_size=1, max_size=3),
            st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5, -2.0])
            | st.floats(allow_nan=False),
            max_size=60,
        ),
        st.integers(1, 12),
    )
    def test_matches_full_sort(self, scores, k):
        # maps of up to 60 items reach both sides of the 8 * k cut-over at
        # k <= 7, and the few sampled values make heavy ties at the cut
        expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert top_k(scores, k).items == tuple(expected)

    @pytest.mark.parametrize("n", [5, 200])
    def test_nan_score_still_fills_the_list(self, n):
        scores = {f"t{i:03d}": float(i % 7) for i in range(n)}
        scores["t002"] = math.nan
        assert len(top_k(scores, 10).items) == min(10, n)


class TestFrequencyProperty:
    def test_equal_recency_higher_frequency_wins(self):
        # f and g share the most recent occurrence; f has one extra use
        now = 1000
        folks = Folksonomy(
            [
                Post("u", "r1", ("f",), now - 100),
                Post("u", "r2", ("f", "g"), now - 10),
            ]
        )
        scores = tag_scores("bll", folks, ("u", "r3", now))
        assert scores["f"] > scores["g"]


def random_small_folksonomy(rng):
    users = ["ua", "ub", "uc"]
    resources = ["ra", "rb", "rc"]
    tags = ["a", "b", "c", "d"]
    pairs = rng.sample([(u, r) for u in users for r in resources], rng.randint(1, 6))
    posts = [
        Post(u, r, tuple(sorted(rng.sample(tags, rng.randint(1, 3)))), rng.randrange(0, 500))
        for u, r in pairs
    ]
    now = max(p.timestamp for p in posts) + rng.randrange(0, 50)
    return Folksonomy(posts), rng.choice(users + ["ghost"]), rng.choice(resources + ["fresh"]), now


class TestSmallInstanceOracles:
    """Each scorer against a direct reimplementation of its defining formula."""

    def test_counting_scorers(self):
        rng = random.Random(41)
        for _ in range(200):
            folks, user, resource, _ = random_small_folksonomy(rng)
            mp_u_oracle = {}
            mp_r_oracle = {}
            for post in folks.posts:
                if post.user == user:
                    for tag in post.tags:
                        mp_u_oracle[tag] = mp_u_oracle.get(tag, 0) + 1
                if post.resource == resource:
                    for tag in post.tags:
                        mp_r_oracle[tag] = mp_r_oracle.get(tag, 0) + 1
            assert tag_scores("mp_u", folks, (user, resource, 0)) == mp_u_oracle
            assert tag_scores("mp_r", folks, (user, resource, 0)) == mp_r_oracle

    def test_bll_scorer(self):
        rng = random.Random(43)
        for _ in range(200):
            folks, user, _, now = random_small_folksonomy(rng)
            oracle = {}
            for post in sorted(folks.posts, key=lambda p: p.timestamp):
                if post.user == user:
                    for tag in post.tags:
                        oracle.setdefault(tag, []).append(post.timestamp)
            expected = {
                tag: math.log(sum(max(now - t, 1.0) ** -0.5 for t in times))
                for tag, times in oracle.items()
            }
            got = tag_scores("bll", folks, (user, "fresh", now))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_mixed_scorers(self):
        rng = random.Random(47)
        for _ in range(200):
            folks, user, resource, now = random_small_folksonomy(rng)
            beta = rng.choice([0.0, 0.25, 0.5, 1.0])
            for got, left, right in [
                (
                    mp_ur(folks, user, resource, beta),
                    tag_scores("mp_u", folks, (user, resource, now)),
                    tag_scores("mp_r", folks, (user, resource, now)),
                ),
                (
                    bll_ac_mp_r(folks, user, resource, now, DecayParams(), HybridParams(beta=beta)),
                    tag_scores("bll_ac", folks, (user, resource, now)),
                    tag_scores("mp_r", folks, (user, resource, now)),
                ),
            ]:
                a, b = softmax_norm(left), softmax_norm(right)
                if beta == 1.0:
                    expected = a
                elif beta == 0.0:
                    expected = b
                else:
                    expected = {
                        key: beta * a.get(key, 0.0) + (1 - beta) * b.get(key, 0.0)
                        for key in set(a) | set(b)
                    }
                assert got == pytest.approx(expected, abs=1e-12)
                assert set(got) == set(expected)

    def test_cf_scorer(self):
        rng = random.Random(53)
        for _ in range(300):
            folks, user, resource, _ = random_small_folksonomy(rng)
            neighbors = rng.randint(1, 3)
            tag_sets = {}
            for post in folks.posts:
                tag_sets.setdefault(post.user, set()).update(post.tags)
            mine = tag_sets.get(user, set())
            expected = {}
            if mine:
                sims = []
                for other, theirs in tag_sets.items():
                    if other == user:
                        continue
                    shared = len(mine & theirs)
                    if shared:
                        sims.append((shared / math.sqrt(len(mine) * len(theirs)), other))
                bookmarkers = {p.user for p in folks.posts if p.resource == resource} - {user}
                if bookmarkers:
                    sims = [(s, v) for s, v in sims if v in bookmarkers]
                sims.sort(key=lambda sv: (-sv[0], sv[1]))
                for sim, other in sims[:neighbors]:
                    for tag in tag_sets[other]:
                        expected[tag] = expected.get(tag, 0.0) + sim
            assert score_cf(folks, user, resource, neighbors) == pytest.approx(expected, abs=1e-12)
            assert set(score_cf(folks, user, resource, neighbors)) == set(expected)
