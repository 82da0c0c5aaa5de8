import math
import random

import pytest

from hypothesis import given
from hypothesis import strategies as st

from synth import resource_profile

from memrec import (
    DecayParams,
    Folksonomy,
    Post,
    associations,
    base_level,
    base_levels,
    context_profile,
    histories,
)


class TestDecayParams:
    def test_defaults(self):
        p = DecayParams()
        assert p.d == 0.5

    def test_validation(self):
        for d in (0.0, -1.0, 1e301, math.inf, math.nan):
            with pytest.raises(ValueError):
                DecayParams(d=d)


EVENTS = st.lists(
    st.tuples(
        st.integers(0, 10**9),
        st.lists(st.sampled_from("abcdef"), unique=True, max_size=4).map(tuple),
    ),
    max_size=30,
)


class TestHistories:
    @given(EVENTS, st.integers(0, 10**9 + 10), st.floats(0.05, 3.0))
    def test_match_direct_formula(self, events, now, d):
        kept = [(t, items) for t, items in events if t <= now]
        hist = histories(kept)
        assert set(hist) == {item for _, items in kept for item in items}
        for item, times in hist.items():
            assert times == sorted(t for t, items in kept if item in items)
        levels = base_levels(hist, now, DecayParams(d))
        assert set(levels) == set(hist)
        for item, level in levels.items():
            direct = math.log(math.fsum(max(now - t, 1) ** -d for t in hist[item]))
            assert level == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(EVENTS)
    def test_no_reference_time_keeps_every_event(self, events):
        hist = histories(events)
        assert sum(map(len, hist.values())) == sum(len(items) for _, items in events)


class TestBaseLevel:
    def test_unit_recency(self):
        assert base_level([99], now=100) == 0.0

    @given(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=20),
        st.integers(0, 10**9),
        st.integers(0, 10**9),
        st.floats(0.05, 3.0),
    )
    def test_appending_a_newer_occurrence_never_lowers_it(self, times, gap, lag, d):
        hist = sorted(times)
        newest = hist[-1] + gap  # no earlier than any existing occurrence
        now = newest + lag
        params = DecayParams(d)
        assert base_level(hist + [newest], now, params) >= base_level(hist, now, params)

    def test_two_occurrences(self):
        # 4 s and 16 s ago: ln(4**-0.5 + 16**-0.5) = ln(0.75)
        got = base_level([84, 96], now=100)
        assert got == pytest.approx(math.log(0.75), abs=1e-12)
        assert got == pytest.approx(-0.287682, abs=1e-6)

    def test_older_history_scores_lower(self):
        recent = base_level([0], now=100)
        old = base_level([0], now=10_000)
        assert recent == pytest.approx(-2.302585, abs=1e-6)
        assert old == pytest.approx(-4.605170, abs=1e-6)
        assert old < recent

    def test_empty_history_is_an_error(self):
        with pytest.raises(ValueError):
            base_level([], now=10)

    def test_future_occurrence_is_an_error(self):
        with pytest.raises(ValueError):
            base_level([11], now=10)

    def test_clamp_at_reference_time(self):
        # occurrence in the same second as `now` counts as one second elapsed
        assert base_level([100], now=100) == 0.0
        assert math.isfinite(base_level([100, 100, 100], now=100))

    def test_adding_an_occurrence_increases_activation(self):
        rng = random.Random(11)
        for _ in range(200):
            times = sorted(rng.randrange(0, 10**6) for _ in range(rng.randint(1, 20)))
            now = 10**6 + rng.randrange(0, 10**4)
            extra = rng.randrange(0, now)
            before = base_level(times, now)
            after = base_level(times + [extra], now)
            assert after > before

    def test_moving_an_occurrence_closer_increases_activation(self):
        rng = random.Random(12)
        for _ in range(200):
            now = 10**6
            times = sorted(rng.randrange(0, now - 4) for _ in range(rng.randint(1, 20)))
            i = rng.randrange(len(times))
            moved = list(times)
            moved[i] = times[i] + (now - 1 - times[i]) // 2 + 1  # strictly closer
            assert base_level(moved, now) > base_level(times, now)

    # d stops at 1e300: from about 1e307 on, -d * ln(elapsed) itself is
    # below the float range, so no finite result exists.
    @given(
        st.lists(st.integers(0, 10**12), min_size=1, max_size=20),
        st.integers(0, 10**12),
        st.floats(0, 1e300, exclude_min=True),
    )
    def test_finite_and_bounded_for_finite_decay(self, times, ahead, d):
        now = max(times) + ahead
        got = base_level(times, now, DecayParams(d))
        assert math.isfinite(got)
        assert got <= math.log(len(times))
        direct = 0.0
        for t in times:
            direct += max(now - t, 1) ** -d
        if direct > 0:
            assert got == math.log(direct)

    def test_underflowing_sum_uses_log_domain(self):
        # 1e6 ** -1000 underflows to 0; ln(2 * 1e6 ** -1000) = ln 2 - 1000 ln 1e6
        got = base_level([0, 0], now=10**6, params=DecayParams(d=1000))
        assert got == pytest.approx(math.log(2) - 1000 * math.log(10**6), rel=1e-12)

    def test_larger_decay_scores_lower(self):
        for elapsed in (2, 10, 1000):
            shallow = base_level([0], now=elapsed, params=DecayParams(d=0.3))
            steep = base_level([0], now=elapsed, params=DecayParams(d=0.9))
            assert steep < shallow


class TestContextProfile:
    def test_weights_a_histories_map_in_tag_order(self):
        assert context_profile({"b": [5], "a": [1, 3]}) == [("a", 2 / 3), ("b", 1 / 3)]
        assert context_profile({}) == []

    def test_relative_frequencies(self, context_folks):
        assert resource_profile(context_folks, "r1") == [("a", 2 / 3), ("b", 1 / 3)]

    def test_unseen_resource(self, context_folks):
        assert resource_profile(context_folks, "nowhere") == []

    def test_single_post_symmetry(self):
        f = Folksonomy([Post("u", "r", ("a", "b"), 1)])
        assert resource_profile(f, "r") == [("a", 0.5), ("b", 0.5)]

    def test_weights_sum_to_one(self, ac_folks):
        folks, _ = ac_folks
        for resource in folks.resource_index:
            weights = [w for _, w in resource_profile(folks, resource)]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def strength(f, j, i):
    """Strength of association of ``i`` given ``j``: ``j`` alone as the context."""
    return associations(f, [(j, 1.0)], [i])[i]


class TestAssociationStrength:
    def test_conditional_couse(self):
        f = Folksonomy(
            [
                Post("u1", "r1", ("j", "i"), 1),
                Post("u2", "r2", ("j", "i"), 2),
                Post("u3", "r3", ("j",), 3),
                Post("u4", "r4", ("j",), 4),
            ]
        )
        assert strength(f, "j", "i") == 0.5

    def test_self_association_is_one(self, context_folks):
        assert strength(context_folks, "a", "a") == 1.0

    def test_never_coused(self):
        f = Folksonomy([Post("u1", "r1", ("a",), 1), Post("u2", "r2", ("b",), 2)])
        assert strength(f, "a", "b") == 0.0

    def test_unknown_tag(self, context_folks):
        assert strength(context_folks, "ghost", "a") == 0.0

    def test_row_sums_match_counts(self, ac_folks):
        folks, _ = ac_folks
        rows = folks.cooccurrence()
        for j, row in rows.items():
            total = sum(strength(folks, j, i) for i in row)
            expected = sum(row.values()) / row[j]
            assert total == pytest.approx(expected, abs=1e-12)
            for i in rows:
                assert 0.0 <= strength(folks, j, i) <= 1.0


class TestActivation:
    def test_empty_context_is_identity(self, context_folks):
        base = math.log(0.75)
        assert associations(context_folks, [], ["a", "b"]) == {"a": 0.0, "b": 0.0}
        assert base + associations(context_folks, [], ["a"])["a"] == base

    def test_pure_associative(self):
        f = Folksonomy([Post("u1", "r", ("a",), 1)])
        # self-association is 1, so the weight passes straight through
        assert associations(f, [("a", 1.0)], ["a", "b"]) == {"a": 1.0, "b": 0.0}

    def test_weighted_mix(self, ac_folks):
        folks, _ = ac_folks
        ctx = resource_profile(folks, "r")
        assert ctx == [("a", 2 / 3), ("b", 1 / 3)]
        assert strength(folks, "a", "i") == 0.5
        assert strength(folks, "b", "i") == 0.0
        assert 0.0 + associations(folks, ctx, ["i"])["i"] == pytest.approx(1 / 3, abs=1e-12)

    def test_missing_base_counts_as_zero(self, ac_folks):
        folks, _ = ac_folks
        ctx = resource_profile(folks, "r")
        assert associations(folks, ctx, ["i"])["i"] == pytest.approx(1 / 3, abs=1e-12)


def brute_force_priming(f, ctx, candidates):
    """Per candidate, ``weight * c(i, j) / c(j)`` summed over the context in
    order, with both counts taken from the posts themselves."""
    primed = {}
    for i in candidates:
        total = 0.0
        for j, weight in ctx:
            with_j = [post for post in f.posts if j in post.tags]
            if with_j:
                total += weight * (sum(i in post.tags for post in with_j) / len(with_j))
        primed[i] = total
    return primed


class TestAssociations:
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True), max_size=12
        ),
        st.lists(st.tuples(st.sampled_from("abcdefgh"), st.floats(0.0, 1.0)), max_size=6),
        st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8),
    )
    def test_each_candidate_equals_the_brute_force_sum(self, tag_lists, ctx, candidates):
        # g and h occur in no post: as context tags they have no row, and as
        # candidates they are in no row
        f = Folksonomy(Post(f"u{n}", "r", tuple(tags), n) for n, tags in enumerate(tag_lists))
        got = associations(f, ctx, candidates)
        expected = brute_force_priming(f, ctx, candidates)
        assert got == expected
        assert list(got) == candidates

    def test_candidate_in_no_row_reads_zero(self, ac_folks):
        folks, _ = ac_folks
        ctx = resource_profile(folks, "r")
        assert associations(folks, ctx, ["ghost", "i"]) == {"ghost": 0.0, "i": 1 / 3}

    def test_empty_context_primes_nothing(self, ac_folks):
        folks, _ = ac_folks
        tags = sorted(folks.cooccurrence())
        assert associations(folks, [], tags) == dict.fromkeys(tags, 0.0)
