import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synth import resource_profile, synthetic_folksonomy

from memrec import (
    CurveBin,
    Folksonomy,
    Post,
    ReuseCurve,
    ReuseObservations,
    bin_reuse,
    chronological_split,
    compare_decay,
    fit_decay,
    histories,
    reuse_observations,
)
from memrec.analysis import (
    DEFAULT_CONTEXT_EDGES,
    DEFAULT_FREQUENCY_EDGES,
    DEFAULT_RECENCY_EDGES,
    DIMENSIONS,
)

EDGES = {
    "frequency": DEFAULT_FREQUENCY_EDGES,
    "recency": DEFAULT_RECENCY_EDGES,
    "context": DEFAULT_CONTEXT_EDGES,
}
COLUMNS = ("user", "tag", *DIMENSIONS, "reused")


def columns(pairs, dimension="frequency"):
    """A ``ReuseObservations`` with one row per ``(value, reused)`` pair, the
    value on ``dimension`` and the other predictors at 1, 1 and 0.0."""
    observations = ReuseObservations()
    for value, reused in pairs:
        row = {"frequency": 1, "recency": 1, "context": 0.0, dimension: value}
        observations.user.append("u")
        observations.tag.append("t")
        for name in DIMENSIONS:
            getattr(observations, name).append(row[name])
        observations.reused.append(reused)
    return observations


def obs(value, reused, dimension="frequency"):
    """A one-row ``ReuseObservations``."""
    return columns([(value, reused)], dimension)


def reference_curve(dimension, edges, rows):
    """``bin_reuse`` by its definition: each ``(value, reused)`` row in the
    half-open bin ``[lower, upper)`` whose edges bound it, or in the last bin
    at the last edge; empty bins omitted."""
    rows = list(rows)
    bins = []
    for i, (lower, upper) in enumerate(zip(edges, edges[1:])):
        last = i == len(edges) - 2
        hits = [r for v, r in rows if lower <= v < upper or (last and v == upper)]
        if hits:
            bins.append(CurveBin(float(lower), sum(hits) / len(hits), len(hits)))
    return ReuseCurve(dimension, tuple(bins))


@st.composite
def small_folksonomies(draw):
    """Posts of a few users on a few resources, one per (user, resource), at
    times that sometimes tie."""
    posts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["u", "v", "w"]),
                st.sampled_from(["r1", "r2", "r3", "r4", "r5"]),
                st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True).map(tuple),
                st.one_of(st.integers(0, 4), st.integers(0, 2**28)),
            ),
            min_size=3,
            max_size=20,
            unique_by=lambda post: post[:2],
        )
    )
    return Folksonomy([Post(*post) for post in posts])


class TestReuseObservations:
    def test_past_versus_newest_post(self):
        f = Folksonomy(
            [
                Post("u", "b1", ("a", "x"), 10),
                Post("u", "b2", ("a", "b"), 50),
                Post("u", "b3", ("a",), 100),
            ]
        )
        observations = reuse_observations(f, 2)
        assert observations.tag == ["a", "b", "x"]
        a, b, x = range(3)
        assert observations.frequency[a] == 2 and observations.reused[a]
        assert observations.frequency[b] == 1 and not observations.reused[b]
        # "x" last used in the first post: 100 - 10 seconds before the held-out one
        assert observations.recency[x] == 90
        assert observations.recency[a] == 50

    def test_below_threshold_contributes_nothing(self):
        f = Folksonomy([Post("u", "b1", ("a",), 10), Post("u", "b2", ("a",), 20)])
        observations = reuse_observations(f, 3)
        assert len(observations) == 0
        assert all(len(getattr(observations, name)) == 0 for name in COLUMNS)

    def test_context_similarity_from_other_users(self):
        # v tagged the resource the held-out post lands on; u's tag "a"
        # co-occurred with that context tag once out of its two posts
        f = Folksonomy(
            [
                Post("v", "target", ("ctx",), 5),
                Post("u", "b1", ("a", "ctx"), 10),
                Post("u", "b2", ("a",), 20),
                Post("u", "target", ("a",), 30),
            ]
        )
        observations = reuse_observations(f, 2)
        context = dict(zip(observations.tag, observations.context))
        # context profile of "target" in train is [(ctx, 1.0)];
        # S(ctx, a) = cooccur(a, ctx) / count(ctx) = 1/2
        assert context["a"] == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= context["ctx"] <= 1.0

    def test_empty_context_sim_is_zero(self):
        f = Folksonomy(
            [
                Post("u", "b1", ("a",), 10),
                Post("u", "b2", ("a",), 20),
            ]
        )
        assert list(reuse_observations(f, 2).context) == [0.0]

    def test_context_sim_of_one_is_kept_in_its_bin(self):
        # x's tag "b" co-occurs with every context tag of r1, so its context
        # similarity is the sum of r1's weights 18/28 + 9/28 + 1/28, which
        # floating point rounds to one ulp above 1.0 unless it is clamped
        posts = [Post("x", "r2", ("b",), 5), Post("x", "r1", ("b",), 1000)]
        for i in range(18):
            tags = ("a", "b") if i < 9 else ("b", "c") if i == 9 else ("b",)
            posts.append(Post(f"v{i}", "r1", tags, 10 + i))
        observations = reuse_observations(Folksonomy(posts), 2)
        assert list(zip(observations.tag, observations.context)) == [("b", 1.0)]
        context = bin_reuse(observations, "context", DEFAULT_CONTEXT_EDGES)
        frequency = bin_reuse(observations, "frequency", DEFAULT_FREQUENCY_EDGES)
        assert [(b.lower, b.support) for b in context.bins] == [(0.9, 1)]
        assert sum(b.support for b in frequency.bins) == 1

    def test_context_sim_matches_per_pair_formula_bit_for_bit(self, per_pair_priming):
        f = synthetic_folksonomy()
        split = chronological_split(f, 2)
        priming = per_pair_priming(split.train)
        expected = []
        for held_out in split.test:
            ctx = resource_profile(split.train, held_out.resource)
            hist = histories((p.timestamp, p.tags) for p in split.train.posts_by(held_out.user))
            expected += [priming(ctx, tag) for tag in sorted(hist)]
        got = list(reuse_observations(f, 2).context)
        assert got == expected
        assert sum(sim > 0.0 for sim in got) >= 1000

    # the fixture is a stateless builder, so sharing it across examples is safe
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_folksonomies(), st.integers(2, 3))
    def test_columns_equal_their_definition(self, per_pair_priming, f, min_posts):
        observations = reuse_observations(f, min_posts)
        split = chronological_split(f, min_posts)
        priming = per_pair_priming(split.train)
        expected = {name: [] for name in COLUMNS}
        for held_out in split.test:
            past = [p for p in split.train.posts if p.user == held_out.user]
            ctx = resource_profile(split.train, held_out.resource)
            for tag in sorted({tag for p in past for tag in p.tags}):
                used_at = [p.timestamp for p in past if tag in p.tags]
                expected["user"].append(held_out.user)
                expected["tag"].append(tag)
                expected["frequency"].append(len(used_at))
                expected["recency"].append(held_out.timestamp - max(used_at))
                expected["context"].append(min(priming(ctx, tag), 1.0))
                expected["reused"].append(tag in held_out.tags)
        for name, column in expected.items():
            assert len(getattr(observations, name)) == len(observations) == len(column)
            assert list(getattr(observations, name)) == column, name
        for dimension, edges in EDGES.items():
            values = getattr(observations, dimension)
            assert bin_reuse(observations, dimension, edges) == reference_curve(
                dimension, edges, zip(values, observations.reused)
            )


class TestBinReuse:
    def test_all_reused(self):
        observations = columns((v, True) for v in (1, 2, 3, 4))
        curve = bin_reuse(observations, "frequency", [1, 3, 5])
        assert all(b.probability == 1.0 for b in curve.bins)

    def test_mixed_bin(self):
        observations = columns([(1, True), (1, False)])
        curve = bin_reuse(observations, "frequency", [1, 2])
        assert curve.bins == (CurveBin(1.0, 0.5, 2),)

    def test_hand_tallied_curve(self):
        observations = columns(
            [
                (1, False),
                (1, False),
                (1, True),
                (2, True),
                (2, False),
            ]
        )
        curve = bin_reuse(observations, "frequency", [1, 2, 3])
        assert curve.bins == (CurveBin(1.0, 1 / 3, 3), CurveBin(2.0, 0.5, 2))

    def test_out_of_range_dropped_and_empty_bins_omitted(self):
        observations = columns([(10, True), (99, True)])
        curve = bin_reuse(observations, "frequency", [1, 2, 20])
        assert curve.bins == (CurveBin(2.0, 1.0, 1),)

    def test_last_edge_inclusive(self):
        curve = bin_reuse(obs(3, True), "frequency", [1, 2, 3])
        assert curve.bins == (CurveBin(2.0, 1.0, 1),)

    def test_order_invariant(self):
        rng = random.Random(9)
        pairs = [(rng.randint(1, 10), rng.random() < 0.4) for _ in range(200)]
        edges = [1, 3, 5, 8, 11]
        direct = bin_reuse(columns(pairs), "frequency", edges)
        rng.shuffle(pairs)
        assert bin_reuse(columns(pairs), "frequency", edges) == direct

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            bin_reuse(obs(1, True), "frequency", [2, 1])
        with pytest.raises(ValueError):
            bin_reuse(obs(1, True), "frequency", [1])

    def test_nan_edge_rejected(self):
        # NaN compares false both ways, so no pairwise ">=" test catches it
        with pytest.raises(ValueError, match="strictly increasing"):
            bin_reuse(obs(0.5, True, "context"), "context", [0, math.nan, 1.0])

    def test_nan_value_dropped(self):
        observations = columns([(math.nan, True), (0.5, False)], "context")
        curve = bin_reuse(observations, "context", [0, 0.5, 1.0])
        assert curve.bins == (CurveBin(0.5, 0.0, 1),)

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            bin_reuse(obs(1, True), "entropy", [1, 2])


def power_curve(c=1.0, exponent=-0.5, labels=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)):
    bins = tuple(CurveBin(float(t), c * t**exponent, 10) for t in labels)
    return ReuseCurve("recency", bins)


def exponential_curve(c=1.0, rate=0.01, labels=tuple(range(50, 1001, 50))):
    bins = tuple(CurveBin(float(t), c * math.exp(-rate * t), 10) for t in labels)
    return ReuseCurve("recency", bins)


class TestFitDecay:
    def test_exact_power_law(self):
        fit = fit_decay(power_curve(), "power")
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_exact_exponential(self):
        fit = fit_decay(exponential_curve(), "exponential")
        assert fit.slope == pytest.approx(-0.01, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        power_fit = fit_decay(exponential_curve(), "power")
        assert power_fit.r_squared < fit.r_squared

    def test_constant_curve(self):
        curve = ReuseCurve("recency", tuple(CurveBin(float(t), 0.5, 3) for t in (1, 2, 4)))
        fit = fit_decay(curve, "power")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0

    def test_too_few_usable_bins(self):
        curve = ReuseCurve(
            "recency",
            (CurveBin(1.0, 0.5, 1), CurveBin(2.0, 0.25, 1), CurveBin(4.0, 0.0, 1)),
        )
        with pytest.raises(ValueError):
            fit_decay(curve, "power")

    def test_nonpositive_bins_excluded(self):
        bins = power_curve().bins + (CurveBin(2048.0, 0.0, 5),)
        fit = fit_decay(ReuseCurve("recency", bins), "power")
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_decay(power_curve(), "loglinear")


class TestCompareDecay:
    def test_power_data_selects_power(self):
        assert compare_decay(power_curve()).winner == "power"

    def test_exponential_data_selects_exponential(self):
        result = compare_decay(exponential_curve())
        assert result.winner == "exponential"
        assert result.exponential.r_squared > result.power.r_squared

    def test_tie_goes_to_power(self):
        curve = ReuseCurve("recency", tuple(CurveBin(float(t), 0.5, 3) for t in (1, 2, 4)))
        result = compare_decay(curve)
        assert result.power.r_squared == result.exponential.r_squared == 0.0
        assert result.winner == "power"
