import math
import random

import pytest

from synth import resource_profile, synthetic_folksonomy

from memrec import (
    CurveBin,
    Folksonomy,
    Post,
    ReuseCurve,
    ReuseObservation,
    bin_reuse,
    chronological_split,
    compare_decay,
    fit_decay,
    histories,
    reuse_observations,
)
from memrec.analysis import DEFAULT_CONTEXT_EDGES, DEFAULT_FREQUENCY_EDGES, DEFAULT_RECENCY_EDGES

EDGES = {
    "frequency": DEFAULT_FREQUENCY_EDGES,
    "recency": DEFAULT_RECENCY_EDGES,
    "context": DEFAULT_CONTEXT_EDGES,
}


def obs(value_by, reused, dimension="frequency"):
    kwargs = {"frequency": 1, "recency": 1, "context_sim": 0.0}
    key = {"frequency": "frequency", "recency": "recency", "context": "context_sim"}[dimension]
    kwargs[key] = value_by
    return ReuseObservation("u", "t", kwargs["frequency"], kwargs["recency"], kwargs["context_sim"], reused)


class TestReuseObservations:
    def test_past_versus_newest_post(self):
        f = Folksonomy(
            [
                Post("u", "b1", ("a", "x"), 10),
                Post("u", "b2", ("a", "b"), 50),
                Post("u", "b3", ("a",), 100),
            ]
        )
        rows = {o.tag: o for o in reuse_observations(f, 2)}
        assert set(rows) == {"a", "b", "x"}
        assert rows["a"].frequency == 2 and rows["a"].reused
        assert rows["b"].frequency == 1 and not rows["b"].reused
        # "x" last used in the first post: 100 - 10 seconds before the held-out one
        assert rows["x"].recency == 90
        assert rows["a"].recency == 50

    def test_below_threshold_contributes_nothing(self):
        f = Folksonomy([Post("u", "b1", ("a",), 10), Post("u", "b2", ("a",), 20)])
        assert list(reuse_observations(f, 3)) == []

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
        rows = {o.tag: o for o in reuse_observations(f, 2)}
        # context profile of "target" in train is [(ctx, 1.0)];
        # S(ctx, a) = cooccur(a, ctx) / count(ctx) = 1/2
        assert rows["a"].context_sim == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= rows["ctx"].context_sim <= 1.0

    def test_empty_context_sim_is_zero(self):
        f = Folksonomy(
            [
                Post("u", "b1", ("a",), 10),
                Post("u", "b2", ("a",), 20),
            ]
        )
        rows = reuse_observations(f, 2)
        assert rows[0].context_sim == 0.0

    def test_context_sim_of_one_is_kept_in_its_bin(self):
        # x's tag "b" co-occurs with every context tag of r1, so its context
        # similarity is the sum of r1's weights 18/28 + 9/28 + 1/28, which
        # floating point rounds to one ulp above 1.0 unless it is clamped
        posts = [Post("x", "r2", ("b",), 5), Post("x", "r1", ("b",), 1000)]
        for i in range(18):
            tags = ("a", "b") if i < 9 else ("b", "c") if i == 9 else ("b",)
            posts.append(Post(f"v{i}", "r1", tags, 10 + i))
        observations = reuse_observations(Folksonomy(posts), 2)
        assert [(o.tag, o.context_sim) for o in observations] == [("b", 1.0)]
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
        got = [o.context_sim for o in reuse_observations(f, 2)]
        assert got == expected
        assert sum(sim > 0.0 for sim in got) >= 1000

    def test_columns_read_as_their_records(self):
        observations = reuse_observations(synthetic_folksonomy(), 2)
        records = list(observations)
        assert len(observations) == len(records) > 1000
        assert all(type(o) is ReuseObservation and type(o.reused) is bool for o in records)
        assert [observations[i] for i in (0, 1, -1)] == [records[0], records[1], records[-1]]
        assert observations.index(records[1]) == 1
        with pytest.raises(IndexError):
            observations[len(records)]
        with pytest.raises(TypeError):
            observations[:2]
        for dimension, edges in EDGES.items():
            assert bin_reuse(observations, dimension, edges) == bin_reuse(records, dimension, edges)


class TestBinReuse:
    def test_all_reused(self):
        observations = [obs(v, True) for v in (1, 2, 3, 4)]
        curve = bin_reuse(observations, "frequency", [1, 3, 5])
        assert all(b.probability == 1.0 for b in curve.bins)

    def test_mixed_bin(self):
        observations = [obs(1, True), obs(1, False)]
        curve = bin_reuse(observations, "frequency", [1, 2])
        assert curve.bins == (CurveBin(1.0, 0.5, 2),)

    def test_hand_tallied_curve(self):
        observations = [
            obs(1, False),
            obs(1, False),
            obs(1, True),
            obs(2, True),
            obs(2, False),
        ]
        curve = bin_reuse(observations, "frequency", [1, 2, 3])
        assert curve.bins == (CurveBin(1.0, 1 / 3, 3), CurveBin(2.0, 0.5, 2))

    def test_out_of_range_dropped_and_empty_bins_omitted(self):
        observations = [obs(10, True), obs(99, True)]
        curve = bin_reuse(observations, "frequency", [1, 2, 20])
        assert curve.bins == (CurveBin(2.0, 1.0, 1),)

    def test_last_edge_inclusive(self):
        curve = bin_reuse([obs(3, True)], "frequency", [1, 2, 3])
        assert curve.bins == (CurveBin(2.0, 1.0, 1),)

    def test_order_invariant(self):
        rng = random.Random(9)
        observations = [obs(rng.randint(1, 10), rng.random() < 0.4) for _ in range(200)]
        edges = [1, 3, 5, 8, 11]
        direct = bin_reuse(observations, "frequency", edges)
        shuffled = list(observations)
        rng.shuffle(shuffled)
        assert bin_reuse(shuffled, "frequency", edges) == direct

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            bin_reuse([obs(1, True)], "frequency", [2, 1])
        with pytest.raises(ValueError):
            bin_reuse([obs(1, True)], "frequency", [1])

    def test_nan_edge_rejected(self):
        # NaN compares false both ways, so no pairwise ">=" test catches it
        with pytest.raises(ValueError, match="strictly increasing"):
            bin_reuse([obs(0.5, True, "context")], "context", [0, math.nan, 1.0])

    def test_nan_value_dropped(self):
        observations = [obs(math.nan, True, "context"), obs(0.5, False, "context")]
        curve = bin_reuse(observations, "context", [0, 0.5, 1.0])
        assert curve.bins == (CurveBin(0.5, 0.0, 1),)

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            bin_reuse([obs(1, True)], "entropy", [1, 2])


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
