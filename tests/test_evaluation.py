import math
import os
import random

import pytest

from memrec import (
    Folksonomy,
    Post,
    ScoredList,
    SplitSpec,
    chronological_split,
    evaluate,
    f1_at_k,
    ndcg_at_k,
    precision_recall_at_k,
)
from memrec.evaluation import _workers

IDCG2 = 1 + 1 / math.log2(3)


def ranked(*items):
    return ScoredList(tuple((item, float(len(items) - i)) for i, item in enumerate(items)), len(items))


class TestPrecisionRecall:
    def test_hand_example(self):
        precision, recall = precision_recall_at_k(ranked("a", "b", "c", "d", "e"), {"a", "c", "f"}, 5)
        assert precision == pytest.approx(0.4)
        assert recall == pytest.approx(2 / 3)

    def test_perfect(self):
        precision, recall = precision_recall_at_k(ranked("a", "b"), {"a", "b"}, 2)
        assert (precision, recall) == (1.0, 1.0)

    def test_disjoint(self):
        assert precision_recall_at_k(ranked("x", "y"), {"a"}, 2) == (0.0, 0.0)

    def test_short_list_convention(self):
        precision, recall = precision_recall_at_k(ranked("a"), {"a"}, 5)
        assert precision == 1.0  # divides by min(k, 1)
        strict_p, _ = precision_recall_at_k(ranked("a"), {"a"}, 5, strict_k=True)
        assert strict_p == pytest.approx(0.2)

    def test_empty_recommendations(self):
        assert precision_recall_at_k(ScoredList((), 5), {"a"}, 5) == (0.0, 0.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k(ranked("a"), set(), 5)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k(ranked("a"), {"a"}, 0)

    def test_recall_non_decreasing_in_k(self):
        rng = random.Random(17)
        pool = [f"i{n}" for n in range(30)]
        for _ in range(300):
            items = rng.sample(pool, rng.randint(0, 20))
            relevant = set(rng.sample(pool, rng.randint(1, 10)))
            lst = ranked(*items)
            recalls = [precision_recall_at_k(lst, relevant, k)[1] for k in range(1, 15)]
            assert recalls == sorted(recalls)


class TestF1:
    def test_hand_example(self):
        assert f1_at_k(ranked("a", "b", "c", "d", "e"), {"a", "c", "f"}, 5) == pytest.approx(0.5)

    def test_perfect(self):
        assert f1_at_k(ranked("a", "b"), {"a", "b"}, 2) == 1.0

    def test_zero_convention(self):
        assert f1_at_k(ranked("x"), {"a"}, 5) == 0.0


class TestNdcg:
    def test_hand_example(self):
        value = ndcg_at_k(ranked("a", "x", "c"), {"a", "c"}, 10)
        assert value == pytest.approx(0.919721, abs=1e-6)
        assert value == pytest.approx((1 + 0.5) / IDCG2, abs=1e-12)

    def test_ideal_ranking(self):
        assert ndcg_at_k(ranked("a", "b", "z"), {"a", "b"}, 10) == 1.0

    def test_no_hits(self):
        assert ndcg_at_k(ranked("x", "y"), {"a"}, 10) == 0.0

    def test_hits_first_is_always_ideal(self):
        rng = random.Random(23)
        pool = [f"i{n}" for n in range(20)]
        for _ in range(100):
            relevant = set(rng.sample(pool, rng.randint(1, 6)))
            fillers = [p for p in pool if p not in relevant]
            items = sorted(relevant) + fillers[: rng.randint(0, 8)]
            assert ndcg_at_k(ranked(*items), relevant, 10) == pytest.approx(1.0, abs=1e-12)


def five_post_fixture():
    return Folksonomy(
        [
            Post("u1", "r1", ("a",), 1),
            Post("u1", "r2", ("a", "b"), 2),
            Post("u1", "r3", ("a", "c"), 3),
            Post("u2", "r1", ("b",), 1),
            Post("u2", "r2", ("a", "b"), 5),
        ]
    )


class TestEvaluate:
    def test_hand_computed_mp_u_report(self):
        split = chronological_split(five_post_fixture(), 2)
        report = evaluate(split, ["mp_u"]).per_algorithm["mp_u"]
        # u1 trains on {a:2, b:1}, tests on {a, c}; u2 trains on {b:1}, tests on {a, b}
        assert report.users_evaluated == 2
        assert report.f1_at_5 == pytest.approx((0.5 + 2 / 3) / 2, abs=1e-12)
        assert report.ndcg_at_10 == pytest.approx(1 / IDCG2, abs=1e-12)
        curve = {k: (p, r) for k, p, r in report.pr_curve}
        assert curve[1] == (1.0, 0.5)
        for k in range(2, 11):
            assert curve[k] == (0.75, 0.5)

    def test_single_perfect_recommender(self):
        f = Folksonomy(
            [
                Post("u", "r1", ("a",), 1),
                Post("u", "r2", ("a",), 2),
            ]
        )
        split = chronological_split(f, 2)
        report = evaluate(split, ["mp_u"]).per_algorithm["mp_u"]
        assert report.f1_at_5 == 1.0  # short-list precision convention
        assert report.ndcg_at_10 == 1.0

    def test_mean_over_posts(self):
        # u1's held-out tag was never used -> F1 0; u2 reuses its only tag -> F1 1
        f = Folksonomy(
            [
                Post("u1", "r1", ("a",), 1),
                Post("u1", "r2", ("z",), 9),
                Post("u2", "r1", ("b",), 1),
                Post("u2", "r2", ("b",), 9),
            ]
        )
        split = chronological_split(f, 2)
        report = evaluate(split, ["mp_u"]).per_algorithm["mp_u"]
        assert report.f1_at_5 == pytest.approx(0.5)

    def test_empty_test_rejected(self):
        split = SplitSpec(five_post_fixture(), ())
        with pytest.raises(ValueError):
            evaluate(split, ["mp_u"])

    def test_unknown_algorithm_rejected(self):
        split = chronological_split(five_post_fixture(), 2)
        with pytest.raises(ValueError):
            evaluate(split, ["mp_u", "oracle"])

    def test_duplicate_algorithms_rejected(self):
        split = chronological_split(five_post_fixture(), 2)
        with pytest.raises(ValueError):
            evaluate(split, ["mp_u", "mp_u"])

    def test_leakage_canary(self):
        # injecting each held-out post into its own training data must move
        # the metrics; if it does not, the harness is reading the future
        f = five_post_fixture()
        split = chronological_split(f, 2)
        clean = evaluate(split, ["bll"]).per_algorithm["bll"]
        leaked = evaluate(SplitSpec(f, split.test), ["bll"]).per_algorithm["bll"]
        assert leaked.f1_at_5 > clean.f1_at_5

    def test_workers_capped_at_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert _workers(10**6, 10**6) == cpus
        assert _workers(0, 10**6) == cpus
        assert _workers(cpus + 1, 1) == 1

    def test_parallel_matches_serial_exactly(self):
        rng = random.Random(31)
        posts = []
        for ui in range(12):
            for pi in range(rng.randint(2, 5)):
                tags = tuple(sorted(rng.sample(["a", "b", "c", "d", "e"], rng.randint(1, 3))))
                posts.append(Post(f"u{ui}", f"r{pi}", tags, rng.randrange(10_000)))
        split = chronological_split(Folksonomy(posts), 2)
        serial = evaluate(split, ["mp_u", "bll", "bll_ac_mp_r"], jobs=1)
        parallel = evaluate(split, ["mp_u", "bll", "bll_ac_mp_r"], jobs=3)
        assert serial == parallel
