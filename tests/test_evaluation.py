import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from synth import synthetic_folksonomy

import memrec
from memrec import (
    Folksonomy,
    Post,
    ScoredList,
    SplitSpec,
    chronological_split,
    evaluate,
)
from memrec import evaluation
from memrec.evaluation import AlgorithmReport, _evaluate, _f1, _walk, _workers
from memrec.recommenders import Registry, top_k

IDCG2 = 1 + 1 / math.log2(3)


def ranked(*items):
    return ScoredList(tuple((item, float(len(items) - i)) for i, item in enumerate(items)))


def at_k(items, relevant, k, strict_k=False):
    """(precision, recall) at rank k of the harness's walk over ``items``."""
    return _walk(ranked(*items), relevant, strict_k)[0][k - 1]


def ndcg(items, relevant):
    return _walk(ranked(*items), relevant, False)[1]


class TestPrecisionRecall:
    def test_hand_example(self):
        precision, recall = at_k("abcde", {"a", "c", "f"}, 5)
        assert precision == pytest.approx(0.4)
        assert recall == pytest.approx(2 / 3)

    def test_perfect(self):
        assert at_k("ab", {"a", "b"}, 2) == (1.0, 1.0)

    def test_disjoint(self):
        assert at_k("xy", {"a"}, 2) == (0.0, 0.0)

    def test_short_list_convention(self):
        precision, recall = at_k("a", {"a"}, 5)
        assert precision == 1.0  # divides by min(k, 1)
        strict_p, _ = at_k("a", {"a"}, 5, strict_k=True)
        assert strict_p == pytest.approx(0.2)

    def test_empty_recommendations(self):
        assert at_k("", {"a"}, 5) == (0.0, 0.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            _walk(ranked("a"), set(), False)

    def test_recall_non_decreasing_in_k(self):
        rng = random.Random(17)
        pool = [f"i{n}" for n in range(30)]
        for _ in range(300):
            items = rng.sample(pool, rng.randint(0, 20))
            relevant = set(rng.sample(pool, rng.randint(1, 10)))
            recalls = [recall for _, recall in _walk(ranked(*items), relevant, False)[0]]
            assert len(recalls) == 10 and recalls == sorted(recalls)


class TestF1:
    def test_hand_example(self):
        assert _f1(*at_k("abcde", {"a", "c", "f"}, 5)) == pytest.approx(0.5)

    def test_perfect(self):
        assert _f1(*at_k("ab", {"a", "b"}, 2)) == 1.0

    def test_zero_convention(self):
        assert _f1(*at_k("x", {"a"}, 5)) == 0.0


class TestNdcg:
    def test_hand_example(self):
        value = ndcg("axc", {"a", "c"})
        assert value == pytest.approx(0.919721, abs=1e-6)
        assert value == pytest.approx((1 + 0.5) / IDCG2, abs=1e-12)

    def test_ideal_ranking(self):
        assert ndcg("abz", {"a", "b"}) == 1.0

    def test_no_hits(self):
        assert ndcg("xy", {"a"}) == 0.0

    def test_hits_first_is_always_ideal(self):
        rng = random.Random(23)
        pool = [f"i{n}" for n in range(20)]
        for _ in range(100):
            relevant = set(rng.sample(pool, rng.randint(1, 6)))
            fillers = [p for p in pool if p not in relevant]
            items = sorted(relevant) + fillers[: rng.randint(0, 8)]
            assert ndcg(items, relevant) == pytest.approx(1.0, abs=1e-12)


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

    def test_negative_jobs_rejected(self):
        split = chronological_split(five_post_fixture(), 2)
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 0, got -3$"):
            evaluate(split, ["mp_u"], jobs=-3)

    def test_non_integer_jobs_rejected(self, monkeypatch):
        # checked before the pool, which would take 2.5 as a worker count and
        # fail inside concurrent.futures or quietly run 2, by CPU and case count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        split = chronological_split(five_post_fixture(), 2)
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 0, got 2.5$"):
            evaluate(split, ["mp_u"], jobs=2.5)

    def test_bool_jobs_rejected(self, monkeypatch):
        # False would read as 0, a pool on every usable CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        split = chronological_split(five_post_fixture(), 2)
        for jobs in (False, True):
            with pytest.raises(ValueError, match=rf"^jobs must be an integer >= 0, got {jobs}$"):
                evaluate(split, ["mp_u"], jobs=jobs)

    def test_leakage_canary(self):
        # injecting each held-out post into its own training data must move
        # the metrics; if it does not, the harness is reading the future
        f = five_post_fixture()
        split = chronological_split(f, 2)
        clean = evaluate(split, ["bll"]).per_algorithm["bll"]
        leaked = evaluate(SplitSpec(f, split.test), ["bll"]).per_algorithm["bll"]
        assert leaked.f1_at_5 > clean.f1_at_5

    def test_one_ranking_per_case_and_algorithm(self, monkeypatch):
        # every metric comes from one walk over one top_k list
        calls, walks = [], []

        def counting_top_k(scores, k):
            calls.append(k)
            return top_k(scores, k)

        def counting_walk(*args):
            walks.append(args[0])
            return _walk(*args)

        monkeypatch.setattr(evaluation, "top_k", counting_top_k)
        monkeypatch.setattr(evaluation, "_walk", counting_walk)
        split = chronological_split(five_post_fixture(), 2)
        evaluate(split, ["mp_u", "bll"], jobs=1)
        assert calls == [10] * (2 * len(split.test))
        assert len(walks) == len(calls)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _workers(10**6, 10**6) == 3  # the CPUs this process may run on
        assert _workers(0, 10**6) == 3
        assert _workers(4, 1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # as under taskset -c 0
        assert _workers(0, 100) == 1 and _workers(2, 100) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity
        assert _workers(0, 10**6) == 4

    def test_concurrent_calls_score_their_own_split(self):
        # two threads evaluate different splits at once; each report must
        # equal its own serial run, so neither call reads the other's model
        algorithms = ["mp_u", "bll"]
        splits = [
            chronological_split(synthetic_folksonomy(seed=seed, n_users=30, posts_per_user=8), 2)
            for seed in (1, 2)
        ]
        expected = [evaluate(split, algorithms) for split in splits]
        barrier = threading.Barrier(len(splits))

        def run(split):
            barrier.wait()  # start the calls together
            return evaluate(split, algorithms)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the calls interleave
        try:
            with ThreadPoolExecutor(len(splits)) as pool:
                for _ in range(5):
                    assert list(pool.map(run, splits)) == expected
        finally:
            sys.setswitchinterval(interval)

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


STUB_REGISTRY = Registry(("a", "b", "c", "never"))


class StubModel:
    """Score maps from a table, query -> {id: {item: score} or None}; at module
    level, so that pool workers can unpickle it under any start method."""

    def __init__(self, table):
        self.table = table

    def bind(self, query):
        return SimpleNamespace(**self.table[query])


def uneven_cases(n_cases, seed=5):
    """A stub model and its cases: ``b`` skips every third case, ``c`` every
    second, ``never`` applies to none; some score maps are empty."""
    rng = random.Random(seed)
    items = [f"t{j}" for j in range(15)]

    def scores():
        return {item: rng.random() for item in rng.sample(items, rng.randint(0, 12))}

    table = {
        query: {
            "a": scores(),
            "b": None if query % 3 == 0 else scores(),
            "c": None if query % 2 == 0 else scores(),
            "never": None,
        }
        for query in range(n_cases)
    }
    cases = [(query, frozenset(rng.sample(items, rng.randint(1, 4)))) for query in range(n_cases)]
    return StubModel(table), cases


def reference_report(model, ids, cases, strict_k):
    """Each id's means over the cases it applies to, from one 22-value tuple
    per (case, id) and one ``math.fsum`` per metric."""
    per_case = {algorithm: [] for algorithm in ids}
    for query, relevant in cases:
        for algorithm in ids:
            scores = model.table[query][algorithm]
            if scores is not None:
                curve, ndcg_10 = _walk(top_k(scores, 10), relevant, strict_k)
                row = (_f1(*curve[4]), ndcg_10, *(x for pair in curve for x in pair))
                per_case[algorithm].append(row)
    expected = {}
    for algorithm, rows in per_case.items():
        if rows:
            f1, ndcg_10, *curve = (math.fsum(column) / len(rows) for column in zip(*rows))
            pr_curve = tuple((k, curve[2 * k - 2], curve[2 * k - 1]) for k in range(1, 11))
            expected[algorithm] = AlgorithmReport(f1, ndcg_10, pr_curve, len(rows))
    return expected


class TestUnevenSupport:
    """Each id is averaged over its own cases, however the others' support runs."""

    @pytest.mark.parametrize("strict_k", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_means_equal_the_per_case_reference(self, jobs, strict_k):
        model, cases = uneven_cases(60)
        ids = STUB_REGISTRY.ids
        report = _evaluate(STUB_REGISTRY, ids, model, cases, jobs, strict_k).per_algorithm
        assert report == reference_report(model, ids, cases, strict_k)
        supports = {algorithm: r.users_evaluated for algorithm, r in report.items()}
        assert supports == {"a": 60, "b": 40, "c": 30}  # "never" is omitted


def test_metrics_held_unboxed():
    # 8 bytes per metric value, 22 values per (case, algorithm): about 190 bytes
    # per pair, where a tuple of boxed floats per pair would take about 800
    n_cases, ids = 2000, ("a", "b", "c")
    table = {q: dict.fromkeys(ids, {"t1": 3.0, "t2": 2.0, "t3": 1.0}) for q in range(n_cases)}
    cases = [(q, frozenset({"t2", f"x{q % 7}"})) for q in range(n_cases)]
    model = StubModel(table)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = _evaluate(STUB_REGISTRY, ids, model, cases, 1, False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(r.users_evaluated == n_cases for r in report.per_algorithm.values())
    per_pair = peak / (n_cases * len(ids))
    assert per_pair < 400, f"{per_pair:.0f} bytes per (case, algorithm)"


def test_import_loads_no_process_pool():
    # only a run with more than one worker imports the pool; check in a fresh
    # interpreter, since this one may already hold the modules
    code = (
        "import sys, memrec, memrec.cli; "
        "print(*[m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    path = [str(Path(memrec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""
