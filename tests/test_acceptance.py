"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every expected value is produced by an independently coded oracle inside
this module (direct formula evaluation, brute-force enumeration, or exact
synthetic construction); the library is never used to check itself.
"""

import math
import random
import time

import pytest

from synth import (
    synthetic_folksonomy,
    synthetic_posts,
    synthetic_tweets,
    write_posts_tsv,
    write_tweets_tsv,
)

from memrec import (
    CurveBin,
    DecayParams,
    Folksonomy,
    Post,
    ReuseCurve,
    ScoredList,
    SocialGraph,
    TweetCorpus,
    TweetRecord,
    base_level,
    chronological_split,
    compare_decay,
    evaluate,
    f1_at_k,
    hashtag_usage_breakdown,
    ndcg_at_k,
    precision_recall_at_k,
    score_bll_ac,
    score_bll_i,
    score_bll_s,
)
from memrec.cli import main


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


# ----------------------------------------------------------------------
# criterion 1: decayed-sum activation matches direct formula evaluation
# ----------------------------------------------------------------------


class TestBaseLevelOracle:
    def test_randomized_histories_match_direct_evaluation(self):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(1000):
            d = rng.uniform(0.1, 1.5)
            n = rng.randint(1, 50)
            now = rng.randrange(10**8, 2 * 10**8)
            elapsed = [rng.randrange(1, 10**8) for _ in range(n)]
            times = sorted(now - e for e in elapsed)
            got = base_level(times, now, DecayParams(d=d))
            want = math.log(math.fsum((now - t) ** -d for t in times))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        elapsed_s = time.perf_counter() - start
        assert elapsed_s < 1.0, f"1000 histories took {elapsed_s:.3f}s"
        report("base-level oracle (1000 randomized histories, <1s)")


# ----------------------------------------------------------------------
# criterion 2: full activation scoring matches brute force on small cases
# ----------------------------------------------------------------------


def brute_force_activation_scores(posts, user, resource, now, d=0.5, min_elapsed=1.0):
    """Textbook evaluation of the activation formula from raw posts."""
    ordered = sorted(posts, key=lambda p: (p.timestamp, p.user, p.resource))
    ctx_counts: dict[str, int] = {}
    for p in ordered:
        if p.resource == resource:
            for tag in p.tags:
                ctx_counts[tag] = ctx_counts.get(tag, 0) + 1
    total = sum(ctx_counts.values())
    ctx = [(tag, ctx_counts[tag] / total) for tag in sorted(ctx_counts)]

    tag_count: dict[str, int] = {}
    cooccur: dict[tuple[str, str], int] = {}
    for p in ordered:
        for a in p.tags:
            tag_count[a] = tag_count.get(a, 0) + 1
            for b in p.tags:
                cooccur[a, b] = cooccur.get((a, b), 0) + 1

    hist: dict[str, list[int]] = {}
    for p in ordered:
        if p.user == user:
            for tag in p.tags:
                hist.setdefault(tag, []).append(p.timestamp)

    scores = {}
    for tag in sorted(set(hist) | {j for j, _ in ctx}):
        if tag in hist:
            acc = 0.0
            for t in hist[tag]:
                acc += max(now - t, min_elapsed) ** -d
            base = math.log(acc)
        else:
            base = None
        if not ctx:
            scores[tag] = base if base is not None else 0.0
            continue
        spread = 0.0
        for j, weight in ctx:
            strength = cooccur.get((tag, j), 0) / tag_count[j] if tag_count.get(j) else 0.0
            spread += weight * strength
        scores[tag] = (base if base is not None else 0.0) + spread
    return scores


class TestActivationScoringOracle:
    def test_small_folksonomies_match_brute_force_exactly(self):
        rng = random.Random(202)
        users = ["ua", "ub", "uc"]
        resources = ["ra", "rb", "rc"]
        tags = ["a", "b", "c", "d"]
        pairs = [(u, r) for u in users for r in resources]
        checked = 0
        for _ in range(600):
            n_posts = rng.randint(1, 6)
            chosen_pairs = rng.sample(pairs, n_posts)
            posts = [
                Post(u, r, tuple(sorted(rng.sample(tags, rng.randint(1, 3)))), rng.randrange(0, 1000))
                for u, r in chosen_pairs
            ]
            now = max(p.timestamp for p in posts) + rng.randrange(0, 100)
            query_user = rng.choice(users + ["ghost"])
            query_resource = rng.choice(resources + ["fresh"])
            got = score_bll_ac(Folksonomy(posts), query_user, query_resource, now)
            want = brute_force_activation_scores(posts, query_user, query_resource, now)
            assert got == want, (posts, query_user, query_resource, now)
            checked += 1
        assert checked >= 500
        report(f"activation scoring equals brute force exactly ({checked} small cases)")


# ----------------------------------------------------------------------
# criterion 3: monotonicity properties, >= 10,000 cases, no counterexamples
# ----------------------------------------------------------------------


def rank_of(scores, item):
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tag for tag, _ in ordered].index(item)


class TestMonotonicitySuite:
    def test_frequency_recency_and_context_monotonicity(self):
        rng = random.Random(303)
        cases = 0

        # frequency: adding any occurrence strictly increases the score
        for _ in range(3500):
            now = 10**6
            times = sorted(rng.randrange(0, now) for _ in range(rng.randint(1, 30)))
            extra = rng.randrange(0, now + 1)
            assert base_level(times + [extra], now) > base_level(times, now)
            cases += 1

        # recency: moving any single occurrence closer strictly increases it
        for _ in range(3500):
            now = 10**6
            times = sorted(rng.randrange(0, now - 4) for _ in range(rng.randint(1, 30)))
            i = rng.randrange(len(times))
            moved = list(times)
            moved[i] += (now - 1 - times[i]) // 2 + 1
            assert base_level(moved, now) > base_level(times, now)
            cases += 1

        # context: strengthening a candidate's association with a context tag
        # (one new co-use post elsewhere) never worsens the candidate's rank.
        # The candidate must not itself be a context tag, otherwise the added
        # post also feeds competitors through the reverse association.
        users = ["ua", "ub", "uc"]
        resources = ["ra", "rb"]
        tags = ["a", "b", "c", "d"]
        pairs = [(u, r) for u in users for r in resources]
        attempts = 0
        while cases < 10_500:
            attempts += 1
            assert attempts < 100_000
            n_posts = rng.randint(2, 6)
            posts = [
                Post(u, r, tuple(sorted(rng.sample(tags, rng.randint(1, 3)))), rng.randrange(0, 1000))
                for u, r in rng.sample(pairs, n_posts)
            ]
            now = max(p.timestamp for p in posts) + rng.randrange(1, 50)
            user = rng.choice(users)
            resource = rng.choice(resources)
            before = score_bll_ac(Folksonomy(posts), user, resource, now)
            context_tags = {t for p in posts if p.resource == resource for t in p.tags}
            eligible = sorted(set(before) - context_tags)
            if not context_tags or not eligible:
                continue
            candidate = rng.choice(eligible)
            strengthened = rng.choice(sorted(context_tags))
            boosted = posts + [Post("zz_new", "rr_new", (candidate, strengthened), 0)]
            after = score_bll_ac(Folksonomy(boosted), user, resource, now)
            assert rank_of(after, candidate) <= rank_of(before, candidate)
            cases += 1

        assert cases >= 10_000
        report(f"monotonicity suite ({cases} cases, zero counterexamples)")


# ----------------------------------------------------------------------
# criterion 4: ranking metrics against an independent oracle
# ----------------------------------------------------------------------


def oracle_precision_recall(items, relevant, k):
    top = items[:k]
    hits = len([item for item in top if item in relevant])
    precision = hits / min(k, len(items)) if items else 0.0
    recall = hits / len(relevant)
    return precision, recall


def oracle_f1(items, relevant, k):
    precision, recall = oracle_precision_recall(items, relevant, k)
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def oracle_ndcg(items, relevant, k):
    dcg = sum(1 / math.log2(pos + 1) for pos, item in enumerate(items[:k], 1) if item in relevant)
    idcg = sum(1 / math.log2(pos + 1) for pos in range(1, min(k, len(relevant)) + 1))
    return dcg / idcg


def as_scored_list(items):
    return ScoredList(tuple((item, float(len(items) - i)) for i, item in enumerate(items)), max(len(items), 1))


class TestMetricOracles:
    def test_worked_examples(self):
        lst = as_scored_list(["a", "b", "c", "d", "e"])
        precision, recall = precision_recall_at_k(lst, {"a", "c", "f"}, 5)
        assert precision == pytest.approx(0.4, abs=1e-12)
        assert recall == pytest.approx(2 / 3, abs=1e-12)
        assert f1_at_k(lst, {"a", "c", "f"}, 5) == pytest.approx(0.5, abs=1e-12)
        assert ndcg_at_k(as_scored_list(["a", "x", "c"]), {"a", "c"}, 10) == pytest.approx(
            0.919721, abs=1e-6
        )
        report("metric worked examples (precision 0.4, recall 2/3, F1 0.5, nDCG 0.919721)")

    def test_randomized_against_oracle(self):
        rng = random.Random(404)
        pool = [f"i{n:02d}" for n in range(30)]
        for _ in range(1000):
            items = rng.sample(pool, rng.randint(0, 20))
            relevant = set(rng.sample(pool, rng.randint(1, 10)))
            k = rng.randint(1, 15)
            lst = as_scored_list(items)
            got_p, got_r = precision_recall_at_k(lst, relevant, k)
            want_p, want_r = oracle_precision_recall(items, relevant, k)
            assert abs(got_p - want_p) <= 1e-12
            assert abs(got_r - want_r) <= 1e-12
            assert abs(f1_at_k(lst, relevant, k) - oracle_f1(items, relevant, k)) <= 1e-12
            assert abs(ndcg_at_k(lst, relevant, k) - oracle_ndcg(items, relevant, k)) <= 1e-12
        report("metric oracle (1000 randomized cases)")


# ----------------------------------------------------------------------
# criterion 5: decay-model selection on synthetic curves
# ----------------------------------------------------------------------


class TestDecayModelSelection:
    def test_power_and_exponential_curves_are_classified_correctly(self):
        rng = random.Random(505)
        correct = 0

        for _ in range(50):
            c = rng.uniform(0.1, 1.0)
            bins = tuple(CurveBin(float(2**i), c * (2**i) ** -0.5, 25) for i in range(11))
            result = compare_decay(ReuseCurve("recency", bins))
            assert result.winner == "power"
            assert result.power.r_squared >= 0.999
            assert abs(result.power.slope - (-0.5)) <= 0.01
            correct += 1

        for _ in range(50):
            c = rng.uniform(0.5, 1.0)
            rate = rng.uniform(0.001, 0.1)
            bins = tuple(CurveBin(float(2**i), c * math.exp(-rate * 2**i), 25) for i in range(12))
            result = compare_decay(ReuseCurve("recency", bins))
            assert result.winner == "exponential"
            assert result.exponential.r_squared > result.power.r_squared
            correct += 1

        assert correct == 100
        report("decay-model selection (100/100 correct)")


# ----------------------------------------------------------------------
# criterion 6: directional check on the planted synthetic folksonomy
# ----------------------------------------------------------------------


class TestDirectionalOrdering:
    def test_decay_scorers_beat_frequency_baselines(self):
        start = time.perf_counter()
        folks = synthetic_folksonomy()
        split = chronological_split(folks, 2)
        rep = evaluate(split, ["mp_u", "bll", "mp_ur", "bll_ac_mp_r"], jobs=2).per_algorithm
        margin_bll = rep["bll"].f1_at_5 - rep["mp_u"].f1_at_5
        margin_hybrid = rep["bll_ac_mp_r"].f1_at_5 - rep["mp_ur"].f1_at_5
        elapsed = time.perf_counter() - start
        assert margin_bll >= 0.02, f"bll - mp_u = {margin_bll:.4f}"
        assert margin_hybrid >= 0.02, f"bll_ac_mp_r - mp_ur = {margin_hybrid:.4f}"
        assert elapsed < 60.0, f"directional check took {elapsed:.1f}s"
        report(
            f"directional ordering (bll +{margin_bll:.3f} over mp_u, "
            f"hybrid +{margin_hybrid:.3f} over mp_ur, {elapsed:.1f}s)"
        )


# ----------------------------------------------------------------------
# criterion 7: hashtag breakdown partitions; social pooling is exact
# ----------------------------------------------------------------------


class TestHashtagPartitionAndPooling:
    def test_breakdown_fractions_partition(self):
        rng = random.Random(606)
        for _ in range(50):
            n_users = rng.randint(1, 6)
            tweets = []
            for _ in range(rng.randint(1, 40)):
                user = f"u{rng.randrange(n_users)}"
                hashtags = tuple(sorted(set(rng.sample(["x", "y", "z", "w"], rng.randint(0, 3)))))
                tweets.append(TweetRecord(user, hashtags, (), rng.randrange(0, 500)))
            if not any(t.hashtags for t in tweets):
                tweets.append(TweetRecord("u0", ("x",), (), 1))
            edges = {}
            for ui in range(n_users):
                others = [f"u{v}" for v in range(n_users) if v != ui]
                if others and rng.random() < 0.7:
                    edges[f"u{ui}"] = set(rng.sample(others, rng.randint(1, len(others))))
            breakdown = hashtag_usage_breakdown(TweetCorpus(tweets), SocialGraph(edges))
            assert all(0.0 <= v <= 1.0 for v in breakdown)
            assert abs(math.fsum(breakdown) - 1.0) <= 1e-12
        report("hashtag usage breakdown partitions (50 random corpora)")

    def test_social_pooling_equals_transplanted_individual_history(self):
        rng = random.Random(707)
        for _ in range(100):
            now = 10_000
            history = [
                TweetRecord(
                    "source",
                    tuple(sorted(set(rng.sample(["h1", "h2", "h3"], rng.randint(1, 3))))),
                    (),
                    rng.randrange(0, now),
                )
                for _ in range(rng.randint(1, 10))
            ]
            social = TweetCorpus(history)
            graph = SocialGraph({"watcher": {"source"}})
            transplanted = TweetCorpus(
                [TweetRecord("watcher", t.hashtags, t.terms, t.timestamp) for t in history]
            )
            social_scores = score_bll_s(social, graph, "watcher", now)
            own_scores = score_bll_i(transplanted, "watcher", now)
            assert social_scores == own_scores
        report("social pooling equals transplanted individual history (exact)")


# ----------------------------------------------------------------------
# criterion 8: parallel evaluation is byte-identical to the serial run
# ----------------------------------------------------------------------


class TestParallelDeterminism:
    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_cli_evaluate_jobs_1_vs_8_byte_identical(self, tmp_path, command):
        if command == "evaluate":
            posts_path = write_posts_tsv(tmp_path / "synthetic.tsv", synthetic_posts())
            base_args = [command, "--posts", str(posts_path)]
            output = "eval_report.csv"
        else:
            tweets_path, edges_path = write_tweets_tsv(
                tmp_path / "tweets.tsv", tmp_path / "edges.tsv", *synthetic_tweets(n_users=120)
            )
            base_args = [command, "--tweets", str(tweets_path), "--edges", str(edges_path)]
            output = "hashtag_report.csv"
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        assert main(base_args + ["--out", str(out_serial), "--jobs", "1"]) == 0
        assert main(base_args + ["--out", str(out_parallel), "--jobs", "8"]) == 0
        serial_bytes = (out_serial / output).read_bytes()
        parallel_bytes = (out_parallel / output).read_bytes()
        assert serial_bytes == parallel_bytes
        assert len(serial_bytes) > 0
        # every mean recall curve the harness returns is non-decreasing in k
        recalls = {}
        for line in serial_bytes.decode("utf-8").splitlines()[1:]:
            algorithm, metric, k, value, _ = line.split(",")
            if metric == "recall":
                recalls.setdefault(algorithm, []).append((int(k), float(value)))
        assert recalls
        for algorithm, curve in recalls.items():
            values = [value for _, value in sorted(curve)]
            assert values == sorted(values), algorithm
        report(f"parallel determinism ({command} --jobs 1 vs --jobs 8 byte-identical)")
