"""Tests of the benchmark's own code: generators, tracer arithmetic, checks.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

memrec = pytest.importorskip("memrec")

SMALL_POSTS = {"n_users": 30, "n_resources": 60, "posts_per_user": 8, "max_tags": 4}
SMALL_TWEETS = {"n_users": 24, "tweets_per_user": 10, "n_followees": 5, "n_hashtags": 60,
                "n_terms": 200, "n_communities": 4}


def write_small(tmp_path, seed=3):
    posts = tmp_path / "posts.tsv"
    tweets, edges = tmp_path / "tweets.tsv", tmp_path / "edges.tsv"
    gen.write_posts(posts, gen.synthetic_posts(seed, **SMALL_POSTS))
    gen.write_tweets(tweets, edges, *gen.synthetic_tweets(seed, **SMALL_TWEETS))
    return posts, tweets, edges


class TestGenerators:
    def test_same_seed_same_bytes_other_seed_other_bytes(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for directory, seed in ((a, 1), (b, 1), (c, 2)):
            directory.mkdir()
            write_small(directory, seed)
        for name in ("posts.tsv", "tweets.tsv", "edges.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
            assert (a / name).read_bytes() != (c / name).read_bytes()

    def test_files_parse_with_memrec(self, tmp_path):
        posts, tweets, edges = write_small(tmp_path)
        folks = memrec.parse_posts(posts)
        assert len(folks) == 30 * 8
        assert max(len(p.tags) for p in folks.posts) <= 4
        records = memrec.parse_tweets(tweets)
        assert len(records) == 24 * 10
        assert any(not t.hashtags for t in records)  # some tweets carry no hashtag
        graph = memrec.parse_edges(edges)
        assert all(len(graph.followees(u)) == 5 for u in {t.user for t in records})
        _, test = memrec.leave_newest_out(memrec.TweetCorpus(records), 2)
        assert test

    def test_post_shape_parameters(self):
        rows = gen.synthetic_posts(4, n_users=10, posts_per_user=6, n_communities=3,
                                   community_tags=7, min_tags=1, max_tags=2)
        assert len(rows) == 60
        assert {t for row in rows for t in row[3]} <= {f"t{i:03d}" for i in range(21)}
        assert all(1 <= len(row[3]) <= 2 for row in rows)

    def test_tweets_plant_own_and_followee_reuse(self):
        tweets, edges = gen.synthetic_tweets(5, **SMALL_TWEETS)
        corpus = memrec.TweetCorpus(
            memrec.TweetRecord(u, tags, words, ts) for u, ts, tags, words in tweets
        )
        graph = memrec.SocialGraph(
            {f: {e for g, e in edges if g == f} for f, _ in edges}
        )
        breakdown = memrec.hashtag_usage_breakdown(corpus, graph)
        assert breakdown.individual_only + breakdown.both > 0.2
        assert breakdown.social_only + breakdown.both > 0.2


def span(name, start, end, parent=-1, agg=0.0, attrs=None):
    return [name, start, end, parent, agg, attrs]


class TestSelfTime:
    def test_children_and_aggregates_are_subtracted(self):
        spans = [
            span("cli.main", 0.0, 10.0),
            span("data.parse_posts", 1.0, 4.0, 0),
            span("data.Folksonomy", 2.0, 3.5, 1),
            span("recommenders.recommend", 5.0, 9.0, 0, agg=1.25),
        ]
        assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.75])

    def test_overlapping_children_count_once(self):
        spans = [
            span("cli.main", 0.0, 10.0),
            span("a.x", 1.0, 5.0, 0),
            span("a.y", 4.0, 6.0, 0),
            span("a.z", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_layer_metrics_from_spans(self):
        spans = [
            span("cli.cmd_evaluate", 0.0, 10.0),
            span("recommenders.recommend", 1.0, 3.0, 0, attrs={"algorithm": "cf"}),
            span("recommenders.top_k", 2.5, 3.0, 1, attrs={"candidates": 7}),
            span("recommenders.recommend", 4.0, 5.0, 0, attrs={"algorithm": "cf"}),
            span("recommenders.top_k", 4.5, 5.0, 3, attrs={"candidates": 3}),
        ]
        dump = {"spans": spans, "index_entries": 11,
                "aggregates": {"activation.base_level": [4, 0.5, 9]}}
        m = tracing.layer_metrics([dump])
        assert m["recommenders.cf.ms_per_query"] == pytest.approx(1500.0)
        assert m["recommenders.cf.candidates_per_query"] == 5.0
        assert m["recommenders.top_k_s"] == pytest.approx(1.0)
        assert m["cli.self_s"] == pytest.approx(7.0)
        assert m["recommenders.self_s"] == pytest.approx(3.0)
        assert m["activation.self_s"] == m["activation.base_level_s"] == 0.5
        assert m["activation.base_level.occurrences"] == 9
        assert m["data.index_entries"] == 11


class TestTracer:
    def test_install_rebinds_imported_names_and_records(self, tmp_path):
        import importlib

        posts, tweets, edges = write_small(tmp_path)
        modules = [importlib.import_module(f"memrec.{m}") for m in tracing.LAYERS]
        saved = [dict(vars(m)) for m in modules]
        saved_pkg = dict(vars(memrec))
        inits = (memrec.Folksonomy.__init__, memrec.TweetCorpus.__init__)
        tracer = tracing.Tracer()
        try:
            tracer.install("memrec")
            from memrec import cli, hashtags, recommenders

            assert recommenders.base_level is not saved[2]["base_level"]
            assert cli.score_bll_s is hashtags.score_bll_s
            assert cli.main(["hashtag-evaluate", "--tweets", str(tweets), "--edges", str(edges),
                             "--out", str(tmp_path / "out")]) == 0
        finally:
            for module, state in zip(modules, saved):
                module.__dict__.update(state)
            vars(memrec).update(saved_pkg)
            memrec.Folksonomy.__init__, memrec.TweetCorpus.__init__ = inits
        m = tracing.layer_metrics([json.loads(json.dumps(tracer.dump()))])
        assert m["hashtags.score_bll_s.calls_per_query"] == 3.0
        assert m["activation.base_level.calls"] > 0
        assert m["data.index_entries"] > 0
        assert m["hashtags.bll_isc.ms_per_query"] > 0


class TestChecks:
    def test_one_byte_change_is_a_failed_operation(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        report = out / "eval_report.csv"
        report.write_text("algorithm,metric,k,value,support\n", encoding="utf-8")
        reference = checks.file_digests(out)
        results = [{"command": "evaluate", "code": 0, "wall": 1.0}]

        ops = run.Ops()
        run.check_sequence(results, out, reference, {}, ops)
        assert (ops.attempted, ops.failed) == (1, 0)

        data = bytearray(report.read_bytes())
        data[-2] ^= 1
        report.write_bytes(bytes(data))
        ops = run.Ops()
        run.check_sequence(results, out, reference, {}, ops)
        assert (ops.attempted, ops.failed) == (1, 1)

    def test_nonzero_exit_is_a_failed_operation(self, tmp_path):
        ops = run.Ops()
        results = [{"command": "analyze", "code": 2, "wall": 0.1, "stderr": "data error"}]
        run.check_sequence(results, tmp_path, None, {}, ops)
        assert (ops.attempted, ops.failed) == (1, 1)

    def test_report_invariants(self, tmp_path):
        posts, _, _ = write_small(tmp_path)
        out = tmp_path / "out"
        from memrec import cli

        assert cli.main(["evaluate", "--posts", str(posts), "--jobs", "1",
                                "--out", str(out)]) == 0
        path = out / "eval_report.csv"
        supports = {a: 30 for a in memrec.ALGORITHMS}
        assert checks.report_problems(path, memrec.ALGORITHMS, supports) == []
        text = path.read_text(encoding="utf-8").replace(",recall,10,", ",recall,11,", 1)
        path.write_text(text, encoding="utf-8")
        assert checks.report_problems(path, memrec.ALGORITHMS, supports)


class TestOracle:
    def test_library_lists_match_reference_scorers(self, tmp_path):
        posts, tweets, edges = write_small(tmp_path)
        ref = oracle.PostsOracle(posts)
        split = memrec.chronological_split(memrec.parse_posts(posts), 2)
        assert {(p.user, p.resource, p.timestamp) for p in split.test} == set(ref.queries)
        for p in split.test[:5]:
            query = (p.user, p.resource, p.timestamp)
            for alg in memrec.ALGORITHMS:
                served = memrec.recommend(alg, split.train, query, 10).items
                assert oracle.topk_problem(ref.score(alg, query), served, 10) is None

        ref = oracle.TweetsOracle(tweets, edges)
        adapter = run.TweetsAdapter(memrec, {"tweets": tweets, "edges": edges})
        state = adapter.ingest()
        assert set(adapter.queries(state)) == set(ref.queries)
        for query in adapter.queries(state)[:5]:
            for alg in tracing.HASHTAG_ALGORITHMS:
                served = adapter.serve(state, alg, query)
                assert oracle.topk_problem(ref.score(alg, query), served, 10) is None

    def test_topk_problem_catches_wrong_lists(self):
        ref = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert oracle.topk_problem(ref, (("a", 3.0), ("b", 2.0)), 2) is None
        assert oracle.topk_problem(ref, (("b", 2.0), ("a", 3.0)), 2)
        assert oracle.topk_problem(ref, (("a", 3.0), ("c", 1.0)), 2)
        assert oracle.topk_problem(ref, (("a", 3.0), ("b", 2.5)), 2)
        assert oracle.topk_problem(ref, (("a", 3.0),), 2)


def test_catalogue_matches_benchmark_json():
    catalogue = json.loads((BENCH / "catalogue.json").read_text(encoding="utf-8"))
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(catalogue["workloads"])
    assert list(catalogue["workloads"]) == list(run.WORKLOADS)
    for key in ("end_to_end", "per_layer"):
        fields = ("name", "unit", "better", "bound") if key == "end_to_end" else ("name", "unit", "better")
        assert declared[key] == [{f: m[f] for f in fields} for m in catalogue[key]]
