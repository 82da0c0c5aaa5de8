import csv
from pathlib import Path

import pytest

from synth import synthetic_posts, synthetic_tweets, write_posts_tsv, write_tweets_tsv

from memrec.cli import main

POSTS = (
    "u1\tr1\t100\ta\n"
    "u1\tr2\t200\ta,b\n"
    "u1\tr3\t300\ta,c\n"
    "u2\tr1\t150\tb\n"
    "u2\tr2\t500\ta,b\n"
    "u3\tr3\t400\tc\n"
)

TWEETS = (
    "u1\t100\tml\tdeep learning\n"
    "u1\t200\tml,ai\tlearning models\n"
    "u1\t300\tml\tmore learning\n"
    "u2\t150\tai\trobots\n"
    "u2\t400\tai\tsmart robots\n"
)

EDGES = "u1\tu2\nu2\tu1\n"


@pytest.fixture
def posts_file(tmp_path):
    path = tmp_path / "posts.tsv"
    path.write_text(POSTS, encoding="utf-8")
    return path


@pytest.fixture
def tweet_files(tmp_path):
    tweets = tmp_path / "tweets.tsv"
    tweets.write_text(TWEETS, encoding="utf-8")
    edges = tmp_path / "edges.tsv"
    edges.write_text(EDGES, encoding="utf-8")
    return ["--tweets", str(tweets), "--edges", str(edges)]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestEvaluateCommand:
    def test_happy_path(self, posts_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--posts", str(posts_file), "--out", str(out),
             "--algorithms", "mp_u,bll", "--jobs", "1"]
        )
        assert code == 0
        rows = read_csv(out / "eval_report.csv")
        assert rows[0] == ["algorithm", "metric", "k", "value", "support"]
        algorithms = {row[0] for row in rows[1:]}
        assert algorithms == {"mp_u", "bll"}
        metrics = {(row[0], row[1], row[2]) for row in rows[1:]}
        assert ("mp_u", "f1", "5") in metrics
        assert ("bll", "ndcg", "10") in metrics
        # one f1, one ndcg, and precision+recall for k=1..10, per algorithm
        assert len(rows) == 1 + 2 * 22
        assert "F1@5" in capsys.readouterr().out

    def test_missing_posts_path(self, capsys):
        assert main(["evaluate"]) == 1
        assert "posts" in capsys.readouterr().err

    def test_nonexistent_posts_path(self, capsys):
        assert main(["evaluate", "--posts", "/no/such/file.tsv"]) == 1
        assert "posts" in capsys.readouterr().err

    def test_malformed_tsv(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tr1\t100\ta\ngarbage line\n", encoding="utf-8")
        assert main(["evaluate", "--posts", str(bad)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_algorithm(self, posts_file, capsys):
        code = main(["evaluate", "--posts", str(posts_file), "--algorithms", "magic"])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_no_qualifying_users(self, tmp_path, capsys):
        lonely = tmp_path / "lonely.tsv"
        lonely.write_text("u1\tr1\t100\ta\n", encoding="utf-8")
        assert main(["evaluate", "--posts", str(lonely)]) == 2
        assert "no user" in capsys.readouterr().err


class TestRecommendCommand:
    def test_deterministic_output(self, posts_file, capsys):
        args = ["recommend", "u1", "r1", "--posts", str(posts_file),
                "--algorithms", "mp_u", "--k", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        lines = first.strip().split("\n")
        assert len(lines) == 2
        tag, score = lines[0].split("\t")
        assert tag == "a"
        assert score == "3.000000"

    def test_k_zero_is_config_error(self, posts_file, capsys):
        assert main(["recommend", "u1", "r1", "--posts", str(posts_file), "--k", "0"]) == 1
        assert "k" in capsys.readouterr().err

    def test_unknown_user_cold_start(self, posts_file, capsys):
        code = main(
            ["recommend", "nobody", "r1", "--posts", str(posts_file),
             "--algorithms", "bll_ac_mp_r", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(("a\t", "b\t"))  # falls back to resource popularity


class TestAnalyzeCommand:
    def test_writes_four_files(self, posts_file, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--posts", str(posts_file), "--out", str(out)]) == 0
        for name in ("reuse_frequency.csv", "reuse_recency.csv", "reuse_context.csv", "decay_fit.csv"):
            rows = read_csv(out / name)
            assert rows, name
        freq_rows = read_csv(out / "reuse_frequency.csv")
        assert freq_rows[0] == ["dimension", "bin", "probability", "support"]
        assert all(row[0] == "frequency" for row in freq_rows[1:])

    def test_power_law_input_selects_power(self, tmp_path):
        # one user per elapsed gap; tag reuse probability follows t^-0.5 by
        # construction: at gap t, fraction t^-0.5 of users reuse the tag
        lines = []
        uid = 0
        for gap_exp in range(8):
            gap = 4**gap_exp
            n_users = 400
            n_reusers = round(n_users * gap**-0.5)
            for i in range(n_users):
                tag = "keep" if i < n_reusers else f"other{uid}"
                lines.append(f"u{uid}\tra\t{10_000_000 - gap}\tkeep")
                lines.append(f"u{uid}\trb\t10000000\t{tag}")
                uid += 1
        data = tmp_path / "journeys.tsv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--posts", str(data), "--out", str(out)]) == 0
        rows = read_csv(out / "decay_fit.csv")
        assert rows[0] == ["model", "slope", "intercept", "r_squared", "selected"]
        by_model = {row[0]: row for row in rows[1:]}
        assert by_model["power"][4] == "1"
        assert by_model["exponential"][4] == "0"
        assert abs(float(by_model["power"][1]) + 0.5) < 0.1

    def test_no_qualifying_users(self, tmp_path, capsys):
        lonely = tmp_path / "lonely.tsv"
        lonely.write_text("u1\tr1\t100\ta\n", encoding="utf-8")
        assert main(["analyze", "--posts", str(lonely)]) == 2
        assert "no user" in capsys.readouterr().err


class TestHashtagEvaluateCommand:
    def test_report_rows(self, tmp_path):
        tweets = tmp_path / "tweets.tsv"
        tweets.write_text(TWEETS, encoding="utf-8")
        edges = tmp_path / "edges.tsv"
        edges.write_text(EDGES, encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["hashtag-evaluate", "--tweets", str(tweets), "--edges", str(edges), "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "hashtag_report.csv")
        algorithms = {row[0] for row in rows[1:]}
        assert algorithms == {"bll_i", "bll_s", "bll_is", "bll_isc", "usage_breakdown"}
        fractions = [float(row[3]) for row in rows if row[0] == "usage_breakdown"]
        assert len(fractions) == 4
        assert abs(sum(fractions) - 1.0) < 1e-6  # rounded to 6 decimals in CSV

    @pytest.mark.parametrize("flags, jobs", [([], 1), (["--jobs", "2"], 2), (["--jobs", "0"], 0)])
    def test_serial_unless_jobs_given(self, tweet_files, tmp_path, monkeypatch, flags, jobs):
        import memrec.cli as cli

        seen, real = [], cli._evaluate

        def spy(registry, algorithms, model, cases, n_jobs, strict_k):
            seen.append(n_jobs)  # record the resolved value; score serially
            return real(registry, algorithms, model, cases, 1, strict_k)

        monkeypatch.setattr(cli, "_evaluate", spy)
        args = ["hashtag-evaluate", *tweet_files, "--out", str(tmp_path / "out"), *flags]
        assert main(args) == 0
        assert seen == [jobs]

    def test_self_reuse_only_has_zero_social_fraction(self, tmp_path):
        tweets = tmp_path / "tweets.tsv"
        tweets.write_text(
            "u1\t100\tx\tfirst words\nu1\t200\tx\tsecond words\n", encoding="utf-8"
        )
        edges = tmp_path / "edges.tsv"
        edges.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["hashtag-evaluate", "--tweets", str(tweets), "--edges", str(edges), "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "hashtag_report.csv")
        breakdown = {row[1]: float(row[3]) for row in rows if row[0] == "usage_breakdown"}
        assert breakdown["social_only"] == 0.0
        assert breakdown["both"] == 0.0
        assert breakdown["individual_only"] == 0.5
        assert breakdown["external"] == 0.5

    def test_requires_both_paths(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.tsv"
        tweets.write_text(TWEETS, encoding="utf-8")
        assert main(["hashtag-evaluate", "--tweets", str(tweets)]) == 1
        assert "edges" in capsys.readouterr().err


    def test_algorithms_come_from_hashtag_registry(self, tweet_files, tmp_path):
        out = tmp_path / "out"
        args = ["hashtag-evaluate", *tweet_files, "--out", str(out), "--algorithms", "bll_s"]
        assert main(args) == 0
        rows = read_csv(out / "hashtag_report.csv")
        assert {row[0] for row in rows[1:]} == {"bll_s", "usage_breakdown"}

    def test_tag_algorithm_rejected(self, tweet_files, tmp_path, capsys):
        code = main(["hashtag-evaluate", *tweet_files, "--out", str(tmp_path / "out"),
                     "--algorithms", "cf"])
        assert code == 1
        assert "cf" in capsys.readouterr().err

    def test_no_held_out_tweet_has_terms(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.tsv"
        tweets.write_text("u1\t100\tml\tdeep learning\nu1\t200\tml\t\n", encoding="utf-8")
        edges = tmp_path / "edges.tsv"
        edges.write_text("", encoding="utf-8")
        code = main(["hashtag-evaluate", "--tweets", str(tweets), "--edges", str(edges),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no evaluable test tweets for bll_isc" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_and_flag_override(self, posts_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = tmp_path / "run.conf"
        config.write_text(
            f"posts = {posts_file}\n"
            "algorithms = mp_u  # comment survives parsing\n"
            f"out = {out_a}\n"
            "jobs = 1\n",
            encoding="utf-8",
        )
        assert main(["evaluate", "--config", str(config)]) == 0
        assert (out_a / "eval_report.csv").exists()
        assert main(["evaluate", "--config", str(config), "--out", str(out_b)]) == 0
        assert read_csv(out_b / "eval_report.csv") == read_csv(out_a / "eval_report.csv")

    def test_unknown_key_rejected(self, posts_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("posts = x\nturbo = on\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 1
        assert "turbo" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        for key, value in (("min_posts", "many"), ("k", "10,3")):  # k is one integer
            config.write_text(f"{key} = {value}\n", encoding="utf-8")
            assert main(["evaluate", "--config", str(config)]) == 1
            assert f"{key}:" in capsys.readouterr().err

    def test_d_must_be_positive(self, posts_file, capsys):
        assert main(["evaluate", "--posts", str(posts_file), "--d", "0"]) == 1
        assert "d must be" in capsys.readouterr().err

    def test_beta_range_checked(self, posts_file, capsys):
        assert main(["evaluate", "--posts", str(posts_file), "--beta", "1.2"]) == 1
        assert "beta" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


def pinned_inputs(tmp_path):
    """Small fixed inputs whose report bytes are pinned under ``golden/``."""
    posts = write_posts_tsv(
        tmp_path / "posts.tsv", synthetic_posts(n_users=40, n_resources=120, posts_per_user=8)
    )
    tweets, edges = write_tweets_tsv(
        tmp_path / "tweets.tsv", tmp_path / "edges.tsv", *synthetic_tweets()
    )
    return {
        "evaluate": ["--posts", str(posts)],
        "hashtag-evaluate": ["--tweets", str(tweets), "--edges", str(edges)],
    }


class TestPinnedReports:
    @pytest.mark.parametrize(
        "command, report",
        [("evaluate", "eval_report.csv"), ("hashtag-evaluate", "hashtag_report.csv")],
    )
    def test_report_bytes_match_golden(self, tmp_path, command, report):
        out = tmp_path / "out"
        args = [command, *pinned_inputs(tmp_path)[command], "--out", str(out), "--jobs", "1"]
        assert main(args) == 0
        assert (out / report).read_bytes() == (GOLDEN / report).read_bytes()
