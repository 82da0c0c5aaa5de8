import contextlib
import csv
import functools
import importlib
import inspect
import io
import multiprocessing
import os
import re
import string
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from synth import synthetic_posts, synthetic_tweets, write_posts_tsv, write_tweets_tsv

import memrec
from memrec import Post, TweetRecord
from memrec.cli import ExperimentConfig, main

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


# Opens as a regular file, but reading its first byte fails with EIO.
UNREADABLE = "/proc/self/mem"


def unreadable(path):
    """True where ``path`` exists and reading it fails."""
    try:
        with open(path, "rb") as fh:
            fh.read(1)
    except FileNotFoundError:
        return False
    except OSError:
        return True
    return False


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# The modules whose public functions a trace of the package wraps.
LAYERS = ("data", "activation", "recommenders", "evaluation", "hashtags", "analysis", "cli")


class TestPublicNames:
    """A tracer of the package's public functions reads every name of each
    module's ``__all__``; a name left there after its function is deleted
    would break every traced run."""

    @pytest.mark.parametrize("module", ["memrec"] + [f"memrec.{layer}" for layer in LAYERS])
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__all__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == []


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

    def test_non_utf8_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"u1\tr1\t100\ta\nu1\tr2\t200\tb\nu2\tr1\t300\tc\xff\n")
        assert main(["evaluate", "--posts", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3:" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_large_finite_decay_exponent(self, tmp_path):
        # every base-level term underflows to 0 at d = 1000
        posts = write_posts_tsv(tmp_path / "posts.tsv", synthetic_posts())
        for d in ("1000", "1e300"):
            argv = ["evaluate", "--posts", str(posts), "--d", d, "--jobs", "1"]
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", [["evaluate"], ["recommend", "u001", "r001"]])
    def test_overflowing_decay_exponent_is_config_error(self, tmp_path, capsys, command):
        # -d * ln(elapsed) overflows for d near the float maximum
        posts = write_posts_tsv(tmp_path / "posts.tsv", synthetic_posts())
        argv = [*command, "--posts", str(posts), "--algorithms", "bll", "--d", "1.7e308"]
        assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "decay exponent" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--jobs", "-1", "jobs must be an integer >= 0, got -1"),
            ("--k", "0", "k must be an integer >= 1, got 0"),
            ("--min-posts", "1", "min_posts must be an integer >= 2, got 1"),
        ],
        ids=["jobs", "k", "min-posts"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_negative_jobs_is_config_error_before_reading(
        self, tmp_path, capsys, command, flag, value, message
    ):
        # the inputs do not exist, so reading them would exit 2
        missing = str(tmp_path / "missing.tsv")
        inputs = ["--posts", missing, "--tweets", missing, "--edges", missing]
        assert main([command, *inputs, flag, value, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, jobs", [([], 1), (["--jobs", "2"], 2), (["--jobs", "0"], 0)])
    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_serial_unless_jobs_given(
        self, posts_file, tweet_files, tmp_path, monkeypatch, command, flags, jobs
    ):
        import memrec.cli as cli

        # the harness each subcommand calls: the library evaluate, or _evaluate itself
        name = "evaluate" if command == "evaluate" else "_evaluate"
        seen, real = [], getattr(cli, name)

        def spy(*args, **kwargs):
            call = inspect.signature(real).bind(*args, **kwargs)
            seen.append(call.arguments["jobs"])  # record the value passed; score serially
            call.arguments["jobs"] = 1
            return real(*call.args, **call.kwargs)

        monkeypatch.setattr(cli, name, spy)
        inputs = ["--posts", str(posts_file)] if command == "evaluate" else tweet_files
        assert main([command, *inputs, "--out", str(tmp_path / "out"), *flags]) == 0
        assert seen == [jobs]

    @pytest.mark.parametrize("command", [["evaluate"], ["recommend", "u1", "r1"]])
    def test_timestamp_out_of_range_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tr1\t100\ta\nu1\tr2\t" + "9" * 401 + "\tb\n", encoding="utf-8")
        argv = [*command, "--posts", str(bad), "--jobs", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "timestamp out of range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, wording",
        [
            pytest.param("9" * 5000, "timestamp out of range", id="5000-digits"),
            pytest.param("-" + "9" * 5000, "timestamp out of range", id="5000-digits-negative"),
            pytest.param("x" * 5000, "bad timestamp '" + "x" * 40 + "\u2026'", id="5000-letters"),
            # the grammar is ASCII [0-9]+: what int() would also accept is refused
            pytest.param(" 100", "bad timestamp ' 100'", id="leading-space"),
            pytest.param("100 ", "bad timestamp '100 '", id="trailing-space"),
            pytest.param("+100", "bad timestamp '+100'", id="plus-sign"),
            pytest.param("1_000", "bad timestamp '1_000'", id="underscore"),
            pytest.param("\u0663\u0660\u0660", "bad timestamp '\u0663\u0660\u0660'", id="arabic-indic"),
            pytest.param("\uff11\uff10\uff10", "bad timestamp '\uff11\uff10\uff10'", id="full-width"),
            pytest.param("-0", "timestamp out of range", id="minus-zero"),
        ],
    )
    @pytest.mark.parametrize(
        "command, line",
        [
            pytest.param("evaluate", "u1\tr1\t{}\ta\n", id="posts"),
            pytest.param("hashtag-evaluate", "u1\t{}\tml\tdeep\n", id="tweets"),
        ],
    )
    def test_long_timestamp_field_gives_a_short_error(
        self, tmp_path, capsys, command, line, field, wording
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text(line.format(field), encoding="utf-8")
        edges = tmp_path / "edges.tsv"
        edges.write_text(EDGES, encoding="utf-8")
        inputs = ["--posts", str(bad)]
        if command == "hashtag-evaluate":
            inputs = ["--tweets", str(bad), "--edges", str(edges)]
        assert main([command, *inputs, "--jobs", "1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: {wording}" in err
        assert len(err.encode("utf-8")) < 200

    @pytest.mark.parametrize(
        "command, out",
        [
            pytest.param("evaluate", "plain-file/out", id="evaluate"),
            pytest.param("analyze", "plain-file/out", id="analyze"),
            pytest.param("evaluate", "o\x00x", id="evaluate-nul-byte"),
        ],
    )
    def test_unwritable_out_is_config_error(self, posts_file, tmp_path, capsys, command, out):
        (tmp_path / "plain-file").write_text("", encoding="utf-8")
        out = str(tmp_path / out) if out.startswith("plain-file") else out
        argv = [command, "--posts", str(posts_file), "--jobs", "1"]
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert f"out: cannot create {out}: " in err and "Traceback" not in err

    def test_report_path_taken_by_directory_is_config_error(self, posts_file, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "eval_report.csv").mkdir(parents=True)
        argv = ["evaluate", "--posts", str(posts_file), "--jobs", "1", "--out", str(out)]
        assert main(argv) == 1
        assert "out: cannot write" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_report_write_is_config_error(self, posts_file, tmp_path, capsys):
        # opening /dev/full succeeds; the write or the close fails with ENOSPC
        out = tmp_path / "out"
        out.mkdir()
        (out / "eval_report.csv").symlink_to("/dev/full")
        argv = ["evaluate", "--posts", str(posts_file), "--jobs", "1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"out: cannot write {out / 'eval_report.csv'}: " in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not unreadable(UNREADABLE), reason=f"needs an unreadable {UNREADABLE}")
    @pytest.mark.parametrize("flag, code", [("--posts", 2), ("--config", 1)])
    def test_unreadable_input_exits_cleanly(self, flag, code, capsys):
        assert main(["evaluate", flag, UNREADABLE, "--jobs", "1"]) == code
        err = capsys.readouterr().err
        assert f"{UNREADABLE}:1: cannot read (" in err
        assert "Traceback" not in err

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
        padded = ["recommend", " U1 ", " R1 ", *args[3:]]  # ids normalised as at ingest
        assert main(padded) == 0
        assert capsys.readouterr().out == first

    def test_k_zero_is_config_error(self, posts_file, capsys):
        assert main(["recommend", "u1", "r1", "--posts", str(posts_file), "--k", "0"]) == 1
        assert "k" in capsys.readouterr().err

    def test_more_than_one_algorithm_is_config_error(self, posts_file, capsys):
        args = ["recommend", "u1", "r1", "--posts", str(posts_file), "--algorithms", "bll,cf"]
        assert main(args) == 1
        assert "one id" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["plain-file/out", "fresh/out"])
    def test_out_is_never_touched(self, posts_file, tmp_path, capsys, out):
        # recommend writes no report, so even an --out that cannot be created is no error
        (tmp_path / "plain-file").write_text("", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        args = ["recommend", "u1", "r1", "--posts", str(posts_file), "--out", str(tmp_path / out)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_newest_post_at_the_last_second(self, tmp_path, capsys):
        # scored just after the newest post, but never past the timestamp range
        path = tmp_path / "posts.tsv"
        path.write_text(f"u1\tr1\t{2**63 - 1}\ta\n", encoding="utf-8")
        assert main(["recommend", "u1", "r2", "--posts", str(path), "--algorithms", "bll"]) == 0
        assert capsys.readouterr() == ("a\t0.000000\n", "")

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

    def test_non_utf8_line_names_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"d = 0.5\nk = 1\xfe0\n")
        assert main(["evaluate", "--config", str(config)]) == 1
        assert f"{config}:2:" in capsys.readouterr().err

    def test_bad_value_names_key(self, posts_file, tweet_files, tmp_path, capsys):
        # every setting is a config key and a flag; a bad value exits 1 naming the key
        paths = {"posts": str(posts_file), "tweets": tweet_files[1], "edges": tweet_files[3]}
        bad_values = [
            ("posts", "missing.tsv"),
            ("tweets", "missing.tsv"),
            ("edges", "missing.tsv"),
            ("algorithms", "oracle"),
            ("d", "fast"),
            ("beta", "half"),
            ("gamma", "half"),
            ("k", "10,3"),  # k is one integer
            ("k", "abc"),
            ("min_posts", "many"),
            ("out", str(posts_file / "sub")),  # a path through a plain file
            ("jobs", "two"),
            ("cf_neighbors", "many"),
            ("precision_denominator", "max"),
        ]
        assert {key for key, _ in bad_values} == {f.name for f in fields(ExperimentConfig)}
        config = tmp_path / "run.conf"
        for key, value in bad_values:
            command = "hashtag-evaluate" if key in ("tweets", "edges") else "evaluate"
            values = {**paths, key: value}
            config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
            assert main([command, "--config", str(config)]) == 1, key
            assert f"{key}:" in capsys.readouterr().err
            # the same value as a flag is parsed by the same rule
            flags = [arg for k, v in values.items() for arg in ("--" + k.replace("_", "-"), v)]
            assert main([command, *flags]) == 1, key
            assert f"{key}:" in capsys.readouterr().err

    def test_d_must_be_positive(self, posts_file, capsys):
        for value in ("0", "-1", "inf", "nan"):
            assert main(["evaluate", "--posts", str(posts_file), "--d", value]) == 1
            assert "d must be" in capsys.readouterr().err

    def test_beta_range_checked(self, posts_file, capsys):
        assert main(["evaluate", "--posts", str(posts_file), "--beta", "1.2"]) == 1
        assert "beta" in capsys.readouterr().err

    def test_gamma_range_checked(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("gamma = 1.5\n", encoding="utf-8")
        assert main(["hashtag-evaluate", "--config", str(config)]) == 1
        assert "gamma must be in [0, 1], got 1.5" in capsys.readouterr().err


# One line breaking each data-file rule, appended to the valid POSTS / TWEETS / EDGES.
RULE_LINES = {
    "posts": {
        "negative-timestamp": "u9\tr9\t-1\ta\n",
        "timestamp-2**63": f"u9\tr9\t{2**63}\ta\n",
        "empty-tag-list": "u9\tr9\t100\t , \n",
        "empty-user-id": " \tr9\t100\ta\n",
        "duplicate-bookmark": "u1\tr1\t999\tz\n",
    },
    "tweets": {
        "negative-timestamp": "u9\t-1\tml\tdeep\n",
        "timestamp-2**63": f"u9\t{2**63}\tml\tdeep\n",
        "empty-user-id": " \t100\tml\tdeep\n",
    },
    "edges": {"empty-user-id": "u1\t \n", "self-edge": "u3\tU3\n"},
}
READERS = {
    "posts": ["evaluate", "recommend", "analyze"],
    "tweets": ["hashtag-evaluate"],
    "edges": ["hashtag-evaluate"],
}


REPORTS = {
    "evaluate": ["eval_report.csv"],
    "recommend": [],
    "analyze": ["reuse_frequency.csv", "reuse_recency.csv", "reuse_context.csv", "decay_fit.csv"],
    "hashtag-evaluate": ["hashtag_report.csv"],
}
# Timestamp fields the grammar refuses: signs, spaces, digit separators,
# other scripts' digits, values out of range or too long for int().
REFUSED_TIMESTAMPS = [
    "", "-1", "-0", "+100", " 100", "1_000", "1e3", "\u0663\u0660\u0660", "\uff11\uff10\uff10",
    str(2**63), "9" * 5000,
]
USERS = st.sampled_from(["u1", "u2", "U1", "\u00e9t\u00e9"])
IDS = st.sampled_from(["r1", "r2", "r3", "r4", "ml", "ai", "\u00e9t\u00e9"])
TIMES = st.sampled_from(["0", "100", "150", "300", str(2**63 - 1)])
COLUMNS = {
    "posts": [USERS, IDS, TIMES, st.lists(IDS, min_size=1, max_size=3).map(",".join)],
    "tweets": [USERS, TIMES, st.lists(IDS, max_size=3).map(",".join), IDS],
    "edges": [st.sampled_from(["u1", "\u00e9t\u00e9"]), st.sampled_from(["u2", "U2", "u3"])],
}
JUNK = st.one_of(  # "\udcff" is written as the byte 0xff: not UTF-8
    st.sampled_from([*REFUSED_TIMESTAMPS, "\x00", "\udcff", "x" * 60]),
    st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\r\n"), max_size=12),
)
FLAG_VALUES = {
    "--d": ["0.5", "1000", "1e300", "1.7e308", "0", "nan"],
    "--beta": ["0", "0.3", "1", "1.5"],
    "--gamma": ["0", "0.7", "1", "-1"],
    "--k": ["1", "3", "0"],
    "--min-posts": ["2", "3", "1"],
    "--algorithms": ["mp_u,bll", "bll_ac_mp_r,cf", "bll_i,bll_isc", "bll_s", "x"],
    "--cf-neighbors": ["1", "20", "0"],
    "--precision-denominator": ["min", "k", "max"],
}
FLAGS = st.lists(
    st.one_of(*(st.tuples(st.just(f), st.sampled_from(v)) for f, v in FLAG_VALUES.items())),
    max_size=2,
    unique_by=lambda flag: flag[0],
).map(lambda flags: [x for flag in flags for x in flag])


@st.composite
def data_file(draw, kind):
    """The text of one input file, and the number of a line whose timestamp the
    grammar refuses, or None; one other line may be replaced by random fields."""
    n = draw(st.integers(0, 8))
    rows = draw(st.lists(st.tuples(*COLUMNS[kind]).map(list), min_size=n, max_size=n))
    if kind == "posts":  # one post per (user, resource), as ids are compared in lowercase
        rows = list({(row[0].lower(), row[1].lower()): row for row in rows}.values())
    refused_at = None
    if rows and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        if kind != "edges" and draw(st.booleans()):
            rows[i][1 if kind == "tweets" else 2] = draw(st.sampled_from(REFUSED_TIMESTAMPS))
            refused_at = i + 1
        else:
            rows[i] = draw(st.lists(JUNK, max_size=6))
    return "".join("\t".join(row) + "\n" for row in rows), refused_at


# A working stream, or a real file that takes no more writes (where the system has one)
SINKS = ["stream", *(["/dev/full"] if Path("/dev/full").exists() else [])]


class TestInputContract:
    @settings(max_examples=100)
    @given(
        st.sampled_from(sorted(REPORTS)),
        st.fixed_dictionaries({kind: data_file(kind) for kind in READERS}),
        FLAGS,
        st.tuples(USERS, IDS),
        st.sampled_from(SINKS),
    )
    def test_generated_inputs_keep_the_exit_contract(self, command, files, flags, query, sink):
        read = [kind for kind in READERS if command in READERS[kind]]  # in parsing order
        with tempfile.TemporaryDirectory() as tmp:
            paths = {kind: Path(tmp, f"{kind}.tsv") for kind in files}
            for kind, (text, _) in files.items():
                paths[kind].write_text(text, encoding="utf-8", errors="surrogateescape")
            argv = [command, *(query if command == "recommend" else ())]
            argv += [f"--{kind}={paths[kind]}" for kind in read]
            argv += [*flags, "--jobs", "1"]

            def run(stdout, out):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([*argv, "--out", str(out)])
                return code, stderr.getvalue()

            out, stdout = Path(tmp, "out"), io.StringIO()
            code, err = run(stdout, out)
            event(f"{command} exit {code}")
            assert code in (0, 1, 2) and "Traceback" not in err
            refused_at = files[read[0]][1]  # a timestamp the first file read must fail on
            if code == 0:
                assert not refused_at
                assert all((out / report).is_file() for report in REPORTS[command])
            elif code == 1:
                assert "config error: " in err
            else:
                [line] = err.splitlines()
                named = [kind for kind in read if line.startswith(f"data error: {paths[kind]}:")]
                assert named, line
                # a line at fault is named with its number; a whole-file fault without
                rest = line[len(f"data error: {paths[named[0]]}:"):]
                at = re.match(r"(\d+): ", rest)
                assert at or rest.startswith(" ")
                if refused_at:
                    assert named == read[:1] and at and int(at[1]) <= refused_at
            if sink == "/dev/full":
                with open(sink, "w") as full:
                    full_code, full_err = run(full, Path(tmp, "full"))
                event(f"{command} to /dev/full exit {full_code}")
                if code == 0 and stdout.getvalue():  # recommend may serve an empty list
                    assert full_code == 1
                    # the same warnings, then the one error line
                    assert full_err == err + "config error: stdout: No space left on device\n"
                    for report in REPORTS[command]:
                        assert Path(tmp, "full", report).read_bytes() == (out / report).read_bytes()
                else:
                    assert (full_code, full_err) == (code, err)

    @pytest.mark.parametrize(
        "kind, bad_line, command",
        [
            pytest.param(kind, line, command, id=f"{command}-{kind}-{rule}")
            for kind, rules in RULE_LINES.items()
            for rule, line in rules.items()
            for command in READERS[kind]
        ],
    )
    def test_data_file_rule_exits_2_with_file_and_line(
        self, tmp_path, capsys, kind, bad_line, command
    ):
        valid = {"posts": POSTS, "tweets": TWEETS, "edges": EDGES}
        paths = {name: tmp_path / f"{name}.tsv" for name in valid}
        for name, text in valid.items():
            paths[name].write_text(text + (bad_line if name == kind else ""), encoding="utf-8")
        inputs = [f"--{name}={paths[name]}" for name in valid if command in READERS[name]]
        query = ["u1", "r1"] if command == "recommend" else []
        argv = [command, *query, *inputs, "--jobs", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{paths[kind]}:{valid[kind].count(chr(10)) + 1}: " in err
        assert "Traceback" not in err


def rename(posts, tweets, edges, f):
    """Apply ``f`` to every id and term."""
    return (
        [Post(f(p.user), f(p.resource), tuple(map(f, p.tags)), p.timestamp) for p in posts],
        [TweetRecord(f(t.user), tuple(map(f, t.hashtags)), tuple(map(f, t.terms)), t.timestamp)
         for t in tweets],
        [(f(a), f(b)) for a, b in edges],
    )


def upper_cased(draw, posts, tweets, edges):
    return rename(posts, tweets, edges, str.upper)


def mixed_case(draw, posts, tweets, edges):
    """Upper-case about half of the occurrences of each id, so that one id
    appears in both cases (upper-casing every id keeps the order of ASCII ids)."""
    rng = draw(st.randoms(use_true_random=True))
    return rename(posts, tweets, edges, lambda s: s.upper() if rng.random() < 0.5 else s)


def prefixed(draw, posts, tweets, edges):
    prefix = draw(st.text(string.ascii_letters + string.digits + "_-.:\u00e9", min_size=1, max_size=4))
    return rename(posts, tweets, edges, lambda s: prefix + s)


def shifted(draw, posts, tweets, edges):
    """Add to every timestamp 10**12, the largest shift that keeps all of them
    below 2**63, or any shift in between."""
    room = 2**63 - 1 - max(r.timestamp for r in [*posts, *tweets])
    dt = draw(st.one_of(st.sampled_from([10**12, room]), st.integers(1, room)))
    return (
        [Post(p.user, p.resource, p.tags, p.timestamp + dt) for p in posts],
        [TweetRecord(t.user, t.hashtags, t.terms, t.timestamp + dt) for t in tweets],
        edges,
    )


def shuffled(draw, posts, tweets, edges):
    """Posts and edges in any order; tweets interleaved across users, each
    user's in file order (the later of two same-second tweets is held out)."""
    rng = draw(st.randoms(use_true_random=True))
    own = {}
    for t in tweets:
        own.setdefault(t.user, []).append(t)
    turns = [t.user for t in tweets]
    rng.shuffle(turns)
    queues = {user: iter(ts) for user, ts in own.items()}
    tweets = [next(queues[user]) for user in turns]
    return rng.sample(posts, len(posts)), tweets, rng.sample(edges, len(edges))


def one_user_permuted(draw, posts, tweets, edges):
    """One user's tweets permuted among their own lines. Their timestamps are
    distinct, so ordering them by time does not read the file order."""
    lines = {}
    for i, t in enumerate(tweets):
        lines.setdefault(t.user, []).append(i)
    users = sorted(
        user for user, own in lines.items()
        if len(own) > 1 and len({tweets[i].timestamp for i in own}) == len(own)
    )
    own = lines[draw(st.sampled_from(users))]
    moved = list(tweets)
    for line, i in zip(own, draw(st.permutations(own))):
        moved[line] = tweets[i]
    return posts, moved, edges


# Each relation draws its parameters with ``draw``, then rewrites the inputs.
RELATIONS = {
    "upper-cased ids": upper_cased,
    "mixed-case ids": mixed_case,
    "common id prefix": prefixed,
    "shifted timestamps": shifted,
    "shuffled lines": shuffled,
    "one user's tweets permuted": one_user_permuted,
}


def all_reports(out, posts, tweets, edges):
    """The bytes of every report that evaluate, analyze and hashtag-evaluate write."""
    posts_path = write_posts_tsv(out.with_suffix(".posts"), posts)
    tweets_path, edges_path = write_tweets_tsv(
        out.with_suffix(".tweets"), out.with_suffix(".edges"), tweets, edges
    )
    for argv in (
        ["evaluate", "--posts", str(posts_path)],
        ["analyze", "--posts", str(posts_path)],
        ["hashtag-evaluate", "--tweets", str(tweets_path), "--edges", str(edges_path)],
    ):
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for names in REPORTS.values() for name in names}


class TestMetamorphicReports:
    """Transformations that by the documented semantics cannot change a
    report leave every report byte-identical: ids are lowercased at ingest,
    a common prefix keeps the order of ids and so every tie-break, scores
    read only differences of timestamps, and records are kept in a canonical
    order (tweets per user by time, in file order for ties)."""

    @pytest.mark.parametrize("relation", RELATIONS)
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reports_do_not_move(self, relation, seed, data):
        posts = synthetic_posts(seed=seed, n_users=30, n_resources=90, posts_per_user=8)
        tweets, edges = synthetic_tweets(seed=seed, n_users=20)
        moved = RELATIONS[relation](data.draw, posts, tweets, edges)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            before = all_reports(Path(tmp, "before"), posts, tweets, edges)
            after = all_reports(Path(tmp, "after"), *moved)
        assert len(before) == 6 and all(before.values())
        assert [name for name in before if after[name] != before[name]] == []


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [[], ["evaluate", "--turbo"], ["transmogrify"]])
    def test_usage_error_is_config_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "config error:" in err


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
        "analyze": ["--posts", str(posts)],
        "hashtag-evaluate": ["--tweets", str(tweets), "--edges", str(edges)],
    }


class TestPinnedReports:
    @pytest.mark.parametrize(
        "command, golden",
        [
            ("evaluate", "eval_report.csv"),
            ("hashtag-evaluate", "hashtag_report.csv"),
            # precision_denominator = k: every tag algorithm and bll_i serve some lists
            # shorter than 10 here, so these differ from the reports above
            ("evaluate", "eval_report_strict_k.csv"),
            ("hashtag-evaluate", "hashtag_report_strict_k.csv"),
        ],
    )
    def test_report_bytes_match_golden(self, tmp_path, command, golden):
        out = tmp_path / "out"
        args = [command, *pinned_inputs(tmp_path)[command], "--out", str(out), "--jobs", "1"]
        if golden.endswith("_strict_k.csv"):
            config = tmp_path / "strict.conf"
            config.write_text("precision_denominator = k\n", encoding="utf-8")
            args += ["--config", str(config)]
        assert main(args) == 0
        report = "eval_report.csv" if command == "evaluate" else "hashtag_report.csv"
        assert (out / report).read_bytes() == (GOLDEN / golden).read_bytes()

    def test_analyze_reports_match_golden(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", *pinned_inputs(tmp_path)["analyze"], "--out", str(out)]) == 0
        for report in ("reuse_frequency.csv", "reuse_recency.csv", "reuse_context.csv",
                       "decay_fit.csv"):
            assert (out / report).read_bytes() == (GOLDEN / report).read_bytes(), report


def run_cli(argv, stdout, buffered=True, **variables):
    """``python -m memrec argv`` in a fresh interpreter writing to ``stdout``;
    ``buffered`` False sets ``PYTHONUNBUFFERED``, so each print is a write.
    ``variables`` are added to the interpreter's environment."""
    path = [str(Path(memrec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **variables}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "memrec", *argv]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)


class TestStdoutContract:
    """A failed write to stdout is a configuration error, as for a report:
    exit 1, one stderr line, no traceback, and every report written first.
    ``--help`` goes through the same writer."""

    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_path_that_stdout_cannot_encode(self, tmp_path, command):
        # the byte 0xff, not UTF-8, reads as "\udcff", which a strict UTF-8 stdout,
        # the default under a UTF-8 locale, cannot write: it is escaped, as on stderr
        plain, odd = tmp_path / "plain", tmp_path / "odd-\udcff"
        try:
            odd.mkdir()
        except (OSError, UnicodeError):
            pytest.skip("the filesystem rejects a name that is not UTF-8")
        plain.mkdir()
        shown = {plain: str(plain), odd: str(odd).replace("\udcff", "\\udcff")}
        stdouts = []
        for folder in (plain, odd):
            argv = [command, *pinned_inputs(folder)[command], "--out", str(folder / "out")]
            run = run_cli(argv, subprocess.PIPE, PYTHONIOENCODING="utf-8:strict")
            stdout, err = run.communicate()
            assert (run.returncode, err) == (0, "")
            stdouts.append(stdout.replace(shown[folder], "FOLDER"))
        # the input path in the title line, and the out path in the wrote line
        assert stdouts[0] == stdouts[1] and stdouts[0].count("FOLDER") == 2
        for report in REPORTS[command]:
            assert (odd / "out" / report).read_bytes() == (plain / "out" / report).read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"]])
    def test_help_is_printed_by_main(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: memrec") and out.endswith("\n") and err == ""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "sink, reason",
        [
            pytest.param(
                "/dev/full",
                "No space left on device",
                marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full"),
            ),
            # the reader has gone before the first write, as after `| head -c 0`
            ("closed pipe", "Broken pipe"),
        ],
    )
    @pytest.mark.parametrize("command", [*REPORTS, "--help", "evaluate --help"])
    def test_failed_stdout_exits_1_after_the_reports(self, tmp_path, command, sink, reason, buffered):
        inputs = pinned_inputs(tmp_path)
        if command.endswith("--help"):
            argv = command.split()
        else:
            if command == "recommend":
                argv = ["recommend", *inputs["evaluate"], "u000", "r000"]
            else:
                argv = [command, *inputs[command], "--jobs", "1"]
            assert main(argv + ["--out", str(tmp_path / "normal")]) == 0
            argv += ["--out", str(tmp_path / "failed")]
        if sink == "/dev/full":
            with open(sink, "w") as stdout:
                run = run_cli(argv, stdout, buffered)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            run = run_cli(argv, write_end, buffered)
            os.close(write_end)
        _, err = run.communicate()
        assert run.returncode == 1
        assert err == f"config error: stdout: {reason}\n"
        for report in REPORTS.get(command, []):
            written = (tmp_path / "failed" / report).read_bytes()
            assert written == (tmp_path / "normal" / report).read_bytes(), report

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_pipe_closed_after_the_first_read(self, tmp_path, buffered):
        # more lines than any pipe holds, so the writer is still printing when the reader
        # goes; unbuffered, one write of all the lines could be cut short without an error
        n = 100_000
        tags = [f"t{i:06d}" for i in range(n)]
        posts = tmp_path / "posts.tsv"
        posts.write_text(f"u\tr\t1\t{','.join(tags)}\n", encoding="utf-8")
        argv = ["recommend", "--posts", str(posts), "--k", str(n), "u", "r"]
        run = run_cli(argv, subprocess.PIPE, buffered)
        first = os.read(run.stdout.fileno(), 4096)
        run.stdout.close()
        _, err = run.communicate()
        assert run.returncode == 1
        assert err == "config error: stdout: Broken pipe\n"
        assert first and "".join(f"{tag}\t1.000000\n" for tag in tags).encode().startswith(first)


# The CLI under a start method given as its first argument, with every pool
# worker made to die in its initializer. The patch is made where a "spawn" or
# "forkserver" worker imports this script too, and the initializer is pickled
# by its name in the script.
DEAD_WORKER_MAIN = """\
import multiprocessing, os, sys
from memrec import evaluation
from memrec.cli import main


def die(*state):
    os._exit(1)


evaluation._init_state = die
evaluation._workers = lambda jobs, n_cases: 2  # a pool of two, on any number of CPUs
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(sys.argv[2:]))
"""

DEAD_WORKER_ERROR = "config error: jobs: a worker process ended abruptly\n"


class TestDeadWorker:
    """A pool worker that dies, or that cannot start, keeps the exit contract:
    exit 1, one stderr line, no traceback and no report."""

    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_without_named_semaphores(
        self, posts_file, tweet_files, tmp_path, monkeypatch, capsys, command
    ):
        import concurrent.futures.process as pool_module
        import memrec.evaluation as evaluation

        # what the pool raises where multiprocessing.synchronize cannot be used
        reason = "system provides too few semaphores (30 available, 256 necessary)"

        def no_pool(*args, **kwargs):
            raise NotImplementedError(reason)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(evaluation, "_workers", lambda jobs, n_cases: 2)
        inputs = ["--posts", str(posts_file)] if command == "evaluate" else tweet_files
        assert main([command, *inputs, "--jobs", "2", "--out", str(tmp_path / "out")]) == 1
        err = f"config error: jobs: cannot start a worker: {reason}\n"
        assert capsys.readouterr() == ("", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "hashtag-evaluate"])
    def test_under_fork(self, posts_file, tweet_files, tmp_path, monkeypatch, capsys, command):
        import concurrent.futures.process as pool_module
        import memrec.evaluation as evaluation

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no 'fork' start method on this platform")
        fork = multiprocessing.get_context("fork")
        pool = functools.partial(pool_module.ProcessPoolExecutor, mp_context=fork)
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(evaluation, "_init_state", lambda *state: os._exit(1))
        monkeypatch.setattr(evaluation, "_workers", lambda jobs, n_cases: 2)
        inputs = ["--posts", str(posts_file)] if command == "evaluate" else tweet_files
        assert main([command, *inputs, "--jobs", "2", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", DEAD_WORKER_ERROR)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_under_a_fresh_process(self, posts_file, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method!r} start method on this platform")
        script = tmp_path / "dead_worker.py"
        script.write_text(DEAD_WORKER_MAIN, encoding="utf-8")
        path = [str(Path(memrec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = tmp_path / "out"
        argv = [sys.executable, str(script), method, "evaluate", "--posts", str(posts_file),
                "--jobs", "2", "--out", str(out)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", DEAD_WORKER_ERROR)
        assert not out.exists()


class TestHashSeed:
    """Score maps carry no order, and iterating a set of ids follows the hash
    seed, which differs between processes. Only ``top_k`` orders a list, so
    stdout and every report are the same bytes under any seed."""

    @pytest.mark.parametrize(
        "command",
        [
            # --k 50 serves each whole map; nosuch takes cf's cold branch
            "recommend --algorithms cf --k 50 u000 nosuch",
            "recommend --algorithms bll_ac_mp_r --k 50 u000 r006",
            "evaluate --jobs 1",
            "analyze",
            "hashtag-evaluate",
        ],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path, command):
        name, *flags = command.split()
        inputs = pinned_inputs(tmp_path)
        argv = [name, *inputs.get(name, inputs["evaluate"]), *flags, "--out", str(tmp_path / "out")]
        runs = []
        for seed in ("0", "1"):
            run = run_cli(argv, subprocess.PIPE, PYTHONHASHSEED=seed)
            stdout, err = run.communicate()
            assert run.returncode == 0 and err == ""
            reports = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("out/*"))}
            runs.append((stdout, reports))
        assert runs[0] == runs[1]
        assert runs[0][0] and (name == "recommend" or runs[0][1])
