"""Batch command-line entry point for reproducible experiments.

Subcommands:

* ``evaluate``          leave-newest-out evaluation of the tag recommenders
* ``recommend``         print top-k tags for one (user, resource) query
* ``analyze``           tag-reuse curves and the power-vs-exponential fit
* ``hashtag-evaluate``  hashtag recommenders over tweets plus a follow graph

Settings come from an optional ``key = value`` config file plus flags; flags
win. All CSV output is deterministic: fixed column order, floats rounded to
6 decimals, LF line endings.

Exit codes: 0 success, 1 configuration error, 2 data error. Each subcommand
returns its reports and stdout lines, and ``main`` alone writes them: every
report first, then the lines. A failed write to stdout (a full disk, a closed
pipe) is a configuration error, reported on stderr; ``--help`` goes through
the same writer and follows the same rule.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .activation import DecayParams
from .analysis import (
    DEFAULT_CONTEXT_EDGES,
    DEFAULT_FREQUENCY_EDGES,
    DEFAULT_RECENCY_EDGES,
    bin_reuse,
    compare_decay,
    reuse_observations,
)
from .data import (
    ParseError,
    _check_count,
    chronological_split,
    parse_edges,
    parse_posts,
    parse_tweets,
    read_lines,
)
from .evaluation import EvalReport, WorkerError, _evaluate, evaluate
from .hashtags import (
    HASHTAG_REGISTRY,
    HashtagModel,
    HashtagQuery,
    TweetCorpus,
    hashtag_usage_breakdown,
    leave_newest_out,
    # Not called here; bench/tracing.py checks that rebinding a public
    # function reaches the modules that import it, through this name.
    score_bll_s,  # noqa: F401
)
from .recommenders import TAG_REGISTRY, HybridParams, Registry, recommend

__all__ = ["ConfigError", "DataError", "ExperimentConfig", "main"]


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 1."""


class DataError(Exception):
    """Well-formed configuration but unusable data; maps to exit code 2."""


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_str_list(key: str, value: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in value.split(",") if piece.strip())


def _setting(default, help: str, parse=lambda key, value: value):
    """One setting: a config key and a flag; ``parse(key, value)`` converts its string value."""
    return field(default=default, metadata={"help": help, "parse": parse})


@dataclass
class ExperimentConfig:
    """Every setting. Each field is a config key and the flag ``--`` plus its
    name with ``_`` written ``-``; both values go through the same converter."""

    posts: str | None = _setting(None, "bookmark TSV")
    tweets: str | None = _setting(None, "tweet TSV")
    edges: str | None = _setting(None, "follower/followee TSV")
    algorithms: tuple[str, ...] | None = _setting(
        None, "comma-separated algorithm ids (default: all of the subcommand's)", _parse_str_list
    )
    d: float = _setting(0.5, "decay exponent (default 0.5)", _parse_float)
    beta: float = _setting(0.5, "first mixing weight in [0, 1]", _parse_float)
    gamma: float = _setting(0.5, "history-vs-content weight in [0, 1]", _parse_float)
    k: int = _setting(10, "list length for recommend", _parse_int)
    min_posts: int = _setting(2, "qualification threshold", _parse_int)
    out: str = _setting("out", "output directory (default ./out)")
    jobs: int = _setting(
        1, "worker processes, at most one per core; 0 = one per usable CPU (default 1)", _parse_int
    )
    cf_neighbors: int = _setting(20, "nearest users cf scores from (default 20)", _parse_int)
    precision_denominator: str = _setting("min", "'min' or 'k': what precision at k divides by")

    def validate(self) -> None:
        """Check every value; builds ``decay`` and ``hybrid``, which check their own."""
        try:
            self.decay = DecayParams(d=self.d)
            self.hybrid = HybridParams(self.beta, self.cf_neighbors, self.gamma)
            _check_count("k", self.k, 1)
            _check_count("min_posts", self.min_posts, 2)
            _check_count("jobs", self.jobs, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.precision_denominator not in ("min", "k"):
            raise ConfigError(
                f"precision_denominator: expected 'min' or 'k', got {self.precision_denominator!r}"
            )

    def algorithm_ids(self, registry: Registry) -> tuple[str, ...]:
        """The configured ids, checked against the subcommand's registry."""
        try:
            return registry.check(registry.ids if self.algorithms is None else self.algorithms)
        except ValueError as exc:
            raise ConfigError(f"algorithms: {exc}") from None


def load_config_file(path: str) -> dict:
    """Raw string values of a ``key = value`` config file ('#' starts a comment)."""
    if not Path(path).is_file():
        raise ConfigError(f"config: file not found: {path}")
    keys = {setting.name for setting in fields(ExperimentConfig)}
    values = {}
    try:
        for line_no, raw in read_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    return values


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Each setting's flag value, else its config-file value, through its converter."""
    values = load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if v is not None)  # flags win
    cfg = ExperimentConfig(**{
        setting.name: setting.metadata["parse"](setting.name, values[setting.name])
        for setting in fields(ExperimentConfig)
        if setting.name in values
    })
    cfg.validate()
    return cfg


def _require_path(cfg: ExperimentConfig, field_name: str) -> str:
    value = getattr(cfg, field_name)
    if not value:
        raise ConfigError(
            f"{field_name}: path is required (set '{field_name}' in the config file "
            f"or pass --{field_name})"
        )
    if not Path(value).is_file():
        raise ConfigError(f"{field_name}: file not found: {value}")
    return value


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_bin(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else _fmt(value)


def _metrics_report(name: str, title: str, algorithms, report: EvalReport, extra_rows=()):
    """The per-algorithm metrics (plus ``extra_rows``) as report ``name``, and a summary."""
    rows = []
    lines = [title, f"{'algorithm':<14}{'F1@5':>10}{'nDCG@10':>10}{'queries':>9}"]
    for algorithm in algorithms:
        rep = report.per_algorithm[algorithm]
        n = rep.users_evaluated
        rows.append([algorithm, "f1", 5, _fmt(rep.f1_at_5), n])
        rows.append([algorithm, "ndcg", 10, _fmt(rep.ndcg_at_10), n])
        for k, precision, recall in rep.pr_curve:
            rows.append([algorithm, "precision", k, _fmt(precision), n])
            rows.append([algorithm, "recall", k, _fmt(recall), n])
        lines.append(f"{algorithm:<14}{rep.f1_at_5:>10.6f}{rep.ndcg_at_10:>10.6f}{n:>9}")
    header = ["algorithm", "metric", "k", "value", "support"]
    return {name: (header, [*rows, *extra_rows])}, lines


def cmd_evaluate(cfg: ExperimentConfig, args: argparse.Namespace):
    posts_path = _require_path(cfg, "posts")
    algorithms = cfg.algorithm_ids(TAG_REGISTRY)
    # no name keeps the parsed folksonomy, so its columns are freed before scoring
    split = chronological_split(parse_posts(posts_path), cfg.min_posts)
    if not split.test:
        raise DataError(
            f"{posts_path}: no user has >= {cfg.min_posts} posts; nothing to evaluate"
        )
    report = evaluate(
        split,
        algorithms,
        decay=cfg.decay,
        hybrid=cfg.hybrid,
        jobs=cfg.jobs,
        strict_k=cfg.precision_denominator == "k",
    )
    title = f"evaluated {len(split.test)} held-out posts ({posts_path})"
    return _metrics_report("eval_report.csv", title, algorithms, report)


def cmd_recommend(cfg: ExperimentConfig, args: argparse.Namespace):
    posts_path = _require_path(cfg, "posts")
    algorithm, *extra = cfg.algorithm_ids(TAG_REGISTRY)  # unset: the registry's first id
    if extra and cfg.algorithms is not None:
        raise ConfigError(f"algorithms: recommend takes one id, got {', '.join(cfg.algorithms)}")
    folks = parse_posts(posts_path)
    # No held-out post supplies a reference time here, so score just after
    # the end of the training history, within the timestamp range.
    now = min(folks.timestamps[-1] + 1, 2**63 - 1) if len(folks) else 1  # oldest first
    query = (args.user.strip().lower(), args.resource.strip().lower(), now)  # as at ingest
    ranked = recommend(algorithm, folks, query, cfg.k, cfg.decay, cfg.hybrid)
    return {}, [f"{item}\t{score:.6f}" for item, score in ranked.items]


def cmd_analyze(cfg: ExperimentConfig, args: argparse.Namespace):
    posts_path = _require_path(cfg, "posts")
    observations = reuse_observations(parse_posts(posts_path), cfg.min_posts)
    if not observations:
        raise DataError(
            f"{posts_path}: no user has >= {cfg.min_posts} posts; nothing to analyze"
        )
    curves = {
        "frequency": bin_reuse(observations, "frequency", DEFAULT_FREQUENCY_EDGES),
        "recency": bin_reuse(observations, "recency", DEFAULT_RECENCY_EDGES),
        "context": bin_reuse(observations, "context", DEFAULT_CONTEXT_EDGES),
    }
    reports = {
        f"reuse_{dimension}.csv": (
            ["dimension", "bin", "probability", "support"],
            [[dimension, _fmt_bin(b.lower), _fmt(b.probability), b.support] for b in curve.bins],
        )
        for dimension, curve in curves.items()
    }
    try:
        comparison = compare_decay(curves["recency"])
    except ValueError as exc:
        print(f"warning: decay fit skipped: {exc}", file=sys.stderr)
        fits = ()
    else:
        fits = [
            [fit.model, _fmt(fit.slope), _fmt(fit.intercept), _fmt(fit.r_squared),
             int(fit.model == comparison.winner)]
            for fit in (comparison.power, comparison.exponential)
        ]
    reports["decay_fit.csv"] = (["model", "slope", "intercept", "r_squared", "selected"], fits)
    return reports, []


def cmd_hashtag_evaluate(cfg: ExperimentConfig, args: argparse.Namespace):
    tweets_path = _require_path(cfg, "tweets")
    edges_path = _require_path(cfg, "edges")
    algorithms = cfg.algorithm_ids(HASHTAG_REGISTRY)
    corpus = TweetCorpus(parse_tweets(tweets_path))
    graph = parse_edges(edges_path)
    split = leave_newest_out(corpus, cfg.min_posts)
    if not split.test:
        raise DataError(
            f"{tweets_path}: no user has >= {cfg.min_posts} hashtagged tweets; "
            "nothing to evaluate"
        )
    model = HashtagModel(split.train, graph, cfg.decay, cfg.hybrid)
    cases = [
        (HashtagQuery(t.user, t.timestamp, t.terms), frozenset(t.hashtags)) for t in split.test
    ]
    strict_k = cfg.precision_denominator == "k"
    report = _evaluate(HASHTAG_REGISTRY, algorithms, model, cases, cfg.jobs, strict_k)
    for algorithm in algorithms:
        if algorithm not in report.per_algorithm:
            raise DataError(f"{tweets_path}: no evaluable test tweets for {algorithm}")
    breakdown = hashtag_usage_breakdown(corpus, graph)
    total_assignments = sum(len(t.hashtags) for t in corpus.tweets)
    title = f"evaluated {len(split.test)} held-out tweets ({tweets_path})"
    breakdown_rows = [
        ["usage_breakdown", name, "", _fmt(fraction), total_assignments]
        for name, fraction in breakdown._asdict().items()
    ]
    return _metrics_report("hashtag_report.csv", title, algorithms, report, breakdown_rows)


class _Help(Exception):
    """Carries the help text from ``print_help`` to ``main``, which prints it."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1), not argparse's exit 2,
    and hands ``--help`` to ``main`` instead of writing it."""

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    for setting in fields(ExperimentConfig):
        common.add_argument("--" + setting.name.replace("_", "-"), help=setting.metadata["help"])

    parser = _ArgumentParser(
        prog="memrec",
        description="Memory-decay tag and hashtag recommendation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", parents=[common], help="evaluate tag recommenders")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rec = sub.add_parser("recommend", parents=[common], help="top-k tags for one query")
    p_rec.add_argument("user")
    p_rec.add_argument("resource")
    p_rec.set_defaults(func=cmd_recommend)

    p_ana = sub.add_parser("analyze", parents=[common], help="tag-reuse curves and decay fit")
    p_ana.set_defaults(func=cmd_analyze)

    p_hash = sub.add_parser(
        "hashtag-evaluate", parents=[common], help="evaluate hashtag recommenders"
    )
    p_hash.set_defaults(func=cmd_hashtag_evaluate)
    return parser


def _write_reports(out: str, reports: dict) -> list[str]:
    """Create ``out`` and write each CSV report in order; a ``wrote <path>`` line each."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"out: cannot create {out_dir}: {reason}") from None
    lines = []
    for name, (header, rows) in reports.items():
        path = out_dir / name
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        except OSError as exc:
            raise ConfigError(f"out: cannot write {path}: {exc.strerror or exc}") from None
        lines.append(f"wrote {path}")
    return lines


def main(argv=None) -> int:
    """Run one subcommand and return the exit code. Each ``cmd_*`` returns ``(reports,
    lines)``: file name -> (header, rows) in write order, and its own stdout lines."""
    try:
        try:
            args = _build_parser().parse_args(argv)
            cfg = _merge_config(args)
            reports, lines = args.func(cfg, args)
        except _Help as exc:
            reports, lines = {}, str(exc).splitlines()
        if reports:  # so recommend, which writes none, never creates --out
            lines = [*lines, *_write_reports(cfg.out, reports)]
        try:
            for line in lines:  # one print per line, so an unbuffered run streams them
                try:
                    print(line)
                except UnicodeEncodeError:  # a path stdout cannot encode: escaped, as on stderr
                    encoding = sys.stdout.encoding
                    print(line.encode(encoding, "backslashreplace").decode(encoding))
            sys.stdout.flush()  # a failed write surfaces here, not at interpreter exit
        except OSError as exc:
            # Point stdout at the null device, so that the flush at interpreter exit
            # cannot fail again (see the note on SIGPIPE in the docs of Python's signal).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"stdout: {exc.strerror or exc}") from None
        return 0
    except (ConfigError, WorkerError) as exc:  # a lost worker: a --jobs the host cannot run
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
