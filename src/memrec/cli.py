"""Batch command-line entry point for reproducible experiments.

Subcommands:

* ``evaluate``          leave-newest-out evaluation of the tag recommenders
* ``recommend``         print top-k tags for one (user, resource) query
* ``analyze``           tag-reuse curves and the power-vs-exponential fit
* ``hashtag-evaluate``  hashtag recommenders over tweets plus a follow graph

Settings come from an optional ``key = value`` config file plus flags; flags
win. All CSV output is deterministic: fixed column order, floats rounded to
6 decimals, LF line endings.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields
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
from .data import ParseError, chronological_split, parse_edges, parse_posts, parse_tweets
from .evaluation import EvalReport, _evaluate, evaluate
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


@dataclass
class ExperimentConfig:
    posts: str | None = None
    tweets: str | None = None
    edges: str | None = None
    algorithms: tuple[str, ...] | None = None  # None = every id the subcommand knows
    d: float = 0.5
    beta: float = 0.5
    gamma: float = 0.5
    k: int = 10
    min_posts: int = 2
    out: str = "out"
    jobs: int | None = None  # 0 = one worker per CPU; None = the subcommand's default
    cf_neighbors: int = 20
    precision_denominator: str = "min"  # "min" or "k"

    def validate(self) -> None:
        if not self.d > 0:
            raise ConfigError(f"d must be > 0, got {self.d}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.min_posts < 2:
            raise ConfigError(f"min_posts must be >= 2, got {self.min_posts}")
        if self.jobs is not None and self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {self.jobs}")
        if self.cf_neighbors < 1:
            raise ConfigError(f"cf_neighbors must be >= 1, got {self.cf_neighbors}")
        if self.precision_denominator not in ("min", "k"):
            raise ConfigError(
                f"precision_denominator must be 'min' or 'k', got {self.precision_denominator!r}"
            )

    @property
    def decay(self) -> DecayParams:
        return DecayParams(d=self.d)

    @property
    def hybrid(self) -> HybridParams:
        return HybridParams(beta=self.beta, cf_neighbors=self.cf_neighbors)

    def algorithm_ids(self, registry: Registry) -> tuple[str, ...]:
        """The configured ids, checked against the subcommand's registry."""
        try:
            return registry.check(registry.ids if self.algorithms is None else self.algorithms)
        except ValueError as exc:
            raise ConfigError(f"algorithms: {exc}") from None


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


# Every ExperimentConfig field is a config key; keys not listed here keep the string.
_FIELDS = {f.name for f in fields(ExperimentConfig)}
_CONVERTERS = {
    "algorithms": _parse_str_list,
    "d": _parse_float,
    "beta": _parse_float,
    "gamma": _parse_float,
    "k": _parse_int,
    "min_posts": _parse_int,
    "jobs": _parse_int,
    "cf_neighbors": _parse_int,
}


def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` config file ('#' starts a comment)."""
    if not Path(path).is_file():
        raise ConfigError(f"config: file not found: {path}")
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = _CONVERTERS.get(key, lambda k, v: v)(key, value)
    return values


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    values.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
    cfg = ExperimentConfig(**values)
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


def _open_csv(path: Path):
    fh = open(path, "w", newline="", encoding="utf-8")
    return fh, csv.writer(fh, lineterminator="\n")


def _write_report(
    cfg: ExperimentConfig, name: str, title: str, algorithms, report: EvalReport, extra_rows=()
) -> None:
    """Write the per-algorithm metrics (plus ``extra_rows``) and print a summary."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow(["algorithm", "metric", "k", "value", "support"])
        for algorithm in algorithms:
            rep = report.per_algorithm[algorithm]
            n = rep.users_evaluated
            writer.writerow([algorithm, "f1", 5, _fmt(rep.f1_at_5), n])
            writer.writerow([algorithm, "ndcg", 10, _fmt(rep.ndcg_at_10), n])
            for k, precision, recall in rep.pr_curve:
                writer.writerow([algorithm, "precision", k, _fmt(precision), n])
                writer.writerow([algorithm, "recall", k, _fmt(recall), n])
        writer.writerows(extra_rows)
    print(title)
    print(f"{'algorithm':<14}{'F1@5':>10}{'nDCG@10':>10}{'queries':>9}")
    for algorithm in algorithms:
        rep = report.per_algorithm[algorithm]
        print(f"{algorithm:<14}{rep.f1_at_5:>10.6f}{rep.ndcg_at_10:>10.6f}{rep.users_evaluated:>9}")
    print(f"wrote {path}")


def cmd_evaluate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    posts_path = _require_path(cfg, "posts")
    algorithms = cfg.algorithm_ids(TAG_REGISTRY)
    folks = parse_posts(posts_path)
    split = chronological_split(folks, cfg.min_posts)
    if not split.test:
        raise DataError(
            f"{posts_path}: no user has >= {cfg.min_posts} posts; nothing to evaluate"
        )
    report = evaluate(
        split,
        algorithms,
        decay=cfg.decay,
        hybrid=cfg.hybrid,
        jobs=0 if cfg.jobs is None else cfg.jobs,
        strict_k=cfg.precision_denominator == "k",
    )
    title = f"evaluated {len(split.test)} held-out posts ({posts_path})"
    _write_report(cfg, "eval_report.csv", title, algorithms, report)
    return 0


def cmd_recommend(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    posts_path = _require_path(cfg, "posts")
    algorithm = cfg.algorithm_ids(TAG_REGISTRY)[0]
    folks = parse_posts(posts_path)
    # No held-out post supplies a reference time here, so score just after
    # the end of the training history.
    now = max((p.timestamp for p in folks.posts), default=0) + 1
    query = (args.user.lower(), args.resource.lower(), now)
    ranked = recommend(algorithm, folks, query, cfg.k, cfg.decay, cfg.hybrid)
    for item, score in ranked.items:
        print(f"{item}\t{score:.6f}")
    return 0


def cmd_analyze(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    posts_path = _require_path(cfg, "posts")
    folks = parse_posts(posts_path)
    observations = reuse_observations(folks, cfg.min_posts)
    if not observations:
        raise DataError(
            f"{posts_path}: no user has >= {cfg.min_posts} posts; nothing to analyze"
        )
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = {
        "frequency": bin_reuse(observations, "frequency", DEFAULT_FREQUENCY_EDGES),
        "recency": bin_reuse(observations, "recency", DEFAULT_RECENCY_EDGES),
        "context": bin_reuse(observations, "context", DEFAULT_CONTEXT_EDGES),
    }
    for dimension, curve in curves.items():
        path = out_dir / f"reuse_{dimension}.csv"
        fh, writer = _open_csv(path)
        with fh:
            writer.writerow(["dimension", "bin", "probability", "support"])
            for b in curve.bins:
                writer.writerow([dimension, _fmt_bin(b.lower), _fmt(b.probability), b.support])
        print(f"wrote {path}")
    fit_path = out_dir / "decay_fit.csv"
    fh, writer = _open_csv(fit_path)
    with fh:
        writer.writerow(["model", "slope", "intercept", "r_squared", "selected"])
        try:
            comparison = compare_decay(curves["recency"])
        except ValueError as exc:
            print(f"warning: decay fit skipped: {exc}", file=sys.stderr)
        else:
            for fit in (comparison.power, comparison.exponential):
                writer.writerow(
                    [
                        fit.model,
                        _fmt(fit.slope),
                        _fmt(fit.intercept),
                        _fmt(fit.r_squared),
                        int(fit.model == comparison.winner),
                    ]
                )
    print(f"wrote {fit_path}")
    return 0


def cmd_hashtag_evaluate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    tweets_path = _require_path(cfg, "tweets")
    edges_path = _require_path(cfg, "edges")
    algorithms = cfg.algorithm_ids(HASHTAG_REGISTRY)
    corpus = TweetCorpus(parse_tweets(tweets_path))
    graph = parse_edges(edges_path)
    train, tests = leave_newest_out(corpus, cfg.min_posts)
    if not tests:
        raise DataError(
            f"{tweets_path}: no user has >= {cfg.min_posts} hashtagged tweets; "
            "nothing to evaluate"
        )
    model = HashtagModel(train, graph, cfg.decay, cfg.beta, cfg.gamma)
    cases = [(HashtagQuery(t.user, t.timestamp, t.terms), frozenset(t.hashtags)) for t in tests]
    strict_k = cfg.precision_denominator == "k"
    jobs = 1 if cfg.jobs is None else cfg.jobs  # serial unless asked, as before the shared harness
    report = _evaluate(HASHTAG_REGISTRY, algorithms, model, cases, jobs, strict_k)
    for algorithm in algorithms:
        if algorithm not in report.per_algorithm:
            raise DataError(f"{tweets_path}: no evaluable test tweets for {algorithm}")
    breakdown = hashtag_usage_breakdown(corpus, graph)
    total_assignments = sum(len(t.hashtags) for t in corpus.tweets)
    title = f"evaluated {len(tests)} held-out tweets ({tweets_path})"
    breakdown_rows = [
        ["usage_breakdown", name, "", _fmt(fraction), total_assignments]
        for name, fraction in breakdown._asdict().items()
    ]
    _write_report(cfg, "hashtag_report.csv", title, algorithms, report, breakdown_rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--posts", metavar="PATH", help="bookmark TSV")
    common.add_argument("--tweets", metavar="PATH", help="tweet TSV")
    common.add_argument("--edges", metavar="PATH", help="follower/followee TSV")
    common.add_argument(
        "--algorithms",
        metavar="LIST",
        type=lambda v: _parse_str_list("algorithms", v),
        help="comma-separated algorithm ids (default: all of the subcommand's)",
    )
    common.add_argument("--d", type=float, help="decay exponent (default 0.5)")
    common.add_argument("--beta", type=float, help="first mixing weight in [0, 1]")
    common.add_argument("--gamma", type=float, help="history-vs-content weight in [0, 1]")
    common.add_argument("--k", type=int, help="list length for recommend")
    common.add_argument("--min-posts", dest="min_posts", type=int, help="qualification threshold")
    common.add_argument("--out", metavar="DIR", help="output directory (default ./out)")
    common.add_argument(
        "--jobs",
        type=int,
        help="worker processes, at most one per core; 0 = all "
        "(default: 0 for evaluate, 1 for hashtag-evaluate)",
    )

    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_merge_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
