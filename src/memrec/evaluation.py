"""Offline top-k evaluation: ranking metrics and the leave-newest-out harness.

Tags and hashtags share one harness, :func:`_evaluate`. Each held-out post
or tweet is scored against the training data only, with the reference time
pinned to its own timestamp. Metrics are averaged uniformly over the
held-out queries an algorithm applies to with ``math.fsum``, an
order-independent exact sum, so results are identical no matter how the
work is parallelized.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .activation import DecayParams
from .data import SplitSpec
from .recommenders import TAG_REGISTRY, HybridParams, Registry, ScoredList, TagModel, top_k

__all__ = [
    "AlgorithmReport",
    "EvalReport",
    "precision_recall_at_k",
    "f1_at_k",
    "ndcg_at_k",
    "evaluate",
]

_CURVE_KS = tuple(range(1, 11))


@dataclass(frozen=True)
class AlgorithmReport:
    """Mean metrics of one algorithm over the held-out queries it applies to."""

    f1_at_5: float
    ndcg_at_10: float
    pr_curve: tuple[tuple[int, float, float], ...]
    users_evaluated: int


@dataclass(frozen=True)
class EvalReport:
    per_algorithm: dict[str, AlgorithmReport]


def precision_recall_at_k(
    recommended: ScoredList,
    relevant: AbstractSet[str],
    k: int,
    strict_k: bool = False,
) -> tuple[float, float]:
    """Precision and recall of the top-k recommendations.

    Precision divides by ``min(k, len(recommended))`` so short candidate
    lists are not penalized for slots they never filled; pass
    ``strict_k=True`` to always divide by k. An empty recommendation list
    has precision 0 by convention.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    top = recommended.ids[:k]
    hits = sum(1 for item in top if item in relevant)
    denominator = k if strict_k else min(k, len(recommended.items))
    precision = hits / denominator if denominator else 0.0
    recall = hits / len(relevant)
    return precision, recall


def f1_at_k(
    recommended: ScoredList,
    relevant: AbstractSet[str],
    k: int,
    strict_k: bool = False,
) -> float:
    """Harmonic mean of precision@k and recall@k; 0 when both are 0."""
    precision, recall = precision_recall_at_k(recommended, relevant, k, strict_k)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def ndcg_at_k(recommended: ScoredList, relevant: AbstractSet[str], k: int) -> float:
    """Binary-relevance nDCG: position-discounted hits over the ideal ranking."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    dcg = 0.0
    for i, item in enumerate(recommended.ids[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = 0.0
    for i in range(1, min(k, len(relevant)) + 1):
        ideal += 1.0 / math.log2(i + 1)
    return dcg / ideal


# Worker state for process pools: set once per worker via the initializer so
# the training data is not re-pickled for every held-out query.
_STATE: tuple | None = None


def _init_state(registry, algorithms, model, strict_k):
    global _STATE
    _STATE = (registry, algorithms, model, strict_k)


def _score_case(case) -> list:
    """Per algorithm, (F1@5, nDCG@10, P@1, R@1, ..., P@10, R@10) for one
    (query, relevant) case, or None where the algorithm does not apply."""
    registry, algorithms, model, strict_k = _STATE
    query, relevant = case
    row = []
    for scores in registry.score(algorithms, model, query).values():
        if scores is None:
            row.append(None)
            continue
        ranked = top_k(scores, _CURVE_KS[-1])
        curve = [x for k in _CURVE_KS for x in precision_recall_at_k(ranked, relevant, k, strict_k)]
        f1 = f1_at_k(ranked, relevant, 5, strict_k)
        row.append((f1, ndcg_at_k(ranked, relevant, 10), *curve))
    return row


def _workers(jobs: int, n_cases: int) -> int:
    """Worker processes: ``jobs`` (0 = one per CPU), at most one per CPU and per case."""
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, cpus, n_cases)


def _evaluate(registry: Registry, algorithms, model, cases, jobs, strict_k) -> EvalReport:
    """Score every case with every algorithm and average each algorithm's
    metrics over its own support; algorithms with no support are omitted."""
    algorithms = registry.check(algorithms)
    if not cases:
        raise ValueError("empty test set: nothing to evaluate")
    initargs = (registry, algorithms, model, strict_k)
    workers = _workers(jobs, len(cases))
    if workers <= 1:
        _init_state(*initargs)
        rows = [_score_case(case) for case in cases]
    else:
        chunk = max(1, len(cases) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_state, initargs=initargs
        ) as pool:
            rows = list(pool.map(_score_case, cases, chunksize=chunk))
    per_algorithm: dict[str, AlgorithmReport] = {}
    for ai, algorithm in enumerate(algorithms):
        metrics = [row[ai] for row in rows if row[ai] is not None]
        if metrics:
            f1, ndcg, *curve = (math.fsum(column) / len(metrics) for column in zip(*metrics))
            pr_curve = tuple((k, curve[2 * i], curve[2 * i + 1]) for i, k in enumerate(_CURVE_KS))
            per_algorithm[algorithm] = AlgorithmReport(f1, ndcg, pr_curve, len(metrics))
    return EvalReport(per_algorithm)


def evaluate(
    split: SplitSpec,
    algorithms: Sequence[str],
    decay: DecayParams = DecayParams(),
    hybrid: HybridParams = HybridParams(),
    jobs: int = 1,
    strict_k: bool = False,
) -> EvalReport:
    """Evaluate tag algorithms over every held-out post of a chronological split.

    Returns mean F1@5, mean nDCG@10, and the mean precision/recall curve for
    k = 1..10 per algorithm. ``jobs`` > 1 spreads posts over worker
    processes (0 = one per CPU); results are bit-identical to the serial run.
    """
    cases = [((p.user, p.resource, p.timestamp), frozenset(p.tags)) for p in split.test]
    return _evaluate(
        TAG_REGISTRY, algorithms, TagModel(split.train, decay, hybrid), cases, jobs, strict_k
    )
