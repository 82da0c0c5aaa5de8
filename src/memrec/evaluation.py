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
from dataclasses import dataclass
from itertools import accumulate
from typing import AbstractSet, Sequence

from .activation import DecayParams
from .data import SplitSpec
from .recommenders import TAG_REGISTRY, HybridParams, Registry, ScoredList, TagModel, top_k

__all__ = ["AlgorithmReport", "EvalReport", "WorkerError", "evaluate"]

_K = 10  # ranks scored per list: the P/R curve runs over k = 1.._K

#: DCG weights of ranks 1.._K, and their running sums: the ideal DCG of each
#: number of relevant items.
_DCG_WEIGHTS = tuple(1.0 / math.log2(i + 1) for i in range(1, _K + 1))
_IDEAL_DCG = tuple(accumulate(_DCG_WEIGHTS))


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


class WorkerError(RuntimeError):
    """A run with worker processes could not start them, or lost one."""


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)


def _walk(recommended: ScoredList, relevant: AbstractSet[str], strict_k: bool):
    """Every metric of one ranked list from one pass over its top ``_K``: the
    (precision, recall) pairs at ranks 1.._K, and binary-relevance nDCG@_K.

    Precision at rank k divides by ``min(k, len(recommended))``, so short lists
    are not penalized for slots they never filled, or by k under ``strict_k``.
    """
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    items = recommended.items
    n = len(items)
    hits, dcg, curve = 0, 0.0, []
    for i in range(1, _K + 1):
        if i <= n and items[i - 1][0] in relevant:
            hits += 1
            dcg += _DCG_WEIGHTS[i - 1]
        denominator = i if strict_k else min(i, n)
        curve.append((hits / denominator if denominator else 0.0, hits / len(relevant)))
    return curve, dcg / _IDEAL_DCG[min(_K, len(relevant)) - 1]


# Worker state for process pools: set once per worker via the initializer so
# the training data is not re-pickled for every held-out query. Only pool
# workers read it; the serial path passes its state to each call.
_STATE: tuple | None = None


def _init_state(*state):
    global _STATE
    _STATE = state


def _score_case(state, case) -> list:
    """Per algorithm, (F1@5, nDCG@10, P@1, R@1, ..., P@10, R@10) for one
    (query, relevant) case, or None where the algorithm does not apply."""
    registry, algorithms, model, strict_k = state
    query, relevant = case
    row = []
    for scores in registry.score(algorithms, model, query).values():
        if scores is None:
            row.append(None)
            continue
        curve, ndcg = _walk(top_k(scores, _K), relevant, strict_k)
        row.append((_f1(*curve[4]), ndcg, *(x for pair in curve for x in pair)))
    return row


def _score_in_worker(case) -> list:
    return _score_case(_STATE, case)


def _workers(jobs: int, n_cases: int) -> int:
    """Worker processes: ``jobs`` (0 = all usable CPUs), at most one per usable CPU and per case."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs or cpus, cpus, n_cases)


def _evaluate(registry: Registry, algorithms, model, cases, jobs, strict_k) -> EvalReport:
    """Score every case with every algorithm and average each algorithm's
    metrics over its own support; algorithms with no support are omitted."""
    algorithms = registry.check(algorithms)
    if not cases:
        raise ValueError("empty test set: nothing to evaluate")
    state = (registry, algorithms, model, strict_k)
    workers = _workers(jobs, len(cases))
    if workers <= 1:
        rows = [_score_case(state, case) for case in cases]
    else:
        # imported here, so a serial run never loads multiprocessing (about 2.7 MB and 25 ms)
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        chunk = max(1, len(cases) // (workers * 4))
        try:
            with ProcessPoolExecutor(workers, initializer=_init_state, initargs=state) as pool:
                rows = list(pool.map(_score_in_worker, cases, chunksize=chunk))
        except BrokenProcessPool:
            raise WorkerError("jobs: a worker process ended abruptly") from None
        except OSError as exc:  # scoring does no I/O: the pool could not start a worker
            raise WorkerError(f"jobs: cannot start a worker: {exc.strerror or exc}") from None
    per_algorithm: dict[str, AlgorithmReport] = {}
    for ai, algorithm in enumerate(algorithms):
        metrics = [row[ai] for row in rows if row[ai] is not None]
        if metrics:
            f1, ndcg, *curve = (math.fsum(column) / len(metrics) for column in zip(*metrics))
            pr_curve = tuple((k, curve[2 * k - 2], curve[2 * k - 1]) for k in range(1, _K + 1))
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
    model = TagModel(split.train, decay, hybrid)
    return _evaluate(TAG_REGISTRY, algorithms, model, cases, jobs, strict_k)
