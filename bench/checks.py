"""Output checks: sha256 digests and invariants of the CLI's report files."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

REPORT_HEADER = ["algorithm", "metric", "k", "value", "support"]
CURVE_KS = range(1, 11)


def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
        if path.is_file()
    }


def served_digest(served) -> str:
    """sha256 of (query, algorithm, top-k list) records, scores at 6 decimals."""
    h = hashlib.sha256()
    for query, algorithm, items in served:
        ranked = ",".join(f"{item}:{score:.6f}" for item, score in items)
        h.update(f"{query!r}\t{algorithm}\t{ranked}\n".encode())
    return h.hexdigest()


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: bad header {rows[:1]}")
    return rows[1:]


def _unit(path: Path, text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{path.name}: value {text} outside [0, 1]")
    return value


def report_problems(path: Path, algorithms, supports: dict[str, int]) -> list[str]:
    """Invariants of an evaluation report: every algorithm has F1@5, nDCG@10
    and the k = 1..10 precision/recall curve, values lie in [0, 1], recall
    never falls as k grows, and support equals the number of queries."""
    try:
        rows = _rows(path, REPORT_HEADER)
        by_alg: dict[str, dict[tuple[str, str], list[str]]] = {}
        for row in rows:
            by_alg.setdefault(row[0], {})[row[1], row[2]] = row
        problems = []
        for alg in algorithms:
            got = by_alg.get(alg, {})
            want = {("f1", "5"), ("ndcg", "10")} | {
                (m, str(k)) for m in ("precision", "recall") for k in CURVE_KS
            }
            if set(got) != want:
                problems.append(f"{path.name}: {alg} has rows {sorted(got)}")
                continue
            for row in got.values():
                _unit(path, row[3])
                if int(row[4]) != supports[alg]:
                    problems.append(f"{path.name}: {alg} support {row[4]} != {supports[alg]}")
            recall = [float(got["recall", str(k)][3]) for k in CURVE_KS]
            if any(b < a for a, b in zip(recall, recall[1:])):
                problems.append(f"{path.name}: {alg} recall falls with k")
        extra = set(by_alg) - set(algorithms) - {"usage_breakdown"}
        if extra:
            problems.append(f"{path.name}: unexpected algorithms {sorted(extra)}")
        if "usage_breakdown" in by_alg:
            total = sum(_unit(path, row[3]) for row in by_alg["usage_breakdown"].values())
            if len(by_alg["usage_breakdown"]) != 4 or abs(total - 1.0) > 5e-6:
                problems.append(f"{path.name}: usage breakdown does not partition 1")
        return problems
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{path.name}: {exc}"]


def analysis_problems(directory: Path) -> list[str]:
    """Invariants of ``analyze`` output: probabilities in [0, 1], positive
    supports, and a decay fit with one selected model."""
    problems = []
    try:
        for dimension in ("frequency", "recency", "context"):
            path = Path(directory) / f"reuse_{dimension}.csv"
            rows = _rows(path, ["dimension", "bin", "probability", "support"])
            if not rows:
                problems.append(f"{path.name}: no bins")
            for row in rows:
                _unit(path, row[2])
                if row[0] != dimension or int(row[3]) < 1:
                    problems.append(f"{path.name}: bad row {row}")
        path = Path(directory) / "decay_fit.csv"
        rows = _rows(path, ["model", "slope", "intercept", "r_squared", "selected"])
        if [r[0] for r in rows] != ["power", "exponential"] or sum(int(r[4]) for r in rows) != 1:
            problems.append(f"{path.name}: expected power and exponential, one selected")
        for row in rows:
            _unit(path, row[3])
    except (OSError, ValueError, IndexError) as exc:
        problems.append(str(exc))
    return problems
