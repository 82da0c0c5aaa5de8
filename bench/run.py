"""memrec benchmark: run one workload end to end, or traced per layer.

Usage, from the root of a checkout that holds ``src/memrec``::

    python3 bench/run.py --workload tag-eval --seed 0 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn. The run generates its inputs from ``--seed`` (see ``gen.py``), then:

* ``--trace 0`` times the public ingest calls (``setup_s``, median of
  several set-ups), runs the workload's CLI command sequence in fresh
  single-worker processes (``run_s``, ``peak_rss_mb``), and serves held-out
  (query, algorithm) pairs from one closed-loop caller through the library
  (``query_ms_p50``, ``query_ms_p99``, ``queries_per_s``);
* ``--trace 1`` runs the same command sequence once with memrec's public
  functions wrapped by ``tracing.py`` and once without, and reports the
  per-layer metrics of ``catalogue.json``.

Every output is checked: CSV reports by invariants, by sha256 against the
other runs of the same inputs and against ``digests.json`` where the seed
is recorded there, and a sample of served top-k lists against the
brute-force scorers of ``oracle.py``. A non-zero exit, an exception or a
mismatch counts as a failed operation. Each workload ends with one line of
JSON on standard output: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--record`` stores this run's digests as the reference for its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import HASHTAG_ALGORITHMS, TAG_ALGORITHMS, layer_metrics  # noqa: E402

K = 10  # served list length, as in the evaluation protocol
BATCH_SHARE = 0.125  # one query batch lasts this share of --seconds
MIN_RUNS = 2  # CLI sequence runs per measured run, at least
MIN_SAMPLES = 1000  # query samples per run: p99 has ten samples beyond it
WARMUP_PER_ALG = 5  # untimed pairs per algorithm before the query loop
DIGEST_SAMPLES = 1000  # served lists covered by the recorded digest
ORACLE_PER_ALG = 8  # served lists per algorithm checked against oracle.py
IMPORT_REPS = 5  # fresh interpreters timed for cli.import_s
COMMAND_TIMEOUT = 150  # seconds before a CLI process counts as failed

WORKLOADS = {
    "tag-eval": {
        "kind": "posts",
        "shape": {"n_users": 800},
        "commands": [["evaluate", "--algorithms", ",".join(TAG_ALGORITHMS)]],
        "algorithms": TAG_ALGORITHMS,
    },
    "tag-context": {
        "kind": "posts",
        "shape": {
            "n_users": 800,
            "posts_per_user": 50,
            "n_resources": 4000,
            "n_communities": 100,
            "community_tags": 30,
            "max_tags": 5,
        },
        "commands": [["evaluate", "--algorithms", "bll_ac_mp_r"], ["analyze"]],
        "algorithms": ("bll_ac_mp_r",),
    },
    "hashtag-eval": {
        "kind": "tweets",
        "shape": {},
        "commands": [["hashtag-evaluate"]],
        "algorithms": HASHTAG_ALGORITHMS,
    },
}


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems=(), count: int = 1) -> bool:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)
        return not problems

    def fail(self, problems, count: int = 1) -> None:
        """Mark already attempted operations as failed."""
        self.failed += count
        self.problems.extend(problems)


def load_program(root: Path):
    """Import memrec from the checkout's ``src``, and only from there."""
    src = (root / "src").resolve()
    if not (src / "memrec" / "cli.py").is_file():
        raise SystemExit(f"error: no memrec sources under {src}")
    sys.path.insert(0, str(src))
    import memrec

    if Path(memrec.__file__).resolve().parent != src / "memrec":
        raise SystemExit(f"error: memrec imported from {memrec.__file__}, not {src}")
    return memrec


def generate(workload: dict, seed: int, work: Path) -> dict:
    """Write the workload's TSV inputs and return their paths."""
    if workload["kind"] == "posts":
        paths = {"posts": work / "posts.tsv"}
        gen.write_posts(paths["posts"], gen.synthetic_posts(seed, **workload["shape"]))
    else:
        paths = {"tweets": work / "tweets.tsv", "edges": work / "edges.tsv"}
        tweets, edges = gen.synthetic_tweets(seed, **workload["shape"])
        gen.write_tweets(paths["tweets"], paths["edges"], tweets, edges)
    return paths


def cli_args(command: list[str], inputs: dict, out: Path) -> list[str]:
    args = [command[0]]
    for name, path in inputs.items():
        args += [f"--{name}", str(path)]
    return args + command[1:] + ["--jobs", "1", "--out", str(out)]


def run_command(argv: list[str], env: dict, log: Path) -> tuple[int, float]:
    """Run one process to completion: (exit code, wall seconds).

    A process still running after ``COMMAND_TIMEOUT`` seconds is killed.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # A blocking wait returns as soon as the child exits; wait(timeout=)
        # would poll and round the wall time up by up to 50 ms.
        killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return code, time.perf_counter() - start


#: Files each command writes into --out, checked after every run.
OUTPUTS = {
    "evaluate": ("eval_report.csv",),
    "analyze": ("reuse_frequency.csv", "reuse_recency.csv", "reuse_context.csv", "decay_fit.csv"),
    "hashtag-evaluate": ("hashtag_report.csv",),
}


def run_sequence(workload, inputs, out: Path, root: Path, trace_dir=None) -> list[dict]:
    """Run the workload's commands, each in a fresh process, one after another.

    Returns one record per command: name, exit code, wall seconds, peak RSS
    in MB, the stderr tail on failure, and the trace dump when traced; with
    ``trace_dir`` the commands run traced and their dumps are kept there.
    """
    traced = trace_dir is not None
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = []
    for i, command in enumerate(workload["commands"]):
        report_path = out.parent / f"{out.name}-{i}.json"
        argv = [sys.executable, str(BENCH / "child.py"), str(report_path), str(int(traced)),
                *cli_args(command, inputs, out)]
        log = out.parent / f"{out.name}-{i}.stderr"
        code, wall = run_command(argv, env, log)
        result = {"command": command[0], "code": code, "wall": wall}
        if code != 0:
            result["stderr"] = log.read_text(encoding="utf-8", errors="replace")[-500:]
        else:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            result["rss"] = report["peak_rss_kb"] / 1024
            if traced:
                result["trace"] = report["trace"]
                shutil.copy(report_path, trace_dir / f"{i}-{command[0]}.json")
        results.append(result)
    return results


def check_sequence(results, out: Path, reference: dict | None, expected: dict, ops: Ops):
    """Count each command as an operation and check what it wrote.

    ``reference`` holds the digests of an earlier run on the same inputs
    and ``expected`` the invariant checks per output file; returns this
    run's digests.
    """
    digests = checks.file_digests(out)
    for result in results:
        command = result["command"]
        if result["code"] != 0:
            ops.record([f"{command}: exit {result['code']}: {result['stderr']}"])
            continue
        problems = []
        for name in OUTPUTS[command]:
            if name not in digests:
                problems.append(f"{command}: {name} not written")
            elif reference is not None and digests[name] != reference.get(name):
                problems.append(f"{command}: {name} sha256 {digests[name][:12]} "
                                f"!= reference {str(reference.get(name))[:12]}")
            elif reference is None and name in expected:
                problems += expected[name](out / name)
        ops.record(problems)
    return digests


class PostsAdapter:
    """Library calls of the tag workloads."""

    def __init__(self, memrec, inputs):
        self.memrec, self.path = memrec, inputs["posts"]

    def ingest(self):
        return self.memrec.chronological_split(self.memrec.parse_posts(self.path), 2)

    def queries(self, split):
        return [(p.user, p.resource, p.timestamp) for p in split.test]

    def applicable(self, query, algorithm):
        return True

    def serve(self, split, algorithm, query):
        return self.memrec.recommend(algorithm, split.train, query, K).items

    def oracle(self):
        return oracle.PostsOracle(self.path)

    def report_checks(self, split, algorithms):
        supports = {a: len(split.test) for a in algorithms}
        return {
            "eval_report.csv": lambda p: checks.report_problems(p, algorithms, supports),
            "decay_fit.csv": lambda p: checks.analysis_problems(p.parent),
        }


class TweetsAdapter:
    """Library calls of the hashtag workload, with the CLI's default weights."""

    def __init__(self, memrec, inputs):
        self.memrec, self.inputs = memrec, inputs

    def ingest(self):
        m = self.memrec
        corpus = m.TweetCorpus(m.parse_tweets(self.inputs["tweets"]))
        graph = m.parse_edges(self.inputs["edges"])
        train, test = m.leave_newest_out(corpus, 2)
        return train, graph, test

    def queries(self, state):
        return [(t.user, t.timestamp, t.terms) for t in state[2]]

    def applicable(self, query, algorithm):
        return algorithm != "bll_isc" or bool(query[2])  # as in the CLI

    def serve(self, state, algorithm, query):
        m, (train, graph, _) = self.memrec, state
        user, now, terms = query
        if algorithm == "bll_i":
            scores = m.score_bll_i(train, user, now)
        elif algorithm == "bll_s":
            scores = m.score_bll_s(train, graph, user, now)
        elif algorithm == "bll_is":
            scores = m.score_bll_is(train, graph, user, now)
        else:
            scores = m.score_bll_isc(train, graph, m.HashtagQuery(user, now, terms))
        return m.top_k(scores, K).items

    def oracle(self):
        return oracle.TweetsOracle(self.inputs["tweets"], self.inputs["edges"])

    def report_checks(self, state, algorithms):
        queries = self.queries(state)
        supports = {a: sum(self.applicable(q, a) for q in queries) for a in algorithms}
        return {"hashtag_report.csv": lambda p: checks.report_problems(p, algorithms, supports)}


def measured_run(memrec, workload, inputs, seed, seconds, work, root, ops, recorded):
    """End-to-end metrics, tracing off. Returns (metrics, samples, digests)."""
    adapter = (PostsAdapter if workload["kind"] == "posts" else TweetsAdapter)(memrec, inputs)
    algorithms = workload["algorithms"]

    setup_times = []

    def set_up():
        start = time.perf_counter()
        state = adapter.ingest()
        setup_times.append(time.perf_counter() - start)
        ops.record()
        return state

    state = set_up()
    ref = adapter.oracle()
    queries = adapter.queries(state)
    if set(queries) != set(ref.queries):
        ops.fail(["held-out queries differ from the reference split"])

    order = list(queries)
    random.Random(seed).shuffle(order)
    pairs = [(q, a) for q in order for a in algorithms if adapter.applicable(q, a)]
    for query, algorithm in pairs[: WARMUP_PER_ALG * len(algorithms)]:
        try:
            adapter.serve(state, algorithm, query)
        except Exception as exc:  # a failed call, as in the timed loop
            ops.record([f"warm-up {algorithm} {query!r}: {type(exc).__name__}: {exc}"])
        else:
            ops.record()

    # Host speed drifts by tens of percent over seconds, so the window
    # cycles through a set-up, a query batch and a CLI run: each metric's
    # samples then spread over the whole window, not one stretch of it.
    expected = adapter.report_checks(state, algorithms)
    reference = recorded.get("outputs")
    runs: list[dict] = []
    latencies: list[float] = []
    served: list = []
    clock = time.perf_counter
    loop_wall = 0.0
    window_start = clock()
    while True:
        set_up()
        batch_start = clock()
        batch_end = batch_start + seconds * BATCH_SHARE
        while clock() < batch_end or (
            len(runs) >= MIN_RUNS and len(latencies) < MIN_SAMPLES
        ):
            query, algorithm = pairs[len(latencies) % len(pairs)]
            start = clock()
            try:
                items = adapter.serve(state, algorithm, query)
            except Exception as exc:  # counted as a failed query below
                items = exc
            latencies.append(clock() - start)
            served.append(items)
        loop_wall += clock() - batch_start
        if len(runs) >= MIN_RUNS and clock() - window_start >= seconds:
            break
        out = work / f"out{len(runs)}"
        results = run_sequence(workload, inputs, out, root)
        digests = check_sequence(results, out, reference, expected, ops)
        if reference is None:
            reference = digests
        runs.append({"wall": sum(r["wall"] for r in results),
                     "rss": max(r.get("rss", 0.0) for r in results), "digests": digests})

    served_digest = check_served(ref, pairs, served, recorded, seed, ops)
    lat_ms = [x * 1e3 for x in latencies]
    metrics = {
        "run_s": statistics.median(r["wall"] for r in runs),
        "setup_s": statistics.median(setup_times),
        "query_ms_p50": statistics.median(lat_ms),
        "query_ms_p99": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
        "queries_per_s": len(latencies) / loop_wall,
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }
    samples = {"run_s": len(runs), "setup_s": len(setup_times), "query_ms_p50": len(lat_ms),
               "query_ms_p99": len(lat_ms), "queries_per_s": len(lat_ms),
               "peak_rss_mb": len(runs)}
    return metrics, samples, {"outputs": runs[0]["digests"], "served": served_digest}


def check_served(ref, pairs, served, recorded, seed, ops: Ops) -> str:
    """Count every served list as an operation and check it.

    A list fails when its call raised, when it differs from an earlier
    serve of the same pair, or when it disagrees with the reference scorer
    on the sampled pairs; the first ``DIGEST_SAMPLES`` lists all fail when
    their digest differs from the recorded one.
    """
    bad: dict[int, str] = {}
    for i, items in enumerate(served):
        if isinstance(items, Exception):
            bad[i] = f"{pairs[i % len(pairs)]}: {type(items).__name__}: {items}"
        elif i >= len(pairs) and items != served[i % len(pairs)]:
            bad[i] = f"{pairs[i % len(pairs)]}: differs from its first serve"
    first = min(len(served), len(pairs))
    rng = random.Random(seed)
    by_alg: dict[str, list[int]] = {}
    for i in range(first):
        by_alg.setdefault(pairs[i][1], []).append(i)
    for algorithm, indices in sorted(by_alg.items()):
        for i in rng.sample(indices, min(ORACLE_PER_ALG, len(indices))):
            if i in bad:
                continue
            query = pairs[i][0]
            problem = oracle.topk_problem(ref.score(algorithm, query), served[i], K)
            if problem:
                bad[i] = f"{algorithm} {query!r}: {problem}"
    ops.record([bad[i] for i in sorted(bad)][:20], count=len(bad))
    ops.record(count=len(served) - len(bad))
    covered = range(min(DIGEST_SAMPLES, len(pairs)))
    digest = checks.served_digest(
        (*pairs[i], served[i]) for i in covered if not isinstance(served[i], Exception)
    )
    if recorded.get("served") not in (None, digest):
        ops.fail([f"served lists sha256 {digest[:12]} != recorded {recorded['served'][:12]}"],
                 count=sum(1 for i in covered if i not in bad))
    return digest


def traced_run(memrec, workload, inputs, work, root, ops, recorded):
    """Per-layer metrics from a traced command sequence; returns the metrics."""
    adapter = (PostsAdapter if workload["kind"] == "posts" else TweetsAdapter)(memrec, inputs)
    expected = adapter.report_checks(adapter.ingest(), workload["algorithms"])
    trace_dir = root / ".bench_work" / "last-trace" / workload["name"]
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)

    plain = run_sequence(workload, inputs, work / "plain", root)
    reference = check_sequence(plain, work / "plain", recorded.get("outputs"), expected, ops)
    traced = run_sequence(workload, inputs, work / "traced", root, trace_dir)
    check_sequence(traced, work / "traced", reference, expected, ops)

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = []
    for i in range(IMPORT_REPS):
        code, wall = run_command(
            [sys.executable, "-c", "import memrec.cli"], env, work / f"import-{i}.stderr"
        )
        ops.record([f"import memrec.cli: exit {code}"] if code else [])
        imports.append(wall)

    metrics = layer_metrics([r["trace"] for r in traced if "trace" in r])
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = (
        sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain) - 1.0
    )
    return metrics


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(memrec, name: str, args, catalogue: dict, root: Path) -> dict:
    """Run one workload, print its metrics table, and return the result."""
    digests_path = BENCH / "digests.json"
    all_digests = load_json(digests_path)
    recorded = {} if args.record else all_digests.get(name, {}).get(str(args.seed), {})
    workload = dict(WORKLOADS[name], name=name)
    work = root / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ops = Ops()
    try:
        inputs = generate(workload, args.seed, work)
        if args.trace:
            values = traced_run(memrec, workload, inputs, work, root, ops, recorded)
            wanted, samples = catalogue["per_layer"], {}
            printed = wanted
        else:
            values, samples, digests = measured_run(
                memrec, workload, inputs, args.seed, args.seconds, work, root, ops, recorded
            )
            wanted = catalogue["end_to_end"]
            printed = wanted + catalogue["reported"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name}, seed {args.seed}, trace {args.trace}")
    for m in printed:
        n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
        n += "  not gated" if m in catalogue["reported"] else ""
        print(f"  {m['name']:<46} {values.get(m['name'], 0.0):>14.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':<46} {ops.failed / ops.attempted:>14.6g} fraction"
          f"  (n={ops.attempted})")
    for problem in ops.problems[:20]:
        print(f"  FAILED: {problem}")
    correct = ops.failed == 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    if args.record and not args.trace and correct:
        all_digests.setdefault(name, {})[str(args.seed)] = digests
        with open(digests_path, "w", encoding="utf-8") as fh:
            json.dump(all_digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  recorded digests for seed {args.seed} in {digests_path.name}")
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference for its seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    memrec = load_program(root)
    catalogue = load_json(BENCH / "catalogue.json")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(memrec, name, args, catalogue, root)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
