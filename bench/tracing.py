"""Spans and counters around memrec's public functions, installed from outside.

:meth:`Tracer.install` rebinds every public function of the package's
modules to a recording wrapper, in every module that holds a reference to
it (``recommenders.base_level`` and ``cli.score_bll_s`` are the same
function objects as ``activation.base_level`` and
``hashtags.score_bll_s``), and wraps ``__init__`` of the index classes.
Nothing in the package changes on disk.

Most calls become spans: name, start, end and the index of the enclosing
span. The hot inner functions in :data:`AGGREGATED` are called hundreds of
thousands of times, so they only add to per-name call counts and seconds;
their time is charged to the enclosing span, so self times stay exact.
Everything is kept in memory and written out once by the caller.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("data", "activation", "recommenders", "evaluation", "hashtags", "analysis", "cli")

#: Functions recorded as calls and seconds instead of one span per call.
#: ``association_strength`` is only counted: timing 4.5M calls of a two-line
#: function would cost more than the function.
AGGREGATED = {
    "activation.base_level": True,
    "activation.activation": True,
    "activation.context_profile": True,
    "activation.association_strength": False,
    "evaluation.precision_recall_at_k": True,
    "evaluation.f1_at_k": True,
    "evaluation.ndcg_at_k": True,
}

#: Classes whose construction is an index build, recorded as a span.
INDEX_CLASSES = ("data.Folksonomy", "hashtags.TweetCorpus")

#: Spans that belong to another layer than their module: index builds and
#: train/test splits are ingest work, wherever they are defined.
LAYER_OF = {
    "hashtags.TweetCorpus": "data",
    "hashtags.leave_newest_out": "data",
}

TAG_ALGORITHMS = ("mp_u", "mp_r", "mp_ur", "cf", "bll", "bll_ac", "bll_ac_mp_r")
HASHTAG_ALGORITHMS = ("bll_i", "bll_s", "bll_is", "bll_isc")


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def _attrs_for(name: str, args, result) -> dict | None:
    """Counts recorded at a span's boundary, where the work happens."""
    if name == "recommenders.recommend":
        return {"algorithm": args[0]}
    if name == "recommenders.top_k":
        return {"candidates": len(args[0])}
    if name == "analysis.reuse_observations":
        return {"observations": len(result)}
    if name == "hashtags.leave_newest_out":
        return {"queries": len(result[1])}
    return None


class Tracer:
    """Collects spans ``[name, start, end, parent, aggregated_child_s, attrs]``
    and per-name aggregates ``[calls, seconds, occurrences]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.indexes: list = []  # built index objects, counted at the end
        self._stack: list[int] = []
        self._agg_depth = 0

    def span(self, name: str, fn):
        clock, spans, stack = self.clock, self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[5] = _attrs_for(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name: str, fn, timed: bool = True):
        clock, spans, stack = self.clock, self.spans, self._stack
        entry = self.aggregates[name]
        occurrences = name == "activation.base_level"

        if not timed:
            def counter(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)

            counter.__wrapped__ = fn
            return counter

        def wrapper(*args, **kwargs):
            entry[0] += 1
            if occurrences:
                entry[2] += len(args[0])
            if self._agg_depth:  # nested in another aggregate: already timed
                return fn(*args, **kwargs)
            self._agg_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._agg_depth = 0
                entry[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _index_init(self, name: str, init):
        traced = self.span(name, init)
        indexes = self.indexes

        def __init__(obj, *args, **kwargs):
            traced(obj, *args, **kwargs)
            indexes.append(obj)

        return __init__

    def install(self, package: str = "memrec") -> None:
        """Rebind the package's public functions to recording wrappers."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            public = list(getattr(module, "__all__", ()))
            if layer == "cli":
                public += [n for n in vars(module) if n.startswith("cmd_")]
            for attr in public:
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if name in INDEX_CLASSES:
                    obj.__init__ = self._index_init(name, obj.__init__)
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if name in AGGREGATED:
                        replacements[obj] = self.aggregate(name, obj, AGGREGATED[name])
                    else:
                        replacements[obj] = self.span(name, obj)
        holders = [importlib.import_module(package), *modules.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(holder, attr, replacements[value])

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
            "index_entries": sum(index_entries(obj) for obj in self.indexes),
        }


def index_entries(obj) -> int:
    """Keys over every mapping an index object holds, nested mappings included."""
    names = getattr(type(obj), "__slots__", None) or list(vars(obj))
    total = 0
    for attr in names:
        value = getattr(obj, attr, None)
        if isinstance(value, dict):
            total += len(value)
            total += sum(len(v) for v in value.values() if isinstance(v, dict))
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus what its children cover.

    Children are spans whose parent index points at the span; the covered
    part is the union of their intervals clipped to the parent, so
    overlapping children are not subtracted twice. Aggregated time charged
    to the span (field 4) is subtracted as well.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, agg_s, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered - agg_s)
    return out


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the dumps of one command sequence."""
    m: dict[str, float] = defaultdict(float)
    per_alg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
    hashtag_queries = 0
    for dump in dumps:
        spans = dump["spans"]
        selfs = self_times(spans)
        m["data.index_entries"] += dump["index_entries"]
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            duration = end - start
            m[f"{layer_of(name)}.self_s"] += selfs[i]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name in ("data.parse_posts", "data.parse_tweets", "data.parse_edges"):
                m["data.parse_s"] += selfs[i]
            elif name in INDEX_CLASSES:
                m["data.index_build_s"] += duration
            elif name in ("data.chronological_split", "hashtags.leave_newest_out"):
                m["data.split_s"] += selfs[i]
                hashtag_queries += (attrs or {}).get("queries", 0)
            elif name == "recommenders.recommend":
                alg = per_alg[f"recommenders.{attrs['algorithm']}"]
                alg[0] += 1
                alg[1] += duration
            elif name == "recommenders.top_k":
                m["recommenders.top_k_s"] += duration
                if parent_name == "recommenders.recommend":
                    alg = spans[parent][5]["algorithm"]
                    per_alg[f"recommenders.{alg}"][2] += attrs["candidates"]
            elif name == "recommenders.mix_softmax":
                m["recommenders.mix_softmax_s"] += duration
            elif name == "evaluation.evaluate":
                m["evaluation.evaluate_s"] += duration
            elif name.startswith("hashtags.score_bll_"):
                if name == "hashtags.score_bll_s":
                    m["hashtags.score_bll_s.calls"] += 1
                if parent_name.startswith("cli."):
                    alg = per_alg[f"hashtags.{name[len('hashtags.score_'):]}"]
                    alg[0] += 1
                    alg[1] += duration
            elif name == "hashtags.score_content":
                m["hashtags.score_content_s"] += duration
            elif name == "hashtags.hashtag_usage_breakdown":
                m["hashtags.usage_breakdown_s"] += duration
            elif name == "analysis.reuse_observations":
                m["analysis.reuse_observations_s"] += selfs[i]
                m["analysis.observations"] += attrs["observations"]
            elif name == "analysis.bin_reuse":
                m["analysis.bin_reuse_s"] += duration
            elif name == "analysis.compare_decay":
                m["analysis.compare_decay_s"] += duration
        agg = dump["aggregates"]
        for key, (calls, seconds, occurrences) in agg.items():
            m[f"{layer_of(key)}.self_s"] += seconds
        base = agg.get("activation.base_level", [0, 0.0, 0])
        m["activation.base_level.calls"] += base[0]
        m["activation.base_level.occurrences"] += base[2]
        m["activation.base_level_s"] += base[1]
        ctx = agg.get("activation.context_profile", [0, 0.0, 0])
        m["activation.context_profile.calls"] += ctx[0]
        m["activation.context_profile_s"] += ctx[1]
        m["activation.association.calls"] += agg.get("activation.association_strength", [0])[0]
        m["activation.associative_s"] += agg.get("activation.activation", [0, 0.0])[1]
        for key in ("evaluation.precision_recall_at_k", "evaluation.f1_at_k", "evaluation.ndcg_at_k"):
            calls, seconds, _ = agg.get(key, [0, 0.0, 0])
            m["evaluation.metric_calls"] += calls
            m["evaluation.metrics_s"] += seconds
    for alg in TAG_ALGORITHMS:
        calls, seconds, candidates = per_alg.get(f"recommenders.{alg}", [0, 0.0, 0])
        m[f"recommenders.{alg}.ms_per_query"] = 1e3 * seconds / calls if calls else 0.0
        m[f"recommenders.{alg}.candidates_per_query"] = candidates / calls if calls else 0.0
    for alg in HASHTAG_ALGORITHMS:
        calls, seconds, _ = per_alg.get(f"hashtags.{alg}", [0, 0.0, 0])
        m[f"hashtags.{alg}.ms_per_query"] = 1e3 * seconds / calls if calls else 0.0
    calls = m.pop("hashtags.score_bll_s.calls", 0)
    m["hashtags.score_bll_s.calls_per_query"] = calls / hashtag_queries if hashtag_queries else 0.0
    return dict(m)
