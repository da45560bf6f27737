"""Outside-in tracing for the benchmark's traced run.

``install`` wraps public entry points of ``mlas2`` (and ``requests.Session.post``)
under the names their callers look them up by, so a call made through
``mlas2.experiment.materialize`` is recorded as that span. Spans record name,
start, end, parent and run id, stay in memory, and are written out by the
child when the job ends. ``per_layer`` turns the span lists of traced ops
into the per-layer metrics; a layer's self time is its span's duration minus the part of that
interval its child spans cover.

The untraced run never imports this module's ``install``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """Single-threaded span recorder (the benchmark client is a closed loop:
    one job, at most one request in flight)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [name, start, end, parent index or None, count, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` so every call is a span; ``count(args, kwargs, result)``
        gives the span's work count (texts, pairs, records...)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, 0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                n = count(args, kwargs, result)
                span[4] = n if n is not None else 0
                if n is None:
                    span[5] = True
            return result

        return traced

    def export(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _records(_args, _kwargs, dataset) -> int:
    return len(dataset.groups) + sum(len(g.candidates) for g in dataset.groups)


def _texts(args, kwargs, _result) -> int:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return len(request.texts)


def _pairs(args, kwargs, _result) -> int:
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    return len(pairs)


def _result_len(_args, _kwargs, result) -> int:
    return len(result)


def _one(_args, _kwargs, _result) -> int:
    return 1


def _http_ok(_args, _kwargs, response):
    # a non-200 answer counts as a failed post (None marks the span failed)
    return 1 if response.status_code == 200 else None


# (module, attribute path, count). Module-level functions are patched in the
# namespace of the module that calls them, which is the name the span gets.
TARGETS = [
    ("mlas2.cli", "run_experiment", None),
    ("mlas2.cli", "load_questions", _result_len),
    ("mlas2.experiment", "load_dataset", _records),
    ("mlas2.experiment", "fingerprint_dataset", None),
    ("mlas2.experiment", "materialize", _records),
    ("mlas2.experiment", "early_stop_loop", None),
    ("mlas2.experiment", "evaluate_dataset", None),
    ("mlas2.experiment", "rank", None),
    ("mlas2.experiment", "judge", _one),
    ("mlas2.experiment", "evaluate", None),
    ("mlas2.algebra", "transfer", None),
    ("mlas2.algebra", "mix", None),
    ("mlas2.algebra", "concat_many", None),
    ("mlas2.translation", "MockTranslator.translate_batch", _texts),
    ("mlas2.translation", "HttpTranslator.translate_batch", _texts),
    ("mlas2.translation", "CachingTranslator.translate_batch", _texts),
    ("mlas2.translation", "TranslationCache.__init__", None),
    ("mlas2.translation", "TranslationCache.store_many", None),
    ("mlas2.reranking", "IdfTable.from_texts", None),
    ("mlas2.reranking", "LexicalScorer.score_pairs", _pairs),
    ("mlas2.reranking", "RemoteScorer.score_pairs", _pairs),
    ("mlas2.candidates", "load_corpus", None),
    ("mlas2.candidates", "DocumentCorpus.__init__", None),
    ("mlas2.candidates", "retrieve_documents", None),
    ("mlas2.candidates", "split_sentences", _result_len),
    ("mlas2.candidates", "select_candidates", None),
    ("mlas2.candidates", "export_annotation_tasks", None),
    ("requests", "Session.post", _http_ok),
]


def install(tracer: Tracer) -> None:
    """Replace every target with a traced wrapper. Classmethods stay
    classmethods; the original is recovered from the class ``__dict__``."""
    for module_name, path, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        name = f"{module_name}.{path}"
        raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, count))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


P = "mlas2."


def per_layer(ops: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of traced jobs, one span list per op (names as in
    BENCHMARK.json). Times and counts are means per op, ratios are taken over
    all ops' totals, and latency percentiles pool every op's calls."""
    spans: list[list] = []
    for op in ops:
        base = len(spans)
        spans.extend([*s[:3], None if s[3] is None else s[3] + base, *s[4:]] for s in op)
    per_op = 1.0 / max(1, len(ops))
    selfs = self_times(spans)
    self_by: dict[str, float] = defaultdict(float)
    count_by: dict[str, int] = defaultdict(int)
    calls_by: dict[str, int] = defaultdict(int)
    for span, st in zip(spans, selfs):
        self_by[span[0]] += st
        count_by[span[0]] += span[4]
        calls_by[span[0]] += 1

    def parent_name(span):
        return spans[span[3]][0] if span[3] is not None else None

    def durations(name, parent=None):
        return [
            (s[2] - s[1]) * 1000.0
            for s in spans
            if s[0] == name and (parent is None or parent_name(s) == parent)
        ]

    post = "requests.Session.post"
    http_tr = P + "translation.HttpTranslator.translate_batch"
    remote = P + "reranking.RemoteScorer.score_pairs"
    translators = {
        P + "translation.MockTranslator.translate_batch",
        http_tr,
        P + "translation.CachingTranslator.translate_batch",
    }
    texts_in = sum(
        s[4] for s in spans if s[0] in translators and parent_name(s) not in translators
    )
    backend_texts = (count_by[P + "translation.MockTranslator.translate_batch"]
                     + count_by[http_tr])
    tr_posts = [s for s in spans if s[0] == post and parent_name(s) == http_tr]
    sc_posts = [s for s in spans if s[0] == post and parent_name(s) == remote]
    dev_evals = sum(
        1 for s in spans
        if s[0] == P + "experiment.evaluate_dataset"
        and parent_name(s) == P + "experiment.early_stop_loop"
    )

    def ratio(num, base):
        return num / base if base else 0.0

    score_rtt = durations(post, remote)
    retrieve = durations(P + "candidates.retrieve_documents")
    select = durations(P + "candidates.select_candidates")
    totals = {
        "dataset.load_s": self_by[P + "experiment.load_dataset"],
        "dataset.fingerprint_s": self_by[P + "experiment.fingerprint_dataset"],
        "dataset.records_loaded": count_by[P + "experiment.load_dataset"],
        "algebra.transfer_s": self_by[P + "algebra.transfer"],
        "algebra.mix_s": self_by[P + "algebra.mix"],
        "algebra.concat_s": self_by[P + "algebra.concat_many"],
        "algebra.records_out": count_by[P + "experiment.materialize"],
        "translation.backend_s": (self_by[P + "translation.MockTranslator.translate_batch"]
                                  + self_by[http_tr]),
        "translation.texts_in": texts_in,
        "translation.backend_texts": backend_texts,
        "translation.cache_s": (self_by[P + "translation.CachingTranslator.translate_batch"]
                                + self_by[P + "translation.TranslationCache.store_many"]),
        "translation.cache_open_s": self_by[P + "translation.TranslationCache.__init__"],
        "translation.posts": len(tr_posts),
        "translation.posts_failed": sum(1 for s in tr_posts if s[5]),
        "reranking.idf_build_s": self_by[P + "reranking.IdfTable.from_texts"],
        "reranking.score_s": self_by[P + "reranking.LexicalScorer.score_pairs"] + self_by[remote],
        "reranking.pairs_scored": (count_by[P + "reranking.LexicalScorer.score_pairs"]
                                   + count_by[remote]),
        "reranking.rank_s": self_by[P + "experiment.rank"],
        "reranking.score_posts": len(sc_posts),
        "metrics.judge_s": self_by[P + "experiment.judge"],
        "metrics.evaluate_s": self_by[P + "experiment.evaluate"],
        "metrics.rankings_judged": count_by[P + "experiment.judge"],
        "candidates.load_s": (self_by[P + "candidates.load_corpus"]
                              + self_by[P + "cli.load_questions"]),
        "candidates.index_build_s": self_by[P + "candidates.DocumentCorpus.__init__"],
        "candidates.retrieve_s": self_by[P + "candidates.retrieve_documents"],
        "candidates.split_s": self_by[P + "candidates.split_sentences"],
        "candidates.sentences_split": count_by[P + "candidates.split_sentences"],
        "candidates.select_self_s": self_by[P + "candidates.select_candidates"],
        "candidates.export_s": self_by[P + "candidates.export_annotation_tasks"],
        "experiment.evaluate_s": self_by[P + "experiment.evaluate_dataset"],
        "experiment.dev_evaluations": dev_evals,
        "experiment.self_s": (self_by[P + "cli.run_experiment"]
                              + self_by[P + "experiment.early_stop_loop"]),
        "cli.self_s": self_by[P + "cli.main"],
    }
    out = {name: value * per_op for name, value in totals.items()}
    out.update({
        "translation.cache_hit_ratio": (
            ratio(texts_in - backend_texts, texts_in)
            if calls_by[P + "translation.CachingTranslator.translate_batch"] else 0.0
        ),
        "reranking.pairs_per_post": ratio(count_by[remote], len(sc_posts)),
        "candidates.retrieve_p50_ms": percentile(retrieve, 50),
        "candidates.retrieve_p90_ms": percentile(retrieve, 90),
        "candidates.select_p50_ms": percentile(select, 50),
        "candidates.select_p90_ms": percentile(select, 90),
        "servers.translate_rtt_p50_ms": percentile(durations(post, http_tr), 50),
        "servers.score_rtt_p50_ms": percentile(score_rtt, 50),
        "servers.score_rtt_p99_ms": percentile(score_rtt, 99),
    })
    return out
