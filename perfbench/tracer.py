"""Spans around pnma's public functions, recorded from outside the package.

A function is wrapped at every name that binds it inside the loaded ``pnma``
modules: ``training`` and ``inference`` import ``knn_entry_ids`` by name, so
patching ``pnma.memory`` alone would miss their calls.  Spans (name, start,
end, parent) stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans, so nested calls such as
``corpus_neighbor_cache`` -> ``knn_entry_ids`` -> ``knn_query`` are counted
once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def rebind(original, replacement):
    """Point every pnma-module name bound to ``original`` at ``replacement``.

    Returns a callable that restores the original bindings.
    """
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pnma" or mod_name.startswith("pnma.")):
            continue
        sites.extend((mod, attr) for attr, value in vars(mod).items() if value is original)
    for mod, attr in sites:
        setattr(mod, attr, replacement)

    def restore():
        for mod, attr in sites:
            setattr(mod, attr, original)

    return restore


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _knn_work(args, kwargs, result):
    queries = _arg(args, kwargs, 0, "queries")
    memory = _arg(args, kwargs, 1, "memory")
    q = queries.shape[0] if queries.ndim == 2 else 1
    return {"q": q, "n": len(memory), "d": memory.d, "k": _arg(args, kwargs, 2, "k")}


def _batch_tokens(args, kwargs, result):
    return {"tokens": _arg(args, kwargs, 0, "word_ids").size}  # word ids (B, n)


def _query_tokens(args, kwargs, result):
    h = _arg(args, kwargs, 0, "h")  # queries (..., d)
    return {"tokens": h.size // h.shape[-1]}


def _file_work(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# module -> public functions whose calls become spans, with optional work counters
TRACED = {
    "synthetic": {"generate_split": None},
    "dataio": {"build_vocab": None},
    "encoder": {
        "encode_batch": _batch_tokens,
        "encode_backward": None,
        "encode_corpus": None,
    },
    "crf": {
        "emission_scores": None,
        "emission_backward": None,
        "crf_log_likelihood_batch": None,
        "viterbi_decode_batch": None,
    },
    "memory": {
        "build_memory": None,
        "knn_entry_ids": _knn_work,
        "knn_query": _knn_work,
        "serialize_memory": _file_work,
        "deserialize_memory": None,
    },
    "neighborhood": {
        "neighborhood_forward": _query_tokens,
        "neighborhood_backward": None,
    },
    "training": {
        "train_base": None,
        "train_pnma": None,
        "corpus_neighbor_cache": None,
        "adam_step": None,
    },
    "inference": {"predict_base_corpus": None, "predict_pnma_corpus": None},
    "checkpoint": {"save_model": None, "load_model": None},
    "analysis": {"evaluate_labels": None, "rank_distribution": None},
}

KNN = ("memory.knn_entry_ids", "memory.knn_query")


class Tracer:
    """Collects spans while installed and recording."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []
        self.recording = False

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function and record spans until the block ends."""
        restores = []
        try:
            for module, funcs in TRACED.items():
                mod = importlib.import_module(f"pnma.{module}")
                for func, work in funcs.items():
                    fn = getattr(mod, func, None)
                    if fn is not None:
                        restores.append(rebind(fn, self._wrap(f"{module}.{func}", fn, work)))
            self.recording = True
            yield self
        finally:
            self.recording = False
            for restore in reversed(restores):
                restore()

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and work counts from the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        work: dict[str, float] = defaultdict(float)
        file_bytes = 0
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
            if name in KNN:
                if parent >= 0 and self.spans[parent][0] in KNN:
                    continue  # the outer K-NN call already counted this work
                work["knn_calls"] += 1
                q, n = counts["q"], counts["n"]
                work["knn_queries"] += q
                work["knn_pairs"] += q * n
                work["knn_kept"] += q * counts["k"]
                work["knn_bytes"] += q * n * counts["d"] * 8
            elif counts and "tokens" in counts:
                work[f"{name}.tokens"] += counts["tokens"]
            elif counts and "bytes" in counts:
                file_bytes = max(file_bytes, counts["bytes"])

        knn_s = own["memory.knn_entry_ids"] + own["memory.knn_query"]
        queries = work["knn_queries"]
        return {
            "memory.knn_s": knn_s,
            "memory.knn_calls": work["knn_calls"],
            "memory.knn_queries": queries,
            "memory.knn_ms_per_query": 1000.0 * knn_s / queries if queries else 0.0,
            "memory.knn_pairs": work["knn_pairs"],
            "memory.knn_gb_computed": work["knn_bytes"] / 1e9,
            "memory.knn_kept_ratio": work["knn_kept"] / work["knn_pairs"] if queries else 0.0,
            "memory.build_s": own["memory.build_memory"],
            "memory.serialize_s": own["memory.serialize_memory"],
            "memory.deserialize_s": own["memory.deserialize_memory"],
            "memory.file_mb": file_bytes / 1e6,
            "neighborhood.forward_s": own["neighborhood.neighborhood_forward"],
            "neighborhood.backward_s": own["neighborhood.neighborhood_backward"],
            "neighborhood.forward_calls": calls["neighborhood.neighborhood_forward"],
            "neighborhood.tokens": work["neighborhood.neighborhood_forward.tokens"],
            "crf.log_likelihood_s": own["crf.crf_log_likelihood_batch"],
            "crf.viterbi_s": own["crf.viterbi_decode_batch"],
            "crf.emission_s": own["crf.emission_scores"] + own["crf.emission_backward"],
            "encoder.encode_batch_s": own["encoder.encode_batch"],
            "encoder.encode_backward_s": own["encoder.encode_backward"],
            "encoder.encode_corpus_s": own["encoder.encode_corpus"],
            "encoder.tokens": work["encoder.encode_batch.tokens"],
            "training.adam_s": own["training.adam_step"],
            "training.adam_calls": calls["training.adam_step"],
            "training.neighbor_cache_s": own["training.corpus_neighbor_cache"],
            "training.train_base_self_s": own["training.train_base"],
            "training.train_pnma_self_s": own["training.train_pnma"],
            "inference.predict_base_s": incl["inference.predict_base_corpus"],
            "inference.predict_pnma_s": incl["inference.predict_pnma_corpus"],
            "inference.predict_pnma_self_s": own["inference.predict_pnma_corpus"],
            "checkpoint.save_s": own["checkpoint.save_model"],
            "checkpoint.load_s": own["checkpoint.load_model"],
            "analysis.rank_distribution_s": own["analysis.rank_distribution"],
            "analysis.evaluate_s": own["analysis.evaluate_labels"],
            "synthetic.generate_s": own["synthetic.generate_split"],
            "dataio.build_vocab_s": own["dataio.build_vocab"],
        }


class StepClock:
    """Timestamps each optimizer update, for per-step latency with tracing off.

    One ``perf_counter`` read per ``adam_step`` return; the interval from the
    start of a training call to its first update (encoding, retrieval) is not
    a step and is left out.
    """

    def __init__(self) -> None:
        self.steps_ms: list[float] = []
        self._last: float | None = None

    def start_call(self) -> None:
        self._last = None

    def take(self) -> list[float]:
        steps, self.steps_ms = self.steps_ms, []
        return steps

    @contextmanager
    def installed(self):
        training = importlib.import_module("pnma.training")
        adam_step = training.adam_step

        @functools.wraps(adam_step)
        def timed(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            now = time.perf_counter()
            if self._last is not None:
                self.steps_ms.append(1000.0 * (now - self._last))
            self._last = now
            return result

        restore = rebind(adam_step, timed)
        try:
            yield self
        finally:
            restore()
