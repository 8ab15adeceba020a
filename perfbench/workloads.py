"""The three benchmark workloads, driven through pnma's public functions.

Every input comes from the benchmark seed: the synthetic corpora, the
training seeds and the memory sample.  The program receives only the
generated corpora and configurations.  Each workload has a ``setup`` (timed
as ``setup_s``) and a ``job`` (timed as ``wall_s``) that the runner repeats;
outputs are checked after the timed part of each job, with tracing paused.

Modules are called through their attributes (``training.train_pnma``), never
through names imported here, so the tracer's rebinding reaches every call.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from pnma import analysis, checkpoint, dataio, encoder, inference, memory, synthetic, training
from pnma.config import TrainConfig
from pnma.errors import PnmaError

EXCEPTION_RATE = 0.05
# the acceptance suite's desk-scale model
DESK = dict(epochs=4, batch_size=32, d_word=32, d_pred=16, d_hidden=48, n_layers=2,
            k_neighbors=64, phase2_epochs=20)
ORACLE_SENTENCES = 24  # per query set; about 150 tokens
TAG_REQUESTS = 200
TAG_REQUEST_SENTENCES = 8
TAG_PHASE2_SENTENCES = 200
TAG_PHASE2_EPOCHS = 2


class Checks:
    """Counts checked operations and the ones that failed or were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class JobResult:
    wall_s: float
    tok_per_s: float
    steps_ms: list[float]
    f1_base: float
    f1_adapted: float | None
    digests: dict[str, str]


@dataclass
class Run:
    """What a workload needs from the runner."""

    seed: int
    workdir: str
    checks: Checks
    tracer: object | None = None  # tracer.Tracer while a traced run records
    clock: object | None = None  # tracer.StepClock; times steps while installed
    working_set: dict = field(default_factory=dict)

    def unmeasured(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def start_training_call(self) -> None:
        if self.clock is not None:
            self.clock.start_call()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def preds_digest(preds) -> str:
    return sha256(b"".join(np.asarray(p, dtype="<i8").tobytes() for p in preds))


def model_bytes(model: checkpoint.Model) -> bytes:
    return checkpoint.checkpoint_bytes(model.params(), model.config.to_echo())


def file_digest(path: str) -> str:
    """The digest every pnma binary file carries in its last 32 bytes."""
    with open(path, "rb") as fh:
        fh.seek(-32, os.SEEK_END)
        return fh.read(32).hex()


def corpus(seed: int, sizes: dict[str, int]):
    splits = {
        name: synthetic.generate_split(name, size, EXCEPTION_RATE, seed)[0]
        for name, size in sizes.items()
    }
    return splits, dataio.build_vocab(splits["train"], min_frequency=2)


def f1(gold_instances, preds, vocab, scheme) -> float:
    return analysis.evaluate_labels(
        [list(i.gold_labels) for i in gold_instances],
        [vocab.tag_strings(p) for p in preds],
        scheme,
    ).f1


def desk_base_and_memory(run: Run, splits, vocab, cfg):
    """Phase 1 at the desk shape, then its memory at ``cfg.memory_fraction``.

    Returns (base result, base checkpoint bytes, checkpoint digest, memory).
    """
    base = training.train_base(splits["train"], splits["valid"], vocab, cfg)
    blob = model_bytes(checkpoint.Model(base.encoder, base.crf, None, cfg))
    digest = blob[-32:].hex()
    mem = memory.build_memory(base.encoder, vocab, splits["train"], fraction=cfg.memory_fraction,
                              seed=run.seed, source_digest=digest)
    return base, blob, digest, mem


def check_knn_oracle(run: Run, mem, enc, vocab, instances, k, exclude_self, label) -> None:
    """``knn_entry_ids`` against a naive per-query scan on a seeded sample.

    The scan uses float64 explicit differences and orders entries by
    (squared distance, entry id); a token's own entry is dropped when
    ``exclude_self``.
    """
    rng = np.random.default_rng([run.seed, len(instances), int(exclude_self)])
    picks = sorted(rng.choice(len(instances), size=ORACLE_SENTENCES, replace=False).tolist())
    sample = [instances[i] for i in picks]
    encoded = encoder.encode_corpus(sample, enc, vocab)
    queries = np.concatenate([encoded[i.sentence_id] for i in sample]).astype(np.float32)
    keys = [(i.sentence_id, t) for i in sample for t in range(len(i))]
    exclude = [[key] for key in keys] if exclude_self else None
    ids, dists = memory.knn_entry_ids(queries, mem, k, exclude=exclude)
    entry_of = {prov: e for e, prov in enumerate(mem.provenance)}
    vectors = mem.vectors.astype(np.float64)
    all_ids = np.arange(len(mem))
    for qi, key in enumerate(keys):
        d2 = np.square(vectors - queries[qi].astype(np.float64)).sum(axis=1)
        keep = all_ids
        if exclude_self and key in entry_of:
            keep = all_ids[all_ids != entry_of[key]]
        order = keep[np.lexsort((keep, d2[keep]))[:k]]
        run.checks.expect(
            np.array_equal(ids[qi], order) and np.array_equal(dists[qi], np.sqrt(d2[order])),
            f"{label}: knn_entry_ids differs from the naive scan for query {key}",
        )


class Adapt:
    """Offline batch job: phase-2 adaptation, then base and adapted tagging."""

    name = "adapt"

    def setup(self, run: Run):
        splits, vocab = corpus(run.seed, {"train": 2000, "valid": 300, "test": 300})
        cfg = TrainConfig(seed=run.seed, memory_fraction=0.15, **DESK)
        base, blob, digest, mem = desk_base_and_memory(run, splits, vocab, cfg)
        path = os.path.join(run.workdir, "adapt.mem")
        memory.serialize_memory(mem, path)
        mem = memory.deserialize_memory(path)
        with run.unmeasured():
            digests = {"base_checkpoint": sha256(blob), "memory_file": file_digest(path)}
        return dict(splits=splits, vocab=vocab, cfg=cfg, base=base, digest=digest,
                    memory=mem, digests=digests)

    def job(self, run: Run, s) -> JobResult:
        train, valid, test = s["splits"]["train"], s["splits"]["valid"], s["splits"]["test"]
        cfg, vocab, base, mem = s["cfg"], s["vocab"], s["base"], s["memory"]
        k = cfg.k_neighbors
        frozen = {n: sha256(a.tobytes()) for n, a in base.encoder.to_dict().items()}
        run.start_training_call()
        started = time.perf_counter()
        res = training.train_pnma(base.encoder, base.crf, s["digest"], mem, train, valid, vocab, cfg)
        train_s = time.perf_counter() - started
        preds_base = inference.predict_base_corpus(test, base.encoder, base.crf, vocab)
        preds_pnma = inference.predict_pnma_corpus(test, res.encoder, res.crf, res.nbr, mem, vocab, k)
        f1_base = f1(test, preds_base, vocab, cfg.scheme)
        f1_adapted = f1(test, preds_pnma, vocab, cfg.scheme)
        hist = analysis.rank_distribution(base.encoder, base.crf, vocab, mem, valid, k)
        wall_s = time.perf_counter() - started

        with run.unmeasured():
            for n, a in base.encoder.to_dict().items():
                run.checks.expect(sha256(a.tobytes()) == frozen[n],
                                  f"adapt: encoder array {n} changed during train_pnma")
            check_knn_oracle(run, mem, base.encoder, vocab, train, k, True, "adapt/train")
            check_knn_oracle(run, mem, base.encoder, vocab, test, k, False, "adapt/test")
            model = checkpoint.Model(res.encoder, res.crf, res.nbr, cfg)
            digests = {
                "adapted_checkpoint": sha256(model_bytes(model)),
                "test_preds_base": preds_digest(preds_base),
                "test_preds_adapted": preds_digest(preds_pnma),
                "rank_histogram": sha256(repr(hist.normalized("correct")
                                              + hist.normalized("incorrect")).encode()),
            }
        run.working_set = {"memory_entries": len(mem), "d": mem.d,
                           "memory_float32_bytes": mem.vectors.nbytes}
        tokens = sum(len(i) for i in train) * cfg.phase2_epochs
        return JobResult(wall_s, tokens / train_s, [], f1_base, f1_adapted, digests)


class BaseTrain:
    """Phase 1 alone at the paper's shape: no memory, no neighborhood."""

    name = "base-train"

    def setup(self, run: Run):
        splits, vocab = corpus(run.seed, {"train": 1000, "valid": 300})
        cfg = TrainConfig(seed=run.seed, epochs=1)  # the defaults are the paper's shape
        return dict(splits=splits, vocab=vocab, cfg=cfg, digests={})

    def job(self, run: Run, s) -> JobResult:
        train, valid = s["splits"]["train"], s["splits"]["valid"]
        cfg, vocab = s["cfg"], s["vocab"]
        run.start_training_call()
        started = time.perf_counter()
        res = training.train_base(train, valid, vocab, cfg)
        wall_s = time.perf_counter() - started

        with run.unmeasured():
            preds = inference.predict_base_corpus(valid, res.encoder, res.crf, vocab)
            f1_base = f1(valid, preds, vocab, cfg.scheme)
            run.checks.expect(f1_base == res.best_f1,
                              "base-train: validation F1 differs from the one train_base kept")
            digests = {
                "base_checkpoint": sha256(model_bytes(checkpoint.Model(res.encoder, res.crf, None, cfg))),
                "valid_preds_base": preds_digest(preds),
            }
        run.working_set = {"memory_entries": 0, "d": cfg.d_hidden, "memory_float32_bytes": 0}
        tokens = sum(len(i) for i in train) * cfg.epochs
        return JobResult(wall_s, tokens / wall_s, [], f1_base, None, digests)


class Tag:
    """Closed loop, one client: small tagging requests against a large memory."""

    name = "tag"

    def setup(self, run: Run):
        held_out = TAG_REQUESTS * TAG_REQUEST_SENTENCES
        splits, vocab = corpus(run.seed, {"train": 2000, "valid": 300, "test": held_out})
        cfg = TrainConfig(seed=run.seed, memory_fraction=0.5,
                          **(DESK | {"phase2_epochs": TAG_PHASE2_EPOCHS}))
        base, blob, digest, mem = desk_base_and_memory(run, splits, vocab, cfg)
        res = training.train_pnma(base.encoder, base.crf, digest, mem,
                                  splits["train"][:TAG_PHASE2_SENTENCES], None, vocab, cfg)
        ckpt_path = os.path.join(run.workdir, "tag.ckpt")
        mem_path = os.path.join(run.workdir, "tag.mem")
        pnma_digest = checkpoint.save_model(ckpt_path, checkpoint.Model(res.encoder, res.crf, res.nbr, cfg))
        memory.serialize_memory(mem, mem_path)
        with run.unmeasured():
            digests = {"base_checkpoint": sha256(blob), "adapted_checkpoint": pnma_digest,
                       "memory_file": file_digest(mem_path)}
        return dict(splits=splits, vocab=vocab, cfg=cfg, base=base, ckpt_path=ckpt_path,
                    mem_path=mem_path, digests=digests)

    def job(self, run: Run, s) -> JobResult:
        requests, vocab, cfg = s["splits"]["test"], s["vocab"], s["cfg"]
        latencies: list[float] = []
        replies: list = []
        started = time.perf_counter()
        model = checkpoint.load_model(s["ckpt_path"])
        mem = memory.deserialize_memory(s["mem_path"])
        for r in range(0, len(requests), TAG_REQUEST_SENTENCES):
            batch = requests[r : r + TAG_REQUEST_SENTENCES]
            sent = time.perf_counter()
            try:
                reply = inference.predict_pnma_corpus(
                    batch, model.encoder, model.crf, model.nbr, mem, vocab, model.config.k_neighbors
                )
            except PnmaError as exc:
                run.checks.expect(False, f"tag: request {r // TAG_REQUEST_SENTENCES} failed: {exc}")
                replies.extend(np.full(len(i), -1) for i in batch)
                continue
            latencies.append(1000.0 * (time.perf_counter() - sent))
            run.checks.expect(
                len(reply) == len(batch) and all(
                    p.shape == (len(i),) and np.issubdtype(p.dtype, np.integer)
                    and p.min() >= 0 and p.max() < vocab.n_tags
                    for p, i in zip(reply, batch)
                ),
                f"tag: reply {r // TAG_REQUEST_SENTENCES} is not one tag id per token",
            )
            replies.extend(reply)
        wall_s = time.perf_counter() - started

        with run.unmeasured():
            base = s["base"]
            preds_base = inference.predict_base_corpus(requests, base.encoder, base.crf, vocab)
            f1_base = f1(requests, preds_base, vocab, cfg.scheme)
            f1_adapted = f1(requests, replies, vocab, cfg.scheme)
            check_knn_oracle(run, mem, model.encoder, vocab, requests, cfg.k_neighbors, False, "tag")
            digests = {"loaded_checkpoint": model.digest, "replies": preds_digest(replies),
                       "held_out_preds_base": preds_digest(preds_base)}
        run.working_set = {"memory_entries": len(mem), "d": mem.d,
                           "memory_float32_bytes": mem.vectors.nbytes}
        tokens = sum(len(i) for i in requests)
        return JobResult(wall_s, tokens / (sum(latencies) / 1000.0), latencies,
                         f1_base, f1_adapted, digests)


WORKLOADS = {w.name: w for w in (Adapt(), BaseTrain(), Tag())}
