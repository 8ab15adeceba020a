"""Adam optimizer and the two training phases.

Phase 1 trains the whole base tagger end to end on the CRF negative
log-likelihood with the halving learning-rate schedule.  Phase 2 freezes
every encoder parameter, retrieves each training token's neighbors once
(the encoder being frozen makes activations and retrievals reusable across
epochs), and updates only the neighborhood vectors and the emission/CRF
head on the neighborhood representation.

Runs are deterministic given the seed: shuffling, initialization and
dropout draw from separate named streams, batches are same-length groups,
and gradient accumulation follows a fixed order.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import EvalReport, evaluate_labels
from .config import TrainConfig
from .crf import (
    CrfParams,
    crf_log_likelihood_batch,
    emission_backward,
    emission_scores,
    init_crf_params,
)
from .dataio import ExternalEmbeddings, Instance, Vocabulary
from .encoder import (
    EncoderParams,
    encode_backward,
    encode_batch,
    encode_corpus,
    init_encoder_params,
    length_grouped_jobs,
)
from .errors import CompatibilityError, DimensionError, DomainError, NumericError
from .inference import predict_base_corpus, predict_pnma_corpus
from .memory import ActivationMemory, corpus_neighbor_arrays, corpus_neighbor_cache
from .neighborhood import (
    NeighborhoodParams,
    gather_neighbors,
    init_neighborhood_params,
    neighborhood_forward,
    neighborhood_param_grad,
)
from .numeric import make_rng

# named rng streams
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_DROPOUT = 3
STREAM_NBR = 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per Adam chunk: the float64 temporaries of one chunk stay in cache
_ADAM_CHUNK = 1 << 14


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros(v.shape, dtype=np.float64) for k, v in params.items()},
        v={k: np.zeros(v.shape, dtype=np.float64) for k, v in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is added to the gradient before the moment updates; moments
    are kept in double precision regardless of the parameter dtype.  The
    elementwise update runs over contiguous chunks of each flattened
    parameter, which gives the same bits as one whole-array pass.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, theta in params.items():
        if name not in grads:
            raise DomainError(f"adam_step: no gradient for parameter {name!r}")
        g = np.asarray(grads[name])
        if g.shape != theta.shape:
            raise DimensionError(
                f"adam_step: gradient {g.shape} vs parameter {theta.shape} for {name!r}"
            )
        if not theta.flags.c_contiguous:
            raise DomainError(f"adam_step: parameter {name!r} is not C-contiguous")
        flat_theta = theta.reshape(-1)
        flat_g = g.reshape(-1)
        flat_m, flat_v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for s in range(0, flat_theta.size, _ADAM_CHUNK):
            chunk = slice(s, s + _ADAM_CHUNK)
            th = flat_theta[chunk]
            g64 = flat_g[chunk].astype(np.float64)
            if weight_decay:
                g64 = g64 + weight_decay * th.astype(np.float64)
            m, v = flat_m[chunk], flat_v[chunk]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g64
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g64 * g64
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            th -= update.astype(theta.dtype)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


def _training_batches(
    instances: Sequence[Instance], batch_size: int, rng: np.random.Generator
) -> list[list[int]]:
    """Shuffled same-length batches; composition is a pure function of the rng."""
    order = rng.permutation(len(instances))
    batches = length_grouped_jobs(instances, batch_size, order=order)
    return [batches[int(i)] for i in rng.permutation(len(batches))]


def log_line(epoch: int, lr: float, loss: float, report: EvalReport | None) -> str:
    if report is None:
        return f"{epoch}\t{lr:.8g}\t{loss:.6f}\t-\t-\t-"
    return (
        f"{epoch}\t{lr:.8g}\t{loss:.6f}\t"
        f"{report.precision:.4f}\t{report.recall:.4f}\t{report.f1:.4f}"
    )


@dataclass
class BaseTrainResult:
    encoder: EncoderParams
    crf: CrfParams
    log_lines: list[str]
    best_epoch: int
    best_f1: float
    seconds: float = 0.0


@dataclass
class PnmaTrainResult:
    encoder: EncoderParams
    crf: CrfParams
    nbr: NeighborhoodParams
    log_lines: list[str]
    best_epoch: int
    best_f1: float
    seconds: float = 0.0
    retrieval_seconds: float = 0.0
    retrieval_tokens: int = 0

    @property
    def retrieval_ms_per_token(self) -> float:
        if not self.retrieval_tokens:
            return 0.0
        return 1000.0 * self.retrieval_seconds / self.retrieval_tokens


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _restore(params: dict[str, np.ndarray], snap: dict[str, np.ndarray]) -> None:
    for k in params:
        params[k][...] = snap[k]


def _flat_views(
    shapes: dict[str, tuple[int, ...]], dtype
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One zeroed flat buffer and a C-contiguous view into it per name."""
    flat = np.zeros(sum(math.prod(s) for s in shapes.values()), dtype=dtype)
    views: dict[str, np.ndarray] = {}
    start = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return flat, views


def train_base(
    train_instances: Sequence[Instance],
    valid_instances: Sequence[Instance] | None,
    vocab: Vocabulary,
    config: TrainConfig,
    external: ExternalEmbeddings | None = None,
) -> BaseTrainResult:
    """End-to-end phase-1 training; keeps the best-validation-F1 parameters."""
    if not train_instances:
        raise DomainError("train_base: empty training set")
    started = time.perf_counter()
    dtype = np.dtype(config.dtype)
    init_rng = make_rng(config.seed, STREAM_INIT)
    encoder = init_encoder_params(
        vocab_size=vocab.n_words,
        d_word=config.d_word,
        d_pred=config.d_pred,
        d_hidden=config.d_hidden,
        n_layers=config.n_layers,
        rng=init_rng,
        dtype=dtype,
        external_dim=external.dim if external is not None else None,
    )
    crf = init_crf_params(config.d_hidden, vocab.n_tags, init_rng, dtype=dtype)
    params = {**encoder.to_dict(), "emit.w": crf.emit_w, "emit.b": crf.emit_b,
              "crf.trans": crf.trans, "crf.start": crf.start, "crf.stop": crf.stop}
    state = init_adam_state(params)
    shuffle_rng = make_rng(config.seed, STREAM_SHUFFLE)
    drop_rng = make_rng(config.seed, STREAM_DROPOUT)

    word_ids = [vocab.word_ids(inst.tokens) for inst in train_instances]
    pred_bits = [np.array(inst.predicate_bits, dtype=np.int64) for inst in train_instances]
    gold_ids = [vocab.tag_ids(inst.gold_labels) for inst in train_instances]
    ext_vecs = None
    if external is not None:
        ext_vecs = [external.vectors(inst.sentence_id).astype(dtype) for inst in train_instances]
    gold_valid = [list(inst.gold_labels) for inst in (valid_instances or [])]

    log_lines: list[str] = []
    best_f1 = -1.0
    best_epoch = 0
    best_snap = _snapshot(params)
    for epoch in range(1, config.epochs + 1):
        lr = config.lr_for_epoch(epoch)
        total_nll = 0.0
        batches = _training_batches(train_instances, config.batch_size, shuffle_rng)
        for bi, batch in enumerate(batches):
            w = np.stack([word_ids[i] for i in batch])
            b = np.stack([pred_bits[i] for i in batch])
            gold = np.stack([gold_ids[i] for i in batch])
            ext = np.stack([ext_vecs[i] for i in batch]) if ext_vecs is not None else None
            bsz = len(batch)
            h, cache = encode_batch(
                w, b, encoder,
                training=True,
                dropout_embed=config.dropout_embed,
                dropout_layer=config.dropout_layer,
                drop_rng=drop_rng,
                external_vectors=ext,
                want_cache=True,
            )
            em = emission_scores(h, crf)
            ll, cg = crf_log_likelihood_batch(em, gold, crf)
            loss = -float(ll.sum()) / bsz
            if not np.isfinite(loss):
                raise NumericError(f"train_base: non-finite loss at epoch {epoch}, batch {bi}")
            total_nll += -float(ll.sum())
            d_em = (-cg.emissions / bsz).astype(h.dtype)
            d_h, d_ew, d_eb = emission_backward(d_em, h, crf)
            grads = encode_backward(d_h, cache, encoder)
            grads["emit.w"] = d_ew
            grads["emit.b"] = d_eb
            grads["crf.trans"] = -cg.trans / bsz
            grads["crf.start"] = -cg.start / bsz
            grads["crf.stop"] = -cg.stop / bsz
            if config.clip_enabled:
                clip_gradients(grads, config.clip_norm)
            adam_step(params, grads, state, lr, config.weight_decay)
        epoch_loss = total_nll / len(train_instances)
        report = None
        if valid_instances:
            preds = predict_base_corpus(valid_instances, encoder, crf, vocab, external=external)
            pred_labels = [vocab.tag_strings(p) for p in preds]
            report = evaluate_labels(gold_valid, pred_labels, config.scheme)
            if report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = epoch
                best_snap = _snapshot(params)
        log_lines.append(log_line(epoch, lr, epoch_loss, report))
    if valid_instances:
        _restore(params, best_snap)
    else:
        best_epoch = config.epochs
        best_f1 = float("nan")
    return BaseTrainResult(
        encoder=encoder,
        crf=crf,
        log_lines=log_lines,
        best_epoch=best_epoch,
        best_f1=best_f1,
        seconds=time.perf_counter() - started,
    )


def predicate_frequency_table(instances: Sequence[Instance]) -> Counter:
    """Training-corpus frequency of each predicate word."""
    freq: Counter[str] = Counter()
    for inst in instances:
        if inst.predicate_index >= 0:
            freq[inst.tokens[inst.predicate_index]] += 1
    return freq


def train_pnma(
    encoder: EncoderParams,
    base_crf: CrfParams,
    base_digest: str,
    memory: ActivationMemory,
    train_instances: Sequence[Instance],
    valid_instances: Sequence[Instance] | None,
    vocab: Vocabulary,
    config: TrainConfig,
    external: ExternalEmbeddings | None = None,
) -> PnmaTrainResult:
    """Phase-2 training: frozen encoder, neighborhood + head updates only.

    The memory must have been built from the same base checkpoint (digests
    are compared).  Self-provenance neighbors are excluded for training
    tokens so stored activations never vouch for themselves.
    """
    if memory.source_digest != base_digest:
        raise CompatibilityError(
            f"memory built from checkpoint {memory.source_digest[:12]}... but "
            f"phase-2 base checkpoint is {base_digest[:12]}..."
        )
    if not train_instances:
        raise DomainError("train_pnma: empty training set")
    started = time.perf_counter()
    dtype = np.dtype(config.dtype)
    k = config.k_neighbors

    encoded = encode_corpus(
        instances=train_instances, params=encoder, vocab=vocab,
        external=external, threads=config.threads,
    )
    retrieval_started = time.perf_counter()
    queries, nbr_ids, nbr_dists = corpus_neighbor_arrays(
        train_instances, encoded, memory, k, exclude_self=True, threads=config.threads
    )
    n_tokens = len(queries)
    retrieval_seconds = time.perf_counter() - retrieval_started
    # distances weigh the neighbors in distance mode only
    nbr_dists = nbr_dists.astype(dtype) if config.neighborhood_mode == "distance" else None
    # flat (T, ...) token arrays in instance order; a batch takes its rows at once
    if queries.dtype == dtype:
        h_all = queries
    else:
        h_all = np.concatenate([encoded[i.sentence_id] for i in train_instances]).astype(dtype)
    gold_all = np.concatenate([vocab.tag_ids(inst.gold_labels) for inst in train_instances])
    starts = np.cumsum([0] + [len(inst) for inst in train_instances[:-1]])

    valid_encoded = None
    valid_ids: dict[str, np.ndarray] = {}
    valid_dists: dict[str, np.ndarray] = {}
    if valid_instances:
        valid_encoded = encode_corpus(
            instances=valid_instances, params=encoder, vocab=vocab,
            external=external, threads=config.threads,
        )
        valid_ids, valid_dists = corpus_neighbor_cache(
            valid_instances, valid_encoded, memory, k,
            exclude_self=False, threads=config.threads,
        )

    init_rng = make_rng(config.seed, STREAM_NBR)
    nbr = init_neighborhood_params(
        k, encoder.d_hidden, init_rng, mode=config.neighborhood_mode, dtype=dtype
    )
    if config.phase2_fresh_head:
        head = init_crf_params(encoder.d_hidden, vocab.n_tags, init_rng, dtype=dtype)
    else:
        head = base_crf
    initial = {"emit.w": head.emit_w, "emit.b": head.emit_b, "crf.trans": head.trans,
               "crf.start": head.start, "crf.stop": head.stop}
    if nbr.mode != "distance":  # distance mode has no rank vectors to train
        initial["nbr.n"] = nbr.n
    # the trainables are views into one flat buffer, so a step is one Adam pass
    shapes = {name: a.shape for name, a in initial.items()}
    flat, trainables = _flat_views(shapes, dtype)
    for name, view in trainables.items():
        view[...] = initial[name]
    # float64 holds each gradient exactly, whatever its dtype
    grad_flat, grad_views = _flat_views(shapes, np.float64)
    crf = CrfParams(trainables["emit.w"], trainables["emit.b"], trainables["crf.trans"],
                    trainables["crf.start"], trainables["crf.stop"])
    if "nbr.n" in trainables:
        nbr.n = trainables["nbr.n"]
    state = init_adam_state({"phase2": flat})
    shuffle_rng = make_rng(config.seed, STREAM_SHUFFLE + 100)

    gold_valid = [list(inst.gold_labels) for inst in (valid_instances or [])]

    log_lines: list[str] = []
    best_f1 = -1.0
    best_epoch = 0
    best_flat = flat.copy()
    for epoch in range(1, config.phase2_epochs + 1):
        total_nll = 0.0
        batches = _training_batches(train_instances, config.batch_size, shuffle_rng)
        for bi, batch in enumerate(batches):
            bsz = len(batch)
            rows = starts[batch][:, None] + np.arange(len(train_instances[batch[0]]))
            h = h_all[rows]
            m = gather_neighbors(memory.vectors, nbr_ids[rows]).astype(dtype, copy=False)
            dists = nbr_dists[rows] if nbr_dists is not None else None
            _, repr_, ncache = neighborhood_forward(
                h, m, nbr, distances=dists, want_cache=True
            )
            em = emission_scores(repr_, crf)
            ll, cg = crf_log_likelihood_batch(em, gold_all[rows], crf)
            loss = -float(ll.sum()) / bsz
            if not np.isfinite(loss):
                raise NumericError(
                    f"train_pnma: non-finite loss at epoch {epoch}, batch {bi}"
                )
            total_nll += -float(ll.sum())
            d_em = (-cg.emissions / bsz).astype(repr_.dtype)
            d_repr, d_ew, d_eb = emission_backward(d_em, repr_, crf)
            grads = {
                "emit.w": d_ew,
                "emit.b": d_eb,
                "crf.trans": -cg.trans / bsz,
                "crf.start": -cg.start / bsz,
                "crf.stop": -cg.stop / bsz,
            }
            if nbr.mode != "distance":
                grads["nbr.n"] = neighborhood_param_grad(d_repr, ncache, nbr)
            if config.clip_enabled:
                clip_gradients(grads, config.clip_norm)
            for name, view in grad_views.items():
                view[...] = grads[name]
            adam_step({"phase2": flat}, {"phase2": grad_flat}, state, config.phase2_lr,
                      config.weight_decay)
        epoch_loss = total_nll / len(train_instances)
        report = None
        if valid_instances:
            preds = predict_pnma_corpus(
                valid_instances, encoder, crf, nbr, memory, vocab, k,
                external=external, encoded=valid_encoded,
                neighbor_ids=valid_ids, neighbor_dists=valid_dists,
            )
            pred_labels = [vocab.tag_strings(p) for p in preds]
            report = evaluate_labels(gold_valid, pred_labels, config.scheme)
            if report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = epoch
                best_flat = flat.copy()
        log_lines.append(log_line(epoch, config.phase2_lr, epoch_loss, report))
    if valid_instances:
        flat[...] = best_flat
    else:
        best_epoch = config.phase2_epochs
        best_f1 = float("nan")
    return PnmaTrainResult(
        encoder=encoder,
        crf=crf,
        nbr=nbr,
        log_lines=log_lines,
        best_epoch=best_epoch,
        best_f1=best_f1,
        seconds=time.perf_counter() - started,
        retrieval_seconds=retrieval_seconds,
        retrieval_tokens=n_tokens,
    )
