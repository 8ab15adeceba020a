"""Adam and the training loop that both phases run.

Both phases minimise the CRF negative log-likelihood of the emission/CRF
head with Adam; they differ only in the representation under the head.
Phase 1 trains the whole base tagger end to end on the encoder output, in
float32, with the halving learning-rate schedule.  Phase 2 freezes every
encoder parameter, retrieves each training token's neighbors once (the
encoder being frozen makes activations and retrievals reusable across
epochs), and trains only the neighborhood vectors and the head on the
neighborhood representation, in the base encoder's dtype.  Phase 2 keeps
the training and validation neighbor ids at the memory's id width for the
whole call, and every step and validation block gathers its neighbors and
forms ``|m - h|`` in one ``neighborhood.NeighborhoodWorkspace`` that the
call creates, so no step allocates a (K, B, n, d) array.  Both phases
apply the recipe's weight decay, ``WEIGHT_DECAY``.  Each phase keeps its
trainables as views into one flat buffer, so an optimizer step is one Adam
pass, with moments in the buffer's dtype, and the best-epoch snapshot is one
copy, taken only when a validation pass improves.

Runs are deterministic given the seed: shuffling, initialization and
dropout draw from separate named streams, batches are same-length groups,
and gradient accumulation follows a fixed order.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import EvalReport, evaluate_labels
from .checkpoint import crf_from_dict, crf_to_dict
from .config import TrainConfig
from .crf import (
    CrfParams,
    crf_log_likelihood_batch,
    emission_backward,
    emission_scores,
    init_crf_params,
)
from .dataio import ExternalEmbeddings, Instance, TokenTable, Vocabulary
from .encoder import (
    EncoderParams,
    encode_backward,
    encode_batch,
    init_encoder_params,
)
from .errors import CompatibilityError, DimensionError, DomainError, NumericError
from .inference import encode_and_retrieve, predict_base_corpus, tag_rows
from .memory import ActivationMemory, self_exclusions
from .neighborhood import (
    NeighborhoodParams,
    NeighborhoodWorkspace,
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
# elements per Adam chunk: a chunk's gradient and scratch buffers stay in cache
_ADAM_CHUNK = 1 << 14
# the recipe's weight decay, in both phases
WEIGHT_DECAY = 1e-4


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(theta: np.ndarray) -> AdamState:
    """Zero moments of the buffer's size and dtype."""
    return AdamState(m=np.zeros(theta.size, theta.dtype), v=np.zeros(theta.size, theta.dtype))


def adam_step(
    theta: np.ndarray,
    grads: Sequence[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update of a flat parameter buffer, in place.

    ``grads`` are the gradients of the buffer's consecutive segments, in
    layout order, of any shape and float dtype.  ``WEIGHT_DECAY`` is added to
    the gradient before the moment updates.  The moments have the buffer's dtype,
    and the bias corrections are folded into one step size and one epsilon
    (Kingma & Ba 2015, section 2): with ``c1 = 1 - beta1**t`` and
    ``c2 = 1 - beta2**t``, ``lr * (m/c1) / (sqrt(v/c2) + eps)`` equals
    ``lr_t * m / (sqrt(v) + eps_t)`` for ``lr_t = lr * sqrt(c2) / c1`` and
    ``eps_t = eps * sqrt(c2)``.  The update runs over chunks of the buffer,
    gathering each chunk's gradient, in the buffer's dtype, from the pieces
    that cover it into one reused buffer; being elementwise, it gives the
    same bits as one whole-array pass per segment.
    """
    if theta.ndim != 1 or not theta.flags.c_contiguous:
        raise DomainError(f"adam_step: parameters must be one flat C-contiguous buffer, "
                          f"got shape {theta.shape}")
    pieces = [np.asarray(g).reshape(-1) for g in grads]
    n_grads = sum(p.size for p in pieces)
    if n_grads != theta.size:
        raise DimensionError(f"adam_step: gradients hold {n_grads} elements "
                             f"for {theta.size} parameters")
    state.t += 1
    c2_root = math.sqrt(1.0 - ADAM_BETA2 ** state.t)
    lr_t = lr * c2_root / (1.0 - ADAM_BETA1 ** state.t)
    eps_t = ADAM_EPS * c2_root
    g_buf = np.empty(min(theta.size, _ADAM_CHUNK), theta.dtype)
    tmp_buf = np.empty_like(g_buf)
    piece, offset = 0, 0  # the next gradient element to gather
    for s in range(0, theta.size, _ADAM_CHUNK):
        chunk = slice(s, s + _ADAM_CHUNK)
        th, m, v = theta[chunk], state.m[chunk], state.v[chunk]
        g, tmp = g_buf[: th.size], tmp_buf[: th.size]
        filled = 0
        while filled < th.size:
            take = min(pieces[piece].size - offset, th.size - filled)
            g[filled : filled + take] = pieces[piece][offset : offset + take]
            filled += take
            offset += take
            if offset == pieces[piece].size:
                piece, offset = piece + 1, 0
        if WEIGHT_DECAY:
            np.multiply(th, WEIGHT_DECAY, out=tmp)
            g += tmp
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += eps_t
        np.divide(m, tmp, out=tmp)
        tmp *= lr_t
        th -= tmp


def _training_batches(
    lengths: Sequence[int], batch_size: int, rng: np.random.Generator
) -> list[list[int]]:
    """Shuffled same-length batches of sentence indices, given each sentence's
    length: the indices, in one random order, are grouped by length (shortest
    first) and cut into batches of ``batch_size``, which a second draw
    shuffles.  Composition is a pure function of the rng."""
    groups: dict[int, list[int]] = {}
    for i in rng.permutation(len(lengths)):
        groups.setdefault(int(lengths[i]), []).append(int(i))
    batches: list[list[int]] = []
    for length in sorted(groups):
        idxs = groups[length]
        batches.extend(idxs[s : s + batch_size] for s in range(0, len(idxs), batch_size))
    return [batches[int(i)] for i in rng.permutation(len(batches))]


def log_line(epoch: int, lr: float, loss: float, report: EvalReport | None) -> str:
    if report is None:
        return f"{epoch}\t{lr:.8g}\t{loss:.6f}\t-\t-\t-"
    return (
        f"{epoch}\t{lr:.8g}\t{loss:.6f}\t"
        f"{report.precision:.4f}\t{report.recall:.4f}\t{report.f1:.4f}"
    )


@dataclass
class TrainResult:
    """A trained model; ``nbr`` is None after phase 1."""

    encoder: EncoderParams
    crf: CrfParams
    nbr: NeighborhoodParams | None
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


def _flat_views(
    arrays: dict[str, np.ndarray], dtype
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One flat buffer holding a copy of each array, and a C-contiguous view
    into it per name, in the order given."""
    flat = np.empty(sum(a.size for a in arrays.values()), dtype=dtype)
    views: dict[str, np.ndarray] = {}
    start = 0
    for name, a in arrays.items():
        views[name] = flat[start : start + a.size].reshape(a.shape)
        views[name][...] = a
        start += a.size
    return flat, views


# (d_repr, head gradients) -> every trainable's gradient
Backward = Callable[[np.ndarray, dict[str, np.ndarray]], dict[str, np.ndarray]]


def _train_loop(
    name: str,
    instances: Sequence[Instance],
    table: TokenTable,
    valid_instances: Sequence[Instance] | None,
    vocab: Vocabulary,
    config: TrainConfig,
    flat: np.ndarray,
    trainables: dict[str, np.ndarray],
    epochs: int,
    lr_for_epoch: Callable[[int], float],
    shuffle_rng: np.random.Generator,
    forward: Callable[[np.ndarray], tuple[np.ndarray, Backward]],
    predict_valid: Callable[[], list[np.ndarray]],
) -> tuple[list[str], int, float]:
    """Train the head over ``forward``'s representation for ``epochs`` epochs.

    ``trainables`` are views into ``flat``, the head's five among them.
    ``lr_for_epoch`` gives each 1-based epoch's rate when that epoch starts.
    ``forward`` maps a batch's rows of ``table``, the training set's token
    table, to its representation and a backward function; ``predict_valid``
    tags the validation set with the current parameters.  With validation
    data the best-F1 epoch's parameters are restored at the end; they are
    copied aside when an epoch improves on the best, after the epoch's last
    step has released its gradients and backward cache.  Returns the log
    lines, the best epoch (0 when no epoch ran) and its F1 (NaN without
    validation data or epochs).
    """
    crf = crf_from_dict(trainables)
    state = init_adam_state(flat)
    gold_all = vocab.tag_ids([tag for inst in instances for tag in inst.gold_labels])
    gold_valid = [list(inst.gold_labels) for inst in (valid_instances or [])]

    def step(epoch: int, bi: int, batch: list[int], lr: float) -> float:
        """One optimizer update on batch ``bi`` of ``epoch``; returns its summed
        NLL.  Its activations and backward cache are released before Adam,
        and its gradients when it returns."""
        bsz = len(batch)
        rows = table.rows(batch)
        repr_, backward = forward(rows)
        em = emission_scores(repr_, crf)
        ll, cg = crf_log_likelihood_batch(em, gold_all[rows], crf)
        nll = -float(ll.sum())
        if not np.isfinite(nll):
            raise NumericError(f"{name}: non-finite loss at epoch {epoch}, batch {bi}")
        d_em = (-cg.emissions / bsz).astype(repr_.dtype)
        d_repr, d_ew, d_eb = emission_backward(d_em, repr_, crf)
        grads = backward(d_repr, crf_to_dict(
            CrfParams(d_ew, d_eb, -cg.trans / bsz, -cg.start / bsz, -cg.stop / bsz)
        ))
        del repr_, backward, em, cg, d_em, d_repr
        adam_step(flat, [grads[k] for k in trainables], state, lr)
        return nll

    log_lines: list[str] = []
    best_f1 = float("nan")
    best_epoch = 0
    best_flat: np.ndarray | None = None
    for epoch in range(1, epochs + 1):
        lr = lr_for_epoch(epoch)
        batches = _training_batches(table.lengths, config.batch_size, shuffle_rng)
        total_nll = 0.0
        for bi, batch in enumerate(batches):
            total_nll += step(epoch, bi, batch, lr)
        report = None
        if valid_instances:
            pred_labels = [vocab.tag_strings(p) for p in predict_valid()]
            report = evaluate_labels(gold_valid, pred_labels, config.scheme)
            if best_epoch == 0 or report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = epoch
                if best_flat is None:
                    best_flat = flat.copy()
                else:
                    best_flat[...] = flat
        log_lines.append(log_line(epoch, lr, total_nll / len(instances), report))
    if not valid_instances:
        best_epoch = epochs
    elif best_epoch < epochs:
        flat[...] = best_flat
    return log_lines, best_epoch, best_f1


def train_base(
    train_instances: Sequence[Instance],
    valid_instances: Sequence[Instance] | None,
    vocab: Vocabulary,
    config: TrainConfig,
    external: ExternalEmbeddings | None = None,
) -> TrainResult:
    """End-to-end phase-1 training; keeps the best-validation-F1 parameters."""
    if not train_instances:
        raise DomainError("train_base: empty training set")
    if valid_instances is not None and not valid_instances:
        raise DomainError("train_base: empty validation set")
    started = time.perf_counter()
    init_rng = make_rng(config.seed, STREAM_INIT)
    encoder = init_encoder_params(
        vocab_size=vocab.n_words,
        d_word=config.d_word,
        d_pred=config.d_pred,
        d_hidden=config.d_hidden,
        n_layers=config.n_layers,
        rng=init_rng,
        external_dim=external.dim if external is not None else None,
    )
    crf = init_crf_params(config.d_hidden, vocab.n_tags, init_rng)
    flat, trainables = _flat_views({**encoder.to_dict(), **crf_to_dict(crf)}, np.float32)
    encoder, crf = EncoderParams.from_dict(trainables), crf_from_dict(trainables)
    drop_rng = make_rng(config.seed, STREAM_DROPOUT)
    table = TokenTable.build(train_instances, vocab, external)

    def forward(rows: np.ndarray) -> tuple[np.ndarray, Backward]:
        h, cache = encode_batch(
            table.word_ids[rows], table.bits[rows], encoder,
            dropout_embed=config.dropout_embed,
            dropout_layer=config.dropout_layer,
            drop_rng=drop_rng,
            external_vectors=None if table.external is None else table.external[rows],
            want_cache=True,
        )
        return h, lambda d_h, head: {**encode_backward(d_h, cache, encoder), **head}

    log_lines, best_epoch, best_f1 = _train_loop(
        "train_base", train_instances, table, valid_instances, vocab, config, flat, trainables,
        epochs=config.epochs,
        lr_for_epoch=config.lr_for_epoch,
        shuffle_rng=make_rng(config.seed, STREAM_SHUFFLE),
        forward=forward,
        predict_valid=lambda: predict_base_corpus(
            valid_instances, encoder, crf, vocab, external=external
        ),
    )
    return TrainResult(encoder, crf, None, log_lines, best_epoch, best_f1,
                       seconds=time.perf_counter() - started)


def predicate_frequency_table(instances: Sequence[Instance]) -> Counter:
    """Training-corpus frequency of each predicate word."""
    return Counter(inst.tokens[inst.predicate_index] for inst in instances)


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
) -> TrainResult:
    """Phase-2 training: frozen encoder, neighborhood + head updates only.

    The memory must have been built from the same base checkpoint (digests
    are compared), and ``config``, which the adapted checkpoint echoes, must
    give the base encoder's shape.  Self-provenance neighbors are excluded
    for training tokens so stored activations never vouch for themselves.
    """
    if memory.source_digest != base_digest:
        raise CompatibilityError(
            f"memory built from checkpoint {memory.source_digest[:12]}... but "
            f"phase-2 base checkpoint is {base_digest[:12]}..."
        )
    conflict = encoder.config_conflict(config)
    if conflict:
        raise CompatibilityError(f"train_pnma: the base encoder contradicts the config: "
                                 f"{conflict}")
    if not train_instances:
        raise DomainError("train_pnma: empty training set")
    if valid_instances is not None and not valid_instances:
        raise DomainError("train_pnma: empty validation set")
    started = time.perf_counter()
    dtype = encoder.pred_emb.dtype
    k = config.k_neighbors

    # distances weigh the neighbors in distance mode only
    weigh = config.neighborhood_mode == "distance"
    table, h_all, nbr_ids, nbr_dists, retrieval_seconds = encode_and_retrieve(
        train_instances, encoder, vocab, memory, k, external, config.threads,
        self_exclusions(train_instances), weigh)
    if valid_instances:
        valid_table, valid_h, valid_ids, valid_dists, _ = encode_and_retrieve(
            valid_instances, encoder, vocab, memory, k, external, config.threads, None, weigh)
    if weigh:  # held for the whole call, so in the activations' dtype
        nbr_dists = nbr_dists.astype(h_all.dtype)
        valid_dists = valid_dists.astype(h_all.dtype) if valid_instances else None

    nbr = init_neighborhood_params(
        k, encoder.d_hidden, make_rng(config.seed, STREAM_NBR),
        mode=config.neighborhood_mode, dtype=dtype,
    )
    initial = crf_to_dict(base_crf)
    if nbr.mode != "distance":  # distance mode has no rank vectors to train
        initial["nbr.n"] = nbr.n
    flat, trainables = _flat_views(initial, dtype)
    crf = crf_from_dict(trainables)
    if "nbr.n" in trainables:
        nbr.n = trainables["nbr.n"]

    # every step and every validation block gathers and forms |m - h| here
    workspace = NeighborhoodWorkspace()

    def forward(rows: np.ndarray) -> tuple[np.ndarray, Backward]:
        h = h_all[rows]
        m = gather_neighbors(memory.vectors, nbr_ids[rows], workspace).astype(dtype, copy=False)
        dists = nbr_dists[rows] if nbr_dists is not None else None
        _, repr_, ncache = neighborhood_forward(h, m, nbr, dists, workspace)
        if nbr.mode == "distance":
            return repr_, lambda d_repr, head: head
        return repr_, lambda d_repr, head: {
            **head, "nbr.n": neighborhood_param_grad(d_repr, ncache, nbr)
        }

    log_lines, best_epoch, best_f1 = _train_loop(
        "train_pnma", train_instances, table, valid_instances, vocab, config, flat, trainables,
        epochs=config.phase2_epochs,
        lr_for_epoch=lambda epoch: config.phase2_lr,
        shuffle_rng=make_rng(config.seed, STREAM_SHUFFLE + 100),
        forward=forward,
        predict_valid=lambda: tag_rows(valid_table, valid_h, crf, nbr, memory,
                                       valid_ids, valid_dists, workspace=workspace),
    )
    return TrainResult(encoder, crf, nbr, log_lines, best_epoch, best_f1,
                       seconds=time.perf_counter() - started,
                       retrieval_seconds=retrieval_seconds, retrieval_tokens=len(h_all))
