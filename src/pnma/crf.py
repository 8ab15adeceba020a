"""Linear-chain CRF: exact log-likelihood, marginals, and Viterbi decoding.

Emission scores project the per-token representation (the encoder output in
phase 1, the neighborhood representation in phase 2) onto tag scores; explicit
start/stop score vectors bracket the chain so |Y| stays the data's tag count.
Batched variants operate on same-length batches and are what training uses
(Viterbi also takes right-padded rows of mixed lengths); the single-sequence
functions are the batch-of-one case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .numeric import logsumexp


@dataclass
class CrfParams:
    """Emission projection plus chain scores.

    emit_w: (|Y|, d), emit_b: (|Y|,), trans[i, j] scores tag i -> tag j,
    start/stop: (|Y|,).
    """

    emit_w: np.ndarray
    emit_b: np.ndarray
    trans: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    @property
    def n_tags(self) -> int:
        return self.trans.shape[0]

    def copy(self) -> "CrfParams":
        return CrfParams(
            self.emit_w.copy(), self.emit_b.copy(), self.trans.copy(),
            self.start.copy(), self.stop.copy(),
        )


def init_crf_params(d: int, n_tags: int, rng: np.random.Generator, dtype=np.float32) -> CrfParams:
    r = 1.0 / np.sqrt(d)
    emit_w = rng.uniform(-r, r, size=(n_tags, d)).astype(dtype)
    return CrfParams(
        emit_w=emit_w,
        emit_b=np.zeros(n_tags, dtype=dtype),
        trans=np.zeros((n_tags, n_tags), dtype=dtype),
        start=np.zeros(n_tags, dtype=dtype),
        stop=np.zeros(n_tags, dtype=dtype),
    )


def emission_scores(h: np.ndarray, params: CrfParams) -> np.ndarray:
    """Tag scores for representations h (..., d) -> (..., |Y|)."""
    if h.shape[-1] != params.emit_w.shape[1]:
        raise DimensionError(
            f"emission_scores: h {h.shape} vs emit_w {params.emit_w.shape}"
        )
    return h @ params.emit_w.T + params.emit_b


def emission_backward(d_scores: np.ndarray, h: np.ndarray, params: CrfParams):
    """Given d_loss/d_scores, return (d_h, d_emit_w, d_emit_b)."""
    flat_s = d_scores.reshape(-1, d_scores.shape[-1])
    flat_h = h.reshape(-1, h.shape[-1])
    d_w = flat_s.T @ flat_h
    d_b = flat_s.sum(axis=0)
    d_h = d_scores @ params.emit_w
    return d_h, d_w, d_b


@dataclass
class CrfGrads:
    emissions: np.ndarray
    trans: np.ndarray
    start: np.ndarray
    stop: np.ndarray


def _check_emissions(emissions: np.ndarray, params: CrfParams) -> None:
    if emissions.ndim != 2 or emissions.shape[1] != params.n_tags:
        raise DimensionError(
            f"emissions {emissions.shape} vs transition matrix {params.trans.shape}"
        )
    if emissions.shape[0] < 1:
        raise DomainError("emissions must cover at least one token")


def gold_path_score(emissions: np.ndarray, gold: np.ndarray, params: CrfParams) -> float:
    n = emissions.shape[0]
    score = float(params.start[gold[0]]) + float(params.stop[gold[n - 1]])
    score += float(emissions[np.arange(n), gold].sum())
    if n > 1:
        score += float(params.trans[gold[:-1], gold[1:]].sum())
    return score


def crf_log_likelihood(
    emissions: np.ndarray, gold: np.ndarray, params: CrfParams, want_grads: bool = True
) -> tuple[float, CrfGrads | None]:
    """log p(gold | emissions) and its gradients w.r.t. emissions and CRF scores.

    The log-partition is computed by the forward algorithm in log space; the
    emission gradient is gold one-hot minus the unary marginals, and the
    transition/start/stop gradients are empirical minus expected counts.
    """
    _check_emissions(emissions, params)
    gold = np.asarray(gold)
    n, y = emissions.shape
    if gold.shape != (n,):
        raise DimensionError(f"gold {gold.shape} vs emissions {emissions.shape}")
    if gold.min() < 0 or gold.max() >= y:
        raise DomainError(f"gold tag id out of range [0, {y})")
    ll, grads = _crf_batch(emissions[None], gold[None], params, want_grads)
    return ll[0], (None if grads is None else CrfGrads(
        emissions=grads.emissions[0],
        trans=grads.trans,
        start=grads.start,
        stop=grads.stop,
    ))


def _crf_batch(em: np.ndarray, gold: np.ndarray, params: CrfParams, want_grads: bool):
    """Shared implementation over a same-length batch: em (B, n, Y), gold (B, n)."""
    b, n, y = em.shape
    work = em.astype(np.float64, copy=False)
    trans = params.trans.astype(np.float64, copy=False)
    start = params.start.astype(np.float64, copy=False)
    stop = params.stop.astype(np.float64, copy=False)

    # Forward pass in log space.
    log_alpha = np.empty((b, n, y))
    log_alpha[:, 0] = start + work[:, 0]
    for t in range(1, n):
        inner = log_alpha[:, t - 1][:, :, None] + trans[None, :, :]
        log_alpha[:, t] = logsumexp(inner, axis=1) + work[:, t]
    log_z = logsumexp(log_alpha[:, n - 1] + stop[None, :], axis=1)

    rows = np.arange(b)[:, None], np.arange(n)[None, :]
    score = start[gold[:, 0]] + stop[gold[:, n - 1]]
    score = score + work[rows[0], rows[1], gold].sum(axis=1)
    if n > 1:
        score = score + trans[gold[:, :-1], gold[:, 1:]].sum(axis=1)
    ll = score - log_z

    if not want_grads:
        return ll, None

    # Backward pass for marginals.
    log_beta = np.empty((b, n, y))
    log_beta[:, n - 1] = stop
    for t in range(n - 2, -1, -1):
        inner = trans[None, :, :] + (work[:, t + 1] + log_beta[:, t + 1])[:, None, :]
        log_beta[:, t] = logsumexp(inner, axis=2)
    unary = np.exp(log_alpha + log_beta - log_z[:, None, None])

    d_em = -unary
    d_em[rows[0], rows[1], gold] += 1.0

    d_trans = np.zeros((y, y))
    if n > 1:
        # pair marginals of every transition in one exp, (B, n-1, Y, Y); each
        # step's batch sum reduces a (B, Y, Y) view as the per-step arrays did
        pairs = np.exp(
            log_alpha[:, :-1, :, None]
            + trans[None, None, :, :]
            + (work[:, 1:] + log_beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        )
        for t in range(n - 1):
            d_trans -= pairs[:, t].sum(axis=0)
        np.add.at(d_trans, (gold[:, :-1].ravel(), gold[:, 1:].ravel()), 1.0)

    d_start = -unary[:, 0].sum(axis=0)
    np.add.at(d_start, gold[:, 0], 1.0)
    d_stop = -unary[:, n - 1].sum(axis=0)
    np.add.at(d_stop, gold[:, n - 1], 1.0)

    grads = CrfGrads(
        emissions=d_em.astype(em.dtype, copy=False),
        trans=d_trans,
        start=d_start,
        stop=d_stop,
    )
    return ll, grads


def crf_log_likelihood_batch(
    emissions: np.ndarray, gold: np.ndarray, params: CrfParams, want_grads: bool = True
) -> tuple[np.ndarray, CrfGrads | None]:
    """Batched variant over a same-length batch: emissions (B, n, |Y|), gold (B, n)."""
    if emissions.ndim != 3 or emissions.shape[2] != params.n_tags:
        raise DimensionError(
            f"emissions {emissions.shape} vs transition matrix {params.trans.shape}"
        )
    return _crf_batch(emissions, np.asarray(gold), params, want_grads)


def viterbi_decode(emissions: np.ndarray, params: CrfParams) -> np.ndarray:
    """Argmax-scoring tag path; ties broken toward the lowest tag index."""
    _check_emissions(emissions, params)
    return viterbi_decode_batch(emissions[None, :, :], params)[0]


def viterbi_decode_batch(
    emissions: np.ndarray, params: CrfParams, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Batched Viterbi over right-padded rows (B, n, |Y|) -> (B, n) tag ids.

    Row b advances only while t < ``lengths[b]`` and backtracks from its last
    real token, so its first ``lengths[b]`` tags equal
    ``viterbi_decode(emissions[b, :lengths[b]])`` bit for bit; the tags after
    them are padding.  ``lengths=None`` is the same-length batch.
    """
    b, n, y = emissions.shape
    if lengths is None:
        lengths = np.full(b, n)
    lengths = np.asarray(lengths)
    if (lengths.shape != (b,) or not np.issubdtype(lengths.dtype, np.integer)
            or np.any(lengths < 1) or np.any(lengths > n)):
        raise DomainError(f"viterbi: lengths must be {b} integers in 1..{n}, got {lengths}")
    work = emissions.astype(np.float64, copy=False)
    trans = params.trans.astype(np.float64, copy=False)
    delta = params.start.astype(np.float64)[None, :] + work[:, 0]
    back = np.zeros((b, n, y), dtype=np.int64)
    for t in range(1, n):
        cand = delta[:, :, None] + trans[None, :, :]
        # argmax returns the first (lowest) index on ties
        back[:, t] = np.argmax(cand, axis=1)
        step = np.take_along_axis(cand, back[:, t][:, None, :], axis=1)[:, 0, :] + work[:, t]
        # a finished row keeps its scores, and identity back pointers carry
        # the tag chosen at its last real token down to that token
        done = lengths <= t
        step[done] = delta[done]
        back[done, t] = np.arange(y)
        delta = step
    delta = delta + params.stop.astype(np.float64)[None, :]
    path = np.zeros((b, n), dtype=np.int64)
    path[:, n - 1] = np.argmax(delta, axis=1)
    for t in range(n - 1, 0, -1):
        path[:, t - 1] = back[np.arange(b), t, path[:, t]]
    return path
