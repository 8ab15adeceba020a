"""Linear-chain CRF: exact log-likelihood, marginals, and Viterbi decoding.

Emission scores project the per-token representation (the encoder output in
phase 1, the neighborhood representation in phase 2) onto tag scores; explicit
start/stop score vectors bracket the chain so |Y| stays the data's tag count.
Batched variants operate on same-length batches and are what training uses
(Viterbi also takes right-padded rows of mixed lengths); the single-sequence
functions are the batch-of-one case.

The log-likelihood runs the scaled forward-backward of Rabiner (1989) in
probability space: one (B, Y) @ (Y, Y) product and one rescale by the row
sum c_t per step instead of a logsumexp over (B, Y, Y), and the backward pass
reuses the c_t.  It is taken while the score spread
ptp(trans) + ptp(start) + ptp(stop) + max_t ptp(em_t) stays below
``_scaled_spread_limit`` (about 705 at 11 tags), which keeps every scaled
quantity in float64's normal range; a wider or non-finite spread takes the
log-space recursion, ``_crf_batch_log``.
"""

from __future__ import annotations

import math
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
    emissions: np.ndarray, gold: np.ndarray, params: CrfParams
) -> tuple[float, CrfGrads]:
    """log p(gold | emissions) and its gradients w.r.t. emissions and CRF scores:
    the batch-of-one case of ``crf_log_likelihood_batch``.

    The emission gradient is gold one-hot minus the unary marginals, and the
    transition/start/stop gradients are empirical minus expected counts.
    """
    ll, grads = crf_log_likelihood_batch(np.asarray(emissions)[None], np.asarray(gold)[None],
                                         params)
    return ll[0], CrfGrads(
        emissions=grads.emissions[0],
        trans=grads.trans,
        start=grads.start,
        stop=grads.stop,
    )


def crf_log_likelihood_batch(
    emissions: np.ndarray, gold: np.ndarray, params: CrfParams
) -> tuple[np.ndarray, CrfGrads]:
    """Batched variant over a same-length batch: emissions (B, n, |Y|), gold (B, n)."""
    if emissions.ndim != 3 or emissions.shape[2] != params.n_tags:
        raise DimensionError(
            f"emissions {emissions.shape} vs transition matrix {params.trans.shape}"
        )
    if emissions.shape[0] < 1 or emissions.shape[1] < 1:
        raise DomainError("emissions must hold at least one sequence of at least one token")
    gold = np.asarray(gold)
    if gold.shape != emissions.shape[:2]:
        raise DimensionError(f"gold {gold.shape} vs emissions {emissions.shape}")
    if (not np.issubdtype(gold.dtype, np.integer)
            or gold.min() < 0 or gold.max() >= params.n_tags):
        raise DomainError(f"gold tag ids must be integers in [0, {params.n_tags})")
    return _crf_batch(emissions, gold, params)


def _scaled_spread_limit(n_tags: int) -> float:
    """Largest score spread s for which the scaled recursion stays in range.

    s = ptp(trans) + ptp(start) + ptp(stop) + max_t ptp(em_t), so every factor
    exp(score - max score) of the recursion lies in [e^-s, 1].  Each alpha_t
    sums to 1, so alpha_{t-1} @ E lies in [e^-ptp(trans), 1], a_t in
    [e^-s, 1], c_t in [e^-s, Y], alpha_t = a_t / c_t in [e^-s / Y, 1] and
    z = alpha_{n-1} . exp(stop - max stop) in [e^-s, 1].  The backward pass
    keeps sum_i alpha_t[i] beta_t[i] = z at every t, so beta_t <= z / alpha_t
    <= Y e^s; its largest entry is at least z, and E keeps its entries within
    e^ptp(trans) of each other, so beta_t >= e^-s.  Likewise
    w_t = P_{t+1} beta_{t+1} / c_{t+1} = alpha_{t+1} beta_{t+1} / (alpha_t @ E)
    <= e^s.  Hence alpha, c, z and beta are normal float64 numbers, in
    [2^-1022, 2^1024), whenever s + ln Y < 1022 ln 2 (about 708.4).  Rounding
    moves these bounds by a relative (n + 1)(Y + 2) u at most (u = 2^-53),
    which the margin of 1 (a factor e) covers.  The products w, alpha beta and
    alpha E w may be subnormal; gradual underflow costs each at most 2^-1074
    absolute, which the division by z >= e^-s raises to at most 2^-52 on a
    marginal.
    """
    return 1022.0 * math.log(2.0) - math.log(n_tags) - 1.0


def _crf_batch(em: np.ndarray, gold: np.ndarray, params: CrfParams):
    """Shared implementation over a same-length batch: em (B, n, Y), gold (B, n).

    Runs on E = exp(trans - max), P_t = exp(em_t - max_y em_t) and the shifted
    start/stop scores; log Z is the sum of the log c_t plus the shifts.
    """
    b, n, y = em.shape
    trans = params.trans.astype(np.float64, copy=False)
    start = params.start.astype(np.float64, copy=False)
    stop = params.stop.astype(np.float64, copy=False)
    # time-major (n, B, Y) copy, so that each step's (B, Y) slab is contiguous,
    # and a tag-major one, whose tag reductions run over the outer axis
    p = np.empty((n, b, y))
    p[...] = em.transpose(1, 0, 2)
    by_tag = np.ascontiguousarray(p.transpose(2, 0, 1))
    em_max = by_tag.max(axis=0)
    t_max, s_max, f_max = trans.max(), start.max(), stop.max()
    spread = ((t_max - trans.min()) + (s_max - start.min()) + (f_max - stop.min())
              + (em_max - by_tag.min(axis=0)).max())
    if not spread <= _scaled_spread_limit(y):
        return _crf_batch_log(em, gold, params)

    p -= em_max[:, :, None]
    np.exp(p, out=p)
    e = np.exp(trans - t_max)
    # forward: alpha_t = (alpha_{t-1} @ E) * P_t / c_t, each alpha_t summing to 1
    alpha = np.empty((n, b, y))
    c = np.empty((n, b, 1))
    np.multiply(np.exp(start - s_max), p[0], out=alpha[0])
    for t in range(n):
        if t:
            np.matmul(alpha[t - 1], e, out=alpha[t])
            alpha[t] *= p[t]
        np.add.reduce(alpha[t], axis=1, keepdims=True, out=c[t])
        alpha[t] /= c[t]
    f = np.exp(stop - f_max)
    z = alpha[n - 1] @ f
    log_z = (np.log(c[:, :, 0]).sum(axis=0) + np.log(z) + em_max.sum(axis=0)
             + (s_max + f_max + (n - 1) * t_max))
    ll = _gold_score(em, gold, trans, start, stop) - log_z

    # backward with the same c_t: w_t = P_{t+1} beta_{t+1} / c_{t+1},
    # beta_t = w_t @ E^T
    e_t = np.ascontiguousarray(e.T)
    beta = np.empty((n, b, y))
    beta[n - 1] = f
    w = p[1:] / c[1:]
    for t in range(n - 2, -1, -1):
        w[t] *= beta[t + 1]
        np.matmul(w[t], e_t, out=beta[t])
    z = z[:, None]
    unary = beta
    unary *= alpha
    unary /= z
    # pair marginals alpha_t[i] E[i, j] w_t[j] / z, summed over batch and t
    w /= z
    d_trans = np.zeros((y, y))
    d_trans -= e * (alpha[:-1].reshape(-1, y).T @ w.reshape(-1, y))
    return ll, _grads(em, gold, np.ascontiguousarray(unary.transpose(1, 0, 2)), d_trans)


def _gold_score(em, gold, trans, start, stop) -> np.ndarray:
    work = em.astype(np.float64, copy=False)
    n = work.shape[1]
    rows = np.arange(work.shape[0])[:, None], np.arange(n)[None, :]
    score = start[gold[:, 0]] + stop[gold[:, n - 1]]
    score = score + work[rows[0], rows[1], gold].sum(axis=1)
    if n > 1:
        score = score + trans[gold[:, :-1], gold[:, 1:]].sum(axis=1)
    return score


def _grads(em, gold, unary, d_trans) -> CrfGrads:
    """Empirical minus expected counts, given the unary marginals (B, n, Y)
    and the negated expected transition counts."""
    b, n, _ = em.shape
    d_em = -unary
    d_em[np.arange(b)[:, None], np.arange(n)[None, :], gold] += 1.0
    if n > 1:
        np.add.at(d_trans, (gold[:, :-1].ravel(), gold[:, 1:].ravel()), 1.0)
    d_start = -unary[:, 0].sum(axis=0)
    np.add.at(d_start, gold[:, 0], 1.0)
    d_stop = -unary[:, n - 1].sum(axis=0)
    np.add.at(d_stop, gold[:, n - 1], 1.0)
    return CrfGrads(
        emissions=d_em.astype(em.dtype, copy=False),
        trans=d_trans,
        start=d_start,
        stop=d_stop,
    )


def _crf_batch_log(em: np.ndarray, gold: np.ndarray, params: CrfParams):
    """The log-space recursion: the fallback for a wide score spread, and the
    reference the scaled recursion is tested against."""
    b, n, y = em.shape
    work = em.astype(np.float64, copy=False)
    trans = params.trans.astype(np.float64, copy=False)
    start = params.start.astype(np.float64, copy=False)
    stop = params.stop.astype(np.float64, copy=False)

    log_alpha = np.empty((b, n, y))
    log_alpha[:, 0] = start + work[:, 0]
    for t in range(1, n):
        inner = log_alpha[:, t - 1][:, :, None] + trans[None, :, :]
        log_alpha[:, t] = logsumexp(inner, axis=1) + work[:, t]
    log_z = logsumexp(log_alpha[:, n - 1] + stop[None, :], axis=1)
    ll = _gold_score(em, gold, trans, start, stop) - log_z

    log_beta = np.empty((b, n, y))
    log_beta[:, n - 1] = stop
    for t in range(n - 2, -1, -1):
        inner = trans[None, :, :] + (work[:, t + 1] + log_beta[:, t + 1])[:, None, :]
        log_beta[:, t] = logsumexp(inner, axis=2)
    unary = np.exp(log_alpha + log_beta - log_z[:, None, None])

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
    return ll, _grads(em, gold, unary, d_trans)


def viterbi_decode(emissions: np.ndarray, params: CrfParams) -> np.ndarray:
    """Argmax-scoring tag path; ties broken toward the lowest tag index."""
    _check_emissions(emissions, params)
    return viterbi_decode_batch(emissions[None, :, :], params, np.array([len(emissions)]))[0]


def viterbi_decode_batch(
    emissions: np.ndarray, params: CrfParams, lengths: np.ndarray
) -> np.ndarray:
    """Batched Viterbi over right-padded rows (B, n, |Y|) -> (B, n) tag ids.

    Row b advances only while t < ``lengths[b]`` and backtracks from its last
    real token, so its first ``lengths[b]`` tags equal
    ``viterbi_decode(emissions[b, :lengths[b]])`` bit for bit; the tags after
    them are padding.
    """
    b, n, y = emissions.shape
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
