"""Parameterized neighborhood representation and memory-adapted prediction.

For a query representation h and its K nearest memory vectors m_1..m_K, the
weights are a softmax over per-neighbor scores <n_i, |m_i - h|> computed from
learned vectors n_1..n_K, and the neighborhood representation is the convex
combination sum_i eta_i m_i.  That representation replaces h as the
classifier input.

Weighting modes:
  * ``distinct`` (default): one learned n_i per neighbor rank.
  * ``shared``: a single learned vector used for every rank.
  * ``distance``: no learned vectors; eta is a softmax over negative
    Euclidean distances (heuristic baseline, nothing to train here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crf import CrfParams
from .dataio import Instance, Vocabulary
from .encoder import EncoderParams
from .errors import DimensionError, DomainError, NumericError
from .memory import ActivationMemory
from .numeric import softmax

MODES = ("distinct", "shared", "distance")


@dataclass
class NeighborhoodParams:
    """Learned neighbor-rank vectors: (K, d) for distinct mode, (1, d) for shared."""

    n: np.ndarray
    mode: str = "distinct"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DomainError(f"unknown neighborhood mode {self.mode!r}")
        if self.n.ndim != 2:
            raise DimensionError(f"neighborhood parameters must be 2-D, got {self.n.shape}")

    @property
    def k(self) -> int:
        return self.n.shape[0]

    @property
    def d(self) -> int:
        return self.n.shape[1]


def init_neighborhood_params(
    k: int, d: int, rng: np.random.Generator, mode: str = "distinct", dtype=np.float32
) -> NeighborhoodParams:
    # small init keeps the initial weights near uniform
    rows = 1 if mode == "shared" else k
    n = rng.normal(0.0, 0.02, size=(rows, d)).astype(dtype)
    return NeighborhoodParams(n=n, mode=mode)


@dataclass
class NeighborhoodCache:
    h: np.ndarray
    m: np.ndarray
    sep: np.ndarray  # |m - h|
    eta: np.ndarray


def _rank_vectors(params: NeighborhoodParams, k: int) -> np.ndarray:
    if params.mode == "shared":
        return np.broadcast_to(params.n, (k, params.d))
    if params.n.shape[0] != k:
        raise DimensionError(
            f"neighborhood parameters for K={params.n.shape[0]} used with K={k} neighbors"
        )
    return params.n


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"neighborhood_forward: non-finite {what}")


def _exact_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax whose normalizer is exactly rounded (fsum), so the result is
    invariant under any permutation of the inputs, bit for bit."""
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / math.fsum(e)


def neighborhood_forward(
    h: np.ndarray,
    m: np.ndarray,
    params: NeighborhoodParams,
    distances: np.ndarray | None = None,
    want_cache: bool = False,
):
    """Weights eta (..., K) and representation (..., d) for queries h (..., d)
    with neighbor vectors m (..., K, d).

    ``distances`` (..., K) is only consulted in ``distance`` mode.  On a
    single query (1-D ``h``) the two reductions use exactly rounded
    summation, which makes the result bit-identical under a joint
    permutation of the neighbors and their rank vectors; the batched path
    trades that for vectorized reductions (differences stay at round-off).

    A non-finite query, rank vector or (in ``distance`` mode) distance raises
    ``NumericError``.  The neighbor vectors are not scanned: they come from an
    ``ActivationMemory``, which holds finite vectors only.
    """
    h = np.asarray(h)
    m = np.asarray(m)
    if m.shape[-1] != h.shape[-1] or m.shape[:-2] != h.shape[:-1]:
        raise DimensionError(f"neighbor vectors {m.shape} vs query {h.shape}")
    _require_finite(h, "query")
    k = m.shape[-2]
    single = h.ndim == 1
    sep = m - h[..., None, :]
    np.abs(sep, out=sep)
    if params.mode == "distance":
        if distances is None:
            raise DomainError("distance mode requires the neighbor distances")
        neg = -np.asarray(distances, dtype=sep.dtype)
        _require_finite(neg, "neighbor distance")
        eta = _exact_softmax(neg) if single else softmax(neg, axis=-1)
    else:
        _require_finite(params.n, "rank vector")
        rank_vecs = _rank_vectors(params, k)
        logits = np.einsum("...kd,kd->...k", sep, rank_vecs)
        eta = _exact_softmax(logits) if single else softmax(logits, axis=-1)
    if single:
        weighted = eta[:, None] * m
        repr_ = np.array([math.fsum(weighted[:, j]) for j in range(m.shape[-1])],
                         dtype=m.dtype)
    else:
        repr_ = np.einsum("...k,...kd->...d", eta, m)
    if not want_cache:
        return eta, repr_
    cache = NeighborhoodCache(h=h, m=m, sep=sep, eta=eta)
    return eta, repr_, cache


def _score_backward(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_n, d_logits) given d_loss/d_repr; d_logits is None in distance mode."""
    if params.mode == "distance":
        return np.zeros_like(params.n), None
    eta, sep = cache.eta, cache.sep
    k = sep.shape[-2]
    d_eta = np.einsum("...d,...kd->...k", d_repr, cache.m)
    inner = np.sum(eta * d_eta, axis=-1, keepdims=True)
    d_logits = eta * (d_eta - inner)
    d_rank = np.einsum(
        "bk,bkd->kd", d_logits.reshape(-1, k), sep.reshape(-1, k, sep.shape[-1])
    )
    d_n = d_rank.sum(axis=0, keepdims=True) if params.mode == "shared" else d_rank
    return d_n.astype(params.n.dtype, copy=False), d_logits


def neighborhood_param_grad(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> np.ndarray:
    """Gradient d_n of a scalar loss given d_loss/d_repr.

    The parameters-only part of ``neighborhood_backward``: all that phase 2
    trains, the encoder and the memory being frozen.  Zero in distance mode.
    """
    return _score_backward(d_repr, cache, params)[0]


def neighborhood_backward(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_n, d_h, d_m) of a scalar loss given d_loss/d_repr.

    d_n is ``neighborhood_param_grad``'s; at |m - h| = 0 the absolute value's
    subgradient 0 is used.
    """
    d_n, d_logits = _score_backward(d_repr, cache, params)
    m, h = cache.m, cache.h
    d_m = cache.eta[..., None] * d_repr[..., None, :]
    if d_logits is None:
        return d_n, np.zeros_like(h), d_m
    sign = np.sign(m - h[..., None, :])
    d_sep = d_logits[..., None] * _rank_vectors(params, m.shape[-2])
    d_sep *= sign  # through |m - h|: d_loss/d_m, and -d_loss/d_h per neighbor
    d_m += d_sep
    return d_n, -np.sum(d_sep, axis=-2), d_m


def pnma_predict(
    instance: Instance,
    encoder: EncoderParams,
    crf: CrfParams,
    nbr: NeighborhoodParams,
    memory: ActivationMemory,
    vocab: Vocabulary,
    k: int,
    external=None,
    exclude_self: bool = False,
) -> np.ndarray:
    """Memory-adapted tag prediction for one instance: the batch-of-one case
    of ``inference.predict_pnma_corpus``.

    encode -> per-token K-NN -> neighborhood representation -> emission
    scores on that representation (not on the encoder output) -> Viterbi.
    """
    from .inference import predict_pnma_corpus  # inference builds on this module

    return predict_pnma_corpus([instance], encoder, crf, nbr, memory, vocab, k,
                               external=external, exclude_self=exclude_self)[0]
