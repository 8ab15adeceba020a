"""Parameterized neighborhood representation.

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

Layout.  Callers pass neighbor vectors token-major, shaped (..., K, d), but
the kernels work on them rank-major: one contiguous (K, ..., d) array, taken
with ``np.ascontiguousarray(np.moveaxis(m, -2, 0))``.  ``gather_neighbors``
returns its gather as a (..., K, d) view of such an array, so for its output
that step is free; any other input is copied into that layout first, so the
bits never depend on how the input was laid out.  Rank-major, ``|m_i - h|``
broadcasts h over the leading axis and runs one long inner loop per rank, and
the three contractions over T tokens are batched matrix products: the logits
(K, T, d) @ (K, d, 1), the representation (T, 1, K) @ (T, K, d) and the
rank-vector gradient (K, 1, T) @ (K, T, d).

Workspace.  The two (K, ..., d) arrays, the gather and ``|m - h|``, are
written into a ``NeighborhoodWorkspace``: two grow-only flat buffers, so a
step reuses memory the process has already touched instead of allocating
(and page-faulting) two fresh arrays.  No kernel makes one: the caller that
owns a training call or a tagging pass creates it once and passes it to every
gather and forward of that call or pass.  A ``NeighborhoodCache`` holds views
into the workspace, so a backward raises once a later gather or forward has
written it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
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


class NeighborhoodWorkspace:
    """Two grow-only flat byte buffers, ``gather`` for the neighbor gather and
    ``sep`` for ``|m - h|``; each grows to the largest array asked of it (a
    gather's grows both) and never shrinks.  ``writes`` counts the arrays handed out, so that a cache
    can tell whether its views still hold what its forward wrote."""

    def __init__(self) -> None:
        self._buffers = {"gather": np.empty(0, np.uint8), "sep": np.empty(0, np.uint8)}
        self.writes = 0

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` array of ``dtype`` at the start of buffer
        ``name``, to be overwritten by the caller.

        A gather that outgrows either buffer frees both and reallocates both
        at its size, which is that of the ``|m - h|`` that follows it when
        the two dtypes agree: the pair then reuses the one region freed, as
        fresh per-step arrays would, where growing one buffer at a time can
        leave the other's old pages behind it.
        """
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        names = ("gather", "sep") if name == "gather" else (name,)
        if any(self._buffers[n].size < size for n in names):
            for n in names:  # free the old buffers before their successors exist
                self._buffers[n] = None
            for n in names:
                self._buffers[n] = np.empty(size, np.uint8)
        self.writes += 1
        return self._buffers[name][:size].view(dtype).reshape(shape)


@dataclass
class NeighborhoodCache:
    h: np.ndarray  # (..., d)
    m: np.ndarray  # rank-major (K, ..., d), a view into ``workspace`` when gathered there
    sep: np.ndarray  # |m - h|, rank-major, a view into ``workspace``
    eta: np.ndarray  # rank-major (K, ...)
    workspace: NeighborhoodWorkspace
    writes: int  # ``workspace.writes`` when the forward returned

    def check_current(self) -> None:
        """Raise ``DomainError`` if the workspace was written after the forward."""
        if self.workspace.writes != self.writes:
            raise DomainError("neighborhood cache is stale: a later gather or forward "
                              "overwrote its workspace")


def _move_axis(a: np.ndarray, source: int, dest: int) -> np.ndarray:
    """``np.moveaxis`` for one axis, as a view, without the argument checks
    that cost more than the kernels themselves on a short sentence."""
    order = list(range(a.ndim))
    order.insert(dest % a.ndim, order.pop(source % a.ndim))
    return a.transpose(order)


def gather_neighbors(
    vectors: np.ndarray, ids: np.ndarray, workspace: NeighborhoodWorkspace
) -> np.ndarray:
    """Rows of ``vectors`` (N, d) for entry ids (..., K): a (..., K, d) view of
    a contiguous rank-major (K, ..., d) array, the layout the kernels use,
    written into the caller's ``workspace``, in its gather buffer.

    An id outside [0, N) raises ``DomainError``: the gather itself clips,
    since numpy's bounds-checked ``take`` would write into a copy of the
    buffer first.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= len(vectors)):
        raise DomainError(f"gather_neighbors: entry ids must lie in [0, {len(vectors)}), "
                          f"got {ids.min()}..{ids.max()}")
    rank_ids = _move_axis(ids, -1, 0)
    out = workspace.array("gather", rank_ids.shape + vectors.shape[1:], vectors.dtype)
    np.take(vectors, rank_ids, axis=0, out=out, mode="clip")
    return _move_axis(out, 0, -2)


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
    distances: np.ndarray | None,
    workspace: NeighborhoodWorkspace,
) -> tuple[np.ndarray, np.ndarray, NeighborhoodCache]:
    """Weights eta (..., K), representation (..., d) and the backward's cache
    for queries h (..., d) with neighbor vectors m (..., K, d).  ``|m - h|``
    is written into the caller's ``workspace``, in its sep buffer, and the
    cache holds a view of it; gather m into the same workspace, so that the
    cache's staleness check covers m too.

    ``distances`` (..., K) is only read in ``distance`` mode, and may be None
    in the other modes.  On a
    single query (1-D ``h``) the two reductions use exactly rounded
    summation, which makes the result bit-identical under a joint
    permutation of the neighbors and their rank vectors; the batched path
    trades that for matrix products over the rank-major layout (differences
    stay at round-off).

    A non-finite query, rank vector or (in ``distance`` mode) distance raises
    ``NumericError``.  The neighbor vectors are not scanned: they come from an
    ``ActivationMemory``, which holds finite vectors only.
    """
    h = np.asarray(h)
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != h.shape[-1] or m.shape[:-2] != h.shape[:-1]:
        raise DimensionError(f"neighbor vectors {m.shape} vs query {h.shape}")
    _require_finite(h, "query")
    k, d = m.shape[-2], m.shape[-1]
    lead = h.shape[:-1]
    tokens = math.prod(lead)
    single = h.ndim == 1
    mk = np.ascontiguousarray(_move_axis(m, -2, 0))  # (K, ..., d)
    sep = np.subtract(mk, h, out=workspace.array("sep", mk.shape, np.result_type(mk, h)))
    np.abs(sep, out=sep)
    if params.mode == "distance":
        if distances is None:
            raise DomainError("distance mode requires the neighbor distances")
        neg = -np.asarray(distances, dtype=sep.dtype)
        _require_finite(neg, "neighbor distance")
        logits = _move_axis(neg, -1, 0)
    else:
        _require_finite(params.n, "rank vector")
        rank_vecs = _rank_vectors(params, k)
        logits = (sep.reshape(k, tokens, d) @ rank_vecs[:, :, None]).reshape((k,) + lead)
    eta = _exact_softmax(logits) if single else softmax(logits, axis=0)  # (K, ...)
    if single:
        weighted = eta[:, None] * mk
        repr_ = np.array([math.fsum(weighted[:, j]) for j in range(d)], dtype=m.dtype)
    else:
        m_tokens = mk.reshape(k, tokens, d).transpose(1, 0, 2)  # (T, K, d) view
        repr_ = (eta.reshape(k, tokens).T[:, None, :] @ m_tokens).reshape(lead + (d,))
    return _move_axis(eta, 0, -1), repr_, NeighborhoodCache(
        h=h, m=mk, sep=sep, eta=eta, workspace=workspace, writes=workspace.writes)


def _score_backward(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_n, d_logits) given d_loss/d_repr; d_logits is rank-major (K, T) over
    the T queries, or None in distance mode."""
    cache.check_current()
    if params.mode == "distance":
        return np.zeros_like(params.n), None
    mk, sep = cache.m, cache.sep
    k, d = mk.shape[0], mk.shape[-1]
    tokens = math.prod(mk.shape[1:-1])
    eta = cache.eta.reshape(k, tokens)
    m_tokens = mk.reshape(k, tokens, d).transpose(1, 0, 2)  # (T, K, d) view
    d_eta = (m_tokens @ d_repr.reshape(tokens, d, 1)).reshape(tokens, k).T
    inner = np.sum(eta * d_eta, axis=0)
    d_logits = eta * (d_eta - inner)
    d_rank = (d_logits.reshape(k, 1, tokens) @ sep.reshape(k, tokens, d)).reshape(k, d)
    d_n = d_rank.sum(axis=0, keepdims=True) if params.mode == "shared" else d_rank
    return d_n.astype(params.n.dtype, copy=False), d_logits


def neighborhood_param_grad(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> np.ndarray:
    """Gradient d_n of a scalar loss given d_loss/d_repr.

    The parameters-only part of ``neighborhood_backward``: all that phase 2
    trains, the encoder and the memory being frozen.  Zero in distance mode.
    A cache whose workspace was written after its forward raises
    ``DomainError``.
    """
    return _score_backward(d_repr, cache, params)[0]


def neighborhood_backward(
    d_repr: np.ndarray, cache: NeighborhoodCache, params: NeighborhoodParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_n, d_h, d_m) of a scalar loss given d_loss/d_repr.

    d_n is ``neighborhood_param_grad``'s; d_m has the token-major shape
    (..., K, d) of the forward's input.  At |m - h| = 0 the absolute value's
    subgradient 0 is used.
    """
    d_n, d_logits = _score_backward(d_repr, cache, params)
    mk, h = cache.m, cache.h
    d_m = cache.eta[..., None] * d_repr  # rank-major (K, ..., d)
    if d_logits is not None:
        k, d = mk.shape[0], mk.shape[-1]
        rank_vecs = _rank_vectors(params, k).reshape((k,) + (1,) * (h.ndim - 1) + (d,))
        d_sep = d_logits.reshape(mk.shape[:-1] + (1,)) * rank_vecs
        d_sep *= np.sign(mk - h)  # through |m - h|: d_loss/d_m, and -d_loss/d_h per neighbor
        d_m += d_sep
        d_h = -np.sum(d_sep, axis=0)
    else:
        d_h = np.zeros_like(h)
    return d_n, d_h, _move_axis(d_m, 0, -2)

