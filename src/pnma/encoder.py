"""Base representation pipeline: embeddings, alternating LSTM stack, connection layers.

The stack is: token/predicate embedding concat -> LSTM layer 1 (forward) ->
connection -> LSTM layer 2 (backward) -> ... -> final LSTM layer, whose
per-token outputs are the sequence representation consumed by the CRF head
and stored in the activation memory.  Directions alternate starting forward.

All kernels operate on batches (B, n, ...); a single sequence is the
batch-of-one case (1, n, ...), the only form the LSTM layer takes.  Each
forward has an explicit backward that is verified by finite differences in
the test suite.  A batch is same-length (training), or right-padded with its
``lengths`` given (inference).  Padding needs no mask: a forward LSTM layer
reaches the padding only after a row's real steps, and a backward layer
reverses each row within its own length, so the padding comes last there
too; every other layer is per token.  ``encode_rows`` runs the
stack over a whole ``dataio.TokenTable`` in ``length_sorted_chunks``, one
padded batch of at most ``CHUNK_TOKENS`` padded tokens each, and returns one
activation row per token, (T, d) in the table's row order.  Training batches
are same-length groups instead (``training._training_batches``).

Products with a weight matrix that do not depend on the previous timestep
(the LSTM input projection and its input gradient, both connection products)
are one 2-D GEMM over all B * n rows of a batch (``_matmul_rows``), so BLAS
packs each weight once per batch rather than once per sentence.  The LSTM
backward pass stashes every timestep's gate gradient and, after the
recurrence, forms the weight gradients as one GEMM each over all B * n rows in
the parameter dtype, and the bias gradient as one float64 row sum (grouped
weight-gradient GEMMs, Appleyard, Kočiský & Blunsom 2016).  Only the
recurrence products run per timestep.  The forward one is ``wh @ h.T``, in the
(4d, B) layout BLAS returns, into one reused buffer: each step adds its block
of the input projection (whose GEMM takes the rows in step order), read
transposed, while h stays (B, d) row-major so that BLAS reads it transposed.
On the tested OpenBLAS build this rounds as the row-major
``pre_x[:, t] + h @ wh.T`` does in every float32 shape tried, and in float64
up to 192 rows a step at widths that are even or at most 48
(``tests/test_encoder.py`` compares every output, cache and gradient byte
with the row-major formulation).  The zero state at t = 0 needs no product,
and the backward forms ``dpre @ wh`` only where its gradient is read, not
into the initial state.

The step's gate math runs in place on contiguous (d, B) blocks and writes the
gates, the cell state, tanh c and h straight into the step-major arrays that
``LstmCache`` keeps (h through a transposed view), so a step copies nothing
into the cache.  Every forward, the LSTM layer's and the connection's, returns
its cache; ``encode_batch`` drops each one before the next layer runs unless
it keeps them for ``encode_backward``.  The backward runs the row-major
formulas, in their order, on the cache's (d, B) blocks and copies each step's
(4d, B) gradient once into that step's rows of the (B, n, 4d) gate gradients.

``encode_backward`` consumes the saved activations: it pops each layer's
LSTM and connection cache off the ``EncoderCache`` as that layer's backward
reads it, so each is freed before the layers below run, and a cache serves
one backward only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import Instance, TokenTable, Vocabulary
from .errors import DimensionError, DomainError
from .numeric import map_in_order

# padded tokens per inference chunk, the one limit on its size: bounds a
# chunk's activations however long or short its sentences are
CHUNK_TOKENS = 512


def _matmul_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., d_in) @ w (d_in, d_out) as one GEMM over all leading rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


@dataclass
class LstmWeights:
    """Gate weights in i, f, g, o order: wx (4d, d_in), wh (4d, d), b (4d,)."""

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray

    @property
    def d_hidden(self) -> int:
        return self.wh.shape[1]

    @property
    def d_in(self) -> int:
        return self.wx.shape[1]


@dataclass
class EncoderParams:
    """All learnable encoder state.  ``word_emb`` is None when the run ingests
    precomputed external embeddings instead of a trained table."""

    word_emb: np.ndarray | None
    pred_emb: np.ndarray
    layers: list[LstmWeights]
    connections: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def d_hidden(self) -> int:
        return self.layers[-1].d_hidden

    @property
    def d_word(self) -> int:
        if self.word_emb is not None:
            return self.word_emb.shape[1]
        return self.layers[0].d_in - self.pred_emb.shape[1]

    @property
    def d_pred(self) -> int:
        return self.pred_emb.shape[1]

    def config_conflict(self, config) -> str | None:
        """The first model-shape key on which ``config`` (a ``TrainConfig``)
        contradicts these tensors, as ``"key = config value, but the tensors
        have tensor value"``; None when none does.  ``d_word`` counts only with
        a word table: external embeddings set the first layer's input width."""
        keys = ["d_pred", "d_hidden", "n_layers"]
        if self.word_emb is not None:
            keys.insert(0, "d_word")
        for key in keys:
            if getattr(config, key) != getattr(self, key):
                return f"{key} = {getattr(config, key)}, but the tensors have {getattr(self, key)}"
        return None

    def to_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        if self.word_emb is not None:
            out["embed.word"] = self.word_emb
        out["embed.pred"] = self.pred_emb
        for l, w in enumerate(self.layers):
            out[f"lstm{l}.wx"] = w.wx
            out[f"lstm{l}.wh"] = w.wh
            out[f"lstm{l}.b"] = w.b
        for l, w in enumerate(self.connections):
            out[f"conn{l}.w"] = w
        return out

    @staticmethod
    def from_dict(params: dict[str, np.ndarray]) -> "EncoderParams":
        n_layers = sum(1 for k in params if k.endswith(".wx"))
        layers = [
            LstmWeights(params[f"lstm{l}.wx"], params[f"lstm{l}.wh"], params[f"lstm{l}.b"])
            for l in range(n_layers)
        ]
        connections = [params[f"conn{l}.w"] for l in range(n_layers - 1)]
        return EncoderParams(
            word_emb=params.get("embed.word"),
            pred_emb=params["embed.pred"],
            layers=layers,
            connections=connections,
        )


def layer_direction(layer_index: int) -> str:
    """Directions alternate starting forward: f, b, f, b, ..."""
    return "f" if layer_index % 2 == 0 else "b"


def init_encoder_params(
    vocab_size: int,
    d_word: int,
    d_pred: int,
    d_hidden: int,
    n_layers: int,
    rng: np.random.Generator,
    dtype=np.float32,
    external_dim: int | None = None,
) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in)) matrices, normal(0, 0.1) embeddings, forget bias +1.

    With ``external_dim`` set, no word table is allocated and the first layer
    consumes vectors of that width instead.
    """
    if external_dim is not None:
        word_emb = None
        d_word = external_dim
    else:
        word_emb = rng.normal(0.0, 0.1, size=(vocab_size, d_word)).astype(dtype)
    pred_emb = rng.normal(0.0, 0.1, size=(2, d_pred)).astype(dtype)
    layers: list[LstmWeights] = []
    connections: list[np.ndarray] = []
    d_in = d_word + d_pred
    for l in range(n_layers):
        rx = 1.0 / np.sqrt(d_in)
        rh = 1.0 / np.sqrt(d_hidden)
        wx = rng.uniform(-rx, rx, size=(4 * d_hidden, d_in)).astype(dtype)
        wh = rng.uniform(-rh, rh, size=(4 * d_hidden, d_hidden)).astype(dtype)
        b = np.zeros(4 * d_hidden, dtype=dtype)
        b[d_hidden : 2 * d_hidden] = 1.0  # forget gate
        layers.append(LstmWeights(wx, wh, b))
        if l < n_layers - 1:
            rc = 1.0 / np.sqrt(d_hidden + d_in)
            connections.append(
                rng.uniform(-rc, rc, size=(d_hidden, d_hidden + d_in)).astype(dtype)
            )
        d_in = d_hidden
    return EncoderParams(word_emb, pred_emb, layers, connections)


def embed_tokens(
    word_ids: np.ndarray,
    pred_bits: np.ndarray,
    params: EncoderParams,
    external_vectors: np.ndarray | None = None,
) -> np.ndarray:
    """Row (b, i) is [word embedding; predicate-bit embedding] for token i of
    sequence b, for ids and predicate bits (B, n)."""
    word_ids = np.asarray(word_ids)
    pred_bits = np.asarray(pred_bits)
    if word_ids.shape != pred_bits.shape:
        raise DimensionError(f"word_ids {word_ids.shape} vs pred_bits {pred_bits.shape}")
    if pred_bits.size and (pred_bits.min() < 0 or pred_bits.max() > 1):
        raise DomainError("predicate bits must be 0 or 1")
    if external_vectors is not None:
        if params.word_emb is not None:
            raise DomainError("encoder has a word table; external vectors are only for "
                              "a model trained on them")
        e = external_vectors
    else:
        if params.word_emb is None:
            raise DomainError("encoder has no word table; external vectors required")
        if word_ids.size and word_ids.max() >= params.word_emb.shape[0]:
            raise DomainError(
                f"word id {int(word_ids.max())} out of range "
                f"[0, {params.word_emb.shape[0]})"
            )
        e = params.word_emb[word_ids]
    p = params.pred_emb[pred_bits]
    return np.concatenate([e, p], axis=-1)


@dataclass
class LstmCache:
    """A layer's saved activations, step-major in the recurrence's own layout.

    ``gates`` (n, 4d, B) holds step t's activated i, f, g, o gates; ``cells``
    (n + 1, d, B) the cell state entering step t, from the zero state at 0;
    ``tanh_cells`` (n, d, B) tanh of the cell state step t leaves; and
    ``hiddens`` (n + 1, B, d) the hidden state entering step t, from the zero
    state at 0.  ``x`` (B, n, d_in) is the input in recurrence order (already
    reversed for backward layers).  ``h_prev`` is the one (B, n, d) view the
    backward reads, read-only as these arrays are.
    """

    direction: str
    x: np.ndarray
    gates: np.ndarray
    cells: np.ndarray
    tanh_cells: np.ndarray
    hiddens: np.ndarray
    lengths: np.ndarray | None = None

    @property
    def h_prev(self) -> np.ndarray:
        return self.hiddens[:-1].transpose(1, 0, 2)


def _reverse_steps(a: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Row b of a (B, n, ...) with its first ``lengths[b]`` steps reversed and
    its padding left in place; ``lengths=None`` reverses every whole row.  The
    map is its own inverse."""
    if lengths is None:
        return a[:, ::-1]
    t = np.arange(a.shape[1])
    steps = np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)
    return a[np.arange(len(a))[:, None], steps]


def lstm_layer_forward(
    x: np.ndarray,
    direction: str,
    weights: LstmWeights,
    lengths: np.ndarray | None,
) -> tuple[np.ndarray, LstmCache]:
    """Standard LSTM recurrence with zero initial state over (B, n, d_in); any
    other shape, a 2-D sequence too, raises DimensionError.  Returns the
    output (B, n, d) and the cache ``lstm_layer_backward`` reads.

    The backward direction is the forward recurrence on the reversed sequence
    with the output reversed back.  ``lengths=None`` is a same-length batch;
    with ``lengths`` (B,), row b is a sentence of ``lengths[b]`` steps
    right-padded to n: a forward layer runs over the padding after the real
    steps, which never feed back into them, and a backward layer reverses
    each row within its own length, so the padding stays last.  Outputs at
    padded steps are finite and meaningless.
    """
    if direction not in ("f", "b"):
        raise DomainError(f"direction must be 'f' or 'b', got {direction!r}")
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] != weights.d_in:
        raise DimensionError(f"lstm input {x.shape} vs wx {weights.wx.shape}")
    bsz, n, _ = x.shape
    if lengths is not None:
        lengths = np.asarray(lengths)
        if (lengths.shape != (bsz,) or not np.issubdtype(lengths.dtype, np.integer)
                or np.any(lengths < 1) or np.any(lengths > n)):
            raise DomainError(f"lstm: lengths must be {bsz} integers in 1..{n}, got {lengths}")
    if direction == "b":
        x = _reverse_steps(x, lengths)
    d = weights.d_hidden
    # The input projection is one row-major GEMM over the rows in step order, so
    # that step t's (B, 4d) block is contiguous when read transposed: strided by
    # n * 4d it hits cache-set conflicts (d 48, n 8: 10 against 5 us a step).
    # Formed as ``wx @ x.T`` it would round differently in float64 once B * n
    # passes 192 rows.  h is (B, d) row-major, so that ``wh @ h.T`` reads it
    # transposed and rounds as ``h @ wh.T``; it receives o * tanh c through its
    # transposed view, and every other array is (·, B), as the gates are.
    pre_x = _matmul_rows(x.transpose(1, 0, 2), weights.wx.T) + weights.b
    dt = pre_x.dtype
    gates = np.empty((n, 4 * d, bsz), dtype=dt)
    cells = np.empty((n + 1, d, bsz), dtype=dt)
    cells[0] = 0.0
    tanh_cells = np.empty((n, d, bsz), dtype=dt)
    hiddens = np.empty((n + 1, bsz, d), dtype=dt)
    hiddens[0] = 0.0
    buf = np.empty((4 * d, bsz), dtype=dt)
    for t in range(n):
        if t == 0:  # the state is zero: no product
            pre = pre_x[0].T
        else:
            pre = np.matmul(weights.wh, hiddens[t].T, out=buf)
            pre += pre_x[t].T
        # the sigmoid of all four gates in its overflow-safe form
        # 0.5 * (tanh(z / 2) + 1), one pass of each ufunc; the tanh of the g
        # pre-activation then overwrites its block
        act = gates[t]
        np.multiply(pre, 0.5, out=act)
        np.tanh(act, out=act)
        act += 1.0
        act *= 0.5
        np.tanh(pre[2 * d : 3 * d], out=act[2 * d : 3 * d])
        i, f, g, o = act[:d], act[d : 2 * d], act[2 * d : 3 * d], act[3 * d :]
        c, tanh_c = cells[t + 1], tanh_cells[t]
        np.multiply(i, g, out=tanh_c)  # i * g, until tanh c overwrites it
        np.multiply(f, cells[t], out=c)
        c += tanh_c
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=hiddens[t + 1].T)
    out = hiddens[1:].transpose(1, 0, 2)
    if direction == "b":
        out = _reverse_steps(out, lengths)  # a new array when lengths are given
    if np.may_share_memory(out, hiddens):
        out = out.copy()  # one contiguous array, never a view of the cache
    for a in (gates, cells, tanh_cells, hiddens):
        a.flags.writeable = False
    return out, LstmCache(direction, x, gates, cells, tanh_cells, hiddens, lengths)


def lstm_layer_backward(
    d_out: np.ndarray, cache: LstmCache, weights: LstmWeights
) -> tuple[np.ndarray, LstmWeights]:
    """Gradients of a scalar loss given d_loss/d_output, shaped as the cached
    forward's output (else DimensionError): returns (d_x, weight grads)."""
    d_out = np.asarray(d_out)
    shape = cache.x.shape[:2] + cache.tanh_cells.shape[1:2]
    if d_out.shape != shape:
        raise DimensionError(f"lstm backward: d_out {d_out.shape} vs output {shape}")
    if cache.direction == "b":
        d_out = _reverse_steps(d_out, cache.lengths)
    bsz, n, d = d_out.shape
    # every timestep's gate gradient, for the batch-wide GEMMs after the loop.
    # A step's gate math runs on the cache's (d, B) blocks into one contiguous
    # (4d, B) buffer, which is copied once through the transposed view of the
    # step's (B, 4d) rows: writing each block through that view is slower.
    dpres = np.empty((bsz, n, 4 * d), dtype=np.result_type(d_out, cache.gates, weights.wh))
    dh_next = np.zeros((bsz, d), dtype=d_out.dtype)
    dc_next = np.zeros((d, bsz), dtype=d_out.dtype)
    dh = np.empty((d, bsz), dtype=np.result_type(d_out, dpres))
    dpre = np.empty((4 * d, bsz), dtype=dpres.dtype)
    di, df, dg, do = dpre[:d], dpre[d : 2 * d], dpre[2 * d : 3 * d], dpre[3 * d :]
    for t in range(n - 1, -1, -1):
        act = cache.gates[t]
        i, f, g, o = act[:d], act[d : 2 * d], act[2 * d : 3 * d], act[3 * d :]
        tanh_c = cache.tanh_cells[t]
        np.add(d_out[:, t].T, dh_next.T, out=dh)
        dct = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        # each block is its gate's gradient, then times the gate's derivative
        np.multiply(dct, g, out=di)
        di *= i
        di *= 1.0 - i
        np.multiply(dct, cache.cells[t], out=df)
        df *= f
        df *= 1.0 - f
        np.multiply(dct, i, out=dg)
        dg *= 1.0 - g * g
        np.multiply(dh, tanh_c, out=do)
        do *= o
        do *= 1.0 - o
        dc_next = dct * f
        dpres[:, t] = dpre.T
        if t:  # the gradient into the zero initial state is never read
            dh_next = dpres[:, t] @ weights.wh
    d_x = _matmul_rows(dpres, weights.wx).astype(cache.x.dtype, copy=False)
    if cache.direction == "b":
        d_x = _reverse_steps(d_x, cache.lengths)
    dt = weights.wx.dtype
    flat = dpres.reshape(bsz * n, 4 * d).astype(dt, copy=False)
    d_wx = flat.T @ cache.x.reshape(bsz * n, -1).astype(dt, copy=False)
    d_wh = flat.T @ cache.h_prev.reshape(bsz * n, d).astype(dt, copy=False)
    d_b = flat.sum(axis=0, dtype=np.float64).astype(dt)
    grads = LstmWeights(d_wx, d_wh, d_b)
    return d_x, grads


def connection_forward(
    h: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """x_next = ReLU(W [h; x]), no bias term, and the ``(cat, out)`` cache
    ``connection_backward`` reads."""
    h, x = np.asarray(h), np.asarray(x)
    if h.shape[:-1] != x.shape[:-1]:
        raise DimensionError(f"connection_forward: h {h.shape} vs x {x.shape}")
    cat = np.concatenate([h, x], axis=-1)
    if cat.shape[-1] != w.shape[1]:
        raise DimensionError(f"connection_forward: concat {cat.shape} vs W {w.shape}")
    out = np.maximum(_matmul_rows(cat, w.T), 0.0)
    # out > 0 exactly where the pre-activation is, and out is the next
    # layer's input already, so caching it holds no extra array
    return out, (cat, out)


def connection_backward(
    d_out: np.ndarray, cache: tuple[np.ndarray, np.ndarray], w: np.ndarray, d_hidden: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d_h, d_x, d_w) given d_loss/d_output and the forward's
    ``(cat, out)`` cache."""
    cat, out = cache
    dpre = d_out * (out > 0)
    flat_p = dpre.reshape(-1, dpre.shape[-1])
    flat_c = cat.reshape(-1, cat.shape[-1])
    d_w = (flat_p.T @ flat_c).astype(w.dtype)
    d_cat = _matmul_rows(dpre, w)
    return d_cat[..., :d_hidden], d_cat[..., d_hidden:], d_w


@dataclass
class EncoderCache:
    """What ``encode_backward`` reads of a training forward.  It pops the
    per-layer LSTM caches and the ``(cat, out)`` connection caches as it
    consumes them, so a cache is single-use; the ids and dropout masks stay."""

    word_ids: np.ndarray
    pred_bits: np.ndarray
    lstm_caches: list[LstmCache] = field(default_factory=list)
    conn_caches: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    embed_mask: np.ndarray | None = None
    layer_masks: list[np.ndarray | None] = field(default_factory=list)


def _dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    # inverted scaling: evaluation needs no rescaling
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / dtype.type(1.0 - rate)


def encode_batch(
    word_ids: np.ndarray,
    pred_bits: np.ndarray,
    params: EncoderParams,
    dropout_embed: float = 0.0,
    dropout_layer: float = 0.0,
    drop_rng: np.random.Generator | None = None,
    external_vectors: np.ndarray | None = None,
    want_cache: bool = False,
    lengths: np.ndarray | None = None,
):
    """Run the full stack on a batch; returns h_L (B, n, d) [+ cache].

    ``lengths=None`` is a same-length batch; with ``lengths`` (B,) row b is
    right-padded after its first ``lengths[b]`` tokens (``lstm_layer_forward``),
    and its outputs there are meaningless.  Dropout at rates above 0 applies to
    the embedding concat and to each LSTM output feeding a connection layer; at
    the default rates 0 the output is a pure function of the inputs.
    """
    if (dropout_embed > 0 or dropout_layer > 0) and drop_rng is None:
        raise DomainError("dropout requires a generator")
    x = embed_tokens(word_ids, pred_bits, params, external_vectors)
    dtype = np.dtype(x.dtype)
    cache = EncoderCache(
        word_ids=np.asarray(word_ids),
        pred_bits=np.asarray(pred_bits),
    )
    if dropout_embed > 0:
        cache.embed_mask = _dropout_mask(drop_rng, x.shape, dropout_embed, dtype)
        x = x * cache.embed_mask
    n_layers = params.n_layers
    h = None
    for l in range(n_layers):
        h, lc = lstm_layer_forward(x, layer_direction(l), params.layers[l], lengths)
        if want_cache:
            cache.lstm_caches.append(lc)
        del lc  # a cache not kept is freed before the next layer allocates
        if l == n_layers - 1:
            break
        if dropout_layer > 0:
            mask = _dropout_mask(drop_rng, h.shape, dropout_layer, dtype)
            cache.layer_masks.append(mask)
            h_in = h * mask
        else:
            cache.layer_masks.append(None)
            h_in = h
        x, cc = connection_forward(h_in, x, params.connections[l])
        if want_cache:
            cache.conn_caches.append(cc)
        del cc
    if want_cache:
        return h, cache
    return h


def encode_backward(
    d_h_final: np.ndarray, cache: EncoderCache, params: EncoderParams
) -> dict[str, np.ndarray]:
    """Backpropagate through the whole stack; returns grads keyed like ``to_dict``.

    Each layer's LSTM and connection cache is popped off ``cache`` as its
    backward consumes it, so only the layers not yet reached hold their
    activations, and ``cache`` cannot serve a second backward.
    """
    n_layers = params.n_layers
    d = params.d_hidden
    d_x, lg = lstm_layer_backward(d_h_final, cache.lstm_caches.pop(), params.layers[-1])
    layer_grads, conn_grads = [lg], []  # top layer first
    for l in range(n_layers - 2, -1, -1):
        d_h, d_x_direct, d_w = connection_backward(
            d_x, cache.conn_caches.pop(), params.connections[l], d
        )
        conn_grads.append(d_w)
        if cache.layer_masks[l] is not None:
            d_h *= cache.layer_masks[l]
        d_x, lg = lstm_layer_backward(d_h, cache.lstm_caches.pop(), params.layers[l])
        layer_grads.append(lg)
        d_x += d_x_direct
    if cache.embed_mask is not None:
        d_x = d_x * cache.embed_mask
    g_word = None
    if params.word_emb is not None:
        g_word = np.zeros_like(params.word_emb)
        np.add.at(g_word, cache.word_ids, d_x[..., : params.d_word])
    g_pred = np.zeros_like(params.pred_emb)
    np.add.at(g_pred, cache.pred_bits, d_x[..., params.d_word :])
    return EncoderParams(g_word, g_pred, layer_grads[::-1], conn_grads[::-1]).to_dict()


def length_sorted_chunks(lengths: Sequence[int]) -> list[np.ndarray]:
    """Sentence indices in stable ascending length order, cut into chunks of at
    most ``CHUNK_TOKENS`` padded tokens (sentences times the chunk's longest
    length); a sentence longer than that is a chunk of its own.
    ``lengths[i]`` is sentence i's length."""
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    chunks: list[np.ndarray] = []
    start = 0
    for end, i in enumerate(order, start=1):
        # order[start:end] is the chunk if it takes sentence i, its longest
        size = end - start
        if size > 1 and size * int(lengths[i]) > CHUNK_TOKENS:
            chunks.append(order[start : end - 1])
            start = end - 1
    if start < len(order):
        chunks.append(order[start:])
    return chunks


def encode_rows(table: TokenTable, params: EncoderParams, threads: int = 1) -> np.ndarray:
    """Evaluation-mode final activations (T, d) of every row of ``table``.

    Sentences are encoded in ``length_sorted_chunks``, each one right-padded
    batch, ``threads`` chunks at a time; the result does not depend on
    ``threads``.
    """
    def run(chunk: np.ndarray):
        rows, lengths = table.rows(chunk), table.lengths[chunk]
        ext = table.external[rows] if table.external is not None else None
        h = encode_batch(table.word_ids[rows], table.bits[rows], params,
                         external_vectors=ext, lengths=lengths)
        real = np.arange(rows.shape[1]) < lengths[:, None]
        return rows[real], h[real]

    out = np.zeros((0, params.d_hidden), dtype=params.pred_emb.dtype)  # an empty table
    chunks = length_sorted_chunks(table.lengths)
    for i, (rows, h) in enumerate(map_in_order(run, chunks, threads)):
        if i == 0:
            out = np.empty((len(table.word_ids), h.shape[-1]), dtype=h.dtype)
        out[rows] = h  # copied out as it arrives: no chunk outputs pile up
    return out


def encode_corpus(
    instances: Sequence[Instance], params: EncoderParams, vocab: Vocabulary
) -> dict[str, np.ndarray]:
    """``encode_rows`` keyed by sentence id: each value is a (n, d) view of its rows.

    Sentence ids must be unique within the corpus.
    """
    table = TokenTable.build(instances, vocab)
    h = encode_rows(table, params)
    return dict(zip((inst.sentence_id for inst in instances), table.split(h)))
