"""Batched corpus tagging for the base model and the memory-adapted model.

Tagging is one pipeline over a ``dataio.TokenTable``: encode every row
(``encoder.encode_rows``), retrieve every row's neighbors with one
``memory.knn_entry_ids`` call (adapted model only), then ``tag_rows``.  The
first two are ``encode_and_retrieve``, through which phase 2 and the neighbor
reports of ``analysis`` retrieve too, exactly as ``predict`` does.  A caller
that already holds the activations or the neighbors, such as phase 2's
validation pass, enters at ``tag_rows``.

Encoding and tagging both walk ``encoder.length_sorted_chunks``: sentences
in length order, cut at a budget of ``encoder.CHUNK_TOKENS`` padded tokens.
``tag_rows`` runs the emission layer once per chunk over its real rows only,
then decodes the chunk with one Viterbi call over right-padded emissions in
which each row stops at its own length.  Exact K-NN returns the same
neighbors however queries are blocked, and the ragged decode repeats every
per-row operation of a same-length one, so a chunk differs from one pass per
sentence only by the round-off of products whose blocking depends on the row
count.

The adapted tagger's neighbor gather and neighborhood layer run over
consecutive blocks of a chunk's real rows, each of about
``GATHER_NEIGHBORS`` gathered neighbor vectors (tokens x K), and write each
block's representation into the chunk's (T, d) array.  Every block of a
pass writes its gather and ``|m - h|`` into one
``neighborhood.NeighborhoodWorkspace``, so a pass holds one block's gather
and ``|m - h|``, not a whole chunk's, and allocates them once, not per
block.  The blocks change no bit; ``_blocks`` says why.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .crf import CrfParams, emission_scores, viterbi_decode_batch
from .dataio import ExternalEmbeddings, Instance, TokenTable, Vocabulary
from .encoder import EncoderParams, encode_rows, length_sorted_chunks
from .memory import ActivationMemory, Exclusions, knn_entry_ids
from .neighborhood import (
    NeighborhoodParams,
    NeighborhoodWorkspace,
    gather_neighbors,
    neighborhood_forward,
)

# gathered neighbor vectors (tokens x K) per neighborhood block: 128 tokens at K 64
GATHER_NEIGHBORS = 8192
# a block's token count is a multiple of this many rows (see _blocks)
_BLOCK_ALIGN = 32


def _blocks(n_rows: int, k: int) -> list[slice]:
    """Consecutive blocks of ``n_rows`` rows for K neighbors each: as many
    whole ``_BLOCK_ALIGN``-row groups as ``GATHER_NEIGHBORS`` allows (one at
    least), the last block taking whatever is left.

    A token's softmax and weighted sum in ``neighborhood_forward`` read only
    its own row, but its logits come from a matrix-vector product, whose
    rounding depends on a row's place within the BLAS kernel's row groups,
    and on one row alone from a dot product, rounded differently again.  So
    blocks start at aligned rows, and a one-row remainder joins the block
    before it: each row is then rounded as in one pass over all ``n_rows``.
    """
    step = max(1, GATHER_NEIGHBORS // (k * _BLOCK_ALIGN)) * _BLOCK_ALIGN
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _neighborhood_rows(
    h: np.ndarray,
    flat: np.ndarray,
    nbr: NeighborhoodParams,
    memory: ActivationMemory,
    ids: np.ndarray,
    dists: np.ndarray | None,
    workspace: NeighborhoodWorkspace,
) -> np.ndarray:
    """Neighborhood representation (T, d) of the rows ``flat`` (T,), whose
    activations are h (T, d), gathered and computed one block at a time in
    ``workspace``."""
    out = np.empty_like(h)
    for b in _blocks(len(flat), ids.shape[1]):
        m = gather_neighbors(memory.vectors, ids[flat[b]], workspace).astype(h.dtype, copy=False)
        dist = dists[flat[b]] if nbr.mode == "distance" else None
        out[b] = neighborhood_forward(h[b], m, nbr, dist, workspace)[1]
    return out


def encode_and_retrieve(
    instances: Sequence[Instance], encoder: EncoderParams, vocab: Vocabulary,
    memory: ActivationMemory, k: int, external: ExternalEmbeddings | None, threads: int,
    exclude: Exclusions | None, distances: bool,
) -> tuple[TokenTable, np.ndarray, np.ndarray, np.ndarray | None, float]:
    """The token table of ``instances``, its activations h (T, d), each row's
    K nearest memory entries (T, K) with ``exclude``, their float64 distances
    if ``distances`` (else None), and the seconds of the K-NN call alone.
    Each row's query is its activation rounded to the memory's float32."""
    table = TokenTable.build(instances, vocab, external)
    h = encode_rows(table, encoder, threads)
    started = time.perf_counter()
    ids, dists = knn_entry_ids(h.astype(np.float32, copy=False), memory, k, exclude=exclude,
                               threads=threads, distances=distances)
    return table, h, ids, dists, time.perf_counter() - started


def tag_rows(
    table: TokenTable,
    h: np.ndarray,
    crf: CrfParams,
    nbr: NeighborhoodParams | None = None,
    memory: ActivationMemory | None = None,
    ids: np.ndarray | None = None,
    dists: np.ndarray | None = None,
    workspace: NeighborhoodWorkspace | None = None,
) -> list[np.ndarray]:
    """Viterbi tag ids for every sentence of ``table`` from its activations h (T, d).

    With ``nbr``, each token is scored on the neighborhood representation of
    its memory neighbors ``ids`` (T, K), computed in ``workspace`` (a new one
    for this call if None); ``dists`` (T, K) weigh them in ``distance`` mode
    only, and may be None in the other modes.  Without ``nbr``, each token is
    scored on h.
    """
    if nbr is not None and workspace is None:
        workspace = NeighborhoodWorkspace()
    preds: list[np.ndarray | None] = [None] * len(table)
    for chunk in length_sorted_chunks(table.lengths):
        rows, lengths = table.rows(chunk), table.lengths[chunk]
        real = np.arange(rows.shape[1]) < lengths[:, None]
        flat = rows[real]
        x = h[flat]
        if nbr is not None:
            x = _neighborhood_rows(x, flat, nbr, memory, ids, dists, workspace)
        em = emission_scores(x, crf)
        padded = np.zeros(rows.shape + (crf.n_tags,), dtype=em.dtype)
        padded[real] = em
        paths = viterbi_decode_batch(padded, crf, lengths)
        for i, path, n in zip(chunk, paths, lengths):
            preds[i] = path[:n]
    return preds  # type: ignore[return-value]


def predict_base_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    external: ExternalEmbeddings | None = None,
) -> list[np.ndarray]:
    """Viterbi tag ids for every instance under the base model."""
    table = TokenTable.build(instances, vocab, external)
    return tag_rows(table, encode_rows(table, encoder), crf)


def predict_pnma_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    nbr: NeighborhoodParams,
    memory: ActivationMemory,
    vocab: Vocabulary,
    k: int,
    external: ExternalEmbeddings | None = None,
    threads: int = 1,
) -> list[np.ndarray]:
    """Memory-adapted tag ids for every instance; any memory entry may be a
    neighbor.  To keep tokens from finding their own entries, retrieve with
    ``memory.self_exclusions`` and tag with ``tag_rows``."""
    table, h, ids, dists, _ = encode_and_retrieve(instances, encoder, vocab, memory, k, external,
                                                  threads, None, nbr.mode == "distance")
    return tag_rows(table, h, crf, nbr, memory, ids, dists)
