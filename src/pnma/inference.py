"""Batched corpus tagging for the base model and the memory-adapted model.

Tagging is one pipeline over a ``dataio.TokenTable``: encode every row
(``encoder.encode_rows``), retrieve every row's neighbors with one
``memory.knn_entry_ids`` call (adapted model only), then ``tag_rows``.  A
caller that already holds the activations or the neighbors, such as phase
2's validation pass, enters at ``tag_rows``.

Encoding and tagging both walk ``encoder.length_sorted_chunks``: sentences
in length order, cut at a budget of ``encoder.CHUNK_TOKENS`` padded tokens.
``tag_rows`` runs the neighbor gather, the neighborhood layer and the
emission layer once per chunk over its real rows only, then decodes the chunk
with one Viterbi call over right-padded emissions in which each row stops at
its own length.  Exact K-NN returns the same neighbors however
queries are blocked, and the ragged decode repeats every per-row operation
of a same-length one, so a chunk differs from one pass per sentence only by
the round-off of products whose blocking depends on the row count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .crf import CrfParams, emission_scores, viterbi_decode_batch
from .dataio import ExternalEmbeddings, Instance, TokenTable, Vocabulary
from .encoder import EncoderParams, encode_rows, length_sorted_chunks
from .memory import ActivationMemory, knn_entry_ids
from .neighborhood import NeighborhoodParams, gather_neighbors, neighborhood_forward


def tag_rows(
    table: TokenTable,
    h: np.ndarray,
    crf: CrfParams,
    nbr: NeighborhoodParams | None = None,
    memory: ActivationMemory | None = None,
    ids: np.ndarray | None = None,
    dists: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Viterbi tag ids for every sentence of ``table`` from its activations h (T, d).

    With ``nbr``, each token is scored on the neighborhood representation of
    its memory neighbors ``ids`` (T, K); ``dists`` (T, K) weigh them in
    ``distance`` mode only, and may be None in the other modes.  Without
    ``nbr``, each token is scored on h.
    """
    preds: list[np.ndarray | None] = [None] * len(table)
    for chunk in length_sorted_chunks(table.lengths):
        rows, lengths = table.rows(chunk), table.lengths[chunk]
        real = np.arange(rows.shape[1]) < lengths[:, None]
        flat = rows[real]
        x = h[flat]
        if nbr is not None:
            m = gather_neighbors(memory.vectors, ids[flat]).astype(x.dtype, copy=False)
            dist = dists[flat].astype(x.dtype) if nbr.mode == "distance" else None
            _, x = neighborhood_forward(x, m, nbr, distances=dist)
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
    table = TokenTable.build(instances, vocab, external)
    h = encode_rows(table, encoder, threads)
    ids, dists = knn_entry_ids(h.astype(np.float32, copy=False), memory, k, threads=threads)
    return tag_rows(table, h, crf, nbr, memory, ids, dists)
