"""Batched corpus tagging for the base model and the memory-adapted model.

Tagging is one pipeline over a ``dataio.TokenTable``: encode every row
(``encoder.encode_rows``), retrieve every row's neighbors with one
``memory.knn_entry_ids`` call (adapted model only), then ``tag_rows``.  A
caller that already holds the activations or the neighbors, such as phase
2's validation pass, enters at ``tag_rows``.

``tag_rows`` scores each same-length job at its own shape, so the neighbor
gather, the neighborhood layer and the emission layer never carry padding,
and decodes consecutive whole jobs, at most ``batch_size`` sentences, with
one Viterbi call over their right-padded emissions.  Exact K-NN returns the
same neighbors however queries are blocked, and the ragged decode repeats
every per-row operation of a same-length one, so the tags are those of one
retrieval and one decode per job.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .crf import CrfParams, emission_scores, viterbi_decode_batch
from .dataio import ExternalEmbeddings, Instance, TokenTable, Vocabulary
from .encoder import EncoderParams, encode_rows, length_grouped_jobs
from .memory import ActivationMemory, knn_entry_ids, self_exclusions
from .neighborhood import NeighborhoodParams, gather_neighbors, neighborhood_forward


def _chunks(jobs: list[list[int]], batch_size: int) -> list[list[list[int]]]:
    """Consecutive whole jobs packed into chunks of at most ``batch_size`` sentences."""
    chunks: list[list[list[int]]] = []
    size = 0
    for job in jobs:
        if not chunks or size + len(job) > batch_size:
            chunks.append([])
            size = 0
        chunks[-1].append(job)
        size += len(job)
    return chunks


def tag_rows(
    table: TokenTable,
    h: np.ndarray,
    crf: CrfParams,
    nbr: NeighborhoodParams | None = None,
    memory: ActivationMemory | None = None,
    ids: np.ndarray | None = None,
    dists: np.ndarray | None = None,
    batch_size: int = 256,
) -> list[np.ndarray]:
    """Viterbi tag ids for every sentence of ``table`` from its activations h (T, d).

    With ``nbr``, each token is scored on the neighborhood representation of
    its memory neighbors ``ids`` (T, K) at ``dists`` (T, K); without, on h.
    """
    def emissions(rows: np.ndarray) -> np.ndarray:
        x = h[rows]
        if nbr is not None:
            m = gather_neighbors(memory.vectors, ids[rows]).astype(x.dtype, copy=False)
            _, x = neighborhood_forward(x, m, nbr, distances=dists[rows].astype(x.dtype))
        return emission_scores(x, crf)

    preds: list[np.ndarray | None] = [None] * len(table)
    for chunk in _chunks(length_grouped_jobs(table.lengths, batch_size), batch_size):
        ems = [emissions(table.rows(job)) for job in chunk]
        sentences = [i for job in chunk for i in job]
        lengths = table.lengths[sentences]
        padded = np.zeros((len(sentences), lengths.max(), crf.n_tags), dtype=ems[0].dtype)
        start = 0
        for em in ems:
            padded[start : start + len(em), : em.shape[1]] = em
            start += len(em)
        paths = viterbi_decode_batch(padded, crf, lengths)
        for row, (i, n) in enumerate(zip(sentences, lengths)):
            preds[i] = paths[row, :n]
    return preds  # type: ignore[return-value]


def predict_base_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    external: ExternalEmbeddings | None = None,
    batch_size: int = 256,
) -> list[np.ndarray]:
    """Viterbi tag ids for every instance under the base model."""
    table = TokenTable.build(instances, vocab, external)
    return tag_rows(table, encode_rows(table, encoder, batch_size), crf, batch_size=batch_size)


def predict_pnma_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    nbr: NeighborhoodParams,
    memory: ActivationMemory,
    vocab: Vocabulary,
    k: int,
    external: ExternalEmbeddings | None = None,
    batch_size: int = 256,
    threads: int = 1,
    exclude_self: bool = False,
) -> list[np.ndarray]:
    """Memory-adapted tag ids for every instance.

    With ``exclude_self`` the retrieval for token t of a sentence skips the
    memory entry recorded from that same token.
    """
    table = TokenTable.build(instances, vocab, external)
    h = encode_rows(table, encoder, batch_size, threads)
    exclude = self_exclusions(instances) if exclude_self else None
    ids, dists = knn_entry_ids(h.astype(np.float32, copy=False), memory, k,
                               exclude=exclude, threads=threads)
    return tag_rows(table, h, crf, nbr, memory, ids, dists, batch_size)
