"""Batched corpus tagging for the base model and the memory-adapted model.

Both taggers walk the corpus in chunks: consecutive whole same-length jobs
from ``length_grouped_jobs``, at most ``batch_size`` sentences per chunk.
Each job is encoded (or read from cached activations) at its own shape, and
the adapted tagger gathers neighbors and runs the neighborhood and emission
layers per job as well, so those tensors never carry padding.  Per chunk the
adapted tagger makes one K-NN retrieval over all of the chunk's tokens, and
both taggers make one Viterbi call over its right-padded emissions.  Exact
K-NN returns the same neighbors however queries are blocked, and the ragged
decode repeats every per-row operation of a same-length one, so the tags are
those of one retrieval and one decode per job.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .crf import CrfParams, emission_scores, viterbi_decode_batch
from .dataio import ExternalEmbeddings, Instance, Vocabulary
from .encoder import EncoderParams, encode_batch, length_grouped_jobs, stack_inputs
from .memory import ActivationMemory, knn_entry_ids
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


def _tag_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    external: ExternalEmbeddings | None,
    batch_size: int,
    encoded: dict[str, np.ndarray] | None,
    chunk_emissions: Callable[[list[list[int]], list[np.ndarray]], list[np.ndarray]],
) -> list[np.ndarray]:
    """Tag ids for every instance; ``chunk_emissions(jobs, h per job)`` scores one chunk."""
    preds: list[np.ndarray | None] = [None] * len(instances)
    for chunk in _chunks(length_grouped_jobs(instances, batch_size), batch_size):
        hs = []
        for job in chunk:
            if encoded is None:
                word_ids, bits, ext = stack_inputs(instances, job, vocab, external)
                hs.append(encode_batch(word_ids, bits, encoder, training=False,
                                       external_vectors=ext))
            else:
                hs.append(np.stack([encoded[instances[i].sentence_id] for i in job]))
        ems = chunk_emissions(chunk, hs)
        rows = [i for job in chunk for i in job]
        lengths = np.array([len(instances[i]) for i in rows])
        padded = np.zeros((len(rows), lengths.max(), crf.n_tags), dtype=ems[0].dtype)
        start = 0
        for em in ems:
            padded[start : start + len(em), : em.shape[1]] = em
            start += len(em)
        paths = viterbi_decode_batch(padded, crf, lengths)
        for row, (i, n) in enumerate(zip(rows, lengths)):
            preds[i] = paths[row, :n]
    return preds  # type: ignore[return-value]


def predict_base_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    external: ExternalEmbeddings | None = None,
    batch_size: int = 256,
    encoded: dict[str, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Viterbi tag ids for every instance under the base model.

    ``encoded`` lets a caller that already holds the activations (from
    ``encode_corpus`` with the same encoder) skip encoding.
    """

    def chunk_emissions(chunk, hs):
        return [emission_scores(h, crf) for h in hs]

    return _tag_corpus(instances, encoder, crf, vocab, external, batch_size, encoded,
                       chunk_emissions)


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
    encoded: dict[str, np.ndarray] | None = None,
    neighbor_ids: dict[str, np.ndarray] | None = None,
    neighbor_dists: dict[str, np.ndarray] | None = None,
    exclude_self: bool = False,
) -> list[np.ndarray]:
    """Memory-adapted tag ids for every instance.

    ``encoded``/``neighbor_ids``/``neighbor_dists`` allow callers that hold a
    frozen encoder to reuse cached activations and retrievals.  With
    ``exclude_self`` the retrieval for token t of a sentence skips the memory
    entry recorded from that same token (cached retrievals are used as given).
    """

    def chunk_emissions(chunk, hs):
        if neighbor_ids is None:
            flat = np.concatenate([h.reshape(-1, h.shape[-1]) for h in hs])
            exclude = None
            if exclude_self:
                exclude = [[(instances[i].sentence_id, t)]
                           for job in chunk for i in job for t in range(len(instances[i]))]
            ids, dists = knn_entry_ids(flat.astype(np.float32, copy=False), memory, k,
                                       exclude=exclude, threads=threads)
            ends = np.cumsum([h.shape[0] * h.shape[1] for h in hs])[:-1]
            shapes = [h.shape[:2] + (k,) for h in hs]
            nbrs = [(i.reshape(shape), d.reshape(shape))
                    for i, d, shape in zip(np.split(ids, ends), np.split(dists, ends), shapes)]
        else:
            nbrs = [(np.stack([neighbor_ids[instances[i].sentence_id] for i in job]),
                     np.stack([neighbor_dists[instances[i].sentence_id] for i in job]))
                    for job in chunk]
        ems = []
        for h, (job_ids, job_dists) in zip(hs, nbrs):
            m = gather_neighbors(memory.vectors, job_ids).astype(h.dtype, copy=False)
            _, repr_ = neighborhood_forward(h, m, nbr, distances=job_dists.astype(h.dtype))
            ems.append(emission_scores(repr_, crf))
        return ems

    return _tag_corpus(instances, encoder, crf, vocab, external, batch_size, encoded,
                       chunk_emissions)
