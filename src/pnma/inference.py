"""Batched corpus tagging for the base model and the memory-adapted model."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .crf import CrfParams, emission_scores, viterbi_decode_batch
from .dataio import ExternalEmbeddings, Instance, Vocabulary
from .encoder import EncoderParams, encode_batch, length_grouped_jobs, stack_inputs
from .memory import ActivationMemory, knn_entry_ids
from .neighborhood import NeighborhoodParams, neighborhood_forward


def predict_base_corpus(
    instances: Sequence[Instance],
    encoder: EncoderParams,
    crf: CrfParams,
    vocab: Vocabulary,
    external: ExternalEmbeddings | None = None,
    batch_size: int = 256,
) -> list[np.ndarray]:
    """Viterbi tag ids for every instance under the base model."""
    preds: list[np.ndarray | None] = [None] * len(instances)
    for job in length_grouped_jobs(instances, batch_size):
        word_ids, bits, ext = stack_inputs(instances, job, vocab, external)
        h = encode_batch(word_ids, bits, encoder, training=False, external_vectors=ext)
        em = emission_scores(h, crf)
        paths = viterbi_decode_batch(em, crf)
        for row, i in enumerate(job):
            preds[i] = paths[row]
    return preds  # type: ignore[return-value]


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
) -> list[np.ndarray]:
    """Memory-adapted tag ids for every instance.

    ``encoded``/``neighbor_ids``/``neighbor_dists`` allow callers that hold a
    frozen encoder to reuse cached activations and retrievals.
    """
    preds: list[np.ndarray | None] = [None] * len(instances)
    for job in length_grouped_jobs(instances, batch_size):
        if encoded is None:
            word_ids, bits, ext = stack_inputs(instances, job, vocab, external)
            h = encode_batch(word_ids, bits, encoder, training=False, external_vectors=ext)
        else:
            h = np.stack([encoded[instances[i].sentence_id] for i in job])
        bsz, n, d = h.shape
        if neighbor_ids is None:
            flat = h.reshape(bsz * n, d).astype(np.float32, copy=False)
            ids, dists = knn_entry_ids(flat, memory, k, threads=threads)
            ids = ids.reshape(bsz, n, k)
            dists = dists.reshape(bsz, n, k)
        else:
            ids = np.stack([neighbor_ids[instances[i].sentence_id] for i in job])
            dists = np.stack([neighbor_dists[instances[i].sentence_id] for i in job])
        m = memory.vectors[ids].astype(h.dtype, copy=False)
        _, repr_ = neighborhood_forward(h, m, nbr, distances=dists.astype(h.dtype))
        em = emission_scores(repr_, crf)
        paths = viterbi_decode_batch(em, crf)
        for row, i in enumerate(job):
            preds[i] = paths[row]
    return preds  # type: ignore[return-value]
