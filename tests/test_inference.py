import numpy as np
import pytest

from pnma import encoder as encoder_module
from pnma.crf import emission_scores, init_crf_params, viterbi_decode_batch
from pnma.dataio import TokenTable, build_vocab
from pnma.encoder import encode_batch, encode_rows, init_encoder_params, length_sorted_chunks
from pnma.inference import predict_base_corpus, predict_pnma_corpus, tag_rows
from pnma.memory import build_memory, knn_entry_ids, self_exclusions
from pnma.neighborhood import init_neighborhood_params, neighborhood_forward, pnma_predict
from pnma.numeric import make_rng
from pnma.synthetic import generate_split

K = 5
JOB_SIZE = 3


def per_job_tags(instances, encoder, crf, vocab, nbr=None, memory=None,
                 h_all=None, ids_all=None, dists_all=None, exclude_self=False):
    """The tagging loop with one encoder pass, one retrieval and one decode
    per same-length job of up to JOB_SIZE sentences, kept as the oracle for
    the ragged chunked taggers.  Given flat (T, ...) arrays in instance order
    (``h_all``, and ``ids_all``/``dists_all``), a job stacks its sentences'
    slices of them instead of encoding (and retrieving)."""
    starts = np.cumsum([0] + [len(inst) for inst in instances])
    preds = [None] * len(instances)
    by_length = {}
    for i, inst in enumerate(instances):
        by_length.setdefault(len(inst), []).append(i)
    jobs = [group[s : s + JOB_SIZE] for _, group in sorted(by_length.items())
            for s in range(0, len(group), JOB_SIZE)]
    for job in jobs:
        n = len(instances[job[0]])

        def stack(flat):
            return np.stack([flat[starts[i] : starts[i] + n] for i in job])

        if h_all is None:
            word_ids = np.stack([vocab.word_ids(instances[i].tokens) for i in job])
            bits = np.stack([np.array(instances[i].predicate_bits) for i in job])
            h = encode_batch(word_ids, bits, encoder, training=False)
        else:
            h = stack(h_all)
        if nbr is None:
            em = emission_scores(h, crf)
        else:
            bsz, n, d = h.shape
            if ids_all is None:
                exclude = None
                if exclude_self:
                    exclude = [[(instances[i].sentence_id, t)] for i in job for t in range(n)]
                flat = h.reshape(bsz * n, d).astype(np.float32, copy=False)
                ids, dists = knn_entry_ids(flat, memory, K, exclude=exclude)
                ids, dists = ids.reshape(bsz, n, K), dists.reshape(bsz, n, K)
            else:
                ids, dists = stack(ids_all), stack(dists_all)
            m = memory.vectors[ids].astype(h.dtype, copy=False)
            _, repr_ = neighborhood_forward(h, m, nbr, distances=dists.astype(h.dtype))
            em = emission_scores(repr_, crf)
        paths = viterbi_decode_batch(em, crf)
        for row, i in enumerate(job):
            preds[i] = paths[row]
    return preds


def assert_same_tags(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.fixture(scope="module")
def model():
    instances, _ = generate_split("train", 80, 0.05, seed=6)
    vocab = build_vocab(instances, min_frequency=1)
    rng = make_rng(21)
    encoder = init_encoder_params(vocab.n_words, d_word=6, d_pred=3, d_hidden=8,
                                  n_layers=2, rng=rng)
    crf = init_crf_params(8, vocab.n_tags, rng)
    # large emission weights, so the neighborhood changes the tags
    crf.emit_w *= 20.0
    memory = build_memory(encoder, vocab, instances, fraction=0.6, seed=3)
    # mixed lengths: 1, 1, 3, 2, 6, 12, ... sentences of each
    by_len = {}
    for inst in instances:
        by_len.setdefault(len(inst), []).append(inst)
    counts = [1, 1, 3, 2, 6, 12]
    corpus = [inst for j, n in enumerate(sorted(by_len))
              for inst in by_len[n][: counts[j % len(counts)]]]
    return corpus, vocab, encoder, crf, memory


@pytest.mark.parametrize("mode", ["distinct", "distance"])
def test_chunked_tagging_equals_per_job_loop(model, mode, monkeypatch):
    instances, vocab, encoder, crf, memory = model
    nbr = init_neighborhood_params(K, 8, make_rng(22), mode=mode)
    nbr.n *= 50.0
    monkeypatch.setattr(encoder_module, "CHUNK_TOKENS", 24)
    lengths = [len(inst) for inst in instances]
    chunks = length_sorted_chunks(lengths)
    # some chunk mixes lengths, and some chunk of one length holds a whole job
    assert any(len({lengths[i] for i in c}) > 1 for c in chunks)
    assert any(len(c) >= JOB_SIZE and len({lengths[i] for i in c}) == 1 for c in chunks)

    assert_same_tags(
        predict_base_corpus(instances, encoder, crf, vocab),
        per_job_tags(instances, encoder, crf, vocab),
    )
    table = TokenTable.build(instances, vocab)
    h = encode_rows(table, encoder)
    assert_same_tags(tag_rows(table, h, crf), per_job_tags(instances, encoder, crf, vocab))
    got = predict_pnma_corpus(instances, encoder, crf, nbr, memory, vocab, K)
    assert_same_tags(got, per_job_tags(instances, encoder, crf, vocab, nbr, memory))
    for exclude_self in (False, True):
        ids, dists = knn_entry_ids(h.astype(np.float32), memory, K,
                                   exclude=self_exclusions(instances) if exclude_self else None)
        cached = tag_rows(table, h, crf, nbr, memory, ids, dists)
        assert_same_tags(cached, per_job_tags(instances, encoder, crf, vocab, nbr, memory,
                                              exclude_self=exclude_self))
        assert_same_tags(cached, per_job_tags(instances, encoder, crf, vocab, nbr, memory,
                                              h_all=h, ids_all=ids, dists_all=dists))
        if not exclude_self:
            assert_same_tags(got, cached)
    # the tags must depend on the memory, or the comparisons above prove little
    base = predict_base_corpus(instances, encoder, crf, vocab)
    assert any(not np.array_equal(a, b) for a, b in zip(got, base))


@pytest.mark.parametrize("mode", ["distinct", "shared"])
def test_distances_unused_outside_distance_mode(model, mode):
    instances, vocab, encoder, crf, memory = model
    nbr = init_neighborhood_params(K, 8, make_rng(26), mode=mode)
    nbr.n *= 50.0
    table = TokenTable.build(instances, vocab)
    h = encode_rows(table, encoder)
    ids, dists = knn_entry_ids(h.astype(np.float32), memory, K)
    assert_same_tags(tag_rows(table, h, crf, nbr, memory, ids, None),
                     tag_rows(table, h, crf, nbr, memory, ids, dists))


def test_threads_equal_one_thread(model):
    instances, vocab, encoder, crf, memory = model
    nbr = init_neighborhood_params(K, 8, make_rng(23))
    # the corpus holds more queries than one 128-query K-NN block
    assert sum(len(i) for i in instances) > 128
    one = predict_pnma_corpus(instances, encoder, crf, nbr, memory, vocab, K)
    two = predict_pnma_corpus(instances, encoder, crf, nbr, memory, vocab, K, threads=2)
    assert_same_tags(two, one)


def test_pnma_predict_is_batch_of_one(model):
    instances, vocab, encoder, crf, memory = model
    nbr = init_neighborhood_params(K, 8, make_rng(24))
    corpus = predict_pnma_corpus(instances, encoder, crf, nbr, memory, vocab, K)
    for inst, tags in zip(instances, corpus):
        assert np.array_equal(pnma_predict(inst, encoder, crf, nbr, memory, vocab, K), tags)


def test_empty_corpus(model):
    _, vocab, encoder, crf, memory = model
    nbr = init_neighborhood_params(K, 8, make_rng(25))
    assert predict_base_corpus([], encoder, crf, vocab) == []
    assert predict_pnma_corpus([], encoder, crf, nbr, memory, vocab, K) == []
