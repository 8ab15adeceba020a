import numpy as np
import pytest

from pnma.checkpoint import checkpoint_bytes, crf_to_dict
from pnma.cli import dispatch
from pnma.config import TrainConfig
from pnma import encoder as encoder_module
from pnma.dataio import (
    Instance,
    TokenTable,
    build_vocab,
    load_external_embeddings,
    write_conll_file,
)
from pnma.encoder import encode_rows, length_sorted_chunks
from pnma.inference import predict_base_corpus, predict_pnma_corpus
from pnma.memory import build_memory
from pnma.numeric import make_rng
from pnma.synthetic import generate_split
from pnma.training import train_base, train_pnma


def small_cfg(**kw):
    base = dict(
        epochs=2, batch_size=8, seed=2, d_word=8, d_pred=4, d_hidden=10,
        n_layers=2, k_neighbors=4, memory_fraction=1.0, phase2_epochs=2,
        dropout_embed=0.1, dropout_layer=0.05,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus_with_embeddings(tmp_path_factory):
    root = tmp_path_factory.mktemp("ext")
    train, _ = generate_split("train", 30, 0.0, seed=4)
    valid, _ = generate_split("valid", 10, 0.0, seed=4)
    rng = make_rng(9)
    dim = 6
    lines = []
    for inst in list(train) + list(valid):
        for t in range(len(inst)):
            vec = rng.normal(size=dim)
            lines.append(
                f"{inst.sentence_id} {t} " + " ".join(f"{v:.6f}" for v in vec)
            )
    emb_path = root / "embeddings.txt"
    emb_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root, train, valid, str(emb_path), dim


class TestExternalEmbeddings:

    def test_training_and_prediction_with_external_vectors(self, corpus_with_embeddings):
        root, train, valid, emb_path, dim = corpus_with_embeddings
        vocab = build_vocab(train, min_frequency=1)
        external = load_external_embeddings(emb_path, list(train) + list(valid))
        assert external.dim == dim
        cfg = small_cfg()
        result = train_base(train, valid, vocab, cfg, external=external)
        assert result.encoder.word_emb is None  # no trained word table
        assert result.encoder.layers[0].d_in == dim + cfg.d_pred
        preds = predict_base_corpus(valid, result.encoder, result.crf, vocab,
                                    external=external)
        assert len(preds) == len(valid)

    def test_full_pnma_phase_with_external_vectors(self, corpus_with_embeddings):
        root, train, valid, emb_path, dim = corpus_with_embeddings
        vocab = build_vocab(train, min_frequency=1)
        external = load_external_embeddings(emb_path, list(train) + list(valid))
        cfg = small_cfg()
        base = train_base(train, valid, vocab, cfg, external=external)
        params = {**base.encoder.to_dict(), **crf_to_dict(base.crf)}
        digest = checkpoint_bytes(params, cfg.to_echo())[-32:].hex()
        memory = build_memory(base.encoder, vocab, train, fraction=1.0,
                              source_digest=digest, external=external)
        out = train_pnma(base.encoder, base.crf, digest, memory, train, valid,
                         vocab, cfg, external=external)
        preds = predict_pnma_corpus(valid, out.encoder, out.crf, out.nbr, memory,
                                    vocab, cfg.k_neighbors, external=external)
        assert len(preds) == len(valid)

    def test_cli_embeddings_flag(self, corpus_with_embeddings):
        root, train, valid, emb_path, dim = corpus_with_embeddings
        train_path = str(root / "train.conll")
        valid_path = str(root / "valid.conll")
        write_conll_file(train_path, train)
        write_conll_file(valid_path, valid)
        vocab_path = str(root / "vocab.txt")
        ckpt = str(root / "ext.ckpt")
        preds = str(root / "preds.conll")
        assert dispatch(["prepare", "--train", train_path, "--out", vocab_path]) == 0
        assert dispatch([
            "train-base", "--train", train_path, "--valid", valid_path,
            "--vocab", vocab_path, "--out", ckpt, "--embeddings", emb_path,
            "--epochs", "1", "--d-hidden", "10", "--n-layers", "2",
            "--batch-size", "8", "--seed", "1",
        ]) == 0
        assert dispatch([
            "predict", "--checkpoint", ckpt, "--input", valid_path,
            "--vocab", vocab_path, "--out", preds, "--embeddings", emb_path,
        ]) == 0
        assert len(open(preds).read().splitlines()) > 0


class TestDegenerateCorpus:
    def test_one_label_memory_one_label_predictions(self):
        # every token in the corpus carries the same label; after phase-2
        # training on it, every prediction is that label
        rng = make_rng(5)
        words = ["alpha", "beta", "gamma", "delta"]
        instances = []
        for i in range(12):
            n = int(rng.integers(2, 5))
            toks = tuple(words[int(rng.integers(len(words)))] for _ in range(n))
            p = int(rng.integers(n))
            bits = tuple(1 if t == p else 0 for t in range(n))
            instances.append(Instance(f"one-{i}", toks, p, bits, ("B-X",) * n))
        vocab = build_vocab(instances, min_frequency=1)
        assert vocab.tag_labels == ["B-X"]
        cfg = small_cfg(epochs=1, phase2_epochs=1, memory_fraction=1.0)
        base = train_base(instances, None, vocab, cfg)
        params = {**base.encoder.to_dict(), **crf_to_dict(base.crf)}
        digest = checkpoint_bytes(params, cfg.to_echo())[-32:].hex()
        memory = build_memory(base.encoder, vocab, instances, fraction=1.0,
                              source_digest=digest)
        assert set(memory.labels.tolist()) == {0}
        out = train_pnma(base.encoder, base.crf, digest, memory, instances, None,
                        vocab, cfg)
        tags = predict_pnma_corpus([instances[0]], out.encoder, out.crf, out.nbr, memory,
                                   vocab, k=cfg.k_neighbors)[0]
        assert all(vocab.tag_labels[t] == "B-X" for t in tags)


class TestThreadEquivalence:
    def test_threaded_encoding_matches_sequential(self, monkeypatch):
        train, _ = generate_split("train", 40, 0.05, seed=8)
        vocab = build_vocab(train, min_frequency=1)
        rng = make_rng(7)
        from pnma.encoder import init_encoder_params

        encoder = init_encoder_params(vocab.n_words, d_word=6, d_pred=4,
                                      d_hidden=8, n_layers=2, rng=rng)
        monkeypatch.setattr(encoder_module, "CHUNK_TOKENS", 16)  # chunks for the threads
        table = TokenTable.build(train, vocab)
        assert len(length_sorted_chunks(table.lengths)) > 1
        seq = encode_rows(table, encoder, threads=1)
        par = encode_rows(table, encoder, threads=4)
        assert seq.tobytes() == par.tobytes()
