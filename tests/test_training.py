import dataclasses
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import traced_peak
from pnma.checkpoint import checkpoint_bytes, crf_to_dict
from pnma.config import LR_HALVING_EPOCHS, TrainConfig
from pnma.dataio import build_vocab
from pnma.errors import CompatibilityError, DimensionError, DomainError, NumericError
from pnma.memory import build_memory
from pnma.numeric import make_rng
from pnma.synthetic import generate_split
from pnma import training
from pnma.encoder import EncoderParams, encode_corpus
from pnma.memory import knn_entry_ids
from pnma.neighborhood import init_neighborhood_params
from pnma.training import (
    _ADAM_CHUNK,
    ADAM_BETA1,
    ADAM_BETA2,
    STREAM_NBR,
    STREAM_SHUFFLE,
    _flat_views,
    _training_batches,
    adam_step,
    init_adam_state,
    predicate_frequency_table,
    train_base,
    train_pnma,
)

ADAM_EPS = 1e-8


class TestAdam:
    def test_zero_gradient_is_fixed_point(self, monkeypatch):
        monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
        theta = np.array([1.0, -2.0, 3.0])
        state = init_adam_state(theta)
        adam_step(theta, [np.zeros(3)], state, lr=0.1)
        np.testing.assert_array_equal(theta, [1.0, -2.0, 3.0])

    def test_first_step_is_signed_lr(self):
        g = 0.37
        theta = np.array([2.0])
        state = init_adam_state(theta)
        adam_step(theta, [np.array([g])], state, lr=1e-3)
        update = 2.0 - theta[0]
        assert update == pytest.approx(1e-3 * g / (abs(g) + ADAM_EPS), abs=1e-6)

    def test_three_steps_vs_hand_iterated_recurrence(self, monkeypatch):
        lr, wd = 0.01, 0.1
        monkeypatch.setattr(training, "WEIGHT_DECAY", wd)
        beta1, beta2 = 0.9, 0.999
        theta = 0.7
        grads = [0.3, -0.5, 0.2]
        m = v = 0.0
        for t, g_raw in enumerate(grads, start=1):
            g = g_raw + wd * theta
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1 ** t)
            vhat = v / (1 - beta2 ** t)
            theta -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

        flat = np.array([0.7])
        state = init_adam_state(flat)
        for g_raw in grads:
            adam_step(flat, [np.array([g_raw])], state, lr=lr)
        assert flat[0] == pytest.approx(theta, abs=1e-12)

    @pytest.mark.parametrize(
        "grads", [[np.zeros(4)], [np.zeros(2)], [np.zeros(2), np.zeros(2)], []],
        ids=["too-many", "too-few", "too-many-in-pieces", "no-gradient"],
    )
    def test_size_mismatch(self, grads):
        theta = np.zeros(3)
        state = init_adam_state(theta)
        with pytest.raises(DimensionError):
            adam_step(theta, grads, state, lr=0.1)

    def test_float32_params_stay_float32(self):
        theta = np.ones(2, dtype=np.float32)
        state = init_adam_state(theta)
        adam_step(theta, [np.ones(2)], state, lr=0.1)
        assert theta.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_have_the_buffer_dtype(self, dtype):
        theta = np.ones(5, dtype=dtype)
        state = init_adam_state(theta)
        adam_step(theta, [np.ones(5)], state, lr=0.1)
        assert state.m.dtype == state.v.dtype == theta.dtype == dtype
        assert state.m.shape == state.v.shape == (5,)

    def test_float32_tracks_float64_textbook_recurrence(self, monkeypatch):
        # 100 steps of mixed-scale gradients, exactly representable in float32
        # so that only the optimizer's own round-off separates the two runs
        lr, wd, steps = 0.01, 0.1, 100
        monkeypatch.setattr(training, "WEIGHT_DECAY", wd)
        rng = make_rng(9)
        theta0 = rng.normal(size=200).astype(np.float32)
        scales = rng.choice([1e-3, 1.0, 1e3], size=200)
        grads = (rng.normal(size=(steps, 200)) * scales).astype(np.float32)
        theta = theta0.astype(np.float64)
        m = np.zeros(200)
        v = np.zeros(200)
        largest = np.abs(theta)
        for t in range(1, steps + 1):  # the textbook recurrence, in float64
            g = grads[t - 1] + wd * theta
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1 ** t)
            vhat = v / (1 - ADAM_BETA2 ** t)
            theta = theta - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            largest = np.maximum(largest, np.abs(theta))

        flat = theta0.copy()
        state = init_adam_state(flat)
        for g in grads:
            adam_step(flat, [g], state, lr=lr)
        # each float32 step rounds theta once (at most u * |theta|) and moves
        # it by at most a few lr, computed with a few u of relative error
        u = np.finfo(np.float32).eps / 2
        bound = steps * u * (largest + 4 * lr)
        assert flat.dtype == np.float32
        assert np.all(np.abs(flat - theta) <= bound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_chunked_equals_whole_array_reference(self, dtype, wd, monkeypatch):
        monkeypatch.setattr(training, "WEIGHT_DECAY", wd)
        # the big piece straddles chunks; the float64 pieces after it share one
        rng = make_rng(5)
        shapes = {"big": (3, _ADAM_CHUNK + 77), "small": (5,), "scalar": (), "mat": (4, 6)}
        grad_dtypes = {"big": dtype}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        flat, views = _flat_views(params, dtype)
        ref_m = {k: np.zeros(v.shape, dtype) for k, v in params.items()}
        ref_v = {k: np.zeros(v.shape, dtype) for k, v in params.items()}
        state = init_adam_state(flat)
        lr = 0.01
        for t in range(1, 4):
            grads = {k: rng.normal(size=s).astype(grad_dtypes.get(k, np.float64))
                     for k, s in shapes.items()}
            adam_step(flat, list(grads.values()), state, lr=lr)
            # the bias corrections folded into one step size and one epsilon
            c2_root = math.sqrt(1.0 - ADAM_BETA2 ** t)
            lr_t = lr * c2_root / (1.0 - ADAM_BETA1 ** t)
            eps_t = ADAM_EPS * c2_root
            for k, theta in params.items():  # one pass over each whole array
                g = grads[k].astype(dtype)
                if wd:
                    g = g + wd * theta
                m, v = ref_m[k], ref_v[k]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += g * g * (1.0 - ADAM_BETA2)
                theta -= lr_t * (m / (np.sqrt(v) + eps_t))
        assert flat.dtype == state.m.dtype == state.v.dtype == dtype
        for k in shapes:
            assert np.shares_memory(views[k], flat)
            assert views[k].tobytes() == params[k].tobytes(), k
        assert np.array_equal(state.m, np.concatenate([m.reshape(-1) for m in ref_m.values()]))
        assert np.array_equal(state.v, np.concatenate([v.reshape(-1) for v in ref_v.values()]))

    @pytest.mark.parametrize("theta", [np.zeros(12)[::2], np.zeros((2, 3))],
                             ids=["non-contiguous", "2-D"])
    def test_buffer_must_be_flat_and_contiguous(self, theta):
        state = init_adam_state(theta)
        with pytest.raises(DomainError, match="flat C-contiguous"):
            adam_step(theta, [np.ones(6)], state, lr=0.1)


def inline_training_batches(lengths, batch_size, rng):
    """The shuffled grouping as it was written out inside training, kept as the oracle."""
    order = rng.permutation(len(lengths))
    by_len = {}
    for idx in order:
        by_len.setdefault(lengths[int(idx)], []).append(int(idx))
    batches = []
    for length in sorted(by_len):
        group = by_len[length]
        batches.extend(group[i : i + batch_size] for i in range(0, len(group), batch_size))
    perm = rng.permutation(len(batches))
    return [batches[int(i)] for i in perm]


@pytest.mark.parametrize("seed", range(8))
def test_training_batches_match_inline_grouping(seed):
    rng = make_rng(seed, 9)
    for _ in range(25):
        lengths = rng.integers(1, int(rng.integers(2, 12)), size=int(rng.integers(0, 60)))
        batch_size = int(rng.integers(1, 20))
        draw = int(rng.integers(0, 2**31))
        new_rng, old_rng = make_rng(draw), make_rng(draw)
        assert _training_batches(lengths, batch_size, new_rng) == inline_training_batches(
            [int(n) for n in lengths], batch_size, old_rng
        )
        # the same draws, so every later batch order is the same too
        assert new_rng.integers(0, 2**31) == old_rng.integers(0, 2**31)


class TestSchedule:
    def test_halving_points(self):
        cfg = TrainConfig()
        assert cfg.lr_for_epoch(49) == pytest.approx(1e-3)
        assert cfg.lr_for_epoch(50) == pytest.approx(1e-3)
        assert cfg.lr_for_epoch(60) == pytest.approx(5e-4)
        assert cfg.lr_for_epoch(80) == pytest.approx(2.5e-4)

    def test_defaults_match_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.base_lr == 1e-3
        assert LR_HALVING_EPOCHS == (50, 75)
        assert training.WEIGHT_DECAY == 1e-4
        assert cfg.k_neighbors == 64
        assert cfg.memory_fraction == 0.15
        assert cfg.phase2_epochs == 20
        assert cfg.phase2_lr == 4e-4
        assert cfg.d_pred == 50
        assert cfg.d_hidden == 300
        assert cfg.n_layers == 4
        assert cfg.dropout_embed == 0.5
        assert cfg.dropout_layer == 0.1


def tiny_config(**kw):
    base = dict(
        epochs=5,
        batch_size=16,
        seed=1,
        d_word=12,
        d_pred=6,
        d_hidden=16,
        n_layers=2,
        k_neighbors=8,
        memory_fraction=0.5,
        phase2_epochs=3,
        dropout_embed=0.2,
        dropout_layer=0.05,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_task():
    train, _ = generate_split("train", 50, exception_rate=0.0, seed=7)
    valid, _ = generate_split("valid", 20, exception_rate=0.0, seed=7)
    vocab = build_vocab(train, min_frequency=1)
    return train, valid, vocab


class TestTrainBase:
    def test_loss_decreases_on_synthetic_task(self, tiny_task):
        train, valid, vocab = tiny_task
        result = train_base(train, valid, vocab, tiny_config())
        first = float(result.log_lines[0].split("\t")[2])
        last = float(result.log_lines[-1].split("\t")[2])
        assert last < first

    def test_log_line_format(self, tiny_task):
        train, valid, vocab = tiny_task
        result = train_base(train, valid, vocab, tiny_config(epochs=1))
        cols = result.log_lines[0].split("\t")
        assert len(cols) == 6
        assert cols[0] == "1"
        assert float(cols[1]) == 1e-3

    def test_same_seed_bit_identical_checkpoints(self, tiny_task):
        train, valid, vocab = tiny_task
        cfg = tiny_config(epochs=2)
        r1 = train_base(train, valid, vocab, cfg)
        r2 = train_base(train, valid, vocab, cfg)
        b1 = checkpoint_bytes({**r1.encoder.to_dict(), **crf_to_dict(r1.crf)}, cfg.to_echo())
        b2 = checkpoint_bytes({**r2.encoder.to_dict(), **crf_to_dict(r2.crf)}, cfg.to_echo())
        assert b1 == b2

    def test_different_seed_differs(self, tiny_task):
        train, valid, vocab = tiny_task
        r1 = train_base(train, valid, vocab, tiny_config(epochs=1, seed=1))
        r2 = train_base(train, valid, vocab, tiny_config(epochs=1, seed=2))
        assert not np.array_equal(r1.crf.emit_w, r2.crf.emit_w)

    def test_empty_training_set(self, tiny_task):
        _, _, vocab = tiny_task
        with pytest.raises(DomainError):
            train_base([], None, vocab, tiny_config())


@pytest.fixture(scope="module")
def base_setup(tiny_task):
    train, valid, vocab = tiny_task
    cfg = tiny_config()
    result = train_base(train, valid, vocab, cfg)
    params = {**result.encoder.to_dict(), **crf_to_dict(result.crf)}
    # the checkpoint identity is the trailing sha256 of its bytes
    blob = checkpoint_bytes(params, cfg.to_echo())
    digest = blob[-32:].hex()
    memory = build_memory(
        result.encoder, vocab, train, fraction=0.5, seed=3, source_digest=digest
    )
    return train, valid, vocab, cfg, result, memory, digest


class TestTrainPnma:

    def test_digest_mismatch_rejected(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        with pytest.raises(CompatibilityError):
            train_pnma(result.encoder, result.crf, "deadbeef", memory,
                       train, valid, vocab, cfg)

    @pytest.mark.parametrize("key, value", [("d_word", 12), ("d_pred", 6), ("d_hidden", 16),
                                            ("n_layers", 2)])
    def test_config_of_another_shape_is_refused(self, base_setup, key, value):
        # the adapted checkpoint echoes this config, so it must give the base
        # encoder's shape
        train, valid, vocab, cfg, result, memory, digest = base_setup
        assert getattr(cfg, key) == value
        with pytest.raises(CompatibilityError, match=f"train_pnma: the base encoder "
                                                     f"contradicts the config: {key} = 3, "
                                                     f"but the tensors have {value}"):
            train_pnma(result.encoder, result.crf, digest, memory, train, valid, vocab,
                       dataclasses.replace(cfg, **{key: 3}))

    def test_encoder_frozen_byte_for_byte(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        before = {k: v.tobytes() for k, v in result.encoder.to_dict().items()}
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg)
        after = {k: v.tobytes() for k, v in out.encoder.to_dict().items()}
        assert before == after

    def test_heads_warm_started_and_updated(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg)
        # warm start means phase 2 begins from phase-1 heads, then moves them
        assert out.crf.emit_w.shape == result.crf.emit_w.shape
        assert not np.array_equal(out.crf.emit_w, result.crf.emit_w)
        assert out.nbr.n.shape == (cfg.k_neighbors, cfg.d_hidden)

    def test_phase2_loss_decreases(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg)
        first = float(out.log_lines[0].split("\t")[2])
        last = float(out.log_lines[-1].split("\t")[2])
        assert last <= first

    def test_retrieval_timings_reported(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg)
        assert out.retrieval_tokens == sum(len(i) for i in train)
        assert out.retrieval_seconds > 0
        assert out.seconds > 0

    @pytest.mark.parametrize("mode", ["distinct", "distance"])
    def test_step_inputs_match_per_sentence_stacking(self, base_setup, monkeypatch, mode):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        cfg2 = tiny_config(neighborhood_mode=mode, phase2_epochs=1)
        seen = {"forward": [], "gather": [], "gold": []}
        forward, gather, crf_ll = (training.neighborhood_forward, training.gather_neighbors,
                                   training.crf_log_likelihood_batch)

        def spy_forward(h, m, params, distances, workspace):
            seen["forward"].append((h.copy(), None if distances is None else distances.copy()))
            return forward(h, m, params, distances, workspace)

        def spy_gather(vectors, ids, workspace):
            seen["gather"].append(ids.copy())
            return gather(vectors, ids, workspace)

        def spy_crf(em, gold, crf):
            seen["gold"].append(gold.copy())
            return crf_ll(em, gold, crf)

        monkeypatch.setattr(training, "neighborhood_forward", spy_forward)
        monkeypatch.setattr(training, "gather_neighbors", spy_gather)
        monkeypatch.setattr(training, "crf_log_likelihood_batch", spy_crf)
        train_pnma(result.encoder, result.crf, digest, memory, train, None, vocab, cfg2)

        # the per-sentence stacking that the flat token arrays replace, with one
        # retrieval per sentence
        encoded = encode_corpus(train, result.encoder, vocab)
        ids, dists = {}, {}
        for inst in train:
            sid = inst.sentence_id
            ids[sid], dists[sid] = knn_entry_ids(
                encoded[sid].astype(np.float32), memory, cfg2.k_neighbors,
                exclude=[[(sid, t)] for t in range(len(inst))],
            )
        rng = make_rng(cfg2.seed, STREAM_SHUFFLE + 100)
        batches = _training_batches([len(i) for i in train], cfg2.batch_size, rng)
        assert len(seen["forward"]) == len(seen["gather"]) == len(seen["gold"]) == len(batches)
        for batch, (h, d), i, g in zip(batches, seen["forward"], seen["gather"], seen["gold"]):
            sids = [train[j].sentence_id for j in batch]
            want_h = np.stack([encoded[sid] for sid in sids]).astype(np.float32)
            assert h.dtype == want_h.dtype and np.array_equal(h, want_h)
            assert np.array_equal(i, np.stack([ids[sid] for sid in sids]))
            assert np.array_equal(g, np.stack([vocab.tag_ids(train[j].gold_labels)
                                               for j in batch]))
            if mode == "distance":
                want_d = np.stack([dists[sid] for sid in sids]).astype(np.float32)
                assert d.dtype == want_d.dtype and np.array_equal(d, want_d)
            else:
                assert d is None

    @pytest.mark.parametrize("mode", ["distinct", "shared", "distance"])
    def test_rank_vectors_trained_unless_distance_mode(self, base_setup, monkeypatch, mode):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        # no weight decay: only the gradient can move the rank vectors
        monkeypatch.setattr(training, "WEIGHT_DECAY", 0.0)
        cfg2 = tiny_config(neighborhood_mode=mode, phase2_epochs=2)
        initial = init_neighborhood_params(cfg2.k_neighbors, cfg2.d_hidden,
                                           make_rng(cfg2.seed, STREAM_NBR), mode=mode)
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg2)
        assert out.nbr.n.shape == initial.n.shape
        assert np.array_equal(out.nbr.n, initial.n) == (mode == "distance")
        assert not np.array_equal(out.crf.trans, result.crf.trans)

    @pytest.mark.parametrize("mode", ["distinct", "shared", "distance"])
    def test_validation_distances_kept_only_in_distance_mode(self, base_setup, monkeypatch,
                                                             mode):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        cfg2 = tiny_config(neighborhood_mode=mode, phase2_epochs=2)
        tag_rows = training.tag_rows
        seen = []

        def spy_tag(table, h, crf, nbr, memory, ids, dists, workspace=None):
            seen.append((h.dtype, dists))
            return tag_rows(table, h, crf, nbr, memory, ids, dists, workspace)

        def float64_tag(table, h, crf, nbr, memory, ids, dists, workspace=None):
            # every epoch, the distances as retrieval returns them
            _, dists = knn_entry_ids(h.astype(np.float32), memory, ids.shape[1])
            return tag_rows(table, h, crf, nbr, memory, ids, dists, workspace)

        monkeypatch.setattr(training, "tag_rows", spy_tag)
        out = train_pnma(result.encoder, result.crf, digest, memory, train, valid, vocab, cfg2)
        assert len(seen) == 2 and seen[0][1] is seen[1][1]
        if mode == "distance":
            assert seen[0][1].dtype == seen[0][0]
        else:
            assert seen[0][1] is None
        monkeypatch.setattr(training, "tag_rows", float64_tag)
        ref = train_pnma(result.encoder, result.crf, digest, memory, train, valid, vocab, cfg2)
        assert out.log_lines == ref.log_lines and out.best_epoch == ref.best_epoch
        for name, a in trained_arrays(ref).items():
            assert np.array_equal(trained_arrays(out)[name], a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trains_in_the_base_encoders_dtype(self, base_setup, dtype):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        encoder = EncoderParams.from_dict({name: a.astype(dtype)
                                           for name, a in result.encoder.to_dict().items()})
        out = train_pnma(encoder, result.crf, digest, memory, train, valid, vocab,
                         tiny_config(phase2_epochs=1))
        assert out.nbr.n.dtype == dtype
        assert all(a.dtype == dtype for a in crf_to_dict(out.crf).values())

    def test_distance_mode_trains_head_only(self, base_setup):
        train, valid, vocab, cfg, result, memory, digest = base_setup
        cfg2 = tiny_config(neighborhood_mode="distance", phase2_epochs=2)
        out = train_pnma(result.encoder, result.crf, digest, memory,
                         train, valid, vocab, cfg2)
        assert out.nbr.mode == "distance"


def run_phase(phase, setup, epochs, with_valid=True):
    """Phase 1 or phase 2 on the tiny task for ``epochs`` epochs."""
    train, valid, vocab, cfg, result, memory, digest = setup
    if not with_valid:
        valid = None
    if phase == "base":
        return train_base(train, valid, vocab, tiny_config(epochs=epochs))
    return train_pnma(result.encoder, result.crf, digest, memory, train, valid, vocab,
                      tiny_config(phase2_epochs=epochs))


def trained_arrays(result):
    """The arrays a phase trains: encoder and head, or head and rank vectors."""
    arrays = crf_to_dict(result.crf)
    if result.nbr is None:
        arrays.update(result.encoder.to_dict())
    else:
        arrays["nbr.n"] = result.nbr.n
    return arrays


class TestTrainingLoop:
    @pytest.mark.parametrize("phase, epochs, best", [("base", 5, 2), ("pnma", 3, 1),
                                                     ("base", 3, 2), ("pnma", 2, 1)])
    def test_best_epoch_parameters_restored(self, base_setup, phase, epochs, best):
        runs = [run_phase(phase, base_setup, n) for n in (epochs, best)]
        # validation F1 peaks at epoch `best` here, so the longer run must hand
        # back its epoch-`best` parameters, which the shorter run ends with
        assert [r.best_epoch for r in runs] == [best, best]
        longer, shorter = (trained_arrays(r) for r in runs)
        assert longer.keys() == shorter.keys()
        for name in shorter:
            assert longer[name].tobytes() == shorter[name].tobytes(), name

    @pytest.mark.parametrize("phase", ["base", "pnma"])
    def test_without_validation_the_last_step_is_kept(self, base_setup, monkeypatch, phase):
        after_step = []
        adam = training.adam_step

        def spy_adam(theta, *args, **kwargs):
            adam(theta, *args, **kwargs)
            after_step[:] = [theta, theta.copy()]

        monkeypatch.setattr(training, "adam_step", spy_adam)
        result = run_phase(phase, base_setup, 2, with_valid=False)
        flat, last = after_step
        assert result.best_epoch == 2 and np.isnan(result.best_f1)
        assert flat.tobytes() == last.tobytes()
        assert all(np.shares_memory(a, flat) for a in trained_arrays(result).values())

    @pytest.mark.parametrize("phase", ["base", "pnma"])
    def test_step_cache_released_before_validation(self, base_setup, monkeypatch, phase):
        # the backward closure holds the encoder (phase 1) or neighborhood
        # (phase 2) cache; none may be alive beside the best-epoch snapshot
        caches = []
        forward_name, predict_name = {"base": ("encode_batch", "predict_base_corpus"),
                                      "pnma": ("neighborhood_forward", "tag_rows")}[phase]
        forward, predict = getattr(training, forward_name), getattr(training, predict_name)

        def spy_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            caches.append(weakref.ref(out[-1]))
            return out

        def spy_predict(*args, **kwargs):
            assert caches and all(ref() is None for ref in caches)
            return predict(*args, **kwargs)

        monkeypatch.setattr(training, forward_name, spy_forward)
        monkeypatch.setattr(training, predict_name, spy_predict)
        assert run_phase(phase, base_setup, 1).best_epoch == 1

    @pytest.mark.parametrize("phase", ["base", "pnma"])
    def test_no_epoch_reports_nan_not_a_score(self, base_setup, phase):
        result = run_phase(phase, base_setup, 0)
        assert result.best_epoch == 0 and np.isnan(result.best_f1)
        assert result.log_lines == []

    @pytest.mark.parametrize("phase", ["base", "pnma"])
    def test_non_finite_loss_aborts_with_diagnostics(self, base_setup, monkeypatch, phase):
        def nan_likelihood(em, gold, params):
            return np.full(em.shape[0], np.nan), None

        monkeypatch.setattr(training, "crf_log_likelihood_batch", nan_likelihood)
        message = rf"train_{phase}: non-finite loss at epoch 1, batch 0"
        with pytest.raises(NumericError, match=message):
            run_phase(phase, base_setup, 1)


def test_predicate_frequency_table(tiny_task):
    train, _, _ = tiny_task
    freq = predicate_frequency_table(train)
    assert sum(freq.values()) == len(train)
    assert all(v > 0 for v in freq.values())



def desk_phase2_setup(phase2_epochs):
    """train_pnma's arguments at desk shape: phase 1 (one epoch) on 200
    training sentences, a memory of half their tokens, 50 validation
    sentences and K 64."""
    train, _ = generate_split("train", 200, exception_rate=0.05, seed=11)
    valid, _ = generate_split("valid", 50, exception_rate=0.05, seed=11)
    vocab = build_vocab(train, min_frequency=1)
    cfg = TrainConfig(seed=1, epochs=1, batch_size=32, d_word=32, d_pred=16, d_hidden=48,
                      n_layers=2, k_neighbors=64, memory_fraction=0.5,
                      phase2_epochs=phase2_epochs)
    base = train_base(train, None, vocab, cfg)
    memory = build_memory(base.encoder, vocab, train, fraction=0.5, seed=1, source_digest="d")
    return base.encoder, base.crf, "d", memory, train, valid, vocab, cfg


# the minor page faults of one desk_phase2_setup train_pnma call in a fresh process
FAULT_PROBE = """
import resource, sys
from test_training import desk_phase2_setup
from pnma.training import train_pnma

args = desk_phase2_setup(int(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_pnma(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_phase2_page_faults_do_not_grow_with_epochs():
    # every step and validation block writes into one workspace that the
    # call's first epoch has faulted in, so later epochs fault no new pages;
    # fresh per-step arrays fault about 1.7k pages an epoch here
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])}
    faults = {}
    for epochs in (1, 4):
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(epochs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults[epochs] = int(proc.stdout)
    assert faults[4] - faults[1] < 500, faults


def test_phase2_holds_its_resident_arrays_and_one_workspace():
    args = desk_phase2_setup(1)
    _, _, _, memory, train, valid, _, cfg = args
    peak = traced_peak(lambda: train_pnma(*args))
    k, d = cfg.k_neighbors, cfg.d_hidden
    tokens = sum(map(len, train)) + sum(map(len, valid))
    id_width = np.min_scalar_type(len(memory) - 1).itemsize
    assert id_width == 2
    # per token of both sets: its activations, its K neighbor ids and its
    # word id, predicate bit and gold tag (int64)
    resident = tokens * (4 * d + id_width * k + 3 * 8)
    # the gather and |m - h| of the largest batch, B rows of length n
    counts = Counter(map(len, train))
    workspace = 2 * k * max(min(c, cfg.batch_size) * n for n, c in counts.items()) * d * 4
    # the K-NN calls run before the workspace exists, and a block of them
    # (128 rows by 608 entries of float64) holds less than it
    assert peak <= resident + workspace + (1 << 20)
