import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnma import encoder
from pnma.dataio import Instance, TokenTable, build_vocab
from pnma.encoder import (
    _matmul_rows,
    EncoderParams,
    LstmWeights,
    connection_backward,
    connection_forward,
    embed_tokens,
    encode_backward,
    encode_batch,
    encode_corpus,
    encode_rows,
    init_encoder_params,
    layer_direction,
    length_sorted_chunks,
    lstm_layer_backward,
    lstm_layer_forward,
)
from pnma.errors import DimensionError, DomainError
from pnma.numeric import finite_difference_check, make_rng
from pnma.synthetic import generate_split


def small_params(rng, vocab_size=10, d_word=4, d_pred=3, d_hidden=5, n_layers=2):
    return init_encoder_params(
        vocab_size, d_word=d_word, d_pred=d_pred, d_hidden=d_hidden,
        n_layers=n_layers, rng=rng, dtype=np.float64,
    )


def toy_vocab():
    insts = [
        Instance("a", ("the", "cat", "runs"), 2, (0, 0, 1), ("O", "O", "B-V")),
        Instance("b", ("the", "dog", "runs"), 2, (0, 0, 1), ("O", "O", "B-V")),
    ]
    return insts, build_vocab(insts, min_frequency=1)


class TestEmbedding:
    def test_output_width_is_word_plus_predicate(self):
        rng = make_rng(1)
        params = small_params(rng, d_word=6, d_pred=50)
        out = embed_tokens(np.array([[1, 2]]), np.array([[0, 1]]), params)
        assert out.shape == (1, 2, 56)

    def test_predicate_bit_changes_last_block_only(self):
        rng = make_rng(2)
        params = small_params(rng, d_word=4, d_pred=3)
        a = embed_tokens(np.array([[2]]), np.array([[0]]), params)[0, 0]
        b = embed_tokens(np.array([[2]]), np.array([[1]]), params)[0, 0]
        np.testing.assert_array_equal(a[:4], b[:4])
        assert not np.array_equal(a[4:], b[4:])

    def test_rows_equal_stored_tables(self):
        rng = make_rng(3)
        params = small_params(rng, d_word=4, d_pred=3)
        out = embed_tokens(np.array([[5]]), np.array([[1]]), params)[0, 0]
        np.testing.assert_array_equal(out[:4], params.word_emb[5])
        np.testing.assert_array_equal(out[4:], params.pred_emb[1])

    def test_out_of_range_id(self):
        rng = make_rng(4)
        params = small_params(rng, vocab_size=4)
        with pytest.raises(DomainError, match="out of range"):
            embed_tokens(np.array([[9]]), np.array([[1]]), params)


class TestLstmLayer:
    def test_zero_weights_give_zero_output(self):
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        out, _ = lstm_layer_forward(np.ones((1, 4, 3)), "f", w, None)
        np.testing.assert_array_equal(out, np.zeros((1, 4, 2)))

    def test_single_step_vs_hand_unrolled_gates(self):
        rng = make_rng(5)
        d, d_in = 2, 3
        w = LstmWeights(
            rng.normal(size=(4 * d, d_in)),
            rng.normal(size=(4 * d, d)),
            rng.normal(size=4 * d),
        )
        x = rng.normal(size=(1, 1, d_in))
        out = lstm_layer_forward(x, "f", w, None)[0][0, 0]

        # hand-unrolled gate arithmetic, zero initial state
        pre = w.wx @ x[0, 0] + w.b
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        i = sig(pre[:d])
        f = sig(pre[d : 2 * d])
        g = np.tanh(pre[2 * d : 3 * d])
        o = sig(pre[3 * d :])
        c = f * 0.0 + i * g
        h = o * np.tanh(c)
        np.testing.assert_allclose(out, h, atol=1e-12, rtol=0)

    def test_backward_direction_is_reversed_forward(self):
        rng = make_rng(6)
        d, d_in, n = 3, 4, 6
        w = LstmWeights(
            rng.normal(size=(4 * d, d_in)),
            rng.normal(size=(4 * d, d)),
            rng.normal(size=4 * d),
        )
        x = rng.normal(size=(1, n, d_in))
        back, _ = lstm_layer_forward(x, "b", w, None)
        fwd_on_reversed, _ = lstm_layer_forward(x[:, ::-1], "f", w, None)
        np.testing.assert_array_equal(back, fwd_on_reversed[:, ::-1])

    @pytest.mark.parametrize("direction", ["f", "b"])
    def test_gradients_both_directions(self, direction):
        rng = make_rng(7)
        d, d_in, n = 3, 4, 5
        w = LstmWeights(
            rng.normal(size=(4 * d, d_in)),
            rng.normal(size=(4 * d, d)),
            rng.normal(size=4 * d),
        )
        x = rng.normal(size=(1, n, d_in))
        d_out = rng.normal(size=(1, n, d))
        out, cache = lstm_layer_forward(x, direction, w, None)
        d_x, grads = lstm_layer_backward(d_out, cache, w)

        def loss_x(t):
            return float((lstm_layer_forward(t, direction, w, None)[0] * d_out).sum())

        def loss_wx(t):
            w2 = LstmWeights(t, w.wh, w.b)
            return float((lstm_layer_forward(x, direction, w2, None)[0] * d_out).sum())

        def loss_wh(t):
            w2 = LstmWeights(w.wx, t, w.b)
            return float((lstm_layer_forward(x, direction, w2, None)[0] * d_out).sum())

        def loss_b(t):
            w2 = LstmWeights(w.wx, w.wh, t)
            return float((lstm_layer_forward(x, direction, w2, None)[0] * d_out).sum())

        assert finite_difference_check(loss_x, x, d_x) < 1e-4
        assert finite_difference_check(loss_wx, w.wx, grads.wx) < 1e-4
        assert finite_difference_check(loss_wh, w.wh, grads.wh) < 1e-4
        assert finite_difference_check(loss_b, w.b, grads.b) < 1e-4

    def test_shape_mismatch(self):
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(DimensionError):
            lstm_layer_forward(np.ones((1, 4, 5)), "f", w, None)

    def test_bad_direction(self):
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(DomainError):
            lstm_layer_forward(np.ones((1, 4, 3)), "x", w, None)

    @pytest.mark.parametrize("direction", ["f", "b"])
    def test_batch_axis_is_required(self, direction):
        # a single sequence is the batch of one: (n, d) is no input form
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(DimensionError, match=r"lstm input \(4, 3\)"):
            lstm_layer_forward(np.ones((4, 3)), direction, w, None)
        _, cache = lstm_layer_forward(np.ones((1, 4, 3)), direction, w, None)
        for shape in ((4, 2), (1, 4, 3), (1, 3, 2), (2, 4, 2)):
            with pytest.raises(DimensionError, match=r"d_out .* vs output \(1, 4, 2\)"):
                lstm_layer_backward(np.ones(shape), cache, w)


class TestConnection:
    def test_zero_weights(self):
        out, _ = connection_forward(np.ones(3), np.ones(2), np.zeros((3, 5)))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_relu_clamps_negative_preactivations(self):
        w = -np.ones((3, 5))
        out, _ = connection_forward(np.ones(3), np.ones(2), w)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_gradient_vs_finite_differences(self):
        rng = make_rng(8)
        d, d_in = 4, 3
        w = rng.normal(size=(d, d + d_in))
        h = rng.normal(size=(2, d))
        x = rng.normal(size=(2, d_in))
        d_out = rng.normal(size=(2, d))
        out, cache = connection_forward(h, x, w)
        d_h, d_x, d_w = connection_backward(d_out, cache, w, d)

        def loss_w(t):
            return float((connection_forward(h, x, t)[0] * d_out).sum())

        def loss_h(t):
            return float((connection_forward(t, x, w)[0] * d_out).sum())

        def loss_x(t):
            return float((connection_forward(h, t, w)[0] * d_out).sum())

        assert finite_difference_check(loss_w, w, d_w) < 1e-4
        assert finite_difference_check(loss_h, h, d_h) < 1e-4
        assert finite_difference_check(loss_x, x, d_x) < 1e-4

    def test_cache_holds_the_output_itself(self):
        rng = make_rng(9)
        w = rng.normal(size=(4, 7))
        out, (cat, cached) = connection_forward(rng.normal(size=(2, 3, 4)),
                                                rng.normal(size=(2, 3, 3)), w)
        assert cached is out
        assert cat.shape == (2, 3, 7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_mask_from_output_equals_mask_from_preactivation(self, dtype):
        # ReLU(pre) > 0 exactly where pre > 0, at signed zeros and subnormals too,
        # so the backward reads its mask off the cached output
        tiny = np.finfo(dtype).smallest_subnormal
        d, d_in = 8, 3
        boundary = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -5 * tiny, 1.5, -2.25],
                            dtype=dtype)
        rng = make_rng(10)
        pre = np.stack([boundary, rng.permutation(boundary),
                        rng.normal(size=d).astype(dtype)])[None]  # (1, 3, d)
        assert np.signbit(pre[0, 0, 1]) and pre[0, 0, 2] > 0
        cat = rng.normal(size=(1, 3, d + d_in)).astype(dtype)
        w = rng.normal(size=(d, d + d_in)).astype(dtype)
        d_out = rng.normal(size=(1, 3, d)).astype(dtype)
        d_h, d_x, d_w = connection_backward(d_out, (cat, np.maximum(pre, 0.0)), w, d)

        dpre = d_out * (pre > 0)
        want_w = (dpre.reshape(-1, d).T @ cat.reshape(-1, d + d_in)).astype(w.dtype)
        want_cat = (dpre.reshape(-1, d) @ w).reshape(1, 3, d + d_in)
        assert d_w.tobytes() == want_w.tobytes()
        assert d_h.tobytes() == want_cat[..., :d].tobytes()
        assert d_x.tobytes() == want_cat[..., d:].tobytes()


@pytest.mark.parametrize("shape, d_out", [((32, 7, 64), 192), ((8, 5, 300), 1200),
                                          ((4, 30, 300), 1200)])
def test_batch_wide_product_within_float32_round_off(shape, d_out):
    # Each float32 dot product of length d lies within gamma_d = d u / (1 - d u)
    # (u = 2^-24) of the exact value, relative to sum |x_k w_k|; so one batch-wide
    # GEMM and per-sentence GEMMs differ by at most twice that.
    rng = make_rng(13)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.uniform(-0.1, 0.1, size=(d_out, shape[-1])).astype(np.float32)
    got = _matmul_rows(x, w.T)
    per_sentence = np.stack([x[b] @ w.T for b in range(shape[0])])
    assert got.shape == per_sentence.shape and got.dtype == np.float32
    d, u = shape[-1], 2.0 ** -24
    gamma = d * u / (1 - d * u)
    magnitude = np.abs(x.astype(np.float64)) @ np.abs(w.astype(np.float64)).T
    exact = x.astype(np.float64) @ w.astype(np.float64).T
    assert np.all(np.abs(got - exact) <= gamma * magnitude)
    assert np.all(np.abs(got.astype(np.float64) - per_sentence) <= 2 * gamma * magnitude)


def cache_views(cache):
    """An ``LstmCache``'s arrays as the (B, n, ·) views the row-major oracles
    hold, by name: the gates i, f, g, o, tanh_c, c_prev and h_prev, and x."""
    d = cache.tanh_cells.shape[1]
    gates = cache.gates.transpose(2, 0, 1)
    return {**{name: gates[..., j * d : (j + 1) * d] for j, name in enumerate("ifgo")},
            "tanh_c": cache.tanh_cells.transpose(2, 0, 1),
            "h_prev": cache.h_prev, "c_prev": cache.cells[:-1].transpose(2, 0, 1), "x": cache.x}


def _per_step_float64_backward(d_out, cache, weights):
    """The per-timestep weight-gradient accumulation that the batch-wide GEMMs
    replaced, kept as their oracle: float64 sums of each step's product."""
    if cache.direction == "b":
        d_out = d_out[:, ::-1]
    view = cache_views(cache)
    bsz, n, d = d_out.shape
    d_wx = np.zeros_like(weights.wx, dtype=np.float64)
    d_wh = np.zeros_like(weights.wh, dtype=np.float64)
    d_b = np.zeros_like(weights.b, dtype=np.float64)
    dpres = np.empty((bsz, n, 4 * d), dtype=np.result_type(d_out, view["i"], weights.wh))
    dh_next = np.zeros((bsz, d), dtype=d_out.dtype)
    dc_next = np.zeros((bsz, d), dtype=d_out.dtype)
    for t in range(n - 1, -1, -1):
        i, f, g, o = (view[name][:, t] for name in "ifgo")
        tanh_c = view["tanh_c"][:, t]
        dh = d_out[:, t] + dh_next
        do = dh * tanh_c
        dct = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        di = dct * g
        df = dct * view["c_prev"][:, t]
        dg = dct * i
        dc_next = dct * f
        dpre = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        d_wx += dpre.T @ cache.x[:, t]
        d_wh += dpre.T @ cache.h_prev[:, t]
        d_b += dpre.sum(axis=0)
        dpres[:, t] = dpre
        dh_next = dpre @ weights.wh
    d_x = _matmul_rows(dpres, weights.wx).astype(cache.x.dtype, copy=False)
    if cache.direction == "b":
        d_x = d_x[:, ::-1]
    dt = weights.wx.dtype
    return d_x, LstmWeights(d_wx.astype(dt), d_wh.astype(dt), d_b.astype(dt)), dpres


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("direction", ["f", "b"])
@pytest.mark.parametrize("bsz, n, d_in, d", [(32, 9, 300, 48), (8, 1, 64, 16),
                                             (5, 17, 20, 7), (1, 6, 10, 5)])
def test_weight_gradients_within_round_off_of_per_step_sums(dtype, direction, bsz, n, d_in, d):
    # One GEMM over all B*n rows lies within gamma_{Bn} = Bn u / (1 - Bn u) of the
    # exact sum, relative to |dpre|^T |x|; the per-step float64 oracle lies within
    # gamma_B + u of it.  Both fit in 2 gamma_{Bn}.  d_x is untouched: same bits.
    rng = make_rng(17)
    w = LstmWeights(
        rng.uniform(-0.3, 0.3, size=(4 * d, d_in)).astype(dtype),
        rng.uniform(-0.3, 0.3, size=(4 * d, d)).astype(dtype),
        rng.normal(size=4 * d).astype(dtype),
    )
    x = rng.normal(size=(bsz, n, d_in)).astype(dtype)
    d_out = rng.normal(size=(bsz, n, d)).astype(dtype)
    _, cache = lstm_layer_forward(x, direction, w, None)
    d_x, grads = lstm_layer_backward(d_out, cache, w)
    d_x_ref, ref, dpres = _per_step_float64_backward(d_out, cache, w)
    assert np.array_equal(d_x, d_x_ref) and d_x.dtype == d_x_ref.dtype
    rows = bsz * n
    u = np.finfo(dtype).eps / 2
    gamma = rows * u / (1 - rows * u)
    abs_dpre = np.abs(dpres.reshape(rows, 4 * d).astype(np.float64))
    for got, want, operand in [(grads.wx, ref.wx, cache.x), (grads.wh, ref.wh, cache.h_prev)]:
        assert got.dtype == dtype
        magnitude = abs_dpre.T @ np.abs(operand.reshape(rows, -1).astype(np.float64))
        err = np.abs(got.astype(np.float64) - want)
        assert np.all(err <= 2 * gamma * magnitude)
    assert grads.b.dtype == dtype
    err_b = np.abs(grads.b.astype(np.float64) - ref.b)
    assert np.all(err_b <= 2 * gamma * abs_dpre.sum(axis=0))


def _row_major_lstm(x, direction, w, lengths, d_out):
    """The LSTM layer with its gates in (B, 4d) rows, ``pre_x[:, t] + h @ wh.T``
    at every step, kept as the oracle of the (4d, B) recurrence: returns the
    output, the cache arrays by ``LstmCache`` field, d_x and the weight grads."""
    if direction == "b":
        x = encoder._reverse_steps(x, lengths)
    bsz, n, _ = x.shape
    d = w.d_hidden
    pre_x = _matmul_rows(x, w.wx.T) + w.b
    h = np.zeros((bsz, d), dtype=pre_x.dtype)
    c = np.zeros_like(h)
    names = ("i", "f", "g", "o", "tanh_c", "h_prev", "c_prev")
    cache = {name: np.empty((bsz, n, d), dtype=pre_x.dtype) for name in names}
    hs = np.empty((bsz, n, d), dtype=pre_x.dtype)
    for t in range(n):
        pre = pre_x[:, t] + h @ w.wh.T
        gates = 0.5 * (np.tanh(0.5 * pre) + 1.0)
        i, f, o = gates[:, :d], gates[:, d : 2 * d], gates[:, 3 * d :]
        g = np.tanh(pre[:, 2 * d : 3 * d])
        cache["h_prev"][:, t], cache["c_prev"][:, t] = h, c
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        hs[:, t] = h
        for name, value in zip(names, (i, f, g, o, tanh_c)):
            cache[name][:, t] = value
    cache["x"] = x
    if direction == "b":
        d_out = encoder._reverse_steps(d_out, lengths)
    dpres = np.empty((bsz, n, 4 * d), dtype=np.result_type(d_out, pre_x, w.wh))
    dh_next = np.zeros((bsz, d), dtype=d_out.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(n - 1, -1, -1):
        i, f, g, o = (cache[name][:, t] for name in "ifgo")
        tanh_c = cache["tanh_c"][:, t]
        dh = d_out[:, t] + dh_next
        dct = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        dc_next = dct * f
        dpres[:, t] = np.concatenate([dct * g * i * (1.0 - i),
                                      dct * cache["c_prev"][:, t] * f * (1.0 - f),
                                      dct * i * (1.0 - g * g), dh * tanh_c * o * (1.0 - o)],
                                     axis=1)
        dh_next = dpres[:, t] @ w.wh
    d_x = _matmul_rows(dpres, w.wx).astype(x.dtype, copy=False)
    flat = dpres.reshape(bsz * n, 4 * d).astype(w.wx.dtype, copy=False)
    grads = {"wx": flat.T @ x.reshape(bsz * n, -1), "wh": flat.T @ cache["h_prev"].reshape(-1, d),
             "b": flat.sum(axis=0, dtype=np.float64).astype(w.wx.dtype)}
    out = encoder._reverse_steps(hs, lengths) if direction == "b" else hs
    d_x = encoder._reverse_steps(d_x, lengths) if direction == "b" else d_x
    return out, cache, d_x, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("direction", ["f", "b"])
@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("d_in, d", [(48, 48), (114, 300)])
@pytest.mark.parametrize("bsz", [1, 3, 8, 32, 85, 170])
def test_gate_layout_equals_row_major_gates_bit_for_bit(dtype, direction, ragged, d_in, d, bsz):
    rng = make_rng(bsz * d)
    w = LstmWeights(rng.uniform(-0.3, 0.3, size=(4 * d, d_in)).astype(dtype),
                    rng.uniform(-0.3, 0.3, size=(4 * d, d)).astype(dtype),
                    rng.normal(size=4 * d).astype(dtype))
    n = 5
    x = rng.normal(size=(bsz, n, d_in)).astype(dtype)
    d_out = rng.normal(size=(bsz, n, d)).astype(dtype)
    lengths = rng.integers(1, n + 1, size=bsz) if ragged else None
    out, cache = lstm_layer_forward(x, direction, w, lengths)
    d_x, grads = lstm_layer_backward(d_out, cache, w)
    ref_out, ref_cache, ref_d_x, ref_grads = _row_major_lstm(x, direction, w, lengths, d_out)
    got = {"output": out, "d_x": d_x, **{f"cache.{k}": cache_views(cache)[k] for k in ref_cache},
           **{f"grad.{k}": getattr(grads, k) for k in ref_grads}}
    want = {"output": ref_out, "d_x": ref_d_x, **{f"cache.{k}": v for k, v in ref_cache.items()},
            **{f"grad.{k}": v for k, v in ref_grads.items()}}
    differ = [k for k in want if got[k].dtype != want[k].dtype or got[k].shape != want[k].shape
              or got[k].tobytes() != want[k].tobytes()]
    assert not differ, (
        f"{differ} differ from the row-major gate formulation: lstm_layer_forward "
        f"assumes that BLAS rounds wh @ h.T (h row-major, read transposed) as it "
        f"rounds h @ wh.T, and rounds each input-projection row the same with the "
        f"rows in step order as in sentence order; this numpy/BLAS build does not")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("direction", ["f", "b"])
@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("d", [48, 300])
def test_one_loop_with_and_without_cache(dtype, direction, ragged, d):
    # inference and training run one recurrence, which always returns its
    # step-major arrays, and the backward that reads them gives the row-major
    # oracle's gradient bytes
    rng = make_rng(d + 5)
    bsz, n = 32, 7
    w = LstmWeights(rng.uniform(-0.3, 0.3, size=(4 * d, d)).astype(dtype),
                    rng.uniform(-0.3, 0.3, size=(4 * d, d)).astype(dtype),
                    rng.normal(size=4 * d).astype(dtype))
    x = rng.normal(size=(bsz, n, d)).astype(dtype)
    d_out = rng.normal(size=(bsz, n, d)).astype(dtype)
    lengths = rng.integers(1, n + 1, size=bsz) if ragged else None
    plain, _ = lstm_layer_forward(x, direction, w, lengths)
    out, cache = lstm_layer_forward(x, direction, w, lengths)
    assert (plain.dtype, plain.shape) == (out.dtype, out.shape) == (np.dtype(dtype), (bsz, n, d))
    assert plain.tobytes() == out.tobytes()
    for name in ("i", "f", "g", "o", "tanh_c", "h_prev", "c_prev"):
        view = cache_views(cache)[name]
        assert view.shape == (bsz, n, d) and not view.flags.writeable
    d_x, grads = lstm_layer_backward(d_out, cache, w)
    _, _, ref_d_x, ref_grads = _row_major_lstm(x, direction, w, lengths, d_out)
    assert d_x.dtype == ref_d_x.dtype and d_x.tobytes() == ref_d_x.tobytes()
    for name, want in ref_grads.items():
        got = getattr(grads, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def encode_one(inst, params, vocab, **kw):
    """Final activations of one instance: the batch-of-one ``encode_batch``."""
    words = vocab.word_ids(inst.tokens)[None, :]
    bits = np.array(inst.predicate_bits, dtype=np.int64)[None, :]
    return encode_batch(words, bits, params, **kw)[0]


class TestEncodeSequence:
    def test_output_shape_default_width(self):
        insts, vocab = toy_vocab()
        rng = make_rng(9)
        params = init_encoder_params(vocab.n_words, d_word=8, d_pred=5,
                                     d_hidden=300, n_layers=2, rng=rng)
        assert encode_one(insts[0], params, vocab).shape == (3, 300)

    def test_directions_alternate(self):
        assert [layer_direction(i) for i in range(4)] == ["f", "b", "f", "b"]

    def test_eval_mode_deterministic(self):
        insts, vocab = toy_vocab()
        rng = make_rng(10)
        params = small_params(rng, vocab_size=vocab.n_words)
        a = encode_one(insts[0], params, vocab)
        b = encode_one(insts[0], params, vocab)
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_changes_output_but_is_seeded(self):
        insts, vocab = toy_vocab()
        rng = make_rng(11)
        params = small_params(rng, vocab_size=vocab.n_words)
        kw = dict(dropout_embed=0.5, dropout_layer=0.1)
        a = encode_one(insts[0], params, vocab, drop_rng=make_rng(1, 3), **kw)
        b = encode_one(insts[0], params, vocab, drop_rng=make_rng(1, 3), **kw)
        c = encode_one(insts[0], params, vocab, drop_rng=make_rng(2, 3), **kw)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_of_one_matches_stacked_batch(self):
        insts, vocab = toy_vocab()
        rng = make_rng(12)
        params = small_params(rng, vocab_size=vocab.n_words)
        w = np.stack([vocab.word_ids(i.tokens) for i in insts])
        b = np.stack([np.array(i.predicate_bits) for i in insts])
        batch = encode_batch(w, b, params)
        for i, inst in enumerate(insts):
            np.testing.assert_allclose(batch[i], encode_one(inst, params, vocab), atol=1e-12)


class TestEncodeRows:
    @pytest.fixture(scope="class")
    def corpus(self):
        instances, _ = generate_split("train", 60, 0.05, seed=5)
        vocab = build_vocab(instances, min_frequency=1)
        params = init_encoder_params(vocab.n_words, d_word=6, d_pred=3, d_hidden=8,
                                     n_layers=3, rng=make_rng(14))
        return instances, vocab, params, TokenTable.build(instances, vocab)

    def test_rows_are_each_jobs_batch(self, corpus, monkeypatch):
        instances, vocab, params, table = corpus
        monkeypatch.setattr(encoder, "CHUNK_TOKENS", 16)  # several padded chunks
        assert len(length_sorted_chunks(table.lengths)) > 1
        h = encode_rows(table, params)
        assert h.shape == (sum(len(i) for i in instances), 8) and h.dtype == np.float32
        by_length = {}
        for i, inst in enumerate(instances):
            by_length.setdefault(len(inst), []).append(i)
        jobs = [group[s : s + 4] for _, group in sorted(by_length.items())
                for s in range(0, len(group), 4)]
        for job in jobs:
            w = np.stack([vocab.word_ids(instances[i].tokens) for i in job])
            b = np.stack([np.array(instances[i].predicate_bits) for i in job])
            np.testing.assert_array_equal(h[table.rows(job)], encode_batch(w, b, params))

    def test_threads_equal_one_thread(self, corpus, monkeypatch):
        instances, vocab, params, table = corpus
        monkeypatch.setattr(encoder, "CHUNK_TOKENS", 16)
        one = encode_rows(table, params)
        two = encode_rows(table, params, threads=2)
        assert one.tobytes() == two.tobytes()

    def test_encode_corpus_is_a_view_of_the_rows(self, corpus):
        instances, vocab, params, table = corpus
        h = encode_rows(table, params)
        encoded = encode_corpus(instances, params, vocab)
        assert list(encoded) == [i.sentence_id for i in instances]
        for inst, start in zip(instances, table.starts):
            view = encoded[inst.sentence_id]
            assert view.base is not None
            np.testing.assert_array_equal(view, h[start : start + len(inst)])

    def test_empty_table(self, corpus):
        _, vocab, params, _ = corpus
        assert encode_rows(TokenTable.build([], vocab), params).shape == (0, 8)


# a few ulps of one elementwise step (sigmoid, tanh, product, sum), in units
# of u, relative to operands of magnitude at most 1 or to the step's terms
ELEMENTWISE_ULPS = 8


def reference_with_bound(word_ids, bits, params, u):
    """One sentence through the stack in float64, with a first-order bound on
    how far an evaluation at unit round-off u can land from it.

    A product with a weight matrix is a sum of m terms, off by at most
    gamma_m = m u / (1 - m u) times the sum of |terms| (in any summation
    order), plus its operands' errors through |W|.  Sigmoid and tanh are 1/4-
    and 1-Lipschitz, ReLU 1-Lipschitz, and every elementwise step adds a few
    ulps.  Two evaluations that differ only in how their products are
    blocked both lie within the bound, so they differ by at most twice it.
    """
    def gamma(m):
        return m * u / (1 - m * u)

    ulps = ELEMENTWISE_ULPS * u
    x = embed_tokens(word_ids, bits, params).astype(np.float64)  # exact lookups
    ex = np.zeros_like(x)
    for l, w in enumerate(params.layers):
        wx, wh, b = (a.astype(np.float64) for a in (w.wx, w.wh, w.b))
        d = w.d_hidden
        step = -1 if layer_direction(l) == "b" else 1
        h = c = eh = ec = np.zeros(d)
        hs, ehs = [], []
        for xt, ext in zip(x[::step], ex[::step]):
            a = wx @ xt + b + wh @ h
            ea = (gamma(w.d_in + d + 2) * (abs(wx) @ abs(xt) + abs(b) + abs(wh) @ abs(h))
                  + abs(wx) @ ext + abs(wh) @ eh)
            sig = 1.0 / (1.0 + np.exp(-a))
            i, f, o = sig[:d], sig[d : 2 * d], sig[3 * d :]
            ei, ef, eo = (ea[s] / 4 + ulps for s in (slice(0, d), slice(d, 2 * d),
                                                    slice(3 * d, 4 * d)))
            g = np.tanh(a[2 * d : 3 * d])
            eg = ea[2 * d : 3 * d] + ulps
            ec = (ef * abs(c) + f * ec + ei * abs(g) + i * eg
                  + ulps * (abs(f * c) + abs(i * g)))
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            eh = eo * abs(tanh_c) + o * (ec + ulps) + ulps * abs(h)
            hs.append(h)
            ehs.append(eh)
        h, eh = np.array(hs)[::step], np.array(ehs)[::step]
        if l == params.n_layers - 1:
            return h, eh
        wc = params.connections[l].astype(np.float64)
        cat, ecat = np.concatenate([h, x], axis=1), np.concatenate([eh, ex], axis=1)
        x = np.maximum(cat @ wc.T, 0.0)
        ex = gamma(cat.shape[1]) * abs(cat) @ abs(wc).T + ecat @ abs(wc).T


def ragged_table(rng, lengths, vocab_size):
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    return TokenTable(word_ids=rng.integers(0, vocab_size, size=total),
                      bits=rng.integers(0, 2, size=total), external=None,
                      starts=np.cumsum(lengths) - lengths, lengths=lengths)


class TestRaggedEncode:
    LENGTHS = [1, 4, 1, 7, 3, 7, 2, 1, 5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_ragged_rows_within_round_off_of_per_sentence(self, dtype, n_layers, monkeypatch):
        rng = make_rng(30)
        params = init_encoder_params(12, d_word=6, d_pred=3, d_hidden=8, n_layers=n_layers,
                                     rng=rng, dtype=dtype)
        table = ragged_table(rng, self.LENGTHS, 12)
        # a 14-token budget cuts [1, 1, 1, 2], [3, 4], [5, 7], [7]: padded,
        # mixed-length chunks
        monkeypatch.setattr(encoder, "CHUNK_TOKENS", 14)
        assert [sorted(table.lengths[c]) for c in length_sorted_chunks(table.lengths)] == [
            [1, 1, 1, 2], [3, 4], [5, 7], [7]]
        h = encode_rows(table, params)
        assert h.dtype == dtype
        u = np.finfo(dtype).eps / 2
        for s, n in zip(table.starts, table.lengths):
            words, bits = table.word_ids[s : s + n], table.bits[s : s + n]
            alone = encode_batch(words[None], bits[None], params)[0]
            _, bound = reference_with_bound(words, bits, params, u)
            assert np.all(bound < 1e3 * u)  # round-off, not a loose tolerance
            err = np.abs(h[s : s + n].astype(np.float64) - alone)
            assert np.all(err <= 2 * bound)

    @pytest.mark.parametrize("direction", ["f", "b"])
    def test_lengths_none_equals_equal_lengths_bit_for_bit(self, direction):
        rng = make_rng(31)
        w = LstmWeights(rng.normal(size=(20, 4)).astype(np.float32),
                        rng.normal(size=(20, 5)).astype(np.float32),
                        rng.normal(size=20).astype(np.float32))
        x = rng.normal(size=(3, 6, 4)).astype(np.float32)
        a, ca = lstm_layer_forward(x, direction, w, None)
        b, cb = lstm_layer_forward(x, direction, w, np.full(3, 6))
        assert a.tobytes() == b.tobytes()
        d_out = rng.normal(size=a.shape).astype(np.float32)
        (dxa, ga), (dxb, gb) = lstm_layer_backward(d_out, ca, w), lstm_layer_backward(d_out, cb, w)
        assert dxa.tobytes() == dxb.tobytes()
        assert all(getattr(ga, n).tobytes() == getattr(gb, n).tobytes() for n in ("wx", "wh", "b"))
        params = init_encoder_params(9, d_word=4, d_pred=2, d_hidden=5, n_layers=3, rng=rng)
        words, bits = rng.integers(0, 9, size=(3, 6)), rng.integers(0, 2, size=(3, 6))
        assert (encode_batch(words, bits, params).tobytes()
                == encode_batch(words, bits, params, lengths=np.full(3, 6)).tobytes())

    @pytest.mark.parametrize("direction", ["f", "b"])
    def test_padded_backward_equals_per_sentence_sums(self, direction):
        # zero gradient on the padding: each row's d_x is its sentence's, and
        # the weight gradients are the per-sentence gradients summed
        rng = make_rng(32)
        lengths = np.array([3, 1, 5])
        w = LstmWeights(rng.normal(size=(12, 4)), rng.normal(size=(12, 3)), rng.normal(size=12))
        x = rng.normal(size=(3, 5, 4))
        d_out = rng.normal(size=(3, 5, 3)) * (np.arange(5) < lengths[:, None])[..., None]
        out, cache = lstm_layer_forward(x, direction, w, lengths)
        d_x, grads = lstm_layer_backward(d_out, cache, w)
        sums = {"wx": 0.0, "wh": 0.0, "b": 0.0}
        for r, n in enumerate(lengths):
            out_r, cache_r = lstm_layer_forward(x[r : r + 1, :n], direction, w, None)
            np.testing.assert_allclose(out[r, :n], out_r[0], rtol=0, atol=1e-14)
            d_x_r, g = lstm_layer_backward(d_out[r : r + 1, :n], cache_r, w)
            np.testing.assert_allclose(d_x[r, :n], d_x_r[0], rtol=0, atol=1e-13)
            for name in sums:
                sums[name] = sums[name] + getattr(g, name)
        for name, total in sums.items():
            np.testing.assert_allclose(getattr(grads, name), total, rtol=0, atol=1e-12)

    def test_lengths_outside_the_batch_are_a_domain_error(self):
        w = LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        for lengths in ([4, 0], [4, 5], [4], [2.5, 3.0], [2.0, 3.0]):
            for direction in ("f", "b"):
                with pytest.raises(DomainError, match="lengths must be 2 integers in 1..4"):
                    lstm_layer_forward(np.ones((2, 4, 3)), direction, w, np.array(lengths))


class TestLengthSortedChunks:
    @given(st.lists(st.integers(1, 40), max_size=60), st.integers(1, 120))
    def test_each_index_once_in_length_order_within_the_budget(self, lengths, max_tokens):
        with mock.patch.object(encoder, "CHUNK_TOKENS", max_tokens):
            chunks = length_sorted_chunks(lengths)
        flat = [int(i) for c in chunks for i in c]
        assert flat == sorted(range(len(lengths)), key=lambda i: lengths[i])
        for c in chunks:
            longest = max(lengths[i] for i in c)
            assert len(c) * longest <= max_tokens or len(c) == 1
        # greedy: a chunk stops only where the next sentence breaks the budget
        for c, nxt in zip(chunks, chunks[1:]):
            assert (len(c) + 1) * lengths[nxt[0]] > max_tokens

    def test_over_budget_sentence_is_its_own_chunk(self, monkeypatch):
        monkeypatch.setattr(encoder, "CHUNK_TOKENS", 16)
        chunks = length_sorted_chunks([3, 30, 2, 3, 20])
        assert [c.tolist() for c in chunks] == [[2, 0, 3], [4], [1]]

    def test_only_the_token_budget_limits_a_chunk(self):
        # only the token budget cuts: 512 one-token sentences fill one chunk
        assert [len(c) for c in length_sorted_chunks([1] * 600)] == [512, 88]

    def test_empty(self):
        assert length_sorted_chunks([]) == []


class TestLayerCacheLifetime:
    """Every forward returns its cache.  ``encode_batch`` keeps them all with
    ``want_cache``, and otherwise frees each one before the next layer runs,
    so inference holds one layer's activations at a time."""

    @pytest.mark.parametrize("lengths", [None, np.array([4, 2, 3])])
    @pytest.mark.parametrize("want_cache", [False, True])
    def test_earlier_caches_dead_unless_kept(self, monkeypatch, want_cache, lengths):
        rng = make_rng(40)
        params = small_params(rng, n_layers=4)
        words, bits = rng.integers(0, 10, size=(3, 4)), rng.integers(0, 2, size=(3, 4))
        lstm, conn = encoder.lstm_layer_forward, encoder.connection_forward
        refs = []  # a weakref to each LSTM cache and to each connection's cat

        def on_entry():
            assert [r() is not None for r in refs] == [want_cache] * len(refs)

        def spy_lstm(*args):
            on_entry()
            out, cache = lstm(*args)
            refs.append(weakref.ref(cache))
            return out, cache

        def spy_conn(*args):
            on_entry()
            out, cache = conn(*args)
            refs.append(weakref.ref(cache[0]))
            return out, cache

        monkeypatch.setattr(encoder, "lstm_layer_forward", spy_lstm)
        monkeypatch.setattr(encoder, "connection_forward", spy_conn)
        result = encode_batch(words, bits, params, want_cache=want_cache, lengths=lengths)
        assert len(refs) == 7
        on_entry()
        if want_cache:
            cache = result[1]
            assert [weakref.ref(c) for c in cache.lstm_caches] == refs[::2]
            assert [weakref.ref(cat) for cat, _ in cache.conn_caches] == refs[1::2]


class TestFullStackGradients:
    def test_encoder_stack_gradient_check(self):
        # 3 tokens, d=8, L=2, double precision: loss = weighted sum of h_L
        rng = make_rng(13)
        params = init_encoder_params(
            vocab_size=9, d_word=4, d_pred=4, d_hidden=8, n_layers=2,
            rng=rng, dtype=np.float64,
        )
        word_ids = np.array([[1, 4, 7]])
        bits = np.array([[0, 1, 0]])
        d_h = make_rng(14).normal(size=(1, 3, 8))

        h, cache = encode_batch(word_ids, bits, params, want_cache=True)
        grads = encode_backward(d_h, cache, params)

        flat = params.to_dict()
        for name in sorted(flat):
            base = flat[name]

            def loss(t, _name=name, _base=base):
                saved = _base.copy()
                _base[...] = t.reshape(_base.shape)
                try:
                    out = encode_batch(word_ids, bits, params)
                    return float((out * d_h).sum())
                finally:
                    _base[...] = saved

            err = finite_difference_check(loss, base.copy(), grads[name])
            assert err < 1e-4, f"gradient check failed for {name}: {err}"

    def test_gradient_check_with_dropout_masks_held_fixed(self):
        rng = make_rng(15)
        params = init_encoder_params(
            vocab_size=6, d_word=3, d_pred=3, d_hidden=4, n_layers=2,
            rng=rng, dtype=np.float64,
        )
        word_ids = np.array([[1, 2, 3]])
        bits = np.array([[1, 0, 0]])
        d_h = make_rng(16).normal(size=(1, 3, 4))
        h, cache = encode_batch(
            word_ids, bits, params, dropout_embed=0.4,
            dropout_layer=0.25, drop_rng=make_rng(17, 3), want_cache=True,
        )
        grads = encode_backward(d_h, cache, params)

        # replay the same masks through a manual forward
        def forward_with_masks(p: EncoderParams):
            x = embed_tokens(word_ids, bits, p)
            x = x * cache.embed_mask
            for l in range(p.n_layers):
                hh, _ = lstm_layer_forward(x, layer_direction(l), p.layers[l], None)
                if l == p.n_layers - 1:
                    return hh
                hh = hh * cache.layer_masks[l]
                x, _ = connection_forward(hh, x, p.connections[l])

        flat = params.to_dict()
        for name in ("lstm0.wx", "conn0.w", "embed.word", "lstm1.wh"):
            base = flat[name]

            def loss(t, _base=base):
                saved = _base.copy()
                _base[...] = t.reshape(_base.shape)
                try:
                    return float((forward_with_masks(params) * d_h).sum())
                finally:
                    _base[...] = saved

            err = finite_difference_check(loss, base.copy(), grads[name])
            assert err < 1e-4, f"dropout gradient check failed for {name}: {err}"

    def test_backward_consumes_the_layer_caches(self):
        params = small_params(make_rng(19), n_layers=3)
        _, cache = encode_batch(
            np.array([[1, 2, 3]]), np.array([[1, 0, 0]]), params,
            dropout_embed=0.4, dropout_layer=0.25, drop_rng=make_rng(20), want_cache=True,
        )
        assert (len(cache.lstm_caches), len(cache.conn_caches)) == (3, 2)
        encode_backward(make_rng(21).normal(size=(1, 3, 5)), cache, params)
        assert cache.lstm_caches == [] and cache.conn_caches == []
        # the dropout masks stay, for a caller that replays the forward
        assert cache.embed_mask is not None
        assert len(cache.layer_masks) == 2


def test_forget_gate_bias_init():
    rng = make_rng(18)
    params = small_params(rng, d_hidden=5)
    for layer in params.layers:
        np.testing.assert_array_equal(layer.b[5:10], np.ones(5))
        np.testing.assert_array_equal(layer.b[:5], np.zeros(5))
