import math

import mpmath
import numpy as np
import pytest

from pnma.crf import init_crf_params
from pnma.dataio import Instance, build_vocab
from pnma.encoder import init_encoder_params
from pnma.errors import DimensionError, DomainError, NumericError
from pnma.inference import predict_pnma_corpus
from pnma.memory import ActivationMemory, build_memory
from pnma.neighborhood import (
    NeighborhoodParams,
    NeighborhoodWorkspace,
    _exact_softmax,
    _rank_vectors,
    gather_neighbors,
    init_neighborhood_params,
    neighborhood_backward,
    neighborhood_forward,
    neighborhood_param_grad,
)
from pnma.numeric import finite_difference_check, make_rng, softmax


class TestWeights:
    def test_weights_sum_to_one(self):
        rng = make_rng(1)
        for _ in range(50):
            k, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            params = NeighborhoodParams(n=rng.normal(size=(k, d)))
            h = rng.normal(size=d)
            m = rng.normal(size=(k, d))
            eta, _, _ = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
            assert abs(eta.sum() - 1.0) < 1e-12

    def test_single_neighbor_weight_is_one(self):
        params = NeighborhoodParams(n=np.array([[2.0, -3.0]]))
        eta, _, _ = neighborhood_forward(np.zeros(2), np.ones((1, 2)), params,
                                         None, NeighborhoodWorkspace())
        np.testing.assert_array_equal(eta, [1.0])

    def test_zero_parameters_give_uniform(self):
        rng = make_rng(2)
        k, d = 5, 3
        params = NeighborhoodParams(n=np.zeros((k, d)))
        eta, _, _ = neighborhood_forward(rng.normal(size=d), rng.normal(size=(k, d)), params,
                                         None, NeighborhoodWorkspace())
        np.testing.assert_allclose(eta, np.full(k, 1 / k), atol=1e-15)

    def test_scalar_hand_computation(self):
        # d=1, K=2: h=0, m=(1,-2), n=(3,1) -> logits (3*|1-0|, 1*|-2-0|) = (3, 2)
        params = NeighborhoodParams(n=np.array([[3.0], [1.0]]))
        h = np.array([0.0])
        m = np.array([[1.0], [-2.0]])
        eta, rep, _ = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        with mpmath.workdps(50):
            e3, e2 = mpmath.e ** 3, mpmath.e ** 2
            expected = np.array([float(e3 / (e3 + e2)), float(e2 / (e3 + e2))])
        np.testing.assert_allclose(eta, expected, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            rep, [expected[0] * 1.0 + expected[1] * -2.0], atol=1e-12, rtol=0
        )

    def test_width_mismatch(self):
        params = NeighborhoodParams(n=np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            neighborhood_forward(np.zeros(4), np.zeros((2, 3)), params,
                                 None, NeighborhoodWorkspace())

    def test_wrong_k_parameters(self):
        params = NeighborhoodParams(n=np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            neighborhood_forward(np.zeros(3), np.zeros((5, 3)), params,
                                 None, NeighborhoodWorkspace())


class TestRepresentation:
    def test_single_neighbor_returns_it_bit_for_bit(self):
        rng = make_rng(4)
        params = NeighborhoodParams(n=rng.normal(size=(1, 5)))
        m = rng.normal(size=(1, 5))
        _, rep, _ = neighborhood_forward(rng.normal(size=5), m, params,
                                         None, NeighborhoodWorkspace())
        np.testing.assert_array_equal(rep, m[0])

    def test_identical_neighbors_collapse(self):
        rng = make_rng(5)
        v = rng.normal(size=4)
        m = np.tile(v, (6, 1))
        params = NeighborhoodParams(n=rng.normal(size=(6, 4)))
        _, rep, _ = neighborhood_forward(rng.normal(size=4), m, params,
                                         None, NeighborhoodWorkspace())
        np.testing.assert_allclose(rep, v, atol=1e-12, rtol=0)

    def test_convex_hull_bound(self):
        rng = make_rng(6)
        for _ in range(25):
            k, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            params = NeighborhoodParams(n=rng.normal(size=(k, d)))
            m = rng.normal(size=(k, d))
            _, rep, _ = neighborhood_forward(rng.normal(size=d), m, params,
                                             None, NeighborhoodWorkspace())
            assert np.all(rep <= m.max(axis=0) + 1e-12)
            assert np.all(rep >= m.min(axis=0) - 1e-12)

    def test_scalar_oracle_for_k2(self):
        params = NeighborhoodParams(n=np.array([[3.0], [1.0]]))
        h = np.array([0.0])
        m = np.array([[1.0], [-2.0]])
        eta, rep, _ = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        assert rep[0] == pytest.approx(eta[0] * 1.0 + eta[1] * -2.0, abs=1e-15)

    def test_joint_permutation_invariance(self):
        rng = make_rng(7)
        k, d = 6, 4
        n = rng.normal(size=(k, d))
        m = rng.normal(size=(k, d))
        h = rng.normal(size=d)
        perm = rng.permutation(k)
        _, rep, _ = neighborhood_forward(h, m, NeighborhoodParams(n=n),
                                         None, NeighborhoodWorkspace())
        _, rep_p, _ = neighborhood_forward(h, m[perm], NeighborhoodParams(n=n[perm]),
                                           None, NeighborhoodWorkspace())
        np.testing.assert_array_equal(rep, rep_p)

    def test_shared_mode_invariant_under_neighbor_permutation(self):
        rng = make_rng(8)
        k, d = 5, 3
        params = NeighborhoodParams(n=rng.normal(size=(1, d)), mode="shared")
        m = rng.normal(size=(k, d))
        h = rng.normal(size=d)
        perm = rng.permutation(k)
        _, rep, _ = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        _, rep_p, _ = neighborhood_forward(h, m[perm], params, None, NeighborhoodWorkspace())
        np.testing.assert_allclose(rep, rep_p, atol=1e-12)


class TestModes:
    def test_distance_mode_ignores_parameters(self):
        rng = make_rng(10)
        k, d = 4, 3
        m = rng.normal(size=(k, d))
        h = rng.normal(size=d)
        dists = np.array([0.5, 1.0, 2.0, 4.0])
        p1 = NeighborhoodParams(n=rng.normal(size=(k, d)), mode="distance")
        p2 = NeighborhoodParams(n=rng.normal(size=(k, d)), mode="distance")
        eta1, _, _ = neighborhood_forward(h, m, p1, dists, NeighborhoodWorkspace())
        eta2, _, _ = neighborhood_forward(h, m, p2, dists, NeighborhoodWorkspace())
        np.testing.assert_array_equal(eta1, eta2)
        assert np.all(np.diff(eta1) < 0)  # closer neighbors weigh more

    def test_distance_mode_requires_distances(self):
        params = NeighborhoodParams(n=np.zeros((2, 2)), mode="distance")
        with pytest.raises(DomainError):
            neighborhood_forward(np.zeros(2), np.zeros((2, 2)), params,
                                 None, NeighborhoodWorkspace())

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            NeighborhoodParams(n=np.zeros((2, 2)), mode="magic")

    def test_init_shapes(self):
        rng = make_rng(11)
        assert init_neighborhood_params(8, 5, rng).n.shape == (8, 5)
        assert init_neighborhood_params(8, 5, rng, mode="shared").n.shape == (1, 5)


class TestNonFinite:
    # single query (d,) and a batch (B, n, d); each case plants one bad value
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("mode, where", [
        ("distinct", "query"), ("shared", "query"), ("distance", "query"),
        ("distinct", "rank vector"), ("shared", "rank vector"),
        ("distance", "neighbor distance"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, lead, mode, where, bad):
        rng = make_rng(12)
        k, d = 4, 3
        h = rng.normal(size=(*lead, d))
        m = rng.normal(size=(*lead, k, d))
        dists = rng.uniform(size=(*lead, k))
        params = init_neighborhood_params(k, d, rng, mode=mode, dtype=np.float64)
        target = {"query": h, "rank vector": params.n, "neighbor distance": dists}[where]
        target.reshape(-1)[-1] = bad
        with pytest.raises(NumericError, match=f"non-finite {where}"):
            neighborhood_forward(h, m, params, dists, NeighborhoodWorkspace())


class TestGradients:
    def test_gradients_distinct_mode(self):
        rng = make_rng(12)
        k, d = 4, 8
        params = NeighborhoodParams(n=rng.normal(size=(k, d)))
        h = rng.normal(size=d)
        m = rng.normal(size=(k, d))
        d_rep = rng.normal(size=d)
        _, rep, cache = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        d_n, d_h, d_m = neighborhood_backward(d_rep, cache, params)

        def loss_n(t):
            p2 = NeighborhoodParams(n=t.reshape(k, d))
            _, r, _ = neighborhood_forward(h, m, p2, None, NeighborhoodWorkspace())
            return float(r @ d_rep)

        def loss_h(t):
            _, r, _ = neighborhood_forward(t, m, params, None, NeighborhoodWorkspace())
            return float(r @ d_rep)

        def loss_m(t):
            _, r, _ = neighborhood_forward(h, t.reshape(k, d), params,
                                           None, NeighborhoodWorkspace())
            return float(r @ d_rep)

        assert finite_difference_check(loss_n, params.n, d_n) < 1e-4
        assert finite_difference_check(loss_h, h, d_h) < 1e-4
        assert finite_difference_check(loss_m, m, d_m) < 1e-4

    def test_gradients_shared_mode(self):
        rng = make_rng(13)
        k, d = 5, 6
        params = NeighborhoodParams(n=rng.normal(size=(1, d)), mode="shared")
        h = rng.normal(size=d)
        m = rng.normal(size=(k, d))
        d_rep = rng.normal(size=d)
        _, _, cache = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        d_n, d_h, _ = neighborhood_backward(d_rep, cache, params)

        def loss_n(t):
            p2 = NeighborhoodParams(n=t.reshape(1, d), mode="shared")
            _, r, _ = neighborhood_forward(h, m, p2, None, NeighborhoodWorkspace())
            return float(r @ d_rep)

        assert finite_difference_check(loss_n, params.n, d_n) < 1e-4

        def loss_h(t):
            _, r, _ = neighborhood_forward(t, m, params, None, NeighborhoodWorkspace())
            return float(r @ d_rep)

        assert finite_difference_check(loss_h, h, d_h) < 1e-4

    def test_gradients_batched_path(self):
        rng = make_rng(14)
        b, n, k, d = 2, 3, 4, 5
        params = NeighborhoodParams(n=rng.normal(size=(k, d)))
        h = rng.normal(size=(b, n, d))
        m = rng.normal(size=(b, n, k, d))
        d_rep = rng.normal(size=(b, n, d))
        _, _, cache = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        d_nn, d_h, d_m = neighborhood_backward(d_rep, cache, params)

        def loss_n(t):
            p2 = NeighborhoodParams(n=t.reshape(k, d))
            _, r, _ = neighborhood_forward(h, m, p2, None, NeighborhoodWorkspace())
            return float((r * d_rep).sum())

        def loss_h(t):
            _, r, _ = neighborhood_forward(t.reshape(b, n, d), m, params,
                                           None, NeighborhoodWorkspace())
            return float((r * d_rep).sum())

        def loss_m(t):
            _, r, _ = neighborhood_forward(h, t.reshape(b, n, k, d), params,
                                           None, NeighborhoodWorkspace())
            return float((r * d_rep).sum())

        assert finite_difference_check(loss_n, params.n, d_nn) < 1e-4
        assert finite_difference_check(loss_h, h, d_h) < 1e-4
        # with N(0, 1) rank vectors the default 1e-3 step's truncation error in m
        # can pass the bound by itself (3.8e-4 on another draw of this shape);
        # at 1e-4 it is a hundred times smaller
        assert finite_difference_check(loss_m, m, d_m, step=1e-4) < 1e-4

    @pytest.mark.parametrize("mode", ["distinct", "shared"])
    def test_gradients_on_gathered_batch(self, mode):
        rng = make_rng(16)
        b, n, k, d = 2, 3, 4, 5
        vectors = rng.normal(size=(30, d))
        ids = rng.integers(0, 30, size=(b, n, k))
        m = gather_neighbors(vectors, ids, NeighborhoodWorkspace())
        params = init_neighborhood_params(k, d, rng, mode=mode, dtype=np.float64)
        params.n[...] = rng.normal(0.0, 0.5, size=params.n.shape)
        h = rng.normal(size=(b, n, d))
        d_rep = rng.normal(size=(b, n, d))
        _, _, cache = neighborhood_forward(h, m, params, None, NeighborhoodWorkspace())
        d_n, d_h, d_m = neighborhood_backward(d_rep, cache, params)

        def loss_n(t):
            p2 = NeighborhoodParams(n=t.reshape(params.n.shape), mode=mode)
            return float((neighborhood_forward(h, m, p2,
                                               None, NeighborhoodWorkspace())[1] * d_rep).sum())

        def loss_h(t):
            return float((neighborhood_forward(t.reshape(h.shape), m, params,
                                               None, NeighborhoodWorkspace())[1] * d_rep).sum())

        def loss_m(t):
            # each perturbed batch goes through the helper's layout again
            table = t.reshape(-1, d)
            flat_ids = np.arange(table.shape[0]).reshape(b, n, k)
            m2 = gather_neighbors(table, flat_ids, NeighborhoodWorkspace())
            return float((neighborhood_forward(h, m2, params,
                                               None, NeighborhoodWorkspace())[1] * d_rep).sum())

        assert finite_difference_check(loss_n, params.n, d_n) < 1e-4
        assert finite_difference_check(loss_h, h, d_h) < 1e-4
        assert finite_difference_check(loss_m, np.array(m), d_m) < 1e-4

    def test_param_grad_equals_full_backward(self):
        rng = make_rng(15)
        b, n, k, d = 3, 4, 6, 5
        h = rng.normal(size=(b, n, d))
        m = rng.normal(size=(b, n, k, d))
        dists = rng.uniform(size=(b, n, k))
        d_rep = rng.normal(size=(b, n, d))
        for mode, rows in (("distinct", k), ("shared", 1), ("distance", k)):
            params = NeighborhoodParams(n=rng.normal(size=(rows, d)), mode=mode)
            _, _, cache = neighborhood_forward(h, m, params, dists, NeighborhoodWorkspace())
            d_n = neighborhood_param_grad(d_rep, cache, params)
            assert np.array_equal(d_n, neighborhood_backward(d_rep, cache, params)[0]), mode
            assert d_n.shape == params.n.shape
            assert np.any(d_n) == (mode != "distance")


def random_case(rng, k, lead, d, dtype, mode):
    """A memory of 20 vectors, queries (*lead, d), neighbor ids (*lead, k),
    distances and rank vectors large enough to make the weights uneven."""
    vectors = rng.normal(size=(20, d)).astype(dtype)
    ids = rng.integers(0, 20, size=(*lead, k))
    h = rng.normal(size=(*lead, d)).astype(dtype)
    dists = rng.uniform(0.0, 3.0, size=(*lead, k))
    params = init_neighborhood_params(k, d, rng, mode=mode, dtype=dtype)
    params.n *= 40.0
    return vectors, ids, h, dists, params


def random_shapes(rng, count):
    """Degenerate shapes first (K, T or d of 1), then random ones."""
    shapes = [(1, (3, 2), 4), (5, (1,), 3), (4, (2, 3), 1), (1, (1, 1), 1), (3, (1, 1), 2)]
    for _ in range(count):
        lead = tuple(int(x) for x in rng.integers(1, 5, size=int(rng.integers(1, 3))))
        shapes.append((int(rng.integers(1, 9)), lead, int(rng.integers(1, 7))))
    return shapes


class TestRankMajorLayout:
    """The kernels copy token-major inputs into the rank-major layout that
    ``gather_neighbors`` returns, so both inputs give the same bits."""

    def test_gather_is_a_view_of_a_rank_major_array(self):
        rng = make_rng(30)
        vectors = rng.normal(size=(20, 3)).astype(np.float32)
        ids = rng.integers(0, 20, size=(2, 4, 5))
        m = gather_neighbors(vectors, ids, NeighborhoodWorkspace())
        assert m.shape == (2, 4, 5, 3) and m.dtype == np.float32
        np.testing.assert_array_equal(m, vectors[ids])
        assert np.moveaxis(m, -2, 0).flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["distinct", "shared", "distance"])
    def test_token_major_and_gathered_inputs_give_same_bits(self, dtype, mode):
        rng = make_rng(31)
        for k, lead, d in random_shapes(rng, 20):
            vectors, ids, h, dists, params = random_case(rng, k, lead, d, dtype, mode)
            d_rep = rng.normal(size=(*lead, d)).astype(dtype)
            outs = []
            for m in (vectors[ids], gather_neighbors(vectors, ids, NeighborhoodWorkspace())):
                eta, rep, cache = neighborhood_forward(h, m, params, dists, NeighborhoodWorkspace())
                outs.append((eta, rep, *neighborhood_backward(d_rep, cache, params)))
            for a, b in zip(*outs):
                assert a.dtype == b.dtype and a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["distinct", "shared", "distance"])
    def test_batched_path_matches_exactly_rounded_single_query(self, dtype, mode):
        rng = make_rng(32)
        eps = np.finfo(dtype).eps
        for k, lead, d in random_shapes(rng, 20):
            vectors, ids, h, dists, params = random_case(rng, k, lead, d, dtype, mode)
            m = gather_neighbors(vectors, ids, NeighborhoodWorkspace())
            eta, rep, _ = neighborhood_forward(h, m, params, dists, NeighborhoodWorkspace())
            assert eta.shape == (*lead, k) and rep.shape == (*lead, d)
            for t in np.ndindex(*lead):
                eta1, rep1, _ = neighborhood_forward(h[t], m[t], params,
                                                     dists[t], NeighborhoodWorkspace())
                # a logit carries at most d roundings of terms up to |n| |m - h|
                logit_err = 4 * d * eps * float(np.abs(params.n).max()) * float(
                    np.abs(m[t] - h[t]).max())
                np.testing.assert_allclose(eta[t], eta1, rtol=0, atol=logit_err + 8 * k * eps)
                tol = (logit_err + 8 * k * eps) * k * float(np.abs(m[t]).max())
                np.testing.assert_allclose(rep[t], rep1, rtol=0, atol=tol + 4 * eps)


def allocating_gather(vectors, ids):
    """Reference gather: a fresh rank-major ``np.take``, viewed token-major."""
    return np.moveaxis(np.take(vectors, np.moveaxis(ids, -1, 0), axis=0), 0, -2)


def allocating_forward(h, m, params, distances):
    """Reference forward: the kernels' arithmetic on a fresh rank-major copy
    of m and a fresh ``mk - h``.  Returns eta (..., K), the representation
    and what the parameter gradient reads: (mk, sep, rank-major eta)."""
    k, d = m.shape[-2], m.shape[-1]
    lead = h.shape[:-1]
    tokens = math.prod(lead)
    mk = np.ascontiguousarray(np.moveaxis(m, -2, 0))
    sep = mk - h
    np.abs(sep, out=sep)
    if params.mode == "distance":
        logits = np.moveaxis(-np.asarray(distances, dtype=sep.dtype), -1, 0)
    else:
        rank_vecs = _rank_vectors(params, k)
        logits = (sep.reshape(k, tokens, d) @ rank_vecs[:, :, None]).reshape((k,) + lead)
    if h.ndim == 1:
        eta = _exact_softmax(logits)
        weighted = eta[:, None] * mk
        rep = np.array([math.fsum(weighted[:, j]) for j in range(d)], dtype=m.dtype)
    else:
        eta = softmax(logits, axis=0)
        m_tokens = mk.reshape(k, tokens, d).transpose(1, 0, 2)
        rep = (eta.reshape(k, tokens).T[:, None, :] @ m_tokens).reshape(lead + (d,))
    return np.moveaxis(eta, 0, -1), rep, (mk, sep, eta)


def allocating_param_grad(d_rep, saved, params):
    """Reference ``neighborhood_param_grad`` on ``allocating_forward``'s arrays."""
    if params.mode == "distance":
        return np.zeros_like(params.n)
    mk, sep, eta = saved
    k, d = mk.shape[0], mk.shape[-1]
    tokens = math.prod(mk.shape[1:-1])
    eta = eta.reshape(k, tokens)
    m_tokens = mk.reshape(k, tokens, d).transpose(1, 0, 2)
    d_eta = (m_tokens @ d_rep.reshape(tokens, d, 1)).reshape(tokens, k).T
    d_logits = eta * (d_eta - np.sum(eta * d_eta, axis=0))
    d_rank = (d_logits.reshape(k, 1, tokens) @ sep.reshape(k, tokens, d)).reshape(k, d)
    d_n = d_rank.sum(axis=0, keepdims=True) if params.mode == "shared" else d_rank
    return d_n.astype(params.n.dtype, copy=False)


class TestWorkspace:
    """One workspace serves every gather and forward of a call: its results
    equal the allocating reference's bit for bit at every shape, and a cache
    whose arrays a later call overwrote refuses its backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["distinct", "shared", "distance"])
    def test_workspace_equals_allocating_reference(self, dtype, mode):
        rng = make_rng(33)
        shapes = random_shapes(rng, 10)
        shapes.sort(key=lambda s: s[0] * math.prod(s[1]) * s[2])
        ws = NeighborhoodWorkspace()
        reused = 0
        # ascending sizes grow the buffers; descending ones reuse them
        for k, lead, d in shapes + shapes[::-1]:
            vectors, ids, h, dists, params = random_case(rng, k, lead, d, dtype, mode)
            d_rep = rng.normal(size=(*lead, d)).astype(dtype)
            before = ws._buffers["gather"]
            m = gather_neighbors(vectors, ids, ws)
            reused += ws._buffers["gather"] is before and before.size > m.nbytes
            np.testing.assert_array_equal(m, allocating_gather(vectors, ids))
            t = (0,) * len(lead)
            # the batched path, then the single-query path on one token
            for hq, mq, dq, rq in ((h, m, dists, d_rep), (h[t], m[t], dists[t], d_rep[t])):
                eta, rep, cache = neighborhood_forward(hq, mq, params, dq, ws)
                d_n = neighborhood_param_grad(rq, cache, params)
                ref_eta, ref_rep, saved = allocating_forward(hq, mq, params, dq)
                for got, want in ((eta, ref_eta), (rep, ref_rep),
                                  (d_n, allocating_param_grad(rq, saved, params))):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    np.testing.assert_array_equal(got, want)
        assert reused >= len(shapes) - 1

    @pytest.mark.parametrize("later", ["forward", "gather"])
    def test_cache_overwritten_by_a_later_call_raises(self, later):
        rng = make_rng(34)
        vectors, ids, h, dists, params = random_case(rng, 4, (2, 3), 5, np.float64, "distinct")
        d_rep = rng.normal(size=h.shape)
        ws = NeighborhoodWorkspace()
        m = gather_neighbors(vectors, ids, ws)
        _, _, cache = neighborhood_forward(h, m, params, None, ws)
        want = neighborhood_param_grad(d_rep, cache, params)  # still current: reads its rows
        if later == "forward":
            neighborhood_forward(h[:1], m[:1], params, None, ws)
        else:
            gather_neighbors(vectors, ids[:1], ws)
        with pytest.raises(DomainError, match="stale"):
            neighborhood_param_grad(d_rep, cache, params)
        with pytest.raises(DomainError, match="stale"):
            neighborhood_backward(d_rep, cache, params)
        # a fresh gather and forward make a current cache again
        m = gather_neighbors(vectors, ids, ws)
        _, _, cache = neighborhood_forward(h, m, params, None, ws)
        np.testing.assert_array_equal(neighborhood_param_grad(d_rep, cache, params), want)

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_gather_checks_the_id_range(self, bad):
        vectors = np.zeros((20, 3), dtype=np.float32)
        ids = np.zeros((2, 4), dtype=np.int64)
        ids[1, 2] = bad
        with pytest.raises(DomainError, match=r"\[0, 20\)"):
            gather_neighbors(vectors, ids, NeighborhoodWorkspace())


class TestPredict:
    def _setup(self):
        instances = [
            Instance("p-0", ("the", "cat", "runs"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
            Instance("p-1", ("a", "dog", "sits"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
            Instance("p-2", ("the", "dog", "runs"), 2, (0, 0, 1), ("B-A0", "I-A0", "B-V")),
        ]
        vocab = build_vocab(instances, min_frequency=1)
        rng = make_rng(15)
        encoder = init_encoder_params(
            vocab.n_words, d_word=4, d_pred=3, d_hidden=6, n_layers=2, rng=rng
        )
        crf = init_crf_params(6, vocab.n_tags, rng)
        memory = build_memory(encoder, vocab, instances, fraction=1.0)
        nbr = init_neighborhood_params(4, 6, rng)
        return instances, vocab, encoder, crf, memory, nbr

    def test_deterministic(self):
        instances, vocab, encoder, crf, memory, nbr = self._setup()
        a = predict_pnma_corpus([instances[0]], encoder, crf, nbr, memory, vocab, k=4)[0]
        b = predict_pnma_corpus([instances[0]], encoder, crf, nbr, memory, vocab, k=4)[0]
        np.testing.assert_array_equal(a, b)

    def test_single_label_memory_predicts_that_label(self):
        instances, vocab, encoder, crf, memory, nbr = self._setup()
        one_label = ActivationMemory(
            vectors=memory.vectors.copy(),
            labels=np.full(len(memory), vocab.tag_to_id["B-V"], dtype=np.int64),
            provenance=list(memory.provenance),
        )
        # a head trained on a one-label corpus collapses to that label; here we
        # force the emission weights to prefer it for any representation
        crf.emit_b[:] = -5.0
        crf.emit_b[vocab.tag_to_id["B-V"]] = 5.0
        crf.emit_w[:] = 0.0
        pred = predict_pnma_corpus([instances[0]], encoder, crf, nbr, one_label, vocab, k=4)[0]
        assert all(vocab.tag_labels[t] == "B-V" for t in pred)
