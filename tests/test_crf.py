import itertools

import numpy as np
import pytest

from pnma import crf
from pnma.crf import (
    CrfParams,
    crf_log_likelihood,
    crf_log_likelihood_batch,
    emission_backward,
    emission_scores,
    gold_path_score,
    init_crf_params,
    viterbi_decode,
    viterbi_decode_batch,
)
from pnma.errors import DimensionError, DomainError
from pnma.numeric import finite_difference_check, logsumexp, make_rng


def random_params(rng, n_tags, d=4, scale=1.0):
    return CrfParams(
        emit_w=rng.normal(size=(n_tags, d)),
        emit_b=rng.normal(size=n_tags),
        trans=scale * rng.normal(size=(n_tags, n_tags)),
        start=scale * rng.normal(size=n_tags),
        stop=scale * rng.normal(size=n_tags),
    )


def zero_params(n_tags, d=4):
    return CrfParams(
        emit_w=np.zeros((n_tags, d)),
        emit_b=np.zeros(n_tags),
        trans=np.zeros((n_tags, n_tags)),
        start=np.zeros(n_tags),
        stop=np.zeros(n_tags),
    )


def brute_force_log_z(emissions, params):
    n, y = emissions.shape
    scores = [
        gold_path_score(emissions, np.array(path), params)
        for path in itertools.product(range(y), repeat=n)
    ]
    m = max(scores)
    return m + np.log(np.sum(np.exp(np.array(scores) - m)))


def brute_force_argmax(emissions, params):
    n, y = emissions.shape
    best, best_score = None, -np.inf
    for path in itertools.product(range(y), repeat=n):
        s = gold_path_score(emissions, np.array(path), params)
        if s > best_score:
            best, best_score = path, s
    return np.array(best), best_score


class TestLogLikelihood:
    def test_single_step_chain(self):
        rng = make_rng(1)
        em = rng.normal(size=(1, 4))
        params = zero_params(4)
        ll, _ = crf_log_likelihood(em, np.array([2]), params)
        from pnma.numeric import logsumexp

        assert ll == pytest.approx(em[0, 2] - logsumexp(em[0], axis=0), abs=1e-12)

    def test_uniform_chain(self):
        n, y = 5, 3
        params = zero_params(y)
        ll, _ = crf_log_likelihood(np.zeros((n, y)), np.zeros(n, dtype=int), params)
        assert -ll == pytest.approx(n * np.log(y), abs=1e-10)

    def test_log_z_matches_enumeration(self):
        rng = make_rng(2)
        em = rng.normal(size=(4, 3))
        params = random_params(rng, 3)
        ll, _ = crf_log_likelihood(em, np.array([0, 2, 1, 1]), params)
        log_z = gold_path_score(em, np.array([0, 2, 1, 1]), params) - ll
        assert log_z == pytest.approx(brute_force_log_z(em, params), abs=1e-8)

    def test_always_nonpositive(self):
        rng = make_rng(3)
        for _ in range(20):
            n, y = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            em = rng.normal(scale=3, size=(n, y))
            params = random_params(rng, y)
            gold = rng.integers(0, y, size=n)
            ll, _ = crf_log_likelihood(em, gold, params)
            assert ll <= 1e-12

    def test_path_probabilities_sum_to_one(self):
        # sum over all paths of exp(score - logZ) == 1
        rng = make_rng(4)
        for _ in range(10):
            n, y = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            em = rng.normal(scale=2, size=(n, y))
            params = random_params(rng, y)
            gold = rng.integers(0, y, size=n)
            ll, _ = crf_log_likelihood(em, gold, params)
            log_z = gold_path_score(em, gold, params) - ll
            total = sum(
                np.exp(gold_path_score(em, np.array(p), params) - log_z)
                for p in itertools.product(range(y), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_tag_out_of_range(self):
        params = zero_params(3)
        with pytest.raises(DomainError):
            crf_log_likelihood(np.zeros((2, 3)), np.array([0, 3]), params)

    def test_emission_shape_mismatch(self):
        params = zero_params(3)
        with pytest.raises(DimensionError):
            crf_log_likelihood(np.zeros((2, 4)), np.array([0, 1]), params)


class TestGradients:
    def test_emission_gradient_is_onehot_minus_marginal(self):
        rng = make_rng(5)
        em = rng.normal(size=(4, 3))
        params = random_params(rng, 3)
        gold = np.array([1, 0, 2, 1])
        _, grads = crf_log_likelihood(em, gold, params)

        def f(e):
            ll, _ = crf_log_likelihood(e, gold, params)
            return ll

        err = finite_difference_check(f, em, grads.emissions)
        assert err < 1e-4

    def test_transition_and_boundary_gradients(self):
        rng = make_rng(6)
        em = rng.normal(size=(5, 3))
        params = random_params(rng, 3)
        gold = np.array([2, 0, 1, 1, 0])
        _, grads = crf_log_likelihood(em, gold, params)

        def with_trans(t):
            p2 = CrfParams(params.emit_w, params.emit_b, t, params.start, params.stop)
            return crf_log_likelihood(em, gold, p2)[0]

        def with_start(s):
            p2 = CrfParams(params.emit_w, params.emit_b, params.trans, s, params.stop)
            return crf_log_likelihood(em, gold, p2)[0]

        def with_stop(s):
            p2 = CrfParams(params.emit_w, params.emit_b, params.trans, params.start, s)
            return crf_log_likelihood(em, gold, p2)[0]

        assert finite_difference_check(with_trans, params.trans, grads.trans) < 1e-4
        assert finite_difference_check(with_start, params.start, grads.start) < 1e-4
        assert finite_difference_check(with_stop, params.stop, grads.stop) < 1e-4

    def test_emission_layer_backward(self):
        rng = make_rng(7)
        params = random_params(rng, 3, d=5)
        h = rng.normal(size=(4, 5))
        d_scores = rng.normal(size=(4, 3))
        d_h, d_w, d_b = emission_backward(d_scores, h, params)

        def loss_w(w):
            p2 = CrfParams(w, params.emit_b, params.trans, params.start, params.stop)
            return float((emission_scores(h, p2) * d_scores).sum())

        def loss_h(hh):
            return float((emission_scores(hh, params) * d_scores).sum())

        def loss_b(b):
            p2 = CrfParams(params.emit_w, b, params.trans, params.start, params.stop)
            return float((emission_scores(h, p2) * d_scores).sum())

        assert finite_difference_check(loss_w, params.emit_w, d_w) < 1e-6
        assert finite_difference_check(loss_h, h, d_h) < 1e-6
        assert finite_difference_check(loss_b, params.emit_b, d_b) < 1e-6

    def test_batch_agrees_with_singles(self):
        rng = make_rng(8)
        params = random_params(rng, 4)
        em = rng.normal(size=(3, 5, 4))
        gold = rng.integers(0, 4, size=(3, 5))
        ll_b, g_b = crf_log_likelihood_batch(em, gold, params)
        for i in range(3):
            ll_s, g_s = crf_log_likelihood(em[i], gold[i], params)
            assert ll_b[i] == pytest.approx(ll_s, abs=1e-12)
            np.testing.assert_allclose(g_b.emissions[i], g_s.emissions, atol=1e-12)


def per_t_crf_oracle(em, gold, params):
    """Reference batch CRF: one pair-marginal exp and batch sum per timestep."""
    b, n, y = em.shape
    work = em.astype(np.float64)
    trans = params.trans.astype(np.float64)
    start = params.start.astype(np.float64)
    stop = params.stop.astype(np.float64)
    log_alpha = np.empty((b, n, y))
    log_alpha[:, 0] = start + work[:, 0]
    for t in range(1, n):
        inner = log_alpha[:, t - 1][:, :, None] + trans[None, :, :]
        log_alpha[:, t] = logsumexp(inner, axis=1) + work[:, t]
    log_z = logsumexp(log_alpha[:, n - 1] + stop[None, :], axis=1)
    rows = np.arange(b)[:, None], np.arange(n)[None, :]
    score = start[gold[:, 0]] + stop[gold[:, n - 1]]
    score = score + work[rows[0], rows[1], gold].sum(axis=1)
    if n > 1:
        score = score + trans[gold[:, :-1], gold[:, 1:]].sum(axis=1)
    log_beta = np.empty((b, n, y))
    log_beta[:, n - 1] = stop
    for t in range(n - 2, -1, -1):
        inner = trans[None, :, :] + (work[:, t + 1] + log_beta[:, t + 1])[:, None, :]
        log_beta[:, t] = logsumexp(inner, axis=2)
    unary = np.exp(log_alpha + log_beta - log_z[:, None, None])
    d_em = -unary
    d_em[rows[0], rows[1], gold] += 1.0
    d_trans = np.zeros((y, y))
    if n > 1:
        for t in range(n - 1):
            pair = np.exp(
                log_alpha[:, t][:, :, None]
                + trans[None, :, :]
                + (work[:, t + 1] + log_beta[:, t + 1])[:, None, :]
                - log_z[:, None, None]
            )
            d_trans -= pair.sum(axis=0)
        np.add.at(d_trans, (gold[:, :-1].ravel(), gold[:, 1:].ravel()), 1.0)
    d_start = -unary[:, 0].sum(axis=0)
    np.add.at(d_start, gold[:, 0], 1.0)
    d_stop = -unary[:, n - 1].sum(axis=0)
    np.add.at(d_stop, gold[:, n - 1], 1.0)
    return score - log_z, d_em.astype(em.dtype), d_trans, d_start, d_stop


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_bit_identical_to_per_t_oracle(dtype):
    # pins the log-space recursion, the fallback and the scaled one's reference
    rng = make_rng(31)
    for _ in range(60):
        b, n, y = (int(v) for v in rng.integers(1, [33, 12, 9]))
        params = random_params(rng, y, scale=2.0)
        em = (3.0 * rng.normal(size=(b, n, y))).astype(dtype)
        gold = rng.integers(0, y, size=(b, n))
        ll, g = crf._crf_batch_log(em, gold, params)
        ll_o, d_em, d_trans, d_start, d_stop = per_t_crf_oracle(em, gold, params)
        assert np.array_equal(ll, ll_o)
        assert g.emissions.dtype == dtype and np.array_equal(g.emissions, d_em)
        assert np.array_equal(g.trans, d_trans)
        assert np.array_equal(g.start, d_start)
        assert np.array_equal(g.stop, d_stop)


def score_spread(em, params):
    """ptp(trans) + ptp(start) + ptp(stop) + max_t ptp(em_t), as the CRF sees it."""
    return (np.ptp(params.trans) + np.ptp(params.start) + np.ptp(params.stop)
            + np.ptp(em.astype(np.float64), axis=-1).max())


def spread_cases(rng, dtype, count):
    """Random batches with B, n or |Y| of 1 among them; every other one is
    scaled to a spread just below the scaled recursion's limit."""
    for trial in range(count):
        b, n, y = (int(v) for v in rng.integers(1, [33, 12, 12]))
        b, n, y = [(1, n, y), (b, 1, y), (b, n, 1), (b, n, y)][trial % 4]
        params = random_params(rng, y)
        em = rng.normal(size=(b, n, y))
        spread = score_spread(em.astype(dtype), params)
        if trial % 8 < 4 and spread > 0:
            k = 0.999 * crf._scaled_spread_limit(y) / spread
            params = CrfParams(params.emit_w, params.emit_b, k * params.trans,
                               k * params.start, k * params.stop)
            em = k * em
        em = em.astype(dtype)
        assert score_spread(em, params) <= crf._scaled_spread_limit(y)
        yield em, rng.integers(0, y, size=(b, n)), params


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scaled_recursion_matches_log_space(dtype):
    # LL within 1e-12 of max(1, |log Z|); every unary or pair marginal within
    # 1e-12, so d_start/d_stop (sums of B marginals) within 1e-12 B and d_trans
    # (sums of B (n - 1)) within 1e-12 B (n - 1); a float32 d_em within one
    # float32 rounding
    rng = make_rng(32)
    for em, gold, params in spread_cases(rng, dtype, 120):
        b, n, _ = em.shape
        ll, g = crf_log_likelihood_batch(em, gold, params)
        ll_ref, ref = crf._crf_batch_log(em, gold, params)
        log_z = crf._gold_score(em, gold, params.trans, params.start, params.stop) - ll_ref
        assert np.all(np.abs(ll - ll_ref) <= 1e-12 * np.maximum(1.0, np.abs(log_z)))
        assert g.emissions.dtype == dtype
        err_em = np.abs(g.emissions.astype(np.float64) - ref.emissions)
        if dtype == np.float64:
            assert np.all(err_em <= 1e-12)
        else:
            assert np.all(err_em <= 2.0**-24 * np.abs(ref.emissions) + 1e-12)
        assert np.all(np.abs(g.start - ref.start) <= 1e-12 * b)
        assert np.all(np.abs(g.stop - ref.stop) <= 1e-12 * b)
        assert np.all(np.abs(g.trans - ref.trans) <= 1e-12 * max(1, b * (n - 1)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_spread_above_limit_takes_log_space_exactly(dtype):
    rng = make_rng(33)
    for trial in range(40):
        b, n, y = (int(v) for v in rng.integers([1, 1, 2], [9, 8, 7]))
        params = random_params(rng, y)
        em = rng.normal(size=(b, n, y)).astype(dtype)
        # one token's, transition's, start or stop score widens the spread
        # past the limit
        [em[0, 0], params.trans[0], params.start, params.stop][trial % 4][0] -= 710.0
        assert score_spread(em, params) > crf._scaled_spread_limit(y)
        gold = rng.integers(0, y, size=(b, n))
        ll, g = crf_log_likelihood_batch(em, gold, params)
        ll_ref, ref = crf._crf_batch_log(em, gold, params)
        assert np.array_equal(ll, ll_ref)
        for name in ("emissions", "trans", "start", "stop"):
            assert np.array_equal(getattr(g, name), getattr(ref, name))


def test_non_finite_scores_take_log_space():
    params = random_params(make_rng(34), 3)
    em = np.zeros((2, 4, 3))
    em[1, 2, 0] = np.nan
    gold = np.zeros((2, 4), dtype=np.int64)
    ll, _ = crf_log_likelihood_batch(em, gold, params)
    ll_ref, _ = crf._crf_batch_log(em, gold, params)
    assert np.isfinite(ll[0]) and np.isnan(ll[1])
    assert np.array_equal(ll, ll_ref, equal_nan=True)


def test_non_finite_row_sends_its_finite_rows_to_log_space():
    # a NaN spread is not below the limit, so the whole batch takes the
    # log-space recursion, whose finite rows round otherwise than the scaled one
    rng = make_rng(35)
    params = random_params(rng, 4)
    em = rng.normal(size=(2, 5, 4))
    gold = rng.integers(0, 4, size=(2, 5))
    scaled = crf_log_likelihood_batch(em[:1], gold[:1], params)[1].emissions
    assert not np.array_equal(scaled, crf._crf_batch_log(em[:1], gold[:1], params)[1].emissions)
    em[1, 2, 0] = np.nan
    _, g = crf_log_likelihood_batch(em, gold, params)
    _, ref = crf._crf_batch_log(em, gold, params)
    assert np.array_equal(g.emissions[0], ref.emissions[0])


@pytest.mark.parametrize(
    "check", ["test_emission_gradient_is_onehot_minus_marginal",
              "test_transition_and_boundary_gradients"]
)
def test_finite_differences_on_log_space_path(monkeypatch, check):
    # a limit below every spread sends each call to the log-space fallback
    monkeypatch.setattr(crf, "_scaled_spread_limit", lambda n_tags: -1.0)
    getattr(TestGradients(), check)()


class TestBatchGoldChecks:
    @pytest.mark.parametrize("gold", [[[0, -1]], [[0, 3]], [[0.0, 1.0]]])
    def test_tag_ids_out_of_range(self, gold):
        with pytest.raises(DomainError):
            crf_log_likelihood_batch(np.zeros((1, 2, 3)), np.array(gold), zero_params(3))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2,), (1, 2, 1)])
    def test_gold_shape_mismatch(self, shape):
        with pytest.raises(DimensionError):
            crf_log_likelihood_batch(np.zeros((1, 2, 3)), np.zeros(shape, dtype=int),
                                     zero_params(3))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (1, 0, 3)])
    def test_empty_batch(self, shape):
        with pytest.raises(DomainError):
            crf_log_likelihood_batch(np.zeros(shape), np.zeros(shape[:2], dtype=int),
                                     zero_params(3))

    def test_single_sequence_gold_checks(self):
        with pytest.raises(DimensionError):
            crf_log_likelihood(np.zeros((2, 3)), np.array([0, 1, 2]), zero_params(3))
        with pytest.raises(DomainError):
            crf_log_likelihood(np.zeros((2, 3)), np.array([0, -1]), zero_params(3))


class TestViterbi:
    def test_single_step(self):
        rng = make_rng(9)
        em = rng.normal(size=(1, 5))
        params = random_params(rng, 5)
        path = viterbi_decode(em, params)
        expected = np.argmax(em[0] + params.start + params.stop)
        assert path[0] == expected

    def test_matches_exhaustive_argmax(self):
        rng = make_rng(10)
        em = rng.normal(size=(5, 4))
        params = random_params(rng, 4)
        path = viterbi_decode(em, params)
        expected, best_score = brute_force_argmax(em, params)
        assert gold_path_score(em, path, params) == pytest.approx(best_score, abs=1e-10)
        np.testing.assert_array_equal(path, expected)

    def test_tie_breaks_to_lowest_index(self):
        # two identical tags throughout: every path through {0,1} ties
        em = np.zeros((4, 3))
        em[:, 2] = -5.0
        params = zero_params(3)
        path = viterbi_decode(em, params)
        np.testing.assert_array_equal(path, np.zeros(4, dtype=int))

    def test_batch_matches_single(self):
        rng = make_rng(11)
        em = rng.normal(size=(6, 4, 3))
        params = random_params(rng, 3)
        batch = viterbi_decode_batch(em, params, np.full(6, 4))
        for i in range(6):
            np.testing.assert_array_equal(batch[i], viterbi_decode(em[i], params))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ragged_rows_match_single(self, dtype):
        rng = make_rng(14)
        for trial in range(60):
            b = int(rng.integers(1, 9))
            n_max = int(rng.integers(1, 12))
            y = int(rng.integers(1, 6))
            params = random_params(rng, y)
            em = rng.normal(scale=2.0, size=(b, n_max, y))
            if trial % 2 and y > 1:
                # planted ties: tags 0 and 1 are interchangeable, and integer
                # scores make whole paths tie exactly
                em = np.round(em)
                em[..., 1] = em[..., 0]
                for a in (params.start, params.stop):
                    a[:] = np.round(a)
                    a[1] = a[0]
                params.trans[:] = np.round(params.trans)
                params.trans[1, :] = params.trans[0, :]
                params.trans[:, 1] = params.trans[:, 0]
            em = em.astype(dtype)
            lengths = rng.integers(1, n_max + 1, size=b)
            lengths[0] = 1
            paths = viterbi_decode_batch(em, params, lengths)
            assert paths.shape == (b, n_max)
            for row, length in enumerate(lengths):
                assert np.array_equal(
                    paths[row, :length], viterbi_decode(em[row, :length], params)
                )
            full = np.full(b, n_max)
            assert np.array_equal(
                viterbi_decode_batch(em, params, full),
                np.stack([viterbi_decode(row, params) for row in em]),
            )

    @pytest.mark.parametrize("lengths", [[0, 3], [3, 4], [2], [1.0, 2.0], [-1, 2]])
    def test_ragged_lengths_out_of_range(self, lengths):
        em = np.zeros((2, 3, 2))
        with pytest.raises(DomainError):
            viterbi_decode_batch(em, zero_params(2), np.array(lengths))


def test_oracle_suite_200_random_instances():
    # the acceptance-grade oracle: exact logZ and exact decode on small chains
    rng = make_rng(12)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        y = int(rng.integers(2, 5))
        em = rng.normal(scale=2.0, size=(n, y))
        params = random_params(rng, y, scale=1.5)
        gold = rng.integers(0, y, size=n)
        ll, _ = crf_log_likelihood(em, gold, params)
        log_z = gold_path_score(em, gold, params) - ll
        assert log_z == pytest.approx(brute_force_log_z(em, params), abs=1e-8)
        path = viterbi_decode(em, params)
        _, best_score = brute_force_argmax(em, params)
        assert gold_path_score(em, path, params) == pytest.approx(best_score, abs=1e-8)


def test_init_params_shapes():
    rng = make_rng(13)
    p = init_crf_params(8, 5, rng)
    assert p.emit_w.shape == (5, 8)
    assert p.trans.shape == (5, 5)
    assert p.n_tags == 5
