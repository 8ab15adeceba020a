import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnma.errors import DimensionError, DomainError, NumericError
from pnma.numeric import (
    finite_difference_check,
    logsumexp,
    make_rng,
    map_in_order,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], rtol=0, atol=0)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            softmax(np.array([]))

    def test_against_extended_precision_oracle(self):
        z = np.array([1.0, 2.0, 3.0])
        with mpmath.workdps(50):
            exps = [mpmath.e ** v for v in z]
            total = mpmath.fsum(exps)
            expected = np.array([float(e / total) for e in exps])
        np.testing.assert_allclose(softmax(z), expected, atol=1e-12, rtol=0)

    def test_sums_to_one_and_shift_invariant_1000_samples(self):
        rng = make_rng(23)
        for _ in range(1000):
            k = int(rng.integers(1, 12))
            z = rng.normal(scale=10.0, size=k)
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-12
            c = float(rng.normal(scale=100.0))
            np.testing.assert_allclose(softmax(z + c), p, atol=1e-12, rtol=0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
    def test_shift_invariance_property(self, values, c):
        z = np.array(values)
        np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-9, rtol=0)

    def test_large_inputs_stay_finite(self):
        p = softmax(np.array([1e4, 1e4 - 1.0]))
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-12


class TestLogsumexp:
    def test_single_element(self):
        assert logsumexp(np.array([3.7]), axis=0) == pytest.approx(3.7, abs=0)

    def test_n_copies(self):
        a, n = -2.5, 7
        assert logsumexp(np.full(n, a), axis=0) == pytest.approx(a + np.log(n), abs=1e-12)

    def test_against_naive_double_oracle(self):
        rng = make_rng(31)
        z = rng.normal(scale=3.0, size=6)
        naive = np.log(np.sum(np.exp(z)))
        assert logsumexp(z, axis=0) == pytest.approx(naive, abs=1e-12)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            logsumexp(np.array([]), axis=0)

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=10))
    def test_bounds_property(self, values):
        z = np.array(values)
        out = logsumexp(z, axis=0)
        assert z.max() <= out <= z.max() + np.log(len(values)) + 1e-12


class TestFiniteDifferenceCheck:
    def test_linear_function_error_zero(self):
        rng = make_rng(41)
        a = rng.normal(size=5)
        theta = rng.normal(size=5)
        err = finite_difference_check(lambda t: float(a @ t), theta, a)
        assert err < 1e-12

    def test_constant_function_flags_nonzero_gradient(self):
        theta = np.ones(3)
        err = finite_difference_check(lambda t: 1.0, theta, np.array([0.0, 0.5, 0.0]))
        assert err > 0.9  # the bogus entry is flagged
        err_ok = finite_difference_check(lambda t: 1.0, theta, np.zeros(3))
        assert err_ok == 0.0

    def test_quadratic_norm(self):
        rng = make_rng(43)
        theta = rng.normal(size=6)
        err = finite_difference_check(
            lambda t: float(t @ t), theta, 2.0 * theta, step=1e-3
        )
        assert err < 1e-6

    def test_non_finite_f_reports_index(self):
        def f(t):
            return float("nan") if t[1] > 1.0 else float(t.sum())

        with pytest.raises(NumericError, match="index 1"):
            finite_difference_check(f, np.array([0.0, 1.0, 0.0]), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            finite_difference_check(lambda t: 0.0, np.zeros(3), np.zeros(4))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            finite_difference_check(lambda t: 0.0, np.zeros(2), np.zeros(2), step=0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(5, 2).random(10)
        b = make_rng(5, 2).random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = make_rng(5, 1).random(10)
        b = make_rng(5, 2).random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_is_a_domain_error(self):
        assert make_rng(0).random() == make_rng(0).random()
        with pytest.raises(DomainError, match="seed must be at least 0, got -1"):
            make_rng(-1)


class TestMapInOrder:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_results_in_input_order(self, threads):
        # later items finish first, so a pool returns them out of order
        def slow_square(i):
            time.sleep(0.002 * (5 - i))
            return i * i, threading.get_ident()

        results = list(map_in_order(slow_square, range(5), threads))
        assert [r for r, _ in results] == [0, 1, 4, 9, 16]
        on_caller = {ident for _, ident in results} == {threading.get_ident()}
        assert on_caller == (threads == 1)

    def test_one_item_runs_on_the_caller(self):
        assert list(map_in_order(lambda _: threading.get_ident(), [0], 4)) == [
            threading.get_ident()]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_worker_error_reaches_the_caller(self, threads):
        def fail_on_three(i):
            if i == 3:
                raise NumericError("three")
            return i

        with pytest.raises(NumericError, match="three"):
            list(map_in_order(fail_on_three, range(6), threads))
