"""Dense numeric kernels, the gradient-checking harness and a thread map.

Every layer in this package is built from explicit forward/backward pairs
over plain numpy arrays (row-major, single precision for training, double
precision for verification).  There is no autodiff graph: each backward
function is hand-derived and checked against ``finite_difference_check``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError

#: Denominator floor used by relative-error comparisons.
REL_ERR_FLOOR = 1e-8


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded counter-based generator (Philox), stable across platforms.

    Distinct ``stream`` values give independent streams for the same seed,
    so initialization, sampling and shuffling never share draws.  A
    negative seed raises ``DomainError``.
    """
    if seed < 0:
        raise DomainError(f"seed must be at least 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def map_in_order(fn: Callable, items: Sequence, threads: int) -> Iterator:
    """``fn`` over ``items``, results yielded in order; with ``threads`` > 1 and
    more than one item, up to ``threads`` calls run at once on a thread pool."""
    if threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax via max subtraction."""
    z = np.asarray(z)
    if z.size == 0:
        raise DomainError("softmax: empty input")
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def logsumexp(z: np.ndarray, axis: int) -> np.ndarray:
    """Stable log(sum(exp(z))) along ``axis``; always >= max(z) along it."""
    z = np.asarray(z)
    if z.size == 0:
        raise DomainError("logsumexp: empty input")
    m = np.max(z, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def finite_difference_check(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    analytic_grad: np.ndarray,
    step: float = 1e-3,
) -> float:
    """Max relative error between central differences of ``f`` and ``analytic_grad``.

    ``f`` must be a scalar function of a parameter tensor; the check perturbs
    one entry at a time.  Run in double precision: the callers' acceptance
    bound is 1e-4 at step 1e-3.
    """
    if step <= 0:
        raise DomainError(f"finite_difference_check: step must be positive, got {step}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(analytic_grad, dtype=np.float64)
    if theta.shape != grad.shape:
        raise DimensionError(
            f"finite_difference_check: theta {theta.shape} vs analytic_grad {grad.shape}"
        )
    worst = 0.0
    for i in range(theta.size):
        plus = theta.copy()
        plus.flat[i] += step
        minus = theta.copy()
        minus.flat[i] -= step
        f_plus = float(f(plus))
        f_minus = float(f(minus))
        if not np.isfinite(f_plus) or not np.isfinite(f_minus):
            raise NumericError(f"finite_difference_check: non-finite f at index {i}")
        fd = (f_plus - f_minus) / (2.0 * step)
        g = grad.flat[i]
        err = abs(fd - g) / max(abs(fd), abs(g), REL_ERR_FLOOR)
        worst = max(worst, err)
    return worst
