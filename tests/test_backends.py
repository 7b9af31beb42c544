import math

import numpy as np
import pytest

from fiberk import KernelParams, discretize
from fiberk.backends import (
    HAVE_NUMBA,
    _kernel_of_dist_numpy,
    inner,
    inner_numpy,
    pair_inner_numpy,
    kernel_scalar,
    self_norms_sq,
)

from conftest import smooth_fiber


class TestKernelScalar:
    def test_finite_p(self):
        assert kernel_scalar(0.0, 2.0, 1.0) == 1.0
        assert kernel_scalar(1.0, 2.0, 1.0) == pytest.approx(math.exp(-0.5))

    def test_huge_exponent_no_overflow(self):
        assert kernel_scalar(2.0, 1024.0, 1.0) == 0.0

    def test_infinite_p(self):
        assert kernel_scalar(0.5, math.inf, 1.0) == 1.0
        assert kernel_scalar(1.0, math.inf, 1.0) == pytest.approx(math.exp(-0.5))
        assert kernel_scalar(1.5, math.inf, 1.0) == 0.0

    @pytest.mark.parametrize("sigma", [1.0, 100.0 / 3.0, 1e6])
    def test_infinite_p_shell_is_relative_to_sigma(self, sigma):
        shell = math.exp(-0.5)
        for d in (np.nextafter(sigma, 0.0), sigma, np.nextafter(sigma, math.inf)):
            assert kernel_scalar(d, math.inf, sigma) == shell
            assert _kernel_of_dist_numpy(np.array([d]), math.inf, sigma)[0] == shell
            one = np.array([[1.0, 0.0, 0.0]])
            assert inner(np.zeros((1, 3)), one, d * one, one, math.inf, sigma) == shell
        assert kernel_scalar(sigma * (1 + 1e-9), math.inf, sigma) == 0.0
        assert kernel_scalar(sigma * (1 - 1e-9), math.inf, sigma) == 1.0


def _pack(currents):
    pos = np.vstack([c.positions for c in currents])
    tan = np.vstack([c.tangents for c in currents])
    offsets = np.zeros(len(currents) + 1, dtype=np.int64)
    for i, c in enumerate(currents):
        offsets[i + 1] = offsets[i] + len(c)
    return np.ascontiguousarray(pos), np.ascontiguousarray(tan), offsets


def test_self_norms_are_each_fibers_inner_product_with_itself(rng):
    currents = [discretize(smooth_fiber(rng, fid=str(i)), 2.0) for i in range(5)]
    pos, tan, offsets = _pack(currents)
    for p in (2.0, math.inf):
        want = [inner(c.positions, c.tangents, c.positions, c.tangents, p, 10.0) for c in currents]
        assert self_norms_sq(pos, tan, offsets, p, 10.0).tolist() == want


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaAgreesWithNumpy:
    @pytest.mark.parametrize("p", [2.0, 1.0, 1024.0, math.inf])
    def test_single_inner(self, rng, p):
        from fiberk.backends import _inner_nb

        a = discretize(smooth_fiber(rng, fid="a"), 2.0)
        b = discretize(smooth_fiber(rng, fid="b"), 2.0)
        got = _inner_nb(a.positions, a.tangents, b.positions, b.tangents, p, 10.0)
        want = inner_numpy(a.positions, a.tangents, b.positions, b.tangents, p, 10.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_batch_functions(self, rng):
        from fiberk.backends import _pair_inner_nb

        currents = [discretize(smooth_fiber(rng, fid=str(i)), 2.0) for i in range(8)]
        pos, tan, offsets = _pack(currents)
        # k=0 keeps the (i, i) pairs, which are the self norms
        ia, ib = np.triu_indices(8, k=0)
        ia, ib = ia.astype(np.int64), ib.astype(np.int64)
        args = (pos, tan, offsets, ia, ib, 2.0, 100.0 / 3.0)
        assert np.allclose(_pair_inner_nb(*args), pair_inner_numpy(*args), rtol=1e-12)
