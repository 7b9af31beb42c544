import math

import numpy as np
import pytest

from fiberk import arclength, backends, discretize
from fiberk.backends import (
    HAVE_NUMBA,
    _kernel_of_dist_numpy,
    inner,
    inner_numpy,
    pair_inner_numpy,
    pair_inner_products,
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


# 1 to 40 atoms, with 20 (where a separate copy of a block changes the
# self-norm's last bits) five times over
MIXED_ATOM_COUNTS = list(range(1, 41)) + [20] * 4


@pytest.fixture
def mixed(rng):
    currents = []
    for i, m in enumerate(MIXED_ATOM_COUNTS):
        f = smooth_fiber(rng, fid=str(i))
        currents.append(discretize(f, arclength(f) / m))
    assert [len(c) for c in currents] == MIXED_ATOM_COUNTS
    return currents


def _loop_pair_inner(pos, tan, offsets, ia, ib, p, sigma):
    """The per-pair reference: ``inner`` on each pair's slices."""
    out = []
    for a, b in zip(ia, ib):
        a0, a1, b0, b1 = offsets[a], offsets[a + 1], offsets[b], offsets[b + 1]
        out.append(inner(pos[a0:a1], tan[a0:a1], pos[b0:b1], tan[b0:b1], p, sigma))
    return np.array(out)


PS = [1.0, 2.0, 1024.0, math.inf]


@pytest.mark.parametrize("p", PS)
def test_pair_inner_products_equal_the_per_pair_loop_exactly(rng, mixed, p):
    pos, tan, offsets = _pack(mixed)
    n = len(mixed)
    # every ordered pair: i < j, i > j and i == i
    ia, ib = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    # plus one (20, 20) group larger than a chunk, mixing cross and self pairs
    twenty = np.flatnonzero(offsets[1:] - offsets[:-1] == 20)
    extra = 2 * (backends._CHUNK_EVALS // 400) + 7
    ia = np.concatenate([ia, rng.choice(twenty, extra)])
    ib = np.concatenate([ib, rng.choice(twenty, extra)])
    got = pair_inner_products(pos, tan, offsets, ia, ib, p, 100.0 / 3.0)
    want = _loop_pair_inner(pos, tan, offsets, ia, ib, p, 100.0 / 3.0)
    assert got.tolist() == want.tolist()


def test_pair_inner_products_of_no_pairs(mixed):
    pos, tan, offsets = _pack(mixed)
    none = np.array([], dtype=np.int64)
    got = pair_inner_products(pos, tan, offsets, none, none, 2.0, 10.0)
    assert got.shape == (0,)


@pytest.mark.parametrize("p", PS)
def test_inner_matches_a_scalar_reference(mixed, p):
    # Plain Python sums, independent of how the block function orders its work
    def reference(a, b, sigma):
        terms = []
        for x, u in zip(a.positions.tolist(), a.tangents.tolist()):
            for y, v in zip(b.positions.tolist(), b.tangents.tolist()):
                k = kernel_scalar(math.dist(x, y), p, sigma)
                terms.append(k * (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]))
        return math.fsum(terms)

    for i, j in [(0, 0), (0, 39), (19, 19), (19, 40), (39, 7), (25, 31)]:
        a, b = mixed[i], mixed[j]
        got = inner(a.positions, a.tangents, b.positions, b.tangents, p, 10.0)
        assert got == pytest.approx(reference(a, b, 10.0), rel=1e-12, abs=1e-12)


def test_self_norms_are_each_fibers_inner_product_with_itself(mixed):
    pos, tan, offsets = _pack(mixed)
    for p in PS:
        want = [inner(c.positions, c.tangents, c.positions, c.tangents, p, 10.0) for c in mixed]
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

    def test_batch_functions(self, mixed):
        from fiberk.backends import _pair_inner_nb

        pos, tan, offsets = _pack(mixed)
        # k=0 keeps the (i, i) pairs, which are the self norms
        ia, ib = np.triu_indices(len(mixed), k=0)
        ia, ib = ia.astype(np.int64), ib.astype(np.int64)
        args = (pos, tan, offsets, ia, ib, 2.0, 100.0 / 3.0)
        assert np.allclose(_pair_inner_nb(*args), pair_inner_numpy(*args), rtol=1e-12)
