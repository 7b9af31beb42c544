import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fiberk
from fiberk import (
    CenterFunctionKind,
    DiscreteCurrent,
    Fiber,
    KConfig,
    KernelParams,
    ProcessKind,
    SimConfig,
    arclength,
    backends,
    discretize,
    inset_window,
    k_function,
    make_dataset,
)
from fiberk.backends import (
    _block_sums,
    _kernel_of_dist,
    inner,
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
            assert _kernel_of_dist(np.array([d]), math.inf, sigma)[0] == shell
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


SIGMA = 100.0 / 3.0
# Where an atom stops taking the factored p = 2 form at SIGMA
REACH = backends._FACTOR_RADIUS * SIGMA


def _line_current(reach, m=20):
    """``m`` atoms on a line through the origin, the outermost two at
    distance ``reach`` from it."""
    d = np.array([2.0, -1.0, 2.0]) / 3.0
    s = np.linspace(-1.0, 1.0, m) * reach
    return DiscreteCurrent(s[:, None] * d, np.tile(d * (2.0 * reach / m), (m, 1)))


# 1 to 40 atoms, with 20 (where a separate copy of a block changes the
# self-norm's last bits) seven times over; the last two have 20 atoms each
# and reach just inside and just beyond the factored form's radius at SIGMA
MIXED_ATOM_COUNTS = list(range(1, 41)) + [20] * 6
NEAR, FAR = len(MIXED_ATOM_COUNTS) - 2, len(MIXED_ATOM_COUNTS) - 1


@pytest.fixture
def mixed(rng):
    currents = []
    for i, m in enumerate(MIXED_ATOM_COUNTS[:NEAR]):
        f = smooth_fiber(rng, fid=str(i))
        currents.append(discretize(f, arclength(f) / m))
    currents.append(_line_current(REACH * (1 - 1e-9)))
    currents.append(_line_current(REACH * (1 + 1e-9)))
    assert [len(c) for c in currents] == MIXED_ATOM_COUNTS
    return currents


def _loop_pair_inner(pos, tan, offsets, ia, ib, p, sigma, sums=inner):
    """The per-pair reference: ``sums`` (``inner`` by default) on each pair's
    slices."""
    out = []
    for a, b in zip(ia, ib):
        a0, a1, b0, b1 = offsets[a], offsets[a + 1], offsets[b], offsets[b + 1]
        out.append(float(sums(pos[a0:a1], tan[a0:a1], pos[b0:b1], tan[b0:b1], p, sigma)))
    return np.array(out)


PS = [1.0, 2.0, 1024.0, math.inf]


@pytest.mark.parametrize("p", PS)
def test_pair_inner_products_equal_the_per_pair_loop_exactly(rng, mixed, p):
    pos, tan, offsets = _pack(mixed)
    n = len(mixed)
    # every ordered pair: i < j, i > j and i == i
    ia, ib = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    # plus one (20, 20) group larger than a chunk, mixing cross and self pairs
    # and, at p = 2, pairs in and out of the factored form
    twenty = np.flatnonzero(offsets[1:] - offsets[:-1] == 20)
    extra = 2 * (backends._CHUNK_EVALS // 400) + 7
    ia = np.concatenate([ia, rng.choice(twenty, extra)])
    ib = np.concatenate([ib, rng.choice(twenty, extra)])
    assert {NEAR, FAR} <= set(ia[-extra:]) and {NEAR, FAR} <= set(ib[-extra:])
    got = pair_inner_products(pos, tan, offsets, ia, ib, p, SIGMA)
    want = _loop_pair_inner(pos, tan, offsets, ia, ib, p, SIGMA)
    assert got.tolist() == want.tolist()


def _abs_sums(pa, ta, pb, tb, sigma):
    """sum k(x_i, y_j) |t_i| |t_j|: the scale of a pair sum's rounding."""
    def norms(t):
        return np.linalg.norm(t, axis=1)[:, None] * [1.0, 0.0, 0.0]

    return float(_block_sums(pa, norms(ta), pb, norms(tb), 2.0, sigma))


def _factored_pairs(currents, sigma):
    """Every pair (i <= j) of ``currents`` that takes the factored form."""
    inside = [
        np.max(np.sum((c.positions / sigma) ** 2, axis=1)) <= backends._FACTOR_RADIUS**2
        for c in currents
    ]
    n = len(currents)
    return [(i, j) for i in range(n) for j in range(i, n) if inside[i] and inside[j]]


def _assert_factored_sums_close(currents, sigma):
    # Each kernel value is exact to about R^2 eps relative in either form, so
    # the two sums differ by a small multiple of R^2 eps times the sum of
    # absolute terms; 8 R^2 eps is 1.1e-13 of it at R = 8.
    bound = 8 * backends._FACTOR_RADIUS**2 * np.finfo(float).eps
    pairs = _factored_pairs(currents, sigma)
    assert pairs
    pos, tan, offsets = _pack(currents)
    ia, ib = (np.array(x) for x in zip(*pairs))
    got = pair_inner_products(pos, tan, offsets, ia, ib, 2.0, sigma)
    for (i, j), g in zip(pairs, got):
        a, b = currents[i], currents[j]
        args = (a.positions, a.tangents, b.positions, b.tangents)
        want = float(_block_sums(*args, 2.0, sigma))
        assert abs(g - want) <= bound * _abs_sums(*args, sigma), (i, j)


def test_factored_sums_agree_with_the_difference_form_on_mixed(mixed):
    assert (NEAR, NEAR) in _factored_pairs(mixed, SIGMA)
    assert (FAR, FAR) not in _factored_pairs(mixed, SIGMA)
    _assert_factored_sums_close(mixed, SIGMA)


@pytest.mark.parametrize("process", [ProcessKind.UNIFORM_LINES, ProcessKind.CLUSTERED_LINES])
@pytest.mark.parametrize("sigma", [SIGMA, 3.0])
def test_factored_sums_agree_with_the_difference_form_on_simulated_fibers(process, sigma):
    fibers = make_dataset(SimConfig(process=process, n_fibers=12, seed=3))
    kind = CenterFunctionKind.MASS_CENTER
    currents = [discretize(fiberk.center(f, kind).fiber, sigma / 20) for f in fibers]
    _assert_factored_sums_close(currents, sigma)


def test_a_pair_with_a_far_atom_keeps_the_difference_form_bit_for_bit(mixed):
    pos, tan, offsets = _pack(mixed)
    partners = np.arange(len(mixed))
    ia = np.concatenate([np.full(len(mixed), FAR), partners])
    ib = np.concatenate([partners, np.full(len(mixed), FAR)])
    got = pair_inner_products(pos, tan, offsets, ia, ib, 2.0, SIGMA)
    for a, b, g in zip(ia, ib, got):
        x, y = mixed[a], mixed[b]
        args = (x.positions, x.tangents, y.positions, y.tangents, 2.0, SIGMA)
        assert g == float(_block_sums(*args)) == inner(*args)


def _difference_form_sums(pos, tan, offsets, ia, ib, p, sigma):
    return _loop_pair_inner(pos, tan, offsets, ia, ib, p, sigma, sums=_block_sums)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "process",
    [ProcessKind.UNIFORM_BROWNIAN, ProcessKind.UNIFORM_LINES, ProcessKind.CLUSTERED_LINES],
)
def test_k_counts_equal_counts_from_difference_form_distances(monkeypatch, process, seed):
    fibers = make_dataset(SimConfig(process=process, n_fibers=150, seed=seed))
    config = KConfig(
        kernel=KernelParams(p=2.0, sigma=SIGMA),
        t_grid=np.arange(5.0, 51.0, 5.0),
        s_grid=np.arange(10.0, 101.0, 10.0),
    )
    window = inset_window(fibers, config.center_kind, 0.13)
    got = k_function(fibers, config, window)
    monkeypatch.setattr(backends, "pair_inner_products", _difference_form_sums)

    def self_norms(pos, tan, offsets, p, sigma):
        each = np.arange(len(offsets) - 1)
        return _difference_form_sums(pos, tan, offsets, each, each, p, sigma)

    monkeypatch.setattr(backends, "self_norms_sq", self_norms)
    want = k_function(fibers, config, window)
    assert got.k.tolist() == want.k.tolist()
    assert got.k[-1, 0] < got.k[-1, -1]  # the s grid is not saturated


@pytest.mark.parametrize("sigma", [1e-300, 1e-60, 1e-3])
def test_huge_coordinates_and_a_tiny_sigma_warn_nothing(sigma):
    # Atoms at 2.5e99 and 0.5: |x| / sigma overflows at sigma = 1e-300, its
    # square does at 1e-60, and at 1e-3 both are far beyond the factored
    # form's radius. None of this may warn, and every kernel value is 0 or 1.
    b = fiberk.fiber_core.MAX_COORDINATE
    fibers = [
        Fiber("a", [[0, 0, 0], [0.5 * b, 0, 0]]),
        Fiber("b", [[0, 0, 0], [0, 0.5 * b, 0]]),
        Fiber("c", [[0, 0, 0], [1.0, 0, 0]]),
    ]
    currents = [discretize(f, arclength(f)) for f in fibers]
    pos, tan, offsets = _pack(currents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = self_norms_sq(pos, tan, offsets, 2.0, sigma)
        cross = pair_inner_products(pos, tan, offsets, [0, 0, 1], [1, 2, 2], 2.0, sigma)
        one = [
            inner(c.positions, c.tangents, c.positions, c.tangents, 2.0, sigma) for c in currents
        ]
    assert norms.tolist() == one == [0.25 * b * b, 0.25 * b * b, 1.0]
    assert cross.tolist() == [0.0, 0.0, 0.0]


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


def test_the_import_ignores_the_removed_backend_variable(monkeypatch):
    # FIBERK_BACKEND selects nothing, so no value of it may fail the import
    monkeypatch.setenv("FIBERK_BACKEND", "bogus")
    monkeypatch.setenv("PYTHONPATH", str(Path(fiberk.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import fiberk.backends"], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
