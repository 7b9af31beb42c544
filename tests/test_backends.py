import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    self_norms_sq,
)

from conftest import rebinned_k, smooth_fiber


def kernel_scalar(d, p, sigma):
    return float(_kernel_of_dist(np.array(d, dtype=np.float64), p, sigma))


class TestKernelScalar:
    def test_finite_p(self):
        assert kernel_scalar(0.0, 2.0, 1.0) == 1.0
        assert kernel_scalar(1.0, 2.0, 1.0) == pytest.approx(math.exp(-0.5))

    def test_huge_exponent_no_overflow(self):
        assert kernel_scalar(2.0, 1024.0, 1.0) == 0.0

    @pytest.mark.parametrize("d, want", [(0.9, 1.0), (1.1, 0.0)])
    def test_huge_exponent_approaches_the_step(self, d, want):
        assert kernel_scalar(d, 1024.0, 1.0) == pytest.approx(want, abs=1e-6)

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


@pytest.mark.parametrize(
    "sigma", [1.0, 100.0 / 3.0, 2.0**600, 2.0**1023 - 2.0**970, 2.0**1023, 0.5, 1e-300]
)
def test_kernel_at_p_1_is_its_formula_bit_for_bit(rng, sigma):
    # distances over the whole float range; from 1 to just below 2^1023 the
    # kernel divides by -2 sigma in one step, elsewhere it does not
    d = np.ldexp(rng.uniform(1.0, 2.0, 20000), rng.integers(-1074, 1024, 20000))
    d = np.concatenate([d, [0.0, 5e-324, sigma, np.inf]])
    with np.errstate(over="ignore"):
        want = np.exp(-0.5 * (d / sigma))
    assert _kernel_of_dist(d, 1.0, sigma).tobytes() == want.tobytes()


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
    # k_function bins most pairs from Taylor-feature sums, so the counts it
    # must reproduce come from pair_distances, which sums every pair exactly,
    # here in the difference form
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
    records = fiberk.pair_distances(fibers, config, window)
    want = rebinned_k(records, config.t_grid, config.s_grid, got.n_in_window)
    assert got.k.tolist() == want.tolist()
    assert got.k[-1, 0] < got.k[-1, -1]  # the s grid is not saturated


def test_taylor_monomials_are_each_scaled_power_once(rng):
    u = rng.uniform(-1.0, 1.0, 3)
    for order in range(backends._TAYLOR_MAX_ORDER + 1):
        got = backends._monomials(u[:, None], order)[:, 0] * backends._monomial_scales(order)
        f = math.factorial
        want = [
            u[0] ** a * u[1] ** b * u[2] ** c / math.sqrt(f(a) * f(b) * f(c))
            for a in range(order + 1)
            for b in range(order + 1 - a)
            for c in range(order + 1 - a - b)
        ]
        np.testing.assert_allclose(np.sort(got), np.sort(want), rtol=1e-13, atol=0)


def _taylor_reach():
    """The largest |x| / sigma at which a fiber can take the Taylor form: where
    the tail at the highest order reaches the tolerance."""
    lo, hi = 0.0, backends._FACTOR_RADIUS
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        rr = mid * mid
        tail = math.exp(rr) * backends._taylor_tail(rr, backends._TAYLOR_MAX_ORDER)
        lo, hi = (mid, hi) if tail <= backends._TAYLOR_TOL else (lo, mid)
    return lo


TAYLOR_REACH = _taylor_reach()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reach=st.floats(0.01, 0.999),
    sizes=st.tuples(st.integers(40, 70), st.integers(40, 70)),
    e=st.integers(-340, 300),
)
def test_taylor_sums_lie_within_their_bound_of_the_exact_sums(seed, reach, sizes, e):
    # Two atom sets whose farthest atom lies at reach * TAYLOR_REACH sigma,
    # with tangents in random directions (so sums can cancel), everything
    # scaled by 2^e; at least 40 x 40 atoms, so every pair takes the Taylor
    # form even at the highest order
    rng = np.random.default_rng(seed)
    sigma = math.ldexp(SIGMA, e)
    currents = []
    for m in sizes:
        d = rng.standard_normal((m, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        radii = rng.uniform(0.0, 1.0, m) ** (1 / 3)
        radii[0] = 1.0
        pos = d * (radii * reach * TAYLOR_REACH * sigma)[:, None]
        tan = rng.standard_normal((m, 3)) * (sigma / 20)
        currents.append(DiscreteCurrent(pos, tan))
    pos, tan, offsets = _pack(currents)
    ia, ib = np.array([0, 1, 0, 1]), np.array([1, 0, 0, 1])
    est, delta = backends._taylor_sums(pos, tan, offsets, ia, ib, sigma)
    exact = pair_inner_products(pos, tan, offsets, ia, ib, 2.0, sigma)
    assert np.isfinite(delta).all()
    assert (np.abs(est - exact) <= delta).all(), (np.abs(est - exact) / delta).max()


def test_taylor_sums_refuse_fibers_beyond_their_reach_and_small_pairs(mixed):
    # NEAR reaches almost 8 sigma and FAR beyond it, so neither takes the
    # Taylor form; a pair of smooth fibers does once both have enough atoms
    pos, tan, offsets = _pack(mixed)
    ia = np.array([NEAR, FAR, 39, 0])
    ib = np.array([39, 39, 38, 39])
    est, delta = backends._taylor_sums(pos, tan, offsets, ia, ib, SIGMA)
    assert np.isinf(delta[:2]).all() and np.isnan(est[:2]).all()
    assert np.isfinite(delta[2]) and np.isinf(delta[3])  # 40 x 39 atoms, then 1 x 40


@pytest.mark.parametrize("e,taylor", [(-345, True), (-600, False)])
def test_taylor_sums_fall_back_where_their_terms_go_subnormal(mixed, e, taylor):
    # Scaled by 2^-345 the sums stay far above the subnormal range and take
    # the Taylor form; scaled by 2^-600 a product of two weights is
    # subnormal, so the bound could be too small and the pair falls back
    pos, tan, offsets = _pack(mixed)
    c = 2.0**e
    ia, ib = np.array([39, 39]), np.array([38, 39])
    _, delta = backends._taylor_sums(pos * c, tan * c, offsets, ia, ib, SIGMA * c)
    assert np.isfinite(delta).tolist() == [taylor, taylor]


@pytest.mark.parametrize("p", [1.0, 2.0, 1024.0, math.inf])
@pytest.mark.parametrize("sigma", [1e-300, 1e-60, 1e-3])
def test_huge_coordinates_and_a_tiny_sigma_warn_nothing(sigma, p):
    # Atoms at 2.5e99 and 0.5: |x| / sigma overflows at sigma = 1e-300, its
    # square (or its p-th power) does at 1e-60, and at 1e-3 both are far
    # beyond the factored form's radius. None of this may warn, and every
    # kernel value is 0 or 1.
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
        norms = self_norms_sq(pos, tan, offsets, p, sigma)
        cross = pair_inner_products(pos, tan, offsets, [0, 0, 1], [1, 2, 2], p, sigma)
        one = [inner(c.positions, c.tangents, c.positions, c.tangents, p, sigma) for c in currents]
        _, delta = backends._taylor_sums(pos, tan, offsets, [0, 0, 1], [1, 2, 2], sigma)
    assert norms.tolist() == one == [0.25 * b * b, 0.25 * b * b, 1.0]
    assert cross.tolist() == [0.0, 0.0, 0.0]
    assert np.isinf(delta).all()


def _layouts(x):
    """``x`` (``(..., m, 3)``) in C order, in Fortran order, as a view that
    runs backwards along every axis, and as a view of every other column of a
    wider array: the same values in four memory layouts."""
    wide = np.zeros((*x.shape[:-1], 6))
    wide[..., ::2] = x
    flipped = tuple(slice(None, None, -1) for _ in x.shape)
    return {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "reversed": np.ascontiguousarray(x[flipped])[flipped],
        "column slice": wide[..., ::2],
    }


@pytest.mark.parametrize("p", [1.0, 3.0, 1024.0, math.inf])
@pytest.mark.parametrize("sigma", [0.5, 10.0])
def test_difference_form_sums_do_not_depend_on_the_positions_layout(mixed, rng, p, sigma):
    # the bits of exp and of einsum's sum follow the layout of their
    # operands, and those of the BLAS tangent product follow the tangents'
    # layout and whether both sides share one buffer: the sums must not
    # depend on the layout of the positions or of the tangents, on separate
    # buffers or on one shared buffer
    twenty = [c for c in mixed if len(c) == 20][:6]
    pos, tan = np.stack([c.positions for c in twenty]), np.stack([c.tangents for c in twenty])
    pa, ta, pb, tb = pos[:3], tan[:3], pos[3:], tan[3:]
    # (5, 5) is one current on both sides; 257 x 260 atoms take BLAS kernels
    # that 40 atoms do not reach
    big = [DiscreteCurrent(*rng.uniform(-30.0, 30.0, (2, m, 3))) for m in (257, 260)]
    cross = [(mixed[i], mixed[j]) for i, j in [(0, 39), (25, 31), (NEAR, FAR), (39, 7), (5, 5)]]
    cross += [(big[0], big[1]), (big[1], big[1])]
    want_block = _block_sums(pa, ta, pb, tb, p, sigma).tolist()
    want_self = _block_sums(pa, ta, pa, ta, p, sigma).tolist()
    assert want_block == [inner(pa[n], ta[n], pb[n], tb[n], p, sigma) for n in range(3)]
    want = [inner(a.positions, a.tangents, b.positions, b.tangents, p, sigma) for a, b in cross]
    for layout in _layouts(pa):

        def laid(x):
            return _layouts(x)[layout]

        xa, sa, xb, sb = laid(pa), laid(ta), laid(pb), laid(tb)
        pairs = []
        for a, b in cross:
            x, t = laid(a.positions), laid(a.tangents)
            pairs.append((x, t, x, t) if a is b else (x, t, laid(b.positions), laid(b.tangents)))
        inputs = [xa, sa, xb, sb, *(x for pair in pairs for x in pair)]
        before = [x.copy() for x in inputs]
        assert _block_sums(xa, sa, xb, sb, p, sigma).tolist() == want_block, layout
        assert _block_sums(xa, sa, xa, sa, p, sigma).tolist() == want_self, layout
        assert [inner(*pair, p, sigma) for pair in pairs] == want, layout
        # the in-place kernel writes only into arrays of its own
        assert all(x.tobytes() == y.tobytes() for x, y in zip(inputs, before)), layout


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_inner_sums_do_not_depend_on_the_input_layout(p):
    # at p = 2 these pairs take the factored form, whose two BLAS products
    # follow the layout of the positions and tangents as much as the
    # difference form's tangent product does; 257 x 260 atoms reach the BLAS
    # kernels where Fortran order moved the last bits
    rng = np.random.default_rng(7)
    for sigma in (10.0, 30.0):
        for _ in range(4):
            pa, ta = rng.uniform(-30.0, 30.0, (2, 257, 3))
            pb, tb = rng.uniform(-30.0, 30.0, (2, 260, 3))
            if p == 2:
                assert max(np.abs(pa).max(), np.abs(pb).max()) * math.sqrt(3) / sigma < 8.0
            want = inner(pa, ta, pb, tb, p, sigma)
            want_self = inner(pa, ta, pa, ta, p, sigma)
            for layout in ("F", "reversed", "column slice"):
                xa, sa, xb, sb = (_layouts(x)[layout] for x in (pa, ta, pb, tb))
                assert inner(xa, sa, xb, sb, p, sigma) == want, (sigma, layout)
                assert inner(xa, sa, xa, sa, p, sigma) == want_self, (sigma, layout)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_difference_form_takes_32_bytes_per_kernel_evaluation(rng, p):
    # MAX_PAIR_EVALS is sized for 32 B of intermediates per evaluation
    m = 512
    pa, pb = rng.uniform(-100.0, 100.0, (2, m, 3))
    ta, tb = rng.standard_normal((2, m, 3))
    tracemalloc.start()
    try:
        inner(pa, ta, pb, tb, p, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * m * m + 2**12


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
