import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberk import (
    CenterFunctionKind,
    DiscreteCurrent,
    Fiber,
    KernelParams,
    ProcessKind,
    SimConfig,
    arclength,
    backends,
    center,
    discretize,
    distance,
    inner_product,
    make_dataset,
    min_distance,
    resample,
)
from fiberk.currents import _scalar_shape_distance, _shape_distance
from fiberk.kfunction import _center_and_pack
from fiberk.simulate import gen_brownian

from conftest import smooth_fiber, unit_vector
from reference_impls import (
    distance_per_call,
    inner_product_per_call,
    min_distance_per_call,
    short_line_limit,
)

P2 = KernelParams(p=2.0, sigma=1.0)
PAPER = KernelParams(p=2.0, sigma=100.0 / 3.0)


def atom(pos, tan):
    return DiscreteCurrent(np.atleast_2d(pos).astype(float), np.atleast_2d(tan).astype(float))


def fine_riemann_inner(fa, fb, spacing, params):
    """Independent oracle: left-endpoint Riemann double sum at fine spacing."""
    ra = resample(fa, spacing).points
    rb = resample(fb, spacing).points
    pa, ta = ra[:-1], np.diff(ra, axis=0)
    pb, tb = rb[:-1], np.diff(rb, axis=0)
    diff = pa[:, None, :] - pb[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    k = np.exp(-0.5 * (d / params.sigma) ** params.p)
    return float((k * (ta @ tb.T)).sum())


class TestKernelParams:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KernelParams(p=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            KernelParams(p=2.0, sigma=0.0)

    def test_resolve_spacing(self):
        assert PAPER.resolve_spacing(None) == PAPER.sigma / 20.0
        assert PAPER.resolve_spacing(0.25) == 0.25
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="^spacing must be > 0$"):
                PAPER.resolve_spacing(bad)


class TestDiscretize:
    def test_single_chord(self):
        f = Fiber("f", [[0, 0, 0], [1, 0, 0]])
        cur = discretize(f, 1.0)
        assert len(cur) == 1
        assert np.allclose(cur.positions[0], [0.5, 0, 0])
        assert np.allclose(cur.tangents[0], [1, 0, 0])

    def test_uniform_subdivision(self):
        f = Fiber("f", [[0, 0, 0], [40, 0, 0]])
        cur = discretize(f, 10.0)
        assert len(cur) == 4
        assert np.allclose(np.linalg.norm(cur.tangents, axis=1), 10.0)

    def test_chord_lengths_sum_near_arclength(self, rng):
        f = smooth_fiber(rng)
        cur = discretize(f, PAPER.sigma / 20.0)
        chords = np.linalg.norm(cur.tangents, axis=1).sum()
        assert chords == pytest.approx(arclength(f), rel=0.01)

    def test_invalid_spacing(self):
        f = Fiber("f", [[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            discretize(f, -1.0)

    def test_refuses_chords_whose_squared_length_underflows(self):
        # the fiber's squared length, 1e-322, is a nonzero subnormal; its
        # 100 chords' squared lengths, 1e-326, round to 0
        f = Fiber("f", [[0, 0, 0], [1e-161, 0, 0]])
        with pytest.raises(ValueError, match="^weighted tangents must be nonzero$"):
            discretize(f, 1e-163)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_resampled_point(self, monkeypatch, bad):
        # a valid fiber resamples to finite points; the check stands guard
        # over the resampling all the same, on the points the atoms come from
        pts = np.array([[0.0, 0, 0], [1.0, bad, 0], [2.0, 0, 0]])
        monkeypatch.setattr("fiberk.currents._resampled_points", lambda *args: pts.copy())
        with pytest.raises(ValueError, match="^atom coordinates must be finite$"):
            discretize(Fiber("f", [[0, 0, 0], [2, 0, 0]]), 1.0)


class TestDiscreteCurrentChecks:
    @pytest.mark.parametrize(
        "positions, tangents, message",
        [
            (np.zeros((2, 3)), np.ones((3, 3)), r"matching \(n, 3\) arrays"),
            (np.zeros((2, 2)), np.ones((2, 2)), r"matching \(n, 3\) arrays"),
            (np.zeros((0, 3)), np.ones((0, 3)), "at least 1 atom"),
            ([[0.0, np.nan, 0.0]], [[1.0, 0.0, 0.0]], "atom coordinates must be finite"),
            ([[0.0, 0.0, 0.0]], [[1.0, np.inf, 0.0]], "atom coordinates must be finite"),
            ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "nonzero"),
        ],
        ids=[
            "tangent-count", "two-columns", "no-atoms", "nan-position", "inf-tangent",
            "zero-tangent",
        ],
    )
    def test_rejects(self, positions, tangents, message):
        with pytest.raises(ValueError, match=message):
            DiscreteCurrent(np.asarray(positions), np.asarray(tangents))


class TestInnerProduct:
    def test_same_position_unit_tangents(self):
        u = np.array([1.0, 0, 0])
        v = np.array([0.0, 1.0, 0])
        assert inner_product(atom([0, 0, 0], u), atom([0, 0, 0], v), P2) == pytest.approx(0.0)
        assert inner_product(atom([0, 0, 0], u), atom([0, 0, 0], u), P2) == pytest.approx(1.0)

    def test_two_atoms_at_sigma(self):
        u = np.array([1.0, 0, 0])
        got = inner_product(atom([0, 0, 0], u), atom([1.0, 0, 0], u), P2)
        assert got == pytest.approx(math.exp(-0.5))

    def test_exact_symmetry(self, rng):
        for _ in range(20):
            a = discretize(smooth_fiber(rng, fid="a"), 2.0)
            b = discretize(smooth_fiber(rng, fid="b"), 2.0)
            assert inner_product(a, b, PAPER) == inner_product(b, a, PAPER)

    def test_parallel_segments_against_fine_oracle(self):
        fa = Fiber("a", [[0, 0, 0], [0, 1, 0]])
        fb = Fiber("b", [[0.5, 0, 0], [0.5, 1, 0]])
        coarse = inner_product(discretize(fa, 0.1), discretize(fb, 0.1), P2)
        fine = fine_riemann_inner(fa, fb, 0.001, P2)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_gram_matrix_positive_semidefinite(self, rng):
        currents = [discretize(smooth_fiber(rng, fid=str(i)), 2.0) for i in range(50)]
        gram = np.array(
            [[inner_product(a, b, PAPER) for b in currents] for a in currents]
        )
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-8 * gram.diagonal().max()


class TestNorm:
    def test_single_unit_atom(self):
        a = atom([0, 0, 0], [1, 0, 0])
        assert math.sqrt(inner_product(a, a, P2)) == pytest.approx(1.0)

    def test_bilinearity_scale(self):
        a = atom([0, 0, 0], [10.0, 0, 0])
        assert math.sqrt(inner_product(a, a, P2)) == pytest.approx(10.0)

    def test_against_fine_oracle(self, rng):
        f = Fiber("f", [[0, 0, 0], [40.0, 0, 0]])
        a = discretize(f, PAPER.sigma / 20.0)
        n2 = inner_product(a, a, PAPER)
        fine = fine_riemann_inner(f, f, PAPER.sigma / 500.0, PAPER)
        assert n2 == pytest.approx(fine, rel=1e-3)


class TestDistance:
    def test_identical_currents(self, rng):
        a = discretize(smooth_fiber(rng), 2.0)
        assert distance(a, a, PAPER) == 0.0

    def test_opposite_tangents_same_position(self):
        u = np.array([1.0, 0, 0])
        a, b = atom([0, 0, 0], u), atom([0, 0, 0], -u)
        assert distance(a, b, P2) == pytest.approx(2.0)
        assert min_distance(a, b, P2) == pytest.approx(0.0)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (discretize(smooth_fiber(rng, fid=i), 2.0) for i in "abc")
            dab = distance(a, b, PAPER)
            dbc = distance(b, c, PAPER)
            dac = distance(a, c, PAPER)
            assert dac <= dab + dbc + 1e-9

    def test_joint_translation_invariance(self, rng):
        for _ in range(20):
            fa, fb = smooth_fiber(rng, fid="a"), smooth_fiber(rng, fid="b")
            h = rng.uniform(-100, 100, 3)
            d0 = distance(discretize(fa, 2.0), discretize(fb, 2.0), PAPER)
            ma, mb = Fiber(fa.id, fa.points + h), Fiber(fb.id, fb.points + h)
            d1 = distance(discretize(ma, 2.0), discretize(mb, 2.0), PAPER)
            assert d1 == pytest.approx(d0, rel=1e-9)

    def test_convergence_under_halved_spacing(self, rng):
        for _ in range(10):
            fa, fb = smooth_fiber(rng, fid="a"), smooth_fiber(rng, fid="b")
            d20 = distance(
                discretize(fa, PAPER.sigma / 20), discretize(fb, PAPER.sigma / 20), PAPER
            )
            d40 = distance(
                discretize(fa, PAPER.sigma / 40), discretize(fb, PAPER.sigma / 40), PAPER
            )
            assert abs(d20 - d40) / d40 < 0.01


class TestMinDistance:
    def test_flip_gives_zero(self, rng):
        a = discretize(smooth_fiber(rng), 2.0)
        reversed_a = DiscreteCurrent(a.positions[::-1], -a.tangents[::-1])
        assert min_distance(a, reversed_a, PAPER) <= 1e-9 * math.sqrt(inner_product(a, a, PAPER))

    def test_flip_cancels_exactly(self, rng):
        # A current and its flip share one canonical listing, so their self
        # inner products and their orientation-minimal distance are exact.
        for _ in range(300):
            a = discretize(smooth_fiber(rng), 2.0)
            reversed_a = DiscreteCurrent(a.positions[::-1], -a.tangents[::-1])
            assert inner_product(reversed_a, reversed_a, PAPER) == inner_product(a, a, PAPER)
            assert min_distance(a, reversed_a, PAPER) == 0.0

    def test_not_larger_than_oriented(self, rng):
        for _ in range(50):
            a = discretize(smooth_fiber(rng, fid="a"), 2.0)
            b = discretize(smooth_fiber(rng, fid="b"), 2.0)
            assert min_distance(a, b, PAPER) <= distance(a, b, PAPER) + 1e-12

    def test_flip_invariance(self, rng):
        for _ in range(100):
            a = discretize(smooth_fiber(rng, fid="a"), 2.0)
            b = discretize(smooth_fiber(rng, fid="b"), 2.0)
            assert min_distance(a, b, PAPER) == pytest.approx(
                min_distance(DiscreteCurrent(a.positions[::-1], -a.tangents[::-1]), b, PAPER),
                rel=1e-12,
                abs=1e-12,
            )

    def test_matches_explicit_min_over_flip(self, rng):
        for _ in range(50):
            a = discretize(smooth_fiber(rng, fid="a"), 2.0)
            b = discretize(smooth_fiber(rng, fid="b"), 2.0)
            reversed_b = DiscreteCurrent(b.positions[::-1], -b.tangents[::-1])
            explicit = min(distance(a, b, PAPER), distance(a, reversed_b, PAPER))
            assert min_distance(a, b, PAPER) == explicit

    def test_pseudometric_triangle_on_orientation_classes(self, rng):
        for _ in range(100):
            a, b, c = (discretize(smooth_fiber(rng, fid=i), 2.0) for i in "abc")
            assert min_distance(a, c, PAPER) <= (
                min_distance(a, b, PAPER) + min_distance(b, c, PAPER) + 1e-9
            )


class TestCachedSums:
    """Each current keeps its canonical listing and self sums; every value
    must equal the per-call oracle that recomputes both."""

    def test_flip_distance_exactly_zero(self, rng):
        for _ in range(20):
            a = discretize(smooth_fiber(rng), 2.0)
            b = DiscreteCurrent(a.positions[::-1], -a.tangents[::-1])
            assert min_distance(a, b, PAPER) == 0.0
            assert min_distance(b, a, PAPER) == 0.0
            assert inner_product(a, b, PAPER) == inner_product_per_call(a, b, PAPER)
            assert distance(a, b, PAPER) == distance_per_call(a, b, PAPER)

    def test_distinct_currents_with_equal_atoms(self, rng):
        a = discretize(smooth_fiber(rng, fid="a"), 2.0)
        b = DiscreteCurrent(a.positions.copy(), a.tangents.copy())
        assert inner_product(a, b, PAPER) == inner_product_per_call(a, b, PAPER)
        assert inner_product(b, a, PAPER) == inner_product_per_call(b, a, PAPER)
        assert inner_product(b, b, PAPER) == inner_product(a, a, PAPER)
        assert min_distance(a, b, PAPER) == 0.0
        assert distance(a, b, PAPER) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_cold_then_warm(self, rng, p):
        params = KernelParams(p=p, sigma=PAPER.sigma)
        a = discretize(smooth_fiber(rng, fid="a"), 2.0)
        b = discretize(smooth_fiber(rng, fid="b"), 2.0)
        want = min_distance_per_call(a, b, params), distance_per_call(a, b, params)
        for _ in range(2):
            assert (min_distance(a, b, params), distance(a, b, params)) == want
            assert inner_product(a, a, params) == inner_product_per_call(a, a, params)

    def test_self_sums_kept_per_kernel(self, rng):
        a = discretize(smooth_fiber(rng), 2.0)
        wide = KernelParams(p=2.0, sigma=2 * PAPER.sigma)
        for params in (PAPER, wide, PAPER, wide):
            assert inner_product(a, a, params) == inner_product_per_call(a, a, params)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        partner=st.sampled_from(["other", "copy", "flip"]),
        warm=st.sampled_from(["", "a", "b", "ab", "ba"]),
        a_first=st.booleans(),
        p=st.sampled_from([1.0, 2.0, math.inf]),
    )
    def test_symmetric_whichever_warms_first(self, seed, partner, warm, a_first, p):
        params = KernelParams(p=p, sigma=PAPER.sigma)
        rng = np.random.default_rng(seed)
        a = discretize(smooth_fiber(rng, fid="a"), 4.0)
        if partner == "other":
            b = discretize(smooth_fiber(rng, fid="b"), 4.0)
        elif partner == "copy":
            b = DiscreteCurrent(a.positions.copy(), a.tangents.copy())
        else:
            b = DiscreteCurrent(a.positions[::-1], -a.tangents[::-1])
        want = inner_product_per_call(a, b, params)
        for name in warm:
            c = {"a": a, "b": b}[name]
            inner_product(c, c, params)
        first, second = (a, b) if a_first else (b, a)
        assert inner_product(first, second, params) == want
        assert inner_product(second, first, params) == want


class TestShortLineLimit:
    def test_coincident_aligned(self):
        u = np.array([1.0, 0, 0])
        assert short_line_limit([0, 0, 0], [0, 0, 0], u, u, P2) == pytest.approx(0.0)

    def test_at_sigma(self):
        # middle case of the step limit evaluated at finite p = 2
        u = np.array([0.0, 1.0, 0])
        got = short_line_limit([0, 0, 0], [1.0, 0, 0], u, u, P2)
        assert got == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-9)
        assert got == pytest.approx(0.7869386806, abs=1e-9)

    def test_matches_discretized_short_lines(self, rng):
        T = 1e-3
        for _ in range(50):
            xu = rng.uniform(-1, 1, 3)
            xv = xu + rng.uniform(0.1, 3.0) * unit_vector(rng)
            u, v = unit_vector(rng), unit_vector(rng)
            fa = Fiber("a", np.vstack([xu - 0.5 * T * u, xu + 0.5 * T * u]))
            fb = Fiber("b", np.vstack([xv - 0.5 * T * v, xv + 0.5 * T * v]))
            md = min_distance(discretize(fa, T / 4), discretize(fb, T / 4), P2)
            assert md**2 / T**2 == pytest.approx(
                short_line_limit(xu, xv, u, v, P2), abs=1e-3
            )

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            short_line_limit([0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], KernelParams(math.inf, 1.0))


class TestMetricOnBrownianShapes:
    def test_distances_finite_and_symmetric(self, rng):
        shapes = [
            discretize(gen_brownian(40.0, rng), PAPER.sigma / 20.0) for _ in range(20)
        ]
        for i in range(len(shapes)):
            for j in range(i + 1, len(shapes)):
                d = distance(shapes[i], shapes[j], PAPER)
                assert math.isfinite(d) and d >= 0
                assert d == distance(shapes[j], shapes[i], PAPER)


@pytest.fixture(scope="module")
def clustered_atoms():
    """Packed atoms of 200 seed-1 clustered lines at the default sigma and
    spacing."""
    fibers = make_dataset(SimConfig(process=ProcessKind.CLUSTERED_LINES, n_fibers=200, seed=1))
    spacing = PAPER.sigma / 20
    return _center_and_pack(fibers, CenterFunctionKind.MASS_CENTER, spacing)[1:]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_squared_distance_is_negative_only_beyond_p_2(clustered_atoms, p):
    # exp(-|x|^p) is positive definite only for p <= 2 (Schoenberg 1938), so
    # at p = inf ||a||^2 + ||b||^2 - 2 |<a, b>| falls below zero by far more
    # than rounding, and the distance clamps such a pair to 0
    pos, tan, offsets = clustered_atoms
    ia, ib = np.triu_indices(len(offsets) - 1, k=1)
    norms_sq = backends.self_norms_sq(pos, tan, offsets, p, PAPER.sigma)
    ab = backends.pair_inner_products(pos, tan, offsets, ia, ib, p, PAPER.sigma)
    total = norms_sq[ia] + norms_sq[ib]
    ratio = (total - 2.0 * np.abs(ab)) / total
    negative = ratio < -1e-9
    if p <= 2:
        assert not negative.any() and ratio.min() > 0
    else:
        assert negative.sum() > 700 and ratio.min() < -0.005
        assert (_shape_distance(norms_sq[ia], norms_sq[ib], ab, True)[negative] == 0).all()


# squared norms and cross sums: any double, and the values where a max, a
# sign of zero or a nan could part the scalar form from the array form
_SUMS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
)


@given(_SUMS, _SUMS, _SUMS, st.booleans())
@example(-0.0, -0.0, 0.0, False)  # the squared distance is -0.0
@example(1.0, 1.0, 1.0, True)  # ... +0.0
@example(1.0, 1.0, 1.5, True)  # ... negative
@example(math.inf, 1.0, math.inf, False)  # ... nan, which max(0.0, x) would hide
@settings(max_examples=1000, deadline=None)
def test_property_scalar_shape_distance_is_the_array_form(na, nb, ab, orientation_invariant):
    # distance and min_distance take the scalar form; the dist CSV must not move
    got = _scalar_shape_distance(na, nb, ab, orientation_invariant)
    want = float(_shape_distance(na, nb, ab, orientation_invariant))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
