import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberk import (
    CenterFunctionKind,
    Fiber,
    ProcessKind,
    SimConfig,
    arclength,
    center,
    fiber_core,
    make_dataset,
    resample,
    reverse,
    segment,
    translate,
)

from conftest import random_polyline
from reference_impls import segment_by_piece

MASS = CenterFunctionKind.MASS_CENTER
MID = CenterFunctionKind.ARCLENGTH_MIDPOINT


def straight(length=40.0, fid="line"):
    return Fiber(fid, [[0, 0, 0], [length, 0, 0]])


def assert_same_fibers(got, want):
    assert [f.id for f in got] == [f.id for f in want]
    for g, w in zip(got, want):
        assert g.points.shape == w.points.shape
        assert g.points.tobytes() == w.points.tobytes()


class TestFiberValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Fiber("x", [[0, 0, 0]])

    def test_rejects_duplicate_consecutive_points(self):
        with pytest.raises(ValueError):
            Fiber("x", [[0, 0, 0], [0, 0, 0], [1, 0, 0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Fiber("x", [[0, 0, 0], [np.nan, 0, 0]])

    @pytest.mark.parametrize("x", [1e160, -1e200, np.inf, np.nan])
    def test_rejects_coordinates_beyond_the_bound(self, x):
        # checked before any segment length is squared, so no overflow warning
        what = "within \\+-1e\\+100" if math.isfinite(x) else "finite"
        with pytest.raises(ValueError, match=f"fiber coordinates must be {what}"):
            Fiber("x", [[0, 0, 0], [x, 0, 0]])

    def test_coordinates_at_the_bound_measure_finitely(self):
        b = fiber_core.MAX_COORDINATE
        f = Fiber("x", [[0, 0, 0], [b, b, b], [0, b, 0]])
        assert arclength(f) == pytest.approx((math.sqrt(3) + math.sqrt(2)) * b)
        for kind in CenterFunctionKind:
            assert np.isfinite(center(f, kind).original_center).all()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rejects_points_spanning_more_than_the_bound(self, axis):
        # each point is within the bound, but a centered copy would not be
        b = fiber_core.MAX_COORDINATE
        pts = np.zeros((3, 3))
        pts[0, axis], pts[1, axis] = -0.5 * b, np.nextafter(0.5 * b, math.inf)
        pts[2] = 1.0
        with pytest.raises(ValueError, match="fiber points must span at most 1e\\+100"):
            Fiber("x", pts)

    def test_a_fiber_spanning_the_bound_centers_within_it(self):
        b = fiber_core.MAX_COORDINATE
        f = Fiber("x", [[-b, -b, -b], [0, 0, 0], [-b, 0, -b]])
        for kind in CenterFunctionKind:
            assert np.abs(center(f, kind).fiber.points).max() <= b

    def test_points_are_read_only(self):
        f = straight()
        with pytest.raises(ValueError):
            f.points[0, 0] = 1.0

    @pytest.mark.parametrize("points", [[0, 0, 0], [[0, 0], [1, 0]], np.zeros((2, 3, 1))])
    def test_rejects_points_that_are_not_n_by_3(self, points):
        with pytest.raises(ValueError, match="fiber points must be an \\(n, 3\\) array"):
            Fiber("x", points)

    def test_equality_and_repr(self):
        f = straight()
        assert f == straight() and f != straight(fid="other")
        assert f.__eq__(1) is NotImplemented and f != 1
        assert repr(f) == "Fiber(id='line', n_points=2)"


class TestCenteredFiber:
    @pytest.mark.parametrize(
        "c, message",
        [
            ([0.0, 0.0], "center must be a 3-vector"),
            ([0.0, np.nan, 0.0], "center must be finite"),
            ([1e101, 0.0, 0.0], "center must be within \\+-1e\\+100"),
        ],
        ids=["shape", "nan", "beyond-bound"],
    )
    def test_rejects_bad_center(self, c, message):
        with pytest.raises(ValueError, match=message):
            fiber_core.CenteredFiber(c, straight())


class TestArclength:
    def test_single_segment(self):
        assert arclength(straight(40.0)) == 40.0

    def test_unit_square_path(self):
        f = Fiber("sq", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]])
        assert arclength(f) == pytest.approx(4.0)

    def test_matches_reverse_order_summation(self, rng):
        f = random_polyline(rng, n_pts=100)
        segs = np.linalg.norm(np.diff(f.points, axis=0), axis=1)
        oracle = float(segs[::-1].sum())
        assert arclength(f) == pytest.approx(oracle, rel=1e-12)

    def test_is_the_total_resample_and_segment_cut_by(self):
        # a pairwise sum of the segment lengths differs in the last bits on
        # most of these fibers
        cfg = SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=100, seed=1)
        for f in make_dataset(cfg):
            assert arclength(f) == fiber_core._cumlen(f.points)[-1]


class TestResample:
    def test_uniform_line(self):
        rs = resample(straight(40.0), 10.0)
        assert np.allclose(rs.points[:, 0], [0, 10, 20, 30, 40])

    def test_coarse_spacing_gives_endpoints(self):
        f = straight(5.0)
        rs = resample(f, 100.0)
        assert len(rs.points) == 2
        assert np.array_equal(rs.points[0], f.points[0])
        assert np.array_equal(rs.points[-1], f.points[-1])

    def test_point_count_contract(self, rng):
        f = random_polyline(rng)
        total = arclength(f)
        rs = resample(f, 1.0)
        assert len(rs.points) == math.ceil(total / 1.0) + 1

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            resample(straight(), 0.0)

    @pytest.mark.parametrize("spacing", [1e-12, 5e-324])
    def test_too_fine_spacing_fails_before_allocating(self, spacing):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"fiber line: .* steps, more than 1000000 per"):
                resample(Fiber("line", [[0, 0, 0], [40, 0, 0]]), spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_point_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(fiber_core, "MAX_PIECES", 4)
        assert len(resample(straight(40.0), 10.0).points) == 5
        with pytest.raises(ValueError, match="gives 5 steps, more than 4 per fiber"):
            resample(straight(40.0), 9.9)

    @given(
        st.integers(min_value=-345, max_value=300),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.one_of(
            st.integers(min_value=1, max_value=4096),  # the atoms of one current
            st.integers(min_value=1, max_value=fiber_core.MAX_PIECES),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_grid_is_linspace(self, e, mantissa, n):
        total = 40.0 * mantissa * 2.0**e
        want = np.linspace(0.0, total, n + 1)
        assert fiber_core._step_grid(total, n).tobytes() == want.tobytes()

    def test_output_lies_on_input_polyline(self, rng):
        f = random_polyline(rng, n_pts=30)
        rs = resample(f, 1.0)
        pts = f.points
        a, b = pts[:-1], pts[1:]
        ab = b - a
        denom = np.einsum("ij,ij->i", ab, ab)
        for q in rs.points:
            tpar = np.clip(np.einsum("ij,j->i", ab, q) - np.einsum("ij,ij->i", ab, a), 0, denom)
            proj = a + (tpar / denom)[:, None] * ab
            dist = np.linalg.norm(proj - q, axis=1).min()
            assert dist < 1e-9


class TestCenter:
    def test_mass_center_of_line(self):
        c = center(straight(40.0), MASS)
        assert np.allclose(c.original_center, [20, 0, 0])
        assert np.allclose(c.fiber.points[:, 0], [-20, 20])

    def test_midpoint_of_line(self):
        c = center(straight(40.0), MID)
        assert np.allclose(c.original_center, [20, 0, 0])

    def test_translation_covariance(self, rng):
        f = random_polyline(rng)
        v = np.array([3.0, -7.0, 11.0])
        for kind in (MASS, MID):
            c0 = center(f, kind).original_center
            c1 = center(translate(f, v), kind).original_center
            assert np.allclose(c1 - c0, v, atol=1e-9)

    def test_centering_idempotent(self, rng):
        f = random_polyline(rng)
        for kind in (MASS, MID):
            cf = center(f, kind).fiber
            diam = np.linalg.norm(f.points.max(0) - f.points.min(0))
            assert np.linalg.norm(center(cf, kind).original_center) <= 1e-9 * diam


class TestTranslate:
    def test_zero_vector_identity(self):
        f = straight()
        assert translate(f, [0, 0, 0]) == f

    def test_componentwise(self):
        f = Fiber("f", [[0, 0, 0], [1, 0, 0]])
        g = translate(f, [0, 0, 5])
        assert np.allclose(g.points, [[0, 0, 5], [1, 0, 5]])

    def test_preserves_arclength(self, rng):
        f = random_polyline(rng)
        g = translate(f, rng.standard_normal(3) * 100)
        assert arclength(g) == pytest.approx(arclength(f), rel=1e-12)


class TestReverse:
    def test_reverses_order(self):
        f = Fiber("f", [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert np.array_equal(reverse(f).points, f.points[::-1])

    def test_palindromic_fixed_point(self):
        f = Fiber("f", [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(reverse(f).points, f.points)

    def test_involution(self, rng):
        f = random_polyline(rng)
        assert reverse(reverse(f)) == f


class TestSegment:
    def test_paper_split_100_into_40(self):
        f = straight(100.0)
        pieces = segment(f, 40.0)
        assert [round(arclength(p), 9) for p in pieces] == [40.0, 40.0, 20.0]
        assert [p.id for p in pieces] == ["line.0", "line.1", "line.2"]

    def test_noop_below_threshold(self):
        f = straight(40.0)
        pieces = segment(f, 40.0)
        assert len(pieces) == 1
        assert np.array_equal(pieces[0].points, f.points)

    def test_conservation(self, rng):
        f = random_polyline(rng, n_pts=50)
        total = arclength(f)
        pieces = segment(f, total / 4.7)
        assert len(pieces) == math.ceil(total / (total / 4.7))
        assert sum(arclength(p) for p in pieces) == pytest.approx(total, abs=1e-9 * total)

    def test_invalid_max_length(self):
        with pytest.raises(ValueError):
            segment(straight(), -1.0)

    @pytest.mark.parametrize("max_length", [1e-12, 5e-324])
    def test_too_many_pieces_fails_before_allocating(self, max_length):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"fiber line: .* pieces, more than 1000000 per"):
                segment(straight(40.0), max_length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_piece_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(fiber_core, "MAX_PIECES", 4)
        assert len(segment(straight(40.0), 10.0)) == 4
        with pytest.raises(ValueError, match="gives 5 pieces, more than 4 per fiber"):
            segment(straight(40.0), 9.9)

    def test_piece_count_is_the_number_of_pieces(self, rng):
        f = random_polyline(rng, n_pts=50)
        total = arclength(f)
        for divisor in (0.5, 1.0, 2.0, 3.0, 4.7, 100.0):
            for max_length in (total / divisor, np.nextafter(total / divisor, 0.0)):
                assert fiber_core._piece_count(total, max_length) == len(segment(f, max_length))
        assert fiber_core._piece_count(total, 5e-324) == math.inf

    def test_matches_per_piece_reference_on_simulated_fibers(self):
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=20, seed=5))
        for f in fibers:
            for max_length in (4.0, 7.5, 40.0, 1e3):
                assert_same_fibers(segment(f, max_length), segment_by_piece(f, max_length))

    def test_matches_per_piece_reference_with_cuts_on_the_tolerance(self):
        # vertices at arclengths 0, 1, ..., 8; a cut at j -+ 1e-9 * total puts
        # the vertex at exactly s0 + eps or s1 - eps for most (j, k)
        f = Fiber("x", np.column_stack([np.arange(9.0), np.zeros(9), np.zeros(9)]))
        eps = 1e-9 * 8.0
        hits = 0
        for j in range(1, 8):
            for k in range(1, 5):
                for max_length in ((j - eps) / k, (j + eps) / k):
                    hits += k * max_length + eps == j or k * max_length - eps == j
                    assert_same_fibers(segment(f, max_length), segment_by_piece(f, max_length))
        assert hits > 20

    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-9, 1.0 - 1e-10, 1.0 - 1e-9, 1.0 - 2e-9, 2.0])
    def test_matches_per_piece_reference_near_total_length(self, rng, factor):
        f = random_polyline(rng, n_pts=15)
        for divisor in (1, 2, 3, 7):
            max_length = arclength(f) * factor / divisor
            assert_same_fibers(segment(f, max_length), segment_by_piece(f, max_length))


@st.composite
def polylines(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_polyline(rng, n_pts=n)


@given(polylines(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_property_translation_covariance(fiber, vseed):
    v = np.random.default_rng(vseed).uniform(-50, 50, 3)
    for kind in (MASS, MID):
        c0 = center(fiber, kind).original_center
        c1 = center(translate(fiber, v), kind).original_center
        scale = max(1.0, float(np.abs(c0).max()))
        assert np.allclose(c1, c0 + v, atol=1e-9 * scale)


@given(polylines())
@settings(max_examples=50, deadline=None)
def test_property_reverse_involution(fiber):
    assert reverse(reverse(fiber)) == fiber


@given(polylines(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_property_segmentation_conservation(fiber, max_length):
    total = arclength(fiber)
    pieces = segment(fiber, max_length)
    assert len(pieces) == max(1, math.ceil(total / max_length - 1e-9))
    assert sum(arclength(p) for p in pieces) == pytest.approx(total, abs=1e-9 * max(total, 1))


@given(polylines(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_property_segment_matches_per_piece_reference(fiber, max_length):
    assert_same_fibers(segment(fiber, max_length), segment_by_piece(fiber, max_length))


@given(
    polylines(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([-2e-9, -1e-9, -5e-10, -1e-16, 0.0, 1e-16, 5e-10, 1e-9, 2e-9]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_property_segment_cut_near_a_vertex_matches_reference(fiber, k, offset, data):
    # cut k falls within 2e-9 * total of vertex j, on both sides of the 1e-9
    # tolerance that decides whether the vertex joins a piece
    seg = np.linalg.norm(np.diff(fiber.points, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    j = data.draw(st.integers(min_value=1, max_value=len(cum) - 1))
    max_length = (cum[j] + offset * cum[-1]) / k
    assert_same_fibers(segment(fiber, max_length), segment_by_piece(fiber, max_length))
