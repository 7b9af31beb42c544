import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberk import (
    CenterFunctionKind,
    Fiber,
    arclength,
    center,
    fiber_core,
    resample,
    reverse,
    segment,
    translate,
)

from conftest import random_polyline

MASS = CenterFunctionKind.MASS_CENTER
MID = CenterFunctionKind.ARCLENGTH_MIDPOINT


def straight(length=40.0, fid="line"):
    return Fiber(fid, [[0, 0, 0], [length, 0, 0]])


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

    def test_points_are_read_only(self):
        f = straight()
        with pytest.raises(ValueError):
            f.points[0, 0] = 1.0


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
        with pytest.raises(ValueError, match=r"fiber line: .* points, more than 10000000"):
            resample(Fiber("line", [[0, 0, 0], [40, 0, 0]]), spacing)

    def test_point_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(fiber_core, "MAX_RESAMPLE_POINTS", 5)
        assert len(resample(straight(40.0), 10.0).points) == 5
        with pytest.raises(ValueError, match="to 6 points, more than 5"):
            resample(straight(40.0), 9.9)

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
