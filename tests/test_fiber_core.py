import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberk import (
    CenterFunctionKind,
    Fiber,
    ProcessKind,
    SimConfig,
    arclength,
    center,
    discretize,
    fiber_core,
    make_dataset,
    read_fibers,
    resample,
    segment,
    write_fibers,
)

from conftest import random_polyline
from reference_impls import center_by_composition, segment_by_piece

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
        # as the second fiber of a batch too; two fibers that each span half
        # the bound pass together, though the batch spans more than it
        with pytest.raises(ValueError, match="fiber points must span at most 1e\\+100"):
            fiber_core._validated_points(np.vstack([np.eye(3), pts]), [0, 3, 6])
        apart = np.vstack([pts[:1], np.zeros(3), np.zeros(3), pts[1:2]])
        fiber_core._validated_points(apart, [0, 2, 4])

    @pytest.mark.parametrize("chunk", [fiber_core._CHUNK_POINTS, 3, 1])
    def test_a_batch_allows_a_repeat_only_across_a_fiber_boundary(self, monkeypatch, chunk):
        monkeypatch.setattr(fiber_core, "_CHUNK_POINTS", chunk)  # runs of whole fibers
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        assert fiber_core._validated_points(pts, [0, 2, 5]) is pts
        for starts in ([0, 5], [0, 3, 5]):  # the repeat inside one fiber
            with pytest.raises(ValueError, match="consecutive fiber points must be distinct"):
                fiber_core._validated_points(pts, starts)
        with pytest.raises(ValueError, match="a fiber needs at least 2 points"):
            fiber_core._validated_points(pts, [0, 2, 3, 5])

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


def assert_keeps_cumlen(fiber):
    kept = fiber._cum
    assert kept is not None and not kept.flags.writeable
    assert kept.tobytes() == fiber_core._cumlen(fiber.points).tobytes()


class TestKeptArclengths:
    # a fiber keeps its cumulative arclengths once computed, and center hands
    # its fast branch's to the centered copy: every reader (arclength,
    # resample, segment, discretize) must get _cumlen's bits either way

    @pytest.mark.parametrize("kind", list(CenterFunctionKind))
    def test_center_hands_the_copy_its_arclengths(self, rng, kind):
        for n_pts in [2, 3, 5, 20, 101]:
            f = random_polyline(rng, n_pts=n_pts, scale=10.0 ** rng.uniform(-3, 3))
            assert_keeps_cumlen(center(f, kind).fiber)

    @pytest.mark.parametrize("kind", list(CenterFunctionKind))
    def test_a_copy_checked_in_full_computes_them_on_first_use(self, kind):
        # the center lies past half the bound, so the copy gets the full check
        bound = fiber_core.MAX_COORDINATE
        f = Fiber("far", np.add(0.75 * bound, [[0, 0, 0], [1e98, 2e98, 0], [3e98, 1e98, 5e97]]))
        c = center(f, kind)
        assert abs(c.original_center).max() > 0.5 * bound and c.fiber._cum is None
        arclength(c.fiber)
        assert_keeps_cumlen(c.fiber)

    def test_fibers_made_read_and_cut_compute_them_on_first_use(self, rng, tmp_path):
        made = [random_polyline(rng, n_pts=n, fid=str(n)) for n in [2, 7, 60]]
        write_fibers(made, tmp_path / "f.fib")
        read = read_fibers(tmp_path / "f.fib")
        assert all(f._cum is None for f in made + read)
        pieces = [p for f in made for p in segment(f, 3.0)]
        for f in made:
            assert_keeps_cumlen(f)  # segment computed them
        for f in read + pieces:
            assert f._cum is None
            arclength(f)
            assert_keeps_cumlen(f)

    @pytest.mark.parametrize("kind", list(CenterFunctionKind))
    def test_readers_give_the_same_bits_with_the_slot_filled_or_empty(self, rng, kind):
        for n_pts in [2, 4, 33]:
            filled = center(random_polyline(rng, n_pts=n_pts), kind).fiber

            def empty():
                f = Fiber(filled.id, filled.points)
                assert f._cum is None
                return f

            assert arclength(filled) == arclength(empty())
            assert resample(filled, 0.7).points.tobytes() == resample(empty(), 0.7).points.tobytes()
            got, want = discretize(filled, 0.4), discretize(empty(), 0.4)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.tangents.tobytes() == want.tangents.tobytes()
            assert_same_fibers(segment(filled, 2.5), segment(empty(), 2.5))
            assert_keeps_cumlen(filled)


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
            c1 = center(Fiber(f.id, f.points + v), kind).original_center
            assert np.allclose(c1 - c0, v, atol=1e-9)

    def test_centering_idempotent(self, rng):
        f = random_polyline(rng)
        for kind in (MASS, MID):
            cf = center(f, kind).fiber
            diam = np.linalg.norm(f.points.max(0) - f.points.min(0))
            assert np.linalg.norm(center(cf, kind).original_center) <= 1e-9 * diam


class TestCenters:
    """``_centers`` computes mass centers per size group, and must give the
    bits ``_center_point`` gives one fiber at a time."""

    @pytest.mark.parametrize("kind", [MASS, MID], ids=["mass", "midpoint"])
    def test_chunks_and_kept_centers(self, rng, monkeypatch, kind):
        monkeypatch.setattr(fiber_core, "_CHUNK_POINTS", 40)  # 2 to 4 fibers a chunk
        fibers = [random_polyline(rng, n_pts=n) for n in [12, 20, 12, 12, 2, 20, 12, 12, 13]]
        kept = [fiber_core._center_of(f, kind) for f in fibers[::3]]
        got = fiber_core._centers(fibers, kind)
        for f, c in zip(fibers, got):
            assert c.tobytes() == fiber_core._center_point(f.points, kind).tobytes()
            assert f._center[0] is kind and f._center[1].tobytes() == c.tobytes()
            assert not f._center[1].flags.writeable
        assert all(f._center[1] is c for f, c in zip(fibers[::3], kept))

    def test_no_fibers(self):
        assert fiber_core._centers([], MASS).shape == (0, 3)


@given(
    st.lists(
        st.tuples(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([0.0, 1e6, -1e6]),
    st.sampled_from([None, MASS, MID]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_centers_are_center_point_bit_for_bit(sizes, shift, kept, seed):
    # 2 to 300 points covers numpy's 8-wide unrolled and 128-block pairwise sums
    rng = np.random.default_rng(seed)
    fibers = [
        Fiber("f", random_polyline(rng, n_pts=n).points + shift) for n, k in sizes for _ in range(k)
    ]
    for kind in (MASS, MID):
        if kept is not None:  # every other fiber has a center already
            for f in fibers[::2]:
                fiber_core._center_of(f, kept)
        got = fiber_core._centers(fibers, kind)
        for f, c in zip(fibers, got):
            want = fiber_core._center_point(f.points, kind)
            assert c.tobytes() == want.tobytes()
            assert f._center[1].tobytes() == want.tobytes()


class TestTranslate:
    def test_preserves_arclength(self, rng):
        f = random_polyline(rng)
        g = Fiber(f.id, f.points + rng.standard_normal(3) * 100)
        assert arclength(g) == pytest.approx(arclength(f), rel=1e-12)


class TestListingDirection:
    """A fiber is an unoriented curve: listing its points backwards changes
    neither its length nor its center."""

    def test_arclength(self, rng):
        f = random_polyline(rng)
        assert arclength(Fiber(f.id, f.points[::-1])) == pytest.approx(arclength(f), rel=1e-12)

    @pytest.mark.parametrize("kind", [MASS, MID], ids=["mass", "midpoint"])
    def test_center(self, rng, kind):
        for _ in range(20):
            f = random_polyline(rng)
            c0 = center(f, kind).original_center
            c1 = center(Fiber(f.id, f.points[::-1]), kind).original_center
            diam = np.linalg.norm(f.points.max(0) - f.points.min(0))
            assert np.allclose(c1, c0, rtol=0, atol=1e-12 * diam)


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
        c1 = center(Fiber(fiber.id, fiber.points + v), kind).original_center
        scale = max(1.0, float(np.abs(c0).max()))
        assert np.allclose(c1, c0 + v, atol=1e-9 * scale)


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


_B = fiber_core.MAX_COORDINATE


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


# Per-axis positions of a fiber: small ones, and ones from half the bound to
# the bound (where the centered copy's coordinates, extent and center are
# checked in full), a few ulps either side of both.
_BASES = st.one_of(
    st.sampled_from([0.0, 20.0]),
    st.builds(
        _ulps,
        st.sampled_from([-_B, -0.5 * _B, 0.5 * _B, _B]),
        st.integers(min_value=-3, max_value=3),
    ),
    st.floats(min_value=0.5 * _B, max_value=_B),
    st.floats(min_value=-_B, max_value=-0.5 * _B),
)
# Per-point offsets from that position; 1e-160 next to 0 and 40 makes a
# fiber whose centered copy repeats a point.
_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1.0, 4.0, 1e-160, 40.0, 0.25 * _B, -0.25 * _B]),
    st.floats(min_value=-50.0, max_value=50.0),
)


def _centered_outcome(fn, fiber, kind):
    try:
        c = fn(fiber, kind)
    except ValueError as exc:
        return "refused", str(exc)
    assert c.original_center.flags.writeable is False and c.fiber.points.flags.writeable is False
    kept = c.fiber._cum  # center keeps _cumlen's bits, or nothing
    assert kept is None or kept.tobytes() == fiber_core._cumlen(c.fiber.points).tobytes()
    return c.fiber.id, c.original_center.tobytes(), c.fiber.points.tobytes()


# the CI near-duplicate fiber: 1e-160 - 20 rounds to -20
_NEAR = [[0, 5, 0], [1e-160, 5, 0], [40, 5, 0]]
# every coordinate within the bound, and the mass center one ulp past it
_PAST = [[_B, 0, 0], [_B, 1, 0], [_B, 4, 0], [_B, 1, 0]]
# spans exactly the bound along x; its centered copy spans one ulp more
_SPAN = [
    [-2.5e99, 2.4737079966109468e95, 0],
    [0, 3.827971814186425e95, 0],
    [-5e99, 6.315261996470603e95, 0],
    [5e99, 8.505821103389241e95, 0],
    [5e99, 1.0063220816339808e96, 0],
]


@given(
    st.tuples(_BASES, _BASES, _BASES),
    st.lists(st.tuples(_OFFSETS, _OFFSETS, _OFFSETS), min_size=2, max_size=6),
    st.sampled_from(list(CenterFunctionKind)),
)
@example((0, 0, 0), _NEAR, MASS)
@example((0, 0, 0), _PAST, MASS)
@example((0, 0, 0), _SPAN, MID)
@settings(max_examples=400, deadline=None)
def test_property_center_refuses_as_the_full_check_does(base, offsets, kind):
    # center checks a centered copy in full only when a magnitude passes half
    # the bound; it must accept, refuse and word its refusal as the full check
    try:
        fiber = Fiber("f", np.add(base, offsets))
    except ValueError:
        assume(False)
    want = _centered_outcome(center_by_composition, fiber, kind)
    assert _centered_outcome(center, fiber, kind) == want


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize(
    "points, kinds, message",
    [
        (_NEAR, [MASS, MID], "consecutive fiber points must be distinct"),
        (_PAST, [MASS], "center must be within +-1e+100"),
        (_SPAN, [MID], "fiber points must span at most 1e+100 along each axis"),
    ],
    ids=["repeat", "center-past-the-bound", "span-past-the-bound"],
)
def test_center_refuses_each_axis_as_the_full_check_does(points, kinds, message, axis):
    fiber = Fiber("f", np.roll(points, axis, axis=1))
    for kind in kinds:
        assert _centered_outcome(center, fiber, kind) == ("refused", message)
        assert _centered_outcome(center_by_composition, fiber, kind) == ("refused", message)
