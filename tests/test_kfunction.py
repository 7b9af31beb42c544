import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberk import (
    CenterFunctionKind,
    EmptyWindowError,
    Fiber,
    KConfig,
    KernelParams,
    ProcessKind,
    SimConfig,
    Window,
    center,
    csr_reference,
    inset_window,
    k_function,
    make_dataset,
    pair_distances,
    read_fibers,
    segment,
    write_fibers,
)
from fiberk import backends, fiber_core, kfunction
from fiberk.kfunction import _candidate_pairs

from conftest import all_pairs_reference, rebinned_k
from reference_impls import center_and_pack_per_fiber

MASS = CenterFunctionKind.MASS_CENTER
PAPER = KernelParams(p=2.0, sigma=100.0 / 3.0)


def small_config(t_grid=(10.0, 20.0), s_grid=(50.0, 200.0), **kw):
    return KConfig(kernel=PAPER, t_grid=np.asarray(t_grid), s_grid=np.asarray(s_grid), **kw)


def line_at(cx, cy, cz, fid, length=10.0):
    h = length / 2
    return Fiber(fid, [[cx - h, cy, cz], [cx + h, cy, cz]])


class TestWindow:
    def test_volume(self):
        w = Window(np.zeros(3), np.array([2.0, 3.0, 4.0]))
        assert w.volume == 24.0

    def test_half_open_membership(self):
        w = Window(np.zeros(3), np.ones(3))
        assert w.contains([[0, 0, 0]])[0]
        assert not w.contains([[1.0, 0.5, 0.5]])[0]

    def test_invalid_corners(self):
        with pytest.raises(ValueError):
            Window(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="window corners must be 3-vectors"):
            Window(np.zeros(2), np.ones(3))

    def test_corners_share_the_fiber_coordinate_bound(self):
        b = fiber_core.MAX_COORDINATE
        assert Window(np.full(3, -b), np.full(3, b)).volume == pytest.approx(8 * b**3)
        with pytest.raises(ValueError, match="within"):
            Window(np.zeros(3), np.full(3, 1e200))
        with pytest.raises(ValueError, match="finite"):
            Window(np.zeros(3), np.array([1.0, np.nan, 1.0]))


class TestKConfig:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            small_config(t_grid=(10.0, 5.0))

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            small_config(s_grid=(0.0, 10.0))

    def test_default_spacing_is_sigma_over_20(self):
        assert small_config().resolved_spacing == pytest.approx(PAPER.sigma / 20.0)

    def test_cell_limit_is_inclusive(self):
        assert kfunction.MAX_K_CELLS == 10**6
        grid = np.arange(1.0, 1001.0)
        small_config(t_grid=grid, s_grid=grid)
        with pytest.raises(ValueError, match="1001 x 1000 .* 1001000 cells, more than 1000000"):
            small_config(t_grid=np.arange(1.0, 1002.0), s_grid=grid)


class TestAtomLimits:
    def fibers(self, n):
        return [line_at(10.0 * i, 0, 0, str(i), length=20.0) for i in range(n)]

    def test_atoms_per_fiber(self, monkeypatch):
        # 20 / (sigma / 20) -> 12 atoms per fiber, so one pair block has 144
        monkeypatch.setattr(kfunction.backends, "MAX_PAIR_EVALS", 144)
        k_function(self.fibers(3), small_config(), Window(np.full(3, -50.0), np.full(3, 50.0)))
        monkeypatch.setattr(kfunction.backends, "MAX_PAIR_EVALS", 143)
        with pytest.raises(ValueError, match="fiber 0: spacing .* 12 atoms, more than 11 per"):
            k_function(self.fibers(3), small_config(), Window(np.full(3, -50.0), np.full(3, 50.0)))

    def test_atom_total_stops_before_the_next_fiber(self, monkeypatch):
        centered = []
        real = kfunction.center
        monkeypatch.setattr(
            kfunction, "center", lambda f, kind: centered.append(f.id) or real(f, kind)
        )
        monkeypatch.setattr(kfunction, "MAX_TOTAL_ATOMS", 3 * 12)
        spacing = small_config().resolved_spacing
        kfunction._center_and_pack(self.fibers(3), MASS, spacing)
        centered.clear()
        with pytest.raises(ValueError, match="fiber 3: .* atom total to 48, more than 36 in"):
            kfunction._center_and_pack(self.fibers(5), MASS, spacing)
        assert centered == ["0", "1", "2", "3"]


@pytest.mark.parametrize("kind", list(CenterFunctionKind))
@pytest.mark.parametrize("n_fibers, length", [(0, None), (1, None), (40, 4.0), (40, None)])
def test_center_and_pack_matches_the_per_fiber_reference(kind, n_fibers, length):
    # the offsets come from one cumsum of the current sizes, and each centered
    # copy is checked in full only past half the coordinate bound: the same
    # centers, atoms and offsets as packing one full check at a time
    cfg = SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=max(n_fibers, 1), seed=3)
    fibers = make_dataset(cfg)[:n_fibers]
    if length is not None:
        fibers = [piece for f in fibers for piece in segment(f, length)]
    spacing = PAPER.sigma / 20.0
    got = kfunction._center_and_pack(fibers, kind, spacing)
    want = center_and_pack_per_fiber(fibers, kind, spacing)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


class TestWindowCount:
    """``KResult.n_in_window`` and ``intensity_hat`` are the count of centers
    in the window and N / |W|."""

    def test_count_over_volume(self):
        w = Window(np.zeros(3), np.ones(3))
        fibers = [line_at(0.5, 0.5, 0.5, "a", 0.2), line_at(0.4, 0.5, 0.5, "b", 0.2)]
        res = k_function(fibers, small_config(), w)
        assert (res.n_in_window, res.intensity_hat) == (2, 2.0)

    def test_upper_face_excluded(self):
        w = Window(np.zeros(3), np.ones(3))
        fibers = [line_at(0.5, 1.0, 0.5, "a", 0.2), line_at(0.5, 0.0, 0.5, "b", 0.2)]
        assert k_function(fibers, small_config(), w).n_in_window == 1

    def test_binomial_expectation(self):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=500, seed=42)
        centers = [center(f, MASS).original_center for f in make_dataset(cfg)]
        n = int(Window(np.full(3, 13.0), np.full(3, 87.0)).contains(centers).sum())
        p = (74.0 / 100.0) ** 3
        mean, sd = 500 * p, math.sqrt(500 * p * (1 - p))
        assert abs(n - mean) <= 3 * sd

    @pytest.mark.parametrize("e", [-350, -365])
    def test_a_volume_too_small_for_the_count_is_refused(self, e):
        # 2^-350: the volume is subnormal and n / volume overflows; 2^-365:
        # the volume underflows to 0
        fibers = _scaled(_dataset(seed=1, n=150, process=ProcessKind.CLUSTERED_LINES), e)
        w = inset_window(fibers, MASS, 0.13)
        cfg = small_config(t_grid=(2.0**e,), s_grid=(2.0**e,))
        message = r"^window volume \S+ is too small: the intensity \d+ / volume is not finite$"
        with pytest.raises(ValueError, match=message):
            k_function(fibers, cfg, w)


class TestCsrReference:
    def test_unit_ball(self):
        assert csr_reference(1.0) == pytest.approx(4.18879020, abs=1e-7)

    def test_scaling(self):
        assert csr_reference(10.0) == pytest.approx(4188.79020, abs=1e-4)
        assert csr_reference(20.0) / csr_reference(10.0) == pytest.approx(8.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            csr_reference(0.0)


class TestKFunctionBasics:
    def test_single_fiber_is_zero(self):
        w = Window(np.zeros(3), np.full(3, 100.0))
        res = k_function([line_at(50, 50, 50, "a")], small_config(), w)
        assert np.all(res.k == 0.0)
        assert res.n_in_window == 1

    def test_two_identical_shapes(self):
        w = Window(np.zeros(3), np.full(3, 100.0))
        fibers = [line_at(50, 50, 50, "a"), line_at(50, 55, 50, "b")]
        cfg = small_config(t_grid=(4.0, 10.0), s_grid=(1.0, 50.0))
        res = k_function(fibers, cfg, w)
        # centers 5 apart, centered shapes identical (distance 0)
        assert np.all(res.k[0] == 0.0)  # t = 4 < 5
        assert np.all(res.k[1] == 1.0)  # 2 ordered pairs / N = 2

    def test_empty_window_error(self):
        w = Window(np.zeros(3), np.ones(3))
        with pytest.raises(EmptyWindowError):
            k_function([line_at(50, 50, 50, "a")], small_config(), w)

    def test_intensity_matches_definition(self):
        w = Window(np.zeros(3), np.full(3, 100.0))
        res = k_function([line_at(50, 50, 50, "a"), line_at(20, 20, 20, "b")], small_config(), w)
        assert res.intensity_hat == pytest.approx(res.n_in_window / w.volume)


def _dataset(seed=5, n=60, process=ProcessKind.UNIFORM_BROWNIAN):
    return make_dataset(SimConfig(process=process, n_fibers=n, seed=seed))


def _scaled(fibers, e):
    return [Fiber(f.id, f.points * 2.0**e) for f in fibers]


class TestScaleInvariance:
    """Coordinates, sigma, spacing, t and s scaled by c = 2^e: every product
    and quotient scales exactly, so K is bit-identical and the intensity
    exactly c^-3 times as large, until the window volume leaves the normal
    range."""

    @staticmethod
    def run(fibers, p, e):
        c = 2.0**e
        sigma = 100.0 / 3.0
        cfg = KConfig(
            kernel=KernelParams(p=p, sigma=sigma * c),
            t_grid=np.arange(5.0, 51.0, 5.0) * c,
            s_grid=np.arange(10.0, 101.0, 10.0) * c,
            spacing=sigma / 20.0 * c,
        )
        scaled = _scaled(fibers, e)
        return k_function(scaled, cfg, inset_window(scaled, MASS, 0.13))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "process",
        [ProcessKind.UNIFORM_BROWNIAN, ProcessKind.UNIFORM_LINES, ProcessKind.CLUSTERED_LINES],
    )
    def test_k_and_intensity_scale_exactly(self, process, p):
        fibers = _dataset(seed=1, n=150, process=process)
        want = self.run(fibers, p, 0)
        assert want.k[-1, -1] > want.k[0, 0] > 0
        for e in (-345, -300, -100, -7, 9, 100, 300):
            got = self.run(fibers, p, e)
            assert np.array_equal(got.k, want.k)
            assert got.intensity_hat == math.ldexp(want.intensity_hat, -3 * e)
        for e in (-350, -365):
            with pytest.raises(ValueError, match=r"^window volume \S+ is too small"):
                self.run(fibers, p, e)


# A straight 40-long fiber at spacing sigma / 20 has 24 atoms exactly sigma / 20
# apart, so its 8 ordered atom pairs (i, i + 20) lie on the sigma shell, where
# the p = inf kernel is exp(-1/2) within 1e-12 relative. Translated, they lie
# 1 to 2e-12 off the shell, and K moves by up to 0.092 (lines, both shifts),
# 0.036 (clustered, 1e6) and 0.217 (clustered, 1e9).
_ON_THE_SHELL = pytest.mark.xfail(
    strict=True, reason="p = inf: translation moves atom pairs of straight fibers off the shell"
)


class TestTranslationInvariance:
    """Fibers and window translated far from the origin: centering must not
    cancel catastrophically, so K stays bit-identical."""

    @staticmethod
    def k(fibers, p, window):
        cfg = KConfig(
            kernel=KernelParams(p=p, sigma=100.0 / 3.0),
            t_grid=np.arange(5.0, 51.0, 5.0),
            s_grid=np.arange(10.0, 101.0, 10.0),
        )
        return k_function(fibers, cfg, window).k

    @pytest.mark.parametrize("v", [(1e6, -1e6, 5e5), (1e9, -1e9, 5e8)], ids=["1e6", "1e9"])
    @pytest.mark.parametrize(
        "process, p",
        [
            pytest.param(
                process,
                p,
                marks=[_ON_THE_SHELL]
                if p == math.inf
                and process in (ProcessKind.UNIFORM_LINES, ProcessKind.CLUSTERED_LINES)
                else [],
                id=f"{process.value}-p{p:g}",
            )
            for process in ProcessKind
            for p in (1.0, 2.0, math.inf)
        ],
    )
    def test_k_is_bit_identical(self, process, p, v):
        fibers = _dataset(seed=1, n=150, process=process)
        window = inset_window(fibers, MASS, 0.13)
        want = self.k(fibers, p, window)
        assert want[-1, -1] > 0
        moved = [Fiber(f.id, f.points + v) for f in fibers]
        got = self.k(moved, p, Window(window.lower + v, window.upper + v))
        assert np.array_equal(got, want)


class TestListingDirection:
    """Listing a fiber's points backwards negates its current. The
    orientation-invariant shape distance ignores that for any set of fibers;
    the oriented one only when every fiber is reversed. Either way the pair
    records and K stay the same."""

    @pytest.mark.parametrize("oriented", [False, True], ids=["unoriented", "oriented"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
    def test_reversing_fibers_keeps_the_pairs_and_k(self, p, oriented):
        fibers = _dataset()
        step = 1 if oriented else 2
        reversed_fibers = [
            Fiber(f.id, f.points[::-1]) if i % step == 0 else f for i, f in enumerate(fibers)
        ]
        cfg = KConfig(
            kernel=KernelParams(p=p, sigma=100.0 / 3.0),
            t_grid=np.arange(5.0, 51.0, 5.0),
            s_grid=np.arange(1.0, 10.5, 0.5),
            orientation_invariant=not oriented,
        )
        window = inset_window(fibers, MASS, 0.13)
        want = pair_distances(fibers, cfg, window)
        got = pair_distances(reversed_fibers, cfg, window)
        assert [r[2] for r in got] == [r[2] for r in want]
        assert np.allclose([r[:2] for r in got], [r[:2] for r in want], rtol=1e-12, atol=0)
        k = k_function(fibers, cfg, window).k
        assert 0 < k[-1, 0] < k[-1, -1]
        assert np.array_equal(k_function(reversed_fibers, cfg, window).k, k)


class TestKFunctionProperties:
    def test_grid_monotonicity(self):
        fibers = _dataset()
        cfg = small_config(t_grid=(5.0, 15.0, 30.0, 60.0), s_grid=(5.0, 20.0, 60.0, 200.0))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        k = k_function(fibers, cfg, w).k
        assert np.all(np.diff(k, axis=0) >= 0)
        assert np.all(np.diff(k, axis=1) >= 0)

    def test_saturation(self):
        fibers = _dataset(n=30)
        cfg = small_config(t_grid=(500.0,), s_grid=(500.0,))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        res = k_function(fibers, cfg, w)
        # every ordered pair with first center in the window qualifies
        assert res.k[0, 0] * res.n_in_window == res.n_in_window * (len(fibers) - 1)

    def test_translation_invariance(self):
        fibers = _dataset(n=40)
        cfg = small_config(t_grid=(10.0, 30.0), s_grid=(20.0, 200.0))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        v = np.array([11.0, -7.0, 3.0])
        k0 = k_function(fibers, cfg, w).k
        moved = [Fiber(f.id, f.points + v) for f in fibers]
        k1 = k_function(moved, cfg, Window(w.lower + v, w.upper + v)).k
        assert np.allclose(k0, k1, atol=1e-9)

    def test_normalization_exact_counts(self):
        fibers = _dataset(n=50)
        cfg = small_config(t_grid=(10.0, 30.0, 60.0), s_grid=(20.0, 60.0, 200.0))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        res = k_function(fibers, cfg, w)
        counts = res.k * res.n_in_window
        assert np.allclose(counts, np.rint(counts), atol=1e-9)

    def test_orientation_toggle(self):
        fibers = _dataset(n=40, process=ProcessKind.UNIFORM_LINES)
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        k_inv = k_function(fibers, small_config(orientation_invariant=True), w).k
        k_ori = k_function(fibers, small_config(orientation_invariant=False), w).k
        assert np.all(k_inv >= k_ori)

    def test_bucketed_equals_all_pairs(self, monkeypatch):
        fibers = _dataset(n=50)
        cfg = small_config(t_grid=(10.0, 40.0), s_grid=(20.0, 200.0))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        k_b = k_function(fibers, cfg, w).k
        monkeypatch.setattr(kfunction, "_candidate_pairs", all_pairs_reference)
        k_a = k_function(fibers, cfg, w).k
        assert np.array_equal(k_b, k_a)


def _assert_same_pairs(got, want):
    assert got[0].dtype == got[1].dtype == np.int64
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@given(
    n=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rmax=st.sampled_from([None, 0.5, 1.0, 7.0]),
    offset=st.sampled_from([0.0, 1e6, -1e6, 1e12]),
    layout=st.sampled_from(["uniform", "cell_edges", "one_ulp_off_edges"]),
)
@settings(max_examples=150, deadline=None)
def test_property_candidate_pairs_match_all_pairs(n, seed, rmax, offset, layout):
    rng = np.random.default_rng(seed)
    scale = 1.0 if rmax is None else rmax
    if layout == "uniform":
        centers = rng.uniform(-6.0, 6.0, (n, 3)) * scale
    else:
        # integer multiples of rmax: many pairs exactly rmax apart
        centers = rng.integers(-4, 5, (n, 3)) * scale
    centers = centers + offset
    if layout == "one_ulp_off_edges":
        centers = np.nextafter(centers, np.where(rng.random((n, 3)) < 0.5, -np.inf, np.inf))
    in_window = rng.random(n) < 0.6
    want = all_pairs_reference(centers, in_window, rmax)
    _assert_same_pairs(_candidate_pairs(centers, in_window, rmax), want)


def test_candidate_pair_found_when_rounding_puts_it_on_a_cell_edge():
    # 2.0 - (1 - 2^-53) rounds to exactly 1.0, but floor(x / 1.0) puts the
    # two centers two cells apart.
    centers = np.array([[2.0, 0.0, 0.0], [np.nextafter(1.0, 0.0), 0.0, 0.0]])
    in_window = np.ones(2, dtype=bool)
    assert np.linalg.norm(centers[0] - centers[1]) == 1.0
    _assert_same_pairs(_candidate_pairs(centers, in_window, 1.0), ([0], [1]))


class TestPairDistances:
    def test_two_fibers_mirrored(self):
        w = Window(np.zeros(3), np.full(3, 100.0))
        fibers = [line_at(50, 50, 50, "a"), line_at(50, 55, 50, "b")]
        recs = pair_distances(fibers, small_config(), w)
        assert len(recs) == 2
        (cd0, sd0, ids0), (cd1, sd1, ids1) = recs
        assert (cd0, sd0) == (cd1, sd1)
        assert ids0 == ("a", "b") and ids1 == ("b", "a")

    def test_window_filters_first_element_only(self):
        w = Window(np.full(3, 45.0), np.full(3, 60.0))
        fibers = [line_at(50, 50, 50, "inside"), line_at(50, 58, 70, "outside")]
        recs = pair_distances(fibers, small_config(t_grid=(50.0,)), w)
        assert [r[2][0] for r in recs] == ["inside"]

    def test_no_window_and_no_bound_give_every_ordered_pair(self):
        fibers = [line_at(10.0 * i, 0, 0, str(i)) for i in range(4)] + [line_at(1e6, 0, 0, "far")]
        recs = pair_distances(fibers, small_config(), None, max_center_distance=None)
        ids = [f.id for f in fibers]
        assert [r[2] for r in recs] == sorted((a, b) for a in ids for b in ids if a != b)
        assert max(r[0] for r in recs) == pytest.approx(1e6)

    def test_recount_matches_k_function(self):
        fibers = _dataset(n=50)
        cfg = small_config(t_grid=(10.0, 30.0, 60.0), s_grid=(20.0, 60.0, 200.0))
        w = Window(np.full(3, 13.0), np.full(3, 87.0))
        res = k_function(fibers, cfg, w)
        recs = pair_distances(fibers, cfg, w)
        for i, t in enumerate(cfg.t_grid):
            for j, s in enumerate(cfg.s_grid):
                count = sum(1 for cd, sd, _ in recs if cd <= t and sd <= s)
                assert count == int(round(res.k[i, j] * res.n_in_window))


class TestCertifiedBinning:
    """At p = 2 k_function bins most pairs from Taylor-feature sums with a
    proven error bound and sums only the rest exactly; pair_distances sums
    every pair exactly, so its distances, re-binned, must give the same K."""

    @staticmethod
    def exact_pair_counts(monkeypatch):
        """How many pairs each call of the exact pair kernel sums."""
        counts = []
        real = backends.pair_inner_products

        def spy(pos, tan, offsets, ia, ib, p, sigma):
            counts.append(len(ia))
            return real(pos, tan, offsets, ia, ib, p, sigma)

        monkeypatch.setattr(backends, "pair_inner_products", spy)
        return counts

    @pytest.mark.parametrize("oriented", [False, True])
    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_s_edges_on_and_one_ulp_beside_exact_distances(self, monkeypatch, process, oriented):
        # At spacing sigma / 60 a fiber of length 40 has 72 atoms, so every
        # process takes the Taylor form; the edges sit on every other exact
        # distance and one ulp either side of it
        fibers = _dataset(seed=2, n=80, process=process)
        config = KConfig(
            kernel=PAPER,
            t_grid=np.array([25.0, 50.0]),
            s_grid=np.array([1.0]),
            orientation_invariant=not oriented,
            spacing=PAPER.sigma / 60,
        )
        window = inset_window(fibers, MASS, 0.13)
        records = pair_distances(fibers, config, window, max_center_distance=50.0)
        d = np.unique([sd for _, sd, _ in records])[::2]
        edges = np.unique([np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)])
        config = KConfig(
            kernel=PAPER,
            t_grid=config.t_grid,
            s_grid=edges[edges > 0],
            orientation_invariant=not oriented,
            spacing=config.spacing,
        )
        counts = self.exact_pair_counts(monkeypatch)
        got = k_function(fibers, config, window)
        want = rebinned_k(records, config.t_grid, config.s_grid, got.n_in_window)
        assert got.k.tolist() == want.tolist()
        # the exact sums ran, and for fewer than the unordered pairs
        assert len(counts) == 1 and 0 < 2 * counts[0] < len(records)

    def test_paper_grids_decide_every_pair_of_brownian_seed_1(self, monkeypatch):
        fibers = _dataset(seed=1, n=500)
        config = KConfig(
            kernel=PAPER, t_grid=np.arange(5.0, 51.0, 5.0), s_grid=np.arange(10.0, 101.0, 10.0)
        )
        counts = self.exact_pair_counts(monkeypatch)
        k_function(fibers, config, inset_window(fibers, MASS, 0.13))
        assert counts == [0]


class TestInsetWindow:
    def test_matches_paper_fraction(self):
        fibers = _dataset(n=300, process=ProcessKind.UNIFORM_LINES)
        w = inset_window(fibers, MASS, 0.13)
        assert np.all(w.lower > 5.0) and np.all(w.lower < 20.0)
        assert np.all(w.upper > 80.0) and np.all(w.upper < 95.0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            inset_window(_dataset(n=5), MASS, 0.7)

    @pytest.mark.parametrize("kind", list(CenterFunctionKind))
    def test_uses_the_exact_centers_of_center(self, kind):
        fibers = _dataset(n=40)
        centers = np.array([center(f, kind).original_center for f in fibers])
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        w = inset_window(fibers, kind, 0.13)
        assert np.array_equal(w.lower, lo + 0.13 * (hi - lo))
        assert np.array_equal(w.upper, hi - 0.13 * (hi - lo))

    @pytest.mark.parametrize("kind", list(CenterFunctionKind))
    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_kept_centers_cannot_be_seen(self, tmp_path, process, kind):
        # a fiber keeps the center inset_window computed; of three reads of one
        # file, `used` goes through inset_window (the other kind first, then
        # `kind`) and `fresh` and `reference` do not
        path, again = tmp_path / "f.fib", tmp_path / "g.fib"
        cfg = small_config(center_kind=kind)
        for seed in (1, 2, 3):
            fibers = _dataset(seed=seed, n=40, process=process)
            for fs in (fibers, [p for f in fibers for p in segment(f, 4.0)]):
                write_fibers(fs, path)
                fresh, used, reference = read_fibers(path), read_fibers(path), read_fibers(path)
                for k in sorted(CenterFunctionKind, key=lambda k: k is kind):  # kind last
                    w = inset_window(used, k, 0.13)
                centers = np.array([center(f, kind).original_center for f in reference])
                lo, hi = centers.min(axis=0), centers.max(axis=0)
                assert w.lower.tobytes() == (lo + 0.13 * (hi - lo)).tobytes()
                assert w.upper.tobytes() == (hi - 0.13 * (hi - lo)).tobytes()
                assert used == fresh
                assert [repr(f) for f in used] == [repr(f) for f in fresh]
                write_fibers(used, again)
                assert again.read_bytes() == path.read_bytes()
                want, got = k_function(fresh, cfg, w), k_function(used, cfg, w)
                assert got.k.tobytes() == want.k.tobytes()
                assert (got.n_in_window, got.intensity_hat) == (want.n_in_window, want.intensity_hat)

    def test_needs_a_fiber(self):
        with pytest.raises(ValueError, match="empty fiber list"):
            inset_window([], MASS, 0.13)

    def test_centers_in_one_plane_are_refused(self):
        fibers = [line_at(10, 10, 50, "a"), line_at(20, 30, 50, "b"), line_at(40, 20, 50, "c")]
        with pytest.raises(ValueError, match="degenerate center bounding box"):
            inset_window(fibers, MASS, 0.13)


def test_the_readme_quick_start_runs():
    # a deletion that breaks the documented library API fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
