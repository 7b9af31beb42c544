import math

import numpy as np
import pytest

from fiberk import simulate
from fiberk.fiber_core import MAX_COORDINATE
from fiberk import (
    CenterFunctionKind,
    ProcessKind,
    SimConfig,
    Window,
    arclength,
    center,
    gen_brownian,
    gen_clustered_line,
    gen_line,
    gen_spiral,
    make_dataset,
    sample_centers,
    write_fibers,
)

MASS = CenterFunctionKind.MASS_CENTER
_FAR_BOX = Window([0, 0, 0], [1e100] * 3)
_COLLAPSE = "consecutive fiber points must be distinct"


def shape_center_norm(fiber):
    return float(np.linalg.norm(center(fiber, MASS).original_center))


class TestSampleCenters:
    def test_containment(self, rng):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=1, seed=0)
        pts = sample_centers(cfg, rng)
        assert pts.shape == (1, 3)
        assert cfg.box.contains(pts)[0]

    def test_determinism(self):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=100, seed=9)
        a = sample_centers(cfg, np.random.default_rng(3))
        b = sample_centers(cfg, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_uniform_moments(self, rng):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=10000, seed=0)
        pts = sample_centers(cfg, rng)
        tol = 3 * (100 / np.sqrt(12)) / np.sqrt(10000)
        assert np.all(np.abs(pts.mean(axis=0) - 50.0) < tol)

    def test_clustered_round_robin(self, rng):
        cfg = SimConfig(
            process=ProcessKind.CLUSTERED_LINES, n_fibers=30, n_clusters=3,
            cluster_std=0.0, seed=0,
        )
        pts = sample_centers(cfg, rng)
        # zero offset spread: exactly n_clusters distinct centers
        assert len(np.unique(pts.round(9), axis=0)) == 3


class TestGenerators:
    def test_line_arclength_and_endpoints(self, rng):
        f = gen_line(40.0, rng)
        assert arclength(f) == pytest.approx(40.0, rel=1e-12)
        d = f.points[-1] - f.points[0]
        assert np.linalg.norm(d) == pytest.approx(40.0, rel=1e-12)
        assert np.allclose(f.points[0], -f.points[-1], atol=1e-9)

    def test_line_direction_uniform_on_sphere(self, rng):
        dirs = []
        for _ in range(10000):
            f = gen_line(2.0, rng, points_per_fiber=2)
            d = f.points[-1] - f.points[0]
            dirs.append(d / np.linalg.norm(d))
        assert np.linalg.norm(np.mean(dirs, axis=0)) <= 0.03

    def test_spiral_arclength_and_centering(self, rng):
        f = gen_spiral(40.0, rng, points_per_fiber=100)
        assert arclength(f) == pytest.approx(40.0, abs=1e-9)
        assert shape_center_norm(f) < 1e-9

    def test_spiral_rotations_differ(self):
        a = gen_spiral(40.0, np.random.default_rng(1))
        b = gen_spiral(40.0, np.random.default_rng(2))
        assert not np.allclose(a.points, b.points)

    def test_spiral_rejects_impossible_radius(self, rng):
        with pytest.raises(ValueError):
            gen_spiral(40.0, rng, radius=20.0, turns=3.0)

    @pytest.mark.parametrize("generate", [gen_line, gen_spiral, gen_brownian])
    def test_rejects_length_zero(self, rng, generate):
        with pytest.raises(ValueError, match="length must be > 0"):
            generate(0.0, rng)

    def test_spiral_huge_length_is_a_value_error(self, rng):
        # the pitch is formed without squaring length / (2 pi turns), so the
        # failure is the finite-coordinate check, not an OverflowError
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            gen_spiral(1e308, rng)

    def test_brownian_arclength_and_centering(self, rng):
        f = gen_brownian(40.0, rng)
        assert arclength(f) == pytest.approx(40.0, abs=1e-9)
        assert shape_center_norm(f) < 1e-9

    def test_brownian_end_to_end_contracts(self, rng):
        dists = [
            np.linalg.norm(f.points[-1] - f.points[0])
            for f in (gen_brownian(40.0, rng) for _ in range(1000))
        ]
        assert np.mean(dists) < 40.0

    def test_clustered_line_zero_jitter(self, rng):
        base = np.array([0.0, 0.0, 1.0])
        f = gen_clustered_line(base, 0.0, 40.0, rng)
        d = f.points[-1] - f.points[0]
        assert np.allclose(d / np.linalg.norm(d), base, atol=1e-12)
        assert arclength(f) == pytest.approx(40.0, rel=1e-12)

    def test_clustered_line_small_angles(self, rng):
        base = np.array([1.0, 0.0, 0.0])
        angles = []
        for _ in range(1000):
            f = gen_clustered_line(base, 0.1, 40.0, rng)
            d = f.points[-1] - f.points[0]
            d = d / np.linalg.norm(d)
            angles.append(np.degrees(np.arccos(np.clip(abs(d @ base), -1, 1))))
        assert np.mean(angles) < 15.0

    @pytest.mark.parametrize(
        "generate",
        [
            gen_line,
            gen_spiral,
            gen_brownian,
            lambda length, rng: gen_clustered_line([0.0, 0.0, 1.0], 0.1, length, rng),
        ],
        ids=["line", "spiral", "brownian", "clustered"],
    )
    def test_arclength_is_length_up_to_rounding(self, generate):
        # not exact: rescaling and centering round, by up to 6 ulps of 40
        rng = np.random.default_rng(1)
        for _ in range(500):
            assert abs(arclength(generate(40.0, rng)) - 40.0) <= 8 * math.ulp(40.0)

    def test_clustered_line_requires_unit_direction(self, rng):
        with pytest.raises(ValueError):
            gen_clustered_line([2.0, 0, 0], 0.1, 40.0, rng)


class TestMakeDataset:
    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_determinism_and_lengths(self, process):
        cfg = SimConfig(process=process, n_fibers=25, seed=11)
        a = make_dataset(cfg)
        b = make_dataset(cfg)
        assert a == b
        for f in a:
            assert arclength(f) == pytest.approx(40.0, rel=1e-6)

    def test_ids_sequential(self):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=5, seed=0)
        assert [f.id for f in make_dataset(cfg)] == ["0", "1", "2", "3", "4"]

    def test_recomputed_centers_match_sampled(self):
        cfg = SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=20, seed=4)
        fibers = make_dataset(cfg)
        from fiberk.simulate import _rng_streams

        rng_c, _ = _rng_streams(cfg)
        centers = sample_centers(cfg, rng_c)
        for f, c in zip(fibers, centers):
            assert np.allclose(center(f, MASS).original_center, c, atol=1e-9)

    def test_uniform_centers_in_box(self):
        cfg = SimConfig(process=ProcessKind.UNIFORM_SPIRALS, n_fibers=50, seed=2)
        fibers = make_dataset(cfg)
        centers = np.array([center(f, MASS).original_center for f in fibers])
        assert np.all(cfg.box.contains(centers))

    def test_shape_stream_independent_of_centers(self):
        base = dict(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=15, shape_seed=77)
        a = make_dataset(SimConfig(center_seed=1, **base))
        b = make_dataset(SimConfig(center_seed=2, **base))
        for fa, fb in zip(a, b):
            sa = center(fa, MASS).fiber
            sb = center(fb, MASS).fiber
            assert np.allclose(sa.points, sb.points, atol=1e-9)

    def test_poisson_count_mode(self):
        cfg = SimConfig(
            process=ProcessKind.UNIFORM_LINES, n_fibers=50, seed=3, poisson_count=True
        )
        fibers = make_dataset(cfg)
        assert len(fibers) != 0
        assert make_dataset(cfg) == fibers

    def test_serialization_determinism(self, tmp_path):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=10, seed=8)
        p1, p2 = tmp_path / "a.fib", tmp_path / "b.fib"
        write_fibers(make_dataset(cfg), p1)
        write_fibers(make_dataset(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSimConfigBounds:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("fiber_length", math.inf),
            ("fiber_length", math.nan),
            ("fiber_length", 0.0),
            ("fiber_length", 1e308),
            ("cluster_std", math.nan),
            ("cluster_std", math.inf),
            ("cluster_std", -1.0),
            ("direction_jitter_std", math.nan),
            ("direction_jitter_std", -0.1),
            ("direction_jitter_std", 1e154),
            ("points_per_fiber", 1),
            ("n_clusters", 0),
        ],
    )
    def test_rejects_impossible_shape_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(process=ProcessKind.CLUSTERED_LINES, **{field: value})

    def test_largest_admitted_direction_jitter(self):
        # 1e154 and above overflowed when the jittered direction was normalized
        cfg = SimConfig(
            process=ProcessKind.CLUSTERED_LINES, n_fibers=30, direction_jitter_std=MAX_COORDINATE
        )
        assert len(make_dataset(cfg)) == 30
        with pytest.raises(ValueError, match=r"^direction_jitter_std must be <= 1e\+100$"):
            SimConfig(process=ProcessKind.CLUSTERED_LINES, direction_jitter_std=2 * MAX_COORDINATE)

    @pytest.mark.parametrize("field", ["seed", "center_seed", "shape_seed"])
    def test_rejects_a_negative_seed_by_name(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            SimConfig(process=ProcessKind.UNIFORM_LINES, **{field: -1})
        SimConfig(process=ProcessKind.UNIFORM_LINES, **{field: 0})

    def test_longest_admitted_fiber(self):
        cfg = SimConfig(
            process=ProcessKind.UNIFORM_SPIRALS, n_fibers=2, fiber_length=simulate.MAX_FIBER_LENGTH
        )
        for f in make_dataset(cfg):
            assert arclength(f) == pytest.approx(simulate.MAX_FIBER_LENGTH, rel=1e-9)

    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_total_points_bounded(self, process):
        # one point over the bound is refused by the constructor, before any
        # array exists; clustered datasets count each cluster center as a point
        clusters = 10 if process is ProcessKind.CLUSTERED_LINES else 0
        n = (simulate.MAX_TOTAL_POINTS - clusters) // 100
        SimConfig(process=process, n_fibers=n, points_per_fiber=100, n_clusters=10)
        with pytest.raises(ValueError, match="more than 4000000 in total"):
            SimConfig(process=process, n_fibers=n, points_per_fiber=101, n_clusters=10)
        with pytest.raises(ValueError, match="more than 4000000 in total"):
            SimConfig(process=process, n_fibers=n + 1, points_per_fiber=100, n_clusters=10)

    @staticmethod
    def assert_refused(cfg, i, reason):
        center = simulate.sample_centers(cfg, simulate._rng_streams(cfg)[0])[i]
        with pytest.raises(ValueError) as info:
            make_dataset(cfg)
        want = f"fiber {i} (length {cfg.fiber_length:g}, center {center}): {reason}"
        assert str(info.value) == want

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            (dict(process=ProcessKind.UNIFORM_LINES, box=_FAR_BOX), _COLLAPSE),
            (dict(process=ProcessKind.CLUSTERED_LINES, cluster_std=1e100), _COLLAPSE),
            (dict(process=ProcessKind.UNIFORM_BROWNIAN, fiber_length=1e-300), _COLLAPSE),
            (
                dict(process=ProcessKind.UNIFORM_SPIRALS, fiber_length=1e-300),
                "the shape's length is 0 in floating point",
            ),
        ],
        ids=["far-box", "cluster-std", "brownian-short", "spirals-short"],
    )
    def test_collapsing_points_name_the_fiber(self, overrides, reason):
        # 40-long fibers next to centers near 1e100, and 1e-300-long fibers
        # anywhere, have consecutive points that are equal in floats; a
        # 1e-300-long spiral already has length 0 before it is placed
        self.assert_refused(SimConfig(n_fibers=3, **overrides), 0, reason)

    @pytest.mark.parametrize(
        "overrides, index",
        [
            (dict(process=ProcessKind.UNIFORM_LINES, box=_FAR_BOX), 21),
            (dict(process=ProcessKind.CLUSTERED_LINES, cluster_std=1e100), 1),
        ],
        ids=["far-box", "cluster-std"],
    )
    def test_fibers_beyond_the_bound_name_the_fiber(self, overrides, index):
        # 1e99-long fibers whose centers lie in a box reaching 1e100, or are
        # offset from their cluster by a spread of 1e100: at seed 0 the first
        # one to leave the coordinate bound is fiber `index`
        cfg = SimConfig(n_fibers=30, fiber_length=1e99, **overrides)
        self.assert_refused(cfg, index, "fiber coordinates must be within +-1e+100")

    def test_poisson_draw_bounded(self, monkeypatch):
        # the mean is at the bound and the draw above it: refused before any
        # center is sampled
        def no_centers(*args, **kwargs):
            raise AssertionError("sample_centers called")

        monkeypatch.setattr(simulate, "MAX_TOTAL_POINTS", 100)
        monkeypatch.setattr(simulate, "sample_centers", no_centers)
        # make_dataset's first draw from the center stream is the count; the
        # center stream of center_seed s is SeedSequence(s, spawn_key=(0,))
        seed = next(
            s
            for s in range(100)
            if np.random.default_rng(np.random.SeedSequence(s, spawn_key=(0,))).poisson(50) > 50
        )
        cfg = SimConfig(
            process=ProcessKind.UNIFORM_LINES,
            n_fibers=50,
            points_per_fiber=2,
            poisson_count=True,
            center_seed=seed,
        )
        with pytest.raises(ValueError, match="more than 100 in total"):
            make_dataset(cfg)


class TestSeeding:
    @pytest.mark.parametrize("overrides", [{}, {"center_seed": 5}, {"shape_seed": 6}])
    def test_streams_are_the_spawned_children(self, overrides):
        cfg = SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=3, seed=4, **overrides)
        seeds = (overrides.get("center_seed", 4), overrides.get("shape_seed", 4))
        for k, (stream, seed) in enumerate(zip(simulate._rng_streams(cfg), seeds)):
            child = np.random.SeedSequence(seed).spawn(2)[k]
            assert np.array_equal(stream.random(8), np.random.default_rng(child).random(8))

    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_an_override_equal_to_the_seed_changes_nothing(self, process):
        base = dict(process=process, n_fibers=12, seed=3)
        want = make_dataset(SimConfig(**base))
        assert make_dataset(SimConfig(center_seed=3, **base)) == want
        assert make_dataset(SimConfig(shape_seed=3, **base)) == want

    @pytest.mark.parametrize("process", list(ProcessKind))
    def test_each_override_moves_only_its_own_stream(self, process):
        def centers_and_shapes(**overrides):
            cfg = SimConfig(process=process, n_fibers=12, seed=3, **overrides)
            parts = [center(f, MASS) for f in make_dataset(cfg)]
            return (
                np.array([c.original_center for c in parts]),
                np.array([c.fiber.points for c in parts]),
            )

        centers, shapes = centers_and_shapes()
        new_centers, same_shapes = centers_and_shapes(center_seed=8)
        assert np.allclose(same_shapes, shapes, atol=1e-9)
        assert not np.allclose(new_centers, centers, atol=1e-9)
        same_centers, new_shapes = centers_and_shapes(shape_seed=8)
        assert np.allclose(same_centers, centers, atol=1e-9)
        assert not np.allclose(new_shapes, shapes, atol=1e-9)
