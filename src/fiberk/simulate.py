"""Seeded generators for the reference fiber processes.

Four processes: uniformly rotated lines, uniformly rotated spirals, Brownian
fibers, and clustered perturbed lines. Center points and shapes are drawn
from two independent RNG streams so the shape marginal can be regenerated
independently of the centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fiber_core import MAX_COORDINATE, CenterFunctionKind, Fiber, Window, center

__all__ = [
    "ProcessKind",
    "SimConfig",
    "sample_centers",
    "gen_line",
    "gen_spiral",
    "gen_brownian",
    "gen_clustered_line",
    "make_dataset",
]

# Most points one dataset may have: fibers x points per fiber, plus one per
# cluster center. Through `fiberk simulate`, which writes its file a fiber at a
# time, each point costs about 25 B of peak memory and 2 us (400 and 2,000
# fibers of 1,000 points, numpy 2.4 on x86-64), so an admitted run stays under
# about 150 MiB.
MAX_TOTAL_POINTS = 4 * 10**6
# Longest fiber_length: it keeps a centered shape inside the coordinate bound and
# the generators' squared lengths inside the float range. A placed fiber may leave
# it (a box may reach it, cluster offsets are unbounded): make_dataset names it.
MAX_FIBER_LENGTH = MAX_COORDINATE / 10


class ProcessKind(Enum):
    UNIFORM_LINES = "lines"
    UNIFORM_SPIRALS = "spirals"
    UNIFORM_BROWNIAN = "brownian"
    CLUSTERED_LINES = "clustered"


@dataclass(frozen=True)
class SimConfig:
    """Dataset recipe: process, counts, geometry, and seeding.

    ``poisson_count`` replaces the fixed fiber count with a Poisson draw of
    mean ``n_fibers`` from the center stream. Centers and shapes come from
    two streams, the two children of ``SeedSequence(seed).spawn(2)``.
    ``center_seed`` and ``shape_seed`` each replace ``seed`` for their own
    stream only: an override equal to ``seed`` changes nothing, and
    overriding one stream leaves the other as it was.
    """

    process: ProcessKind
    n_fibers: int = 500
    fiber_length: float = 40.0
    box: Window = Window(np.zeros(3), np.full(3, 100.0))
    points_per_fiber: int = 100
    seed: int = 0
    n_clusters: int = 10
    cluster_std: float = 5.0
    direction_jitter_std: float = 0.1
    poisson_count: bool = False
    center_seed: int | None = None
    shape_seed: int | None = None

    def __post_init__(self):
        if self.n_fibers < 1:
            raise ValueError("n_fibers must be >= 1")
        if not 0 < self.fiber_length <= MAX_FIBER_LENGTH:
            raise ValueError(f"fiber_length must be > 0 and <= {MAX_FIBER_LENGTH:g}")
        for name in ("seed", "center_seed", "shape_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("cluster_std", "direction_jitter_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.direction_jitter_std > MAX_COORDINATE:
            raise ValueError(f"direction_jitter_std must be <= {MAX_COORDINATE:g}")
        if self.points_per_fiber < 2:
            raise ValueError("points_per_fiber must be >= 2")
        if self.process is ProcessKind.CLUSTERED_LINES and self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        _check_total_points(self, self.n_fibers)


def _check_total_points(config: SimConfig, n_fibers: int) -> None:
    what = f"{n_fibers} fibers of {config.points_per_fiber} points"
    points = n_fibers * config.points_per_fiber
    if config.process is ProcessKind.CLUSTERED_LINES:
        what += f" and {config.n_clusters} cluster centers"
        points += config.n_clusters
    if points > MAX_TOTAL_POINTS:
        raise ValueError(f"{what} are {points} points, more than {MAX_TOTAL_POINTS} in total")


def _unit_vector(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def _random_rotation(rng) -> np.ndarray:
    """Rotation matrix uniform on SO(3) from a uniform unit quaternion."""
    while True:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
        if n > 1e-12:
            break
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _centered(points: np.ndarray) -> Fiber:
    return center(Fiber("shape", points), CenterFunctionKind.MASS_CENTER).fiber


def _rescaled_to_length(points: np.ndarray, length: float) -> np.ndarray:
    total = np.linalg.norm(np.diff(points, axis=0), axis=1).sum()
    if total <= 0:
        raise ValueError("the shape's length is 0 in floating point")
    return points * (length / total)


def gen_line(
    length: float, rng, points_per_fiber: int = 100, direction=None
) -> Fiber:
    """Straight centered fiber with uniformly random direction on the sphere."""
    if not length > 0:
        raise ValueError("length must be > 0")
    d = _unit_vector(rng) if direction is None else np.asarray(direction, float)
    ts = np.linspace(-0.5 * length, 0.5 * length, points_per_fiber)
    return _centered(ts[:, None] * d[None, :])


def gen_spiral(
    length: float,
    rng,
    points_per_fiber: int = 100,
    radius: float | None = None,
    turns: float = 1.0,
) -> Fiber:
    """Uniformly rotated circular helix, rescaled so the polyline arclength is
    ``length`` up to rounding and then centered."""
    if not length > 0:
        raise ValueError("length must be > 0")
    r = length / 8.0 if radius is None else radius
    theta_max = 2.0 * math.pi * turns
    per_angle = length / theta_max
    if per_angle <= r:
        raise ValueError(
            "spiral radius too large for the requested length and turns"
        )
    q = r / per_angle  # per_angle**2 may overflow
    pitch = per_angle * math.sqrt((1.0 - q) * (1.0 + q))
    theta = np.linspace(0.0, theta_max, points_per_fiber)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), pitch * theta], axis=1)
    pts = pts @ _random_rotation(rng).T
    return _centered(_rescaled_to_length(pts, length))


def gen_brownian(length: float, rng, points_per_fiber: int = 100) -> Fiber:
    """Random-walk fiber: cumulative isotropic Gaussian steps rescaled so the
    polyline arclength is ``length`` up to rounding, then centered."""
    if not length > 0:
        raise ValueError("length must be > 0")
    steps = rng.standard_normal((points_per_fiber - 1, 3))
    pts = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    return _centered(_rescaled_to_length(pts, length))


def gen_clustered_line(
    base_direction, jitter_std: float, length: float, rng, points_per_fiber: int = 100
) -> Fiber:
    """Straight fiber along a jittered copy of ``base_direction``."""
    base = np.asarray(base_direction, float)
    if abs(np.linalg.norm(base) - 1.0) > 1e-9:
        raise ValueError("base_direction must be a unit vector")
    d = base + jitter_std * rng.standard_normal(3) if jitter_std > 0 else base
    d = d / np.linalg.norm(d)
    return gen_line(length, rng, points_per_fiber, direction=d)


def _rng_streams(config: SimConfig):
    """The center stream (k = 0) and the shape stream (k = 1): stream k is
    ``default_rng(SeedSequence(s, spawn_key=(k,)))`` with ``s`` its override
    or ``seed``, the k-th child of ``SeedSequence(s).spawn(2)``."""
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence(config.seed if s is None else s, spawn_key=(k,))
        )
        for k, s in enumerate((config.center_seed, config.shape_seed))
    )


def _uniform_in_box(box: Window, n: int, rng) -> np.ndarray:
    return rng.uniform(box.lower, box.upper, size=(n, 3))


def sample_centers(config: SimConfig, rng, n_fibers: int | None = None) -> np.ndarray:
    """Center points for a dataset.

    Uniform processes draw i.i.d. uniform points in the box (a binomial
    process). The clustered process draws uniform cluster centers, assigns
    fibers round-robin, and adds isotropic Gaussian offsets.
    """
    n = config.n_fibers if n_fibers is None else n_fibers
    if config.process is not ProcessKind.CLUSTERED_LINES:
        return _uniform_in_box(config.box, n, rng)
    cluster_centers = _uniform_in_box(config.box, config.n_clusters, rng)
    assignment = np.arange(n) % config.n_clusters
    offsets = config.cluster_std * rng.standard_normal((n, 3))
    return cluster_centers[assignment] + offsets


def make_dataset(config: SimConfig) -> list[Fiber]:
    """Generate the full dataset: shapes translated to sampled centers.

    Deterministic given the config (including seeds); fiber ids are the
    sequential indices as strings. Raises ValueError naming the first fiber
    that cannot be made, its length and center, and the reason: for example
    its points collapse in floating point or leave the coordinate bound.
    """
    rng_c, rng_s = _rng_streams(config)
    n = config.n_fibers
    if config.poisson_count:
        n = max(1, int(rng_c.poisson(config.n_fibers)))
        _check_total_points(config, n)
    centers = sample_centers(config, rng_c, n_fibers=n)
    ppf = config.points_per_fiber
    length = config.fiber_length
    # made one at a time, so a shape that fails is known by its index
    if config.process is ProcessKind.UNIFORM_LINES:
        shapes = (gen_line(length, rng_s, ppf) for _ in range(n))
    elif config.process is ProcessKind.UNIFORM_SPIRALS:
        shapes = (gen_spiral(length, rng_s, ppf) for _ in range(n))
    elif config.process is ProcessKind.UNIFORM_BROWNIAN:
        shapes = (gen_brownian(length, rng_s, ppf) for _ in range(n))
    elif config.process is ProcessKind.CLUSTERED_LINES:
        base_dirs = [_unit_vector(rng_s) for _ in range(config.n_clusters)]
        shapes = (
            gen_clustered_line(
                base_dirs[i % config.n_clusters],
                config.direction_jitter_std,
                length,
                rng_s,
                ppf,
            )
            for i in range(n)
        )
    else:  # pragma: no cover
        raise ValueError(f"unknown process: {config.process}")
    fibers = []
    for i, c in enumerate(centers):
        try:
            fibers.append(Fiber(str(i), next(shapes).points + c))
        except ValueError as exc:
            raise ValueError(f"fiber {i} (length {length:g}, center {c}): {exc}") from exc
    return fibers
