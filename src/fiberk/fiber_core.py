"""Polyline fiber geometry: arclength, resampling, centering, segmentation.

A fiber is an ordered 3D polyline and a window an axis-aligned box. Operations
are pure: they return new objects and never mutate inputs (arrays are read-only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "CenterFunctionKind",
    "Fiber",
    "CenteredFiber",
    "Window",
    "arclength",
    "resample",
    "center",
    "translate",
    "reverse",
    "segment",
]


# Most steps of one resample, pieces of one segment, and pieces of all fibers
# under kfun --segment-length. A piece costs about 0.8 kB of peak memory and
# 0.1 ms through kfun (3 fibers cut into 10,000 to 100,000 pieces, numpy 2.4
# on x86-64), so an admitted run stays under about 1 GiB.
MAX_PIECES = 10**6
# Largest coordinate magnitude a fiber, a center or a window corner may have,
# and largest extent of a fiber's points along each axis. Segment lengths are
# computed from squared coordinate differences, which overflow from about
# 1e154 on. A center lies within the bounding box of the points, so the extent
# bound keeps a centered copy within the coordinate bound too.
MAX_COORDINATE = 1e100


class CenterFunctionKind(Enum):
    """Translation-covariant center functions for a fiber."""

    MASS_CENTER = "mass"
    ARCLENGTH_MIDPOINT = "midpoint"


def _largest_coordinate(values, what: str) -> float:
    """The largest magnitude among ``values``. Raises ValueError naming
    ``what`` unless every value is finite and within +-``MAX_COORDINATE``."""
    largest = np.abs(values).max()
    if not largest <= MAX_COORDINATE:  # also catches nan
        if not np.isfinite(values).all():
            raise ValueError(f"{what} must be finite")
        raise ValueError(f"{what} must be within +-{MAX_COORDINATE:g}")
    return largest


def _validated_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("fiber points must be an (n, 3) array")
    if pts.shape[0] < 2:
        raise ValueError("a fiber needs at least 2 points")
    largest = _largest_coordinate(pts, "fiber coordinates")
    # only points beyond half the bound can span more than it
    if largest > 0.5 * MAX_COORDINATE and np.ptp(pts, axis=0).max() > MAX_COORDINATE:
        raise ValueError(f"fiber points must span at most {MAX_COORDINATE:g} along each axis")
    seg = pts[1:] - pts[:-1]
    if not np.einsum("ij,ij->i", seg, seg).all():
        raise ValueError("consecutive fiber points must be distinct")
    return pts


@dataclass(frozen=True, eq=False)
class Fiber:
    """An ordered 3D polyline with an identifier. Its center is computed on
    first use and kept, for the ``CenterFunctionKind`` asked for last."""

    id: str
    points: np.ndarray
    # (kind, center point); one slot, not one per kind, as a run uses one kind
    # and a dict per fiber costs about 0.5 MB of peak memory on 5,000 pieces
    _center: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = _validated_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "id", str(self.id))

    def __eq__(self, other):
        if not isinstance(other, Fiber):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.points, other.points)

    __hash__ = None

    def __repr__(self):
        return f"Fiber(id={self.id!r}, n_points={len(self.points)})"


@dataclass(frozen=True, eq=False)
class CenteredFiber:
    """A fiber translated so its center sits at the origin."""

    original_center: np.ndarray
    fiber: Fiber

    def __post_init__(self):
        c = np.ascontiguousarray(self.original_center, dtype=np.float64)
        if c.shape != (3,):
            raise ValueError("center must be a 3-vector")
        _largest_coordinate(c, "center")
        c.setflags(write=False)
        object.__setattr__(self, "original_center", c)


@dataclass(frozen=True, eq=False)
class Window:
    """Axis-aligned observation box. Membership is half-open: lower <= x < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.ascontiguousarray(self.lower, dtype=np.float64)
        hi = np.ascontiguousarray(self.upper, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("window corners must be 3-vectors")
        # bounded like fiber coordinates, so the volume cannot overflow
        _largest_coordinate((lo, hi), "window corners")
        if not np.all(lo < hi):
            raise ValueError("window must satisfy lower < upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    def translate(self, v) -> "Window":
        v = np.asarray(v, dtype=np.float64)
        return Window(self.lower + v, self.upper + v)


def _seg_lengths(pts: np.ndarray) -> np.ndarray:
    # np.linalg.norm(d, axis=1) for real d, without its wrapper
    d = pts[1:] - pts[:-1]
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _cumlen(pts: np.ndarray) -> np.ndarray:
    cum = np.empty(len(pts))
    cum[0] = 0.0
    np.cumsum(_seg_lengths(pts), out=cum[1:])
    return cum


def _points_at(pts: np.ndarray, cum: np.ndarray, s) -> np.ndarray:
    """Interpolate positions at arclength(s) ``s`` along the polyline."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty(s.shape + (3,))
    for k in range(3):
        out[..., k] = np.interp(s, cum, pts[:, k])
    return out


def arclength(fiber: Fiber) -> float:
    """Total Euclidean length of the polyline: the last cumulative length,
    the total that ``resample`` and ``segment`` cut by."""
    return float(_cumlen(fiber.points)[-1])


def _count_text(n: int | float) -> str:
    """A count for a message: exact below 2**53, else to 3 significant digits."""
    return str(int(n)) if n < 2**53 else f"{n:.3g}"


def _piece_count(total: float, max_length: float) -> int | float:
    """How many steps or pieces a fiber of arclength ``total`` is cut into at
    ``max_length > 0``: ``max(1, ceil(total / max_length - 1e-9))``, or inf
    when the ratio overflows."""
    # Python floats, so a ratio that overflows is inf without a numpy warning
    ratio = float(total) / float(max_length) - 1e-9
    return max(1, math.ceil(ratio)) if math.isfinite(ratio) else math.inf


def _counted(fiber: Fiber, length: float, name: str, limit: int, unit: str):
    """The cumulative arclengths of ``fiber`` and its ``_piece_count`` at
    ``length``. Raises ValueError unless ``length`` (called ``name``) is > 0
    and the count of ``unit`` is at most ``limit``."""
    if not length > 0:
        raise ValueError(f"{name} must be > 0")
    cum = _cumlen(fiber.points)
    n = _piece_count(cum[-1], length)
    if not n <= limit:
        raise ValueError(
            f"fiber {fiber.id}: {name} {length:g} gives {_count_text(n)} {unit},"
            f" more than {limit} per fiber"
        )
    return cum, n


def _step_grid(total: float, n: int) -> np.ndarray:
    """``np.linspace(0, total, n + 1)`` by its own arithmetic, without its
    Python overhead."""
    # no zero-step branch: an admitted fiber is >= ~1e-162 long and n <= MAX_PIECES
    grid = np.arange(n + 1, dtype=np.float64) * (total / n)
    grid[-1] = total
    return grid


def _resampled_points(fiber: Fiber, spacing: float, max_steps: int, unit: str) -> np.ndarray:
    """The ``n + 1`` points of ``fiber``'s ``n`` equal arclength steps at
    ``spacing``, endpoints exact; ``n`` is counted and bounded by ``_counted``."""
    pts = fiber.points
    cum, n = _counted(fiber, spacing, "spacing", max_steps, unit)
    out = _points_at(pts, cum, _step_grid(cum[-1], n))
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def resample(fiber: Fiber, spacing: float) -> Fiber:
    """Resample at equal arclength steps no larger than ``spacing`` (up to a
    relative 1e-9). Endpoints of the original polyline are preserved exactly;
    the output has ``max(1, ceil(arclength / spacing - 1e-9)) + 1`` points,
    at most ``MAX_PIECES + 1``, lying on the input polyline."""
    return Fiber(fiber.id, _resampled_points(fiber, spacing, MAX_PIECES, "steps"))


def _center_point(pts: np.ndarray, kind: CenterFunctionKind) -> np.ndarray:
    """The center of the polyline ``pts`` under the chosen center function."""
    if kind is CenterFunctionKind.MASS_CENTER:
        lens = _seg_lengths(pts)
        mids = 0.5 * (pts[:-1] + pts[1:])
        return (mids * lens[:, None]).sum(axis=0) / lens.sum()
    if kind is CenterFunctionKind.ARCLENGTH_MIDPOINT:
        cum = _cumlen(pts)
        return _points_at(pts, cum, 0.5 * cum[-1])
    raise ValueError(f"unknown center function kind: {kind}")  # pragma: no cover


def _center_of(fiber: Fiber, kind: CenterFunctionKind) -> np.ndarray:
    """``_center_point`` of ``fiber`` under ``kind``, read-only, computed once
    while ``kind`` is the last kind asked for."""
    if fiber._center is None or fiber._center[0] is not kind:
        c = _center_point(fiber.points, kind)
        c.setflags(write=False)
        object.__setattr__(fiber, "_center", (kind, c))
    return fiber._center[1]


def center(fiber: Fiber, kind: CenterFunctionKind) -> CenteredFiber:
    """Center the fiber with the chosen center function.

    ``MASS_CENTER`` is the arclength-weighted centroid (segment midpoints
    weighted by segment length, exact for polylines); ``ARCLENGTH_MIDPOINT``
    is the point at half the total arclength.
    """
    c = _center_of(fiber, kind)
    return CenteredFiber(original_center=c, fiber=Fiber(fiber.id, fiber.points - c))


def translate(fiber: Fiber, v) -> Fiber:
    """Shift every point by the vector ``v``."""
    v = np.asarray(v, dtype=np.float64)
    return Fiber(fiber.id, fiber.points + v)


def reverse(fiber: Fiber) -> Fiber:
    """Reverse the point order (opposite orientation)."""
    return Fiber(fiber.id, fiber.points[::-1])


def segment(fiber: Fiber, max_length: float) -> list[Fiber]:
    """Split by arclength into pieces of length ``max_length``.

    Cut points are interpolated on the polyline, so every piece except
    possibly the last has arclength exactly ``max_length``. Piece ids are
    ``<parent id>.<index>``.
    """
    pts = fiber.points
    cum, n = _counted(fiber, max_length, "max_length", MAX_PIECES, "pieces")
    total = cum[-1]
    if n == 1:
        return [Fiber(f"{fiber.id}.0", pts)]
    eps = 1e-9 * total
    cuts = np.append(np.arange(n) * max_length, total)
    ends = _points_at(pts, cum, cuts)
    # cum is nondecreasing, so the vertices strictly inside (s0 + eps, s1 - eps)
    # are one contiguous range
    first = np.searchsorted(cum, cuts[:-1] + eps, side="right")
    stop = np.searchsorted(cum, cuts[1:] - eps, side="left")
    return [
        Fiber(f"{fiber.id}.{k}", np.concatenate((ends[k : k + 1], pts[a:b], ends[k + 1 : k + 2])))
        for k, (a, b) in enumerate(zip(first.tolist(), stop.tolist()))
    ]
