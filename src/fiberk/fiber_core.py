"""Polyline fiber geometry: arclength, resampling, centering, segmentation.

A fiber is an ordered 3D polyline. All operations are pure: they return new
``Fiber`` objects and never mutate their inputs (point arrays are read-only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CenterFunctionKind",
    "Fiber",
    "CenteredFiber",
    "arclength",
    "resample",
    "center",
    "translate",
    "reverse",
    "segment",
]


# Most points resample may give one fiber; a finer spacing raises ValueError
# instead of allocating without bound.
MAX_RESAMPLE_POINTS = 10**7


class CenterFunctionKind(Enum):
    """Translation-covariant center functions for a fiber."""

    MASS_CENTER = "mass"
    ARCLENGTH_MIDPOINT = "midpoint"


def _validated_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("fiber points must be an (n, 3) array")
    if pts.shape[0] < 2:
        raise ValueError("a fiber needs at least 2 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("fiber coordinates must be finite")
    seg = np.diff(pts, axis=0)
    if np.any(np.einsum("ij,ij->i", seg, seg) == 0.0):
        raise ValueError("consecutive fiber points must be distinct")
    return pts


@dataclass(frozen=True, eq=False)
class Fiber:
    """An ordered 3D polyline with an identifier."""

    id: str
    points: np.ndarray

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
        if c.shape != (3,) or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 3-vector")
        c.setflags(write=False)
        object.__setattr__(self, "original_center", c)


def _seg_lengths(pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(pts, axis=0), axis=1)


def _cumlen(pts: np.ndarray) -> np.ndarray:
    cum = np.empty(len(pts))
    cum[0] = 0.0
    np.cumsum(_seg_lengths(pts), out=cum[1:])
    return cum


def _points_at(pts: np.ndarray, cum: np.ndarray, s) -> np.ndarray:
    """Interpolate positions at arclength(s) ``s`` along the polyline."""
    s = np.asarray(s, dtype=np.float64)
    return np.stack([np.interp(s, cum, pts[:, k]) for k in range(3)], axis=-1)


def arclength(fiber: Fiber) -> float:
    """Total Euclidean length of the polyline."""
    return float(_seg_lengths(fiber.points).sum())


def resample(fiber: Fiber, spacing: float) -> Fiber:
    """Resample at equal arclength steps no larger than ``spacing``.

    Endpoints of the original polyline are preserved exactly; the output has
    ``ceil(arclength / spacing) + 1`` points lying on the input polyline.
    """
    if not spacing > 0:
        raise ValueError("spacing must be > 0")
    pts = fiber.points
    cum = _cumlen(pts)
    total = cum[-1]
    # Python floats, so a ratio that overflows is inf without a numpy warning
    segs = float(total) / float(spacing) - 1e-12
    if not segs <= MAX_RESAMPLE_POINTS - 1:
        count = math.ceil(segs) + 1 if math.isfinite(segs) else "infinitely many"
        raise ValueError(
            f"fiber {fiber.id}: spacing {spacing:g} would resample it to {count} points,"
            f" more than {MAX_RESAMPLE_POINTS}"
        )
    n_seg = max(1, math.ceil(segs))
    targets = np.linspace(0.0, total, n_seg + 1)
    out = _points_at(pts, cum, targets)
    out[0] = pts[0]
    out[-1] = pts[-1]
    return Fiber(fiber.id, out)


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


def center(fiber: Fiber, kind: CenterFunctionKind) -> CenteredFiber:
    """Center the fiber with the chosen center function.

    ``MASS_CENTER`` is the arclength-weighted centroid (segment midpoints
    weighted by segment length, exact for polylines); ``ARCLENGTH_MIDPOINT``
    is the point at half the total arclength.
    """
    c = _center_point(fiber.points, kind)
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
    if not max_length > 0:
        raise ValueError("max_length must be > 0")
    pts = fiber.points
    cum = _cumlen(pts)
    total = cum[-1]
    n = max(1, math.ceil(total / max_length - 1e-9))
    if n == 1:
        return [Fiber(f"{fiber.id}.0", pts)]
    eps = 1e-9 * total
    pieces = []
    for k in range(n):
        s0 = k * max_length
        s1 = total if k == n - 1 else (k + 1) * max_length
        inner = pts[(cum > s0 + eps) & (cum < s1 - eps)]
        piece = np.vstack(
            [_points_at(pts, cum, s0)[None, :], inner, _points_at(pts, cum, s1)[None, :]]
        )
        pieces.append(Fiber(f"{fiber.id}.{k}", piece))
    return pieces
