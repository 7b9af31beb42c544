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
    "segment",
]


# Most steps of one resample, pieces of one segment, and pieces of all fibers
# under kfun --segment-length. A piece costs about 1.1 kB of peak memory and
# 0.07 ms through kfun (3 fibers cut into 10,000 to 100,000 pieces, with a t
# grid too small for any pair, numpy 2.4 on x86-64), so an admitted run stays
# near 1 GiB.
MAX_PIECES = 10**6
# Largest coordinate magnitude a fiber, a center or a window corner may have,
# and largest extent of a fiber's points along each axis. Segment lengths are
# computed from squared coordinate differences, which overflow from about
# 1e154 on. A center lies within the bounding box of the points, so the extent
# bound keeps a centered copy within the coordinate bound too.
MAX_COORDINATE = 1e100
# Most points ``_validated_points`` checks and ``_centers`` stacks at once
# (96 KiB of coordinates), so their temporaries do not grow with the number of
# fibers. Checking a 50,000-point file at once raised kfun's peak RSS by
# 1.9 MiB, and centering in chunks of 2**14 points by 0.5 MiB on 5,000 pieces;
# chunks of 2**12 points raised neither.
_CHUNK_POINTS = 2**12


class CenterFunctionKind(Enum):
    """Translation-covariant center functions for a fiber."""

    MASS_CENTER = "mass"
    ARCLENGTH_MIDPOINT = "midpoint"


def _all_nonzero(values: np.ndarray) -> bool:
    """``values.all()``, by ``np.count_nonzero``, which needs no reduction:
    on the few values of a short fiber a reduction's set-up costs more than
    the test (about 2 us against 0.6, numpy 2.4 on x86-64)."""
    return np.count_nonzero(values) == values.size


def _largest_coordinate(values, what: str) -> float:
    """The largest magnitude among ``values``. Raises ValueError naming
    ``what`` unless every value is finite and within +-``MAX_COORDINATE``."""
    largest = np.abs(values).max()
    if not largest <= MAX_COORDINATE:  # also catches nan
        if not np.isfinite(values).all():
            raise ValueError(f"{what} must be finite")
        raise ValueError(f"{what} must be within +-{MAX_COORDINATE:g}")
    return largest


def _validated_points(points, starts=None) -> np.ndarray:
    """``points`` as a C-contiguous float64 array, checked as the fibers
    ``pts[starts[k]:starts[k + 1]]`` (``starts`` ascending from 0 to
    ``len(points)``; one fiber when it is None). Each fiber must have at
    least 2 points, finite coordinates within +-``MAX_COORDINATE``, an extent
    of at most ``MAX_COORDINATE`` along each axis and distinct consecutive
    points. A batch of more than ``_CHUNK_POINTS`` points is checked a run
    of whole fibers at a time. Raises ValueError with the rule's message
    when any fiber breaks one, without naming it: a caller that must name
    the fiber checks its fibers one at a time once the batch has failed."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("fiber points must be an (n, 3) array")
    if starts is None:
        short = len(pts) < 2
    else:
        starts = np.asarray(starts)
        if len(starts) < 2:  # no fiber
            return pts
        if len(starts) > 2 and len(pts) > _CHUNK_POINTS:
            lo = 0  # each run has at most _CHUNK_POINTS points, or one fiber
            while lo < len(starts) - 1:
                hi = max(lo + 1, np.searchsorted(starts, starts[lo] + _CHUNK_POINTS, "right") - 1)
                _validated_points(pts[starts[lo] : starts[hi]], starts[lo : hi + 1] - starts[lo])
                lo = hi
            return pts
        short = np.diff(starts).min() < 2
    if short:
        raise ValueError("a fiber needs at least 2 points")
    largest = _largest_coordinate(pts, "fiber coordinates")
    # only points beyond half the bound can span more than it
    if largest > 0.5 * MAX_COORDINATE:
        first = [0] if starts is None else starts[:-1]
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        if extent.max() > MAX_COORDINATE:
            raise ValueError(f"fiber points must span at most {MAX_COORDINATE:g} along each axis")
    _refuse_repeats(pts, starts)
    return pts


def _refuse_repeats(pts: np.ndarray, starts=None) -> None:
    """Raise ValueError unless consecutive points of each fiber of ``pts``
    (split at ``starts`` as in ``_validated_points``) are distinct: their
    squared step length must not be 0, so a step that underflows counts as
    a repeat."""
    seg = pts[1:] - pts[:-1]
    distinct = np.einsum("ij,ij->i", seg, seg)
    if starts is not None:
        distinct[starts[1:-1] - 1] = 1.0  # from one fiber's last point to the next's first
    if not _all_nonzero(distinct):
        raise ValueError("consecutive fiber points must be distinct")


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

    @classmethod
    def _of_valid(cls, fid: str, pts: np.ndarray) -> Fiber:
        """A fiber of id ``fid`` on ``pts``, which ``_validated_points`` has
        passed (as one fiber or as a block of a batch); made read-only."""
        fiber = object.__new__(cls)
        pts.setflags(write=False)
        object.__setattr__(fiber, "id", fid)
        object.__setattr__(fiber, "points", pts)
        object.__setattr__(fiber, "_center", None)
        return fiber

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

    @classmethod
    def _of_valid(cls, c: np.ndarray, fiber: Fiber) -> CenteredFiber:
        """A centered fiber on the read-only float64 3-vector ``c``, which
        passes the center check, and ``fiber``."""
        centered = object.__new__(cls)
        object.__setattr__(centered, "original_center", c)
        object.__setattr__(centered, "fiber", fiber)
        return centered


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


def _mass_centers(pts: np.ndarray) -> np.ndarray:
    """``_center_point(pts[k], MASS_CENTER)`` for each polyline of the
    ``(g, n, 3)`` stack ``pts``, bit for bit: the same sums over the same axes
    of each polyline, so numpy adds the same terms in the same order."""
    d = pts[:, 1:] - pts[:, :-1]
    lens = np.sqrt(np.add.reduce(d * d, axis=2))
    mids = 0.5 * (pts[:, :-1] + pts[:, 1:])
    return (mids * lens[:, :, None]).sum(axis=1) / lens.sum(axis=1)[:, None]


def _centers(fibers, kind: CenterFunctionKind) -> np.ndarray:
    """``_center_of`` each fiber under ``kind``, as an ``(n, 3)`` array, with
    every fiber's slot filled as ``_center_of`` fills it. Mass centers not yet
    kept are computed together for fibers of equal point count, in chunks of
    at most ``_CHUNK_POINTS`` points or one fiber; midpoints one fiber at a
    time."""
    out = np.empty((len(fibers), 3))
    mass = kind is CenterFunctionKind.MASS_CENTER
    by_size = {}
    for i, f in enumerate(fibers):
        if mass and (f._center is None or f._center[0] is not kind):
            by_size.setdefault(len(f.points), []).append(i)
        else:
            out[i] = _center_of(f, kind)
    for n, members in by_size.items():
        step = max(1, _CHUNK_POINTS // n)
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            stack = np.concatenate([fibers[i].points for i in chunk]).reshape(len(chunk), n, 3)
            got = _mass_centers(stack)
            got.setflags(write=False)
            out[chunk] = got
            for i, c_i in zip(chunk, got):
                object.__setattr__(fibers[i], "_center", (kind, c_i))
    return out


def center(fiber: Fiber, kind: CenterFunctionKind) -> CenteredFiber:
    """Center the fiber with the chosen center function.

    ``MASS_CENTER`` is the arclength-weighted centroid (segment midpoints
    weighted by segment length, exact for polylines); ``ARCLENGTH_MIDPOINT``
    is the point at half the total arclength.

    The centered copy is checked for what translating a checked fiber can
    break: its consecutive points must stay distinct, as a difference can
    round away. Its coordinates and extent, and the center, are checked
    against ``MAX_COORDINATE`` only when one of their magnitudes passes half
    of it; below that, none of these checks can fail. Raises ValueError with
    the message of the check that fails, the centered points' checks first
    (as ``Fiber``, then ``CenteredFiber``, would check them).
    """
    c = _center_of(fiber, kind)
    pts = fiber.points - c
    x, y, z = c.tolist()
    half = 0.5 * MAX_COORDINATE
    # within half the bound (which nan fails), the coordinate and center
    # checks pass and the extent check is not reached
    if _all_nonzero(np.abs(pts) <= half) and abs(x) <= half and abs(y) <= half and abs(z) <= half:
        _refuse_repeats(pts)
    else:
        pts = _validated_points(pts)
        _largest_coordinate(c, "center")
    return CenteredFiber._of_valid(c, Fiber._of_valid(fiber.id, pts))


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
        return [Fiber._of_valid(f"{fiber.id}.0", pts)]
    eps = 1e-9 * total
    cuts = np.append(np.arange(n) * max_length, total)
    ends = _points_at(pts, cum, cuts)
    # cum is nondecreasing, so the vertices strictly inside (s0 + eps, s1 - eps)
    # are one contiguous range
    first = np.searchsorted(cum, cuts[:-1] + eps, side="right")
    stop = np.searchsorted(cum, cuts[1:] - eps, side="left")
    # all pieces in one array, piece k in rows starts[k]:starts[k + 1]
    parts, starts = [], [0]
    for k, (a, b) in enumerate(zip(first.tolist(), stop.tolist())):
        parts += (ends[k : k + 1], pts[a:b], ends[k + 1 : k + 2])
        starts.append(starts[-1] + 2 + max(b - a, 0))
    gathered = np.concatenate(parts)
    try:
        _validated_points(gathered, starts)
        make = Fiber._of_valid
    except ValueError:
        make = Fiber  # one piece at a time, so the first bad piece is refused
    return [
        make(f"{fiber.id}.{k}", gathered[a:b]) for k, (a, b) in enumerate(zip(starts, starts[1:]))
    ]
