"""Straightforward reference versions of the fiber-file parser, of
``segment`` and of the currents inner product, kept as test oracles for the
vectorised or cached library code.

``read_fibers_by_line`` parses one coordinate line at a time and
``segment_by_piece`` interpolates the two cut points of each piece
separately, with arclengths from ``np.linalg.norm``. The library versions must give bit-identical fibers and, on
malformed files, the same ``FiberFileError`` message.

``inner_product_per_call`` rebuilds both canonical listings and sums the
kernel on every call, self sums included; the library keeps both on the
current and must return the same bits.
"""

import math

import numpy as np

from fiberk import Fiber, FiberFileError, backends
from fiberk.currents import _shape_distance


def read_fibers_by_line(path) -> list[Fiber]:
    with open(path, "r", newline=None) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FiberFileError(f"{path}:1: missing header")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "fiberset" or header[1] != "v1":
        raise FiberFileError(f"{path}:1: malformed header {lines[0]!r}")
    try:
        n_fibers = int(header[2])
    except ValueError:
        raise FiberFileError(f"{path}:1: bad fiber count {header[2]!r}") from None
    if n_fibers < 0:
        raise FiberFileError(f"{path}:1: negative fiber count {n_fibers}")
    fibers = []
    lineno = 1
    for _ in range(n_fibers):
        lineno += 1
        if lineno > len(lines):
            raise FiberFileError(f"{path}:{lineno}: expected 'fiber' record, got end of file")
        parts = lines[lineno - 1].split()
        if len(parts) != 3 or parts[0] != "fiber":
            raise FiberFileError(
                f"{path}:{lineno}: expected 'fiber <id> <n_points>', got {lines[lineno - 1]!r}"
            )
        fid = parts[1]
        try:
            n_points = int(parts[2])
        except ValueError:
            raise FiberFileError(f"{path}:{lineno}: bad point count {parts[2]!r}") from None
        if n_points < 0:
            raise FiberFileError(f"{path}:{lineno}: negative point count {n_points}")
        if lineno + n_points > len(lines):
            raise FiberFileError(f"{path}:{len(lines) + 1}: expected coordinate line, got end of file")
        pts = np.empty((n_points, 3))
        for k in range(n_points):
            lineno += 1
            coords = lines[lineno - 1].split()
            if len(coords) != 3:
                raise FiberFileError(
                    f"{path}:{lineno}: expected 3 coordinates, got {lines[lineno - 1]!r}"
                )
            try:
                pts[k] = [float(c) for c in coords]
            except ValueError:
                raise FiberFileError(
                    f"{path}:{lineno}: unparseable coordinate in {lines[lineno - 1]!r}"
                ) from None
            if not np.all(np.isfinite(pts[k])):
                raise FiberFileError(f"{path}:{lineno}: non-finite coordinate")
        try:
            fibers.append(Fiber(fid, pts))
        except ValueError as exc:
            raise FiberFileError(f"{path}:{lineno}: invalid fiber {fid!r}: {exc}") from None
    if lineno != len(lines):
        raise FiberFileError(f"{path}:{lineno + 1}: trailing content after {n_fibers} fibers")
    return fibers


def _cumlen(pts):
    return np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))))


def _points_at(pts, cum, s):
    s = np.asarray(s, dtype=np.float64)
    return np.stack([np.interp(s, cum, pts[:, k]) for k in range(3)], axis=-1)


def segment_by_piece(fiber: Fiber, max_length: float) -> list[Fiber]:
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


def signed_canonical_per_call(current):
    fwd = (current.positions, current.tangents)
    rev = (
        np.ascontiguousarray(current.positions[::-1]),
        np.ascontiguousarray(-current.tangents[::-1]),
    )
    key_f = (len(current), fwd[0].tobytes(), fwd[1].tobytes())
    key_r = (len(current), rev[0].tobytes(), rev[1].tobytes())
    if key_f <= key_r:
        return fwd, 1.0, key_f
    return rev, -1.0, key_r


def inner_product_per_call(a, b, params) -> float:
    (pa, ta), sa, ka = signed_canonical_per_call(a)
    (pb, tb), sb, kb = signed_canonical_per_call(b)
    if kb < ka:
        pa, ta, pb, tb = pb, tb, pa, ta
    elif kb == ka:
        pb, tb = pa, ta
    return sa * sb * backends.inner(pa, ta, pb, tb, params.p, params.sigma)


def _distance_per_call(a, b, params, orientation_invariant) -> float:
    na = inner_product_per_call(a, a, params)
    nb = inner_product_per_call(b, b, params)
    ab = inner_product_per_call(a, b, params)
    return float(_shape_distance(na, nb, ab, orientation_invariant))


def distance_per_call(a, b, params) -> float:
    return _distance_per_call(a, b, params, False)


def min_distance_per_call(a, b, params) -> float:
    return _distance_per_call(a, b, params, True)
