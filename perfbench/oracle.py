"""Independent output oracle for the benchmark workloads.

Atoms come from the public ``fiberk.center`` and ``fiberk.discretize`` only.
Everything else is done here in numpy: parsing the fiber file, cutting fibers
into pieces, brute-force all-pairs center distances, the inset window and its
membership, the double kernel sums, the orientation minimum and the binning.
Nothing here uses ``fiberk.backends`` or ``fiberk.kfunction``, and the kernel
sums are batched per first fiber rather than per pair, so the oracle does not
share the program's summation code.

K counts are exact integers. A pair whose center or shape distance lies within
a relative ``EDGE_RTOL`` of a grid edge is ambiguous: round-off decides which
side the program puts it on, so the check accepts any count between the
oracle's lower count (every ambiguous pair excluded) and upper count (every
ambiguous pair included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import fiberk
from workloads import SIGMA, SPACING, Workload

EDGE_RTOL = 1e-9
DIST_RTOL = 1e-9
_BLOCK = 256


def read_fiber_file(path) -> list[tuple[str, np.ndarray]]:
    """Parse a ``fiberset v1`` file into ``(id, points)`` tuples."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split()
    if header[:2] != ["fiberset", "v1"]:
        raise ValueError(f"{path}: not a fiberset v1 file")
    fibers = []
    row = 1
    for _ in range(int(header[2])):
        _, fid, n = lines[row].split()
        n = int(n)
        pts = np.array([[float(v) for v in line.split()] for line in lines[row + 1: row + 1 + n]])
        fibers.append((fid, pts))
        row += 1 + n
    if row != len(lines):
        raise ValueError(f"{path}: trailing content")
    return fibers


def segment_points(pts: np.ndarray, max_length: float) -> list[np.ndarray]:
    """Cut a polyline into pieces of arclength ``max_length`` (the last piece
    takes the rest); cut points are linearly interpolated."""
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt((np.diff(pts, axis=0) ** 2).sum(axis=1)))])
    total = cum[-1]
    n = max(1, math.ceil(total / max_length - 1e-9))
    if n == 1:
        return [pts]
    eps = 1e-9 * total

    def at(s):
        return np.array([np.interp(s, cum, pts[:, k]) for k in range(3)])

    pieces = []
    for k in range(n):
        s0 = k * max_length
        s1 = total if k == n - 1 else (k + 1) * max_length
        inner = pts[(cum > s0 + eps) & (cum < s1 - eps)]
        pieces.append(np.vstack([at(s0), inner, at(s1)]))
    return pieces


@dataclass
class Prepared:
    ids: list[str]
    centers: np.ndarray
    pos: np.ndarray
    tan: np.ndarray
    offsets: np.ndarray


def prepare(fibers: list[tuple[str, np.ndarray]]) -> Prepared:
    centers, pos, tan = [], [], []
    for fid, pts in fibers:
        c = fiberk.center(fiberk.Fiber(fid, pts), fiberk.CenterFunctionKind.MASS_CENTER)
        cur = fiberk.discretize(c.fiber, SPACING)
        centers.append(c.original_center)
        pos.append(cur.positions)
        tan.append(cur.tangents)
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in pos])])
    return Prepared([f[0] for f in fibers], np.array(centers), np.vstack(pos), np.vstack(tan), offsets)


def kernel_sums(prep: Prepared, ia: np.ndarray, ib: np.ndarray, p: float) -> np.ndarray:
    """sum_{x in a, y in b} exp(-|x - y|^p / (2 sigma^p)) <t_x, t_y> per pair,
    one vectorised block per distinct first fiber."""
    if math.isinf(p):
        raise NotImplementedError("the oracle covers finite p only")
    out = np.empty(len(ia))
    if len(ia) == 0:
        return out
    order = np.argsort(ia, kind="stable")
    ia_s, ib_s = ia[order], ib[order]
    starts = np.flatnonzero(np.r_[True, ia_s[1:] != ia_s[:-1]])
    ends = np.r_[starts[1:], len(ia_s)]
    off = prep.offsets
    sizes = off[1:] - off[:-1]
    for s, e in zip(starts, ends):
        a = ia_s[s]
        bs = ib_s[s:e]
        lens = sizes[bs]
        first = np.cumsum(lens) - lens
        idx = np.repeat(off[bs] - first, lens) + np.arange(lens.sum())
        pa, ta = prep.pos[off[a]: off[a + 1]], prep.tan[off[a]: off[a + 1]]
        diff = pa[:, None, :] - prep.pos[idx][None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        g = np.exp(-0.5 * (d / SIGMA) ** p) * (ta @ prep.tan[idx].T)
        out[order[s:e]] = np.add.reduceat(g.sum(axis=0), first)
    return out


def self_sums(prep: Prepared, p: float) -> np.ndarray:
    """Squared norm of every fiber's current, batched over fibers with the
    same atom count."""
    off = prep.offsets
    sizes = off[1:] - off[:-1]
    out = np.empty(len(sizes))
    for m in np.unique(sizes):
        fib = np.flatnonzero(sizes == m)
        idx = off[fib][:, None] + np.arange(m)[None, :]
        pos, tan = prep.pos[idx], prep.tan[idx]
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        d = np.sqrt((diff * diff).sum(axis=3))
        g = np.exp(-0.5 * (d / SIGMA) ** p) * np.einsum("fik,fjk->fij", tan, tan)
        out[fib] = g.sum(axis=(1, 2))
    return out


def _pairs_within(centers: np.ndarray, keep, rmax: float | None):
    """All pairs i < j with ``keep(i, j)`` and center distance <= rmax, by
    brute force in row blocks. Returns ia, ib and the center distances."""
    n = len(centers)
    ia, ib, cd = [], [], []
    for r0 in range(0, n, _BLOCK):
        r1 = min(n, r0 + _BLOCK)
        diff = centers[r0:r1, None, :] - centers[None, r0:, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        rows = np.arange(r0, r1)[:, None]
        cols = np.arange(r0, n)[None, :]
        mask = (cols > rows) & keep(rows, cols)
        if rmax is not None:
            mask &= d <= rmax
        i, j = np.nonzero(mask)
        ia.append(i + r0)
        ib.append(j + r0)
        cd.append(d[i, j])
    return np.concatenate(ia), np.concatenate(ib), np.concatenate(cd)


def _shape_distances(prep: Prepared, ia, ib, p: float) -> np.ndarray:
    norms = self_sums(prep, p)
    ab = kernel_sums(prep, ia, ib, p)
    same = np.sqrt(np.maximum(0.0, norms[ia] + norms[ib] - 2.0 * ab))
    flip = np.sqrt(np.maximum(0.0, norms[ia] + norms[ib] + 2.0 * ab))
    return np.minimum(same, flip)


def _grid(g) -> np.ndarray:
    start, stop, step = g
    return start + step * np.arange(int(math.floor((stop - start) / step + 1e-9)) + 1)


def _near_edge(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return (np.abs(values[:, None] - grid[None, :]) <= EDGE_RTOL * grid[None, :]).any(axis=1)


@dataclass
class KExpectation:
    t_grid: np.ndarray
    s_grid: np.ndarray
    n_in: int
    lower: np.ndarray  # certain ordered-pair counts per (t, s) cell
    upper: np.ndarray
    pairs: int
    ambiguous: int

    def check(self, text: str, stdout: str) -> list[str]:
        lines = text.splitlines()
        nt, ns = len(self.t_grid), len(self.s_grid)
        if not lines or lines[0] != "t,s,k" or len(lines) != 1 + nt * ns:
            return [f"K CSV layout wrong: {len(lines)} lines, header {lines[:1]}"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        problems = []
        if not (np.allclose(rows[:, 0], np.repeat(self.t_grid, ns), rtol=1e-12, atol=0)
                and np.allclose(rows[:, 1], np.tile(self.s_grid, nt), rtol=1e-12, atol=0)):
            problems.append("K CSV grid columns differ from the t and s grids")
        kn = rows[:, 2] * self.n_in
        counts = np.rint(kn)
        if not np.all(np.abs(kn - counts) <= 1e-6 * np.maximum(1.0, counts)):
            problems.append("K*N is not integral")
        counts = counts.reshape(nt, ns)
        bad = (counts < self.lower) | (counts > self.upper)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            problems.append(
                f"{int(bad.sum())} K cells outside the oracle range, first at "
                f"t={self.t_grid[i]:g} s={self.s_grid[j]:g}: K*N={counts[i, j]:.0f}, "
                f"oracle {self.lower[i, j]}..{self.upper[i, j]}"
            )
        if f"N={self.n_in} " not in stdout:
            problems.append(f"stdout does not report N={self.n_in}: {stdout.strip()!r}")
        return problems


@dataclass
class DistExpectation:
    ids_a: list[str]
    ids_b: list[str]
    center_dist: np.ndarray
    shape_dist: np.ndarray
    pairs: int
    ambiguous: int = 0

    def check(self, text: str, stdout: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != "id_a,id_b,center_dist,shape_dist" or len(lines) != 1 + self.pairs:
            return [f"distance CSV layout wrong: {len(lines)} lines, header {lines[:1]}"]
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        problems = []
        if list(cols[0]) != self.ids_a or list(cols[1]) != self.ids_b:
            problems.append("distance CSV ids differ from the oracle's pair order")
        for name, got, want in (
            ("center_dist", cols[2], self.center_dist),
            ("shape_dist", cols[3], self.shape_dist),
        ):
            got = np.array(got, dtype=float)
            bad = ~np.isclose(got, want, rtol=DIST_RTOL, atol=0.0)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                problems.append(
                    f"{int(bad.sum())} {name} values differ beyond rtol {DIST_RTOL:g}, first "
                    f"({self.ids_a[k]},{self.ids_b[k]}): {got[k]!r} vs {want[k]!r}"
                )
        return problems


def expect_kfun(w: Workload, fibers) -> KExpectation:
    if w.segment_length is not None:
        fibers = [
            (f"{fid}.{k}", piece)
            for fid, pts in fibers
            for k, piece in enumerate(segment_points(pts, w.segment_length))
        ]
    prep = prepare(fibers)
    lo, hi = prep.centers.min(axis=0), prep.centers.max(axis=0)
    ext = hi - lo
    w_lo, w_hi = lo + w.inset * ext, hi - w.inset * ext
    inside = np.all((prep.centers >= w_lo) & (prep.centers < w_hi), axis=1)
    n_in = int(inside.sum())
    t_grid, s_grid = _grid(w.t_grid), _grid(w.s_grid)
    ia, ib, cd = _pairs_within(
        prep.centers, lambda i, j: inside[i] | inside[j], t_grid[-1] * (1 + EDGE_RTOL)
    )
    sd = _shape_distances(prep, ia, ib, w.p)
    weight = inside[ia].astype(np.int64) + inside[ib].astype(np.int64)

    def counts(scale):
        in_t = cd[:, None] <= t_grid[None, :] * scale
        in_s = sd[:, None] <= s_grid[None, :] * scale
        return np.einsum("p,pi,pj->ij", weight, in_t.astype(np.int64), in_s.astype(np.int64))

    ambiguous = int((_near_edge(cd, t_grid) | _near_edge(sd, s_grid)).sum())
    pairs = int((cd <= t_grid[-1]).sum())
    return KExpectation(
        t_grid, s_grid, n_in, counts(1 - EDGE_RTOL), counts(1 + EDGE_RTOL), pairs, ambiguous
    )


def expect_dist(w: Workload, fibers) -> DistExpectation:
    prep = prepare(fibers)
    ia, ib, cd = _pairs_within(prep.centers, lambda i, j: True, None)
    sd = _shape_distances(prep, ia, ib, w.p)
    return DistExpectation(
        [prep.ids[i] for i in ia], [prep.ids[j] for j in ib], cd, sd, len(ia)
    )


def expect(w: Workload, input_path):
    """The expected output of workload ``w`` run on the fiber file at ``input_path``."""
    fibers = read_fiber_file(input_path)
    if w.command == "kfun":
        return expect_kfun(w, fibers)
    return expect_dist(w, fibers)
