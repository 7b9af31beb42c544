"""Two-parameter empirical K-function over a (t, s) grid.

K(t, s) counts, per fiber with center in the observation window, the other
fibers whose center lies within distance t and whose centered shape lies
within currents distance s, normalized by the estimated center intensity.
With intensity estimated as N/|W| the estimator reduces to (qualifying
ordered pairs) / N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .currents import KernelParams, _shape_distance, discretize
from .fiber_core import CenterFunctionKind, Fiber, Window, _center_of, center

__all__ = [
    "EmptyWindowError",
    "KConfig",
    "KResult",
    "csr_reference",
    "pair_distances",
    "k_function",
    "inset_window",
    "saturation_bound",
]


# Most (t, s) cells a K table may have. Each cell costs about 100 B of peak
# memory and 2 to 3 us through kfun (a 1,000 x 1,000 grid on 30 fibers, numpy 2.4
# on x86-64), so an admitted table stays near 100 MB.
MAX_K_CELLS = 10**6
# Most atoms all currents of one run may have together. The packed atoms of
# kfun take about 100 B each, and the currents dist holds about 120 B each
# (500 fibers at 400 and 2,000 atoms each, numpy 2.4 on x86-64); with one pair
# block of at most backends.MAX_PAIR_EVALS kernel evaluations, an admitted run
# stays near 1 GiB.
MAX_TOTAL_ATOMS = 4 * 10**6


class EmptyWindowError(RuntimeError):
    """No fiber center inside the observation window: estimator undefined."""


def _validated_grid(grid, name: str) -> np.ndarray:
    g = np.ascontiguousarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1D sequence")
    if not np.all(g > 0):
        raise ValueError(f"{name} values must be > 0")
    if not np.all(np.diff(g) > 0):
        raise ValueError(f"{name} must be strictly ascending")
    g.setflags(write=False)
    return g


@dataclass(frozen=True, eq=False)
class KConfig:
    """Configuration of the K-function estimator."""

    kernel: KernelParams
    t_grid: np.ndarray
    s_grid: np.ndarray
    center_kind: CenterFunctionKind = CenterFunctionKind.MASS_CENTER
    orientation_invariant: bool = True
    spacing: float | None = None  # resolved by kernel.resolve_spacing

    def __post_init__(self):
        object.__setattr__(self, "t_grid", _validated_grid(self.t_grid, "t_grid"))
        object.__setattr__(self, "s_grid", _validated_grid(self.s_grid, "s_grid"))
        nt, ns = len(self.t_grid), len(self.s_grid)
        if nt * ns > MAX_K_CELLS:
            raise ValueError(
                f"a {nt} x {ns} (t, s) grid has {nt * ns} cells, more than {MAX_K_CELLS}"
            )
        self.kernel.resolve_spacing(self.spacing)

    @property
    def resolved_spacing(self) -> float:
        return self.kernel.resolve_spacing(self.spacing)


@dataclass(frozen=True, eq=False)
class KResult:
    """K matrix over the (t, s) grid with window bookkeeping."""

    t_grid: np.ndarray
    s_grid: np.ndarray
    k: np.ndarray
    n_in_window: int
    intensity_hat: float
    window: Window


def _intensity(n: int, window: Window) -> float:
    """``n / window.volume``; raises ValueError naming the volume when it has
    underflowed to 0 or is so small that the quotient overflows."""
    volume = window.volume
    if not (volume > 0 and math.isfinite(n / volume)):
        raise ValueError(
            f"window volume {volume:.17g} is too small: the intensity {n} / volume is not finite"
        )
    return n / volume


def csr_reference(t: float) -> float:
    """Spatial K-function of complete spatial randomness in 3D: the volume of
    the radius-t ball."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return 4.0 / 3.0 * math.pi * t**3


def _centered_currents(fibers, kind, spacing):
    """Yield ``(center, current)`` per fiber: its center point and the current
    of its centered copy. Each fiber is centered once and its centered copy is
    discretized at once, so no centered fiber outlives its atoms.

    Raises ValueError naming a fiber whose centered copy is no fiber (its
    points collapse), and before the next fiber is centered once the atoms so
    far exceed ``MAX_TOTAL_ATOMS`` (``discretize`` bounds each current's)."""
    total = 0
    for f in fibers:
        try:
            c = center(f, kind)
        except ValueError as exc:
            raise ValueError(f"fiber {f.id}: {exc}") from None
        current = discretize(c.fiber, spacing)
        total += len(current)
        if total > MAX_TOTAL_ATOMS:
            raise ValueError(
                f"fiber {f.id}: spacing {spacing:g} brings the atom total to {total},"
                f" more than {MAX_TOTAL_ATOMS} in total"
            )
        yield c.original_center, current


def _center_and_pack(fibers, kind, spacing):
    """The centers and the packed atoms (positions, tangents, offsets) of
    :func:`_centered_currents`, consumed as a stream so no current outlives
    its packing."""
    centers = np.empty((len(fibers), 3))
    positions, tangents = [np.empty((0, 3))], [np.empty((0, 3))]
    offsets = np.zeros(len(fibers) + 1, dtype=np.int64)
    for i, (c, cur) in enumerate(_centered_currents(fibers, kind, spacing)):
        centers[i] = c
        positions.append(cur.positions)
        tangents.append(cur.tangents)
        offsets[i + 1] = offsets[i] + len(cur)
    return centers, np.vstack(positions), np.vstack(tangents), offsets


def _center_distances(a, b):
    """Euclidean distances between the rows of ``a`` and ``b`` (broadcast)."""
    return np.linalg.norm(a - b, axis=-1)


def _candidate_pairs(centers, in_window, rmax):
    """Unordered index pairs (i < j), sorted by (i, j), with at least one
    endpoint in the window and center distance <= rmax (rmax None: no bound).

    Centers are binned into cubic cells at least rmax wide, so a qualifying
    pair lies in the same or in adjacent cells. Each center is matched with
    the later centers of its own cell and with every center of the 13
    neighbour cells that follow its cell in linear order, which yields each
    unordered pair once.
    """
    n = len(centers)
    keys = np.zeros((n, 3))
    if rmax is not None:
        # Slightly wider than rmax, so rounding in centers / cell and in the
        # distance cannot put a pair at distance <= rmax two cells apart.
        cell = rmax * (1.0 + 1e-12) + 1e-15 * np.abs(centers).max(initial=0.0)
        if cell > 0:
            keys = np.floor(centers / cell)
    # Rank-compress each axis, collapsing gaps wider than one cell to two, so
    # the linear cell index stays below (2n + 1)^3 however far apart the
    # centers are relative to rmax.
    cells = np.empty((n, 3), dtype=np.int64)
    for axis in range(3):
        values, inverse = np.unique(keys[:, axis], return_inverse=True)
        steps = np.where(np.diff(values) == 1, 1, 2)
        cells[:, axis] = np.concatenate(([1], 1 + np.cumsum(steps)))[inverse]
    dims = cells.max(axis=0, initial=0) + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    linear = cells @ strides
    order = np.argsort(linear, kind="stable")
    sorted_linear = linear[order]
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=3))) @ strides
    position = np.empty(n, dtype=np.int64)  # of each center in sorted order
    position[order] = np.arange(n)
    ia, ib = [], []
    for shift in shifts[shifts >= 0]:  # own cell first, then the 13 cells after it
        hi = np.searchsorted(sorted_linear, linear + shift, side="right")
        if shift == 0:
            lo = position + 1  # own cell: only centers sorted after this one
        else:
            lo = np.searchsorted(sorted_linear, linear + shift, side="left")
        counts = hi - lo
        a = np.repeat(np.arange(n), counts)
        # The k-th match of a run sits at sorted position lo + k.
        b = order[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        a, b = np.minimum(a, b), np.maximum(a, b)
        keep = in_window[a] | in_window[b]
        a, b = a[keep], b[keep]
        if rmax is not None:
            near = _center_distances(centers[a], centers[b]) <= rmax
            a, b = a[near], b[near]
        ia.append(a)
        ib.append(b)
    ia, ib = np.concatenate(ia), np.concatenate(ib)
    order = np.lexsort((ib, ia))
    return ia[order], ib[order]


def _pair_arrays(fibers, config: KConfig, window: Window | None, rmax, binned=False):
    """Center distances and centered-shape distances for candidate unordered
    pairs. Returns (in_window, ia, ib, center_dist, shape): ``shape`` holds
    the shape distances, or when ``binned`` each pair's index in the s grid
    (see :func:`_shape_bins`)."""
    centers, pos, tan, offsets = _center_and_pack(
        fibers, config.center_kind, config.resolved_spacing
    )
    if window is None:
        in_window = np.ones(len(fibers), dtype=bool)
    else:
        in_window = window.contains(centers)
    ia, ib = _candidate_pairs(centers, in_window, rmax)
    if len(ia) == 0:
        return in_window, ia, ib, np.empty(0), np.empty(0)
    p, sigma = config.kernel.p, config.kernel.sigma
    norms_sq = backends.self_norms_sq(pos, tan, offsets, p, sigma)
    if binned:
        shape = _shape_bins(pos, tan, offsets, ia, ib, norms_sq, config)
    else:
        ips = backends.pair_inner_products(pos, tan, offsets, ia, ib, p, sigma)
        shape = _shape_distance(norms_sq[ia], norms_sq[ib], ips, config.orientation_invariant)
    return in_window, ia, ib, _center_distances(centers[ia], centers[ib]), shape


def _shape_bins(pos, tan, offsets, ia, ib, norms_sq, config):
    """``np.searchsorted(config.s_grid, d)`` for each pair's shape distance d,
    equal to binning the distances of the exact pair sums: at p = 2 most
    pairs are binned from their Taylor sums (:func:`_taylor_bins`), and every
    other pair gets its exact sum from ``backends.pair_inner_products``."""
    p, sigma = config.kernel.p, config.kernel.sigma
    if p == 2:
        bins, exact = _taylor_bins(pos, tan, offsets, ia, ib, norms_sq, config)
    else:
        bins, exact = np.empty(len(ia), dtype=np.int64), np.ones(len(ia), dtype=bool)
    # called even with no pair left, so the pair kernel stays one traced step
    a, b = ia[exact], ib[exact]
    ips = backends.pair_inner_products(pos, tan, offsets, a, b, p, sigma)
    shape_dist = _shape_distance(norms_sq[a], norms_sq[b], ips, config.orientation_invariant)
    bins[exact] = np.searchsorted(config.s_grid, shape_dist, side="left")
    return bins


def _taylor_bins(pos, tan, offsets, ia, ib, norms_sq, config):
    """The s bins of the p = 2 pairs that ``backends._taylor_sums`` decides,
    and the mask of the pairs left for the exact sums.

    ``_shape_distance`` is monotone in the cross sum ``ab`` under IEEE
    rounding, so the exact distance lies between its values at the ends of
    ``|ab| +- delta`` (``ab +- delta`` for oriented fibers), rounded outward.
    A pair whose two ends fall in one bin takes it."""
    orient, s_grid = config.orientation_invariant, config.s_grid
    est, delta = backends._taylor_sums(pos, tan, offsets, ia, ib, config.kernel.sigma)
    taylor = np.flatnonzero(np.isfinite(delta))
    bins = np.empty(len(ia), dtype=np.int64)
    exact = np.ones(len(ia), dtype=bool)
    for c in range(0, len(taylor), backends._PAIR_CHUNK):
        t = taylor[c : c + backends._PAIR_CHUNK]
        ab, d = (np.abs(est[t]) if orient else est[t]), delta[t]
        lo, hi = np.nextafter(ab - d, -np.inf), np.nextafter(ab + d, np.inf)
        if orient:
            lo = np.maximum(lo, 0.0)
        na, nb = norms_sq[ia[t]], norms_sq[ib[t]]
        first = np.searchsorted(s_grid, _shape_distance(na, nb, hi, orient), side="left")
        same = first == np.searchsorted(s_grid, _shape_distance(na, nb, lo, orient), side="left")
        bins[t[same]] = first[same]
        exact[t[same]] = False
    return bins, exact


def pair_distances(
    fibers: list[Fiber],
    config: KConfig,
    window: Window | None,
    *,
    max_center_distance: float | None | str = "auto",
) -> list[tuple[float, float, tuple[str, str]]]:
    """Ordered pair records (center_distance, shape_distance, (id_a, id_b)).

    One record per ordered pair the K-function can count: the first fiber's
    center lies in the window and the center distance does not exceed
    ``max_center_distance`` (default: max of the configured t grid; pass
    ``None`` for no bound). Shape distances are computed once per unordered
    pair and mirrored.
    """
    if max_center_distance == "auto":
        rmax = float(config.t_grid[-1])
    else:
        rmax = max_center_distance
    in_window, ia, ib, cd, sd = _pair_arrays(fibers, config, window, rmax)
    records = []
    for n in range(len(ia)):
        i, j = int(ia[n]), int(ib[n])
        if in_window[i]:
            records.append((float(cd[n]), float(sd[n]), (fibers[i].id, fibers[j].id)))
        if in_window[j]:
            records.append((float(cd[n]), float(sd[n]), (fibers[j].id, fibers[i].id)))
    records.sort(key=lambda r: r[2])
    return records


def k_function(fibers: list[Fiber], config: KConfig, window: Window) -> KResult:
    """Estimate the two-parameter K-function on the configured (t, s) grid.

    First-element fibers need a center in the window; neighbors range over
    the full input (no edge correction: supply an inset window).
    """
    rmax = float(config.t_grid[-1])
    t_grid, s_grid = config.t_grid, config.s_grid
    in_window, ia, ib, cd, si = _pair_arrays(fibers, config, window, rmax, binned=True)
    n_in = int(in_window.sum())
    if n_in == 0:
        raise EmptyWindowError("no fiber center inside the observation window")
    counts = np.zeros((len(t_grid) + 1, len(s_grid) + 1), dtype=np.int64)
    if len(ia):
        ti = np.searchsorted(t_grid, cd, side="left")
        weights = in_window[ia].astype(np.int64) + in_window[ib].astype(np.int64)
        np.add.at(counts, (ti, si), weights)
    cum = counts.cumsum(axis=0).cumsum(axis=1)[: len(t_grid), : len(s_grid)]
    k = cum.astype(np.float64) / n_in
    return KResult(
        t_grid=t_grid,
        s_grid=s_grid,
        k=k,
        n_in_window=n_in,
        intensity_hat=_intensity(n_in, window),
        window=window,
    )


def inset_window(
    fibers: list[Fiber], kind: CenterFunctionKind, fraction: float
) -> Window:
    """Shrink the bounding box of the fiber centers by ``fraction`` per side."""
    if not (0 <= fraction < 0.5):
        raise ValueError("inset fraction must be in [0, 0.5)")
    if not fibers:
        raise ValueError("cannot compute a window from an empty fiber list")
    centers = np.array([_center_of(f, kind) for f in fibers])
    lo = centers.min(axis=0)
    hi = centers.max(axis=0)
    ext = hi - lo
    if np.any(ext <= 0):
        raise ValueError("degenerate center bounding box")
    return Window(lo + fraction * ext, hi - fraction * ext)


def saturation_bound(fibers: list[Fiber], config: KConfig) -> float:
    """An s value at which the shape indicator always fires: the a.s. bound
    sqrt(2 (||a||^2 + ||b||^2)) maximized over pairs (top two norms)."""
    if not fibers:
        raise ValueError("saturation_bound needs at least one fiber")
    _, pos, tan, offsets = _center_and_pack(fibers, config.center_kind, config.resolved_spacing)
    norms_sq = backends.self_norms_sq(pos, tan, offsets, config.kernel.p, config.kernel.sigma)
    if len(norms_sq) < 2:
        top = np.concatenate([norms_sq, norms_sq])
    else:
        top = np.sort(norms_sq)[-2:]
    return math.sqrt(2.0 * float(top.sum())) * (1.0 + 1e-9)
