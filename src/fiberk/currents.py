"""Fibers as 1-currents in a dual RKHS: kernel, discretization, distances.

A discretized curve is a sum of weighted Dirac atoms (position, weighted
tangent). The inner product between two discretized curves is the double
kernel sum over atoms; the currents distance is the induced Hilbert norm of
the difference, and the orientation-minimal distance quotients out curve
orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backends
from .fiber_core import Fiber, _resampled_points

__all__ = [
    "KernelParams",
    "DiscreteCurrent",
    "discretize",
    "inner_product",
    "distance",
    "min_distance",
]


@dataclass(frozen=True)
class KernelParams:
    """Generalized Gaussian kernel exponent ``p`` and bandwidth ``sigma``.

    ``p = math.inf`` selects the step-kernel limit: 1 inside radius sigma,
    exp(-1/2) on the shell, 0 outside.
    """

    p: float
    sigma: float

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError("p must be > 0 (math.inf allowed)")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")

    def resolve_spacing(self, spacing: float | None) -> float:
        """The atom spacing to discretize at: ``spacing``, or sigma / 20 when
        it is None. Raises ValueError unless the spacing is > 0."""
        if spacing is None:
            return self.sigma / 20.0
        if not spacing > 0:  # also catches nan
            raise ValueError("spacing must be > 0")
        return spacing


@dataclass(frozen=True, eq=False)
class DiscreteCurrent:
    """Riemann-sum approximation of a curve's current as Dirac atoms.

    The arrays are read-only, so values derived from them are computed on
    first use and kept: the canonical listing (``_signed_canonical``) and the
    self kernel sum per ``(p, sigma)`` (``_self_sum``).
    """

    positions: np.ndarray
    tangents: np.ndarray
    _canonical: tuple | None = field(default=None, init=False, repr=False)
    _self_sums: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        tan = np.ascontiguousarray(self.tangents, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or tan.shape != pos.shape:
            raise ValueError("positions and tangents must be matching (n, 3) arrays")
        if pos.shape[0] < 1:
            raise ValueError("a discrete current needs at least 1 atom")
        _check_atoms(tan, pos, tan)
        pos.setflags(write=False)
        tan.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "tangents", tan)

    @classmethod
    def _of_valid(cls, pos: np.ndarray, tan: np.ndarray) -> DiscreteCurrent:
        """A current on the matching C-contiguous float64 ``(n, 3)`` arrays
        ``pos`` and ``tan``, ``n >= 1``, which ``_check_atoms`` has passed;
        made read-only."""
        current = object.__new__(cls)
        for name, values in (("positions", pos), ("tangents", tan)):
            values.setflags(write=False)
            object.__setattr__(current, name, values)
        object.__setattr__(current, "_canonical", None)
        object.__setattr__(current, "_self_sums", None)
        return current

    def __len__(self):
        return self.positions.shape[0]


def _check_atoms(tan: np.ndarray, *coordinates: np.ndarray) -> None:
    """Raises ValueError unless every value of each of ``coordinates`` is
    finite and every weighted tangent of ``tan`` nonzero."""
    for values in coordinates:
        if not np.isfinite(values).all():
            raise ValueError("atom coordinates must be finite")
    if not np.einsum("ij,ij->i", tan, tan).all():
        raise ValueError("weighted tangents must be nonzero")


def discretize(fiber: Fiber, spacing: float) -> DiscreteCurrent:
    """Resample as ``resample`` does and emit one atom per resampled chord:
    position at the chord midpoint, weighted tangent equal to the chord
    vector. More atoms than one pair block may square
    (``backends.MAX_PAIR_EVALS``) raise ValueError before any is made."""
    pts = _resampled_points(fiber, spacing, math.isqrt(backends.MAX_PAIR_EVALS), "atoms")
    pos, tan = 0.5 * (pts[:-1] + pts[1:]), pts[1:] - pts[:-1]
    # finiteness is tested once, on the points: finite points within
    # +-MAX_COORDINATE give finite midpoints and chords, and a non-finite
    # point makes the chords next to it non-finite
    _check_atoms(tan, pts)
    return DiscreteCurrent._of_valid(pos, tan)


def _signed_canonical(current: DiscreteCurrent):
    # Canonical representative of the orientation class: of the two equivalent
    # atom listings (forward, and reversed-with-negated-tangents, which is the
    # same current with opposite sign) keep the byte-wise smaller one and
    # remember the sign. Negation is exact, so a current and its reversal
    # share one representative and their inner products cancel exactly.
    if current._canonical is None:
        fwd = (current.positions, current.tangents)
        rev = (
            np.ascontiguousarray(current.positions[::-1]),
            np.ascontiguousarray(-current.tangents[::-1]),
        )
        key_f = (len(current), fwd[0].tobytes(), fwd[1].tobytes())
        key_r = (len(current), rev[0].tobytes(), rev[1].tobytes())
        chosen = (fwd, 1.0, key_f) if key_f <= key_r else (rev, -1.0, key_r)
        object.__setattr__(current, "_canonical", chosen)
    return current._canonical


def _self_sum(current: DiscreteCurrent, params: KernelParams) -> float:
    """Double kernel sum of the canonical listing with itself, once per
    ``(p, sigma)``."""
    if current._self_sums is None:
        object.__setattr__(current, "_self_sums", {})
    key = (params.p, params.sigma)
    if key not in current._self_sums:
        (pos, tan), _, _ = _signed_canonical(current)
        # Same buffer on both sides: numpy's t @ t.T can differ from t @ t.copy().T.
        current._self_sums[key] = backends.inner(pos, tan, pos, tan, params.p, params.sigma)
    return current._self_sums[key]


def inner_product(a: DiscreteCurrent, b: DiscreteCurrent, params: KernelParams) -> float:
    """Double kernel sum over atom pairs; symmetric in (a, b) bit-for-bit."""
    (pa, ta), sa, ka = _signed_canonical(a)
    (pb, tb), sb, kb = _signed_canonical(b)
    if kb < ka:
        pa, ta, pb, tb = pb, tb, pa, ta
    elif kb == ka:
        return sa * sb * _self_sum(a, params)
    return sa * sb * backends.inner(pa, ta, pb, tb, params.p, params.sigma)


def _shape_distance(na, nb, ab, orientation_invariant: bool):
    """Elementwise sqrt(max(0, na + nb - 2 ab)) from squared norms and cross
    inner products; the orientation-minimal distance uses |ab|. For
    0 < p <= 2 the kernel is positive definite, and the max guards only
    floating-point cancellation for near-identical curves. For p > 2 it is
    not (Schoenberg 1938): na + nb - 2 ab can be truly negative (788 of the
    19,900 pairs of 200 seed-1 clustered lines at p = inf, by up to 0.56% of
    na + nb), and the max turns such a pair into distance 0."""
    if orientation_invariant:
        ab = abs(ab)
    return np.sqrt(np.maximum(0.0, na + nb - 2.0 * ab))


def distance(a: DiscreteCurrent, b: DiscreteCurrent, params: KernelParams) -> float:
    """Currents distance ||a - b|| in the dual RKHS."""
    na, nb = inner_product(a, a, params), inner_product(b, b, params)
    return float(_shape_distance(na, nb, inner_product(a, b, params), False))


def min_distance(a: DiscreteCurrent, b: DiscreteCurrent, params: KernelParams) -> float:
    """Orientation-minimal distance: min over flipping one curve.

    Flipping negates every weighted tangent, so the cross term changes sign
    and both candidate distances come from a single inner product.
    """
    na, nb = inner_product(a, a, params), inner_product(b, b, params)
    return float(_shape_distance(na, nb, inner_product(a, b, params), True))
