"""Hot pairwise kernel sums, evaluated in batched numpy blocks.

Every sum is exp(-|x - y|^p / (2 sigma^p)) summed against tangent dot
products. For p = inf the kernel is the indicator of |x - y| < sigma, with
value exp(-1/2) on the shell |x - y| = sigma (within a relative 1e-12).

At p = 2 a pair whose atoms all lie within ``_FACTOR_RADIUS`` sigma of the
origin (the fibers are centered) is summed in factored form: one product of
scaled positions, one exp and one product of scaled tangents. Every other
pair, and every other p, is summed from explicit differences.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kernel_scalar",
    "inner",
    "pair_inner_products",
    "self_norms_sq",
]

# perfbench/worker.py reads this for its environment record; drop it with the
# next benchmark change.
USE_NUMBA = False

_SHELL_RTOL = 1e-12


def kernel_scalar(d: float, p: float, sigma: float) -> float:
    """Scalar kernel value at center distance ``d``."""
    return float(_kernel_of_dist(np.float64(d), p, sigma))


def _kernel_of_dist(d: np.ndarray, p: float, sigma: float) -> np.ndarray:
    if math.isinf(p):
        k = np.where(d < sigma, 1.0, 0.0)
        return np.where(np.abs(d - sigma) <= _SHELL_RTOL * sigma, math.exp(-0.5), k)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (d / sigma) ** p)


# Most kernel evaluations one pair of currents may need: inner and _pair_inner
# evaluate a pair in one block, whose float64 intermediates take 32 B per
# evaluation in the difference form (40 B for p = inf) and 16 B in the
# factored p = 2 form, so one block stays near 0.5 GiB. Callers bound the
# atoms per current to its square root.
MAX_PAIR_EVALS = 2**24

# Most kernel evaluations in one block call from _pair_inner: the float64
# intermediates of a chunk then take about 2.5 MB.
_CHUNK_EVALS = 2**16

# R: the largest |x| / sigma at which an atom takes the factored p = 2 form.
# With u = x / sigma, exp(-|x - y|^2 / (2 sigma^2)) = g(x) g(y) exp(u . v)
# where g(x) = exp(-|u|^2 / 2), exactly (Greengard & Strain 1991). For |u|,
# |v| <= R the factors stay inside float64: g >= e^-32 and exp(u . v) <= e^64,
# so nothing underflows or overflows. u . v carries an absolute rounding error
# of a few ulps of R^2, which exp turns into a relative error of about R^2 eps
# per kernel value. A pair with any atom beyond R sigma keeps the difference
# form.
_FACTOR_RADIUS = 8.0


def _block_sums(pa, ta, pb, tb, p, sigma) -> np.ndarray:
    """Double kernel sums between atom blocks ``(..., ma, 3)`` and
    ``(..., mb, 3)``, one per leading index, from explicit differences."""
    # x, z, y: the order np.einsum("ijk,ijk->ij") adds them in (numpy 2.4, AVX-512)
    sq = None
    for axis in (0, 2, 1):
        d2 = pa[..., :, None, axis] - pb[..., None, :, axis]
        d2 *= d2
        sq = d2 if sq is None else np.add(sq, d2, out=sq)
    k = _kernel_of_dist(np.sqrt(sq, out=sq), p, sigma)
    return np.einsum("...ij,...ij->...", k, ta @ np.swapaxes(tb, -1, -2))


def _factors(pos, tan, sigma):
    """Per-atom factors of the p = 2 kernel: ``u = x / sigma``, ``w = g(x) t``,
    and ``q = |u|^2``. Every operation is elementwise per atom, so a slice of
    packed atoms gets the same bits as the packed array. A ``q`` that
    overflows is inf, so its atom fails the radius test and ``w`` is 0."""
    with np.errstate(over="ignore"):
        u = pos / sigma
        uu = u * u
    q = uu[:, 0] + uu[:, 1] + uu[:, 2]
    w = np.exp(-0.5 * q)[:, None] * tan
    return u, w, q


def _factored_sums(ua, wa, ub, wb, e=None, m=None) -> np.ndarray:
    """Double p = 2 kernel sums from factor blocks: exp(U_a U_b^T) against
    W_a W_b^T, one per leading index. ``e`` and ``m`` may give the two
    ``(..., ma, mb)`` intermediates their memory."""
    e = np.matmul(ua, np.swapaxes(ub, -1, -2), out=e)
    np.exp(e, out=e)
    return np.einsum("...ij,...ij->...", e, np.matmul(wa, np.swapaxes(wb, -1, -2), out=m))


def _same_buffer(a, b) -> bool:
    """Whether ``a`` and ``b`` view one buffer with one layout: numpy sends
    ``a @ a.T`` on one buffer to another BLAS routine than on two."""
    return a.__array_interface__ == b.__array_interface__


def inner(pos_a, tan_a, pos_b, tan_b, p: float, sigma: float) -> float:
    """Double kernel sum between two atom sets.

    Kept apart from ``_pair_inner``: one pair packed for it gives the same bits
    but takes 2.2 to 3.3 times as long (6,000 seed-1 Brownian pairs at p = 1, 2
    and inf, best of 3, numpy 2.4 on x86-64), 0.8 to 1.5 s more on the 20,100
    calls of ``fiberk dist`` on 200 fibers."""
    if p == 2:
        ua, wa, qa = _factors(pos_a, tan_a, sigma)
        if _same_buffer(pos_a, pos_b) and _same_buffer(tan_a, tan_b):
            ub, wb, qb = ua, wa, qa
        else:
            ub, wb, qb = _factors(pos_b, tan_b, sigma)
        r2 = _FACTOR_RADIUS**2
        if qa.max(initial=0.0) <= r2 and qb.max(initial=0.0) <= r2:
            return float(_factored_sums(ua, wa, ub, wb))
    return float(_block_sums(pos_a, tan_a, pos_b, tan_b, p, sigma))


def _pair_inner(pos, tan, offsets, ia, ib, p, sigma) -> np.ndarray:
    """Pair kernel sums in blocks: the pairs are grouped by their exact atom
    counts ``(ma, mb)`` and by the form they take, so nothing is padded, and
    each group is gathered and summed in chunks of at most ``_CHUNK_EVALS``
    kernel evaluations. At p = 2 a pair takes the factored form when every
    atom of both its fibers lies within ``_FACTOR_RADIUS`` sigma of the
    origin, as ``inner`` decides from the same two atom sets. Pairs ``(i, i)``
    form groups of their own that pass one gathered array as both sides, as
    ``inner`` on one slice does, so every sum equals ``inner`` on the pair's
    slices.

    ``self_norms_sq`` calls this directly, not ``pair_inner_products``, so
    that a wrapper around the public name sees only the cross pairs."""
    ia = np.ascontiguousarray(ia, dtype=np.int64)
    ib = np.ascontiguousarray(ib, dtype=np.int64)
    out = np.empty(len(ia))
    if len(ia) == 0:
        return out
    sizes = np.diff(offsets)
    factored = np.zeros(len(sizes), dtype=bool)
    if p == 2:
        u, w, q = _factors(pos, tan, sigma)
        factored = np.maximum.reduceat(q, offsets[:-1]) <= _FACTOR_RADIUS**2
    # one key per group: (ma, mb), whether the pair is (i, i) and its form
    key = (sizes[ia] * (sizes.max() + 1) + sizes[ib]) * 2 + (ia == ib)
    key = key * 2 + (factored[ia] & factored[ib])
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order])) + 1
    for group in np.split(order, starts):
        first = group[0]
        ma, mb = int(sizes[ia[first]]), int(sizes[ib[first]])
        same = ia[first] == ib[first]
        form = factored[ia[first]] and factored[ib[first]]
        xs, ys = (u, w) if form else (pos, tan)
        step = max(1, _CHUNK_EVALS // max(1, ma * mb))
        if form:
            # one pair of intermediates per group: freeing and allocating
            # them per chunk costs page faults when the heap is trimmed
            e, m = np.empty((2, min(step, len(group)), ma, mb))
        for c in range(0, len(group), step):
            n = group[c : c + step]
            a = offsets[ia[n]][:, None] + np.arange(ma)
            xa, ya = np.take(xs, a, axis=0), np.take(ys, a, axis=0)
            if same:
                xb, yb = xa, ya
            else:
                b = offsets[ib[n]][:, None] + np.arange(mb)
                xb, yb = np.take(xs, b, axis=0), np.take(ys, b, axis=0)
            if form:
                out[n] = _factored_sums(xa, ya, xb, yb, e[: len(n)], m[: len(n)])
            else:
                out[n] = _block_sums(xa, ya, xb, yb, p, sigma)
    return out


def pair_inner_products(pos, tan, offsets, ia, ib, p: float, sigma: float) -> np.ndarray:
    """Kernel sums for many (ia[n], ib[n]) fiber pairs in packed atom arrays."""
    return _pair_inner(pos, tan, offsets, ia, ib, p, sigma)


def self_norms_sq(pos, tan, offsets, p: float, sigma: float) -> np.ndarray:
    """Squared norm of each fiber's current in packed atom arrays: the pair
    kernel sum of every fiber with itself."""
    each = np.arange(len(offsets) - 1)
    return _pair_inner(pos, tan, offsets, each, each, p, sigma)
