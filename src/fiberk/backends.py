"""Hot pairwise kernel sums: numba-jitted loops with a pure-numpy fallback.

The active backend is chosen at import time from the ``FIBERK_BACKEND``
environment variable:

* ``auto`` (default): numba if importable, else numpy
* ``numba``: require the jitted path (ImportError if numba is missing)
* ``numpy``: force the pure-numpy fallback

Both paths evaluate exp(-|x - y|^p / (2 sigma^p)) summed against tangent dot
products. For p = inf the kernel is the indicator of |x - y| < sigma, with
value exp(-1/2) on the shell |x - y| = sigma (within a relative 1e-12).
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "USE_NUMBA",
    "kernel_scalar",
    "inner",
    "pair_inner_products",
    "self_norms_sq",
]

_SHELL_RTOL = 1e-12


def kernel_scalar(d: float, p: float, sigma: float) -> float:
    """Scalar kernel value at center distance ``d``."""
    return float(_kernel_of_dist_numpy(np.float64(d), p, sigma))


# ---------------------------------------------------------------------------
# pure-numpy implementations


def _kernel_of_dist_numpy(d: np.ndarray, p: float, sigma: float) -> np.ndarray:
    if math.isinf(p):
        k = np.where(d < sigma, 1.0, 0.0)
        return np.where(np.abs(d - sigma) <= _SHELL_RTOL * sigma, math.exp(-0.5), k)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (d / sigma) ** p)


def inner_numpy(pos_a, tan_a, pos_b, tan_b, p, sigma) -> float:
    diff = pos_a[:, None, :] - pos_b[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    k = _kernel_of_dist_numpy(d, p, sigma)
    return float(np.einsum("ij,ij->", k, tan_a @ tan_b.T))


def pair_inner_numpy(pos, tan, offsets, ia, ib, p, sigma) -> np.ndarray:
    out = np.empty(len(ia))
    for n in range(len(ia)):
        a0, a1 = offsets[ia[n]], offsets[ia[n] + 1]
        b0, b1 = offsets[ib[n]], offsets[ib[n] + 1]
        out[n] = inner_numpy(pos[a0:a1], tan[a0:a1], pos[b0:b1], tan[b0:b1], p, sigma)
    return out


# ---------------------------------------------------------------------------
# numba implementations

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

if HAVE_NUMBA:

    @njit(cache=True)
    def _inner_nb(pos_a, tan_a, pos_b, tan_b, p, sigma):  # pragma: no cover
        p_inf = math.isinf(p)
        acc = 0.0
        for i in range(pos_a.shape[0]):
            for j in range(pos_b.shape[0]):
                dx = pos_a[i, 0] - pos_b[j, 0]
                dy = pos_a[i, 1] - pos_b[j, 1]
                dz = pos_a[i, 2] - pos_b[j, 2]
                d = math.sqrt(dx * dx + dy * dy + dz * dz)
                if p_inf:
                    if abs(d - sigma) <= _SHELL_RTOL * sigma:
                        k = math.exp(-0.5)
                    elif d < sigma:
                        k = 1.0
                    else:
                        k = 0.0
                else:
                    k = math.exp(-0.5 * (d / sigma) ** p)
                g = (
                    tan_a[i, 0] * tan_b[j, 0]
                    + tan_a[i, 1] * tan_b[j, 1]
                    + tan_a[i, 2] * tan_b[j, 2]
                )
                acc += k * g
        return acc

    @njit(cache=True)
    def _pair_inner_nb(pos, tan, offsets, ia, ib, p, sigma):  # pragma: no cover
        out = np.empty(len(ia))
        for n in range(len(ia)):
            a0, a1 = offsets[ia[n]], offsets[ia[n] + 1]
            b0, b1 = offsets[ib[n]], offsets[ib[n] + 1]
            out[n] = _inner_nb(pos[a0:a1], tan[a0:a1], pos[b0:b1], tan[b0:b1], p, sigma)
        return out


_env = os.environ.get("FIBERK_BACKEND", "auto").lower()
if _env == "numpy":
    USE_NUMBA = False
elif _env == "numba":
    if not HAVE_NUMBA:
        raise ImportError("FIBERK_BACKEND=numba but numba is not importable")
    USE_NUMBA = True
elif _env == "auto":
    USE_NUMBA = HAVE_NUMBA
else:
    raise ValueError(f"unknown FIBERK_BACKEND value: {_env!r}")


def inner(pos_a, tan_a, pos_b, tan_b, p: float, sigma: float) -> float:
    """Double kernel sum between two atom sets."""
    if USE_NUMBA:
        return float(_inner_nb(pos_a, tan_a, pos_b, tan_b, p, sigma))
    return inner_numpy(pos_a, tan_a, pos_b, tan_b, p, sigma)


def _pair_inner(pos, tan, offsets, ia, ib, p, sigma):
    # self_norms_sq calls this directly, not pair_inner_products, so that a
    # wrapper around the public name sees only the cross pairs.
    ia = np.ascontiguousarray(ia, dtype=np.int64)
    ib = np.ascontiguousarray(ib, dtype=np.int64)
    if USE_NUMBA:
        return _pair_inner_nb(pos, tan, offsets, ia, ib, p, sigma)
    return pair_inner_numpy(pos, tan, offsets, ia, ib, p, sigma)


def pair_inner_products(pos, tan, offsets, ia, ib, p: float, sigma: float) -> np.ndarray:
    """Kernel sums for many (ia[n], ib[n]) fiber pairs in packed atom arrays."""
    return _pair_inner(pos, tan, offsets, ia, ib, p, sigma)


def self_norms_sq(pos, tan, offsets, p: float, sigma: float) -> np.ndarray:
    """Squared norm of each fiber's current in packed atom arrays: the pair
    kernel sum of every fiber with itself."""
    each = np.arange(len(offsets) - 1)
    return _pair_inner(pos, tan, offsets, each, each, p, sigma)
