"""Hot pairwise kernel sums, evaluated in batched numpy blocks.

Every sum is exp(-|x - y|^p / (2 sigma^p)) summed against tangent dot
products. For p = inf the kernel is the indicator of |x - y| < sigma, with
value exp(-1/2) on the shell |x - y| = sigma (within a relative 1e-12).

At p = 2 a pair whose atoms all lie within ``_FACTOR_RADIUS`` sigma of the
origin (the fibers are centered) is summed in factored form: one product of
scaled positions, one exp and one product of scaled tangents. Every other
pair, and every other p, is summed from explicit differences.

``_taylor_sums`` estimates p = 2 pair sums from truncated Taylor features,
each with a proven bound on its distance from the exact sum.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "inner",
    "pair_inner_products",
    "self_norms_sq",
]

# perfbench/worker.py reads this for its environment record; drop it with the
# next benchmark change.
USE_NUMBA = False

_SHELL_RTOL = 1e-12


def _kernel_of_dist(d: np.ndarray, p: float, sigma: float, out=None) -> np.ndarray:
    """Kernel values at the distances ``d``, written into ``out`` (which may
    be ``d``) or into a new array."""
    if out is None:
        out = np.empty_like(d)
    if math.isinf(p):
        inside = np.less(d, sigma)
        gap = np.abs(np.subtract(d, sigma, out=out), out=out)
        shell = np.less_equal(gap, _SHELL_RTOL * sigma)
        np.copyto(out, inside)
        np.copyto(out, math.exp(-0.5), where=shell)
        return out
    if p == 1 and 1 <= sigma < 2.0**1023:
        # -0.5 * (d / sigma) in one division: 2 sigma is exact, halving
        # commutes with rounding (below 2^-1021 both give exp 1) and
        # d / (2 sigma) <= d cannot overflow
        return np.exp(np.divide(d, -2.0 * sigma, out=out), out=out)
    with np.errstate(over="ignore"):
        x = np.divide(d, sigma, out=out)
        if p != 1:  # x ** 1.0 is x
            x **= p
    x *= -0.5
    return np.exp(x, out=x)


# Most kernel evaluations one pair of currents may need: inner and _pair_inner
# evaluate a pair in one block, whose float64 intermediates take 32 B per
# evaluation in the difference form (at every p) and 16 B in the factored
# p = 2 form, so one block stays near 0.5 GiB. Callers bound the
# atoms per current to its square root.
MAX_PAIR_EVALS = 2**24

# Most kernel evaluations in one block call from _pair_inner: the float64
# intermediates of a chunk then take about 2.5 MB.
_CHUNK_EVALS = 2**16

# Pairs per chunk of per-pair bookkeeping (the Taylor bounds and the bins
# decided from them): the eight or so float arrays of a chunk then take about
# _CHUNK_EVALS floats.
_PAIR_CHUNK = _CHUNK_EVALS // 8

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
    # Coordinate-major views, so one broadcast subtraction makes the three
    # axes' differences. It writes them in C order whatever the layout of pa
    # and pb, because the bits of exp and of einsum's sum follow the layout.
    axes = (pa.ndim - 1, *range(pa.ndim - 1))
    d = np.subtract(pa.transpose(axes)[..., :, None], pb.transpose(axes)[..., None, :], order="C")
    d *= d
    # x, z, y: the order np.einsum("ijk,ijk->ij") adds them in (numpy 2.4, AVX-512)
    sq = np.add(d[0], d[2], out=d[0])
    sq += d[1]
    k = _kernel_of_dist(np.sqrt(sq, out=sq), p, sigma, out=sq)
    # BLAS bits follow the tangents' layout too: C-ordered operands, and one
    # operand when both sides share one buffer
    if not (ta.flags.c_contiguous and tb.flags.c_contiguous):
        same = _same_buffer(ta, tb)
        ta = np.ascontiguousarray(ta)
        tb = ta if same else np.ascontiguousarray(tb)
    return np.einsum("...ij,...ij->...", k, ta @ tb.swapaxes(-1, -2))


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
    return (a.ctypes.data, a.shape, a.strides, a.dtype) == (
        b.ctypes.data, b.shape, b.strides, b.dtype
    )


def inner(pos_a, tan_a, pos_b, tan_b, p: float, sigma: float) -> float:
    """Double kernel sum between two atom sets.

    Kept apart from ``_pair_inner``: one pair packed for it gives the same bits
    but takes 2.0 to 3.7 times as long (6,000 seed-1 Brownian pairs at p = 1, 2
    and inf, best of 7, numpy 2.4 on a 2-core x86-64 VM), 0.6 to 0.9 s more
    on the 20,100 calls of ``fiberk dist`` on 200 fibers."""
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
    coords = None
    for group in np.split(order, starts):
        first = group[0]
        ma, mb = int(sizes[ia[first]]), int(sizes[ib[first]])
        same = ia[first] == ib[first]
        form = factored[ia[first]] and factored[ib[first]]
        step = max(1, _CHUNK_EVALS // max(1, ma * mb))
        if form:
            xs, ys, axis = u, w, 0
            # one pair of intermediates per group: freeing and allocating
            # them per chunk costs page faults when the heap is trimmed
            e, m = np.empty((2, min(step, len(group)), ma, mb))
        else:
            if coords is None:
                # coordinate-major positions: a gathered block is (3, n, m),
                # the layout _block_sums subtracts in
                coords = np.ascontiguousarray(pos.T)
            xs, ys, axis = coords, tan, 1
        for c in range(0, len(group), step):
            n = group[c : c + step]
            a = offsets[ia[n]][:, None] + np.arange(ma)
            xa, ya = np.take(xs, a, axis=axis), np.take(ys, a, axis=0)
            if same:
                xb, yb = xa, ya
            else:
                b = offsets[ib[n]][:, None] + np.arange(mb)
                xb, yb = np.take(xs, b, axis=axis), np.take(ys, b, axis=0)
            if form:
                out[n] = _factored_sums(xa, ya, xb, yb, e[: len(n)], m[: len(n)])
            else:
                xa, xb = xa.transpose(1, 2, 0), xb.transpose(1, 2, 0)
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


# Taylor-feature sums at p = 2 (the improved fast Gauss transform; Greengard &
# Strain 1991, Yang, Duraiswami & Gumerov 2003). The order is the smallest
# whose relative truncation tail is below _TAYLOR_TOL, and at most
# _TAYLOR_MAX_ORDER (3 * C(15, 3) = 1,365 features a fiber).
_TAYLOR_TOL = 1e-13
_TAYLOR_MAX_ORDER = 12
# The features of one call may take this many floats per packed atom (twice
# what the atoms' positions, tangents and factors take together), or
# _CHUNK_EVALS floats, whichever is more.
_FEATURE_FLOATS_PER_ATOM = 32
# A fiber whose weights sum below this keeps the exact sums, so an underflow
# anywhere in either form stays far below one rounding of the bound.
_TAYLOR_MIN_WEIGHT = 2.0**-450
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n):
    """Higham's ``gamma_n = n u / (1 - n u)``: the relative error bound of a
    result that went through n roundings."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _taylor_tail(r, order):
    """``r^(K+1) / (K+1)!``: with ``e^r``, the bound on the remainder of
    ``exp(x)`` after its terms of degree at most K, for ``|x| <= r``."""
    return r ** (order + 1) / math.factorial(order + 1)


def _monomials(ut, order):
    """The monomials ``u^alpha``, ``|alpha| <= order``, of the atoms in the
    columns of ``ut`` ``(3, n)``: one row each, degree by degree. Within a
    degree the rows are ordered by their last variable, so the rows of degree
    d - 1 whose last variable is at most j form a prefix of that degree (of
    1, d and d (d + 1) / 2 rows for j = 0, 1, 2), and times ``u_j`` they give
    the rows of degree d whose last variable is j."""
    mono = np.empty((math.comb(order + 3, 3), ut.shape[1]))
    mono[0] = 1.0
    start, end = 0, 1
    for d in range(1, order + 1):
        row = end
        for j, size in enumerate((1, d, d * (d + 1) // 2)):
            np.multiply(mono[start : start + size], ut[j], out=mono[row : row + size])
            row += size
        start, end = end, row
    return mono


def _monomial_scales(order):
    """``1 / sqrt(alpha!)`` for the rows of ``_monomials(ut, order)``, their
    multi-indices built in the same order."""
    alphas, start = [(0, 0, 0)], 0
    for d in range(1, order + 1):
        end = len(alphas)
        for j, size in enumerate((1, d, d * (d + 1) // 2)):
            for a in alphas[start : start + size]:
                alphas.append(tuple(x + (i == j) for i, x in enumerate(a)))
        start = end
    return np.array([1.0 / math.sqrt(math.prod(map(math.factorial, a))) for a in alphas])


def _taylor_features(u, w, offsets, fibers, order):
    """Feature rows ``F_f[alpha, c] = sum_i u_i^alpha / sqrt(alpha!) w_i[c]``
    of the given fibers, ``(len(fibers), 3 * n_monomials)``. The fibers are
    grouped by atom count, and each group is taken in chunks of at most
    ``_CHUNK_EVALS / 3`` monomial values: several whole fibers, or a run of
    one fiber's atoms whose products are summed into its features."""
    n_mono = math.comb(order + 3, 3)
    sizes = offsets[fibers + 1] - offsets[fibers]
    out = np.zeros((len(fibers), n_mono, 3))
    step = max(1, _CHUNK_EVALS // (3 * n_mono))
    by_size = np.argsort(sizes, kind="stable")
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        m = int(sizes[group[0]])
        run, per = min(m, step), max(1, step // m)
        for c in range(0, len(group), per):
            g = group[c : c + per]
            for first in range(0, m, run):
                k = min(run, m - first)
                a = (offsets[fibers[g]][:, None] + np.arange(first, first + k)).ravel()
                mono = _monomials(np.ascontiguousarray(u[a].T), order).reshape(n_mono, len(g), k)
                out[g] += np.matmul(mono.transpose(1, 0, 2), w[a].reshape(len(g), k, 3))
    out *= _monomial_scales(order)[:, None]
    return out.reshape(len(fibers), 3 * n_mono)


def _refused(n):
    """``_taylor_sums``'s answer for n pairs none of which takes the form."""
    return np.full(n, np.nan), np.full(n, np.inf)


def _taylor_sums(pos, tan, offsets, ia, ib, sigma):
    """Taylor-feature estimates of the p = 2 pair sums ``(ia[n], ib[n])``.

    Returns ``(sums, delta)``: ``|sums[n] - x| <= delta[n]`` for the sum x
    that ``pair_inner_products`` computes for pair n from the same atoms, on
    any machine. A pair that does not take the Taylor form gets ``sums`` nan
    and ``delta`` inf.

    **Features.** With ``u = x / sigma`` and ``w = g(x) t`` from
    ``_factors``, ``exp(u . v) = sum_alpha u^alpha v^alpha / alpha!``, so
    truncated at order K a pair sum is ``F_a . F_b`` with
    ``F_f[alpha, c] = sum_i u_i^alpha / sqrt(alpha!) w_i[c]`` over the
    ``P = C(K + 3, 3)`` multi-indices ``|alpha| <= K``: 3P terms a pair.

    **Which pairs.** Let ``rho_f`` bound ``|u_i|`` over fiber f's atoms, and
    ``S_f = sum_i |w_i|_1``. A fiber qualifies when
    ``e^(rho^2) tail(rho^2, _TAYLOR_MAX_ORDER)`` is at most ``_TAYLOR_TOL``
    (so rho is below 0.74, and the exact sum takes the factored form) and
    ``S_f >= _TAYLOR_MIN_WEIGHT``. K is the
    smallest order whose tail ``e^r r^(K+1) / (K+1)!`` is at most
    ``_TAYLOR_TOL`` at the largest ``r = rho_a rho_b`` over qualifying pairs.
    A qualifying pair takes the form when ``ma mb > 3P``, so the form never
    costs more terms than the exact sum; the call takes it only when the
    features fit in ``_FEATURE_FLOATS_PER_ATOM`` floats per packed atom, or
    in ``_CHUNK_EVALS`` floats.

    **The bound.** With ``r = rho_a rho_b``, every ``|u_i . v_j| <= r`` and
    ``sum_alpha |u^alpha v^alpha| / alpha! <= e^(|u| |v|) <= e^r``, so the
    terms' magnitudes sum to at most ``e^r S_a S_b`` in either form. Each
    error below is a multiple of that (Higham's ``gamma_n`` for n roundings):

    - truncation: the remainder of ``exp`` after degree K is at most
      ``e^r r^(K+1) / (K+1)!`` for each atom pair, against
      ``|w_i . w_j| <= |w_i|_1 |w_j|_1``;
    - the exact factored sum (``_factored_sums``): ``u . v`` (3 roundings,
      which exp turns into a relative error of at most gamma_4 for r <= 1),
      exp (8 roundings: 4 ulps), ``w_i . w_j`` (3), the product (1) and a
      sum of ma mb terms in any order; another machine's exp also moves each
      ``w`` by 9 roundings: ``gamma_(ma mb + 34)`` in all;
    - the features: a monomial takes at most K products, its product with w
      and the sum over the fiber's atoms in any order ``m_f``, and the scale
      ``1 / sqrt(alpha!)`` 2 roundings and 1 product; the dot of 3P terms
      adds 3P: ``gamma_(ma + mb + 2K + 6 + 3P)``.

    One more rounding each covers underflow: with ``S_a, S_b >= 2^-450``,
    the absolute errors of all subnormal products (at most 2^-1075 each, at
    most 2^28 of them, each reaching the sum scaled by at most
    ``e max(1, S_a, S_b)``) stay below ``u e^r S_a S_b``. So
    ``delta = (r^(K+1) / (K+1)! + gamma_(ma mb + 35) +
    gamma_(ma + mb + 2K + 3P + 7)) e^r S_a S_b``. ``rho``, ``S`` and r carry
    a relative margin of 2^-40 (above 4,100 roundings) and delta one of
    2^-30; ``rho`` also an absolute 2^-500 for a ``|u|^2`` that underflowed.
    The 4 ulps of exp are what numpy states for its vectorized exp; the
    rest is IEEE arithmetic with round to nearest.
    """
    ia = np.ascontiguousarray(ia, dtype=np.int64)
    ib = np.ascontiguousarray(ib, dtype=np.int64)
    sizes = np.diff(offsets)
    if len(ia) == 0:
        return _refused(0)
    u, w, q = _factors(pos, tan, sigma)
    qmax = np.maximum.reduceat(q, offsets[:-1])
    weight = np.add.reduceat(np.abs(w).sum(axis=1), offsets[:-1]) * (1.0 + 2.0**-40)
    with np.errstate(over="ignore"):
        rho = np.sqrt(qmax) * (1.0 + 2.0**-40) + 2.0**-500
        rr = rho * rho
        fits = np.exp(rr) * _taylor_tail(rr, _TAYLOR_MAX_ORDER) <= _TAYLOR_TOL
    fits &= weight >= _TAYLOR_MIN_WEIGHT
    fit = fits[ia] & fits[ib]
    if not fit.any():
        return _refused(len(ia))
    r_max = float((rho[ia[fit]] * rho[ib[fit]]).max())
    order = next(
        k for k in range(_TAYLOR_MAX_ORDER + 1)
        if math.exp(r_max) * _taylor_tail(r_max, k) <= _TAYLOR_TOL
    )
    n_feat = 3 * math.comb(order + 3, 3)
    pairs = np.flatnonzero(fit & (sizes[ia] * sizes[ib] > n_feat))
    used = np.zeros(len(sizes), dtype=bool)
    used[ia[pairs]] = used[ib[pairs]] = True
    fibers = np.flatnonzero(used)
    budget = max(_CHUNK_EVALS, _FEATURE_FLOATS_PER_ATOM * len(pos))
    if len(pairs) == 0 or len(fibers) * n_feat > budget:
        return _refused(len(ia))
    feats = _taylor_features(u, w, offsets, fibers, order)
    del u, w, q  # the pair loops need only the features: a smaller peak
    sums, delta = _refused(len(ia))
    row = np.zeros(len(sizes), dtype=np.int64)
    row[fibers] = np.arange(len(fibers))
    # runs of pairs with one first fiber, at most _CHUNK_EVALS features each:
    # one gather of the partners' rows and one product with the first's row
    first = ia[pairs]
    cut = np.zeros(len(pairs) + 1, dtype=bool)
    cut[1:-1] = first[1:] != first[:-1]
    cut[:: max(1, _CHUNK_EVALS // n_feat)] = cut[-1] = True
    bounds = np.flatnonzero(cut).tolist()
    for s, e in zip(bounds[:-1], bounds[1:]):
        n = pairs[s:e]
        sums[n] = feats[row[ib[n]]] @ feats[row[first[s]]]
    del feats
    for c in range(0, len(pairs), _PAIR_CHUNK):
        n = pairs[c : c + _PAIR_CHUNK]
        a, b = ia[n], ib[n]
        r = rho[a] * rho[b] * (1.0 + 2.0**-40)
        coef = (
            _taylor_tail(r, order)
            + _gamma(sizes[a] * sizes[b] + 35)
            + _gamma(sizes[a] + sizes[b] + 2 * order + n_feat + 7)
        )
        delta[n] = coef * np.exp(r) * weight[a] * weight[b] * (1.0 + 2.0**-30)
    return sums, delta
