import numpy as np
import pytest

from fiberk import CenterFunctionKind, Fiber, center


def unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_polyline(rng, n_pts=20, scale=5.0, fid="f"):
    """Generic jagged test polyline (cumulative random steps)."""
    steps = scale * rng.standard_normal((n_pts - 1, 3))
    pts = np.vstack([rng.standard_normal(3), np.cumsum(steps, axis=0)])
    return Fiber(fid, pts)


def smooth_fiber(rng, length=40.0, n_pts=200, fid="s"):
    """Centered smooth curve: a line plus low-frequency transverse sinusoids,
    rescaled to the requested arclength."""
    d = unit_vector(rng)
    a = unit_vector(rng)
    e1 = np.cross(d, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    t = np.linspace(0.0, 1.0, n_pts)
    amp1, amp2 = rng.uniform(2, 6, 2)
    f1, f2 = rng.integers(1, 4, 2)
    ph1, ph2 = rng.uniform(0, 2 * np.pi, 2)
    pts = (
        (t * length)[:, None] * d
        + (amp1 * np.sin(2 * np.pi * f1 * t + ph1))[:, None] * e1
        + (amp2 * np.sin(2 * np.pi * f2 * t + ph2))[:, None] * e2
    )
    pts *= length / np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    return center(Fiber(fid, pts), CenterFunctionKind.MASS_CENTER).fiber


def perturbed_smooth_fiber(base, rng, amp=3.0, length=40.0):
    """A smoothly displaced variant of ``base`` (correlated pair partner)."""
    t = np.linspace(0, 1, len(base.points))
    disp = np.stack(
        [
            amp * np.sin(2 * np.pi * rng.integers(1, 3) * t + rng.uniform(0, 2 * np.pi))
            for _ in range(3)
        ],
        axis=1,
    )
    pts = base.points + disp
    pts *= length / np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    return center(Fiber(base.id + "p", pts), CenterFunctionKind.MASS_CENTER).fiber


def all_pairs_reference(centers, in_window, rmax):
    """Brute-force stand-in for ``fiberk.kfunction._candidate_pairs``: every
    pair i < j, then the window filter, then the center-distance filter."""
    ii, jj = np.triu_indices(len(centers), k=1)
    keep = in_window[ii] | in_window[jj]
    ii, jj = ii[keep], jj[keep]
    if rmax is not None:
        sel = np.linalg.norm(centers[ii] - centers[jj], axis=1) <= rmax
        ii, jj = ii[sel], jj[sel]
    return ii.astype(np.int64), jj.astype(np.int64)


def rebinned_k(records, t_grid, s_grid, n_in):
    """The K table of ordered ``pair_distances`` records: each record is
    counted in the cell of the first grid values at or above its center and
    shape distances, then the counts are summed cumulatively and divided by
    ``n_in``, as ``k_function`` does."""
    counts = np.zeros((len(t_grid) + 1, len(s_grid) + 1), dtype=np.int64)
    for cd, sd, _ in records:
        counts[np.searchsorted(t_grid, cd), np.searchsorted(s_grid, sd)] += 1
    cum = counts.cumsum(axis=0).cumsum(axis=1)[: len(t_grid), : len(s_grid)]
    return cum.astype(np.float64) / n_in


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
