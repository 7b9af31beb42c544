"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line so the whole gate can be read off a
``pytest -s tests/test_acceptance.py`` run.
"""

import math
from unittest import mock

import numpy as np
import pytest

from fiberk import (
    CenterFunctionKind,
    DiscreteCurrent,
    Fiber,
    KConfig,
    KernelParams,
    ProcessKind,
    SimConfig,
    csr_reference,
    discretize,
    distance,
    inner_product,
    inset_window,
    k_function,
    make_dataset,
    min_distance,
    pair_distances,
    resample,
)
from fiberk import kfunction
from fiberk.simulate import gen_brownian

from conftest import all_pairs_reference, perturbed_smooth_fiber, smooth_fiber, unit_vector
from reference_impls import short_line_limit

MASS = CenterFunctionKind.MASS_CENTER
PAPER = KernelParams(p=2.0, sigma=100.0 / 3.0)


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def short_line(x0, direction, T):
    half = 0.5 * T * direction
    return discretize(Fiber("l", np.vstack([x0 - half, x0 + half])), T / 4)


def test_01_short_line_analytic_limit():
    rng = np.random.default_rng(101)
    params = KernelParams(p=2.0, sigma=1.0)
    T = 1e-3
    worst = 0.0
    for _ in range(100):
        xu = rng.uniform(-1, 1, 3)
        xv = xu + rng.uniform(0.1, 3.0) * unit_vector(rng)
        u, v = unit_vector(rng), unit_vector(rng)
        md = min_distance(short_line(xu, u, T), short_line(xv, v, T), params)
        err = abs(md**2 / T**2 - short_line_limit(xu, xv, u, v, params))
        worst = max(worst, err)
    report(1, f"short-line analytic limit, worst abs err {worst:.2e} <= 1e-3", worst <= 1e-3)


def test_02_step_function_limit():
    rng = np.random.default_rng(102)
    params = KernelParams(p=1024.0, sigma=1.0)
    T = 1e-3
    u = unit_vector(rng)
    qs = {}
    for mult in (0.9, 1.1):
        xu = np.zeros(3)
        xv = mult * unit_vector(rng)
        md = min_distance(short_line(xu, u, T), short_line(xv, u, T), params)
        d0, d1 = 2.0, 1.0
        qs[mult] = (d0 - md**2 / T**2) / (2 * d1)
    ok = qs[0.9] >= 0.999 and qs[1.1] <= 0.001
    report(2, f"step limit at p=1024: q(0.9s)={qs[0.9]:.4f}, q(1.1s)={qs[1.1]:.2e}", ok)


def test_03_metric_properties():
    rng = np.random.default_rng(103)
    spacing = PAPER.sigma / 20.0
    shapes = [discretize(gen_brownian(40.0, rng), spacing) for _ in range(150)]
    ok = True
    # symmetry must be exact
    for i in range(0, 100, 2):
        a, b = shapes[i], shapes[i + 1]
        ok &= distance(a, b, PAPER) == distance(b, a, PAPER)
        ok &= min_distance(a, b, PAPER) == min_distance(b, a, PAPER)
    # triangle inequality over 1000 random triples, slack >= -1e-9
    idx = rng.integers(0, len(shapes), size=(1000, 3))
    for i, j, k in idx:
        a, b, c = shapes[i], shapes[j], shapes[k]
        ok &= distance(a, c, PAPER) <= distance(a, b, PAPER) + distance(b, c, PAPER) + 1e-9
        ok &= min_distance(a, c, PAPER) <= (
            min_distance(a, b, PAPER) + min_distance(b, c, PAPER) + 1e-9
        )
    for a in shapes[:50]:
        reversed_a = DiscreteCurrent(a.positions[::-1], -a.tangents[::-1])
        ok &= min_distance(a, reversed_a, PAPER) <= 1e-9 * math.sqrt(inner_product(a, a, PAPER))
    report(3, "metric axioms on 1000 random Brownian triples", ok)


def test_04_discretization_convergence():
    rng = np.random.default_rng(104)
    fibers = [smooth_fiber(rng, fid=str(i)) for i in range(50)]
    worst = 0.0
    for i in range(0, 50, 2):
        a, b = fibers[i], fibers[i + 1]
        d20 = min_distance(
            discretize(a, PAPER.sigma / 20), discretize(b, PAPER.sigma / 20), PAPER
        )
        d40 = min_distance(
            discretize(a, PAPER.sigma / 40), discretize(b, PAPER.sigma / 40), PAPER
        )
        worst = max(worst, abs(d20 - d40) / d40)
    report(4, f"halved-spacing distance change {worst:.2%} <= 1%", worst <= 0.01)


def test_05_oracle_equivalence():
    rng = np.random.default_rng(105)

    def fine_riemann(fa, fb, spacing):
        ra, rb = resample(fa, spacing).points, resample(fb, spacing).points
        pa, ta = ra[:-1], np.diff(ra, axis=0)
        pb, tb = rb[:-1], np.diff(rb, axis=0)
        diff = pa[:, None, :] - pb[None, :, :]
        d = np.sqrt((diff**2).sum(-1))
        return float((np.exp(-0.5 * (d / PAPER.sigma) ** 2) * (ta @ tb.T)).sum())

    worst = 0.0
    for i in range(20):
        fa = smooth_fiber(rng, fid=f"a{i}")
        fb = perturbed_smooth_fiber(fa, rng)
        ip = inner_product(
            discretize(fa, PAPER.sigma / 20), discretize(fb, PAPER.sigma / 20), PAPER
        )
        oracle = fine_riemann(fa, fb, PAPER.sigma / 500)
        worst = max(worst, abs(ip - oracle) / abs(oracle))
    report(5, f"inner product vs fine Riemann oracle, worst rel {worst:.2e} <= 1e-3", worst <= 1e-3)


def test_06_csr_spatial_marginal():
    conf = KConfig(kernel=PAPER, t_grid=np.array([10.0, 20.0]), s_grid=np.array([200.0]))
    ratios = []
    for seed in range(20):
        fibers = make_dataset(
            SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=200, seed=seed)
        )
        res = k_function(fibers, conf, inset_window(fibers, MASS, 0.13))
        # normalize the per-fiber neighbor count by the intensity estimate to
        # land on the complete-spatial-randomness ball-volume scale
        ratios.append(res.k[:, 0] / res.intensity_hat)
    mean = np.array(ratios).mean(axis=0)
    target = np.array([csr_reference(10.0), csr_reference(20.0)])
    rel = np.abs(mean / target - 1.0)
    report(
        6,
        f"CSR marginal at t=10/20: rel dev {rel[0]:.2%}/{rel[1]:.2%} <= 10%",
        bool(np.all(rel <= 0.10)),
    )


@pytest.fixture(scope="module")
def process_means():
    conf = KConfig(kernel=PAPER, t_grid=np.array([50.0]), s_grid=np.array([30.0, 40.0, 50.0]))
    means = {}
    for proc in (ProcessKind.UNIFORM_BROWNIAN, ProcessKind.UNIFORM_SPIRALS, ProcessKind.UNIFORM_LINES):
        acc = []
        for seed in range(10):
            fibers = make_dataset(SimConfig(process=proc, n_fibers=200, seed=seed))
            res = k_function(fibers, conf, inset_window(fibers, MASS, 0.13))
            acc.append(res.k[0])
        means[proc] = np.array(acc).mean(axis=0)
    return means


def test_07_shape_ordering(process_means):
    br = process_means[ProcessKind.UNIFORM_BROWNIAN]
    sp = process_means[ProcessKind.UNIFORM_SPIRALS]
    li = process_means[ProcessKind.UNIFORM_LINES]
    ok = bool(np.all(br >= sp) and np.all(sp >= li))
    ok &= br[0] > sp[0] > li[0]  # strict at s = 30
    report(
        7,
        "K ordering at t=50: brownian >= spirals >= lines "
        f"(s=30: {br[0]:.1f} > {sp[0]:.1f} > {li[0]:.1f})",
        ok,
    )


def test_08_estimator_normalization():
    conf = KConfig(
        kernel=PAPER,
        t_grid=np.array([10.0, 30.0, 50.0]),
        s_grid=np.array([20.0, 60.0, 200.0]),
    )
    ok = True
    cases = [
        (ProcessKind.UNIFORM_LINES, 0),
        (ProcessKind.UNIFORM_BROWNIAN, 1),
        (ProcessKind.UNIFORM_SPIRALS, 2),
        (ProcessKind.CLUSTERED_LINES, 3),
    ]
    for proc, seed in cases:
        fibers = make_dataset(SimConfig(process=proc, n_fibers=100, seed=seed))
        window = inset_window(fibers, MASS, 0.13)
        res = k_function(fibers, conf, window)
        with mock.patch.object(kfunction, "_candidate_pairs", all_pairs_reference):
            recs = pair_distances(fibers, conf, window)
            k_all_pairs = k_function(fibers, conf, window).k
        for i, t in enumerate(conf.t_grid):
            for j, s in enumerate(conf.s_grid):
                count = sum(1 for cd, sd, _ in recs if cd <= t and sd <= s)
                scaled = res.k[i, j] * res.n_in_window
                ok &= abs(scaled - round(scaled)) < 1e-9
                ok &= int(round(scaled)) == count
        ok &= pair_distances(fibers, conf, window) == recs
        ok &= bool(np.array_equal(res.k, k_all_pairs))
    report(8, "K*N is an exact integer recount; cell search == all-pairs", ok)


def test_09_clustered_contrast():
    conf = KConfig(kernel=PAPER, t_grid=np.array([10.0]), s_grid=np.array([200.0]))
    vals = {}
    for proc in (ProcessKind.CLUSTERED_LINES, ProcessKind.UNIFORM_LINES):
        acc = []
        for seed in range(10):
            fibers = make_dataset(
                SimConfig(process=proc, n_fibers=200, seed=seed, n_clusters=10, cluster_std=5.0)
            )
            res = k_function(fibers, conf, inset_window(fibers, MASS, 0.13))
            acc.append(res.k[0, 0])
        vals[proc] = float(np.mean(acc))
    ratio = vals[ProcessKind.CLUSTERED_LINES] / vals[ProcessKind.UNIFORM_LINES]
    report(9, f"clustered/uniform K(t=10, s_max) ratio {ratio:.1f} >= 3", ratio >= 3.0)


def test_10_pipeline_determinism(tmp_path):
    from fiberk.cli import main

    fib = tmp_path / "x1.fib"
    sim_args = [
        "simulate", "--process", "lines", "--n", "60", "--length", "40",
        "--box", "0,0,0,100,100,100", "--seed", "11", "--out", str(fib),
    ]
    kf_args = [
        "kfun", "--in", str(fib), "--inset", "0.13",
        "--t-grid", "10:50:10", "--s-grid", "20:100:20",
    ]
    outs = []
    for name in ("a", "b"):
        assert main(sim_args) == 0
        out = tmp_path / f"{name}.csv"
        assert main(kf_args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    report(10, "simulate+kfun byte-identical across repeated runs", outs[0] == outs[1])
