"""Tests of the benchmark itself: its oracle, its spans and its exact counts.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

from fiberk import cli  # noqa: E402


def _invoke(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _simulate(tmp_path, name, seed, n=None) -> str:
    path = str(tmp_path / f"{name}-{seed}-{n}.txt")
    w = WORKLOADS[name] if n is None else dataclasses.replace(WORKLOADS[name], n_fibers=n)
    _invoke(w.simulate_argv(seed, path))
    return path


def _copy_checkout(tmp_path, name=None, n=None):
    """Copies the benchmark and the fiberk sources to ``tmp_path``; with
    ``name`` the copied workload runs ``n`` fibers."""
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    if name is not None:
        with open(tmp_path / "perfbench" / "workloads.py", "a") as fh:
            fh.write(f"\nimport dataclasses as _dc\n\n"
                     f"WORKLOADS[{name!r}] = _dc.replace(WORKLOADS[{name!r}], n_fibers={n})\n")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layer_units = [(m[0], m[1]) for m in run.LAYER_METRICS] + run.EXTRA_LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_units
    mapped = {name for row in LAYER_MAP for name in row["layer"]}
    assert mapped <= {name for name, _ in layer_units}
    gated = {name for name, _ in run.END_TO_END}
    assert {name for row in LAYER_MAP for name in row["moves"]} <= gated
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name,n", [("kfun-paper", 120), ("kfun-segmented", 60), ("dist-all", 40)])
def test_reduced_size_run_passes_the_oracle(tmp_path, name, n):
    _copy_checkout(tmp_path, name, n)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == expected
    record = json.loads((tmp_path / ".perfbench_work" / f"{name}-seed3-trace1" / "result.json").read_text())
    assert record["counts_repeat"] is True
    assert record["absent_spans"] == []
    assert record["environment"]["seed"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_rejects_a_wrong_output(tmp_path, name):
    w = WORKLOADS[name]
    path = _simulate(tmp_path, name, 5, 60 if w.command == "kfun" else 30)
    out = str(tmp_path / "out.csv")
    stdout = _invoke(w.command_argv(path, out))
    text = Path(out).read_text()
    expectation = oracle.expect(w, path)
    assert expectation.check(text, stdout) == []

    lines = text.splitlines()
    if w.command == "kfun":
        n_in = expectation.n_in
        t, s, k = lines[-1].split(",")
        lines[-1] = f"{t},{s},{(round(float(k) * n_in) + 1) / n_in!r}"
    else:
        a, b, cd, sd = lines[7].split(",")
        lines[7] = f"{a},{b},{cd},{float(sd) * (1 + 1e-7)!r}"
    assert expectation.check("\n".join(lines) + "\n", stdout)
    if w.command == "dist":
        lines = text.splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        assert expectation.check("\n".join(lines) + "\n", stdout)


def test_oracle_counts_ambiguous_pairs_as_either_side():
    cd = np.array([5.0, 7.0])
    grid = np.array([5.0, 10.0])
    assert oracle._near_edge(cd, grid).tolist() == [True, False]
    assert oracle._near_edge(cd * (1 + 2e-9), grid).tolist() == [False, False]


def test_segmentation_matches_the_program(tmp_path):
    path = _simulate(tmp_path, "kfun-segmented", 2, 5)
    for fid, pts in oracle.read_fiber_file(path):
        ours = oracle.segment_points(pts, 4.0)
        theirs = cli.segment(cli.read_fibers(path)[int(fid)], 4.0)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            np.testing.assert_allclose(a, b.points, rtol=0, atol=1e-12)


def test_self_times_partition_the_root_span(tmp_path):
    path = _simulate(tmp_path, "kfun-paper", 4, 50)
    rec = spans.Recorder()
    argv = WORKLOADS["kfun-paper"].command_argv(path, str(tmp_path / "k.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        rc, stats = rec.run(1, spans.INVOCATION_BOUNDARIES, "cli", cli.main, argv)
    assert rc == 0
    root = [s for s in rec.spans if s[3] == "cli"]
    assert len(root) == 1
    assert sum(stats["self_s"].values()) == pytest.approx(root[0][5] - root[0][4], rel=1e-9)
    by_id = {s[1]: s for s in rec.spans}
    for run_id, _, parent, _, t0, t1 in rec.spans:
        assert run_id == 1
        if parent != -1:
            assert by_id[parent][4] <= t0 <= t1 <= by_id[parent][5]


def test_a_removed_boundary_is_absent_not_zero(tmp_path):
    path = _simulate(tmp_path, "dist-all", 4, 10)
    argv = WORKLOADS["dist-all"].command_argv(path, str(tmp_path / "d.csv"))
    boundaries = spans.INVOCATION_BOUNDARIES + [("kfunction.gone", "fiberk.kfunction", "no_such", None)]
    rec = spans.Recorder()
    with contextlib.redirect_stdout(io.StringIO()):
        _, stats = rec.run(1, boundaries, "cli", cli.main, argv)
    assert rec.absent == {"kfunction.gone"}
    assert "kfunction.gone" not in stats["self_s"]
    # dist never reaches the pair kernel: zero there, but absent on a
    # workload whose command should reach it.
    values = run.layer_values(stats, WORKLOADS["dist-all"].off_path)
    assert values["backends.pair_inner_s"] == 0.0
    assert values["backends.kernel_evals"] == 0
    assert run.uncalled(stats, WORKLOADS["dist-all"].off_path) == set()
    values = run.layer_values(stats, WORKLOADS["kfun-paper"].off_path)
    assert "backends.pair_inner_s" not in values and "backends.kernel_evals" not in values
    assert "backends.pair_inner" in run.uncalled(stats, WORKLOADS["kfun-paper"].off_path)
    del stats["self_s"]["backends.pair_inner"]
    del stats["calls"]["backends.pair_inner"]
    assert "backends.pair_inner_s" not in run.layer_values(stats, WORKLOADS["dist-all"].off_path)


# Exact work counts of one invocation on seed 1 at full size.
SEED1_COUNTS = {
    "kfun-paper": {
        "kfunction.candidate_pairs": 27757,
        "backends.kernel_evals": 15988032,
        "fiber_core.center_calls": 2000,
        "currents.discretize_calls": 500,
        "currents.atoms": 12000,
        "fileio.fibers_read": 500,
        "currents.inner_product_calls": 0,
    },
    "kfun-segmented": {
        "kfunction.candidate_pairs": 12086,
        "backends.kernel_evals": 108774,
        "fiber_core.center_calls": 20000,
        "currents.discretize_calls": 5000,
        "currents.atoms": 15000,
        "currents.inner_product_calls": 0,
    },
    "dist-all": {
        "currents.inner_product_calls": 59700,
        "kfunction.candidate_pairs": 0,
        "backends.kernel_evals": 0,
        "fiber_core.center_calls": 200,
        "fileio.fibers_read": 200,
    },
}
SEED1_PAIRS = {"kfun-paper": 27757, "kfun-segmented": 12086, "dist-all": 19900}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed1_counts_are_exact_and_repeat(tmp_path, name):
    w = WORKLOADS[name]
    path = _simulate(tmp_path, name, 1)
    argv = w.command_argv(path, str(tmp_path / "out.csv"))
    rec = spans.Recorder()
    runs = []
    for run_id in (1, 2):
        with contextlib.redirect_stdout(io.StringIO()):
            rc, stats = rec.run(run_id, spans.INVOCATION_BOUNDARIES, "cli", cli.main, argv)
        assert rc == 0
        assert run.uncalled(stats, w.off_path) == set()
        assert {span for span in w.off_path if stats["calls"][span] == 0} == set(w.off_path)
        runs.append({k: v for k, v in run.layer_values(stats, w.off_path).items()
                     if not k.endswith("_s") and k != "backends.us_per_pair"})
    assert runs[0] == runs[1]
    for metric, value in SEED1_COUNTS[name].items():
        assert runs[0][metric] == value, metric
    assert oracle.expect(w, path).pairs == SEED1_PAIRS[name]


# Appended to a copy of fiberk/__init__.py: every kfun or dist invocation
# scales the last value of its CSV by 1.5 after writing it.
_CORRUPT_OUTPUT = '''
from . import cli as _cli

_real_main = _cli.main


def _corrupting_main(argv=None):
    rc = _real_main(argv)
    if argv and argv[0] in ("kfun", "dist"):
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            lines = fh.read().splitlines()
        head, last = lines[-1].rsplit(",", 1)
        lines[-1] = f"{head},{float(last) * 1.5!r}"
        with open(path, "w") as fh:
            fh.write("\\n".join(lines) + "\\n")
    return rc


_cli.main = _corrupting_main
'''


@pytest.mark.parametrize("name,n", [("kfun-paper", 60), ("dist-all", 20)])
def test_a_wrong_output_fails_the_run(tmp_path, name, n):
    _copy_checkout(tmp_path, name, n)
    with open(tmp_path / "src" / "fiberk" / "__init__.py", "a") as fh:
        fh.write(_CORRUPT_OUTPUT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0.3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4
    assert "oracle" in proc.stderr or "differ" in proc.stderr
    record = json.loads((tmp_path / ".perfbench_work" / f"{name}-seed1-trace0" / "result.json").read_text())
    assert {"ref_s", "ref_idle_s", "ref_shift"} <= set(record["raw_times"])


class _ShortReference(worker.Reference):
    ROUNDS = 1000


def test_a_blas_heavy_call_leaves_the_reference_unchanged():
    # Pairs of reference timings, one straight after another and one straight
    # after a threaded GEMM; the reference's own pause and warm-up must hide
    # the GEMM.
    reference = _ShortReference(np)
    a = np.random.default_rng(0).standard_normal((800, 800))
    ratios = []
    for _ in range(30):
        quiet = reference()
        for _ in range(5):
            a @ a
        ratios.append(reference() / quiet)
    assert statistics.median(ratios) == pytest.approx(1.0, abs=0.1)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kfun-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
