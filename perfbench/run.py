#!/usr/bin/env python3
"""Oracle-checked benchmark of the fiberk CLI.

Usage, from the root of a fiberk checkout:

    python3 perfbench/run.py --workload kfun-paper --seed 1 --seconds 20 --trace 0

The run starts ``WORKERS`` fresh Python processes one after the other. Each
sets up the workload (imports fiberk, runs ``fiberk simulate --seed``, does one
warm-up invocation) and then calls ``fiberk.cli.main`` in a closed loop with a
single client for its share of ``--seconds``. Outputs are checked against the
oracle in ``oracle.py`` outside the timed region.

With ``--trace 0`` the run prints the end-to-end metrics: the median
invocation time and the pair rate, both in units of a reference computation
timed beside each invocation (raw seconds are printed and recorded too), peak
RSS and set-up time (rescaled to a nominal reference speed). A run whose
reference times moved against one taken before the program first ran is
flagged on standard error. With ``--trace 1`` each untraced invocation is
followed by a traced one and the run prints the per-layer metrics; a span that
is gone, or no longer called where the workload should reach it, is reported
absent and its metrics are left out. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every output matched the oracle, 1 when any invocation
failed, and 2 when the fiberk sources are missing. A fuller record (machine,
commit, counts, checks, raw times) is written to
``.perfbench_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes per run: set-up time is the median over them, and pooling
# invocations from several processes evens out per-process speed differences.
WORKERS = 3
# Time allowed for all workers together; the oracle and checks follow.
WORKER_DEADLINE_S = 150.0

# Invocation times are gated in units of the reference computation timed
# beside each invocation (see worker.Reference): on a shared host raw seconds
# drift with the machine's speed by far more than a regression bound. Set-up
# time is reported in seconds at a nominal reference speed: each worker's raw
# set-up seconds times REF_NOMINAL_S over that worker's median reference time.
END_TO_END = [
    ("wall_ref", "ref"),
    ("pairs_per_ref", "1/ref"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]
# About the median reference time on the 2-core Xeon VM where the baseline was
# taken; a fixed constant, so set-up times stay comparable across commits.
REF_NOMINAL_S = 0.19
# Printed and recorded with every untraced run, but not gated.
RAW_TIMES = [
    ("wall_s", "s"),
    ("pairs_per_s", "1/s"),
    ("setup_raw_s", "s"),
    ("ref_s", "s"),
    ("ref_idle_s", "s"),
    ("ref_shift", "frac"),
]
# A run is flagged when the loop's median reference time differs from the one
# taken before the program first ran by more than this share: then something
# the program leaves behind, or a change of machine speed within the run,
# reaches the reference and the gated ratios are suspect. At the baseline
# commit single runs read up to +-0.33 from noise alone (60 runs on a 2-core
# VM) and the median over ten seeds stayed within +-0.06; a smaller systematic
# shift shows in that median, which baseline.json records.
REF_SHIFT_FLAG = 0.4

# (metric, unit, source, span, count key). Sources: "self" is the span's self
# time per invocation, "calls" its call count, "count" a work count taken at
# the span's boundary, "setup" a self time during set-up.
LAYER_METRICS = [
    ("backends.pair_inner_s", "s", "self", "backends.pair_inner", None),
    ("backends.us_per_pair", "us", "per_pair", "backends.pair_inner", None),
    ("backends.kernel_evals", "count", "count", "backends.pair_inner", "backends.kernel_evals"),
    ("backends.self_norms_s", "s", "self", "backends.self_norms", None),
    ("backends.inner_s", "s", "self", "backends.inner", None),
    ("currents.inner_product_s", "s", "self", "currents.inner_product", None),
    ("currents.inner_product_calls", "count", "calls", "currents.inner_product", None),
    ("currents.min_distance_s", "s", "self", "currents.min_distance", None),
    ("currents.discretize_s", "s", "self", "currents.discretize", None),
    ("currents.discretize_calls", "count", "calls", "currents.discretize", None),
    ("currents.atoms", "count", "count", "currents.discretize", "currents.atoms"),
    ("fiber_core.center_s", "s", "self", "fiber_core.center", None),
    ("fiber_core.center_calls", "count", "calls", "fiber_core.center", None),
    ("fiber_core.segment_s", "s", "self", "fiber_core.segment", None),
    ("kfunction.candidate_pairs_s", "s", "self", "kfunction.candidate_pairs", None),
    ("kfunction.candidate_pairs", "count", "count", "kfunction.candidate_pairs",
     "kfunction.candidate_pairs"),
    ("kfunction.k_function_self_s", "s", "self", "kfunction.k_function", None),
    ("kfunction.inset_window_s", "s", "self", "kfunction.inset_window", None),
    ("fileio.read_fibers_s", "s", "self", "fileio.read_fibers", None),
    ("fileio.read_bytes", "B", "count", "fileio.read_fibers", "fileio.read_bytes"),
    ("fileio.fibers_read", "count", "count", "fileio.read_fibers", "fileio.fibers_read"),
    ("fileio.write_s", "s", "self", "fileio.write", None),
    ("fileio.write_bytes", "B", "count", "fileio.write", "fileio.write_bytes"),
    ("cli.self_s", "s", "self", "cli", None),
    ("simulate.make_dataset_s", "s", "setup", "simulate.make_dataset", None),
    ("fileio.write_fibers_s", "s", "setup", "fileio.write_fibers", None),
]
EXTRA_LAYER_METRICS = [
    ("trace.overhead_frac", "frac"),
    ("oracle.pairs", "count"),
    ("oracle.ambiguous_pairs", "count"),
]


def uncalled(layers: dict, off_path) -> set[str]:
    """Spans that are wrapped but were not called although the workload's
    command is expected to reach them."""
    return {span for span, n in layers["calls"].items() if n == 0 and span not in off_path}


def layer_values(layers: dict, off_path=()) -> dict:
    """Per-layer metrics of one traced invocation. Metrics of absent spans,
    whose boundary is gone or no longer reached, are left out; spans in
    ``off_path`` that were not called read zero."""
    out = {}
    missing = uncalled(layers, off_path)
    for metric, _, source, span, key in LAYER_METRICS:
        if span not in layers["self_s"] or span in missing:
            continue
        if source == "self":
            out[metric] = layers["self_s"][span]
        elif source == "calls":
            out[metric] = layers["calls"][span]
        elif source == "count":
            out[metric] = layers["counts"].get(key, 0)
        elif source == "per_pair":
            pairs = layers["counts"].get("backends.pairs", 0)
            out[metric] = 1e6 * layers["self_s"][span] / pairs if pairs else 0.0
    return out


def environment(seed: int, nproc: int, reports: list[dict]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fiberk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    first = reports[0] if reports else {}
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": first.get("numpy", "unknown"),
        "blas_threads": nproc,
        "backend": first.get("backend", "unknown"),
        "seed": seed,
    }


def run_workers(args, workdir: Path, nproc: int) -> tuple[list[dict], list[str]]:
    threads = str(nproc)
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        NUMEXPR_NUM_THREADS=threads,
    )
    reports, crashes = [], []
    start = time.monotonic()
    measured = 0.0
    for k in range(WORKERS):
        report_path = workdir / f"worker-{k}.json"
        cfg = {
            "workload": args.workload,
            "seed": args.seed,
            # Time a worker leaves unused, or overdraws, passes to the next.
            "budget_s": (args.seconds - measured) / (WORKERS - k),
            "trace": bool(args.trace),
            "index": k,
            "workdir": str(workdir),
            "report": str(report_path),
            "src": str(SRC),
        }
        remaining = WORKER_DEADLINE_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, remaining),
            )
        except subprocess.TimeoutExpired:
            crashes.append(f"worker {k} did not finish within the run's deadline")
            break
        if proc.returncode != 0 or not report_path.exists():
            crashes.append(f"worker {k} exited with {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        with open(report_path) as fh:
            reports.append(json.load(fh))
        measured += reports[-1]["loop_s"]
    return reports, crashes


def check_outputs(workload, reports: list[dict]):
    """Oracle verdicts per distinct output: key -> list of problems."""
    sys.path.insert(0, str(SRC))
    import oracle

    expectation = oracle.expect(workload, reports[0]["input_path"])
    verdicts = {}
    for r in reports:
        for key, out in r["outputs"].items():
            if key not in verdicts:
                verdicts[key] = expectation.check(Path(out["path"]).read_text(), out["stdout"])
    return expectation, verdicts


def summarise(args, workload, reports, crashes, expectation, verdicts):
    problems = list(crashes)
    if len({r["input_sha256"] for r in reports}) > 1:
        problems.append("workers generated different input files from one seed")
    for key, found in verdicts.items():
        problems += [f"output {key[:12]}: {p}" for p in found]
    samples = [s for r in reports for s in [r["warmup"]] + r["samples"]]
    bad = 0
    for s in samples:
        if s["error"] is not None:
            problems.append(f"invocation raised:\n{s['error']}")
        elif s["rc"] != 0:
            problems.append(f"invocation exited with {s['rc']}")
        if s["error"] is not None or s["rc"] != 0 or s["output"] is None or verdicts.get(s["output"]):
            bad += 1
    attempted = len(samples) + len(crashes)
    failed = bad + len(crashes)

    metrics, raw = {}, {}
    untraced = [s["wall_s"] for r in reports for s in r["samples"] if not s["traced"]]
    if untraced and not args.trace:
        timed = [s for r in reports for s in r["samples"]]
        wall_ref = statistics.median(s["wall_s"] / s["ref_s"] for s in timed)
        metrics["wall_ref"] = wall_ref
        metrics["pairs_per_ref"] = expectation.pairs / wall_ref
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reports)
        metrics["setup_s"] = statistics.median(
            r["setup"]["setup_s"] * REF_NOMINAL_S / statistics.median(s["ref_s"] for s in r["samples"])
            for r in reports
        )
        wall = statistics.median(untraced)
        raw = {
            "wall_s": wall,
            "pairs_per_s": expectation.pairs / wall,
            "setup_raw_s": statistics.median(r["setup"]["setup_s"] for r in reports),
            "ref_s": statistics.median(s["ref_s"] for s in timed),
            "ref_idle_s": statistics.median(r["ref_idle_s"] for r in reports),
            "ref_shift": statistics.median(
                statistics.median(s["ref_s"] for s in r["samples"]) / r["ref_idle_s"] - 1.0
                for r in reports
            ),
        }
    counts_repeat = None
    missing = set()
    if untraced and args.trace:
        traced = [s for r in reports for s in r["samples"] if s["traced"] and "layers" in s]
        per_inv = [layer_values(s["layers"], workload.off_path) for s in traced]
        missing = {span for s in traced for span in uncalled(s["layers"], workload.off_path)}
        for metric, _, source, span, _ in LAYER_METRICS:
            if source == "setup":
                vals = [r["setup_layers"]["self_s"][span] for r in reports
                        if span in r.get("setup_layers", {}).get("self_s", {})]
            else:
                vals = [v[metric] for v in per_inv if metric in v]
            if vals:
                metrics[metric] = statistics.median(vals)
        counts_repeat = all(
            len({v.get(m) for v in per_inv}) <= 1
            for m, unit, *_ in LAYER_METRICS if unit in ("count", "B")
        )
        if traced:
            metrics["trace.overhead_frac"] = (
                statistics.median(s["wall_s"] for s in traced) / statistics.median(untraced) - 1.0
            )
        metrics["oracle.pairs"] = expectation.pairs
        metrics["oracle.ambiguous_pairs"] = expectation.ambiguous
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "counts_repeat": counts_repeat,
        "walls_s": untraced,
        "uncalled": missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fiberk" / "__init__.py").is_file():
        print(f"perfbench: fiberk sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))

    reports, crashes = run_workers(args, workdir, nproc)
    for r in reports:
        r["input_path"] = str(workdir / f"input-{r['index']}.txt")
    expectation, verdicts = check_outputs(workload, reports) if reports else (None, {})
    summary = summarise(args, workload, reports, crashes, expectation, verdicts) if reports else {
        "attempted": len(crashes), "failed": len(crashes), "problems": crashes,
        "metrics": {}, "raw": {}, "counts_repeat": None, "walls_s": [], "uncalled": set(),
    }
    env = environment(args.seed, nproc, reports)
    summary["fail_frac"] = summary["failed"] / summary["attempted"]
    correct = summary["failed"] == 0 and not summary["problems"]

    units = dict(END_TO_END + RAW_TIMES + [(m[0], m[1]) for m in LAYER_METRICS] + EXTRA_LAYER_METRICS)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()},
        "raw_times": {k: {"value": v, "unit": units[k]} for k, v in summary["raw"].items()},
        "fail_frac": summary["fail_frac"],
        "absent_spans": sorted({a for r in reports for a in r.get("absent", [])} | summary["uncalled"]),
        "ref_flagged": abs(summary["raw"].get("ref_shift", 0.0)) > REF_SHIFT_FLAG,
        "setup": [r["setup"] for r in reports],
        "layer_map": LAYER_MAP,
        **{k: summary[k] for k in ("attempted", "failed", "problems", "counts_repeat", "walls_s")},
    }
    if expectation is not None:
        record["pairs"] = expectation.pairs
        record["ambiguous_pairs"] = expectation.ambiguous
    with open(workdir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for r in reports:
        for out in r["outputs"].values():
            os.remove(out["path"])
        os.remove(r["input_path"])
        out_path = workdir / f"output-{r['index']}.csv"
        if out_path.exists():
            os.remove(out_path)

    for p in summary["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    if record["absent_spans"]:
        print(f"perfbench: absent spans: {', '.join(record['absent_spans'])}", file=sys.stderr)
    if record["ref_flagged"]:
        print(f"perfbench: warning: reference time moved by {summary['raw']['ref_shift']:+.1%} "
              "against the one taken before the program ran; wall_ref and setup_s are suspect",
              file=sys.stderr)
    print(f"perfbench env {json.dumps(env)}")
    for name, m in {**record["metrics"], **record["raw_times"]}.items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':30s} {summary['fail_frac']:>14.6g} 1"
          f"  ({summary['failed']} of {summary['attempted']} invocations)")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
