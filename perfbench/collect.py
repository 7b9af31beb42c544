#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

For each workload and seed this runs ``run.py`` for the ``run_seconds`` in
``BENCHMARK.json`` and reports, per metric and per recorded raw time, the
median, the quartiles and the spread (distance between the quartiles as a
share of the median, from ``statistics.quantiles(values, n=4)``). The summary
is merged into ``--out`` under the key ``trace<t>-seeds<seeds>``, next to the
machine record of the first run, so several seed sets sit side by side:

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline.json
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10, or a list 1,4,9")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{args.trace}" / "result.json").read_text()
            )
            report.setdefault("environment", record["environment"])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "rc": proc.returncode, "attempted": result["attempted"],
                         "failed": result["failed"], "fail_frac": record["fail_frac"],
                         "ref_flagged": record["ref_flagged"]})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for metric, m in record["raw_times"].items():
                raw.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: rc={proc.returncode} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if k in bounds
            ), flush=True)
        metrics = {metric: summary(v) for metric, v in values.items()}
        report["workloads"][name] = {
            "runs": runs,
            "metrics": metrics,
            "raw_times": {metric: summary(v) for metric, v in raw.items()},
        }
        for metric, s in metrics.items():
            if metric in bounds and "spread" in s:
                print(f"  {name:16s} {metric:14s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  (bound {bounds[metric]})")
    report["environment"].pop("seed", None)
    if args.out is not None:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged["layer_map"] = LAYER_MAP
        merged[f"trace{args.trace}-seeds{args.seeds}"] = report
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
