"""Workload definitions shared by the benchmark driver, its worker and its oracle.

Every workload simulates Brownian fibers with ``fiberk simulate`` and runs one
``fiberk`` command on the file. Kernel bandwidth (sigma = 100/3), atom spacing
(sigma/20) and the center function (mass center) are the CLI defaults, so the
argument lists below do not repeat them; the oracle uses the same constants.

This module imports only the standard library: the worker times the import of
numpy and fiberk as part of set-up, so nothing may load them earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

SIGMA = 100.0 / 3.0
SPACING = SIGMA / 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "kfun" or "dist"
    n_fibers: int
    p: float = 2.0
    inset: float | None = None
    t_grid: tuple[float, float, float] | None = None  # start, stop, step
    s_grid: tuple[float, float, float] | None = None
    segment_length: float | None = None
    # Spans this command never reaches: their per-layer metrics read 0. Any
    # other span that is wrapped but not called is reported absent, because a
    # later change has routed the work past it.
    off_path: tuple[str, ...] = ()

    def simulate_argv(self, seed: int, out_path: str) -> list[str]:
        return [
            "simulate", "--process", "brownian", "--n", str(self.n_fibers),
            "--seed", str(seed), "--out", out_path,
        ]

    def command_argv(self, in_path: str, out_path: str) -> list[str]:
        argv = [self.command, "--in", in_path, "--p", _num(self.p)]
        if self.command == "kfun":
            argv += ["--inset", _num(self.inset)]
            if self.segment_length is not None:
                argv += ["--segment-length", _num(self.segment_length)]
            argv += ["--t-grid", _grid(self.t_grid), "--s-grid", _grid(self.s_grid)]
        return argv + ["--out", out_path]


def _num(x: float) -> str:
    return f"{x:g}"


def _grid(g: tuple[float, float, float]) -> str:
    return ":".join(_num(v) for v in g)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="kfun-paper",
            why=(
                "Paper-scale K-function (500 fibers, p=2); most time is in the "
                "pair kernel sums, so a kernel or GEMM change shows here."
            ),
            command="kfun",
            n_fibers=500,
            inset=0.13,
            t_grid=(5, 50, 5),
            s_grid=(10, 100, 10),
            off_path=(
                "backends.inner", "currents.inner_product", "currents.min_distance",
                "fiber_core.segment",
            ),
        ),
        Workload(
            name="kfun-segmented",
            why=(
                "500 fibers cut into 5,000 short pieces; per-fiber preparation "
                "dominates and pair sums are small, so prepare-once work shows here."
            ),
            command="kfun",
            n_fibers=500,
            inset=0.13,
            t_grid=(1, 4, 1),
            s_grid=(1, 8, 1),
            segment_length=4,
            off_path=("backends.inner", "currents.inner_product", "currents.min_distance"),
        ),
        Workload(
            name="dist-all",
            why=(
                "All 19,900 pairs of 200 fibers through the per-pair distance path "
                "with p=1 and the largest CSV; a p=2-only fast path is bypassed here."
            ),
            command="dist",
            n_fibers=200,
            p=1.0,
            off_path=(
                "backends.pair_inner", "backends.self_norms", "fiber_core.segment",
                "kfunction.candidate_pairs", "kfunction.inset_window", "kfunction.k_function",
            ),
        ),
    ]
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload it carries a large share of the traced wall time (seed 1). A change
# to one layer is expected to move its end-to-end metrics on the "on"
# workloads and to leave the others unchanged.
LAYER_MAP = [
    {"layer": ["backends.pair_inner_s", "backends.us_per_pair", "backends.kernel_evals"],
     "moves": ["wall_ref", "pairs_per_ref"], "on": ["kfun-paper", "kfun-segmented"],
     "not_on": ["dist-all"]},
    {"layer": ["backends.inner_s", "currents.inner_product_s",
               "currents.inner_product_calls", "currents.min_distance_s"],
     "moves": ["wall_ref"], "on": ["dist-all"], "not_on": ["kfun-paper", "kfun-segmented"]},
    {"layer": ["fiber_core.center_s", "fiber_core.center_calls", "currents.discretize_s",
               "currents.discretize_calls", "currents.atoms", "fiber_core.segment_s"],
     "moves": ["wall_ref"], "on": ["kfun-segmented", "kfun-paper"], "not_on": []},
    {"layer": ["kfunction.candidate_pairs_s", "kfunction.candidate_pairs"],
     "moves": ["wall_ref", "peak_rss_mb"], "on": ["kfun-paper"], "not_on": ["dist-all"]},
    {"layer": ["backends.self_norms_s"], "moves": ["wall_ref"], "on": ["kfun-segmented"],
     "not_on": ["dist-all"]},
    {"layer": ["kfunction.k_function_self_s", "kfunction.inset_window_s"],
     "moves": ["wall_ref"], "on": ["kfun-paper", "kfun-segmented"], "not_on": ["dist-all"]},
    {"layer": ["fileio.read_fibers_s", "fileio.read_bytes", "fileio.fibers_read"],
     "moves": ["wall_ref"], "on": ["kfun-paper", "kfun-segmented", "dist-all"], "not_on": []},
    {"layer": ["fileio.write_s", "fileio.write_bytes", "cli.self_s"],
     "moves": ["wall_ref"], "on": ["dist-all"], "not_on": []},
    {"layer": ["simulate.make_dataset_s", "fileio.write_fibers_s"],
     "moves": ["setup_s"], "on": ["kfun-paper", "kfun-segmented", "dist-all"], "not_on": []},
    {"layer": ["trace.overhead_frac"], "moves": [], "on": [], "not_on": []},
]
