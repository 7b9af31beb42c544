"""One fresh benchmark process: set up a workload, then run it in a closed loop.

Run by ``run.py`` as ``python3 worker.py '<json config>'``. The worker times
its own set-up (importing fiberk, ``fiberk simulate`` writing the input file,
and one untimed warm-up invocation), then calls ``fiberk.cli.main`` in-process
until its time budget is spent, each invocation starting after the previous
one returned. It keeps one copy of every distinct output for the oracle check
in the parent, and writes a JSON report (and, when traced, the spans) into its
work directory.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class Invoker:
    """Runs CLI invocations, timing them and recording their outputs."""

    def __init__(self, cli, workdir: str, index: int, recorder):
        self.cli = cli
        self.workdir = workdir
        self.index = index
        self.recorder = recorder
        self.outputs: dict[str, dict] = {}
        self.runs = 0

    def __call__(self, argv, out_path, boundaries=None):
        """One invocation; returns a sample dict. Tracing is on when
        ``boundaries`` is given."""
        if os.path.exists(out_path):
            os.remove(out_path)
        self.runs += 1
        buf = io.StringIO()
        layers = error = rc = None
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                if boundaries is None:
                    rc = self.cli.main(argv)
                else:
                    rc, layers = self.recorder.run(self.runs, boundaries, "cli", self.cli.main, argv)
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        sample = {"wall_s": wall, "rc": rc, "error": error, "traced": boundaries is not None}
        if layers is not None:
            sample["layers"] = layers
        sample["output"] = self._keep_output(out_path, buf.getvalue())
        return sample

    def _keep_output(self, out_path, stdout):
        if not os.path.exists(out_path):
            return None
        with open(out_path, "rb") as fh:
            data = fh.read()
        key = hashlib.sha256(data + b"\0" + stdout.encode()).hexdigest()
        if key not in self.outputs:
            path = os.path.join(self.workdir, f"out-{self.index}-{len(self.outputs)}.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            self.outputs[key] = {"path": path, "stdout": stdout}
        return key


class Reference:
    """A fixed computation owned by the benchmark, timed next to every
    invocation. Its time tracks the machine's current speed, so dividing an
    invocation's wall time by it cancels the slow drift of a shared host.
    The mix (a Python loop over small numpy kernel sums between 24-atom sets)
    resembles the program's hot paths and uses no fiberk code.

    State the program leaves behind could still slow it: OpenBLAS threads
    keep spin-waiting for a while after a threaded GEMM and compete for the
    cores. So each timing starts after a pause of ``IDLE_S``, longer than
    OpenBLAS's spin timeout (2**28 cycles, about 0.1 s at 2.5 GHz), then busy-
    waits ``WARM_S``: on a VM a vCPU that has just idled runs the next stretch
    slower and far less evenly (on a 2-core VM, +8% and an IQR of 0.3-0.4 of
    the median without the warm-up, 0.1-0.15 with it). ``run.py`` also
    compares the loop's reference times with one taken before the program
    first ran, and flags a run where they differ."""

    ROUNDS = 4000
    SETS = 64
    IDLE_S = 0.3
    WARM_S = 0.1

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.pos = rng.standard_normal((self.SETS, 24, 3)) * 10.0
        self.tan = rng.standard_normal((self.SETS, 24, 3))

    def __call__(self) -> float:
        np, pos, tan = self.np, self.pos, self.tan
        acc = 0.0
        time.sleep(self.IDLE_S)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.WARM_S:
            pass
        t0 = time.perf_counter()
        for k in range(self.ROUNDS):
            a, b = k % self.SETS, (7 * k + 3) % self.SETS
            diff = pos[a][:, None, :] - pos[b][None, :, :]
            d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            acc += float(np.einsum("ij,ij->", np.exp(-0.5 * (d / 33.0) ** 2), tan[a] @ tan[b].T))
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("reference computation gave a non-finite sum")
        return elapsed


def main(cfg: dict) -> dict:
    sys.path.insert(0, cfg["src"])
    from fiberk import backends, cli
    import numpy
    import_s = time.perf_counter() - _T0

    recorder = None
    if cfg["trace"]:
        import spans
        recorder = spans.Recorder()
    w = WORKLOADS[cfg["workload"]]
    k = cfg["index"]
    workdir = cfg["workdir"]
    in_path = os.path.join(workdir, f"input-{k}.txt")
    out_path = os.path.join(workdir, f"output-{k}.csv")
    invoke = Invoker(cli, workdir, k, recorder)
    report = {
        "index": k,
        "numpy": numpy.__version__,
        "backend": "numba" if backends.USE_NUMBA else "numpy",
        "samples": [],
    }

    # The reference as the machine runs it before any fiberk call; set-up
    # time does not include it.
    reference = Reference(numpy) if recorder is None else None
    if reference is not None:
        report["ref_idle_s"] = reference()

    sim_argv = w.simulate_argv(cfg["seed"], in_path)
    t0 = time.perf_counter()
    if recorder is None:
        rc = cli.main(sim_argv)
    else:
        rc, report["setup_layers"] = recorder.run(0, spans.SETUP_BOUNDARIES, "setup", cli.main, sim_argv)
    simulate_s = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"fiberk simulate exited with {rc}")
    with open(in_path, "rb") as fh:
        report["input_sha256"] = hashlib.sha256(fh.read()).hexdigest()

    argv = w.command_argv(in_path, out_path)
    warmup = invoke(argv, out_path)
    report["warmup"] = warmup
    report["setup"] = {
        "import_s": import_s,
        "simulate_s": simulate_s,
        "warmup_s": warmup["wall_s"],
        "setup_s": import_s + simulate_s + warmup["wall_s"],
    }

    # Closed loop: in a traced run every untraced invocation is followed by a
    # traced one, so both see the same machine state for the overhead ratio.
    # An untraced run times the reference after every invocation and keeps,
    # per invocation, the mean of the reference times on either side of it.
    modes = [None, spans.INVOCATION_BOUNDARIES] if recorder is not None else [None]
    ref_before = reference() if reference is not None else None
    # Another round starts only if it is expected to end less than half a
    # round past the budget, so on average the loop uses the whole budget.
    start = time.perf_counter()
    rounds = 0
    while True:
        for boundaries in modes:
            sample = invoke(argv, out_path, boundaries)
            if reference is not None:
                ref_after = reference()
                sample["ref_s"] = 0.5 * (ref_before + ref_after)
                ref_before = ref_after
            report["samples"].append(sample)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= cfg["budget_s"]:
            break
    report["loop_s"] = elapsed

    report["outputs"] = invoke.outputs
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        report["absent"] = sorted(recorder.absent)
        spans_path = os.path.join(workdir, f"spans-{k}.csv.gz")
        recorder.write(spans_path)
        report["spans_path"] = spans_path
    return report


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    result = main(config)
    with open(config["report"], "w") as fh:
        json.dump(result, fh)
