"""Command-line interface: simulate fiber datasets, estimate the K-function,
and dump pairwise distances.

Exit codes: 0 success, 1 file errors, 2 invalid flags, 3 empty observation
window.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .currents import KernelParams, discretize, distance, min_distance
from .fiber_core import CenterFunctionKind, center, segment
from .fileio import FiberFileError, read_fibers, write_fibers, write_kcsv, _atomic_write
from .kfunction import EmptyWindowError, KConfig, Window, inset_window, k_function
from .simulate import ProcessKind, SimConfig, make_dataset

DEFAULT_SIGMA = 100.0 / 3.0
MAX_GRID_POINTS = 10**6


def _parse_box(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("box must be 'x0,y0,z0,x1,y1,z1'")
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad box value in {text!r}") from None
    try:
        return Window(np.array(vals[:3]), np.array(vals[3:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be 'start:stop:step'")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid value in {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"grid values must be finite in {text!r}")
    if step <= 0 or stop < start or start <= 0:
        raise argparse.ArgumentTypeError("grid needs start > 0, stop >= start, step > 0")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:  # also catches a ratio that overflows to inf
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    n = int(math.floor(steps)) + 1
    return start + step * np.arange(n)


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent {text!r}") from None
    if p <= 0:
        raise argparse.ArgumentTypeError("p must be > 0")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberk",
        description="Fiber point process simulation and two-parameter K-function estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a seeded fiber dataset")
    sim.add_argument("--process", required=True, choices=[k.value for k in ProcessKind])
    sim.add_argument("--n", type=int, required=True, help="number of fibers")
    sim.add_argument("--length", type=float, default=40.0, help="fiber arclength")
    sim.add_argument("--box", type=_parse_box, default=_parse_box("0,0,0,100,100,100"))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--points-per-fiber", type=int, default=100)
    sim.add_argument("--n-clusters", type=int, default=10)
    sim.add_argument("--cluster-std", type=float, default=5.0)
    sim.add_argument("--direction-jitter-std", type=float, default=0.1)
    sim.add_argument("--out", required=True, help="output fiber file")

    def add_metric_flags(p):
        p.add_argument("--in", dest="infile", required=True, help="input fiber file")
        p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
        p.add_argument("--p", type=_parse_p, default=2.0)
        p.add_argument("--spacing", type=float, default=None, help="atom spacing (default sigma/20)")
        p.add_argument("--oriented", action="store_true", help="disable orientation minimization")
        p.add_argument("--center", choices=[k.value for k in CenterFunctionKind], default="mass")
        p.add_argument("--out", required=True, help="output CSV")

    kf = sub.add_parser("kfun", help="estimate the two-parameter K-function")
    add_metric_flags(kf)
    kf.add_argument("--t-grid", type=_parse_grid, default=_parse_grid("5:50:5"))
    kf.add_argument("--s-grid", type=_parse_grid, default=_parse_grid("10:100:10"))
    win = kf.add_mutually_exclusive_group(required=True)
    win.add_argument("--window", type=_parse_box, help="observation box 'x0,y0,z0,x1,y1,z1'")
    win.add_argument(
        "--inset",
        type=float,
        help="shrink the center bounding box by this fraction per side",
    )
    kf.add_argument("--segment-length", type=float, default=None)

    ds = sub.add_parser("dist", help="pairwise center and shape distances")
    add_metric_flags(ds)
    return parser


def _cmd_simulate(args) -> int:
    try:
        config = SimConfig(
            process=ProcessKind(args.process),
            n_fibers=args.n,
            fiber_length=args.length,
            box=args.box,
            points_per_fiber=args.points_per_fiber,
            seed=args.seed,
            n_clusters=args.n_clusters,
            cluster_std=args.cluster_std,
            direction_jitter_std=args.direction_jitter_std,
        )
    except ValueError as exc:
        print(f"fiberk simulate: {exc}", file=sys.stderr)
        return 2
    fibers = make_dataset(config)
    try:
        write_fibers(fibers, args.out)
    except OSError as exc:
        print(f"fiberk simulate: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_fibers(args) -> list | None:
    try:
        return read_fibers(args.infile)
    except (FiberFileError, OSError) as exc:
        print(f"fiberk: {exc}", file=sys.stderr)
        return None


def _cmd_kfun(args) -> int:
    fibers = _load_fibers(args)
    if fibers is None:
        return 1
    kind = CenterFunctionKind(args.center)
    if args.segment_length is not None:
        try:
            fibers = [piece for f in fibers for piece in segment(f, args.segment_length)]
        except ValueError as exc:
            print(f"fiberk kfun: {exc}", file=sys.stderr)
            return 2
    try:
        config = KConfig(
            kernel=KernelParams(p=args.p, sigma=args.sigma),
            t_grid=args.t_grid,
            s_grid=args.s_grid,
            center_kind=kind,
            orientation_invariant=not args.oriented,
            spacing=args.spacing,
        )
        window = args.window if args.window is not None else inset_window(fibers, kind, args.inset)
        result = k_function(fibers, config, window)
    except ValueError as exc:
        print(f"fiberk kfun: {exc}", file=sys.stderr)
        return 2
    except EmptyWindowError as exc:
        print(f"fiberk kfun: {exc}", file=sys.stderr)
        return 3
    try:
        write_kcsv(result, args.out)
    except OSError as exc:
        print(f"fiberk kfun: {exc}", file=sys.stderr)
        return 1
    print(
        f"N={result.n_in_window} |W|={result.window.volume:.17g} "
        f"nu_hat={result.intensity_hat:.17g}"
    )
    return 0


def _cmd_dist(args) -> int:
    fibers = _load_fibers(args)
    if fibers is None:
        return 1
    kind = CenterFunctionKind(args.center)
    centered = [center(f, kind) for f in fibers]
    try:
        params = KernelParams(p=args.p, sigma=args.sigma)
        spacing = args.spacing if args.spacing is not None else args.sigma / 20.0
        currents = [discretize(c.fiber, spacing) for c in centered]
    except ValueError as exc:
        print(f"fiberk dist: {exc}", file=sys.stderr)
        return 2
    measure = distance if args.oriented else min_distance
    centers = np.array([c.original_center for c in centered])
    rows = ["id_a,id_b,center_dist,shape_dist"]
    for i in range(len(fibers)):
        for j in range(i + 1, len(fibers)):
            cd = float(np.linalg.norm(centers[i] - centers[j]))
            sd = measure(currents[i], currents[j], params)
            rows.append(f"{fibers[i].id},{fibers[j].id},{cd:.17g},{sd:.17g}")
    try:
        _atomic_write(args.out, "\n".join(rows) + "\n")
    except OSError as exc:
        print(f"fiberk dist: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "kfun":
        return _cmd_kfun(args)
    if args.command == "dist":
        return _cmd_dist(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
