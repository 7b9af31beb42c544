"""Command-line interface: simulate fiber datasets, estimate the K-function,
and dump pairwise distances.

Every command exits 0 on success, 1 on a file error, 2 on an invalid flag
value and 3 on an empty observation window (``kfun`` only), and reports a
failure as one line ``fiberk <command>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .currents import KernelParams, distance, min_distance
from . import fiber_core
from .fiber_core import CenterFunctionKind, Window, _count_text, _piece_count, arclength, segment
from .fileio import FiberFileError, read_fibers, write_fibers, write_kcsv, _atomic_write
from .kfunction import (
    MAX_K_CELLS,
    EmptyWindowError,
    KConfig,
    _center_distances,
    _centered_currents,
    inset_window,
    k_function,
)
from .simulate import ProcessKind, SimConfig, make_dataset

DEFAULT_SIGMA = 100.0 / 3.0


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
    if not step > 0:
        raise argparse.ArgumentTypeError("grid step must be > 0")
    # A grid has at most as many points as the K table has cells; KConfig
    # checks the rest, so stop < start gives an empty grid for it to reject.
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_K_CELLS:  # also catches a ratio that overflows to inf
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {MAX_K_CELLS} points")
    return start + step * np.arange(math.floor(max(steps, -1.0)) + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberk",
        description="Fiber point process simulation and two-parameter K-function estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out stays unset, so SimConfig's default applies
    sim = sub.add_parser(
        "simulate", help="generate a seeded fiber dataset", argument_default=argparse.SUPPRESS
    )
    sim.add_argument("--process", required=True, choices=[k.value for k in ProcessKind])
    sim.add_argument("--n", dest="n_fibers", type=int, required=True, help="number of fibers")
    sim.add_argument("--length", dest="fiber_length", type=float, help="fiber arclength")
    sim.add_argument("--box", type=_parse_box)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--points-per-fiber", type=int)
    sim.add_argument("--n-clusters", type=int)
    sim.add_argument("--cluster-std", type=float)
    sim.add_argument("--direction-jitter-std", type=float)
    sim.add_argument("--out", required=True, help="output fiber file")

    def add_metric_flags(p):
        p.add_argument("--in", dest="infile", required=True, help="input fiber file")
        p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
        p.add_argument("--p", type=float, default=2.0, help="kernel exponent, or inf")
        p.add_argument("--spacing", type=float, default=None, help="atom spacing (default sigma/20)")
        p.add_argument("--oriented", action="store_true", help="disable orientation minimization")
        p.add_argument("--center", choices=[k.value for k in CenterFunctionKind], default="mass")
        p.add_argument("--out", required=True, help="output CSV")

    kf = sub.add_parser("kfun", help="estimate the two-parameter K-function")
    add_metric_flags(kf)
    kf.add_argument("--t-grid", type=_parse_grid, default="5:50:5")
    kf.add_argument("--s-grid", type=_parse_grid, default="10:100:10")
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


def _cmd_simulate(args) -> None:
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    fields["process"] = ProcessKind(fields["process"])
    write_fibers(make_dataset(SimConfig(**fields)), args.out)


def _cmd_kfun(args) -> None:
    config = KConfig(
        kernel=KernelParams(p=args.p, sigma=args.sigma),
        t_grid=args.t_grid,
        s_grid=args.s_grid,
        center_kind=CenterFunctionKind(args.center),
        orientation_invariant=not args.oriented,
        spacing=args.spacing,
    )
    if not (args.segment_length is None or args.segment_length > 0):  # also catches nan
        raise ValueError("--segment-length must be > 0")
    fibers = read_fibers(args.infile)
    if args.segment_length is not None:
        # segment's counts, summed as floats (exact below 2**53, inf past the float
        # range): segment bounds each fiber's pieces, this their total
        total = sum(float(_piece_count(arclength(f), args.segment_length)) for f in fibers)
        if not total <= fiber_core.MAX_PIECES:
            raise ValueError(
                f"--segment-length {args.segment_length:g} would cut the"
                f" {len(fibers)} fibers into {_count_text(total)} pieces, more than"
                f" {fiber_core.MAX_PIECES} in total"
            )
        fibers = [piece for f in fibers for piece in segment(f, args.segment_length)]
    window = args.window or inset_window(fibers, config.center_kind, args.inset)
    result = k_function(fibers, config, window)
    write_kcsv(result, args.out)
    print(
        f"N={result.n_in_window} |W|={result.window.volume:.17g} "
        f"nu_hat={result.intensity_hat:.17g}"
    )


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted per RFC 4180 if it holds ``,`` or ``"``."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_dist(args) -> None:
    params = KernelParams(p=args.p, sigma=args.sigma)
    spacing = params.resolve_spacing(args.spacing)
    fibers = read_fibers(args.infile)
    prepared = list(_centered_currents(fibers, CenterFunctionKind(args.center), spacing))
    centers = np.array([c for c, _ in prepared]).reshape(-1, 3)
    currents = [current for _, current in prepared]
    measure = distance if args.oriented else min_distance
    ids = [_csv_field(f.id) for f in fibers]
    # one string of rows per first fiber, joined once: no string per row lives on
    chunks = ["id_a,id_b,center_dist,shape_dist\n"]
    for i, current_i in enumerate(currents):
        center_dists = _center_distances(centers[i], centers[i + 1 :]).tolist()
        rows = []
        for j, cd in enumerate(center_dists, start=i + 1):
            sd = measure(current_i, currents[j], params)
            rows.append(f"{ids[i]},{ids[j]},{cd:.17g},{sd:.17g}\n")
        chunks.append("".join(rows))
    _atomic_write(args.out, "".join(chunks))


_COMMANDS = {"simulate": _cmd_simulate, "kfun": _cmd_kfun, "dist": _cmd_dist}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _COMMANDS[args.command](args)
        return 0
    except (FiberFileError, OSError) as exc:  # before ValueError: FiberFileError is one
        error, code = exc, 1
    except ValueError as exc:
        error, code = exc, 2
    except EmptyWindowError as exc:
        error, code = exc, 3
    print(f"fiberk {args.command}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
