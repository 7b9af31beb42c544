"""Plain-text fiber files and K-function CSV serialization.

Fiber file layout (LF line endings, '.' decimal separator):

    fiberset v1 <n_fibers>
    fiber <id> <n_points>
    x y z
    ...

K CSV layout: header ``t,s,k`` then one row per grid cell in t-major order,
values at 17 significant digits. The reader places each row by its ``(t, s)``
values, so any row order reads back the same.
"""

from __future__ import annotations

import os

import numpy as np

from .fiber_core import Fiber

__all__ = ["FiberFileError", "read_fibers", "write_fibers", "write_kcsv", "read_kcsv"]

_HEADER_MAGIC = "fiberset"
_VERSION = "v1"


class FiberFileError(ValueError):
    """Malformed fiber file; the message cites the offending line number."""


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it onto
    ``path``. The file gets the mode ``open`` gives a new file, 0o666 less
    the umask (``tempfile.mkstemp`` would give 0o600), whether or not ``path``
    existed. On any failure the temporary file is removed; an OS error is
    raised again as ``OSError("cannot write <path>: <reason>")``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".fiberk-tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_fibers(fibers: list[Fiber], path) -> None:
    """Write a fiber file; byte-deterministic for identical input."""
    lines = [f"{_HEADER_MAGIC} {_VERSION} {len(fibers)}"]
    for f in fibers:
        if not f.id:
            raise ValueError("fiber id is empty")
        if any(ch.isspace() for ch in f.id):
            raise ValueError(f"fiber id {f.id!r} contains whitespace")
        lines.append(f"fiber {f.id} {len(f.points)}")
        lines += [f"{x!r} {y!r} {z!r}" for x, y, z in f.points.tolist()]
    _atomic_write(path, "\n".join(lines) + "\n")


def _parse_block(path, lines, lineno: int, n_points: int) -> np.ndarray:
    """The ``n_points`` coordinate lines after line ``lineno`` (1-based) as an
    (n_points, 3) array, each coordinate read by ``float``; raises
    FiberFileError at the first bad line."""
    pts = np.empty((n_points, 3))
    for i, line in enumerate(lines[lineno : lineno + n_points]):
        where = f"{path}:{lineno + 1 + i}"
        coords = line.split()
        if len(coords) != 3:
            raise FiberFileError(f"{where}: expected 3 coordinates, got {line!r}")
        try:
            pts[i] = [float(c) for c in coords]
        except ValueError:
            raise FiberFileError(f"{where}: unparseable coordinate in {line!r}") from None
        if not np.isfinite(pts[i]).all():
            raise FiberFileError(f"{where}: non-finite coordinate")
    return pts


def _records(path, lines, n_fibers):
    """Yield ``(id, record line number, n_points)`` per fiber record, its
    coordinate lines being the ``n_points`` lines after it; raises
    FiberFileError at the first malformed record or at trailing content."""
    lineno = 1
    for _ in range(n_fibers):
        lineno += 1
        if lineno > len(lines):
            raise FiberFileError(f"{path}:{lineno}: expected 'fiber' record, got end of file")
        parts = lines[lineno - 1].split()
        if len(parts) != 3 or parts[0] != "fiber":
            raise FiberFileError(
                f"{path}:{lineno}: expected 'fiber <id> <n_points>', got {lines[lineno - 1]!r}"
            )
        try:
            n_points = int(parts[2])
        except ValueError:
            raise FiberFileError(f"{path}:{lineno}: bad point count {parts[2]!r}") from None
        if n_points < 0:
            raise FiberFileError(f"{path}:{lineno}: negative point count {n_points}")
        if lineno + n_points > len(lines):
            raise FiberFileError(f"{path}:{len(lines) + 1}: expected coordinate line, got end of file")
        yield parts[1], lineno, n_points
        lineno += n_points
    if lineno != len(lines):
        raise FiberFileError(f"{path}:{lineno + 1}: trailing content after {n_fibers} fibers")


def read_fibers(path) -> list[Fiber]:
    """Parse a fiber file, reporting 1-based line numbers on error.

    One walk over the ``fiber <id> <n>`` records, then one ``np.loadtxt``
    call over the coordinate lines of every record before the first bad one.
    Only when that call does not give three finite values a line are the
    blocks read one line at a time, with the same messages and the same
    accepted syntax (each coordinate as Python ``float`` reads it, so ``1_0``
    is 10). Errors are raised in line order: a bad coordinate line or an
    invalid fiber comes before a bad record that follows it.
    """
    with open(path, "r", newline=None) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FiberFileError(f"{path}:1: missing header")
    header = lines[0].split()
    if len(header) != 3 or header[0] != _HEADER_MAGIC or header[1] != _VERSION:
        raise FiberFileError(f"{path}:1: malformed header {lines[0]!r}")
    try:
        n_fibers = int(header[2])
    except ValueError:
        raise FiberFileError(f"{path}:1: bad fiber count {header[2]!r}") from None
    if n_fibers < 0:
        raise FiberFileError(f"{path}:1: negative fiber count {n_fibers}")
    records, record_error = [], None
    try:
        records.extend(_records(path, lines, n_fibers))
    except FiberFileError as exc:
        record_error = exc
    rows = []
    for _, at, n in records:
        rows += lines[at : at + n]
    try:
        pts = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2) if rows else None
    except ValueError:
        pts = None
    # loadtxt skips blank lines, and any token it reads as finite, float()
    # reads the same; so only a full, finite result is taken
    if pts is not None and (pts.shape != (len(rows), 3) or not np.isfinite(pts).all()):
        pts = None
    fibers: list[Fiber] = []
    start = 0
    for fid, at, n in records:
        block = _parse_block(path, lines, at, n) if pts is None else pts[start : start + n]
        start += n
        try:
            fibers.append(Fiber(fid, block))
        except ValueError as exc:
            raise FiberFileError(f"{path}:{at + n}: invalid fiber {fid!r}: {exc}") from None
    if record_error is not None:
        raise record_error
    return fibers


def write_kcsv(result, path) -> None:
    """Write the K matrix of a ``KResult`` as CSV rows (t, s, k) in t-major order."""
    rows = ["t,s,k"]
    for i, t in enumerate(result.t_grid):
        for j, s in enumerate(result.s_grid):
            rows.append(f"{t:.17g},{s:.17g},{result.k[i, j]:.17g}")
    _atomic_write(path, "\n".join(rows) + "\n")


def read_kcsv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct (t_grid, s_grid, k matrix) from a K CSV file."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,s,k":
        raise ValueError(f"{path}: missing 't,s,k' header")
    ts, ss, ks = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 't,s,k' values, got {line!r}")
        try:
            t, s, k = (float(v) for v in fields)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable value in {line!r}") from None
        ts.append(t)
        ss.append(s)
        ks.append(k)
    t_grid = np.unique(ts)
    s_grid = np.unique(ss)
    if len(ts) != len(t_grid) * len(s_grid):
        raise ValueError(f"{path}: row count does not match grid")
    # each row goes to the cell of its (t, s) values; with the count check,
    # no repeated cell means every cell is filled exactly once
    cell = np.searchsorted(t_grid, ts) * len(s_grid) + np.searchsorted(s_grid, ss)
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if len(repeats):
        lineno = int(repeats.min()) + 2
        raise ValueError(f"{path}:{lineno}: repeated (t, s) cell in {lines[lineno - 1]!r}")
    k = np.empty(len(ks))
    k[cell] = ks
    return t_grid, s_grid, k.reshape(len(t_grid), len(s_grid))
