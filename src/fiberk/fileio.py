"""Plain-text fiber files and K-function CSV serialization.

Fiber file layout (LF line endings, '.' decimal separator):

    fiberset v1 <n_fibers>
    fiber <id> <n_points>
    x y z
    ...

K CSV layout: header ``t,s,k`` then one row per grid cell in t-major order,
values at 17 significant digits.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .fiber_core import Fiber, _validated_points

__all__ = ["FiberFileError", "read_fibers", "write_fibers", "write_kcsv"]

_HEADER_MAGIC = "fiberset"
_VERSION = "v1"
# Characters read, or written, at a time (16 KiB of ASCII text), so text
# memory does not grow with the file. Reading a 500-fiber file (2.7 MB) took
# the same time in blocks of 2**14 and 2**16 characters, with 0.3 MB less
# peak memory in the smaller ones.
_BLOCK_CHARS = 2**14
# Coordinate lines at which a run of whole fibers ends: one np.loadtxt call
# and one batch check each. The traced peak of reading a 500-fiber file was
# 1.6 MB with runs of 2**10 lines and 2.0 MB with runs of 2**12.
_RUN_LINES = 2**10


class FiberFileError(ValueError):
    """Malformed fiber file; the message cites the offending line number."""


@contextmanager
def _replacing(path):
    """A text file (LF line endings) whose content replaces ``path`` when the
    block ends without error: it is a temporary file beside ``path``, moved
    onto it at the end. The file gets the mode ``open`` gives a new file,
    0o666 less the umask (``tempfile.mkstemp`` would give 0o600), whether or
    not ``path`` existed. On any failure the temporary file is removed; an OS
    error is raised again as ``OSError("cannot write <path>: <reason>")``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".fiberk-tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``_replacing`` does, a slice at a time,
    so that its encoded bytes never exist whole."""
    with _replacing(path) as fh:
        for start in range(0, len(text), _BLOCK_CHARS):
            fh.write(text[start : start + _BLOCK_CHARS])


def write_fibers(fibers: list[Fiber], path) -> None:
    """Write a fiber file, one fiber at a time; byte-deterministic for
    identical input. Every id is checked before the file is opened."""
    for f in fibers:
        if not f.id:
            raise ValueError("fiber id is empty")
        if any(ch.isspace() for ch in f.id):
            raise ValueError(f"fiber id {f.id!r} contains whitespace")
    with _replacing(path) as fh:
        fh.write(f"{_HEADER_MAGIC} {_VERSION} {len(fibers)}\n")
        for f in fibers:
            fh.write(f"fiber {f.id} {len(f.points)}\n")
            fh.write("".join([f"{x!r} {y!r} {z!r}\n" for x, y, z in f.points.tolist()]))


def _fiber_count(path, line: str) -> int:
    """The fiber count of the header ``line``; raises FiberFileError unless
    it reads ``fiberset v1 <n_fibers>`` with ``n_fibers >= 0``."""
    header = line.split()
    if len(header) != 3 or header[0] != _HEADER_MAGIC or header[1] != _VERSION:
        raise FiberFileError(f"{path}:1: malformed header {line!r}")
    try:
        n_fibers = int(header[2])
    except ValueError:
        raise FiberFileError(f"{path}:1: bad fiber count {header[2]!r}") from None
    if n_fibers < 0:
        raise FiberFileError(f"{path}:1: negative fiber count {n_fibers}")
    return n_fibers


def _record(path, lineno: int, line: str) -> tuple[str, int]:
    """The id and point count of the fiber record ``line``, line ``lineno``;
    raises FiberFileError unless it reads ``fiber <id> <n_points>`` with
    ``n_points >= 0``."""
    parts = line.split()
    if len(parts) != 3 or parts[0] != "fiber":
        raise FiberFileError(f"{path}:{lineno}: expected 'fiber <id> <n_points>', got {line!r}")
    try:
        n_points = int(parts[2])
    except ValueError:
        raise FiberFileError(f"{path}:{lineno}: bad point count {parts[2]!r}") from None
    if n_points < 0:
        raise FiberFileError(f"{path}:{lineno}: negative point count {n_points}")
    return parts[1], n_points


def _parse_block(path, lines, lineno: int) -> np.ndarray:
    """The coordinate lines ``lines``, which follow line ``lineno`` (1-based),
    as an (n, 3) array, each coordinate read by ``float``; raises
    FiberFileError at the first bad line."""
    pts = np.empty((len(lines), 3))
    for i, line in enumerate(lines):
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


def _lines(fh):
    """The lines of the text file ``fh``, read a block at a time, as
    ``str.splitlines`` gives them."""
    pieces: list[str] = []  # of a line that goes on past its blocks so far
    while block := fh.read(_BLOCK_CHARS):
        lines = block.splitlines()
        # a block that does not end at a line break ends inside its last line
        rest = lines.pop() if lines[-1][-1:] == block[-1] else ""
        if lines:
            lines[0] = "".join(pieces) + lines[0]
            pieces = []
        pieces.append(rest)
        yield from lines
    if rest := "".join(pieces):
        yield rest


def _runs(path, lines):
    """Yield ``(records, coordinate lines)`` for each run of whole fibers in
    the fiber file whose lines ``lines`` gives, each record being ``(id,
    record line number, n_points)``. A run ends at the first fiber that
    brings it to ``_RUN_LINES`` coordinate lines, or at the end. A malformed
    header or record, end of file before the last coordinate line, trailing
    content or undecodable text raises FiberFileError once the run before
    it is yielded."""
    records, run, error = [], [], None
    try:
        header = next(lines, None)
        if header is None:
            raise FiberFileError(f"{path}:1: missing header")
        n_fibers = _fiber_count(path, header)
        lineno = 1
        for _ in range(n_fibers):
            lineno += 1
            line = next(lines, None)
            if line is None:
                raise FiberFileError(f"{path}:{lineno}: expected 'fiber' record, got end of file")
            fid, n_points = _record(path, lineno, line)
            coordinate_lines = list(islice(lines, n_points))
            if len(coordinate_lines) < n_points:
                end = lineno + len(coordinate_lines) + 1
                raise FiberFileError(f"{path}:{end}: expected coordinate line, got end of file")
            records.append((fid, lineno, n_points))
            run += coordinate_lines
            lineno += n_points
            if len(run) >= _RUN_LINES:
                yield records, run
                records, run = [], []
        if next(lines, None) is not None:
            raise FiberFileError(f"{path}:{lineno + 1}: trailing content after {n_fibers} fibers")
    except FiberFileError as exc:
        error = exc
    except UnicodeDecodeError as exc:
        error = FiberFileError(f"{path}: not {exc.encoding} text: {exc.reason}")
    yield records, run
    if error is not None:
        raise error


def _run_fibers(path, records, run) -> list[Fiber]:
    """The fibers of one run from ``_runs``: its coordinate lines parsed by
    one ``np.loadtxt`` call and checked as one batch or, when either
    refuses, one fiber at a time, so that the message names the first bad
    line."""
    starts = np.cumsum([0] + [n for _, _, n in records])
    # loadtxt skips blank lines (and warns when it gets no data), and any
    # token it reads as finite, float() reads the same
    if run and run[0].split():
        try:
            pts = np.loadtxt(run, dtype=np.float64, comments=None, ndmin=2)
            if pts.shape == (len(run), 3):
                _validated_points(pts, starts)
                return [
                    Fiber._of_valid(fid, pts[a:b])
                    for (fid, _, _), a, b in zip(records, starts, starts[1:])
                ]
        except ValueError:
            pass
    fibers = []
    for (fid, at, n), a in zip(records, starts):
        pts = _parse_block(path, run[a : a + n], at)
        try:
            fibers.append(Fiber(fid, pts))
        except ValueError as exc:
            raise FiberFileError(f"{path}:{at + n}: invalid fiber {fid!r}: {exc}") from None
    return fibers


def read_fibers(path) -> list[Fiber]:
    """Parse a fiber file, reporting 1-based line numbers on error.

    One walk over the file, a block of text at a time, split into lines as
    ``str.splitlines`` splits them. Each ``fiber <id> <n>`` record is checked
    as it is read, and the coordinate lines of each run of whole fibers
    (about ``_RUN_LINES`` lines, or one longer fiber) go to one
    ``np.loadtxt`` call, whose points are checked as one batch. A run that
    either refuses is parsed again from its lines, one fiber at a time, so
    that the message names the first bad line; the accepted syntax is the
    same (each coordinate as Python ``float`` reads it, so ``1_0`` is 10).
    Errors are raised in line order: a bad coordinate line or an invalid
    fiber comes before a bad record that follows it. The file is read once,
    and memory holds the fibers and one run of text.
    """
    with open(path, "r", newline=None) as fh:
        runs = _runs(path, _lines(fh))
        return [fiber for records, run in runs for fiber in _run_fibers(path, records, run)]


def write_kcsv(result, path) -> None:
    """Write the K matrix of a ``KResult`` as CSV rows (t, s, k) in t-major order."""
    rows = ["t,s,k"]
    for i, t in enumerate(result.t_grid):
        for j, s in enumerate(result.s_grid):
            rows.append(f"{t:.17g},{s:.17g},{result.k[i, j]:.17g}")
    _atomic_write(path, "\n".join(rows) + "\n")
