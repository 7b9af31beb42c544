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
# Characters at which str.splitlines ends a line and a split at "\n" does not
# ("\r" is read as "\n"). np.loadtxt takes them for spaces, so a file holding
# one is read line by line.
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Characters read, or written, at a time (16 KiB of ASCII text), so text
# memory does not grow with the file. Reading a 500-fiber file (2.7 MB) took
# the same time in blocks of 2**14 and 2**16 characters, with 0.3 MB less
# peak memory in the smaller ones.
_BLOCK_CHARS = 2**14


class FiberFileError(ValueError):
    """Malformed fiber file; the message cites the offending line number."""


class _Irregular(Exception):
    """A fiber file that the one-walk parse does not vouch for."""


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
        fid, n_points = _record(path, lineno, lines[lineno - 1])
        if lineno + n_points > len(lines):
            raise FiberFileError(f"{path}:{len(lines) + 1}: expected coordinate line, got end of file")
        yield fid, lineno, n_points
        lineno += n_points
    if lineno != len(lines):
        raise FiberFileError(f"{path}:{lineno + 1}: trailing content after {n_fibers} fibers")


def _read_by_line(path) -> list[Fiber]:
    """``read_fibers`` one coordinate line at a time, on the whole text: the
    parse that words every refusal."""
    with open(path, "r", newline=None) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FiberFileError(f"{path}:1: missing header")
    n_fibers = _fiber_count(path, lines[0])
    records, record_error = [], None
    try:
        records.extend(_records(path, lines, n_fibers))
    except FiberFileError as exc:
        record_error = exc
    fibers: list[Fiber] = []
    for fid, at, n in records:
        block = _parse_block(path, lines, at, n)
        try:
            fibers.append(Fiber(fid, block))
        except ValueError as exc:
            raise FiberFileError(f"{path}:{at + n}: invalid fiber {fid!r}: {exc}") from None
    if record_error is not None:
        raise record_error
    return fibers


def _lines(fh):
    """The lines of the text file ``fh``, read a block at a time, as
    ``str.splitlines`` gives them; raises _Irregular at a block holding one
    of ``_OTHER_LINE_BREAKS``."""
    pieces: list[str] = []  # of a line that goes on past its blocks so far
    while block := fh.read(_BLOCK_CHARS):
        if any(ch in block for ch in _OTHER_LINE_BREAKS):
            raise _Irregular
        *lines, rest = block.split("\n")
        if lines:
            lines[0] = "".join(pieces) + lines[0]
            pieces = []
        pieces.append(rest)
        yield from lines
    if rest := "".join(pieces):
        yield rest


def _coordinate_lines(path, lines, n_fibers: int, records: list):
    """Yield the coordinate lines of the ``n_fibers`` records that ``lines``
    holds next, appending ``(id, n_points)`` per record to ``records``.
    Raises _Irregular at a record that ``_record`` refuses, at a fiber of
    fewer than 2 points, at a blank first coordinate line (np.loadtxt skips
    a blank line, and warns when it gets no data) or at end of file before
    a record. A file that ends inside the last record's coordinate lines
    gives fewer lines than the records count."""
    lineno = 1
    for _ in range(n_fibers):
        lineno += 1
        try:
            fid, n_points = _record(path, lineno, next(lines, ""))
        except FiberFileError:
            raise _Irregular from None
        first = next(lines, "")
        if n_points < 2 or not first.split():
            raise _Irregular
        records.append((fid, n_points))
        yield first
        yield from islice(lines, n_points - 1)
        lineno += n_points


def _read_walk(path, fh) -> list[Fiber]:
    """``read_fibers`` in one walk over ``fh``, with one ``np.loadtxt`` call
    over the coordinate lines as they are read; raises _Irregular, or
    ValueError, unless the file is well formed and that call gives three
    finite values for every coordinate line."""
    lines = _lines(fh)
    n_fibers = _fiber_count(path, next(lines, ""))
    records: list[tuple[str, int]] = []
    pts = np.empty((0, 3))
    if n_fibers:
        coordinate_lines = _coordinate_lines(path, lines, n_fibers, records)
        pts = np.loadtxt(coordinate_lines, dtype=np.float64, comments=None, ndmin=2)
    starts = np.cumsum([0] + [n for _, n in records])
    # loadtxt skips blank lines, and any token it reads as finite, float()
    # reads the same
    if pts.shape != (starts[-1], 3) or not np.isfinite(pts).all():
        raise _Irregular
    if next(lines, None) is not None:
        raise _Irregular  # trailing content
    _validated_points(pts, starts)
    return [Fiber._of_valid(fid, pts[a:b]) for (fid, _), a, b in zip(records, starts, starts[1:])]


def read_fibers(path) -> list[Fiber]:
    """Parse a fiber file, reporting 1-based line numbers on error.

    One walk over the file, a block of text at a time: each ``fiber <id> <n>``
    record is checked as it is read, and its coordinate lines go on to one
    ``np.loadtxt`` call; the points of that call are checked as one batch.
    Text memory stays near one block. Only a file that this walk does not
    vouch for (a malformed record, header or coordinate line, an invalid
    fiber, trailing content, or a line break other than CR, LF or CRLF) is
    read again, one line at a time, so that the message names the line; the
    accepted syntax is the same (each coordinate as Python ``float`` reads
    it, so ``1_0`` is 10). Errors are raised in line order: a bad coordinate
    line or an invalid fiber comes before a bad record that follows it.
    """
    with open(path, "r", newline=None) as fh:
        try:
            return _read_walk(path, fh)
        except (_Irregular, ValueError):
            pass
    return _read_by_line(path)


def write_kcsv(result, path) -> None:
    """Write the K matrix of a ``KResult`` as CSV rows (t, s, k) in t-major order."""
    rows = ["t,s,k"]
    for i, t in enumerate(result.t_grid):
        for j, s in enumerate(result.s_grid):
            rows.append(f"{t:.17g},{s:.17g},{result.k[i, j]:.17g}")
    _atomic_write(path, "\n".join(rows) + "\n")
