import csv
import errno
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fiberk
from fiberk import (
    CenterFunctionKind,
    Fiber,
    FiberFileError,
    KernelParams,
    ProcessKind,
    SimConfig,
    backends,
    center,
    cli,
    discretize,
    fiber_core,
    fileio,
    kfunction,
    make_dataset,
    read_fibers,
    write_fibers,
)
from fiberk.cli import main

from conftest import read_k_table
from reference_impls import distance_per_call, min_distance_per_call, read_fibers_by_line


def run(argv):
    return main(argv)


class TestFiberFile:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a 2\n0.0 0.0 0.0\n1.0 0.0 0.0\n")
        fibers = read_fibers(p)
        assert len(fibers) == 1
        assert fibers[0].id == "a"
        assert np.allclose(fibers[0].points, [[0, 0, 0], [1, 0, 0]])

    def test_round_trip(self, tmp_path):
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=5, seed=1))
        p = tmp_path / "f.fib"
        write_fibers(fibers, p)
        assert read_fibers(p) == fibers

    def test_empty_list(self, tmp_path):
        p = tmp_path / "f.fib"
        write_fibers([], p)
        assert p.read_text() == "fiberset v1 0\n"
        assert read_fibers(p) == []

    def test_byte_determinism(self, tmp_path):
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=3, seed=2))
        p1, p2 = tmp_path / "a.fib", tmp_path / "b.fib"
        write_fibers(fibers, p1)
        write_fibers(fibers, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_cites_line(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a 2\n0.0 0.0 0.0\n")
        with pytest.raises(FiberFileError, match=":4"):
            read_fibers(p)

    def test_negative_fiber_count_cites_header(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 -1\n")
        with pytest.raises(FiberFileError, match=":1: negative fiber count"):
            read_fibers(p)

    def test_negative_point_count_cites_record(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a -1\n")
        with pytest.raises(FiberFileError, match=":2: negative point count"):
            read_fibers(p)

    def test_huge_point_count_fails_before_allocating(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a 100000000000\n0.0 0.0 0.0\n")
        with pytest.raises(FiberFileError, match=":4: expected coordinate line"):
            read_fibers(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("not a fiber file\n")
        with pytest.raises(FiberFileError, match=":1"):
            read_fibers(p)

    def test_unparseable_coordinate(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a 2\n0.0 0.0 zero\n1.0 0.0 0.0\n")
        with pytest.raises(FiberFileError, match=":3"):
            read_fibers(p)

    def test_single_point_fiber_rejected(self, tmp_path):
        p = tmp_path / "f.fib"
        p.write_text("fiberset v1 1\nfiber a 1\n0.0 0.0 0.0\n")
        with pytest.raises(FiberFileError):
            read_fibers(p)


    def test_empty_id_rejected_on_write(self, tmp_path):
        p = tmp_path / "f.fib"
        with pytest.raises(ValueError, match="fiber id is empty"):
            write_fibers([Fiber("", [[0, 0, 0], [1, 0, 0]])], p)
        assert not p.exists()

    def test_id_with_whitespace_rejected_on_write(self, tmp_path):
        p = tmp_path / "f.fib"
        with pytest.raises(ValueError, match=r"fiber id 'a b' contains whitespace"):
            write_fibers([Fiber("a b", [[0, 0, 0], [1, 0, 0]])], p)
        assert not p.exists()

    def test_read_then_write_reproduces_the_bytes(self, tmp_path):
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=20, seed=4))
        a, b = tmp_path / "a.fib", tmp_path / "b.fib"
        write_fibers(fibers, a)
        write_fibers(read_fibers(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_files_are_utf_8_whatever_the_locale(self, tmp_path):
        # under an ASCII locale a non-ASCII id is written as UTF-8, read back,
        # and written as UTF-8 into the dist CSV
        a, out = tmp_path / "a.fib", tmp_path / "d.csv"
        script = (
            "import sys\n"
            "from fiberk import Fiber, read_fibers, write_fibers\n"
            "from fiberk.cli import main\n"
            "ids = ['\\u00f1', 'b']\n"
            "write_fibers([Fiber(i, [[0, y, 0], [1, y, 0]]) for i, y in zip(ids, [0, 5])], sys.argv[1])\n"
            "assert [f.id for f in read_fibers(sys.argv[1])] == ids\n"
            "sys.exit(main(['dist', '--in', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": str(Path(fiberk.__file__).parents[1]),
        }
        subprocess.run([sys.executable, "-c", script, str(a), str(out)], env=env, check=True)
        assert a.read_bytes().startswith(b"fiberset v1 2\nfiber \xc3\xb1 2\n")
        assert out.read_bytes().splitlines()[1].startswith(b"\xc3\xb1,b,")


@pytest.mark.parametrize("nt, ns", [(1, 1), (2, 3), (3, 2)])
def test_write_kcsv_lists_every_cell_once_in_t_major_order(tmp_path, nt, ns):
    # values with 17 significant digits, a subnormal and a zero come back bit for bit
    t_grid = np.cumsum(np.full(nt, 1.0 / 3.0))
    s_grid = 10.0 + np.cumsum(np.full(ns, 0.1))
    k = np.arange(nt * ns, dtype=np.float64).reshape(nt, ns) / 7.0
    k.flat[-1] = 5e-324
    window = kfunction.Window(np.zeros(3), np.ones(3))
    result = kfunction.KResult(t_grid, s_grid, k, 3, 3.0, window)
    out = tmp_path / "k.csv"
    fileio.write_kcsv(result, out)
    assert len(out.read_text().splitlines()) == 1 + nt * ns
    got_t, got_s, got_k = read_k_table(out)
    assert np.array_equal(got_t, t_grid) and np.array_equal(got_s, s_grid)
    assert np.array_equal(got_k, k)


def parse_outcome(read, path):
    """What a parser makes of ``path``: the fibers (ids, shapes and exact
    bytes) or the FiberFileError message."""
    try:
        return [(f.id, f.points.shape, f.points.tobytes()) for f in read(path)]
    except FiberFileError as exc:
        return f"FiberFileError: {exc}"


_VALID = "fiberset v1 2\nfiber a 3\n0 0 0\n1 0 0\n1 1 0\nfiber b 2\n5 5 5\n6.5 5 5\n"


def _encoded(text: str) -> bytes:
    """``text`` as UTF-8, each lone surrogate U+DC80 to U+DCFF written as the
    byte it escapes, so that text can hold bytes that are not UTF-8."""
    return text.encode("utf-8", "surrogateescape")


# Malformed or unusual variants of _VALID; each must parse to the same fibers,
# or fail with the same message, as the line-by-line parser.
_CORPUS = {
    "valid": _VALID,
    "truncated mid-block": _VALID[: _VALID.index("1 1 0")],
    "blank coordinate line": _VALID.replace("1 0 0\n", "\n"),
    "two tokens": _VALID.replace("1 0 0", "1 0"),
    "four tokens": _VALID.replace("1 0 0", "1 0 0 0"),
    "nan": _VALID.replace("1 0 0", "1 nan 0"),
    "NaN in the second fiber": _VALID.replace("6.5 5 5", "6.5 NaN 5"),
    "inf": _VALID.replace("1 0 0", "inf 0 0"),
    "-Infinity": _VALID.replace("1 0 0", "1 0 -Infinity"),
    "overflow to inf": _VALID.replace("1 0 0", "1e999 0 0"),
    "beyond the coordinate bound": _VALID.replace("1 0 0", "1e160 0 0"),
    "wider than the coordinate bound": _VALID.replace("1 0 0", "-1e100 1e100 -1e100"),
    "underscore digits": _VALID.replace("1 0 0", "1_0 0 0"),
    "hex float": _VALID.replace("1 0 0", "0x1p3 0 0"),
    "no-break space": _VALID.replace("1 0 0", "1\u00a00 0"),
    "em space": _VALID.replace("1 0 0", "1\u20030\u20030"),
    "Arabic-Indic digit": _VALID.replace("1 0 0", "\u0661 0 0"),
    "tabs and padding": _VALID.replace("1 0 0", "  1\t0   0  "),
    "word": _VALID.replace("1 0 0", "one 0 0"),
    "non-finite before a bad token": _VALID.replace("1 0 0\n1 1 0", "nan 0 0\nx 1 0"),
    "bad token before a non-finite": _VALID.replace("1 0 0\n1 1 0", "x 0 0\nnan 1 0"),
    "record inside a block": _VALID.replace("fiber a 3", "fiber a 4"),
    "zero points": "fiberset v1 1\nfiber a 0\n",
    "one point": "fiberset v1 1\nfiber a 1\n0 0 0\n",
    "repeated point": _VALID.replace("1 0 0\n1 1 0", "1 0 0\n1 0 0"),
    "repeated point in the second fiber": _VALID.replace("6.5 5 5", "5 5 5"),
    "a fiber starting where the one before ends": _VALID.replace("5 5 5", "1 1 0"),
    "underflow to a repeated point": _VALID.replace("0 0 0\n1 0 0", "0 0 0\n1e-400 0 0"),
    "trailing content": _VALID + "extra\n",
    "trailing blank line": _VALID + "\n",
    "negative fiber count": "fiberset v1 -2\n",
    "bad fiber count": "fiberset v1 two\n",
    "not a fiber record": _VALID.replace("fiber b 2", "fibre b 2"),
    "bad point count": _VALID.replace("fiber b 2", "fiber b two"),
    "negative point count": _VALID.replace("fiber b 2", "fiber b -2"),
    "signed point count": _VALID.replace("fiber b 2", "fiber b +2"),
    "CRLF endings": _VALID.replace("\n", "\r\n"),
    "CR endings": _VALID.replace("\n", "\r"),
    "line separator inside a line": _VALID.replace("1 0 0", "1 0\u2028 0"),
    "no final newline": _VALID[:-1],
    "empty file": "",
    # the one-call parse of a run must refuse each of these, though their
    # records and line counts fit (and the first one's token total too)
    "right token total, wrong shape": _VALID.replace("0 0 0\n1 0 0", "0 0\n1 0 0 0"),
    "comment line": _VALID.replace("1 0 0", "# 1 0 0"),
    "comment after the coordinates": _VALID.replace("1 0 0", "1 0 0 # x"),
    "blank line inside a block": _VALID.replace("1 0 0\n", "1 0 0\n\n").replace("a 3", "a 4"),
    "whitespace-only line inside a block": _VALID.replace("1 0 0\n", " \t \n"),
    "every coordinate line blank": "fiberset v1 1\nfiber a 2\n\n \n",
    # two faults each: the one that comes first in the file is reported
    "bad token, then a bad record": _VALID.replace("1 0 0", "1 x 0").replace("fiber b", "fibre b"),
    "repeated point, then trailing content": _VALID.replace("1 0 0\n1 1 0", "1 0 0\n1 0 0")
    + "extra\n",
    "valid fibers, then a record cut off at end of file": _VALID.replace("v1 2", "v1 3")
    + "fiber c 3\n0 0 0\n",
    # "\udcff" stands for the byte 0xff, which is not UTF-8 (see _encoded)
    "a byte not utf-8 in a coordinate line": _VALID.replace("1 0 0", "1 \udcff 0"),
    "a byte not utf-8 in the header": _VALID.replace("v1 2", "v1\udce9 2"),
    "a byte not utf-8 in a record": _VALID.replace("fiber b 2", "fiber b\udcff 2"),
    "a byte not utf-8 as trailing content": _VALID + "\udcfe\n",
    "a UTF-8 sequence cut short": _VALID.replace("6.5 5 5", "6.5 5 5\udcc3"),
    "bad token, then a byte not utf-8": _VALID.replace("1 0 0", "1 x 0").replace(
        "5 5 5", "5 5 \udcff"
    ),
    "bad token, then a byte not utf-8 in the same fiber": _VALID.replace(
        "1 0 0\n1 1 0", "1 x 0\n1 \udcff 0"
    ),
    "a byte not utf-8, then a bad token in the same fiber": _VALID.replace(
        "1 0 0\n1 1 0", "1 \udcff 0\n1 x 0"
    ),
    "non-ASCII UTF-8 id": _VALID.replace("fiber b", "fiber \u00f1\u8f74"),
    "NaN in the last fiber of a long file": (
        "fiberset v1 300\n"
        + "".join(f"fiber f{i} 2\n{i} 0 0\n{i} 1 0\n" for i in range(299))
        + "fiber last 3\n0 0 0\n1 0 0\n1 NaN 0\n"
    ),
}


@pytest.mark.parametrize("text", list(_CORPUS.values()), ids=list(_CORPUS))
def test_read_fibers_matches_the_line_by_line_parser(tmp_path, text):
    p = tmp_path / "f.fib"
    p.write_bytes(_encoded(text))
    assert parse_outcome(read_fibers, p) == parse_outcome(read_fibers_by_line, p)


@pytest.mark.parametrize(
    "name, message",
    [
        ("bad fiber count", r":1: bad fiber count 'two'$"),
        ("not a fiber record", r":6: expected 'fiber <id> <n_points>', got 'fibre b 2'$"),
        ("bad point count", r":6: bad point count 'two'$"),
    ],
)
def test_read_fibers_names_a_bad_record(tmp_path, name, message):
    p = tmp_path / "f.fib"
    p.write_bytes(_encoded(_CORPUS[name]))
    with pytest.raises(FiberFileError, match=message):
        read_fibers(p)


def test_a_well_formed_file_is_parsed_by_one_loadtxt_call(tmp_path, monkeypatch):
    # without this, a file could silently go through the fiber-by-fiber path;
    # one loadtxt call per run of whole fibers (100 points each), every run
    # but the last reaching _RUN_LINES coordinate lines
    fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=50, seed=1))
    p = tmp_path / "f.fib"
    write_fibers(fibers, p)
    loadtxt, calls = np.loadtxt, []

    def counted_loadtxt(lines, *args, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("the coordinate lines were read one at a time")

    monkeypatch.setattr(fileio.np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(fileio, "_parse_block", refuse)
    assert read_fibers(p) == fibers
    assert sum(calls) == 50 * 100 and all(n % 100 == 0 for n in calls)
    assert len(calls) > 1 and min(calls[:-1]) >= fileio._RUN_LINES


_WIDE = (
    "fiberset v1 2\nfiber a 3\n-1e100 -1e100 -1e100\n1e100 1e100 1e100\n"
    "-1e100 1e100 -1e100\nfiber b 2\n0 1 0\n1 1 0\n"
)


def test_read_fibers_names_a_fiber_wider_than_the_coordinate_bound(tmp_path):
    # every coordinate is within +-1e100, but a centered copy would not be
    p = tmp_path / "f.fib"
    p.write_text(_WIDE)
    want = r"f\.fib:5: invalid fiber 'a': fiber points must span at most 1e\+100 along each axis$"
    with pytest.raises(FiberFileError, match=want):
        read_fibers(p)


def test_read_fibers_reports_the_first_bad_line(tmp_path):
    p = tmp_path / "f.fib"
    for name, message in [
        ("non-finite before a bad token", r":4: non-finite coordinate$"),
        ("NaN in the second fiber", r":8: non-finite coordinate$"),
        ("bad token, then a bad record", r":4: unparseable coordinate in '1 x 0'$"),
        ("repeated point, then trailing content", r":5: invalid fiber 'a': "),
        (
            "repeated point in the second fiber",
            r":8: invalid fiber 'b': consecutive fiber points must be distinct$",
        ),
        ("valid fibers, then a record cut off at end of file", r":11: expected coordinate line"),
        ("a byte not utf-8 in a coordinate line", r":4: not utf-8 text$"),
        ("a byte not utf-8 in a record", r":6: not utf-8 text$"),
        ("bad token, then a byte not utf-8", r":4: unparseable coordinate in '1 x 0'$"),
        ("bad token, then a byte not utf-8 in the same fiber", r":4: unparseable coordinate"),
        ("a byte not utf-8, then a bad token in the same fiber", r":4: not utf-8 text$"),
    ]:
        p.write_bytes(_encoded(_CORPUS[name]))
        with pytest.raises(FiberFileError, match=r"f\.fib" + message):
            read_fibers(p)


_ODD_LINES = [
    "", "1 2", "1 2 3 4", "nan 0 0", "0 inf 0", "0 0 -inf", "1e999 0 0", "1_0 2 3",
    "0x1p3 0 0", "1\u00a02 3", "\u0661 2 3", "fiber x 2", "a b c", " 1\t2  3 ", "0 0 0",
    "1 2\v3", "0 0 0\u2028", "\x1c", "1 \udcff 3", "fiber \u00f1 2",
]


@st.composite
def fiber_file_texts(draw):
    """Mostly well-formed fiber files, with odd coordinate lines, a dropped or
    extra last line and any of the three line endings."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_fibers = draw(st.integers(min_value=0, max_value=3))
    lines = [f"fiberset v1 {n_fibers}"]
    for i in range(n_fibers):
        n_points = draw(st.integers(min_value=0, max_value=6))
        lines.append(f"fiber f{i} {n_points}")
        for _ in range(n_points):
            if draw(st.integers(min_value=0, max_value=7)) == 0:
                lines.append(draw(st.sampled_from(_ODD_LINES)))
            else:
                lines.append(" ".join(repr(float(v)) for v in 10.0 * rng.standard_normal(3)))
    tail = draw(st.sampled_from(["as is", "drop last", "extra line"]))
    if tail == "drop last":
        lines.pop()
    elif tail == "extra line":
        lines.append(draw(st.sampled_from(_ODD_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + eol


@given(fiber_file_texts())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_property_read_fibers_matches_the_line_by_line_parser(tmp_path, text):
    p = tmp_path / "f.fib"
    p.write_bytes(_encoded(text))
    assert parse_outcome(read_fibers, p) == parse_outcome(read_fibers_by_line, p)


_LONG = "fiberset v1 600\n" + "".join(f"fiber f{i} 2\n{i} 0 0\n{i} 1 0\n" for i in range(600))

# Each template holds one line break that str.splitlines splits at and a
# split at LF does not, where "{}" stands.
_OTHER_LINE_BREAK_FILES = {
    "inside a record line": _VALID.replace("fiber b 2", "fiber b{} 2"),
    "ending a record line": _VALID.replace("fiber b 2", "fiber b 2{}"),
    "inside a coordinate line": _VALID.replace("1 0 0", "1 0{} 0"),
    "ending a coordinate line": _VALID.replace("1 0 0", "1 0 0{}"),
    "in the last coordinate line of a long file": _LONG.replace("599 1 0", "599 1{} 0"),
}


@pytest.mark.parametrize(
    "template", list(_OTHER_LINE_BREAK_FILES.values()), ids=list(_OTHER_LINE_BREAK_FILES)
)
@pytest.mark.parametrize(
    "ch",
    ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=lambda ch: f"U+{ord(ch):04X}",
)
def test_other_line_breaks_read_as_the_line_by_line_parser_reads_them(tmp_path, template, ch):
    # np.loadtxt takes each of these for a space, so the walk must split lines
    # at them before a run reaches loadtxt, also past its first block
    p = tmp_path / "f.fib"
    p.write_bytes(template.format(ch).encode())
    assert parse_outcome(read_fibers, p) == parse_outcome(read_fibers_by_line, p)


@pytest.mark.parametrize("block_chars", [1, 5])
def test_read_fibers_matches_the_line_by_line_parser_in_small_blocks(
    tmp_path, monkeypatch, block_chars
):
    # lines, and CR LF pairs, are cut across the blocks the file is read in
    monkeypatch.setattr(fileio, "_BLOCK_CHARS", block_chars)
    p = tmp_path / "f.fib"
    for name, text in _CORPUS.items():
        p.write_bytes(_encoded(text))
        assert parse_outcome(read_fibers, p) == parse_outcome(read_fibers_by_line, p), name


def traced_peak(fn) -> int:
    """The peak of memory traced by tracemalloc while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def brownian_500(tmp_path_factory):
    """500 seed-1 Brownian fibers of 100 points (2.7 MB of text) and their file."""
    path = tmp_path_factory.mktemp("data") / "b500.fib"
    fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=500, seed=1))
    write_fibers(fibers, path)
    return fibers, path


def test_read_fibers_holds_less_than_twice_its_points(brownian_500):
    # the text is read a block at a time and parsed a run at a time, so the
    # points set the peak, not the 2.7 MB of text and its 50,500 lines
    fibers, path = brownian_500
    points = sum(f.points.nbytes for f in fibers)
    assert points == 500 * 100 * 3 * 8
    assert traced_peak(lambda: read_fibers(path)) < 2 * points


def test_read_fibers_refuses_a_bad_last_line_in_less_than_twice_its_points(brownian_500, tmp_path):
    # the refusal comes from the same walk: the file is not read again whole
    fibers, path = brownian_500
    lines = path.read_text().splitlines()
    x, y, _ = lines[-1].split()
    lines[-1] = f"{x} {y} nan"
    bad = tmp_path / "nan.fib"
    bad.write_text("\n".join(lines) + "\n")

    def refused():
        with pytest.raises(FiberFileError, match=r"nan\.fib:50501: non-finite coordinate$"):
            read_fibers(bad)

    assert traced_peak(refused) < 2 * sum(f.points.nbytes for f in fibers)


def test_read_fibers_opens_a_file_once(tmp_path, monkeypatch):
    # a malformed file is refused in the walk that reads it
    p = tmp_path / "f.fib"
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(fileio, "open", counted_open, raising=False)
    for name, text in _CORPUS.items():
        p.write_bytes(_encoded(text))
        opened.clear()
        parse_outcome(read_fibers, p)
        assert opened == [p], name


def test_write_fibers_holds_one_fiber_of_text(brownian_500, tmp_path):
    # one fiber's text at a time, never the 2.7 MB of the whole file
    fibers, path = brownian_500
    out = tmp_path / "w.fib"
    assert traced_peak(lambda: write_fibers(fibers, out)) < 500_000
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("p", ["1", "2"])
def test_dist_holds_less_than_four_and_a_half_times_its_csv(tmp_path, p):
    # one string per first fiber and their join: about twice the CSV, besides
    # the fibers and currents (p = 1: every pair in the difference form; p = 2:
    # the factored form, which compares each side's buffer)
    src, out = tmp_path / "b200.fib", tmp_path / "d.csv"
    fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=200, seed=1))
    write_fibers(fibers, src)
    peak = traced_peak(lambda: run(["dist", "--in", str(src), "--p", p, "--out", str(out)]))
    assert len(out.read_text().splitlines()) == 1 + 200 * 199 // 2
    assert peak < 4.5 * out.stat().st_size


class TestCliSimulate:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "x1.fib"
        code = run(
            [
                "simulate", "--process", "lines", "--n", "20", "--length", "40",
                "--box", "0,0,0,100,100,100", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        fibers = read_fibers(out)
        assert len(fibers) == 20

    def test_missing_out_flag(self, capsys):
        assert run(["simulate", "--process", "lines", "--n", "5"]) == 2

    def test_determinism(self, tmp_path):
        args = [
            "simulate", "--process", "brownian", "--n", "10", "--seed", "5",
        ]
        a, b = tmp_path / "a.fib", tmp_path / "b.fib"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_left_out_take_simconfigs_defaults(self, tmp_path):
        args = ["simulate", "--process", "clustered", "--n", "6"]
        spelled_out = [
            "--length", "40", "--box", "0,0,0,100,100,100", "--seed", "0",
            "--points-per-fiber", "100", "--n-clusters", "10", "--cluster-std", "5",
            "--direction-jitter-std", "0.1",
        ]
        a, b, c = tmp_path / "a.fib", tmp_path / "b.fib", tmp_path / "c.fib"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + spelled_out + ["--out", str(b)]) == 0
        write_fibers(make_dataset(SimConfig(process=ProcessKind.CLUSTERED_LINES, n_fibers=6)), c)
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "x1.fib"
    fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_LINES, n_fibers=40, seed=3))
    write_fibers(fibers, path)
    return path


class TestCliKfun:
    def test_basic_run(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = run(
            [
                "kfun", "--in", str(dataset_file), "--inset", "0.13",
                "--t-grid", "10:20:10", "--s-grid", "50:200:150", "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("N=")
        assert "nu_hat=" in captured.out
        t_grid, s_grid, k = read_k_table(out)
        assert np.array_equal(t_grid, [10.0, 20.0])
        assert np.array_equal(s_grid, [50.0, 200.0])
        assert np.all(k >= 0)

    def test_single_cell_grid(self, dataset_file, tmp_path):
        out = tmp_path / "k.csv"
        code = run(
            [
                "kfun", "--in", str(dataset_file), "--window", "13,13,13,87,87,87",
                "--t-grid", "10:10:10", "--s-grid", "70:70:70", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_missing_input_file(self, tmp_path):
        code = run(
            [
                "kfun", "--in", str(tmp_path / "nope.fib"), "--inset", "0.13",
                "--out", str(tmp_path / "k.csv"),
            ]
        )
        assert code == 1

    def test_empty_window_exit_3(self, dataset_file, tmp_path):
        code = run(
            [
                "kfun", "--in", str(dataset_file), "--window", "200,200,200,300,300,300",
                "--out", str(tmp_path / "k.csv"),
            ]
        )
        assert code == 3
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:1e12:1", "1:5:0"])
    def test_unbounded_grid_exit_2(self, dataset_file, tmp_path, grid, capsys):
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(dataset_file), "--inset", "0.13", "--t-grid", grid]
        assert run([*argv, "--out", str(out)]) == 2
        assert "--t-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_too_fine_spacing_exit_2(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(dataset_file), "--inset", "0.13", "--spacing", "1e-12"]
        assert run([*argv, "--out", str(out)]) == 2
        assert "atoms, more than 4096 per fiber" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_pieces_exit_2(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(dataset_file), "--inset", "0.13", "--segment-length", "1e-12"]
        assert run([*argv, "--out", str(out)]) == 2
        assert "pieces, more than 1000000 in total" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_pieces_in_total_exit_2(self, tmp_path, capsys):
        # 4,000,000 pieces per fiber; the 12,000,000 in total are refused
        # before segment counts any fiber's pieces, or builds one
        fibers = [Fiber(str(i), [[0.0, i, 0.0], [40.0, i, 0.0]]) for i in range(3)]
        src = tmp_path / "three.fib"
        write_fibers(fibers, src)
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(src), "--inset", "0.13", "--segment-length", "1e-5"]
        tracemalloc.start()
        try:
            code = run([*argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert "into 12000000 pieces, more than 1000000 in total" in capsys.readouterr().err
        assert not out.exists()

    def test_total_pieces_bounded_by_memory(self, monkeypatch, tmp_path, capsys):
        # 1,200,000 pieces would take about 1 GB; refused before any cut
        def no_cut(*args):
            raise AssertionError("segment called")

        monkeypatch.setattr(cli, "segment", no_cut)
        fibers = [Fiber(str(i), [[0.0, i, i], [40.0, i, i]]) for i in range(3)]
        src = tmp_path / "three.fib"
        write_fibers(fibers, src)
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(src), "--inset", "0.13", "--segment-length", "1e-4"]
        assert run([*argv, "--out", str(out)]) == 2
        assert "into 1200000 pieces, more than 1000000 in total" in capsys.readouterr().err
        assert not out.exists()

    def test_total_pieces_bound_is_exact(self, monkeypatch, tmp_path, capsys):
        # 3 fibers of length 1.5 at L = 1 are cut into 2 pieces each: 6 in
        # all, although their total length is only 4.5 L
        fibers = [Fiber(str(i), [[0.0, i, i], [1.5, i, i]]) for i in range(3)]
        src = tmp_path / "three.fib"
        write_fibers(fibers, src)
        out = tmp_path / "k.csv"
        argv = [
            "kfun", "--in", str(src), "--window=-1,-1,-1,3,3,3", "--segment-length", "1",
            "--out", str(out),
        ]
        def no_cut(*args):
            raise AssertionError("segment called")

        monkeypatch.setattr(fiber_core, "MAX_PIECES", 5)
        monkeypatch.setattr(cli, "segment", no_cut)
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "fiberk kfun: --segment-length 1 would cut the 3 fibers into 6 pieces,"
            " more than 5 in total\n"
        )
        assert not out.exists()
        monkeypatch.undo()
        monkeypatch.setattr(fiber_core, "MAX_PIECES", 6)
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("N=6 ")

    @pytest.mark.parametrize("length", ["0", "-1", "nan"])
    def test_nonpositive_segment_length_exit_2(self, dataset_file, tmp_path, length, capsys):
        out = tmp_path / "k.csv"
        argv = ["kfun", "--in", str(dataset_file), "--inset", "0.13", "--segment-length", length]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "fiberk kfun: --segment-length must be > 0\n"
        assert not out.exists()

    def test_window_and_inset_exclusive(self, dataset_file, tmp_path):
        code = run(
            [
                "kfun", "--in", str(dataset_file), "--window", "0,0,0,1,1,1",
                "--inset", "0.1", "--out", str(tmp_path / "k.csv"),
            ]
        )
        assert code == 2

    def test_segment_length_multiplies_fibers(self, tmp_path, capsys):
        # length-100 fibers split into 3 pieces each before estimation
        long_fibers = [
            Fiber(str(i), [[x, 10.0 * i + 5, 50.0], [x + 100.0, 10.0 * i + 5, 50.0]])
            for i, x in enumerate([0.0, 1.0, 2.0, 3.0])
        ]
        src = tmp_path / "long.fib"
        write_fibers(long_fibers, src)
        out = tmp_path / "k.csv"
        code = run(
            [
                "kfun", "--in", str(src), "--window=-100,-100,-100,300,300,300",
                "--t-grid", "500:500:500", "--s-grid", "500:500:500",
                "--segment-length", "40", "--out", str(out),
            ]
        )
        assert code == 0
        n = int(capsys.readouterr().out.split()[0].split("=")[1])
        assert n == 12
        _, _, k = read_k_table(out)
        # saturated: every ordered pair among the 12 pieces
        assert k[0, 0] == pytest.approx(11.0)

    @pytest.mark.parametrize("kind", [k.value for k in CenterFunctionKind])
    def test_segmenting_is_kfun_on_the_pieces_written_out(self, tmp_path, capsys, kind):
        # kfun cuts each fiber by the arclengths it kept when counting the
        # pieces; the pieces written out and read back carry none, so the K
        # table and stdout must not depend on which arclengths were kept
        src, pieces = tmp_path / "f.fib", tmp_path / "pieces.fib"
        cfg = SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=50, seed=1)
        write_fibers(make_dataset(cfg), src)
        write_fibers([p for f in read_fibers(src) for p in fiber_core.segment(f, 4.0)], pieces)
        flags = ["--inset", "0.13", "--t-grid", "1:4:1", "--s-grid", "1:8:1", "--center", kind]
        cut, whole = tmp_path / "cut.csv", tmp_path / "whole.csv"
        assert run(["kfun", "--in", str(src), "--segment-length", "4", *flags, "--out", str(cut)]) == 0
        printed = capsys.readouterr().out
        assert run(["kfun", "--in", str(pieces), *flags, "--out", str(whole)]) == 0
        assert capsys.readouterr().out == printed
        assert cut.read_bytes() == whole.read_bytes()
        assert read_k_table(cut)[2].max() > 0

    def test_p_inf_accepted(self, dataset_file, tmp_path):
        out = tmp_path / "k.csv"
        code = run(
            [
                "kfun", "--in", str(dataset_file), "--inset", "0.13", "--p", "inf",
                "--t-grid", "20:20:20", "--s-grid", "100:100:100", "--out", str(out),
            ]
        )
        assert code == 0

    def test_pipeline_determinism(self, dataset_file, tmp_path):
        args = [
            "kfun", "--in", str(dataset_file), "--inset", "0.13",
            "--t-grid", "10:30:10", "--s-grid", "30:90:30",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def brownian_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "b12.fib"
    fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=12, seed=1))
    write_fibers(fibers, path)
    return path


def _dist_csv_per_call(path, p, oriented) -> bytes:
    """``fiberk dist`` output rebuilt with the per-call oracle distances."""
    fibers = read_fibers(path)
    centered = [center(f, CenterFunctionKind.MASS_CENTER) for f in fibers]
    params = KernelParams(p=p, sigma=cli.DEFAULT_SIGMA)
    currents = [discretize(c.fiber, params.sigma / 20.0) for c in centered]
    measure = distance_per_call if oriented else min_distance_per_call
    centers = np.array([c.original_center for c in centered])
    rows = ["id_a,id_b,center_dist,shape_dist"]
    for i in range(len(fibers)):
        # one row of center distances at a time, as kfun's pair arrays take them
        row = np.linalg.norm(centers[i] - centers[i + 1 :], axis=1)
        for j in range(i + 1, len(fibers)):
            cd = float(row[j - i - 1])
            sd = measure(currents[i], currents[j], params)
            rows.append(f"{fibers[i].id},{fibers[j].id},{cd:.17g},{sd:.17g}")
    return ("\n".join(rows) + "\n").encode()


_SIMULATE = ["simulate", "--process", "lines", "--n", "3"]
_KFUN = ["kfun", "--in", "{data}", "--inset", "0.13"]
_DIST = ["dist", "--in", "{data}"]
_COMMANDS = {"simulate": _SIMULATE, "kfun": _KFUN, "dist": _DIST}
_TWO_MILLION_CELLS = ["--t-grid", "1:2000:1", "--s-grid", "1:1000:1"]
_HUGE = "fiberset v1 2\nfiber a 2\n0 0 0\n1e160 0 0\nfiber b 2\n0 1 0\n1 1 0\n"
_TINY = (
    "fiberset v1 2\nfiber a 2\n1e-110 1e-110 1e-110\n5e-110 1e-110 1e-110\n"
    "fiber b 2\n1e-110 3e-110 1e-110\n5e-110 3e-110 1e-110\n"
)
_TWO_LINES = "fiberset v1 2\nfiber a 2\n0 0 0\n40 0 0\nfiber b 2\n0 5 0\n40 5 0\n"
# fiber b reads cleanly, but 1e-160 - 20 rounds to -20, so under either center
# kind its centered copy repeats a point
_NEAR_DUPLICATE = (
    "fiberset v1 2\nfiber a 2\n0 0 0\n10 0 1\nfiber b 3\n0 5 0\n1e-160 5 0\n40 5 0\n"
)
# not UTF-8: a file error (exit 1), not a bad flag value (exit 2)
_UNDECODABLE = b"fiberset v1 1\nfiber a 2\n0 0 0\n1 \xff 0\n"
# each: the bytes, the exit code of dist and the end of its stderr
_UNDECODABLE_CASES = {
    "line named": (_UNDECODABLE, 1, ":4: not utf-8 text\n"),
    "earlier bad coordinate first": (
        b"fiberset v1 2\nfiber a 3\n0 0 0\n1 x 0\n1 1 0\nfiber b 2\n5 5 \xff\n6.5 5 5\n",
        1,
        ":4: unparseable coordinate in '1 x 0'\n",
    ),
    "non-ASCII UTF-8 id": (
        "fiberset v1 2\nfiber \u00f1 2\n0 0 0\n1 0 0\nfiber b 2\n0 5 0\n1 5 0\n".encode(),
        0,
        "",
    ),
}


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["kfun", "--in", "{malformed}", "--inset", "0.13"], 1, id="kfun-malformed"),
        pytest.param(["dist", "--in", "{malformed}"], 1, id="dist-malformed"),
        pytest.param(
            ["kfun", "--in", "{undecodable}", "--inset", "0.13"], 1, id="kfun-undecodable"
        ),
        pytest.param(["dist", "--in", "{undecodable}"], 1, id="dist-undecodable"),
        pytest.param([*_SIMULATE, "--out", "{unwritable}"], 1, id="simulate-unwritable"),
        pytest.param(
            ["kfun", "--in", "{data}", "--inset", "0.13", "--out", "{unwritable}"],
            1,
            id="kfun-unwritable",
        ),
        pytest.param(["dist", "--in", "{data}", "--out", "{unwritable}"], 1, id="dist-unwritable"),
        pytest.param(["simulate", "--process", "lines", "--n", "0"], 2, id="simulate-bad-flag"),
        pytest.param(
            ["kfun", "--in", "{data}", "--inset", "0.13", "--sigma", "0"], 2, id="kfun-bad-flag"
        ),
        pytest.param(["dist", "--in", "{data}", "--sigma", "0"], 2, id="dist-bad-flag"),
        pytest.param(
            ["kfun", "--in", "{data}", "--window", "200,200,200,300,300,300"],
            3,
            id="kfun-empty-window",
        ),
        pytest.param([*_SIMULATE, "--length", "inf"], 2, id="simulate-length-inf"),
        pytest.param([*_SIMULATE, "--length", "1e-320"], 2, id="simulate-length-subnormal"),
        pytest.param(
            ["simulate", "--process", "spirals", "--n", "3", "--length", "1e308"],
            2,
            id="simulate-spiral-length-huge",
        ),
        pytest.param(
            ["simulate", "--process", "clustered", "--n", "3", "--cluster-std", "nan"],
            2,
            id="simulate-cluster-std-nan",
        ),
        pytest.param([*_SIMULATE, "--cluster-std", "-1"], 2, id="simulate-cluster-std-negative"),
        pytest.param(
            [*_SIMULATE, "--direction-jitter-std", "-0.1"], 2, id="simulate-jitter-negative"
        ),
        # a jitter of 1e154 overflowed when the direction was normalized
        pytest.param(
            ["simulate", "--process", "clustered", "--n", "3", "--direction-jitter-std", "1e154"],
            2,
            id="simulate-jitter-huge",
        ),
        pytest.param(
            ["simulate", "--process", "lines", "--n", "1000000000"], 2, id="simulate-too-many-points"
        ),
        pytest.param(
            ["simulate", "--process", "clustered", "--n", "3", "--n-clusters", "4000000"],
            2,
            id="simulate-too-many-clusters",
        ),
        # points that collapse in floats: next to a center near 1e100, or at a
        # length of 1e-300 (exit 2, naming the fiber; the message is checked in
        # test_simulate_refusal_names_the_fiber)
        pytest.param(
            [*_SIMULATE, "--box", "0,0,0,1e100,1e100,1e100"], 2, id="simulate-collapse-far-box"
        ),
        pytest.param(
            ["simulate", "--process", "clustered", "--n", "3", "--cluster-std", "1e100"],
            2,
            id="simulate-collapse-cluster-std",
        ),
        pytest.param(
            ["simulate", "--process", "brownian", "--n", "3", "--length", "1e-300"],
            2,
            id="simulate-collapse-brownian-short",
        ),
        pytest.param(
            ["simulate", "--process", "spirals", "--n", "3", "--length", "1e-300"],
            2,
            id="simulate-collapse-spirals-short",
        ),
        pytest.param(["kfun", "--in", "{huge}", "--inset", "0.13"], 1, id="kfun-huge-coordinate"),
        pytest.param(["dist", "--in", "{huge}"], 1, id="dist-huge-coordinate"),
        pytest.param(["kfun", "--in", "{wide}", "--inset", "0.13"], 1, id="kfun-wide-fiber"),
        pytest.param(["dist", "--in", "{wide}"], 1, id="dist-wide-fiber"),
        # window volumes of 1e-321 (subnormal: 2 / volume overflows) and 1e-327
        # (underflows to 0) give no finite intensity
        pytest.param(
            ["kfun", "--in", "{tiny}", "--window=0,0,0,1e-107,1e-107,1e-107"],
            2,
            id="kfun-window-volume-subnormal",
        ),
        pytest.param(
            ["kfun", "--in", "{tiny}", "--window=0,0,0,1e-109,1e-109,1e-109"],
            2,
            id="kfun-window-volume-zero",
        ),
        pytest.param([*_KFUN, *_TWO_MILLION_CELLS], 2, id="kfun-too-many-cells"),
        pytest.param([*_KFUN, "--spacing", "1e-3"], 2, id="kfun-too-many-atoms-per-fiber"),
        pytest.param([*_DIST, "--spacing", "1e-3"], 2, id="dist-too-many-atoms-per-fiber"),
        # counts of 4e+301 atoms or pieces are printed to 3 digits, not 302
        pytest.param(["dist", "--in", "{two}", "--spacing", "1e-300"], 2, id="dist-spacing-1e-300"),
        pytest.param(
            ["kfun", "--in", "{two}", "--inset", "0.13", "--segment-length", "1e-300"],
            2,
            id="kfun-segment-length-1e-300",
        ),
        # flag values are checked before the input file is read
        pytest.param(["kfun", "--in", "{missing}", "--inset", "0", "--p", "0"], 2, id="kfun-p-0"),
        pytest.param(
            ["kfun", "--in", "{missing}", "--inset", "0", "--t-grid", "5:1:1"],
            2,
            id="kfun-descending-grid",
        ),
        pytest.param(
            ["kfun", "--in", "{missing}", "--inset", "0", *_TWO_MILLION_CELLS],
            2,
            id="kfun-too-many-cells-unread",
        ),
        pytest.param(["dist", "--in", "{missing}", "--p", "0"], 2, id="dist-p-0"),
        pytest.param(["dist", "--in", "{missing}", "--spacing", "-1"], 2, id="dist-spacing--1"),
        pytest.param(["dist", "--in", "{missing}", "--spacing", "0"], 2, id="dist-spacing-0"),
        pytest.param(["dist", "--in", "{missing}", "--spacing", "nan"], 2, id="dist-spacing-nan"),
        pytest.param(
            ["kfun", "--in", "{missing}", "--inset", "0.13", "--segment-length", "0"],
            2,
            id="kfun-segment-length-0-unread",
        ),
        pytest.param([*_SIMULATE, "--seed=-1"], 2, id="simulate-seed-negative"),
        pytest.param(["kfun", "--in", "{near}", "--inset", "0.13"], 2, id="kfun-near-duplicate"),
    ],
)
def test_exit_code_table(dataset_file, tmp_path, capsys, argv, code):
    malformed = tmp_path / "bad.fib"
    malformed.write_text("not a fiber file\n")
    huge = tmp_path / "huge.fib"
    huge.write_text(_HUGE)
    wide = tmp_path / "wide.fib"
    wide.write_text(_WIDE)
    tiny = tmp_path / "tiny.fib"
    tiny.write_text(_TINY)
    two = tmp_path / "two.fib"
    two.write_text(_TWO_LINES)
    near = tmp_path / "near.fib"
    near.write_text(_NEAR_DUPLICATE)
    undecodable = tmp_path / "undecodable.fib"
    undecodable.write_bytes(_UNDECODABLE)
    out = tmp_path / "out"
    unwritable = tmp_path / "missing" / "out"
    paths = {
        "{data}": dataset_file,
        "{malformed}": malformed,
        "{huge}": huge,
        "{wide}": wide,
        "{tiny}": tiny,
        "{two}": two,
        "{near}": near,
        "{undecodable}": undecodable,
        "{missing}": tmp_path / "missing.fib",
        "{unwritable}": unwritable,
    }
    argv = [str(paths.get(a, a)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fiberk {argv[0]}: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 200
    assert not out.exists() and not unwritable.parent.exists()


@pytest.mark.parametrize(
    "data, code, tail", list(_UNDECODABLE_CASES.values()), ids=list(_UNDECODABLE_CASES)
)
def test_undecodable_input_is_refused_at_its_line(tmp_path, capsys, data, code, tail):
    src = tmp_path / "in.fib"
    src.write_bytes(data)
    out = tmp_path / "out.csv"
    assert run(["dist", "--in", str(src), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"fiberk dist: {src}{tail}" and not out.exists()
    else:
        assert err == "" and out.read_text(encoding="utf-8").splitlines()[1].startswith("\u00f1,b,")


@pytest.mark.parametrize("kind", [k.value for k in CenterFunctionKind])
@pytest.mark.parametrize(
    "command, flags, fid",
    [
        ("kfun", ["--inset", "0.13"], "b"),
        ("dist", [], "b"),
        # a piece of one fiber is built from points checked as a batch
        ("kfun", ["--inset", "0.13", "--segment-length", "100"], "b.0"),
    ],
    ids=["kfun", "dist", "kfun-segmented"],
)
def test_a_refused_centered_fiber_is_named(tmp_path, capsys, command, flags, fid, kind):
    src = tmp_path / "near.fib"
    src.write_text(_NEAR_DUPLICATE)
    out = tmp_path / "out.csv"
    assert run([command, "--in", str(src), "--center", kind, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == (
        f"fiberk {command}: fiber {fid}: consecutive fiber points must be distinct\n"
    )
    assert not out.exists()


_LONG = ["--n", "30", "--length", "1e99"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_SIMULATE, "--box", "0,0,0,1e100,1e100,1e100"],
        ["simulate", "--process", "clustered", "--n", "3", "--cluster-std", "1e100"],
        ["simulate", "--process", "brownian", "--n", "3", "--length", "1e-300"],
        ["simulate", "--process", "spirals", "--n", "3", "--length", "1e-300"],
        # 1e99-long fibers placed beyond the coordinate bound
        ["simulate", "--process", "lines", *_LONG, "--box=0,0,0,1e100,1e100,1e100"],
        ["simulate", "--process", "clustered", *_LONG, "--cluster-std", "1e100"],
    ],
    ids=[
        "collapse-far-box", "collapse-cluster-std", "collapse-brownian-short",
        "collapse-spirals-short", "far-box-beyond", "cluster-std-beyond",
    ],
)
def test_simulate_refusal_names_the_fiber(tmp_path, capsys, argv):
    # every fiber that make_dataset cannot make is named with its length and
    # center, whichever check refused it
    out = tmp_path / "out.fib"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = r"fiberk simulate: fiber \d+ \(length \S+, center \[[^]]+\]\): .+\n"
    assert re.fullmatch(named, captured.err)
    assert len(captured.err) < 200 and not out.exists()


_BOX_FIELDS = "box must be 'x0,y0,z0,x1,y1,z1'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kfun", "--in", "{data}", "--window=0,0,0,1,1"], f"argument --window: {_BOX_FIELDS}"),
        (
            ["kfun", "--in", "{data}", "--window=0,0,0,1,1,x"],
            "argument --window: bad box value in '0,0,0,1,1,x'",
        ),
        (
            ["kfun", "--in", "{data}", "--window=1,0,0,0,1,1"],
            "argument --window: window must satisfy lower < upper componentwise",
        ),
        ([*_KFUN, "--t-grid", "1:5"], "argument --t-grid: grid must be 'start:stop:step'"),
        ([*_KFUN, "--s-grid", "1:x:1"], "argument --s-grid: bad grid value in '1:x:1'"),
        ([*_SIMULATE, "--box=0,0,0,1,1,1,1"], f"argument --box: {_BOX_FIELDS}"),
    ],
    ids=[
        "window-fields", "window-value", "window-order", "grid-fields", "grid-value",
        "box-fields",
    ],
)
def test_malformed_box_or_grid_exit_2(dataset_file, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(dataset_file) if a == "{data}" else a for a in argv]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"fiberk {argv[0]}: error: {message}"
    assert not out.exists()


def test_a_file_of_blank_coordinate_lines_gives_one_error_line(tmp_path, capsys, monkeypatch):
    # np.loadtxt warns "input contained no data" when every line it gets is
    # blank; no such warning may reach stderr before the one-line error
    src, out = tmp_path / "blank.fib", tmp_path / "d.csv"
    src.write_text("fiberset v1 1\nfiber a 2\n\n\n")
    argv = ["dist", "--in", str(src), "--out", str(out)]
    want = f"fiberk dist: {src}:3: expected 3 coordinates, got ''\n"
    monkeypatch.setenv("PYTHONPATH", str(Path(fiberk.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "fiberk.cli", *argv], capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_dist_and_kfun_reject_a_spacing_alike_before_reading(tmp_path, capsys):
    missing, out = str(tmp_path / "missing.fib"), str(tmp_path / "out")
    flags = ["--in", missing, "--spacing", "-1", "--out", out]
    assert run(["dist", *flags]) == 2
    assert run(["kfun", *flags, "--inset", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "fiberk dist: spacing must be > 0\nfiberk kfun: spacing must be > 0\n"


@pytest.mark.parametrize("target", ["no-such-directory", "directory"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_write_error_names_the_output(dataset_file, tmp_path, capsys, command, target):
    # a missing directory fails in mkstemp, a directory as target in the
    # final replace; either way the message names --out, not the temp file
    if target == "directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        out = tmp_path / "no" / "such" / "out"
    argv = [str(dataset_file) if a == "{data}" else a for a in _COMMANDS[command]]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fiberk {command}: cannot write {out}: ")
    assert err.count("\n") == 1
    assert ".fiberk-tmp-" not in err
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".fiberk-tmp-")]


class _DiskFull(np.ndarray):
    """Points whose text cannot be written: ``tolist`` fails as a full disk would."""

    def tolist(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path):
    # write_fibers writes a fiber at a time, so a failure can come after the
    # first fibers are on disk: the temporary file goes and the old file stays
    fibers = [Fiber(fid, [[0.0, 0, 0], [1.0, 0, 0]]) for fid in "abc"]
    object.__setattr__(fibers[1], "points", fibers[1].points.view(_DiskFull))
    out = tmp_path / "f.fib"
    out.write_text("old")
    want = f"^cannot write {re.escape(str(out))}: No space left on device$"
    with pytest.raises(OSError, match=want):
        write_fibers(fibers, out)
    assert out.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["f.fib"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_outputs_get_the_mode_the_umask_gives_a_new_file(
    dataset_file, tmp_path, command, umask, mode
):
    # an output gets the mode open() gives a new file under the umask (not
    # 0o600, as tempfile.mkstemp would), also where it replaces another file
    argv = [str(dataset_file) if a == "{data}" else a for a in _COMMANDS[command]]
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run([*argv, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
        out.chmod(0o640)
        assert run([*argv, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
    finally:
        os.umask(old)


@pytest.mark.parametrize(
    "command, module, name, value, message",
    [
        pytest.param(
            _COMMANDS["kfun"], kfunction, "MAX_K_CELLS", 99,
            "a 10 x 10 (t, s) grid has 100 cells, more than 99", id="kfun-cells",
        ),
        pytest.param(
            _COMMANDS["kfun"], backends, "MAX_PAIR_EVALS", 24 * 24 - 1,
            "fiber 0: spacing 1.66667 gives 24 atoms, more than 23 per fiber",
            id="kfun-atoms-per-fiber",
        ),
        pytest.param(
            _COMMANDS["dist"], backends, "MAX_PAIR_EVALS", 24 * 24 - 1,
            "fiber 0: spacing 1.66667 gives 24 atoms, more than 23 per fiber",
            id="dist-atoms-per-fiber",
        ),
        pytest.param(
            _COMMANDS["kfun"], kfunction, "MAX_TOTAL_ATOMS", 100,
            "fiber 4: spacing 1.66667 brings the atom total to 120, more than 100 in total",
            id="kfun-atom-total",
        ),
        pytest.param(
            _COMMANDS["dist"], kfunction, "MAX_TOTAL_ATOMS", 100,
            "fiber 4: spacing 1.66667 brings the atom total to 120, more than 100 in total",
            id="dist-atom-total",
        ),
        # no limit lowered: 9,756,098 atoms of fiber 0, about 800 MB, are
        # refused from their count before any is made
        pytest.param(
            [*_DIST, "--spacing", "4.1e-6"], None, None, None,
            "fiber 0: spacing 4.1e-06 gives 9756098 atoms, more than 4096 per fiber",
            id="dist-spacing-4.1e-6",
        ),
        pytest.param(
            ["kfun", "--in", "{data}", "--window=0,0,0,100,100,100", "--spacing", "4.1e-6"],
            None, None, None,
            "fiber 0: spacing 4.1e-06 gives 9756098 atoms, more than 4096 per fiber",
            id="kfun-spacing-4.1e-6",
        ),
    ],
)
def test_size_limits_stop_the_run_early(
    dataset_file, tmp_path, capsys, monkeypatch, command, module, name, value, message
):
    # 40 fibers of 24 atoms each at the default spacing; each limit lowered
    # just below them stops the run with exit 2 before the pair sums
    if module is not None:
        monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(backends, "inner", None)
    monkeypatch.setattr(backends, "self_norms_sq", None)
    out = tmp_path / "out.csv"
    argv = [str(dataset_file) if a == "{data}" else a for a in command]
    tracemalloc.start()
    try:
        code = run([*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"fiberk {command[0]}: {message}\n"
    assert peak < 2**21
    assert not out.exists()


def test_package_lists_each_public_name_once():
    import fiberk
    from fiberk import currents, fiber_core, fileio, kfunction, simulate

    modules = (fiber_core, currents, kfunction, fileio, simulate)
    names = {name for module in modules for name in module.__all__}
    assert len(fiberk.__all__) == len(names)
    assert set(fiberk.__all__) == names
    for module in modules:
        for name in module.__all__:
            assert getattr(fiberk, name) is getattr(module, name)


class TestCliDist:
    @pytest.mark.parametrize("oriented", [False, True], ids=["min", "oriented"])
    @pytest.mark.parametrize("p", ["1", "2", "inf"])
    def test_bytes_equal_per_call_oracle(self, brownian_file, tmp_path, p, oriented):
        out = tmp_path / "d.csv"
        flags = ["--p", p] + (["--oriented"] if oriented else [])
        assert run(["dist", "--in", str(brownian_file), "--out", str(out), *flags]) == 0
        assert out.read_bytes() == _dist_csv_per_call(brownian_file, float(p), oriented)

    def test_center_distances_are_kfuns(self, tmp_path):
        # kfun's pair arrays take every center distance with one formula;
        # dist must write the same bits, in the same (i, j) order
        src, out = tmp_path / "b60.fib", tmp_path / "d.csv"
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=60, seed=1))
        write_fibers(fibers, src)
        assert run(["dist", "--in", str(src), "--p", "1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        config = kfunction.KConfig(
            kernel=KernelParams(p=1.0, sigma=cli.DEFAULT_SIGMA), t_grid=[1.0], s_grid=[1.0]
        )
        _, ia, ib, cd, _ = kfunction._pair_arrays(fibers, config, None, None)
        want_ids = [(fibers[i].id, fibers[j].id) for i, j in zip(ia, ib)]
        assert [tuple(r[:2]) for r in rows] == want_ids
        assert np.array_equal([float(r[2]) for r in rows], cd)

    def test_one_kernel_sum_per_pair_and_per_fiber(self, monkeypatch, tmp_path):
        # 10 fibers: 45 pair sums and 10 self sums, in every invocation; a
        # cache that outlived one call would make the second run cheaper
        src = tmp_path / "ten.fib"
        fibers = make_dataset(SimConfig(process=ProcessKind.UNIFORM_BROWNIAN, n_fibers=10, seed=2))
        write_fibers(fibers, src)
        calls = []
        real = backends.inner

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(backends, "inner", counting)
        for out in ("d1.csv", "d2.csv"):
            calls.clear()
            assert run(["dist", "--in", str(src), "--out", str(tmp_path / out)]) == 0
            assert len(calls) == 10 * 9 // 2 + 10
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_two_fiber_file(self, tmp_path):
        fibers = [
            Fiber("a", [[0, 0, 0], [10, 0, 0]]),
            Fiber("b", [[0, 5, 0], [10, 5, 0]]),
        ]
        src = tmp_path / "two.fib"
        write_fibers(fibers, src)
        out = tmp_path / "d.csv"
        assert run(["dist", "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id_a,id_b,center_dist,shape_dist"
        assert len(lines) == 2
        id_a, id_b, cd, sd = lines[1].split(",")
        assert (id_a, id_b) == ("a", "b")
        assert float(cd) == pytest.approx(5.0)
        assert float(sd) == pytest.approx(0.0, abs=1e-9)

    def test_ids_with_comma_or_quote_are_quoted(self, tmp_path):
        fibers = [
            Fiber("a,x", [[0, 0, 0], [10, 0, 0]]),
            Fiber('b"q', [[0, 5, 0], [10, 5, 0]]),
            Fiber("c", [[0, 9, 0], [10, 9, 0]]),
        ]
        src = tmp_path / "ids.fib"
        write_fibers(fibers, src)
        out = tmp_path / "d.csv"
        assert run(["dist", "--in", str(src), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [4] * 4
        assert [r[:2] for r in rows[1:]] == [["a,x", 'b"q'], ["a,x", "c"], ['b"q', "c"]]
        assert out.read_text().splitlines()[3].startswith('"b""q",c,')

    def test_duplicate_fiber_zero_distance(self, tmp_path):
        fibers = [
            Fiber("a", [[0, 0, 0], [10, 3, 0]]),
            Fiber("b", [[0, 0, 0], [10, 3, 0]]),
        ]
        src = tmp_path / "dup.fib"
        write_fibers(fibers, src)
        out = tmp_path / "d.csv"
        assert run(["dist", "--in", str(src), "--out", str(out)]) == 0
        sd = float(out.read_text().splitlines()[1].split(",")[3])
        assert sd == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "0"], ["--sigma", "inf"], ["--p", "nan"], ["--spacing", "-1"],
            ["--spacing", "1e-12"],
        ],
        ids=" ".join,
    )
    def test_invalid_flags_exit_2(self, dataset_file, tmp_path, flags):
        out = tmp_path / "d.csv"
        assert run(["dist", "--in", str(dataset_file), "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_rethresholded_rows_reproduce_kfun_counts(self, dataset_file, tmp_path):
        kout = tmp_path / "k.csv"
        dout = tmp_path / "d.csv"
        window = "13,13,13,87,87,87"
        assert run(
            [
                "kfun", "--in", str(dataset_file), "--window", window,
                "--t-grid", "10:40:15", "--s-grid", "20:200:60", "--out", str(kout),
            ]
        ) == 0
        assert run(["dist", "--in", str(dataset_file), "--out", str(dout)]) == 0
        fibers = read_fibers(dataset_file)
        from fiberk import CenterFunctionKind, center

        centers = {
            f.id: center(f, CenterFunctionKind.MASS_CENTER).original_center for f in fibers
        }
        lo, hi = np.full(3, 13.0), np.full(3, 87.0)

        def in_w(c):
            return bool(np.all((c >= lo) & (c < hi)))

        rows = []
        for line in dout.read_text().splitlines()[1:]:
            ia, ib, cd, sd = line.split(",")
            rows.append((ia, ib, float(cd), float(sd)))
        t_grid, s_grid, k = read_k_table(kout)
        n_in = sum(1 for c in centers.values() if in_w(c))
        for i, t in enumerate(t_grid):
            for j, s in enumerate(s_grid):
                count = 0
                for ia, ib, cd, sd in rows:
                    if cd <= t and sd <= s:
                        count += int(in_w(centers[ia])) + int(in_w(centers[ib]))
                assert count == int(round(k[i, j] * n_in))
