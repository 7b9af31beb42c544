import numpy as np
import pytest

from fiberk import (
    Fiber,
    FiberFileError,
    ProcessKind,
    SimConfig,
    make_dataset,
    read_fibers,
    read_kcsv,
    write_fibers,
)
from fiberk.cli import main


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


class TestKcsvFile:
    def test_short_row_cites_line(self, tmp_path):
        p = tmp_path / "k.csv"
        p.write_text("t,s,k\n1,2,0.5\n1,3\n")
        with pytest.raises(ValueError, match=r"k\.csv:3: expected 't,s,k' values"):
            read_kcsv(p)

    def test_unparseable_value_cites_line(self, tmp_path):
        p = tmp_path / "k.csv"
        p.write_text("t,s,k\n1,2,x\n")
        with pytest.raises(ValueError, match=r"k\.csv:2: unparseable value"):
            read_kcsv(p)


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
        t_grid, s_grid, k = read_kcsv(out)
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

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:1e12:1"])
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
        assert "more than 10000000" in capsys.readouterr().err
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
        _, _, k = read_kcsv(out)
        # saturated: every ordered pair among the 12 pieces
        assert k[0, 0] == pytest.approx(11.0)

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


class TestCliDist:
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
        t_grid, s_grid, k = read_kcsv(kout)
        n_in = sum(1 for c in centers.values() if in_w(c))
        for i, t in enumerate(t_grid):
            for j, s in enumerate(s_grid):
                count = 0
                for ia, ib, cd, sd in rows:
                    if cd <= t and sd <= s:
                        count += int(in_w(centers[ia])) + int(in_w(centers[ib]))
                assert count == int(round(k[i, j] * n_in))
