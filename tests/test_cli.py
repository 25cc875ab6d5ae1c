"""End-to-end command line coverage through main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrtensor import solver
from mrtensor.analysis import rank_motifs
from mrtensor.cli import _geometry, build_parser, main
from mrtensor.ingest import FieldGeometry
from mrtensor.model import CpBtdModel, read_model, write_model
from mrtensor.solver import SolverConfig, fit_block_gs, read_report
from mrtensor.sptensor import read_tensor

EVENTS = """replicate_id,team,minutes,x_o,y_o,x_d,y_d
m1,alpha,96,10,10,50,40
m1,alpha,96,50,40,90,60
m1,alpha,96,30,20,70,50
m2,beta,90,20,30,60,50
m2,beta,90,80,60,40,30
m2,beta,90,15,35,65,45
"""


@pytest.fixture
def events_csv(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS)
    return path


@pytest.fixture
def fitted_model(tmp_path, events_csv):
    tensor = tmp_path / "t.txt"
    model = tmp_path / "m.txt"
    assert main(["encode", str(events_csv), "-S", "2",
                 "--out", str(tensor)]) == 0
    assert main([
        "fit", str(tensor), "--terms", "2", "--rank", "1",
        "--max-outer", "15", "--seed", "0", "--out", str(model),
    ]) == 0
    return model


class TestEncode:
    def test_writes_tensor_and_reports_sparsity(
        self, tmp_path, events_csv, capsys
    ):
        out = tmp_path / "t.txt"
        code = main(["encode", str(events_csv), "-S", "2", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == "cells=512 nnz=5 sparsity=99.02%"
        t = read_tensor(out)
        assert t.shape == (4, 4, 4, 4, 2)
        assert t.total == 6

    def test_geometry_flags(self, tmp_path, events_csv):
        out = tmp_path / "t.txt"
        code = main([
            "encode", str(events_csv), "-S", "1", "--out", str(out),
            "--attack-direction", "right_to_left",
        ])
        assert code == 0

    @pytest.mark.parametrize("flag", ["--length", "--width"])
    def test_infinite_field_exits_two(self, tmp_path, events_csv, flag, capsys):
        out = tmp_path / "t.txt"
        code = main(["encode", str(events_csv), "-S", "2", flag, "inf",
                     "--out", str(out)])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_deep_grid_reports_exact_cell_count(
        self, tmp_path, events_csv, capsys
    ):
        out = tmp_path / "t.txt"
        code = main(["encode", str(events_csv), "-S", "16", "--out", str(out)])
        assert code == 0
        assert f"cells={4**32 * 2} nnz=6" in capsys.readouterr().out

    @pytest.mark.parametrize("row, message", [
        ("m1,alpha,96,10\x00,10,50,40",
         "line 3: malformed row (could not convert string to float: "
         "'10\\x00')"),
        ('"m1,alpha,96,10,10,50,40',
         "line 3: malformed row (no team cell)"),
    ], ids=["nul byte", "unclosed quote"])
    def test_nul_byte_or_unclosed_quote_exits_two(
        self, tmp_path, capsys, row, message
    ):
        events = tmp_path / "events.csv"
        lines = EVENTS.splitlines()
        events.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        code = main(["encode", str(events), "-S", "1",
                     "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "t.txt").exists()

    def test_file_cut_mid_row_exits_two(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        header = EVENTS.splitlines()[0]
        events.write_text(f"{header}\nm1,a,90,10,10,50,40\nm1,a,90,10,1")
        code = main(["encode", str(events), "-S", "1",
                     "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: line 3: malformed row (no x_d cell)")
        assert not (tmp_path / "t.txt").exists()

    def test_overlong_field_exits_two(self, tmp_path, capsys):
        # A long field is read whole: one that is not a number is the
        # malformed row, and a bad row after a long number names itself.
        events = tmp_path / "events.csv"
        lines = EVENTS.splitlines()
        long_text = ['m1,alpha,96,10,10,50,"' + "y" * 200_000 + '"']
        long_number = ['m1,alpha,96,10,10,50,"' + " " * 200_000 + '40"',
                       "m1,alpha,96,oops,10,50,40"]
        for rows, bad_line in ((long_text, 3), (long_number, 4)):
            events.write_text("\n".join(lines[:2] + rows + lines[2:]) + "\n")
            code = main(["encode", str(events), "-S", "1",
                         "--out", str(tmp_path / "t.txt")])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                f"error: line {bad_line}: malformed row (could not convert"
            )
            assert not (tmp_path / "t.txt").exists()

    def test_header_only_csv_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(EVENTS.splitlines()[0] + "\n")
        out = tmp_path / "t.txt"
        assert main(["encode", str(path), "-S", "1", "--out", str(out)]) == 2
        assert "no replicates to encode" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main([
            "encode", str(tmp_path / "nope.csv"), "-S", "1",
            "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_writes_model_and_report(self, tmp_path, events_csv, capsys):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        model = tmp_path / "m.txt"
        report = tmp_path / "r.csv"
        code = main([
            "fit", str(tensor), "--terms", "2", "--rank", "1",
            "--max-outer", "10", "--out", str(model),
            "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stop_reason=" in out
        fitted = read_model(model)
        assert fitted.n_terms == 2
        trace = read_report(report)
        assert len(trace.objective) >= 1

    def test_entry_line_with_extra_field_exits_two(
        self, tmp_path, events_csv, capsys
    ):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        lines = tensor.read_text().splitlines()
        lines[1] += " 5"
        tensor.write_text("\n".join(lines) + "\n")
        code = main(["fit", str(tensor), "--terms", "2", "--rank", "1",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "m.txt").exists()

    def test_numerical_failure_exits_three_with_report(
        self, tmp_path, events_csv, monkeypatch, capsys
    ):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        inner = solver._mm_sweeps
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("zero intensity at a positive count")
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, "_mm_sweeps", fail_second)
        model = tmp_path / "m.txt"
        report = tmp_path / "r.csv"
        code = main([
            "fit", str(tensor), "--terms", "2", "--rank", "1",
            "--out", str(model), "--report", str(report),
        ])
        assert code == 3
        assert "zero intensity" in capsys.readouterr().err
        assert not model.exists()
        assert len(read_report(report).objective) == 1

    def test_per_term_ranks_match_the_library_fit(self, tmp_path, events_csv):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        model = tmp_path / "m.txt"
        assert main(["fit", str(tensor), "-H", "2", "-R", "2,1",
                     "--max-outer", "5", "--out", str(model)]) == 0
        assert read_model(model).ranks == (2, 1)
        config = SolverConfig(n_terms=2, rank=(2, 1), max_outer=5)
        write_model(fit_block_gs(read_tensor(tensor), config)[0],
                    tmp_path / "library.txt")
        assert model.read_text() == (tmp_path / "library.txt").read_text()

    def test_out_of_range_knob_exits_two(self, tmp_path, events_csv, capsys):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        code = main([
            "fit", str(tensor), "--max-inner", "0",
            "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 2
        assert "iteration caps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--beta", "inf"), ("--outer-tol", "nan"),
        ("--outer-tol", "inf"),
    ])
    def test_non_finite_knob_exits_two(
        self, tmp_path, events_csv, flag, value, capsys
    ):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        code = main(["fit", str(tensor), flag, value,
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--inner-tol"])
    def test_fixed_constants_have_no_flag(self, tmp_path, flag):
        with pytest.raises(SystemExit) as info:
            main(["fit", str(tmp_path / "t.txt"), flag, "1e-3",
                  "--out", str(tmp_path / "m.txt")])
        assert info.value.code == 2


def top_motif(model_path) -> int:
    # The fixture's two terms tie in exact arithmetic, so the top one
    # is whichever rounding favors; take it from the ranking.
    return rank_motifs(read_model(model_path))[0][0] + 1


class TestMotifs:
    def test_writes_csv_and_svg_per_scale(
        self, tmp_path, fitted_model, capsys
    ):
        outdir = tmp_path / "motifs"
        code = main([
            "motifs", str(fitted_model), "--top", "1", "--out", str(outdir),
        ])
        assert code == 0
        top = top_motif(fitted_model)
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            f"motif_{top}_scale_1.csv",
            f"motif_{top}_scale_1.svg",
            f"motif_{top}_scale_2.csv",
            f"motif_{top}_scale_2.svg",
        ]
        assert f"motif={top} " in capsys.readouterr().out

    def test_scale_subset(self, tmp_path, fitted_model):
        outdir = tmp_path / "motifs"
        code = main([
            "motifs", str(fitted_model), "--top", "1",
            "--scales", "2", "--out", str(outdir),
        ])
        assert code == 0
        top = top_motif(fitted_model)
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [f"motif_{top}_scale_2.csv",
                         f"motif_{top}_scale_2.svg"]

    def test_overlong_top_warns(self, tmp_path, fitted_model, capsys):
        code = main([
            "motifs", str(fitted_model), "--top", "99",
            "--out", str(tmp_path / "motifs"),
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["0", "3", "1,3"])
    def test_scale_out_of_range_writes_nothing(
        self, tmp_path, fitted_model, scales, capsys
    ):
        outdir = tmp_path / "motifs"
        code = main([
            "motifs", str(fitted_model), "--scales", scales,
            "--out", str(outdir),
        ])
        assert code == 2
        assert "out of range [1, 2]" in capsys.readouterr().err
        assert not outdir.exists()

    def test_model_off_the_grid_exits_two_first(self, tmp_path, capsys):
        # Three modes are not origin/destination pairs: rejected before
        # ranking warns or the output directory is made.
        model = CpBtdModel(
            (1,), [np.full((4, 1), 0.25)] * 3, np.ones(1), np.ones((1, 1))
        )
        write_model(model, tmp_path / "m.txt")
        outdir = tmp_path / "motifs"
        code = main(["motifs", str(tmp_path / "m.txt"), "--out", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "quadrant pairs" in err
        assert "warning" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["--top", "--edges"])
    def test_negative_count_exits_two_first(
        self, tmp_path, fitted_model, flag, capsys
    ):
        outdir = tmp_path / "motifs"
        code = main([
            "motifs", str(fitted_model), flag, "-1", "--out", str(outdir),
        ])
        assert code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not outdir.exists()

    def test_scale_past_the_node_cap_exits_two_first(self, tmp_path, capsys):
        # A depth-7 model: its scale-7 motif would hold 4**14 cells.
        model = CpBtdModel(
            (1,), [np.full((4, 1), 0.25)] * 14, np.ones(1), np.ones((1, 1))
        )
        write_model(model, tmp_path / "m.txt")
        outdir = tmp_path / "motifs"
        code = main(["motifs", str(tmp_path / "m.txt"), "--out", str(outdir)])
        assert code == 2
        assert "scale 7 needs" in capsys.readouterr().err
        assert not outdir.exists()
        code = main(["motifs", str(tmp_path / "m.txt"), "--scales", "1,2",
                     "--out", str(outdir)])
        assert code == 0
        assert (outdir / "motif_1_scale_2.csv").exists()

    def test_overflowing_motif_exits_two_first(self, tmp_path, capsys):
        # read_model takes any finite nonnegative factors, so a motif can
        # overflow to inf; no file may be written before that is found.
        model = tmp_path / "m.txt"
        model.write_text("cpbtd v1\nP=2 I=4,4 H=1 R=1 N=1\n"
                         "phi 1\n1e300 0 0 0\nphi 2\n1e300 0 0 0\n"
                         "omega\n1\nupsilon\n1\n")
        outdir = tmp_path / "motifs"
        code = main(["motifs", str(model), "--top", "1", "--out", str(outdir)])
        assert code == 2
        assert "motif matrix must be finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_top_zero_writes_nothing(self, tmp_path, fitted_model):
        outdir = tmp_path / "motifs"
        code = main([
            "motifs", str(fitted_model), "--top", "0", "--out", str(outdir),
        ])
        assert code == 0
        assert list(outdir.iterdir()) == []


class TestScores:
    def test_rows_per_term_then_eta(self, tmp_path, fitted_model):
        out = tmp_path / "scores.csv"
        assert main(["scores", str(fitted_model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term,n1,n2"
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")
        assert lines[3].startswith("eta,")
        # Shares in each replicate column sum to one.
        theta = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:3]]
        )
        np.testing.assert_allclose(theta.sum(axis=0), [1.0, 1.0])


    def test_writer_bytes(self, tmp_path):
        model, out = tmp_path / "m.txt", tmp_path / "scores.csv"
        write_model(CpBtdModel((1, 1), [np.full((4, 2), 0.25)], np.ones(2),
                               np.array([[1.0, 2.0], [2.0, 0.1]])), model)
        assert main(["scores", str(model), "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"term,n1,n2\n"
            b"1,0.33333333333333331,0.95238095238095233\n"
            b"2,0.66666666666666663,0.047619047619047616\n"
            b"eta,3,2.1000000000000001\n")


class TestDissim:
    def test_writes_labeled_matrix(self, tmp_path, events_csv):
        out = tmp_path / "d.csv"
        code = main([
            "dissim", str(events_csv), "--scale", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "team,alpha,beta"
        assert len(lines) == 3

    @pytest.mark.parametrize("scale", ["8", "40"])
    def test_scale_past_the_node_cap_exits_two(
        self, tmp_path, events_csv, scale, capsys
    ):
        # Two teams at scale 8 would need 2 x 4**16 cells (64 GiB).
        out = tmp_path / "d.csv"
        code = main([
            "dissim", str(events_csv), "--scale", scale, "--out", str(out),
        ])
        assert code == 2
        assert f"scale {scale} needs" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_minutes_flag_is_gone(self, tmp_path, events_csv):
        # Bray-Curtis cancels any common duration, so there is none to set.
        with pytest.raises(SystemExit) as exc:
            main(["dissim", str(events_csv), "--scale", "1",
                  "--reference-minutes", "90", "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, scale", [("encode", "--scales"),
                                            ("dissim", "--scale")])
def test_default_geometry_flags_are_field_geometry(command, scale):
    args = build_parser().parse_args(
        [command, "events.csv", scale, "1", "--out", "x"]
    )
    assert _geometry(args) == FieldGeometry()


@pytest.mark.parametrize("argv, message", [
    (["fit", "t.txt", "-R", "2,x"],
     "expected a comma list of integers, got '2,x'"),
    (["motifs", "m.txt", "--scales", "1,x"],
     "expected a comma list of integers, got '1,x'"),
    (["fit", "t.txt", "--config", "run.cfg"], "unrecognized arguments"),
    (["fit", "t.txt", "--backend", "em"], "unrecognized arguments"),
    (["simulate", "m.txt", "rates.csv", "--method", "cells"],
     "unrecognized arguments"),
], ids=["rank list", "scales list", "config", "backend", "method"])
def test_parser_rejects_and_writes_nothing(tmp_path, argv, message, capsys):
    # fit always runs fit_block_gs and simulate always superposes draws;
    # the EM fit and the per-cell sampler are test oracles.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_round_trip(self, tmp_path, fitted_model):
        rates = tmp_path / "rates.csv"
        rates.write_text("term,m1,m2\n1,40,20\n2,10,30\n")
        out = tmp_path / "sim.txt"
        code = main([
            "simulate", str(fitted_model), str(rates),
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        t = read_tensor(out)
        assert t.shape[-1] == 2
        assert t.total > 0

    def test_rates_read_like_events(self, tmp_path, fitted_model):
        # Quoted cells, CRLF line ends, a byte-order mark and a trailing
        # blank line: the rates CSV is read by csv, as the events are.
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("term,m1,m2\n1,40,20\n2,10,30\n")
        quoted.write_bytes(b'\xef\xbb\xbf"term","m1",m2\r\n"1","40",20\r\n'
                           b'2,10,"30"\r\n\r\n')
        for rates in (plain, quoted):
            assert main(["simulate", str(fitted_model), str(rates), "--seed",
                         "5", "--out", str(rates.with_suffix(".txt"))]) == 0
        assert (tmp_path / "quoted.txt").read_bytes() == (
            tmp_path / "plain.txt").read_bytes()

    def test_no_replicate_columns_exits_two(
        self, tmp_path, fitted_model, capsys
    ):
        rates = tmp_path / "rates.csv"
        rates.write_text("term\n1\n2\n")
        out = tmp_path / "sim.txt"
        code = main(["simulate", str(fitted_model), str(rates),
                     "--out", str(out)])
        assert code == 2
        assert "replicate column" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_header_rejected(self, tmp_path, fitted_model, capsys):
        rates = tmp_path / "rates.csv"
        rates.write_text("motif,m1,m2\n1,40,20\n")
        code = main([
            "simulate", str(fitted_model), str(rates),
            "--out", str(tmp_path / "sim.txt"),
        ])
        assert code == 2
        assert "term" in capsys.readouterr().err

    def test_row_count_mismatch_rejected(self, tmp_path, fitted_model):
        rates = tmp_path / "rates.csv"
        rates.write_text("term,m1,m2\n1,40,20\n")
        code = main([
            "simulate", str(fitted_model), str(rates),
            "--out", str(tmp_path / "sim.txt"),
        ])
        assert code == 2

    @pytest.mark.parametrize("rows, message", [
        ("2,10,30\n1,40,20", "line 2: expected term 1, found '2'"),
        ("foo,40,20\nbar,10,30", "line 2: expected term 1, found 'foo'"),
        ("1,40,20\n2,x,30",
         "line 3: could not convert string to float: 'x'"),
    ], ids=["out of order", "not numbers", "bad rate"])
    def test_bad_row_names_its_line(
        self, tmp_path, fitted_model, rows, message, capsys
    ):
        rates = tmp_path / "rates.csv"
        rates.write_text(f"term,m1,m2\n{rows}\n")
        out = tmp_path / "sim.txt"
        code = main(["simulate", str(fitted_model), str(rates),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: rates CSV {message}\n"
        assert not out.exists()


def test_every_step_runs_under_an_ascii_locale(tmp_path):
    # Every file is opened as UTF-8: no step may read or write through
    # the locale's encoding, which is ASCII here.
    events = EVENTS.replace("beta", "Côte d’Ivoire")
    (tmp_path / "events.csv").write_text(events, encoding="utf-8")
    (tmp_path / "rates.csv").write_text("term,m1,m2\n1,40,20\n2,10,30\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=str(root / "src"))
    steps = [
        ["encode", "events.csv", "-S", "2", "--out", "t.txt"],
        ["fit", "t.txt", "--terms", "2", "--rank", "1", "--max-outer", "15",
         "--seed", "0", "--report", "r.csv", "--out", "m.txt"],
        ["motifs", "m.txt", "--top", "1", "--out", "motifs"],
        ["dissim", "events.csv", "--scale", "1", "--out", "d.csv"],
        ["scores", "m.txt", "--out", "s.csv"],
        ["simulate", "m.txt", "rates.csv", "--out", "sim.txt"],
    ]
    for argv in steps:
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "mrtensor.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, encoding="utf-8",
            timeout=120,
        )
        assert done.returncode == 0, (argv[0], done.stderr)
    dissim = (tmp_path / "d.csv").read_text(encoding="utf-8")
    assert dissim.startswith("team,alpha,Côte d’Ivoire\n")
