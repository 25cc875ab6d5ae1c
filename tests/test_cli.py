"""End-to-end command line coverage through main(argv)."""

import numpy as np
import pytest

from mrtensor import solver
from mrtensor.analysis import rank_motifs
from mrtensor.cli import _geometry, build_parser, main, parse_config
from mrtensor.ingest import FieldGeometry
from mrtensor.model import CpBtdModel, read_model, write_model
from mrtensor.solver import read_report
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
         "line 3: malformed row (float() argument must be a string or a "
         "real number, not 'NoneType')"),
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
        assert "backend=block-gs" in out
        assert "stop_reason=" in out
        fitted = read_model(model)
        assert fitted.n_terms == 2
        trace = read_report(report)
        assert len(trace.objective) >= 1

    def test_em_backend(self, tmp_path, events_csv):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        model = tmp_path / "m.txt"
        code = main([
            "fit", str(tensor), "--backend", "em", "--terms", "2",
            "--rank", "1", "--beta", "0", "--max-outer", "10",
            "--out", str(model),
        ])
        assert code == 0

    def test_em_with_shrinkage_fails_cleanly(
        self, tmp_path, events_csv, capsys
    ):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        code = main([
            "fit", str(tensor), "--backend", "em", "--terms", "2",
            "--rank", "1", "--beta", "0.01",
            "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 2
        assert "beta" in capsys.readouterr().err

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
        inner = solver.mm_poisson_regression_group
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("zero intensity at a positive count")
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, "mm_poisson_regression_group", fail_second)
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

    def test_config_file_with_flag_override(self, tmp_path, events_csv):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        config = tmp_path / "run.cfg"
        config.write_text(
            "n_terms = 3\n"
            "rank = 1\n"
            "beta = 0  # plain likelihood\n"
            "\n"
            "max_outer = 5\n"
        )
        model = tmp_path / "m.txt"
        code = main([
            "fit", str(tensor), "--config", str(config),
            "--terms", "2", "--out", str(model),
        ])
        assert code == 0
        assert read_model(model).n_terms == 2

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

    def test_non_finite_beta_in_config_exits_two(
        self, tmp_path, events_csv, capsys
    ):
        tensor = tmp_path / "t.txt"
        main(["encode", str(events_csv), "-S", "1", "--out", str(tensor)])
        config = tmp_path / "run.cfg"
        config.write_text("beta = nan\n")
        code = main(["fit", str(tensor), "--config", str(config),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "beta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon", "--inner-tol"])
    def test_fixed_constants_have_no_flag(self, tmp_path, flag):
        with pytest.raises(SystemExit) as info:
            main(["fit", str(tmp_path / "t.txt"), flag, "1e-3",
                  "--out", str(tmp_path / "m.txt")])
        assert info.value.code == 2


class TestConfigParser:
    def test_parses_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_terms = 4\nrank = 2,1,1,3\nbeta = 1e-2\nseed = 3\n"
        )
        values = parse_config(path)
        assert values["n_terms"] == 4
        assert values["rank"] == (2, 1, 1, 3)
        assert values["beta"] == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("terms = 4\n", "global_observations = 1000\n",
                     "epsilon = 1e-3\n", "inner_tol = 1e-3\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown key"):
                parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_terms 4\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config(path)


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

    def test_cells_method(self, tmp_path, fitted_model):
        rates = tmp_path / "rates.csv"
        rates.write_text("term,m1,m2\n1,40,20\n2,10,30\n")
        out = tmp_path / "sim.txt"
        code = main([
            "simulate", str(fitted_model), str(rates),
            "--method", "cells", "--out", str(out),
        ])
        assert code == 0

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
