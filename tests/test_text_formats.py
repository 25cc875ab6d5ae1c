"""Fuzzed text for the tensor, model, report and rates readers, the
reading rules they share, round trips through their writers, and the
array writers against per-value ones.

Each reader either returns a value or raises ValueError or OSError,
which the CLI turns into exit code 2; any other exception is a bug.
The texts are valid files with a few random edits, or arbitrary text.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtensor.analysis import write_motif_csv
from mrtensor.cli import _read_rates
from mrtensor.model import CpBtdModel, read_model, write_model
from mrtensor.solver import FitReport, read_report, write_report
from mrtensor.sptensor import SparseCountTensor, read_tensor, write_tensor
from oracles import write_model_per_value, write_motif_csv_per_value

# Pieces that the readers look for or that a number parser trips on.
TOKENS = [
    "\n", "\r", ",", " ", "=", "\t", "0", "-1", "1e400", "nan", "inf",
    "1_0", "9" * 30, "P=", "I=", "H=", "R=", "N=", "phi 1", "omega",
    "upsilon", "term", "\x1c", "é", "\x00", "\ufeff", '"', "modes=",
    "shape=", "nnz=", "mrtensor v1",
]

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def edited(draw, text):
    """``text`` with up to three spans replaced, or arbitrary text."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(max_size=120))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        end = draw(st.integers(at, min(len(text), at + 10)))
        insert = draw(st.one_of(
            st.just(""), st.sampled_from(TOKENS), st.text(max_size=4)))
        text = text[:at] + insert + text[end:]
    return text


def read_text(reader, text):
    """``reader`` on a file holding ``text``; None if it rejects it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        try:
            return reader(path)
        except (ValueError, OSError):
            return None


def written(writer, value):
    """The text ``writer`` produces for ``value``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        writer(value, path)
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()


WEIGHTS = st.one_of(
    st.floats(0.0, 1e300, allow_nan=False), st.sampled_from([0.0, 5e-324]))
# Weights plus every other %.17g spelling: NaN, infinities, signed zero,
# subnormals and a value that needs all 17 digits.
SPELLINGS = st.one_of(WEIGHTS, st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, -5e-324, 1e-310, 0.1]))


@st.composite
def models(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n_rep = draw(st.integers(0, 3))
    total = sum(ranks)

    def array(*shape):
        cells = draw(st.lists(WEIGHTS, min_size=math.prod(shape),
                              max_size=math.prod(shape)))
        return np.array(cells, dtype=np.float64).reshape(shape)

    return CpBtdModel(ranks, [array(i, total) for i in sizes],
                      array(total), array(len(ranks), n_rep))


MODEL_TEXT = written(write_model, CpBtdModel(
    (2, 1), [np.full((2, 3), 0.5), np.full((4, 3), 0.25)],
    np.array([0.5, 0.5, 1.0]), np.array([[3.0, 1.5], [0.0, 2.0]])))
REPORT_TEXT = written(write_report, FitReport(
    [10.5, 4.25, 4.0], [0, 12, 9], [2, 2, 1], 0.1))
RATES_TEXT = "term,n1,n2\n1,3.5,0\n2,1e-3,7\n"
TENSOR_TEXT = written(write_tensor, SparseCountTensor(
    (2, 3, 2), np.array([[0, 0, 0], [0, 2, 1], [1, 1, 0]]),
    np.array([4, 1, 7])))


def rates_of(n_terms):
    """``_read_rates`` for ``n_terms`` terms as a one-argument reader."""
    return lambda path: _read_rates(path, n_terms)


class TestSharedRules:
    """Every reader opens its file as UTF-8 with an optional byte-order
    mark; the tensor header and the model metadata line take each of
    their ``key=value`` words once."""

    @pytest.mark.parametrize("reader, text, dump", [
        (read_tensor, TENSOR_TEXT, lambda t: written(write_tensor, t)),
        (read_model, MODEL_TEXT, lambda m: written(write_model, m)),
        (read_report, REPORT_TEXT, lambda r: written(write_report, r)),
        (rates_of(2), RATES_TEXT, lambda rates: rates.tolist()),
    ], ids=["tensor", "model", "report", "rates"])
    def test_byte_order_mark_is_skipped(self, reader, text, dump):
        assert dump(read_text(reader, "\ufeff" + text)) == dump(
            read_text(reader, text))

    @pytest.mark.parametrize("reader, text, old, message", [
        (read_tensor, TENSOR_TEXT, "modes=3 shape=2,3,2 nnz=3",
         "malformed header"),
        (read_model, MODEL_TEXT, "P=2 I=2,4 H=2 R=2,1 N=2",
         "malformed model metadata line"),
    ], ids=["tensor", "model"])
    @pytest.mark.parametrize("edit", [
        lambda words: words + ["junk=3"],
        lambda words: words + words[-1:],
        lambda words: words[:-1],
        lambda words: words[:-1] + [words[-1] + ".0"],
        lambda words: [words[0] + ",1"] + words[1:],
    ], ids=["unknown key", "repeated key", "missing key",
            "non-integer value", "comma list in a scalar key"])
    def test_each_key_once_with_an_integer_value(
        self, tmp_path, reader, text, old, message, edit
    ):
        path = tmp_path / "f"
        path.write_text(text.replace(old, " ".join(edit(old.split()))),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            reader(path)


class TestTensorText:
    @FUZZ
    @given(edited(TENSOR_TEXT))
    def test_fuzzed_text_is_read_or_rejected(self, text):
        tensor = read_text(read_tensor, text)
        assert tensor is None or isinstance(tensor, SparseCountTensor)


class TestModelText:
    @FUZZ
    @given(edited(MODEL_TEXT))
    def test_fuzzed_text_is_read_or_rejected(self, text):
        model = read_text(read_model, text)
        assert model is None or isinstance(model, CpBtdModel)

    @FUZZ
    @given(models())
    def test_round_trip_exact(self, model):
        back = read_text(read_model, written(write_model, model))
        assert back.ranks == model.ranks
        assert len(back.factors) == len(model.factors)
        for a, b in zip(back.factors, model.factors):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(back.omega, model.omega)
        assert back.upsilon.shape == model.upsilon.shape
        assert np.array_equal(back.upsilon, model.upsilon)

    @FUZZ
    @given(models(), st.data())
    def test_writer_matches_per_value_writer(self, model, data):
        # The writer does not validate, so values no model admits are
        # planted after construction to reach every %.17g spelling.
        for arr in [*model.factors, model.omega, model.upsilon]:
            arr[...] = np.reshape(data.draw(st.lists(
                SPELLINGS, min_size=arr.size, max_size=arr.size)), arr.shape)
        assert written(write_model, model) == written(
            write_model_per_value, model)

    def test_negative_count_rejected(self, tmp_path):
        # Reshaping to the claimed sizes, not to -1, keeps N=-1 with an
        # empty upsilon section from reading as zero replicates.
        head = MODEL_TEXT[: MODEL_TEXT.index("upsilon\n") + len("upsilon\n")]
        path = tmp_path / "m.txt"
        for old, new in (("N=2", "N=-1"), ("I=2,4", "I=-2,4")):
            path.write_text(head.replace(old, new))
            with pytest.raises(ValueError, match="metadata is inconsistent"):
                read_model(path)

    @pytest.mark.parametrize("meta", [
        "P=2 I=2,4 H=2 R=2,1 N=2 junk=3",
        "P=2 I=2,4 H=2 R=2,1 N=2 N=2",
        "P=2 I=2,4 H=2 R=2,1 N=9 N=2",
    ], ids=["unknown key", "repeated key", "overridden key"])
    def test_metadata_needs_the_five_keys_once(self, tmp_path, meta):
        # The same rule read_tensor applies to its header.
        path = tmp_path / "m.txt"
        path.write_text(MODEL_TEXT.replace("P=2 I=2,4 H=2 R=2,1 N=2", meta))
        with pytest.raises(ValueError, match="malformed model metadata"):
            read_model(path)

    def test_empty_mode_reads_as_an_empty_factor(self):
        text = ("cpbtd v1\nP=2 I=0,2 H=1 R=2 N=1\nphi 1\n\n\nphi 2\n"
                "0.5 0.5\n0.5 0.5\nomega\n0.5 0.5\nupsilon\n3\n")
        model = read_text(read_model, text)
        assert model.factors[0].shape == (0, 2)
        assert written(write_model, model) == text

    def test_huge_claimed_counts_cost_nothing_unread(self, tmp_path):
        # 10**30 claimed lines are generated one at a time, so the file
        # runs out of lines long before memory runs out of widths.
        huge, path = "9" * 30, tmp_path / "m.txt"
        for old, new, message in (
            ("N=2", f"N={huge}", "truncated model file inside upsilon"),
            ("R=2,1", f"R=2,{huge}", "could not convert string"),
        ):
            path.write_text(MODEL_TEXT.replace(old, new))
            with pytest.raises(ValueError, match=message):
                read_model(path)


class TestMotifCsv:
    @FUZZ
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_writer_matches_per_value_writer(self, rows, cols, data):
        cells = data.draw(st.lists(st.one_of(SPELLINGS, st.floats()),
                                   min_size=rows * cols,
                                   max_size=rows * cols))
        matrix = np.reshape(np.array(cells, dtype=np.float64), (rows, cols))
        assert written(write_motif_csv, matrix) == written(
            write_motif_csv_per_value, matrix)


class TestReportText:
    @FUZZ
    @given(edited(REPORT_TEXT))
    def test_fuzzed_text_is_read_or_rejected(self, text):
        report = read_text(read_report, text)
        assert report is None or isinstance(report, FitReport)

    @FUZZ
    @given(st.lists(st.tuples(st.floats(allow_nan=False,
                                        allow_infinity=False),
                              st.integers(0, 2**40), st.integers(0, 10**6)),
                    min_size=1, max_size=8))
    def test_round_trip_exact(self, rows):
        objective = [r[0] for r in rows]
        inner = [r[1] for r in rows]
        eff = [r[2] for r in rows]
        report = FitReport(objective, inner, eff, 1.0)
        back = read_text(read_report, written(write_report, report))
        assert np.array_equal(back.objective, objective)
        assert back.inner_iterations == inner
        assert back.effective_terms == eff

    def test_writer_bytes(self):
        report = FitReport([1 / 3, 0.1, 1e-300], [0, 12, 2**40], [2, 2, 1],
                           0.0)
        assert written(write_report, report) == (
            "outer_iter,objective,inner_iters_total,effective_H\n"
            "0,0.33333333333333331,0,2\n"
            "1,0.10000000000000001,12,2\n"
            "2,1e-300,1099511627776,1\n")

    def test_header_without_row_zero_rejected(self):
        header = REPORT_TEXT.splitlines(keepends=True)[0]
        assert read_text(read_report, header) is None

    @pytest.mark.parametrize("row", ["0,nan,0,3", "1,inf,5,-2", "1,2.5,x,3"])
    def test_row_a_fit_never_writes_rejected(self, tmp_path, row):
        # A fit's objective is finite and its counts are nonnegative.
        lines = REPORT_TEXT.splitlines(keepends=True)
        index = int(row.split(",")[0])
        lines[index + 1] = row + "\n"
        path = tmp_path / "r.csv"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"malformed report row {index}$"):
            read_report(path)


class TestRatesText:
    @FUZZ
    @given(edited(RATES_TEXT), st.integers(1, 3))
    def test_fuzzed_text_is_read_or_rejected(self, text, n_terms):
        rates = read_text(rates_of(n_terms), text)
        assert rates is None or (
            rates.ndim == 2 and rates.shape[0] == n_terms
        )
