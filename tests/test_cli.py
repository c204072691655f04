import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alphafam as af
from alphafam import _codec, cli, compact


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def reference_csv(tmp_path):
    rows = "\n".join(str(x) for x in compact.REFERENCE_SAMPLE) + "\n"
    return write(tmp_path, "ref.csv", rows)


def per_cell_ingest_csv(path: str) -> af.SampleBatch:
    """Reference for ``cli.ingest_csv``: the same rules, applied one cell at a time in row order."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle)]
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.IngestError(cli.EXIT_UNREADABLE, f"cannot read {path}: {exc}") from exc

    rows = [[cell.strip() for cell in row] for row in rows]
    rows = [row for row in rows if any(cell != "" for cell in row)]
    if not rows:
        raise cli.IngestError(cli.EXIT_EMPTY, f"{path} contains no data rows")

    def parse_row(row):
        return [float(cell) for cell in row]

    start = 0
    try:
        parse_row(rows[0])
    except ValueError:
        start = 1
    if start == len(rows):
        raise cli.IngestError(cli.EXIT_EMPTY, f"{path} contains a header but no data rows")

    width = len(rows[start])
    data = []
    for idx, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise cli.IngestError(cli.EXIT_RAGGED, f"{path}: row {idx} has {len(row)} cells, expected {width}")
        try:
            values = parse_row(row)
        except ValueError as exc:
            raise cli.IngestError(cli.EXIT_NON_NUMERIC, f"{path}: row {idx}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise cli.IngestError(cli.EXIT_NON_NUMERIC, f"{path}: row {idx} has a non-finite value")
        data.append(values)
    return af.SampleBatch(np.asarray(data, dtype=float))


def parse_outcome(parser, path):
    try:
        data = parser(path).data
    except cli.IngestError as exc:
        return ("error", exc.exit_code, str(exc))
    return ("ok", data.shape, data.tobytes())


_ASCII_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_ASCII_NUMBERS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: "%.17g" % v),
    _FLOATS.map(lambda v: "%.16g" % v),
    _FLOATS.map(lambda v: "%.3e" % v),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "-0", "-0.0", "+.5", "1.", "-.0e-5", "1e308", "1e309", "4.9e-324"]),
)
_NUMBERS = st.one_of(_ASCII_NUMBERS, st.sampled_from(["\uff11\uff12", "\u0663.5"]))
_ASCII_OTHERS = ["x", "1,5", "1__0", "_1", "", "1.2.3", "0x10", "1e", "."]
_NON_FINITE = ["nan", "-inf", "Infinity", "+NaN", "1e309", "-1e400"]
_ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    """CSV texts across the three ingest paths: ASCII or not, plain, quoted or not, clean or noisy, any line ends.

    A plain text has no spaces, quotes or leading blank rows, as the plain
    decimal reader takes them.
    """
    ascii_only = draw(st.sampled_from([True, True, False]))
    plain, noisy = draw(st.booleans()), draw(st.booleans())
    quoted = not plain and draw(st.booleans())
    width = draw(st.integers(1, 3))
    spaces = st.sampled_from(_ASCII_SPACES if ascii_only else _ASCII_SPACES + ["\xa0", "\u2003"])
    if plain:
        spaces = st.just("")
    numbers = _ASCII_NUMBERS if ascii_only else _NUMBERS
    others = st.sampled_from(_ASCII_OTHERS if ascii_only else _ASCII_OTHERS + ["\ufeff1"])
    cell = st.tuples(spaces, st.one_of(numbers, numbers, numbers, others) if noisy else numbers, spaces)
    blanks = st.sampled_from(["", " ", "\t", ",", " , ", ",,", '""'] if quoted else ["", " ", "\t", ",", " , ", ",,"])

    def render(text):
        if not quoted:
            return text
        quote = draw(st.booleans()) or "," in text
        return '"' + text.replace('"', '""') + '"' if quote else text

    lines = [draw(blanks) for _ in range(draw(st.integers(0, 0 if plain else 2)))]
    if draw(st.booleans()):
        lines.append(",".join(render(h) for h in draw(st.lists(st.sampled_from(["x", "y", " z "]), min_size=1, max_size=3))))
    # A clean file has at most one bad cell, a non-finite one; a noisy file
    # may also have blank and ragged rows and any cell.
    kinds = ["row", "row", "row", "row"] + (["non-finite", "blank", "ragged"] if noisy else [])
    rows = [draw(st.sampled_from(kinds)) for _ in range(draw(st.integers(0, 6)))]
    if rows and not noisy and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = "non-finite"
    for kind in rows:
        if kind == "blank":
            lines.append(draw(blanks))
            continue
        n_cells = width if kind != "ragged" else draw(st.integers(1, 4))
        cells = ["".join(draw(cell)) for _ in range(n_cells)]
        if kind == "non-finite":
            cells[draw(st.integers(0, n_cells - 1))] = draw(st.sampled_from(_NON_FINITE))
        lines.append(",".join(render(c) for c in cells))
    ending = draw(st.sampled_from(_ENDINGS + ["\n", "mixed"]))
    ends = [draw(st.sampled_from(_ENDINGS)) if ending == "mixed" else ending for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: len(text) - len(ends[-1])] if ends and draw(st.booleans()) else text


class TestIngest:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_matches_the_per_cell_parser(self, tmp_path, text):
        path = tmp_path / "gen.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(cli.ingest_csv, str(path)) == parse_outcome(per_cell_ingest_csv, str(path))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cells=st.data(), width=st.integers(1, 3), empty=st.sampled_from(["-", ".", "-.", ""]))
    def test_a_digitless_cell_anywhere_reads_as_float_reads_it(self, tmp_path, cells, width, empty):
        # Plain cells, and in half the files "+"-signed and exponent cells too: blocks with and without "e", "E"
        # and "+" are read.
        kinds = [st.one_of(st.integers(-10**17, 10**17).map(str), st.floats(-1e6, 1e6).map(lambda v: "%.9f" % v))]
        if cells.draw(st.booleans()):
            kinds += [_FLOATS.map(lambda v: "%+.3e" % v), st.floats(0.0, 1e6).map(lambda v: "+%r" % v)]
        rows = cells.draw(st.lists(st.lists(st.one_of(kinds), min_size=width, max_size=width), min_size=1, max_size=8))
        row, column = cells.draw(st.integers(0, len(rows) - 1)), cells.draw(st.integers(0, width - 1))
        rows[row][column] = empty
        raw = "".join(",".join(r) + "\n" for r in rows).encode("ascii")
        path = tmp_path / "digitless.csv"
        path.write_bytes(raw)
        want = parse_outcome(per_cell_ingest_csv, str(path))
        assert parse_outcome(cli.ingest_csv, str(path)) == want
        values = _codec.parse_rows(raw)
        assert values is None or ("ok", values.shape, values.tobytes()) == want

    def test_unquoted_ascii_file_skips_the_csv_module(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called for an unquoted ASCII file")

        monkeypatch.setattr(csv, "reader", refuse)
        path = write(tmp_path, "u.csv", "\n , \t\nx,y\r\n1,2\r\n\r\n 3.5 ,\t-4e-3\r\n")
        assert cli.ingest_csv(path).data.tolist() == [[1.0, 2.0], [3.5, -0.004]]

    def test_plain_decimal_file_skips_the_csv_module(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called for a plain decimal file")

        monkeypatch.setattr(csv, "reader", refuse)
        draws = np.random.default_rng(2).standard_t(3, size=(500, 2)) * [1.0, 1e-3]
        draws[:3] = [[-0.0, 1e-7], [2.0**60, -5e-324], [0.1, -1e16]]
        text = "x,y\r\n" + "".join("%.17g,%.17g\r\n" % tuple(row) for row in draws.tolist())
        path = tmp_path / "draws.csv"
        path.write_bytes(text.encode("ascii"))
        batch = cli.ingest_csv(str(path))
        assert batch.data.tobytes() == draws.tobytes()
        assert batch.sha256 == hashlib.sha256(text.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("text", ["x, y\n1 ,\t2\n\x0c3.5\x1f, 4 \n", "x,y\n+1,+2\n+3.5,4\n",
                                      " , \n\t\n\nx,y\n1,2\n3.5,4\n", "x,y\n\n1,2\n\n\n3.5,4\n\n"],
                             ids=["spaced", "plus", "leading-blank", "interior-blank"])
    def test_spaced_signed_and_blank_row_files_skip_the_csv_module(self, tmp_path, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called for an unquoted decimal file")

        monkeypatch.setattr(csv, "reader", refuse)
        path = write(tmp_path, "s.csv", text)
        assert cli.ingest_csv(path).data.tolist() == [[1.0, 2.0], [3.5, 4.0]]

    @pytest.mark.parametrize("text", ['"x","y"\n"1",2\n"3.5"," 4"\n', "x,y\n1,2\n3.5,\xa04\n", "x,y\r1,2\r3.5,4\r"],
                             ids=["quoted", "non-ascii", "lone-cr"])
    def test_other_files_parse_through_the_csv_module(self, tmp_path, monkeypatch, text):
        reader, calls = csv.reader, []
        monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
        path = write(tmp_path, "q.csv", text)
        assert cli.ingest_csv(path).data.tolist() == [[1.0, 2.0], [3.5, 4.0]]
        assert len(calls) == 1

    @pytest.mark.parametrize("raw", [b'x,y\n"1,2\n' + b"3,4\n" * 40000, b"1" * 200000 + b"\n", b"1\n2\x003\n"],
                             ids=["stray-quote", "long-cell", "nul-byte"])
    def test_text_the_csv_module_cannot_split_exits_12_with_one_line(self, tmp_path, capsys, raw):
        path = tmp_path / "c.csv"
        path.write_bytes(raw)
        assert cli.main(["estimate", "--alpha", "0.5", "--input", str(path)]) == cli.EXIT_NON_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\r\n"], ids=["header-only", "blank-body"])
    def test_empty_body_exits_13_without_a_warning(self, tmp_path, capsys, text):
        path = write(tmp_path, "hb.csv", text)
        assert cli.main(["estimate", "--alpha", "0.5", "--input", path]) == cli.EXIT_EMPTY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} contains a header but no data rows\n"

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, capsys):
        path = write(tmp_path, "bom.csv", "\ufeff1.5\n2.5\n3.5\n")
        batch = cli.ingest_csv(path)
        assert batch.n == 3 and batch.scalars().tolist() == [1.5, 2.5, 3.5]
        assert cli.main(["estimate", "--alpha", "0.5", "--input", path]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 3 and report["mu_hat"] == [2.5]
        assert cli.ingest_csv(write(tmp_path, "bomh.csv", "\ufeffx,y\n1,2\n")).data.tolist() == [[1.0, 2.0]]

    def test_error_names_the_first_bad_row(self, tmp_path):
        path = write(tmp_path, "bad.csv", "x\n1\n\n2\n oops \n3\n")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_NON_NUMERIC
        assert str(err.value) == f"{path}: row 4: could not convert string to float: 'oops'"

    def test_one_column_reference_file(self, tmp_path):
        batch = cli.ingest_csv(reference_csv(tmp_path))
        assert batch.n == 10 and batch.dim == 1
        assert batch.scalars().mean() == pytest.approx(7.45, abs=1e-14)

    def test_header_autodetected(self, tmp_path):
        path = write(tmp_path, "h.csv", "x,y\n1,2\n3,4\n")
        batch = cli.ingest_csv(path)
        assert batch.n == 2 and batch.dim == 2

    def test_numeric_first_row_is_data(self, tmp_path):
        path = write(tmp_path, "d.csv", "1,2\n3,4\n")
        assert cli.ingest_csv(path).n == 2

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "e.csv", "")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_EMPTY

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "ho.csv", "x,y\n")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_EMPTY

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "r.csv", "1,2\n3\n")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_RAGGED

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "n.csv", "x\n1\noops\n")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_NON_NUMERIC

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "nf.csv", "1\nnan\n")
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(path)
        assert err.value.exit_code == cli.EXIT_NON_NUMERIC

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(cli.IngestError) as err:
            cli.ingest_csv(str(tmp_path / "missing.csv"))
        assert err.value.exit_code == cli.EXIT_UNREADABLE

    @pytest.mark.parametrize("raw", [b"x,y\n1,2\n3,\xff4\n", b"x,\xffy\n1,2\n3,4\n"], ids=["data-row", "header-row"])
    def test_text_that_is_not_utf8_exits_10_with_one_line(self, tmp_path, capsys, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        assert cli.main(["estimate", "--alpha", "0.5", "--input", str(path)]) == cli.EXIT_UNREADABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ") and captured.err.count("\n") == 1


class TestCommands:
    def test_estimate_reference_sample(self, tmp_path, capsys):
        code = cli.main(["estimate", "--alpha", "0.5", "--input", reference_csv(tmp_path)])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mu_hat"] == [7.45]
        assert report["singular_flag"] is False
        assert report["residual_norm"] <= 1e-8
        assert report["schema_version"] == "3"
        assert report["provenance"]["library_version"] == af.__version__

    def test_estimate_constant_column_singular(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", "2.0\n2.0\n2.0\n")
        code = cli.main(["estimate", "--alpha", "0.5", "--input", path])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["singular_flag"] is True
        assert report["sigma_hat"] == [[0.0]]
        assert report["residual_norm"] is None

    def test_estimate_whose_normalizer_overflows_is_singular(self, tmp_path, capsys):
        # Full rank, but Sigma's determinant, about 1e-720, puts N past the float range.
        draws = np.random.default_rng(5).standard_normal((20, 3)) * 1e-120
        path = write(tmp_path, "tiny.csv", "".join(",".join(f"{v!r}" for v in row) + "\n" for row in draws.tolist()))
        assert cli.main(["estimate", "--alpha", "0.9", "--input", path]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["singular_flag"] is True
        assert report["residual_norm"] is None

    def test_estimate_builds_its_fitted_record_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(*args, real=af.core.make_student_t):
            calls.append(args)
            return real(*args)

        for module in (af.estimators, cli):
            monkeypatch.setattr(module, "make_student_t", counted)
        assert cli.main(["estimate", "--alpha", "0.5", "--input", reference_csv(tmp_path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["residual_norm"] <= 1e-8
        assert len(calls) == 1

    def test_estimate_rejects_bad_alpha(self, tmp_path):
        assert cli.main(["estimate", "--alpha", "1.5", "--input", reference_csv(tmp_path)]) == cli.EXIT_INVALID_CONFIG
        assert cli.main(["estimate", "--alpha", "0.2", "--input", reference_csv(tmp_path)]) == cli.EXIT_INVALID_CONFIG

    def test_piped_input_is_read_once_and_hashed(self, tmp_path):
        # A pipe yields its bytes once; a command that read it twice would hash nothing, or wait for a writer.
        path = reference_csv(tmp_path)
        data = Path(path).read_bytes()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        reports = [
            subprocess.run([sys.executable, "-m", "alphafam.cli", "estimate", "--alpha", "0.5", "--input", str(source)],
                           env=env, capture_output=True, check=True, timeout=60).stdout
            for source in (fifo, path)
        ]
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert json.loads(reports[0])["provenance"]["input_sha256"] == hashlib.sha256(data).hexdigest()
        assert reports[0] == reports[1]

    def test_compact_fit_reference_sample(self, tmp_path, capsys):
        code = cli.main(["compact-fit", "--input", reference_csv(tmp_path)])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["mu_hat"] - 8.46) <= 0.01
        assert abs(report["objective_over_n2"] - 6.42) <= 0.05
        candidates = report["candidates"]
        assert sorted(candidates) == ["active_start", "active_stop", "hi", "lo", "maximizer", "objective_over_n2",
                                      "unconstrained_max"]
        assert {len(column) for column in candidates.values()} == {19}
        assert report["sample_mean"] == pytest.approx(7.45)

    def test_compact_fit_reports_half_open_active_ranges(self, tmp_path):
        # clustered n = 2000: every active set holds most of the sample, so a
        # report that listed indices would be O(n^2)
        rng = np.random.default_rng(3)
        xs = 1.5 + compact.ROOT5 * (2.0 * rng.beta(2.0, 2.0, size=2000) - 1.0)
        path = write(tmp_path, "clustered.csv", "".join(f"{x!r}\n" for x in xs.tolist()))
        out = str(tmp_path / "fit.json")
        assert cli.main(["compact-fit", "--input", path, "--output", out]) == cli.EXIT_OK
        raw = Path(out).read_bytes()
        assert b'"schema_version":"3"' in raw
        report = json.loads(raw)
        ordered = np.sort(xs)
        candidates = report["candidates"]
        count = len(candidates["lo"])
        assert count == 3999 and {len(column) for column in candidates.values()} == {count}
        for i in range(count):  # row i is entry i of every column
            mid = 0.5 * (candidates["lo"][i] + candidates["hi"][i])
            members = np.flatnonzero(np.abs(ordered - mid) <= compact.ROOT5 + 1e-12 * (1.0 + abs(mid)))
            assert [candidates["active_start"][i], candidates["active_stop"][i]] == [int(members[0]), int(members[-1]) + 1]
            assert members.size == members[-1] + 1 - members[0]
        assert len(raw) < 120 * count

    def test_divergence_command(self, capsys):
        code = cli.main(["divergence", "--alpha", "0.999", "--p", "normal:0,1", "--q", "normal:0.5,1"])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kl"] == pytest.approx(0.125, abs=1e-6)
        assert abs(report["i_alpha"] - report["kl"]) <= 5e-3

    def test_divergent_power_integral_prints_infinity(self, capsys):
        # Int q^0.15 diverges for the order-0.6 t: its tails fall like |x|^-0.75.
        argv = ["divergence", "--alpha", "0.15", "--p", "normal:0,1", "--q", "t:0.6,0,1"]
        assert cli.main(argv) == cli.EXIT_OK
        assert '"i_alpha":Infinity' in capsys.readouterr().out

    def test_narrow_p_in_a_wide_compact_q_is_finite(self, capsys):
        argv = ["divergence", "--alpha", "3", "--p", "normal:500,1", "--q", "t:2,0,1e6"]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["i_alpha"] == pytest.approx(6.583150919397308, rel=1e-9)

    def test_loglik_rejects_sigma_whose_inverse_overflows(self, tmp_path, capsys):
        path = write(tmp_path, "two.csv", "0,0\n1,1\n")
        argv = ["loglik", "--alpha", "0.8", "--mu", "0,0", "--sigma", "1e-308,3e-309;3e-309,5e-309", "--input", path]
        assert cli.main(argv) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma is too small" in captured.err

    def test_loglik_rejects_a_ragged_sigma(self, tmp_path, capsys):
        path = write(tmp_path, "two.csv", "0,0\n1,1\n")
        argv = ["loglik", "--alpha", "0.8", "--mu", "0,0", "--sigma", "1,0;0", "--input", path]
        assert cli.main(argv) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid configuration: matrix rows have unequal lengths\n"

    @pytest.mark.parametrize("text, sigma, message", [
        ("0\n1\n", "1,0;0,1", "batch dimension must match the model"),
        ("0,0\n1,1\n", "1", "sigma must be 2x2, got (1, 1)"),
    ], ids=["one-column-batch", "1x1-sigma"])
    def test_loglik_rejects_a_model_of_another_dimension(self, tmp_path, capsys, text, sigma, message):
        path = write(tmp_path, "data.csv", text)
        argv = ["loglik", "--alpha", "0.8", "--mu", "0,0", "--sigma", sigma, "--input", path]
        assert cli.main(argv) == cli.EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", f"invalid configuration: {message}\n")

    def test_divergence_bad_spec(self):
        assert cli.main(["divergence", "--alpha", "2", "--p", "cauchy:0", "--q", "normal:0,1"]) == cli.EXIT_INVALID_CONFIG

    def test_loglik_command(self, tmp_path, capsys):
        code = cli.main([
            "loglik", "--alpha", "2", "--mu", "8.46", "--sigma", "1",
            "--input", reference_csv(tmp_path),
        ])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        ell = sum(max(0.0, 1.0 - (x - 8.46) ** 2 / 5.0) for x in compact.REFERENCE_SAMPLE)
        expected = 2.0 * math.log(compact.N2 * ell / 10.0) - math.log(4.0 * compact.N2 / 5.0)
        assert report["value"] == pytest.approx(expected, rel=1e-12)

    def test_loglik_of_a_far_outlier_is_finite(self, tmp_path, capsys):
        path = write(tmp_path, "far.csv", "0\n1e160\n0.5\n")
        assert cli.main(["loglik", "--alpha", "0.8", "--mu", "0", "--sigma", "1", "--input", path]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(-2936.085363432056973, rel=1e-15)

    def test_loglik_of_a_far_and_a_tiny_row(self, tmp_path, capsys):
        # mpmath at 50 digits from the same float inputs gives -5516.6025280178215132.
        # CI's no-scipy step asserts the same bits.
        path = write(tmp_path, "far_tiny.csv", "1e300\n1e-200\n")
        assert cli.main(["loglik", "--alpha", "0.8", "--mu", "0", "--sigma", "1", "--input", path]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] == -5516.602528017821

    # A 1-column file of +-1e154 used to print sigma_hat as a bare Infinity, which is not JSON.
    @pytest.mark.parametrize("text", ["0.1,0.2\n1e200,-1e200\n3,4\n", "1e154\n-1e154\n1e154\n-1e154\n"])
    def test_estimate_of_a_covariance_past_the_float_range_exits_2_without_a_warning(self, tmp_path, text):
        path = write(tmp_path, "over.csv", text)
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "alphafam.cli", "estimate",
                               "--alpha", "0.8", "--input", path], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_INVALID_CONFIG, "")
        assert proc.stderr == "invalid configuration: sigma must be finite\n"

    def test_simulate_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "draws.csv")
        code = cli.main([
            "simulate", "--alpha", "0.5", "--mu", "0", "--sigma", "1",
            "--n", "5000", "--seed", "7", "--output", out,
        ])
        assert code == cli.EXIT_OK
        batch = cli.ingest_csv(out)
        assert batch.n == 5000
        from alphafam import studentt

        params = af.make_student_t(0.5, [0.0], [[1.0]])
        direct = studentt.sample(params, 5000, 7).scalars()
        # lossless to text precision (17 significant digits round-trips float64)
        assert np.array_equal(batch.scalars(), direct)
        code = cli.main(["estimate", "--alpha", "0.5", "--input", out])
        assert code == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        se = math.sqrt(report["sigma_hat"][0][0] / report["n"])
        assert abs(report["mu_hat"][0] - 0.0) <= 3.0 * se

    def test_simulate_compact_member_in_two_dimensions(self, tmp_path):
        out = str(tmp_path / "draws.csv")
        argv = ["simulate", "--alpha", "3", "--mu", "0,0", "--sigma", "1,0.3;0.3,2", "--n", "500"]
        assert cli.main(argv + ["--output", out]) == cli.EXIT_OK
        draws = cli.ingest_csv(out).data
        params = af.make_student_t(3.0, [0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
        assert draws.shape == (500, 2)
        radius_sq = np.einsum("ni,ij,nj->n", draws, params.sigma_inv, draws)
        assert np.all(radius_sq <= params.radius_sq)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--alpha", "nan", "--input", "CONST"],
        ["loglik", "--alpha", "inf", "--mu", "0", "--sigma", "1", "--input", "CONST"],
        ["divergence", "--alpha", "inf", "--p", "normal:0,1", "--q", "normal:0,2"],
        ["simulate", "--alpha", "inf", "--mu", "0", "--sigma", "1", "--n", "3"],
    ], ids=["estimate-nan", "loglik-inf", "divergence-inf", "simulate-inf"])
    def test_non_finite_alpha_is_invalid_config(self, tmp_path, capsys, argv):
        data = write(tmp_path, "c.csv", "2.0\n2.0\n2.0\n")
        code = cli.main([data if arg == "CONST" else arg for arg in argv])
        assert code == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha must be finite" in captured.err

    def test_simulate_validates_n(self, capsys):
        assert cli.main(["simulate", "--alpha", "0.5", "--mu", "0", "--sigma", "1"]) == cli.EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: alphafam simulate" in captured.err
        assert "the following arguments are required: --n" in captured.err


# command -> (its flags, True where required; a valid call, DATA standing for
# a CSV; edge values it must accept, with output and without a warning;
# calls that must now exit 2: flags the command no longer takes, and values
# it rejects)
SURFACE = {
    "estimate": (
        {"--alpha": True, "--input": True, "--output": False, "--seed": False},
        ["--alpha", "0.5", "--input", "DATA"],
        [],
        [["--format", "json"], ["--format", "csv"], ["--quad-tol", "1e-3"], ["--seed", "-1"]],
    ),
    "compact-fit": (
        {"--input": True, "--output": False, "--seed": False},
        ["--input", "DATA"],
        [],
        [["--alpha", "2"], ["--alpha", "3"], ["--format", "json"], ["--quad-tol", "1e-3"]],
    ),
    "divergence": (
        {"--alpha": True, "--p": True, "--q": True, "--output": False},
        ["--alpha", "1.5", "--p", "normal:0,1", "--q", "normal:0.5,2"],
        [["--p", "normal:0,1e-20"], ["--p", "normal:0,1e300"]],
        [["--input", "/nonexistent"], ["--seed", "9"], ["--format", "json"], ["--quad-tol", "1e-9"],
         ["--p", "t:0.8,nan,1"],
         ["--p", "normal:0,inf"], ["--p", "normal:inf,1"], ["--p", "normal:nan,1"], ["--p", "t:0.8,0,1e-309"]],
    ),
    "loglik": (
        {"--alpha": True, "--mu": True, "--sigma": True, "--input": True, "--output": False, "--seed": False},
        ["--alpha", "2", "--mu", "8.46", "--sigma", "1", "--input", "DATA"],
        [["--sigma", "1e308"], ["--sigma", "1e-308"]],
        [["--quad-tol", "1e-3"], ["--format", "json"], ["--mu", "nan"], ["--mu", "inf"], ["--sigma", "nan"],
         ["--sigma", "1e-309"]],
    ),
    "simulate": (
        {"--alpha": True, "--mu": True, "--sigma": True, "--n": True, "--seed": False, "--output": False,
         "--format": False},
        ["--alpha", "0.5", "--mu", "0", "--sigma", "1", "--n", "3"],
        [],
        [["--input", "/nonexistent"], ["--quad-tol", "5"], ["--n", "0"], ["--format", "xml"]],
    ),
    "verify-paper-example": (
        {},
        [],
        [],
        [["--output", "OUT"], ["--alpha", "2"], ["--input", "DATA"], ["--seed", "1"], ["--format", "json"],
         ["--quad-tol", "1e-3"]],
    ),
}


class TestSurface:
    @pytest.mark.filterwarnings("error")
    def test_each_command_takes_only_the_flags_it_reads(self, tmp_path, capsys):
        parser = cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(SURFACE)
        assert sum(len(flags) for flags, _, _, _ in SURFACE.values()) == 24
        data, out = reference_csv(tmp_path), tmp_path / "out"
        for command, (flags, valid, accepted, rejected) in SURFACE.items():
            declared = {a.option_strings[0]: a.required for a in commands.choices[command]._actions
                        if a.option_strings != ["-h", "--help"]}
            assert declared == flags, command
            argv = [command] + [data if arg == "DATA" else arg for arg in valid]
            for extra in [[]] + accepted:
                assert cli.main(argv + extra) == cli.EXIT_OK, (command, extra)
                assert capsys.readouterr().out != "", (command, extra)
            for extra in rejected:
                extra = [{"DATA": data, "OUT": str(out)}.get(arg, arg) for arg in extra]
                assert cli.main(argv + extra) == cli.EXIT_INVALID_CONFIG, (command, extra)
                assert capsys.readouterr().out == "", (command, extra)
                assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        path = reference_csv(tmp_path)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (out1, out2):
            assert cli.main(["compact-fit", "--input", path, "--output", out]) == cli.EXIT_OK
        a = Path(out1).read_bytes()
        assert a == Path(out2).read_bytes()
        assert b'"schema_version":"3"' in a

    def test_byte_identical_draws(self, tmp_path):
        args = ["simulate", "--alpha", "0.7", "--mu", "1", "--sigma", "2", "--n", "100", "--seed", "3"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(args + ["--output", out1]) == cli.EXIT_OK
        assert cli.main(args + ["--output", out2]) == cli.EXIT_OK
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    @pytest.mark.parametrize("alpha,mu,sigma", [(0.7, "1,-2", "2,0.6;0.6,1"), (2.0, "0.5", "3")])
    def test_draws_match_per_value_formatting(self, tmp_path, alpha, mu, sigma):
        out = tmp_path / "draws.csv"
        args = ["simulate", "--alpha", str(alpha), "--mu", mu, "--sigma", sigma, "--n", "300", "--seed", "4"]
        assert cli.main(args + ["--output", str(out)]) == cli.EXIT_OK
        params = af.make_student_t(alpha, cli._parse_vector(mu), cli._parse_matrix(sigma))
        draws = af.sample(params, 300, 4).data
        want = "".join(",".join(cli._format_float(v) for v in row) + "\n" for row in draws)
        assert out.read_text(encoding="utf-8") == want

    def test_json_draws_are_the_csv_cells(self, tmp_path):
        # The draws' text in the JSON report, split at its brackets and commas, is the CSV file's cells.
        args = ["simulate", "--alpha", "0.8", "--mu", "0,1", "--sigma", "1,0.3;0.3,2", "--n", "2000", "--seed", "3"]
        csv_out, json_out = tmp_path / "draws.csv", tmp_path / "draws.json"
        assert cli.main(args + ["--output", str(csv_out)]) == cli.EXIT_OK
        assert cli.main(args + ["--format", "json", "--output", str(json_out)]) == cli.EXIT_OK
        raw = json_out.read_text(encoding="utf-8")
        body = raw[raw.index('"draws":[[') + 10:raw.index("]]")]
        cells = [row.split(",") for row in csv_out.read_text(encoding="utf-8").splitlines()]
        assert [row.split(",") for row in body.split("],[")] == cells and len(cells) == 2000
        report = json.loads(raw)
        assert (report["command"], report["seed"], report["alpha"]) == ("simulate", 3, 0.8)

    def test_keys_sorted_and_17_digits(self, tmp_path, capsys):
        assert cli.main(["divergence", "--alpha", "2", "--p", "bernoulli:0.3", "--q", "bernoulli:0.5"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        keys = [seg.split('"')[1] for seg in text.split(",") if seg.lstrip("{").startswith('"')]
        assert keys == sorted(keys)
        assert "0.14842000511827314" in text  # log(1.16) at 17 significant digits

    def test_negative_infinity(self):
        assert cli.dumps_report({"v": float("-inf")}) == '{"v":-Infinity}\n'

    @pytest.mark.parametrize("column", [
        np.array([0.1, -0.0, 1e-310, -1.7976931348623157e308, 2.0**53 + 2.0]),
        np.array([3, -1, 0, 2**62], dtype=np.int64),
        np.array([7, 0], dtype=np.uint8),
        np.array([1.5, math.inf, math.nan]),
        np.array([], dtype=float),
        np.array([True, False]),
        np.array([[0.1, -0.0, 1e-310], [-1.7976931348623157e308, 2.0**53 + 2.0, 3e-7]]),
        np.array([[-2.5]]),
        np.array([[3, -1], [0, 2**62]], dtype=np.int64),
        np.array([[1.5, math.inf], [math.nan, 0.0]]),
        np.empty((0, 2)),
        np.arange(12.0).reshape(2, 3, 2) / 7.0,
    ], ids=["floats", "int64", "uint8", "non-finite", "empty", "bool", "float-matrix", "1x1", "int-matrix",
            "non-finite-matrix", "empty-matrix", "3-d"])
    def test_numpy_columns_render_as_their_lists(self, column):
        assert cli.dumps_report({"c": column}) == cli.dumps_report({"c": column.tolist()})


class TestVerifyCommand:
    def test_passes_on_correct_build(self, capsys):
        assert cli.main(["verify-paper-example"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")
        assert "maximizer" in out

    def test_negative_control_support_width(self, monkeypatch):
        monkeypatch.setattr(compact, "ROOT5", 2.2)
        buf = io.StringIO()
        assert cli.verify_reference_example(out=buf) == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in buf.getvalue()

    def test_verify_checks_tables_not_just_argmax(self, monkeypatch):
        # a support-width bug can leave mu_hat and the max objective inside
        # tolerance; the table checks must still catch it
        monkeypatch.setattr(compact, "ROOT5", 2.2)
        result = compact.maximize_l2(np.array(compact.REFERENCE_SAMPLE))
        assert abs(result.mu_hat - 8.46) <= 0.01
        assert abs(result.objective_over_n2 - 6.42) <= 0.05


# The mixed-order cross terms that diverge: p's tail outweighs q^(alpha-1).
_DIVERGENT_CROSS_TERMS = [
    ["divergence", "--alpha", "0.6", "--p", "t:0.6,0,1", "--q", "t:0.95,0.5,2"],
    ["divergence", "--alpha", "0.6", "--p", "t:0.8,0,1", "--q", "t:0.95,0.5,2"],
    ["divergence", "--alpha", "0.8", "--p", "t:0.6,0,1", "--q", "t:0.95,0.5,2"],
]


class TestScipyOffTheColdPath:
    """No command imports scipy, which is only the tests' oracle.

    Every command runs with a ``scipy`` package first on the path whose
    import raises, so loading any part of it fails the command.  Nor may any
    command import ``numpy.ma``, which numpy loads lazily from helpers such
    as ``np.median`` and ``np.unique``.
    """

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    PROBE = (
        "import sys\n"
        "import alphafam.cli as cli\n"
        "argv = sys.argv[1:]\n"
        "code = cli.main(argv) if argv else 0\n"
        "roots = ('scipy', 'numpy.ma')\n"
        "loaded = sorted(m for m in sys.modules if any(m == r or m.startswith(r + '.') for r in roots))\n"
        "sys.stderr.write('LOADED ' + ' '.join(loaded) + '\\n')\n"
        "sys.exit(code)\n"
    )

    def loaded_modules(self, tmp_path, argv):
        stub = tmp_path / "no_scipy" / "scipy"
        stub.mkdir(parents=True, exist_ok=True)
        (stub / "__init__.py").write_text("raise ImportError('scipy is not a runtime dependency')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub.parent), self.SRC]))
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], env=env, cwd=str(tmp_path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        line = [ln for ln in proc.stderr.splitlines() if ln.startswith("LOADED")][-1]
        return line.split()[1:]

    @pytest.mark.parametrize("command", ["import", "estimate", "simulate", "loglik", "compact-fit",
                                         "verify-paper-example", "divergence-normal-normal",
                                         "divergence-t-normal", "divergence-kl-integrates",
                                         "divergence-cross-integrates", "divergence-mixed-0",
                                         "divergence-mixed-1", "divergence-mixed-2"])
    def test_command_never_imports_scipy(self, tmp_path, command):
        data = reference_csv(tmp_path)
        argv = {
            "import": [],
            "estimate": ["estimate", "--alpha", "0.5", "--input", data],
            "simulate": ["simulate", "--alpha", "0.7", "--mu", "0,1", "--sigma", "1,0;0,1", "--n", "50",
                         "--output", str(tmp_path / "d.csv")],
            "loglik": ["loglik", "--alpha", "0.7", "--mu", "7", "--sigma", "2", "--input", data],
            "compact-fit": ["compact-fit", "--input", data],
            "verify-paper-example": ["verify-paper-example"],
            "divergence-normal-normal": ["divergence", "--alpha", "0.999", "--p", "normal:0,1",
                                         "--q", "normal:0.5,1"],
            "divergence-t-normal": ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "normal:0.5,1"],
            "divergence-kl-integrates": ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"],
            "divergence-cross-integrates": ["divergence", "--alpha", "2", "--p", "t:2,0,1", "--q", "t:2,0.5,1"],
            **{f"divergence-mixed-{i}": argv for i, argv in enumerate(_DIVERGENT_CROSS_TERMS)},
        }[command]
        assert self.loaded_modules(tmp_path, argv) == []

    def test_compact_fit_of_1e5_points_takes_under_a_minute_and_writes_a_columnar_report_under_25_mb(
            self, tmp_path):
        np.savetxt(tmp_path / "big.csv", np.random.default_rng(0).uniform(0.0, 1e5, size=100000), fmt="%.17g")
        started = time.monotonic()
        assert self.loaded_modules(tmp_path, ["compact-fit", "--input", "big.csv", "--output", "big.json"]) == []
        assert time.monotonic() - started < 60
        assert (tmp_path / "big.json").stat().st_size < 25_000_000
        report = json.loads((tmp_path / "big.json").read_text())
        assert report["objective_over_n2"] > 0
        columns = report["candidates"]
        assert len(columns) == 7 and len({len(v) for v in columns.values()}) == 1

    def test_estimate_mu_hat_is_the_mean_of_the_json_draws(self, tmp_path):
        # The no-scipy CI step's check, on 2000 draws: both commands read and write the same bits.
        model = ["--alpha", "0.8", "--mu", "0,1", "--sigma", "1,0.3;0.3,2", "--n", "2000", "--seed", "3"]
        for argv in (["simulate", *model, "--output", "draws.csv"],
                     ["simulate", *model, "--format", "json", "--output", "draws.json"],
                     ["estimate", "--alpha", "0.8", "--input", "draws.csv", "--output", "fit.json"]):
            assert self.loaded_modules(tmp_path, argv) == []
        draws = np.array(json.loads((tmp_path / "draws.json").read_text())["draws"])
        assert draws.shape == (2000, 2)
        assert draws.mean(axis=0).tolist() == json.loads((tmp_path / "fit.json").read_text())["mu_hat"]

    def test_divergence_still_integrates_through_a_hookable_quad(self, monkeypatch):
        value, abserr, neval = af.divergence.quad(lambda x: np.exp(-x * x), -math.inf, math.inf,
                                                  epsabs=0.0, epsrel=1e-8)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12) and abserr <= 1e-8 * value and neval > 0
        # Shifted order-2 supports overlap without nesting, so the cross term
        # has no closed form; the power integrals do.
        p = af.make_student_t(2.0, [0.0], [[1.0]])
        q = af.make_student_t(2.0, [0.5], [[1.0]])
        plain = af.i_alpha(p, q, 2.0)
        real_quad = af.divergence.quad
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(af.divergence, "quad", counted)
        assert af.i_alpha(p, q, 2.0) == plain
        assert af.kl(p, q) == math.inf
        assert calls == [(0.5 - math.sqrt(5.0), math.sqrt(5.0))]

    def test_quadrature_failure_exits_20_with_diagnostics(self, monkeypatch, capsys):
        def failing(func, a, b, **kwargs):
            raise af.NumericalError("did not converge", {"interval": [a, b], **kwargs, "abserr": 0.25, "neval": 4221})

        monkeypatch.setattr(af.divergence, "quad", failing)
        argv = ["divergence", "--alpha", "2", "--p", "t:2,0,1", "--q", "t:2,0.5,1"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'integral': 'cross'" in captured.err
        assert "'epsabs': 0.0, 'epsrel': 2.5e-11, 'abserr': 0.25, 'neval': 4221" in captured.err

    def test_cross_integral_that_misses_its_peak_exits_20_with_one_line(self, capsys):
        # q's bump lies between quad's nodes; the pre-pass saw it, so 0 is a failure, not an empty overlap.
        argv = ["divergence", "--alpha", "3", "--p", "t:0.8,0,1", "--q", "normal:1.5,1e-4"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("numerical failure: cross quadrature on [-inf, inf] gave 0")
        assert "'integral': 'cross'" in line

    @pytest.mark.parametrize("argv,want", [
        (["--alpha", "2000", "--p", "bernoulli:0.3", "--q", "bernoulli:0.6"], 0.84772172124782750),
        (["--alpha", "1e3", "--p", "normal:0,1", "--q", "normal:0,2"], 1.5332990616796188e-4),
        (["--alpha", "0.999999999", "--p", "normal:0,1", "--q", "normal:0.5,2"], 0.15907359031122265385),
        (["--alpha", "1e9", "--p", "normal:0,1", "--q", "normal:0,2"], 1.5342640962345375508e-10),
        (["--alpha", "1e15", "--p", "normal:0,1", "--q", "normal:0,2"], 1.5342640972002724872e-16),
        (["--alpha", "1e100", "--p", "normal:0,1", "--q", "normal:0,2"], 1.5342640972002734285e-101),
        # alpha - 1 rounds to -1: once Infinity, and a warning at 1e-320.
        (["--alpha", "1e-20", "--p", "normal:0,1", "--q", "normal:0.1,1"], 0.0050000000000000005551),
        (["--alpha", "1e-320", "--p", "normal:0,1", "--q", "normal:0.1,1"], 0.0050000000000000005551),
    ], ids=["sums-below-the-float-range", "gaussians-far-from-one", "gaussians-near-one", "gaussians-at-1e9",
            "gaussians-at-1e15", "gaussians-at-1e100", "gaussians-at-1e-20", "gaussians-at-1e-320"])
    def test_i_alpha_far_from_one_matches_mpmath(self, capsys, argv, want):
        # 80-digit mpmath values (300 digits for the Gaussians far from 1), within 1e-15 + 1e-12 |I_alpha|.
        assert cli.main(["divergence", *argv]) == cli.EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["i_alpha"] - want) <= 1e-15 + 1e-12 * want

    @pytest.mark.parametrize("argv,want", [
        # p 1e-10 past q's end at sqrt(5): once exit 2 ("math domain error") and "kl":0.
        (["--alpha", "2", "--p", "t:2,2.23606797759979,1e-22", "--q", "t:2,0,1"], {"i_alpha": math.inf, "kl": math.inf}),
        (["--alpha", "0.5", "--p", "t:2,2.23606797759979,1e-22", "--q", "t:2,0,1"], {"i_alpha": math.inf, "kl": math.inf}),
        # p tiny in q's metric (50-digit mpmath): the reach once divided 0 by 0, for a kl of Infinity or a warning.
        (["--alpha", "2", "--p", "t:2,0,1e-300", "--q", "t:2,0,1e300"],
         {"i_alpha": 690.32924079553609154, "kl": 690.49515559266692917}),
        (["--alpha", "2", "--p", "t:2,0,1e-160", "--q", "t:2,0,1"],
         {"i_alpha": 183.76052033689523522, "kl": 183.92643513397687868}),
    ], ids=["past-q-end", "past-q-end-below-one", "tiny-in-huge", "tiny-in-unit"])
    def test_ends_of_supports_and_of_the_float_range(self, capsys, argv, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["divergence", *argv]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for key, value in want.items():
            assert report[key] == value if value == math.inf else abs(report[key] - value) <= 1e-13 * value, key

    @pytest.mark.parametrize("argv,message", [
        # p's mean is q's end as rounded, so the closed form's bracket is -2.2e-16: once exit 2.
        (["--alpha", "2", "--p", "t:2,2.23606797749979,1e-40", "--q", "t:2,0,1"], "the cross term's bracket"),
        # A whitened variance of 1e+-600: I_alpha (690.08238071765376 by mpmath) once read NaN, and Infinity.
        (["--alpha", "2", "--p", "normal:0,1e300", "--q", "normal:0,1e-300"], "the Gaussian I_alpha's whitened"),
        (["--alpha", "2", "--p", "normal:0,1e-300", "--q", "normal:0,1e300"], "the Gaussian I_alpha's whitened"),
    ], ids=["bracket-at-q-end", "gaussians-1e300-1e-300", "gaussians-1e-300-1e300"])
    def test_terms_past_rounding_exit_20_with_one_line(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["divergence", *argv]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"numerical failure: {message}")

    def test_i_alpha_within_its_rounding_exits_20_with_one_line(self, capsys):
        # Two t's of order 1e5: the three terms, of size 1.6e5, cannot carry a result of size 0.1 to I_ALPHA_TOL.
        argv = ["divergence", "--alpha", "1e5", "--p", "t:1e5,0,1", "--q", "t:1e5,0,2"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("numerical failure: the I_alpha assembly cancels") and "'integral': 'assembly'" in line

    @pytest.mark.parametrize("argv", _DIVERGENT_CROSS_TERMS)
    def test_divergent_cross_term_prints_infinity(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        assert '"i_alpha":Infinity' in capsys.readouterr().out


def run_dev(cwd, argv):
    """``python -X dev -W error -m alphafam.cli argv`` in ``cwd``: every warning an error."""
    env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "alphafam.cli", *argv], env=env,
                          cwd=str(cwd), capture_output=True, text=True, timeout=120)


class TestDevelopmentMode:
    """CI's development-mode step: each command exits 0 with nothing on stderr, warnings being errors."""

    DRAWS = ["simulate", "--alpha", "0.5", "--mu", "0", "--sigma", "1", "--n", "2000", "--seed", "7"]

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dev")
        proc = run_dev(path, self.DRAWS + ["--output", "draws.csv"])
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        return path

    def estimate(self, workdir, name):
        proc = run_dev(workdir, ["estimate", "--alpha", "0.7", "--input", name])
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        report = json.loads(proc.stdout)
        return report["mu_hat"], report["sigma_hat"]

    @pytest.mark.parametrize("argv", [
        ["verify-paper-example"],
        DRAWS + ["--format", "json"],
        ["estimate", "--alpha", "0.7", "--input", "draws.csv"],
        ["loglik", "--alpha", "0.7", "--mu", "0", "--sigma", "1", "--input", "draws.csv"],
        ["compact-fit", "--input", "draws.csv"],
        ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"],
        ["divergence", "--alpha", "2000", "--p", "bernoulli:0.3", "--q", "bernoulli:0.6"],
        ["divergence", "--alpha", "0.999999999", "--p", "normal:0,1", "--q", "normal:0.5,2"],
        ["divergence", "--alpha", "1e9", "--p", "normal:0,1", "--q", "normal:0,2"],
        ["divergence", "--alpha", "0.01", "--p", "bernoulli:1e-300", "--q", "bernoulli:5e-324"],
        ["divergence", "--alpha", "0.001", "--p", "bernoulli:0.5", "--q", "bernoulli:5e-324"],
        ["divergence", "--alpha", "0.5", "--p", "t:2,2.23606797759979,1e-22", "--q", "t:2,0,1"],
        ["divergence", "--alpha", "1e-320", "--p", "normal:0,1", "--q", "normal:0.1,1"],
        ["divergence", "--alpha", "2", "--p", "t:2,0,1e-160", "--q", "t:2,0,1"],
    ], ids=["verify", "simulate-json", "estimate", "loglik", "compact-fit", "divergence", "divergence-discrete",
            "divergence-gaussians-near-one", "divergence-gaussians-far-from-one", "divergence-subnormal-atom",
            "divergence-subnormal-kl", "divergence-past-q-end", "divergence-gaussians-at-1e-320",
            "divergence-tiny-in-q-metric"])
    def test_command_exits_0_with_nothing_on_stderr(self, workdir, argv):
        proc = run_dev(workdir, argv)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "") and proc.stdout

    @pytest.mark.parametrize("copy", ["spaced", "crlf", "exponent"])
    def test_copies_of_the_draws_estimate_as_the_plain_file_does(self, workdir, copy):
        lines = (workdir / "draws.csv").read_text(encoding="ascii").splitlines()
        text = {"spaced": "".join(f" {line} \n" for line in lines),
                "crlf": "".join(f"{line}\r\n" for line in lines),
                "exponent": "".join("%.17e\n" % float(line) for line in lines)}[copy]
        (workdir / f"{copy}.csv").write_bytes(text.encode("ascii"))
        assert self.estimate(workdir, f"{copy}.csv") == self.estimate(workdir, "draws.csv")


class TestScripts:
    ROOT = Path(__file__).resolve().parent.parent

    def run_script(self, name):
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, str(self.ROOT / "scripts" / name)], env=env, capture_output=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    def test_reference_example_prints_its_pinned_bytes(self):
        # Only .4f and .6f values and the str of the sample points, so the bytes hold across BLAS builds.
        want = (self.ROOT / "tests" / "data" / "reference_example.txt").read_bytes()
        assert self.run_script("run_reference_example.py") == want

    def test_estimator_demo_prints_one_line_per_order(self):
        # Its residual norms sit at rounding, whose digits follow the BLAS; only the lines are checked.
        lines = self.run_script("estimator_demo.py").decode().splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("alpha=")] == ["alpha=0.7", "alpha=0.8",
                                                                                      "alpha=0.9"]


class TestCommandsRunOnlyTheirModules:
    """``import alphafam`` alone runs no submodule; ``import alphafam.cli`` runs ``core`` and its four modules.

    ``cli`` imports ``compact``, ``divergence``, ``estimators`` and
    ``studentt`` plainly, so each is a plain module, bound on the package,
    once ``cli`` has run.  The CSV codec ``_codec`` waits for a command that
    reads or writes CSV or reports a float array.
    """

    PROBE = (
        "import sys, types\n"
        "argv = sys.argv[1:]\n"
        "if argv:\n"
        "    import alphafam.cli as cli\n"
        "    code = cli.main(argv)\n"
        "else:\n"
        "    import alphafam\n"
        "    code = 0\n"
        "package = vars(sys.modules['alphafam'])\n"
        "ran = sorted(m for m, module in sys.modules.items() if m.startswith('alphafam.')\n"
        "             and type(module) is types.ModuleType and package.get(m.partition('.')[2]) is module)\n"
        "sys.stderr.write('RAN ' + ' '.join(ran) + '\\n')\n"
        "sys.exit(code)\n"
    )

    def modules_run(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], env=env, cwd=str(tmp_path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        line = [ln for ln in proc.stderr.splitlines() if ln.startswith("RAN")][-1]
        return {m.removeprefix("alphafam.") for m in line.split()[1:]}

    def test_import_alphafam_runs_no_submodule(self, tmp_path):
        assert self.modules_run(tmp_path, []) == set()

    @pytest.mark.parametrize("command, runs_codec", [
        ("verify-paper-example", False),
        ("compact-fit", True),
        ("divergence", False),
        ("simulate", True),
        ("estimate", True),
    ])
    def test_command_runs_only_the_modules_it_uses(self, tmp_path, command, runs_codec):
        data = reference_csv(tmp_path)
        argv = {
            "verify-paper-example": [command],
            "compact-fit": [command, "--input", data],
            "divergence": [command, "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"],
            "simulate": [command, "--alpha", "0.7", "--mu", "0,1", "--sigma", "1,0;0,1", "--n", "50"],
            "estimate": [command, "--alpha", "0.5", "--input", data],
        }[command]
        codec = {"_codec"} if runs_codec else set()
        assert self.modules_run(tmp_path, argv) == {
            "cli", "core", "compact", "divergence", "estimators", "studentt"} | codec

    def test_lazy_modules_are_bound_on_the_package(self):
        assert af.divergence is sys.modules["alphafam.divergence"] is cli.divergence
        assert cli.divergence.InvalidDistributionError is af.InvalidDistributionError is af.core.InvalidDistributionError
        assert "kl" in dir(af) and af.kl is cli.divergence.kl
        with pytest.raises(AttributeError):
            af.no_such_name

    def test_two_threads_run_main_at_once_in_a_fresh_interpreter(self, tmp_path):
        # Each thread writes the bytes of its command run alone, and the warnings filters are left as they were.
        data = tmp_path / "draws.csv"
        np.savetxt(data, np.random.default_rng(5).standard_t(3.0, size=(5000, 2)), fmt="%.17g", delimiter=",")
        commands = [["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"],
                    ["estimate", "--alpha", "0.7", "--input", str(data)]]
        probe = ("import json, sys, threading, warnings\n"
                 "import alphafam.cli as cli\n"
                 "commands = json.loads(sys.argv[1])\n"
                 "filters = list(warnings.filters)\n"
                 "barrier = threading.Barrier(len(commands))\n"
                 "codes = [None] * len(commands)\n"
                 "def run(i):\n"
                 "    barrier.wait()\n"
                 "    codes[i] = cli.main(commands[i])\n"
                 "threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(commands))]\n"
                 "for thread in threads:\n"
                 "    thread.start()\n"
                 "for thread in threads:\n"
                 "    thread.join(60)\n"
                 "print(json.dumps([codes, any(t.is_alive() for t in threads), warnings.filters == filters]))\n")
        expected = []
        for i, argv in enumerate(commands):
            assert cli.main(argv + ["--output", str(tmp_path / f"alone{i}.json")]) == cli.EXIT_OK
            expected.append((tmp_path / f"alone{i}.json").read_bytes())
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        for run in range(3):
            argvs = [argv + ["--output", str(tmp_path / f"run{run}_{i}.json")] for i, argv in enumerate(commands)]
            proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env, cwd=str(tmp_path),
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            assert json.loads(proc.stdout) == [[cli.EXIT_OK] * len(commands), False, True]
            assert [(tmp_path / f"run{run}_{i}.json").read_bytes() for i in range(len(commands))] == expected


def run_entry(tmp_path, argv, unbuffered=False, **popen):
    """``python -m alphafam.cli argv`` in ``tmp_path``, with ``PYTHONUNBUFFERED`` set or unset."""
    env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    popen.setdefault("stdout", subprocess.PIPE)
    return subprocess.Popen([sys.executable, "-m", "alphafam.cli", *argv], env=env, cwd=str(tmp_path),
                            stderr=subprocess.PIPE, **popen)


class TestProcessEntry:
    """``console`` is the one process entry; ``main`` runs in-process and leaves the collector alone."""

    @pytest.mark.parametrize("argv", [["verify-paper-example"],
                                      ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"]])
    def test_main_leaves_the_collector_as_it_was(self, capsys, argv):
        before = gc.get_freeze_count(), gc.isenabled()
        assert cli.main(argv) == cli.EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == before
        capsys.readouterr()

    def test_module_run_freezes_the_collector_and_exits_normally(self, tmp_path):
        # The module runs as __main__ the way ``python -m`` runs it; an atexit
        # handler still runs after the entry has returned.
        probe = ("import atexit, gc, runpy, sys\n"
                 "atexit.register(lambda: sys.stderr.write(f'FROZEN {gc.get_freeze_count()}\\n'))\n"
                 "sys.argv = ['alphafam', 'verify-paper-example']\n"
                 "runpy.run_module('alphafam.cli', run_name='__main__', alter_sys=True)\n")
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(tmp_path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.endswith("PASS\n")
        (line,) = proc.stderr.splitlines()
        assert line.startswith("FROZEN ") and int(line.split()[1]) > 0, line

    def test_module_run_collects_nothing_while_it_imports(self, tmp_path):
        # No collection starts from numpy's import until ``console`` is defined, that is, until the imports are done.
        probe = ("import gc, runpy, sys\n"
                 "early = []\n"
                 "def hook(phase, info):\n"
                 "    importing = 'numpy' in sys.modules and not hasattr(sys.modules['__main__'], 'console')\n"
                 "    if phase == 'start' and importing:\n"
                 "        early.append(info['generation'])\n"
                 "gc.callbacks.append(hook)\n"
                 "sys.argv = ['alphafam', 'verify-paper-example']\n"
                 "try:\n"
                 "    runpy.run_module('alphafam.cli', run_name='__main__', alter_sys=True)\n"
                 "finally:\n"
                 "    sys.stderr.write(f'EARLY {len(early)} ENABLED {gc.isenabled()}\\n')\n")
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(tmp_path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr == "EARLY 0 ENABLED True\n"

    @pytest.mark.parametrize("argv, text, code", [
        (["verify-paper-example"], None, cli.EXIT_OK),
        (["estimate", "--alpha", "0.5", "--input", "DATA"], "1\n2.5\n4\n", cli.EXIT_OK),
        (["estimate", "--alpha", "1.5", "--input", "DATA"], "1\n2.5\n4\n", cli.EXIT_INVALID_CONFIG),
        (["simulate", "--alpha", "0.5", "--mu", "0", "--sigma", "1"], None, cli.EXIT_INVALID_CONFIG),
        (["estimate", "--alpha", "0.5", "--input", "MISSING"], None, cli.EXIT_UNREADABLE),
        (["estimate", "--alpha", "0.5", "--input", "DATA"], "1,2\n3\n", cli.EXIT_RAGGED),
        (["estimate", "--alpha", "0.5", "--input", "DATA"], "1\nx\n", cli.EXIT_NON_NUMERIC),
        (["estimate", "--alpha", "0.5", "--input", "DATA"], "", cli.EXIT_EMPTY),
        (["divergence", "--alpha", "0.5", "--p", "t:0.4302,0,1", "--q", "t:0.6,0,1"], None, cli.EXIT_NUMERICAL),
    ])
    def test_module_run_matches_main_in_process(self, tmp_path, capsysbinary, argv, text, code):
        paths = {"DATA": write(tmp_path, "data.csv", text) if text is not None else None,
                 "MISSING": str(tmp_path / "missing.csv")}
        argv = [paths.get(arg, arg) for arg in argv]
        assert cli.main(argv) == code
        expected = capsysbinary.readouterr()
        proc = run_entry(tmp_path, argv)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (code, expected.out, expected.err)

    def test_console_script_is_the_entry(self):
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        assert re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts, re.M) == [("alphafam", "alphafam.cli:console")]


class TestOutputFailures:
    """A write of the output that fails exits 14 with one stderr line and no traceback."""

    def assert_one_error_line(self, err: bytes, target: str):
        (line,) = err.decode().splitlines()
        assert line.startswith(f"error: cannot write {target}: "), line

    def test_missing_output_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        argv = ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2", "--output", str(target)]
        assert cli.main(argv) == cli.EXIT_OUTPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_one_error_line(captured.err.encode(), str(target))
        proc = run_entry(tmp_path, argv)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (cli.EXIT_OUTPUT, b"")
        self.assert_one_error_line(err, str(target))
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["verify-paper-example"],
                                      ["divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"]])
    def test_full_device(self, tmp_path, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = run_entry(tmp_path, argv, unbuffered, stdout=full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.EXIT_OUTPUT
        self.assert_one_error_line(err, "<stdout>")

    def test_closed_stdout(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m alphafam.cli verify-paper-example >&-', sys.executable],
                              env=env, cwd=str(tmp_path), stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == cli.EXIT_OUTPUT
        self.assert_one_error_line(proc.stderr, "<stdout>")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_that_closes_early(self, tmp_path, unbuffered):
        argv = ["simulate", "--alpha", "0.8", "--mu", "0,1", "--sigma", "1,0;0,1", "--n", "200000"]
        proc = run_entry(tmp_path, argv, unbuffered)
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert proc.returncode == cli.EXIT_OUTPUT
        self.assert_one_error_line(err, "<stdout>")
