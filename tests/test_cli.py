import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alphafam as af
from alphafam import cli, compact


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


_ASCII_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c"]
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

    def test_unquoted_ascii_file_skips_the_csv_module(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called for an unquoted ASCII file")

        monkeypatch.setattr(cli.csv, "reader", refuse)
        path = write(tmp_path, "u.csv", "\n , \t\nx,y\r\n1,2\r\n\r\n 3.5 ,\t-4e-3\r\n")
        assert cli.ingest_csv(path).data.tolist() == [[1.0, 2.0], [3.5, -0.004]]

    def test_plain_decimal_file_skips_both_text_readers(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a text reader called for a plain decimal file")

        monkeypatch.setattr(cli.np, "loadtxt", refuse)
        monkeypatch.setattr(cli.csv, "reader", refuse)
        draws = np.random.default_rng(2).standard_t(3, size=(500, 2)) * [1.0, 1e-3]
        draws[:3] = [[-0.0, 1e-7], [2.0**60, -5e-324], [0.1, -1e16]]
        text = "x,y\r\n" + "".join("%.17g,%.17g\r\n" % tuple(row) for row in draws.tolist())
        path = tmp_path / "draws.csv"
        path.write_bytes(text.encode("ascii"))
        batch = cli.ingest_csv(str(path))
        assert batch.data.tobytes() == draws.tobytes()
        assert batch.sha256 == hashlib.sha256(text.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("text", ['"x","y"\n"1",2\n"3.5"," 4"\n', "x,y\n1,2\n3.5,\xa04\n", "x,y\r1,2\r3.5,4\r"],
                             ids=["quoted", "non-ascii", "lone-cr"])
    def test_other_files_parse_without_numpy_reader(self, tmp_path, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy's reader called for a file it does not take")

        monkeypatch.setattr(cli.np, "loadtxt", refuse)
        path = write(tmp_path, "q.csv", text)
        assert cli.ingest_csv(path).data.tolist() == [[1.0, 2.0], [3.5, 4.0]]

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
    ], ids=["floats", "int64", "uint8", "non-finite", "empty", "bool"])
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
        stub.mkdir(parents=True)
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

    @pytest.mark.parametrize("argv", _DIVERGENT_CROSS_TERMS)
    def test_divergent_cross_term_prints_infinity(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        assert '"i_alpha":Infinity' in capsys.readouterr().out


class TestCommandsRunOnlyTheirModules:
    """Each command executes only the alphafam modules it uses.

    ``cli`` registers ``compact``, ``divergence``, ``estimators`` and
    ``studentt`` as lazy modules, which run on their first attribute access;
    until then ``sys.modules`` holds them as ``importlib.util`` lazy modules,
    not as plain modules.  ``import alphafam`` alone runs no submodule.
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
        "ran = sorted(m for m, module in sys.modules.items()\n"
        "             if m.startswith('alphafam.') and type(module) is types.ModuleType)\n"
        "sys.stderr.write('RAN ' + ' '.join(ran) + '\\n')\n"
        "sys.exit(code)\n"
    )

    def modules_run(self, tmp_path, argv, exit_code=cli.EXIT_OK):
        env = dict(os.environ, PYTHONPATH=TestScipyOffTheColdPath.SRC)
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], env=env, cwd=str(tmp_path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == exit_code, proc.stderr
        line = [ln for ln in proc.stderr.splitlines() if ln.startswith("RAN")][-1]
        return {m.removeprefix("alphafam.") for m in line.split()[1:]}

    def test_import_alphafam_runs_no_submodule(self, tmp_path):
        assert self.modules_run(tmp_path, []) == set()

    @pytest.mark.parametrize("command, runs, skips", [
        ("verify-paper-example", {"compact"}, {"divergence", "estimators", "studentt"}),
        ("compact-fit", {"compact"}, {"divergence", "estimators"}),
        ("divergence", {"divergence"}, {"compact", "estimators"}),
        ("simulate", {"studentt"}, {"compact", "divergence", "estimators"}),
        ("estimate", {"estimators"}, {"compact", "divergence"}),
    ])
    def test_command_runs_only_the_modules_it_uses(self, tmp_path, command, runs, skips):
        data = reference_csv(tmp_path)
        argv = {
            "verify-paper-example": [command],
            "compact-fit": [command, "--input", data],
            "divergence": [command, "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "t:0.8,0.5,2"],
            "simulate": [command, "--alpha", "0.7", "--mu", "0,1", "--sigma", "1,0;0,1", "--n", "50"],
            "estimate": [command, "--alpha", "0.5", "--input", data],
        }[command]
        ran = self.modules_run(tmp_path, argv)
        assert {"cli", "core"} | runs <= ran and not ran & skips, ran

    def test_a_failing_command_runs_no_divergence(self, tmp_path):
        argv = ["estimate", "--alpha", "1.5", "--input", reference_csv(tmp_path)]
        assert "divergence" not in self.modules_run(tmp_path, argv, cli.EXIT_INVALID_CONFIG)

    def test_lazy_modules_are_bound_on_the_package(self):
        assert af.divergence is sys.modules["alphafam.divergence"] is cli.divergence
        assert cli.divergence.InvalidDistributionError is af.InvalidDistributionError is af.core.InvalidDistributionError
        assert "kl" in dir(af) and af.kl is cli.divergence.kl
        with pytest.raises(AttributeError):
            af.no_such_name
