"""The exact "%.17g" codec against Python's own formatting and float()."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphafam import _codec


def template(data: np.ndarray) -> bytes:
    """The reference writer: one "%.17g" per value, cells joined by "," and rows ended by "\\n"."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in data.tolist())


def per_cell(raw: bytes) -> np.ndarray:
    """The reference reader for a headerless file: float() of every cell."""
    return np.array([[float(cell) for cell in line.split(b",")] for line in raw.splitlines()])


_POWERS = 10.0 ** np.arange(-330, 309)
_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64))
# m * 2^-k with m odd and m * 2^-k * 10^(16 - E) a half-integer: a decimal tie at 17 digits.
_DYADIC_TIES = st.builds(lambda m, k: np.ldexp(float(m | 1), -k), st.integers(2**52, 2**53 - 1), st.integers(1, 5))
_NEAR_POWERS = st.builds(lambda p, step: np.nextafter(p, np.inf) if step > 0 else np.nextafter(p, 0.0) if step < 0 else p,
                         st.sampled_from(_POWERS.tolist()), st.integers(-1, 1))
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 1e-4, 1e-5, 1e16,
                            1e17, 99999999999999984.0, 2.0**53 + 2.0, 0.1, 0.5, 1.0])
# The ASCII bytes str.strip removes, but for the line ends.
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_VALUES = st.one_of(_BIT_PATTERNS, _DYADIC_TIES, _NEAR_POWERS, _SPECIAL,
                    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e17, max_value=1e17))


@st.composite
def tables(draw, values=_VALUES):
    width = draw(st.integers(1, 3))
    signed = st.tuples(values, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])
    cells = draw(st.lists(signed, min_size=width, max_size=60))
    return np.array(cells[: len(cells) // width * width], dtype=float).reshape(-1, width)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(data=tables())
    def test_equals_the_percent_template(self, data):
        assert _codec.format_rows(data) == template(data)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_equals_the_percent_template_across_blocks(self, width):
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2**64, size=3 * 8192 * width, dtype=np.uint64).view(np.float64)
        magnitudes = np.ldexp(rng.random(bits.size) + 1.0, rng.integers(-20, 60, bits.size))
        # Mostly fixed notation, every seventh row any bit pattern.
        data = magnitudes.reshape(-1, width)
        data[::7] = np.where(np.isfinite(bits), bits, magnitudes).reshape(-1, width)[::7]
        raw = template(data)
        assert _codec.format_rows(data) == raw
        assert _codec.parse_rows(raw).tobytes() == data.tobytes()

    def test_empty(self):
        assert _codec.format_rows(np.empty((0, 2))) == b""

    def test_digits17_rounds_a_tie_to_even(self):
        # 2^50 + 0.25 and 2^50 + 0.75 have 18 digits, the last a 5.
        digits, e, ok = _codec.digits17(np.array([1125899906842624.25, -1125899906842624.75, 0.0]))
        assert digits[:2].tolist() == [11258999068426242, 11258999068426248] and e[:2].tolist() == [15, 15]
        assert ok.tolist() == [True, True, False]


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(data=tables())
    def test_reads_what_the_writer_wrote(self, data):
        data = np.where(np.isfinite(data), data, 0.0)
        raw = template(data)
        values = _codec.parse_rows(raw)
        assert values.tobytes() == per_cell(raw).tobytes()
        assert values.tobytes() == data.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=tables(), style=st.sampled_from(["%.16g", "%.15g", "%r", "%.20f", "%.3e"]))
    def test_other_decimal_styles_read_as_float_reads_them(self, data, style):
        fmt = style.encode()
        raw = b"".join(b",".join(fmt % v for v in row) + b"\n" for row in data.tolist())
        values = _codec.parse_rows(raw)
        if values is not None:
            assert values.tobytes() == per_cell(raw).tobytes()

    @pytest.mark.parametrize("raw,want", [
        (b"x,y\r\n-0,.5\r\n5.,-.25\r\n", [[-0.0, 0.5], [5.0, -0.25]]),
        (b"\xef\xbb\xbf1.5\n2.5", [[1.5], [2.5]]),
        (b"12345678901234567890123\n0.000123456789012345678901\n", [[1.2345678901234568e22], [0.00012345678901234568]]),
        (b"1e5,2\n3,-2.5E-3\n1e-400,7\n8,9\n", [[1e5, 2.0], [3.0, -0.0025], [0.0, 7.0], [8.0, 9.0]]),
        (b"0.99999999999999999\n9007199254740993\n", [[1.0], [9007199254740992.0]]),
    ], ids=["header-crlf-signed-zero", "byte-order-mark", "long-mantissas", "exponents", "ties-and-rounding"])
    def test_cells_read_as_float_reads_them(self, raw, want):
        values = _codec.parse_rows(raw)
        assert values is not None
        assert values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("raw,want", [
        (b" 1\n", [[1.0]]), (b"1 \n", [[1.0]]), (b"+1\n", [[1.0]]), (b"1\n\n2\n", [[1.0], [2.0]]), (b"\n1\n", [[1.0]]),
    ])
    def test_spaced_signed_and_blank_row_inputs_read_as_float_reads_them(self, raw, want):
        assert _codec.parse_rows(raw).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("raw", [
        b"", b"x,y\n", b"1,2\n3\n", b"1\r2\n", b'"1"\n', b"1e400\n", b"nan\n", b"1_0\n", "١\n".encode(),
        # After a data row, so that the cell is not read as a header.
        b"0,0,0\n1,,2\n", b"0\n-\n", b"0\n.\n", b"0\n1.2.3\n", b"0\n1-2\n", b"0\n--1\n", b"0\n1e\n", b"0\ne5\n",
        b"0\n0x10\n", b"0\n1 2\n", b"0\n- 1\n", b"0\n1e 5\n", b"0\n+-1\n", b"0\n++1\n", b"0\n+e5\n", b"0,0\n1,+\n", b"0\n+\n",
        "0\n\xa01\n".encode(), b"0\r\n1\r", b"0\r\n1\r2\r\n",
    ])
    def test_declines_what_it_does_not_read(self, raw):
        assert _codec.parse_rows(raw) is None

    @settings(max_examples=300, deadline=None)
    @given(data=tables(), pad=st.data())
    def test_spaced_signed_and_blank_row_files_read_as_float_reads_them(self, data, pad):
        data = np.where(np.isfinite(data), data, 0.0)
        spaces = st.text(st.sampled_from(_SPACES), max_size=2)

        def cell(value):
            text = repr(value)
            sign = "+" if not text.startswith("-") and pad.draw(st.booleans()) else ""
            return pad.draw(spaces) + sign + text + pad.draw(spaces)

        lines = []
        for row in data.tolist():
            lines += [""] * pad.draw(st.integers(0, 2)) + [",".join(map(cell, row))]
        end = pad.draw(st.sampled_from(["\n", "\r\n"]))
        raw = (end.join(lines) + end * pad.draw(st.integers(0, 3))).encode("ascii")
        values = _codec.parse_rows(raw)
        want = [[float(cell.strip()) for cell in line.split(",")] for line in raw.decode("ascii").split(end) if line]
        assert values is not None
        assert values.tobytes() == np.array(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cells=st.data(), width=st.integers(1, 3))
    def test_rows_of_mixed_cells_read_exactly_when_float_reads_every_cell(self, cells, width):
        plain = _VALUES.map(lambda v: "%.17g" % v)
        other = st.tuples(st.sampled_from(["%.3e", "%.0e", "%+.17e"]), _VALUES).map(lambda pair: pair[0] % pair[1])
        rejected = st.sampled_from(["1-2", "1..2", "--1", "1e", "e5", "+-1"])
        kinds = [plain, other, st.sampled_from(["1.e5", "-1e-400"])]
        if cells.draw(st.booleans()):
            kinds.append(rejected)
        rows = cells.draw(st.lists(st.lists(st.one_of(kinds), min_size=width, max_size=width), min_size=1, max_size=20))
        # A first row of zeros, so that no row is taken for a header.
        raw = "".join(",".join(row) + "\n" for row in [["0"] * width] + rows).encode("ascii")
        try:
            want = per_cell(raw)
        except ValueError:
            want = None
        if want is not None and not np.isfinite(want).all():
            want = None
        values = _codec.parse_rows(raw)
        assert (values is None) == (want is None)
        assert values is None or values.tobytes() == want.tobytes()

    def test_exponent_cells_read_as_float_reads_them(self):
        raw = b"1e5,2\n3e-1,-2.5E-3\n4.9406564584124654e-324,1E+16\n"
        assert _codec.parse_rows(raw).tobytes() == per_cell(raw).tobytes()

    def test_blocks_of_unequal_width_are_declined(self):
        # Rows of 9 bytes up to the first block's cut, then rows of one cell.
        first = -(-(_codec._BYTES_PER_BLOCK + 1) // 9)
        raw = b"1.25,2.5\n" * first
        assert _codec.parse_rows(raw + b"3.75\n" * 10) is None
        assert _codec.parse_rows(raw).shape == (first, 2)
