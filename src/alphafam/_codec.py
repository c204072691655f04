"""Exact "%.17g" decimal conversion of float64 arrays, in both directions, as array arithmetic.

``format_rows`` writes a 2-D array as the bytes of Python's ``"%.17g"``
cells, and ``parse_rows`` reads a CSV of unquoted decimal cells, spaced or
signed, to the values ``float`` gives each cell.  Neither makes a Python
float per value.  Both rest on ``digits17``: the 17 significant digits of
each value, computed exactly from Dekker's error-free product with a power
of ten.  Cells outside fixed notation, and cells the arithmetic cannot
decide, go through Python's own conversion.  Both work in blocks, so that
their temporaries stay small.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import _split

_ROWS_PER_BLOCK = 8192
_BYTES_PER_BLOCK = 1 << 18

# 10^k for k <= 22, all exact doubles, and their Veltkamp halves.
_POW10 = np.cumprod(np.concatenate(([1.0], np.full(22, 10.0))))
_POW10_INT = np.cumprod(np.concatenate(([1], np.full(17, 10))), dtype=np.int64)  # 10^0 .. 10^17
_TEN16, _TEN17 = 1e16, 1e17
_INT_TEN16, _INT_TEN17 = _POW10_INT[16], _POW10_INT[17]
_TWO53 = 2**53


_POW10_HI, _POW10_LO = _split(_POW10)

# The four ASCII digits of every 0..9999, one uint32 per number, and the
# number of trailing zeros of each (four for 0).
_DIGITS = np.arange(10)
_ASCII4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place in range(4):
    _ASCII4[..., _place] = (48 + _DIGITS).reshape([10 if i == _place else 1 for i in range(4)])
_GROUPS4 = _ASCII4.view(np.uint32).ravel()
_ZERO = _DIGITS == 0
_ZEROS4 = (_ZERO * (1 + _ZERO[:, None] * (1 + _ZERO[:, None, None] * (1 + _ZERO[:, None, None, None])))).ravel()


def _keep_tables():
    """For each integer field of k words, which bytes of a cell "%.17g" prints, by (E + 4, end, sign).

    The cell layout is that of ``_format_block``.  The integer part keeps
    its last max(E, 0) + 1 digits, and the fraction its digits from column
    4 + E up to ``end``, the column after its last non-zero digit (0 where
    it has none); the point is kept only where a fraction digit is.  The
    table for k words is that for five without the first 20 - 4k digit
    columns.
    """
    e = np.arange(-4, 17)[:, None, None, None]
    end = np.arange(21)[None, :, None, None]
    sign = np.arange(2)[None, None, :, None]
    keep = np.zeros((21, 21, 2, 40), dtype=bool)
    keep[..., :19] = np.arange(19) >= 18 - np.maximum(e, 0)
    keep[..., 0] = True
    keep[..., 1] = sign[..., 0]
    keep[..., 19] = end[..., 0] > 0
    keep[..., 20:] = (np.arange(20) >= 4 + e) & (np.arange(20) < end)
    keep = keep.reshape(-1, 40)
    return {k: keep[:, [0, 1, *range(22 - 4 * k, 40)]] for k in range(2, 6)}


_KEEP = _keep_tables()


def _scaled(ax, e):
    """ax * 10^(16 - e) as hi + lo exactly (Dekker's product), with 0 <= 16 - e <= 22."""
    k = 16 - e
    hi = ax * _POW10[k]
    a_hi, a_lo = _split(ax)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    below = (hi < _TEN16) | ((hi == _TEN16) & (lo < 0))
    above = (hi > _TEN17) | ((hi == _TEN17) & (lo >= 0))
    return hi, lo, below, above


def digits17(x):
    """The 17 significant digits that "%.17g" prints for each |x|: (D, E, ok).

    D is an int64 in [10^16, 10^17) and |x| rounds, half to even, to
    D * 10^(E - 16).  x * 10^(16 - E) is formed exactly as hi + lo; hi is
    then an even integer (it is at least 2^53), so D = hi + rint(lo).  The
    log10 guess of E is corrected where hi + lo falls outside [10^16, 10^17),
    and a carry to 10^17 moves to the next E.  ``ok`` holds where "%.17g"
    uses fixed notation (E in [-4, 16]); D and E are meaningless elsewhere,
    at zero, subnormal, non-finite and very large or small values.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    ok = (ax >= 1e-5) & (ax < _TEN17)
    ax = np.where(ok, ax, 1.0)
    e = np.clip(np.floor(np.log10(ax)).astype(np.int64), -5, 16)
    hi, lo, below, above = _scaled(ax, e)
    off = below | above
    if off.any():
        i = np.flatnonzero(off)
        e[i] += above[i].astype(np.int64) - below[i]
        hi[i], lo[i], below_i, above_i = _scaled(ax[i], e[i])
        ok[i] &= ~(below_i | above_i)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == _INT_TEN17
    digits[carry] = _INT_TEN16
    e += carry
    return digits, e, ok & (e >= -4) & (e <= 16)


def _groups(value, count):
    """The last ``count`` 4-digit groups of each non-negative int64, most significant first."""
    groups = []
    for _ in range(count):
        high = value // 10000
        groups.append(value - high * 10000)
        value = high
    return groups[::-1]


def format_rows(data) -> bytes:
    """The bytes of ``"%.17g"`` applied to every cell: cells joined by "," and rows ended by "\\n"."""
    data = np.asarray(data, dtype=float)
    return b"".join(_format_block(data[i:i + _ROWS_PER_BLOCK]) for i in range(0, data.shape[0], _ROWS_PER_BLOCK))


def _format_block(rows) -> bytes:
    # A cell is an integer field of k uint32 words and a fraction field of
    # five.  The integer field holds the separator before the cell (its
    # first byte), the sign, the integer digits right-aligned and the
    # point (its last byte); the fraction field its 20 digits right-aligned.
    # k is the fewest words that fit the block's longest integer part, and
    # at least two, so that any cell's "%.17g" text fits after the separator.
    # ``_KEEP[k]`` masks the bytes each cell prints.
    x = rows.ravel()
    digits, e, ok = digits17(x)
    e = np.clip(e, -4, 16)
    scale = _POW10_INT[np.minimum(16 - e, 17)]
    whole = digits // scale
    k = max(2, (max(int(e.max()), 0) + 7) // 4)
    cells = np.empty((x.size, 4 * k + 20), dtype=np.uint8)
    words = cells.view(np.uint32)
    for j, group in enumerate(_groups(whole * 10, k)):
        words[:, j] = _GROUPS4.take(group)
    frac = _groups(digits - whole * scale, 5)
    for j, group in enumerate(frac, start=k):
        words[:, j] = _GROUPS4.take(group)
    cells[:, 0] = ord(",")
    cells.reshape(rows.shape[0], -1, cells.shape[1])[:, 0, 0] = ord("\n")
    cells[:, 1] = ord("-")
    cells[:, 4 * k - 1] = ord(".")
    # Trailing zeros of the fraction, 20 where it is zero.
    zeros = _ZEROS4.take(frac[4])
    tail = frac[4] == 0
    for group in frac[3::-1]:
        zeros += tail * _ZEROS4.take(group)
        tail &= group == 0
    keep = _KEEP[k].take(((e + 4) * 21 + 20 - zeros) * 2 + np.signbit(x), axis=0)
    outside = np.flatnonzero(~ok)
    if outside.size:
        # Python's own text for the cells outside fixed notation, padded with
        # spaces to 24 bytes (the longest "%.17g" text), after their separators.
        text = ("%-24.17g" * outside.size % tuple(x[outside].tolist())).encode("ascii")
        text = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
        cells[outside, 1:25] = text
        keep[outside, 1:] = False
        keep[outside, 1:25] = text != ord(" ")
    keep[0, 0] = False  # the block starts a row
    return cells[keep].tobytes() + b"\n"


_LINES_TO_COMMAS = bytes.maketrans(b"\n", b",")
_PLAIN = b"0123456789.,-\n"
_SPACES = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII bytes str.strip removes, other than line ends
_IS_SPACE, _IS_SEP = np.isin(np.arange(256), list(_SPACES)), np.isin(np.arange(256), list(b",\n"))


def parse_rows(raw: bytes):
    """The rows of a CSV of unquoted decimal cells, as ``float`` reads each cell; None for any other text.

    Accepted: an optional UTF-8 byte-order mark, an optional header row (a
    first non-blank row on which ``float`` fails for some cell, without
    quotes), then rows of equal width of cells of digits, ".", "-", "+", "e"
    and "E" with ASCII spaces around them; "\\n" or "\\r\\n" line ends,
    the last one optional; rows of only spaces and commas before the first
    row, and of only spaces anywhere.  Only a block with spaces is rewritten
    without them, and only one that does not read otherwise is read again
    without its empty rows, so that plain text pays for neither.  Plain
    cells, an optional "-" or "+" and digits with at most one ".", are
    placed by arithmetic.  Their marks are deleted and the mantissas A are
    read by numpy's C integer reader; f, the digits after the point, comes
    from its position, and the value is A / 10^f.  That quotient is exact
    (one rounding) where A < 2^53 and f <= 22.  Otherwise it is kept only
    where its 17 digits, the ones ``digits17`` gives, or those of its
    neighbour towards the cell, are the cell's own: the cell then lies
    strictly within half an ulp of that double.  ``float`` reads every other
    cell, one with an exponent or still undecided, or rejects it.  A cell it
    rejects, a cell without digits, quotes, spaces within a cell, other
    bytes, ragged rows, rows of only commas after the first row and
    non-finite values return None.
    """
    if raw.startswith(b"\xef\xbb\xbf"):
        raw = raw[3:]
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
        if b"\r" in raw:
            return None
    stop = len(raw) - raw.endswith(b"\n")
    start = raw.rfind(b"\n", 0, len(raw) - len(raw.lstrip(_SPACES + b",\n"))) + 1  # past blank rows
    end = raw.find(b"\n", start, stop)
    end = stop if end < 0 else end
    try:
        first = raw[start:end].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if '"' in first or "\x00" in first or not first.replace(",", "").strip():
        return None
    try:
        [float(cell.strip()) for cell in first.split(",")]
    except ValueError:
        start = end + 1  # a header
    blocks = []
    while start < stop:
        cut = raw.find(b"\n", min(start + _BYTES_PER_BLOCK, stop), stop)
        cut = stop if cut < 0 else cut
        parsed = _parse_block(raw[start:cut])
        if parsed is None:
            return None
        blocks.append(parsed)
        start = cut + 1
    widths = {width for _, width in blocks} - {0}
    if len(widths) != 1:
        return None
    return np.concatenate([values for values, _ in blocks]).reshape(-1, widths.pop())


def _parse_block(block: bytes):
    """(values, width) of whole rows without a final line end, width 0 where all are empty; or None."""
    other = block.translate(None, _PLAIN)
    if other.translate(None, b"eE+"):  # spaces, or bytes that _read_block declines
        block = _unpad(block)
        if block is None:
            return None
        other = other.translate(None, _SPACES)
    parsed = _read_block(block, other)
    lines = block.split(b"\n") if parsed is None else ()
    if b"" in lines:  # read again without the empty rows
        block = b"\n".join(filter(None, lines))
        parsed = _read_block(block, other) if block else (np.empty(0), 0)
    return parsed


def _unpad(block: bytes):
    """The block without the spaces around its cells; None where a space is elsewhere."""
    line = np.frombuffer(b"\n" + block + b"\n", dtype=np.uint8)
    space = np.flatnonzero(line <= ord(" "))  # then the table: a lookup of every byte is slower
    space = space[_IS_SPACE[line[space]]]
    # Each run of spaces has a separator on one side.
    starts, ends = space[~_IS_SPACE[line[space - 1]]], space[~_IS_SPACE[line[space + 1]]]
    if not (_IS_SEP[line[starts - 1]] | _IS_SEP[line[ends + 1]]).all():
        return None
    return block.translate(None, _SPACES)


def _read_block(block: bytes, other: bytes):
    """(values, width) of whole rows without a final line end, or None: plain cells placed, ``float`` for the rest."""
    if other.translate(None, b"eE+"):
        return None
    chars = np.frombuffer(block, dtype=np.uint8)
    # Every byte below "0" is a mark: a separator, "-", "." or "+".  With a
    # separator mark before the block and one after it, each cell ends at a
    # separator mark.  A cell is plain where, passing over a "." that is its
    # last mark, the mark before is the separator that opens it or a "-" or
    # "+" right after that separator.  ``float`` reads or rejects the rest.
    marks = np.concatenate(([-1], np.flatnonzero(chars < ord("0")), [chars.size]))
    kinds = np.concatenate(([ord("\n")], chars[marks[1:-1]], [ord("\n")]))
    seps = np.flatnonzero((kinds == ord(",")) | (kinds == ord("\n")))
    last = seps[1:]
    starts, ends = marks[seps[:-1]] + 1, marks[last]
    has_dot = kinds[last - 1] == ord(".")
    sign = kinds[last - 1 - has_dot]
    negative = sign == ord("-")
    signed = negative | (sign == ord("+"))
    plain = marks[last - 1 - has_dot] == starts - 1 + signed
    if other:  # an exponent letter makes its cell not plain
        plain[np.searchsorted(ends, np.flatnonzero((chars == ord("e")) | (chars == ord("E"))))] = False
    n = last.size
    row_ends = kinds[last] == ord("\n")
    rows = int(row_ends.sum())
    width = n // rows
    if width * rows != n or not row_ends[width - 1::width].all():
        return None
    places = np.where(has_dot, ends - marks[last - 1] - 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 warns on a malformed string
        try:
            # A cell without digits leaves an empty field, which is declined.
            mantissa = np.fromstring(block.translate(_LINES_TO_COMMAS, b".-+eE"), dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if mantissa.size != n:
        return None

    values = mantissa / _POW10[np.minimum(places, 22)]
    decided = plain & (mantissa < _TWO53) & (places <= 22)
    # A cell of 16 or 17 digits has its own 17 digits and exponent E.  The
    # double whose "%.17g" digits at E are those is the cell's value: try
    # the quotient, then its neighbour towards the cell.
    own_e = 15 + (mantissa >= _INT_TEN16) - places
    check = plain & ~decided & (mantissa < _INT_TEN17) & (own_e >= -6)
    own = np.where(mantissa >= _INT_TEN16, mantissa, mantissa * 10)
    hi, lo, below, above = _scaled(np.where(check, values, 1.0), np.where(check, own_e, 0))
    got = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    decided |= check & ~below & ~above & (got == own)
    near = np.flatnonzero(check & ~decided)
    if near.size:
        value = np.nextafter(values[near], np.where(below[near] | (got[near] < own[near]), np.inf, 0.0))
        hi, lo, below, above = _scaled(value, own_e[near])
        hit = ~below & ~above & (hi.astype(np.int64) + np.rint(lo).astype(np.int64) == own[near])
        values[near[hit]] = value[hit]
        decided[near[hit]] = True
    np.copysign(values, 0.5 - negative, out=values)  # values are >= 0 here
    rest = np.flatnonzero(~decided)
    try:
        values[rest] = [float(block[a:b]) for a, b in zip(starts[rest].tolist(), ends[rest].tolist())]
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values, width
