"""CSV rows of doubles, byte for byte as ``",".join(map(repr, row))``, except
that a NaN cell is written empty: NaN is how the package marks an undefined
value (the transient functionals at the point mass t = 0).

Python's repr of a float is the shortest decimal that reads back as the same
double (the closest such decimal when several have that length), laid out in
fixed notation when the decimal exponent decpt (value = 0.d1d2... * 10**decpt)
satisfies -4 < decpt <= 16, else as d.ddde+XX. Calling repr once per cell
costs about a microsecond; table() instead selects the digits of a few
thousand cells at once with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), which needs only 64-bit integer arithmetic and so
runs on numpy uint64 arrays, and lays the text out with a few scatters into
one byte buffer. It returns where each row ends, so that a caller can cut
any run of rows out of the text. A caller may also give each row prefix
text, already formatted (simulate's time cell, the same for every path): the
pass leaves a gap of that length before the row's first cell and fills it
with one more scatter, so a column shared by many rows is formatted once.

table runs each pass of whole rows in its one loop: the prefix gaps, the
cells' text (_format, or _format_repr), the prefix scatter and the row ends.
Schubfach's shortening step removes at most one digit, which is enough for
every normal double but not for the shortest subnormals (it would write
4.9e-323 where repr writes 5e-323); a pass holding a subnormal or an
infinite value is therefore written by repr itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Most cells per formatting pass. A pass makes about 250 numpy calls, each
# costing about a microsecond whatever its length, and holds a few dozen
# arrays of this length (8 bytes a cell) and one of up to 8 digit places a
# cell: 8192 cells peak at 1.31 MB of temporaries (tracemalloc), text
# included, and at 1.44 MB with a prefix such as "0.01," before each row of
# four cells (its gap and scatter index arrays).
_BLOCK_CELLS = 8192

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_C_MIN = _U(2**52)
_INF = _U(0x7FF0000000000000)  # bits of inf; NaN above, subnormals below _C_MIN
_K_MIN, _K_MAX = -324, 292
_ZERO, _DOT, _MINUS, _PLUS, _E = (ord(c) for c in "0.-+e")
# 10**0 .. 10**19: digit counts by searchsorted, and left-aligning to 18 digits.
_POW10 = np.array([10**j for j in range(20)], dtype=_U)

# glibc gives freed memory at the top of the heap back to the system once it
# exceeds a trim threshold, which it raises to twice the largest mmapped
# block freed so far. Freeing one unused 2 MiB block keeps a pass's
# temporaries (below 1.4 MB) on the heap; otherwise every pass faults most of
# them in again.
np.empty(2**18)


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's g = floor(10**-k / 2**r) + 1, r chosen so that
    2**125 <= 10**-k / 2**r < 2**126, for k = _K_MIN .. _K_MAX, split as
    g = g1 2**63 + g0 into the rows g1, and the 32-bit halves (low, high) of
    g1 and of g0; the four ASCII digits of each of 0 .. 9999 as one uint32;
    and the trailing zeros among them. Built on first use, not at import;
    read-only."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            p = 10**k  # never a power of two, so 2**(125 + bits) / p < 2**126
            g.append((1 << (125 + p.bit_length())) // p + 1)
    g1, g0 = [v >> 63 for v in g], [v & (2**63 - 1) for v in g]
    halves = [[v >> shift & 0xFFFFFFFF for v in gi] for gi in (g1, g0) for shift in (0, 32)]
    v = np.arange(10000)
    chars = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1).astype(np.uint8)
    tables = (
        np.array([g1, *halves], dtype=_U),
        (chars + _ZERO).view(np.uint32).ravel(),
        np.argmax(chars[:, ::-1] != 0, axis=1),  # 0 for 0, which is never asked
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _mulhi(a0, a1, b0, b1) -> np.ndarray:
    """High 64 bits of the 128-bit product of a = a1 2**32 + a0 < 2**63 and
    b = b1 2**32 + b0 < 2**63, given as 32-bit halves."""
    t = a0 * b0
    t >>= _U(32)
    t += a1 * b0
    w = a0 * b1
    w += t & _M32
    t >>= _U(32)
    w >>= _U(32)
    w += t
    w += a1 * b1
    return w


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Round to odd of cp g 2**-127 (Schubfach's figure 8), g the rows of
    _tables()[0] for each cell."""
    g1, g1l, g1h, g0l, g0h = g
    c0, c1 = cp & _M32, cp >> _U(32)
    z = g1 * cp
    z >>= _U(1)
    z += _mulhi(g0l, g0h, c0, c1)
    vbp = _mulhi(g1l, g1h, c0, c1)
    vbp += z >> _U(63)
    z &= _M63
    z += _M63
    z >>= _U(63)
    vbp |= z
    return vbp


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive normal doubles given as their
    uint64 bit patterns: (d, k) with value ~ d 10**k, d possibly ending in
    zeros (Schubfach's figures 7 and 9)."""
    frac = bits & _U(2**52 - 1)
    q = (bits >> _U(52)).astype(np.int64)
    # Irregular spacing below a power of two, except at the least exponent.
    irregular = (frac == 0) & (q != 1)
    q -= 1075
    # floor(log10(2**q)) or floor(log10(3/4 2**q)), and floor(log2(10**-k)).
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint8)
    del q
    g = np.take(_tables()[0], k - _K_MIN, axis=1)
    # The value and the ends of its rounding interval, all scaled by 4 10**-k;
    # an odd significand rounds to a neighbour at the ends, so they are out.
    cb = (frac | _C_MIN) << _U(2)
    out = frac & _U(1)
    del frac
    vb = _rop(g, cb << h)
    lower = _rop(g, (cb - _U(2) + irregular) << h)
    lower += out
    upper = _rop(g, (cb + _U(2)) << h)
    upper -= out
    del g, cb, h, out, irregular

    # One digit shorter when exactly one of u' = 10 s', w' = u' + 10 is in.
    s = vb >> _U(2)
    sp10 = (s // _U(10)) * _U(10)
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= upper
    # Else u = s or w = s + 1: the one in the interval, or if both, the closer
    # (ties to even).
    uin = lower <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= upper
    mid = (s << _U(2)) + _U(2)
    pick_s = uin & (~win | (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    d = np.where(upin != wpin, sp10 + wpin * _U(10), s + ~pick_s)
    return d, k


def _digits(d: np.ndarray, ndig: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The digits of d (ndig of them, up to 18) left-aligned as 18 ASCII
    places after two unused ones, as the places 0-7, 8-15 and 16-19 of each
    cell; and how many digits are significant (all but the trailing zeros)."""
    d18 = d * _POW10[18 - ndig]
    hi = d18 // _POW10[8]
    lo = d18 - hi * _POW10[8]
    groups = np.empty((5, len(d)), dtype=_U)  # four places each, first first
    np.floor_divide(hi, _POW10[8], out=groups[0])
    hi -= groups[0] * _POW10[8]
    np.floor_divide(hi, _POW10[4], out=groups[1])
    np.subtract(hi, groups[1] * _POW10[4], out=groups[2])
    np.floor_divide(lo, _POW10[4], out=groups[3])
    np.subtract(lo, groups[3] * _POW10[4], out=groups[4])
    _, digits4, zeros4 = _tables()
    # Significant: up to the last nonzero group, less its trailing zeros.
    last, value = np.full(len(d), 4), groups[4]
    for i in (3, 2, 1, 0):
        empty = value == 0
        value = np.where(empty, groups[i], value)
        last -= empty
    nd = 4 * last + 2 - np.take(zeros4, value)
    parts = [np.take(digits4, groups[i : i + 2].T).view(np.uint8) for i in (0, 2, 4)]
    return parts, nd


def _places(first: int, count: int) -> np.ndarray:
    """[p, c]: the place of digit j = first + c when the point goes before
    digit p, j + (j >= p); far past any cell for the unused places j < 0."""
    j = np.arange(first, first + count)
    return np.where(j < 0, 2**40, j + (j >= np.arange(18)[:, None]))


_PLACES = (_places(-2, 8), _places(6, 8), _places(14, 4))


def _format(
    x: np.ndarray, seps: np.ndarray, gap: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The text of cells x (each zero, normal or NaN) as a byte buffer, each
    cell after gap bytes left for its row's prefix (none when gap is None)
    and followed by its separator byte, and the offset of each separator;
    NaN cells are written empty."""
    bits = x.view(_U)
    mag = bits & _M63
    blank = mag > _INF
    neg = ((bits >> _U(63)) == 1) & ~blank
    zero = (mag == 0) | blank
    # Zero goes through as 1.0 and is then written as the digit 0: "0.0".
    d, decpt = _shortest(np.where(zero, _U(0x3FF0000000000000), mag))
    del mag
    d[zero] = 0
    ndig = np.searchsorted(_POW10, d, side="right")
    decpt += ndig  # value = 0.d 10**decpt
    parts, nd = _digits(d, ndig)
    del d, ndig
    nd[zero] = 1
    decpt[zero] = 1

    fixed = (decpt > -4) & (decpt <= 16)
    sci = ~fixed
    lead_zeros = fixed & (decpt <= 0)
    # Fixed: integer part, point, fraction. Exponent: mantissa, e, sign and
    # two or three digits.
    length = np.where(
        fixed,
        np.maximum(decpt, 1) + 1 + np.maximum(nd - decpt, 1),
        nd + (nd > 1) + 4 + (np.abs(decpt - 1) >= 100),
    )
    length += neg
    length[blank] = 0
    width = length + 1
    if gap is not None:
        width += gap
    end = np.cumsum(width)
    end -= 1
    del width
    buf = np.full(int(end[-1]) + 1, _ZERO, dtype=np.uint8)
    b = end - length + neg  # where the cell's text starts, after any sign
    del length

    # Digit j goes to b + lead + _PLACES[dp, j]: the point goes before digit
    # dp, and fixed notation below 1 starts "0.00..". Places past the cell's
    # text (only '0' digits land there) fold onto its separator, which is
    # written after them.
    dp = np.where(fixed, np.where(lead_zeros, 0, decpt), 1)
    b_lead = (b + np.where(lead_zeros, 1 - decpt, 0))[:, None]
    for chars, places in zip(parts, _PLACES):
        pos = np.take(places, dp, axis=0)
        pos += b_lead
        np.minimum(pos, end[:, None], out=pos)
        buf[pos] = chars
        del pos
    del b_lead, dp, parts
    buf[end] = seps
    buf[b[neg] - 1] = _MINUS
    has_dot = (fixed | (nd > 1)) & ~blank
    buf[(b + np.where(fixed, np.maximum(decpt, 1), 1))[has_dot]] = _DOT

    if sci.any():
        e_at = (b + nd + (nd > 1))[sci]
        expo = decpt[sci] - 1
        buf[e_at] = _E
        buf[e_at + 1] = np.where(expo >= 0, _PLUS, _MINUS)
        expo = np.abs(expo)
        last = e_at + 3 + (expo >= 100)
        buf[last] = _ZERO + expo % 10
        buf[last - 1] = _ZERO + expo // 10 % 10
        wide = expo >= 100
        buf[last[wide] - 2] = _ZERO + expo[wide] // 100
    return buf, end


def _format_repr(
    x: np.ndarray, seps: np.ndarray, gap: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The same as _format, one repr per cell."""
    cells = ["" if v != v else repr(v) for v in x.tolist()]  # v != v: NaN
    if gap is not None:
        cells = [" " * g + c for g, c in zip(gap.tolist(), cells)]
    end = np.cumsum([len(c) + 1 for c in cells]) - 1
    text = "".join(c + chr(s) for c, s in zip(cells, seps.tolist()))
    return np.frombuffer(bytearray(text, "ascii"), dtype=np.uint8), end


def table(
    x: np.ndarray, prefix: tuple[bytes, np.ndarray] | None = None
) -> tuple[bytes, np.ndarray]:
    """The CSV text of the rows of a 2-D array of doubles as ASCII bytes: each
    row's cells as repr writes them (NaN cells empty), joined by commas and
    ended by a newline; and the offset just past each row's newline, so that
    any run of rows can be cut out of the text. prefix, as (text, ends) with
    ends[i] the offset in text just past row i's prefix, puts that row's
    prefix bytes before its first cell. Whole rows are formatted at most
    _BLOCK_CELLS cells a pass, the passes as even as whole rows allow, each
    by repr when a cell is subnormal or infinite; the text of a single pass
    is returned without a copy."""
    n_rows, n_cols = x.shape
    passes = -(-x.size // _BLOCK_CELLS)
    step = -(-n_rows // passes)
    seps = np.full((step, n_cols), ord(","), dtype=np.uint8)  # a newline after each row
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    if prefix is not None:
        pre = np.frombuffer(prefix[0], dtype=np.uint8)
        bounds = np.concatenate([[0], prefix[1]])
    texts, ends, offset = [], [], 0
    for r in range(0, n_rows, step):
        cells = x[r : r + step].ravel()
        gap = None
        if prefix is not None:
            # Row j's prefix, pre[rows[j] : rows[j + 1]], goes before its first cell.
            rows = bounds[r : r + step + 1]
            lengths = np.diff(rows)
            gap = np.zeros(len(cells), np.int64)
            gap[::n_cols] = lengths
        mag = cells.view(_U) & _M63
        by_repr = np.any((mag == _INF) | ((mag < _C_MIN) & (mag != 0)))
        del mag
        buf, end = (_format_repr if by_repr else _format)(cells, seps[: len(cells)], gap)
        row_ends = end[n_cols - 1 :: n_cols] + 1
        if prefix is not None:
            # Prefix byte i of row j goes to i - rows[j] + where row j begins.
            at = np.repeat(np.concatenate([[0], row_ends[:-1]]) - rows[:-1], lengths)
            at += np.arange(rows[0], rows[-1])
            buf[at] = pre[rows[0] : rows[-1]]
            del at
        text = buf.tobytes()
        del buf, end, gap  # freed before the next pass makes its own
        texts.append(text)
        ends.append(row_ends + offset)
        offset += len(text)
    return b"".join(texts), np.concatenate(ends)
