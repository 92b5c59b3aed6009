"""The vectorized CSV formatter writes every cell as repr does."""

import math

import numpy as np
import pytest

from ouirrev import _csvfmt

from csvfmt_sweep import first_mismatch, prefixed, repr_rows, sweep


@pytest.fixture
def fast_path_only(monkeypatch):
    """Fail if any block falls back to one repr per cell."""

    def refuse(*args):
        raise AssertionError("block written by repr")

    monkeypatch.setattr(_csvfmt, "_format_repr", refuse)


def _special_values() -> list[float]:
    # Powers of ten and two, the switch points of repr's layout (decimal
    # exponents 16/17 and -4/-5) and 2**53, each with both neighbours and
    # both signs, and +-0.0.
    base = [10.0**k for k in range(-300, 300)] + [2.0**k for k in range(-1022, 1024)]
    base += [1e16, 1e-4, 2.0**53, 0.1, 1 / 3, 123.0, 5e-5, 9007199254740993.0]
    base += [np.finfo(np.float64).tiny, np.finfo(np.float64).max]
    near = [math.nextafter(v, d) for v in base for d in (0.0, math.inf)]
    values = [v for v in base + near if math.isfinite(v) and abs(v) >= np.finfo(np.float64).tiny]
    return [s * v for v in values for s in (1.0, -1.0)] + [0.0, -0.0]


@pytest.mark.usefixtures("fast_path_only")
class TestFastPath:
    def test_random_bit_patterns(self):
        # 2e5 patterns drawn uniformly: nearly every binary exponent, so
        # mostly the exponent layout.
        done, bad = sweep(200_000, 7)
        assert done > 199_000
        assert bad is None

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_normals(self, scale):
        x = np.random.default_rng(int(math.log10(scale)) + 10).standard_normal((20_000, 3))
        assert first_mismatch(x * scale) is None

    def test_special_values(self):
        values = np.array(_special_values())
        assert first_mismatch(values.reshape(-1, 1)) is None

    def test_columns_and_blank_cells(self):
        # Columns of mixed widths side by side; NaN cells (the transient
        # table's undefined rows) are empty and need no repr.
        rng = np.random.default_rng(3)
        t = np.arange(9000) * 0.01
        law = rng.standard_normal((9000, 6))
        rates = rng.standard_normal((9000, 4))
        rates[:11] = np.nan
        x = np.column_stack([t, law, rates])
        got = _csvfmt.table(x)[0]
        assert got == repr_rows(x)
        assert got.startswith(b"0.0,") and b",,,\n" in got

    def test_nan_cells_empty(self):
        # NaN of either sign and any payload is an empty cell, on the fast
        # path: it alone sends no block to repr.
        nans = np.array([np.nan, -np.nan, np.uint64(0x7FF0000000000001).view(np.float64)])
        x = np.random.default_rng(4).standard_normal((3000, 3))
        x[1500] = nans
        x[0, 0] = x[-1, -1] = np.nan
        text = _csvfmt.table(x)[0]
        assert text == repr_rows(x)
        assert text.startswith(b",") and text.endswith(b",\n") and b"\n,,\n" in text


class TestReprFallback:
    @pytest.mark.parametrize(
        "special",
        [5e-324, 5e-323, -2.5e-320, 2.2250738585072009e-308, math.inf, -math.inf],
    )
    def test_block_with_special_cell(self, special):
        # One subnormal or infinite cell among normal ones sends its block
        # to repr; the other blocks keep the fast path, and the text is the
        # same (Schubfach's one shortening step would give 4.9e-323 for 5e-323).
        x = np.random.default_rng(5).standard_normal((3000, 3))
        x[2500, 1] = special
        calls = []
        fallback = _csvfmt._format_repr

        def spy(*args):
            calls.append(len(args[0]))
            return fallback(*args)

        try:
            _csvfmt._format_repr = spy
            got = _csvfmt.table(x)[0]
        finally:
            _csvfmt._format_repr = fallback
        assert got == repr_rows(x)
        assert len(calls) == 1 and calls[0] < x.size

    @pytest.mark.parametrize("special", [5e-323, math.inf])
    def test_nan_next_to_special_cell(self, special):
        # A block that repr writes keeps its NaN cells empty, also the one
        # beside the cell that sent it there and a whole row of them.
        x = np.array([[1.5, np.nan, special], [np.nan, np.nan, np.nan], [-0.0, 2.0, -np.nan]])
        want = f"1.5,,{special!r}\n,,\n-0.0,2.0,\n".encode()
        assert _csvfmt.table(x)[0] == repr_rows(x) == want

    def test_subnormal_shortest_digits(self):
        x = np.array([[5e-324, 5e-323, 1.5e-323, 2.5e-323, -4.94e-322]])
        assert _csvfmt.table(x)[0] == b"5e-324,5e-323,1.5e-323,2.5e-323,-4.94e-322\n"


@pytest.mark.parametrize("special", [None, math.inf, 5e-323], ids=["fast", "inf", "subnormal"])
def test_table_row_ends(special):
    # One pass over the whole table, the fast path or repr: repr's text, and
    # each row's end just past its newline.
    x = np.random.default_rng(9).standard_normal((700, 4))
    if special is not None:
        x[350, 2] = special
    text, ends = _csvfmt.table(x)
    assert text == repr_rows(x)
    assert ends.tolist() == [i + 1 for i, c in enumerate(text) if c == ord("\n")]


def test_table_passes(monkeypatch):
    # 5001 rows of 11 cells, the transient table's shape at n = 2, take more
    # than two passes of whole rows. A band of NaN cells (as in the
    # transient table's undefined rows) and a subnormal cell sit at the edge
    # between the first two passes: the text is repr's, the row ends are the
    # newlines, and only the pass holding the subnormal is written by repr.
    x = np.random.default_rng(11).standard_normal((5001, 11))
    passes = -(-x.size // _csvfmt._BLOCK_CELLS)
    step = -(-len(x) // passes)
    assert passes > 2
    x[step - 3 : step + 3, 7:] = np.nan
    x[step, 3] = 5e-323
    calls = []
    fallback = _csvfmt._format_repr

    def spy(*args):
        calls.append(len(args[0]))
        return fallback(*args)

    monkeypatch.setattr(_csvfmt, "_format_repr", spy)
    before = x.copy()
    text, ends = _csvfmt.table(x)
    np.testing.assert_array_equal(x, before)  # the cells are not written
    assert text == repr_rows(x)
    assert ends.tolist() == [i + 1 for i, c in enumerate(text) if c == ord("\n")]
    assert calls == [step * x.shape[1]]


@pytest.mark.parametrize("special", [None, 5e-323], ids=["fast", "subnormal"])
def test_table_prefix(special, monkeypatch):
    # Each row's prefix, then its cells as repr writes them: prefixes of
    # several lengths and empty ones, a band of NaN cells, and two passes
    # of whole rows; a row of subnormal cells sends its pass, prefixes
    # included, through repr.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3000, 3))
    passes = -(-x.size // _csvfmt._BLOCK_CELLS)
    step = -(-len(x) // passes)
    assert passes == 2
    x[step - 5 : step + 5, 1:] = np.nan
    x[step + 6, 0] = np.nan  # the cell right after its row's prefix
    if special is not None:
        x[2000] = special
    t = rng.standard_normal(len(x)).tolist()
    prefix = [b"" if i % 7 == 0 else f"{v!r},".encode() for i, v in enumerate(t)]
    prefix[-1] = b"t,,"
    calls = []
    fallback = _csvfmt._format_repr

    def spy(*args):
        calls.append(len(args[0]))
        return fallback(*args)

    monkeypatch.setattr(_csvfmt, "_format_repr", spy)
    text, ends = _csvfmt.table(x, prefixed(prefix))
    assert text == repr_rows(x, prefix)
    assert ends.tolist() == [i + 1 for i, c in enumerate(text) if c == ord("\n")]
    assert calls == ([] if special is None else [(len(x) - step) * x.shape[1]])
    # Empty prefixes leave the text as it is without them.
    assert _csvfmt.table(x, prefixed([b""] * len(x)))[0] == _csvfmt.table(x)[0]


def test_tables_shared_and_read_only():
    assert _csvfmt._tables() is _csvfmt._tables()
    for table in _csvfmt._tables():
        assert not table.flags.writeable
