"""The vectorized CSV formatter writes every cell as repr does."""

import math

import numpy as np
import pytest

from ouirrev import _csvfmt

from csvfmt_sweep import first_mismatch, repr_rows, sweep


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
        # Columns of mixed widths side by side; blank cells (NaN in the
        # transient table's undefined rows) are empty and need no repr.
        rng = np.random.default_rng(3)
        t = np.arange(9000) * 0.01
        law = rng.standard_normal((9000, 6))
        rates = rng.standard_normal((9000, 4))
        blank = np.zeros((9000, 11), dtype=bool)
        blank[:11, 7:] = True
        rates[:11] = np.nan
        got = b"".join(_csvfmt.rows([t, law, rates], blank))
        want = repr_rows(np.column_stack([t, law, rates]), blank)
        assert got == want
        assert got.startswith(b"0.0,") and b",,,\n" in got


class TestReprFallback:
    @pytest.mark.parametrize(
        "special",
        [5e-324, 5e-323, -2.5e-320, 2.2250738585072009e-308, math.inf, -math.inf, math.nan],
    )
    def test_block_with_special_cell(self, special):
        # One subnormal or non-finite cell among normal ones sends its block
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
            got = b"".join(_csvfmt.rows([x]))
        finally:
            _csvfmt._format_repr = fallback
        assert got == repr_rows(x)
        assert len(calls) == 1 and calls[0] < x.size

    def test_subnormal_shortest_digits(self):
        x = np.array([[5e-324, 5e-323, 1.5e-323, 2.5e-323, -4.94e-322]])
        assert b"".join(_csvfmt.rows([x])) == b"5e-324,5e-323,1.5e-323,2.5e-323,-4.94e-322\n"


@pytest.mark.parametrize("special", [None, math.inf, 5e-323], ids=["fast", "inf", "subnormal"])
def test_table_row_ends(special):
    # One pass over the whole table, the fast path or repr: the same text as
    # rows(), and each row's end just past its newline.
    x = np.random.default_rng(9).standard_normal((700, 4))
    if special is not None:
        x[350, 2] = special
    text, ends = _csvfmt.table(x.copy())
    assert text == b"".join(_csvfmt.rows([x]))
    assert ends.tolist() == [i + 1 for i, c in enumerate(text) if c == ord("\n")]


def test_tables_shared_and_read_only():
    assert _csvfmt._tables() is _csvfmt._tables()
    for table in _csvfmt._tables():
        assert not table.flags.writeable
