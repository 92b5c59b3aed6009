"""Compare the CSV formatter with repr on seeded random doubles.

    PYTHONPATH=src python tests/csvfmt_sweep.py COUNT [SEED]

Draws COUNT random 64-bit patterns and keeps the zero and normal doubles
among them (a subnormal or non-finite cell sends its whole block to repr).
They are formatted a chunk at a time as a three-column table and compared
with ",".join(map(repr, row)) row by row, first alone and then with a prefix
before each row (the route simulate takes for its time cells): the repr of
the previous row's first cell and a comma, empty on every fifth row. The
first differing row is printed and the exit status is 1. test_csvfmt.py runs
a smaller sweep.
"""

from __future__ import annotations

import sys

import numpy as np

from ouirrev import _csvfmt

_CHUNK = 3 * 2**16


def repr_rows(
    table: np.ndarray, blank: np.ndarray | None = None, prefix: list[bytes] | None = None
) -> bytes:
    """The reference text: each row as its prefix (if any), then
    ",".join(map(repr, row)) and a newline, cells where blank is true
    written empty."""
    lines = []
    for i, row in enumerate(table.tolist()):
        cells = ("" if blank is not None and blank[i, j] else repr(v) for j, v in enumerate(row))
        lines.append(("" if prefix is None else prefix[i].decode("ascii")) + ",".join(cells) + "\n")
    return "".join(lines).encode("ascii")


def prefixed(texts: list[bytes]) -> tuple[bytes, np.ndarray]:
    """table's prefix argument for the given per-row prefix texts."""
    return b"".join(texts), np.cumsum([len(t) for t in texts], dtype=np.int64)


def row_prefixes(table: np.ndarray) -> list[bytes]:
    """A prefix for each row: the repr of the previous row's first cell and a
    comma, and none on every fifth row."""
    firsts = np.roll(table[:, 0], 1).tolist()
    return [b"" if i % 5 == 0 else f"{v!r},".encode("ascii") for i, v in enumerate(firsts)]


def random_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Doubles from count random bit patterns, less the subnormal and
    non-finite ones, trimmed to whole rows of three."""
    x = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x) & ((np.abs(x) >= np.finfo(np.float64).tiny) | (x == 0))]
    return x[: len(x) - len(x) % 3]


def first_mismatch(
    table: np.ndarray, prefix: list[bytes] | None = None
) -> tuple[bytes, bytes] | None:
    """(formatter row, repr row) of the first row where they differ, each row
    after its prefix if given, or None."""
    got = _csvfmt.table(table, None, None if prefix is None else prefixed(prefix))[0]
    want = repr_rows(table, None, prefix)
    if got == want:
        return None
    return next((g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w)


def sweep(count: int, seed: int) -> tuple[int, tuple[bytes, bytes] | None]:
    """Cells compared, and the first mismatch over count random patterns,
    each table formatted without and with row prefixes."""
    rng = np.random.default_rng(seed)
    done = 0
    for start in range(0, count, _CHUNK):
        x = random_normals(rng, min(_CHUNK, count - start)).reshape(-1, 3)
        bad = first_mismatch(x) or first_mismatch(x, row_prefixes(x))
        done += x.size
        if bad is not None:
            return done, bad
    return done, None


def main(argv: list[str]) -> int:
    count = int(argv[0])
    seed = int(argv[1]) if len(argv) > 1 else 2018
    done, bad = sweep(count, seed)
    if bad is not None:
        print(f"mismatch after {done} cells: {bad[0]!r} != repr {bad[1]!r}")
        return 1
    print(f"{done} cells of {count} random patterns (seed {seed}) match repr, alone and prefixed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
