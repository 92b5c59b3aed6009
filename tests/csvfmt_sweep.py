"""Compare the CSV formatter with repr on seeded random doubles.

    PYTHONPATH=src python tests/csvfmt_sweep.py COUNT [SEED]

Draws COUNT random 64-bit patterns and keeps the zero and normal doubles
among them (a subnormal or non-finite cell sends its whole block to repr).
They are formatted a chunk at a time as a three-column table and compared
with ",".join(map(repr, row)) row by row; the first differing row is printed
and the exit status is 1. test_csvfmt.py runs a smaller sweep.
"""

from __future__ import annotations

import sys

import numpy as np

from ouirrev import _csvfmt

_CHUNK = 3 * 2**16


def repr_rows(table: np.ndarray, blank: np.ndarray | None = None) -> bytes:
    """The reference text: each row as ",".join(map(repr, row)) and a newline,
    cells where blank is true written empty."""
    lines = []
    for i, row in enumerate(table.tolist()):
        cells = ("" if blank is not None and blank[i, j] else repr(v) for j, v in enumerate(row))
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode("ascii")


def random_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Doubles from count random bit patterns, less the subnormal and
    non-finite ones, trimmed to whole rows of three."""
    x = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x) & ((np.abs(x) >= np.finfo(np.float64).tiny) | (x == 0))]
    return x[: len(x) - len(x) % 3]


def first_mismatch(table: np.ndarray) -> tuple[bytes, bytes] | None:
    """(formatter row, repr row) of the first row where they differ, or None."""
    got = _csvfmt.table(table)[0]
    want = repr_rows(table)
    if got == want:
        return None
    return next((g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w)


def sweep(count: int, seed: int) -> tuple[int, tuple[bytes, bytes] | None]:
    """Cells compared, and the first mismatch over count random patterns."""
    rng = np.random.default_rng(seed)
    done = 0
    for start in range(0, count, _CHUNK):
        x = random_normals(rng, min(_CHUNK, count - start))
        bad = first_mismatch(x.reshape(-1, 3))
        done += len(x)
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
    print(f"{done} cells of {count} random patterns (seed {seed}) match repr")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
