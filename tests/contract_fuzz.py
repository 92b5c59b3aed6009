"""Check the CLI's exit-code contract on seeded random models and options.

    PYTHONPATH=src python tests/contract_fuzz.py COUNT [SEED]

Each case draws a model of dimension 1, 2 or 3 (a rotation, a signed
diagonal or a dense drift, with entries 10**U(-310, 308) or 10**U(-8, 8)),
then a command with a tiny budget and random --dt, --t-step, --tau and --x0,
and runs cli.main on it with every warning an error. Every case must keep
the contract:
- no exception escapes main;
- the exit code is 0 to 4;
- exits 1 to 3 print one stderr line, exits 0 and 4 none;
- an exit 0, or verify's exit 4 with its report, writes no NaN or Infinity
  JSON token and no inf or nan word or cell (a NaN cell is written empty).
The first case that breaks it is printed with its model and argv, and the
exit status is 1. test_cli.py runs a smaller sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ouirrev import cli

_NON_FINITE_JSON = re.compile(rb"\b(NaN|Infinity)\b")
_NON_FINITE_WORD = re.compile(rb"\b(nan|inf)\b")


def _number(rng: np.random.Generator, wide: bool) -> float:
    """A signed 10**U(-310, 308) when wide, else 10**U(-8, 8)."""
    lo, hi = (-310.0, 308.0) if wide else (-8.0, 8.0)
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi))


def random_model(rng: np.random.Generator) -> dict:
    """{"B": ..., "Gamma": ...} of a random kind, dimension and scale."""
    n = int(rng.integers(1, 4))
    wide = bool(rng.integers(2))
    kind = rng.choice(["rotation", "diagonal", "dense"])
    if kind == "rotation":
        # d I plus a rotation of one coordinate pair, Gamma g I.
        b = abs(_number(rng, wide)) * np.eye(n)
        if n > 1:
            i, j = rng.choice(n, size=2, replace=False)
            w = _number(rng, wide)
            b[i, j], b[j, i] = w, -w
        gamma = _number(rng, wide) * np.eye(n)
    elif kind == "diagonal":
        b = np.diag([_number(rng, wide) for _ in range(n)])
        gamma = np.diag([_number(rng, wide) for _ in range(n)])
    else:
        b = np.array([[_number(rng, wide) for _ in range(n)] for _ in range(n)])
        gamma = np.array([[_number(rng, wide) for _ in range(n)] for _ in range(n)])
    return {"B": b.tolist(), "Gamma": gamma.tolist()}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def random_argv(rng: np.random.Generator, n: int, model: str, out: str) -> list[str]:
    """A command on the model file with a tiny budget and random options."""
    command = str(rng.choice(["classify", "analyze", "simulate", "transient", "verify"]))
    argv = [command, model, "--out", out]
    x0 = f"--x0={_floats(_number(rng, bool(rng.integers(2))) for _ in range(n))}"
    dt = 10.0 ** rng.uniform(-8.0, 4.0)
    if command == "classify":
        argv += ["--json"] if rng.integers(2) else []
    elif command == "analyze":
        argv += [f"--tau={_floats(_number(rng, False) for _ in range(rng.integers(1, 4)))}"]
    elif command == "simulate":
        argv += ["--dt", repr(dt), "--steps", str(rng.integers(1, 30))]
        argv += ["--paths", str(rng.integers(1, 4)), "--seed", str(rng.integers(2**32))]
        argv += [str(rng.choice(["--stationary", x0]))]
        argv += ["--method", str(rng.choice(["exact", "euler"]))]
    elif command == "transient":
        t_step = 10.0 ** rng.uniform(-8.0, 4.0)
        argv += ["--t-step", repr(t_step), "--t-max", repr(t_step * rng.uniform(0.0, 40.0))]
        argv += [x0] if rng.integers(2) else []
    else:
        steps = int(rng.integers(2, 40))
        lags = rng.choice(np.arange(1, steps + 1), size=2, replace=False) * dt
        if rng.integers(4) == 0:
            lags = [10.0 ** rng.uniform(-8.0, 4.0) for _ in range(2)]
        argv += ["--dt", repr(dt), "--steps", str(steps), "--paths", str(rng.integers(1, 5))]
        argv += ["--burn-in", repr(dt * int(rng.integers(0, 3))), f"--tau={_floats(lags)}"]
        argv += ["--seed", str(rng.integers(2**32))]
    return argv


def _outputs(out: str) -> list[bytes]:
    """What a command wrote: the file out, or simulate's out_p<k>.csv files."""
    path = Path(out)
    return [p.read_bytes() for p in sorted(path.parent.glob(path.name + "*"))]


def contract_break(argv: list[str], out: str) -> str | None:
    """How cli.main(argv) breaks the exit-code contract, or None."""
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any escape breaks the contract
        return f"{type(exc).__name__} escaped main: {exc}"
    err = err.getvalue()
    if code not in range(5):
        return f"exit code {code!r}"
    if code in (1, 2, 3) and not (err.endswith("\n") and err.count("\n") == 1):
        return f"exit {code} with stderr {err!r}"
    if code in (0, 4):
        if err:
            return f"exit {code} with stderr {err!r}"
        for text in _outputs(out):
            if _NON_FINITE_JSON.search(text) or _NON_FINITE_WORD.search(text):
                return f"exit {code} writes a non-finite value: {text[:200]!r}"
    return None


def sweep(count: int, seed: int) -> tuple[int, str | None]:
    """Cases run, and the first that breaks the contract (its model, argv
    and how it breaks), or None."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(count):
            model = random_model(rng)
            model_path, out = f"{tmp}/model.json", f"{tmp}/out{case}"
            Path(model_path).write_text(json.dumps(model))
            argv = random_argv(rng, len(model["B"]), model_path, out)
            broken = contract_break(argv, out)
            if broken is not None:
                return case + 1, f"{broken}\n  model {json.dumps(model)}\n  argv {argv}"
            for p in Path(tmp).glob(f"out{case}*"):
                p.unlink()
    return count, None


def main(argv: list[str]) -> int:
    count = int(argv[0])
    seed = int(argv[1]) if len(argv) > 1 else 2018
    done, broken = sweep(count, seed)
    if broken is not None:
        print(f"case {done} (seed {seed}) breaks the contract: {broken}")
        return 1
    print(f"{done} random cases (seed {seed}) keep the exit-code contract")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
