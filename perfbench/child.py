"""Child-process side of the traced run.

    python3 child.py trace OUT.json ARGV...   run `ouirrev ARGV...` with spans
    python3 child.py kernels OUT.json SEED    time the dense kernels by size

`trace` wraps every public function of the package modules by attribute
replacement, from outside the package: each wrapper records a span, and a span
stack turns spans into calls, total and self time per function. Names that a
module rebinds with `from ... import` (cli.classify, transient.classify,
estimators.path_stream, ...) and functions held in module-level dicts (the
CLI's command table) are replaced too, so every call is seen whichever name it
goes through. Private helpers, such as the sub-stages inside
sampler.sample_batch, are not wrapped: they are left to in-program timers.

The parent imports nothing from here; results travel through OUT.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("cli", "model", "linalg", "stationary", "transient", "sampler", "estimators")
KERNEL_SIZES = (2, 8, 16, 32)
KERNEL_MIN_REPEATS = 3
KERNEL_MIN_SECONDS = 0.2


class Tracer:
    """Aggregates nested spans into calls, total and self seconds per name."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # time covered by each open span's children
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            self._open[name] = self._open.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._open[name] -= 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                if not self._open[name]:  # count a recursive span's time once
                    entry[1] += elapsed
                entry[2] += elapsed - children[0]
            if on_return is not None:
                on_return(result)
            return result

        return span

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def install(tracer: Tracer, package, modules: dict) -> None:
    """Replace each public function of `modules` by its traced wrapper, in
    every namespace of the package that refers to it."""

    def count_batch(batch) -> None:
        tracer.add("sampler.sample_batch.path_steps", batch.n_paths * batch.n_steps)
        tracer.add("sampler.sample_batch.array_bytes", batch.states.nbytes + batch.heat.nbytes)

    hooks = {"sampler.sample_batch": count_batch}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                if obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped[obj] = tracer.wrap(name, obj, hooks.get(name))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if isinstance(value, types.FunctionType) and value in wrapped:
                        obj[key] = wrapped[value]


def trace(out_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import importlib

    import ouirrev
    from ouirrev import cli

    import_s = time.perf_counter() - start
    modules = {short: importlib.import_module(f"ouirrev.{short}") for short in LAYERS}
    tracer = Tracer()
    install(tracer, ouirrev, modules)
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.stats, "counts": tracer.counts}, fh)
    return code


def kernels(out_path: str, seed: int) -> int:
    """Median seconds per call of each dense kernel at each size, on a stable
    drift B = K + W and a random SPD diffusion A from the seed.

    The kernels are called directly because no CLI command reaches n = 32:
    build_model rejects Gamma = I for every n >= 19 (its determinant test).
    That gap is recorded beside the timings rather than worked around.
    """
    import numpy as np
    from ouirrev import linalg
    from ouirrev.exceptions import ModelValidationError
    from ouirrev.model import build_model
    from workloads import irreversible_model

    timings = {}
    for n in KERNEL_SIZES:
        b, _ = irreversible_model(seed, n)
        g = np.random.default_rng([seed, n, 1]).standard_normal((n, n))
        a = g @ g.T / n + 0.5 * np.eye(n)
        xi = linalg.solve_lyapunov(b, a)
        calls = {
            "eig": lambda: linalg.eig(b),
            "expm": lambda: linalg.expm(-b),
            "gram_integral": lambda: linalg.gram_integral(b, a, 1.0),
            "solve_lyapunov": lambda: linalg.solve_lyapunov(b, a),
            "chol_spd": lambda: linalg.chol_spd(xi),
        }
        for fn, call in calls.items():
            samples = []
            begin = time.perf_counter()
            while (
                len(samples) < KERNEL_MIN_REPEATS
                or time.perf_counter() - begin < KERNEL_MIN_SECONDS
            ):
                t0 = time.perf_counter()
                call()
                samples.append(time.perf_counter() - t0)
            timings[f"linalg.{fn}.n{n}_s"] = float(np.median(samples))
    b, gamma = irreversible_model(seed, max(KERNEL_SIZES))
    try:
        build_model(b, gamma)
        accepted = "accepted"
    except ModelValidationError as exc:
        accepted = f"rejected: {exc}"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"timings": timings, f"build_model_n{max(KERNEL_SIZES)}": accepted}, fh)
    return 0


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "trace":
        sys.exit(trace(out, sys.argv[3:]))
    sys.exit(kernels(out, int(sys.argv[3])))
