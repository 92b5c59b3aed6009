"""Command-line surface: model I/O, analysis reports, simulation runs, and
the verify report, whose sections and gates estimators.verify_sections owns.

Model file format: a JSON object {"B": [[...]], "Gamma": [[...]]} with n
inferred from the rows (ragged rows rejected).

Exit codes: 0 ok / checks passed, 1 validation error (including usage errors:
a flag value that does not convert, an unknown command), 2 numerical failure,
3 I/O error, 4 verification failed.

Every command is deterministic given (model file, flags, seed). CSV numbers
use the shortest round-trip representation of doubles; JSON reports are
canonical (sorted keys) and re-serialize to identical bytes after parsing.
The environment variable OU_IRREV_THREADS sets the number of worker threads
for path generation (0, 1 or absent = serial); outputs are byte-identical
across worker counts.

Each command imports the modules it runs, so importing the CLI loads only
model, linalg and exceptions: classify runs on those alone.

Run as the program (main() with no argv: the console script, python -m
ouirrev.cli), main freezes the garbage collector's tracked objects once the
command has returned or raised. The interpreter's shutdown collection then
skips the ~22 000 objects of numpy and the package, about 15 ms per command;
the OS reclaims them with the process. main(argv), called from Python, leaves
the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

import numpy as np

from . import linalg
from .exceptions import NoStationaryLawError, NumericalFailureError
from .model import LinearModel, classify, model_from_dict


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(x))


def canonical_json(obj) -> str:
    """Canonical report form: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _seed(text: str) -> int:
    """--seed converter: an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _finite(text: str) -> float:
    """--burn-in converter, and each number of _floats: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    """--tau and --x0 converter: comma-separated finite numbers."""
    values = tuple(_finite(tok) for tok in text.split(",") if tok.strip() != "")
    if not values:
        raise argparse.ArgumentTypeError("must list at least one number")
    return values


def _lags(text: str) -> tuple[float, ...]:
    """verify's --tau converter: at least two distinct positive lags, which
    the two-time symmetry test compares. At lag 0 the statistic is exactly
    symmetric, so its bootstrap spread is 0 at any budget."""
    lags = _floats(text)
    if min(lags) <= 0.0:
        raise argparse.ArgumentTypeError(f"lags must be positive, got {text!r}")
    if len(set(lags)) < 2:
        raise argparse.ArgumentTypeError(f"must list at least two distinct lags, got {text!r}")
    return lags


def _load_model(path: str) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(payload)


def _emit(out_path: str | None, *parts: bytes) -> None:
    """Write a command's output, the bytes parts in order, to the file
    out_path, or to stdout when it is None. Each part is written as it is, so
    a long one (transient's CSV) is not copied to join it to the others."""
    if out_path is None:
        sys.stdout.buffer.writelines(parts)
        sys.stdout.buffer.flush()
    else:
        with open(out_path, "wb") as fh:
            fh.writelines(parts)


def _classification_dict(cls) -> dict:
    eigenvalues = cls.spectrum_B.eigenvalues
    return {
        "verdict": str(cls.verdict),
        "eigenvalues": np.column_stack((eigenvalues.real, eigenvalues.imag)).tolist(),
        "min_real_part": float(cls.spectrum_B.min_real_part),
        "symmetry_defect_AinvB": float(cls.symmetry_defect_AinvB),
        "marginal": bool(cls.marginal),
    }


def cmd_classify(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    cls = classify(model)
    if args.json:
        _emit(args.out, canonical_json(_classification_dict(cls)).encode(), b"\n")
        return 0
    lines = [f"verdict: {cls.verdict}"]
    eig_strs = [
        f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}i"
        for v in cls.spectrum_B.eigenvalues
    ]
    lines.append("eigenvalues of B: " + ", ".join(eig_strs))
    lines.append(f"min real part: {_fmt(cls.spectrum_B.min_real_part)}")
    lines.append(f"symmetry defect of A^-1 B: {_fmt(cls.symmetry_defect_AinvB)}")
    lines.append(f"marginal: {'true' if cls.marginal else 'false'}")
    _emit(args.out, "\n".join(lines).encode(), b"\n")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import stationary

    model = _load_model(args.model)
    law = stationary.stationary_law(model)  # NoStationaryLawError -> exit 1
    report = {
        "xi": law.Xi.tolist(),
        "epr": law.epr,
        "hdr": law.hdr,
        "fdr_standard": law.fdr_standard_residual,
        "fdr_strong": law.fdr_strong_residual,
        "r_tau": {
            _fmt(tau): stationary.two_time_covariance(law, tau).tolist() for tau in args.tau
        },
    }
    _emit(args.out, canonical_json(report).encode(), b"\n")
    return 0


# Most paths per chunk of simulate, rounded down to whole sampler tiles (at
# least one): each path of a running chunk holds one open file.
_CSV_CHUNK_PATHS = 64


class _CsvWriter:
    """simulate's consumer for paths lo .. hi-1 of a run of steps: opens their
    files, appends each time block's rows t, x1 .. xn, W to them as it
    arrives, with the heat W of estimators._StepHeat for the run's
    s_mat = A^{-1} B, and closes them with the last block. A block holding a
    path that overflows (a non-finite state or heat) raises
    NumericalFailureError.

    The time cells t = k dt are the same for every path, so they are
    formatted once per window of whole time blocks, at most one formatter
    pass long, and laid before each path's x1 .. xn, W as row prefixes: the
    time text held never grows with the run."""

    def __init__(self, prefix: str, lo: int, hi: int, s_mat: np.ndarray, dt: float, steps: int):
        from . import _csvfmt, estimators

        self.csvfmt, self.lo, self.dt, self.rows = _csvfmt, lo, dt, steps + 1
        self.step_heat = estimators._StepHeat(s_mat)
        # Time text "t," of rows window[0] .. window[1] - 1; row k's runs from
        # t_bounds[k - window[0]] to the next bound.
        self.window, self.t_text, self.t_bounds = (0, 0), b"", np.zeros(1, np.int64)
        header = ("t," + ",".join(f"x{i + 1}" for i in range(len(s_mat))) + ",W\n").encode("ascii")
        self.files = []
        try:
            for k in range(lo, hi):
                self.files.append(open(f"{prefix}_p{k}.csv", "wb"))
                self.files[-1].write(header)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for fh in self.files:
            fh.close()

    def _time_text(self, k: int, length: int) -> tuple[bytes, np.ndarray]:
        """The text "t," of rows k .. k + length - 1 and where each ends. A
        block outside the window opens a new one at k, of as many whole
        blocks of its length as one formatter pass holds. The start row
        (k = 0) is a window of its own: the blocks after it are longer, so a
        window of start blocks would end inside one of them and its rows
        would be formatted again."""
        w0, w1 = self.window
        if not (w0 <= k and k + length <= w1):
            blocks = 1 if k == 0 else max(1, self.csvfmt._BLOCK_CELLS // length)
            w0, w1 = k, min(self.rows, k + length * blocks)
            text, ends = self.csvfmt.table((np.arange(w0, w1) * self.dt)[:, None])
            self.window, self.t_text = (w0, w1), text.replace(b"\n", b",")
            self.t_bounds = np.concatenate([[0], ends])
        bounds = self.t_bounds[k - w0 : k - w0 + length + 1]
        start = int(bounds[0])
        return self.t_text[start : int(bounds[-1])], bounds[1:] - start

    def __call__(self, k: int, states: np.ndarray) -> None:
        """states (L, n, paths) at indices k .. k + L - 1: one formatter call
        for the block's x1 .. xn, W, each row after its time text, and each
        path's rows cut out of its text."""
        length, n, paths = states.shape
        heat = self.step_heat(k, states)
        finite = np.isfinite(states).all(axis=1) & np.isfinite(heat)
        if not finite.all():
            step, path = map(int, np.argwhere(~finite)[0])
            raise NumericalFailureError(
                f"path {self.lo + path} overflows at t = {(k + step) * self.dt!r}"
            )
        cells = np.empty((paths, length, n + 1))
        cells[:, :, :-1] = states.transpose(2, 0, 1)
        cells[:, :, -1] = heat.T
        t_text, t_ends = self._time_text(k, length)
        t_ends = (t_ends + len(t_text) * np.arange(paths)[:, None]).ravel()
        text, ends = self.csvfmt.table(cells.reshape(-1, n + 1), prefix=(t_text * paths, t_ends))
        text, start = memoryview(text), 0
        for fh, end in zip(self.files, ends[length - 1 :: length].tolist()):
            fh.write(text[start:end])
            start = end
        if k + length == self.rows:
            self.close()


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sampler

    model = _load_model(args.model)
    law = None
    if args.stationary:
        from . import stationary

        law = stationary.stationary_law(model)
    writers = []

    def writer(lo: int, hi: int) -> _CsvWriter:
        writers.append(_CsvWriter(args.out, lo, hi, model.ainv_b, args.dt, args.steps))
        return writers[-1]

    try:
        sampler.stream_batch(
            model,
            args.dt,
            args.steps,
            args.paths,
            args.seed,
            writer,
            chunk_paths=_CSV_CHUNK_PATHS,
            x0=None if args.stationary else args.x0,
            law=law,
            method=args.method,
        )
    finally:  # each writer closes its files with its last block, unless a chunk failed
        for w in writers:
            w.close()
    return 0


def cmd_transient(args: argparse.Namespace) -> int:
    from . import _csvfmt, transient

    model = _load_model(args.model)
    x0 = linalg._as_vector(args.x0 or np.zeros(model.n), model.n, "initial state")
    if not (0 < args.t_step < math.inf and 0 <= args.t_max < math.inf):
        raise ValueError("transient grid requires finite --t-step > 0 and --t-max >= 0")
    if args.t_max / args.t_step == math.inf:
        raise ValueError("transient grid --t-max / --t-step overflows")
    cls = classify(model)
    n_rows = int(math.floor(args.t_max / args.t_step + 1e-9)) + 1
    states = transient.propagate_grid(model, x0, args.t_step, n_rows)
    grid = transient.grid_rates(model, cls, states)
    n = model.n
    columns = [("t", states.t)]
    columns += [(f"mean_{i + 1}", states.mean[:, i]) for i in range(n)]
    columns += [(f"cov_{i + 1}{j + 1}", states.cov[:, i, j]) for i in range(n) for j in range(n)]
    functionals = ("entropy", "epr_t", "hdr_t", "entropy_rate", "free_energy")
    # free_energy is None unless the model is reversible: no column then
    columns += [(k, getattr(grid, k)) for k in functionals if getattr(grid, k) is not None]
    header, values = zip(*columns)
    body = _csvfmt.table(np.column_stack(values))[0]
    _emit(args.out, (",".join(header) + "\n").encode("ascii"), body)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import estimators, stationary

    model = _load_model(args.model)
    try:
        law = stationary.stationary_law(model)
        cls = law.classification
    except NoStationaryLawError as exc:
        law, cls = None, exc.classification
    sections = estimators.verify_sections(
        law,
        dt=args.dt,
        steps=args.steps,
        n_paths=args.paths,
        seed=args.seed,
        lags=args.tau,
        burn_in=args.burn_in,
    )
    sections["classification"] = dict(_classification_dict(cls), **{"pass": True})
    overall = all(sec.get("pass", True) for sec in sections.values())
    report = {"pass": overall, "sections": sections, "seed": args.seed}
    if law is not None:  # a sweeping model's report has no budget: it sampled nothing
        report["budget"] = {
            "dt": args.dt,
            "steps": args.steps,
            "paths": args.paths,
            "burn_in": args.burn_in,
            "tau_list": list(args.tau),
        }
    _emit(args.out, canonical_json(report).encode(), b"\n")
    return 0 if overall else 4


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them as validation
    errors (exit 1); subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ouirrev",
        description="Classify, analyze, simulate, and statistically verify "
        "linear stochastic systems dx/dt = -B x + Gamma xi(t).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    taus = "0.1,0.5,1.0"
    # argparse reads "-1,0" after a space as an option, not as a value.
    x0_help = (
        "comma-separated start point (default: origin); a list that starts with a "
        "negative number needs the --x0=-1,0 form"
    )

    fmt = argparse.ArgumentDefaultsHelpFormatter

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, formatter_class=fmt)
        p.set_defaults(run=run)
        p.add_argument("model", help="path to the model JSON file ({'B': [[..]], 'Gamma': [[..]]})")
        return p

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0, help="master RNG seed (uint64)")
        p.add_argument("--dt", type=float, default=0.01, help="time step")
        p.add_argument("--steps", type=int, default=10_000, help="steps per path")
        p.add_argument("--paths", type=int, default=200, help="number of paths")

    p = command("classify", cmd_classify, "stability/reversibility verdict")
    p.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    p.add_argument("--out", help="write the report to this file instead of stdout")

    p = command("analyze", cmd_analyze, "stationary law and thermodynamics")
    p.add_argument(
        "--tau",
        type=_floats,
        default=taus,
        help="comma-separated lags for the two-time covariance; a list that starts with a "
        "negative number needs the --tau=-1,1 form",
    )
    p.add_argument("--out", help="write the JSON report to this file")

    p = command("simulate", cmd_simulate, "sample trajectories to CSV files")
    p.add_argument("--out", required=True, help="output path prefix; files get suffix _p<k>.csv")
    budget(p)
    p.add_argument("--x0", type=_floats, help=x0_help)
    p.add_argument(
        "--stationary",
        action="store_true",
        help="draw each path's start from the stationary law (overrides --x0)",
    )
    p.add_argument(
        "--method",
        choices=("exact", "euler"),
        default="exact",
        help="exact transition sampling or Euler-Maruyama reference",
    )

    p = command("transient", cmd_transient, "time-dependent law as a CSV series")
    p.add_argument("--x0", type=_floats, help=x0_help)
    p.add_argument("--t-max", type=float, default=2.0, help="last grid time")
    p.add_argument("--t-step", type=float, default=0.1, help="grid spacing")
    p.add_argument("--out", help="write the CSV to this file instead of stdout")

    p = command("verify", cmd_verify, "Monte Carlo vs. analytic check suite")
    budget(p)
    p.add_argument("--burn-in", type=_finite, default=10.0, help="discarded warmup time")
    p.add_argument(
        "--tau",
        type=_lags,
        default=taus,
        help="comma-separated positive lags / checkpoint times, at least two distinct (the "
        "two-time symmetry test compares them)",
    )
    p.add_argument("--out", help="write the JSON report to this file")
    return parser


def main(argv=None) -> int:
    """Run the command that argv (default: sys.argv[1:]) names and return its
    exit code. With argv None, the program's entry, freeze the collector's
    objects when the command is done (see the module docstring)."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # NoStationaryLawError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
