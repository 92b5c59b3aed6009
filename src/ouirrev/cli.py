"""Command-line surface: model I/O, analysis reports, simulation runs, and
the Monte Carlo vs. analytic verification suite.

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
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import estimators, sampler, stationary, transient
from .exceptions import NoStationaryLawError, NumericalFailureError
from .model import LinearModel, Verdict, classify, model_from_dict

GREEN_KUBO_Z_MAX = 4.0
HDR_REL_ERR_MAX = 0.05
HDR_ZERO_SIGMAS = 3.0
FDR_RESIDUAL_TOL = 1e-8


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(x))


def canonical_json(obj) -> str:
    """Canonical report form: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _matrix_list(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in m]


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
    """verify's --tau converter: at least two distinct lags, which the
    two-time symmetry test compares."""
    lags = _floats(text)
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _classification_dict(cls) -> dict:
    return {
        "verdict": str(cls.verdict),
        "eigenvalues": [[float(v.real), float(v.imag)] for v in cls.spectrum_B.eigenvalues],
        "min_real_part": float(cls.spectrum_B.min_real_part),
        "symmetry_defect_AinvB": float(cls.symmetry_defect_AinvB),
        "marginal": bool(cls.marginal),
    }


def cmd_classify(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    cls = classify(model)
    if args.json:
        _emit(canonical_json(_classification_dict(cls)), args.out)
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
    _emit("\n".join(lines), args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    law = stationary.stationary_law(model)  # NoStationaryLawError -> exit 1
    report = {
        "xi": _matrix_list(law.Xi),
        "epr": law.epr,
        "hdr": law.hdr,
        "fdr_standard": law.fdr_standard_residual,
        "fdr_strong": law.fdr_strong_residual,
        "r_tau": {
            _fmt(tau): _matrix_list(stationary.two_time_covariance(law, tau))
            for tau in args.tau
        },
    }
    _emit(canonical_json(report), args.out)
    return 0


# Most paths per chunk of simulate, rounded down to whole sampler tiles (at
# least one): each path of a running chunk holds one open file.
_CSV_CHUNK_PATHS = 64
# About the most cells per formatter call of simulate's CSV writer.
_CSV_CALL_CELLS = 8192


class _CsvWriter:
    """simulate's consumer for paths lo .. hi-1 of a run of steps: opens their
    files, appends each time block's rows t, x1 .. xn, W to them as it
    arrives, and closes them with the last block."""

    def __init__(self, prefix: str, lo: int, hi: int, n: int, dt: float, steps: int):
        from . import _csvfmt  # imported by the CSV commands only

        self.table, self.dt, self.rows = _csvfmt.table, dt, steps + 1
        # glibc gives freed memory at the top of the heap back to the system
        # once it exceeds a trim threshold, which it raises to twice the
        # largest mmapped block freed so far. Freeing one unused 2 MiB block
        # keeps a formatter call's temporaries (about 1 MB) on the heap;
        # otherwise every call faults most of them in again.
        np.empty(2**18)
        header = ("t," + ",".join(f"x{i + 1}" for i in range(n)) + ",W\n").encode("ascii")
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

    def __call__(self, k: int, states: np.ndarray, heat: np.ndarray) -> None:
        """states (L, n, paths) and heat (L, paths) at indices k .. k + L - 1:
        one formatter call per group of paths, each path's rows cut out of
        the group's text."""
        length, n, paths = states.shape
        t = np.arange(k, k + length) * self.dt
        calls = -(-length * (n + 2) * paths // _CSV_CALL_CELLS)
        group = -(-paths // calls)
        for g in range(0, paths, group):
            files = self.files[g : g + group]
            cells = np.empty((len(files), length, n + 2))
            cells[:, :, 0] = t
            cells[:, :, 1:-1] = states[:, :, g : g + group].transpose(2, 0, 1)
            cells[:, :, -1] = heat[:, g : g + group].T
            text, ends = self.table(cells.reshape(-1, n + 2))
            text, start = memoryview(text), 0
            for fh, end in zip(files, ends[length - 1 :: length].tolist()):
                fh.write(text[start:end])
                start = end
        if k + length == self.rows:
            self.close()


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    law = stationary.stationary_law(model) if args.stationary else None
    writers = []

    def writer(lo: int, hi: int) -> _CsvWriter:
        writers.append(_CsvWriter(args.out, lo, hi, model.n, args.dt, args.steps))
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
    from . import _csvfmt  # imported by the CSV commands only

    model = _load_model(args.model)
    x0 = np.zeros(model.n) if args.x0 is None else np.asarray(args.x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"--x0 must have {model.n} components")
    if not (0 < args.t_step < math.inf and 0 <= args.t_max < math.inf):
        raise ValueError("transient grid requires finite --t-step > 0 and --t-max >= 0")
    if args.t_max / args.t_step == math.inf:
        raise ValueError("transient grid --t-max / --t-step overflows")
    factors = transient.rate_factors(model)
    reversible = factors.classification.verdict is Verdict.REVERSIBLE
    n = model.n
    header = ["t"]
    header += [f"mean_{i + 1}" for i in range(n)]
    header += [f"cov_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += ["entropy", "epr_t", "hdr_t", "entropy_rate"]
    if reversible:
        header.append("free_energy")
    n_rows = int(math.floor(args.t_max / args.t_step + 1e-9)) + 1
    states = transient.propagate_grid(model, x0, args.t_step, n_rows)
    grid = factors.grid_rates(states)
    columns = [states.t, states.mean, states.cov.reshape(n_rows, -1)]
    columns += [grid.entropy, grid.epr_t, grid.hdr_t, grid.entropy_rate]
    if reversible:
        columns.append(grid.free_energy)
    # Point mass at t = 0: entropy and rates are undefined (empty), not -inf.
    blank = np.zeros((n_rows, len(header)), dtype=bool)
    blank[np.isnan(grid.entropy), 1 + n + n * n :] = True
    body = b"".join(_csvfmt.rows(columns, blank)).decode("ascii")
    _emit(",".join(header) + "\n" + body.removesuffix("\n"), args.out)
    return 0


def _skipped(reason: str) -> dict:
    return {"skipped": True, "reason": reason}


def cmd_verify(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    try:
        law = stationary.stationary_law(model)
        cls = law.classification
    except NoStationaryLawError as exc:
        law, cls = None, exc.classification
    sections: dict[str, dict] = {}
    sections["classification"] = dict(_classification_dict(cls), **{"pass": True})

    if law is None:
        reason = "no stationary law (sweeping model)"
        for name in ("fdr", "epr_vs_hdr_mc", "two_time_symmetry", "green_kubo"):
            sections[name] = _skipped(reason)
        report = {"pass": True, "sections": sections, "seed": args.seed}
        _emit(canonical_json(report), args.out)
        return 0

    reversible = cls.verdict is Verdict.REVERSIBLE

    standard, strong = law.fdr_standard_residual, law.fdr_strong_residual
    strong_zero = strong <= FDR_RESIDUAL_TOL
    fdr_pass = standard <= FDR_RESIDUAL_TOL and strong_zero == reversible
    sections["fdr"] = {
        "standard_residual": standard,
        "strong_residual": strong,
        "strong_residual_zero": strong_zero,
        "pass": bool(fdr_pass),
    }

    stats, hdr = estimators.stationary_statistics(
        law,
        dt=args.dt,
        steps=args.steps,
        n_paths=args.paths,
        seed=args.seed,
        lags=args.tau,
        burn_in=args.burn_in,
    )
    epr = law.epr
    if reversible:
        hdr_pass = abs(hdr.value) <= HDR_ZERO_SIGMAS * hdr.stderr
        criterion = f"|hdr| <= {_fmt(HDR_ZERO_SIGMAS)} * stderr"
    else:
        rel = abs(hdr.value - epr) / epr
        hdr_pass = rel <= HDR_REL_ERR_MAX
        criterion = f"relative error <= {_fmt(HDR_REL_ERR_MAX)}"
    sections["epr_vs_hdr_mc"] = {
        "epr": epr,
        "hdr_hat": hdr.value,
        "hdr_stderr": hdr.stderr,
        "criterion": criterion,
        "pass": bool(hdr_pass),
    }

    rev = estimators.reversibility_test(stats)
    sections["two_time_symmetry"] = {
        "statistic": rev.statistic,
        "threshold": rev.threshold,
        "verdict_reversible": rev.verdict_reversible,
        "classified_reversible": reversible,
        "pass": bool(rev.verdict_reversible == reversible),
    }

    cond_steps = max(1, int(round(max(args.tau) / args.dt)))
    cond_batch = sampler.sample_batch(
        model,
        dt=args.dt,
        steps=cond_steps,
        n_paths=args.paths,
        seed=(args.seed + 1) % 2**64,
        x0=np.ones(model.n),
    )
    gk = estimators.greenkubo_check(cond_batch, law, stats)
    gk_pass = gk.max_abs_z <= GREEN_KUBO_Z_MAX and gk.max_abs_z_two_time <= GREEN_KUBO_Z_MAX
    sections["green_kubo"] = {
        "max_abs_z_conditional_mean": gk.max_abs_z,
        "max_abs_z_two_time": gk.max_abs_z_two_time,
        "max_deviation": gk.max_deviation,
        "pass": bool(gk_pass),
    }

    overall = all(sec.get("pass", True) for sec in sections.values())
    report = {
        "pass": overall,
        "sections": sections,
        "seed": args.seed,
        "budget": {
            "dt": args.dt,
            "steps": args.steps,
            "paths": args.paths,
            "burn_in": args.burn_in,
            "tau_list": list(args.tau),
        },
    }
    _emit(canonical_json(report), args.out)
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
        help="comma-separated lags / checkpoint times, at least two distinct (the two-time "
        "symmetry test compares them)",
    )
    p.add_argument("--out", help="write the JSON report to this file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NoStationaryLawError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
