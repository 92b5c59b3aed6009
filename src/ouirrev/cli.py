"""Command-line surface: model I/O, analysis reports, simulation runs, and
the Monte Carlo vs. analytic verification suite.

Model file format: a JSON object {"B": [[...]], "Gamma": [[...]]} with n
inferred from the rows (ragged rows rejected).

Exit codes: 0 ok / checks passed, 1 validation error, 2 numerical failure,
3 I/O error, 4 verification failed.

Every command is deterministic given (model file, flags, seed). CSV numbers
use the shortest round-trip representation of doubles; JSON reports are
canonical (sorted keys) and re-serialize to identical bytes after parsing.
The environment variable OU_IRREV_THREADS sets the worker count for path
generation (0, 1 or absent = serial); outputs are byte-identical across
worker counts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import estimators, sampler, stationary, transient
from .exceptions import NoStationaryLawError, NumericalFailureError, UndefinedEntropyError
from .model import LinearModel, Verdict, classify, model_from_dict

DEFAULT_SEED = 0
DEFAULT_DT = 0.01
DEFAULT_STEPS = 10_000  # T = 100 at the default dt
DEFAULT_PATHS = 200
DEFAULT_BURN_IN = 10.0
DEFAULT_TAUS = (0.1, 0.5, 1.0)

GREEN_KUBO_Z_MAX = 4.0
HDR_REL_ERR_MAX = 0.05
HDR_ZERO_SIGMAS = 3.0
FDR_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Parsed command options; defaults are documented in --help and pinned
    by a golden-file test so they cannot drift silently."""

    model_path: str
    seed: int = DEFAULT_SEED
    dt: float = DEFAULT_DT
    steps: int = DEFAULT_STEPS
    paths: int = DEFAULT_PATHS
    burn_in: float = DEFAULT_BURN_IN
    tau_list: tuple[float, ...] = DEFAULT_TAUS
    out_path: str | None = None
    json_output: bool = False
    x0: tuple[float, ...] | None = None
    stationary_start: bool = False
    method: str = "exact"
    t_max: float = 2.0
    t_step: float = 0.1


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(x))


def canonical_json(obj) -> str:
    """Canonical report form: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _matrix_list(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in m]


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} must list at least one number")
    return values


def _load_model(config: RunConfig) -> LinearModel:
    with open(config.model_path, "r", encoding="utf-8") as fh:
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


def cmd_classify(config: RunConfig) -> int:
    model = _load_model(config)
    cls = classify(model)
    if config.json_output:
        _emit(canonical_json(_classification_dict(cls)), config.out_path)
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
    _emit("\n".join(lines), config.out_path)
    return 0


def cmd_analyze(config: RunConfig) -> int:
    model = _load_model(config)
    law = stationary.stationary_law(model)  # NoStationaryLawError -> exit 1
    report = {
        "xi": _matrix_list(law.Xi),
        "epr": law.epr,
        "hdr": stationary.heat_dissipation_rate_stationary(law),
        "fdr_standard": law.fdr_standard_residual,
        "fdr_strong": law.fdr_strong_residual,
        "r_tau": {
            _fmt(tau): _matrix_list(stationary.two_time_covariance(law, tau))
            for tau in config.tau_list
        },
    }
    _emit(canonical_json(report), config.out_path)
    return 0


def _csv_cells(values) -> str:
    """Comma-joined shortest round-trip reprs of Python floats.

    Callers pass ndarray.tolist() output: repr of a Python float gives the
    same digits as _fmt without a numpy scalar per cell.
    """
    return ",".join(map(repr, values))


def _write_trajectory_csv(path: str, traj: sampler.Trajectory) -> None:
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",W"
    dt = float(traj.dt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        # One tolist() per row: converting the whole path at once would hold
        # a Python float object for every cell of the path at the same time.
        for k, (row, w) in enumerate(zip(traj.states, traj.heat)):
            fh.write(f"{k * dt!r},{_csv_cells(row.tolist())},{float(w)!r}\n")


def cmd_simulate(config: RunConfig) -> int:
    model = _load_model(config)
    if config.out_path is None:
        raise ValueError("simulate requires --out (output file prefix)")
    law = stationary.stationary_law(model) if config.stationary_start else None
    x0 = None
    if not config.stationary_start:
        x0 = np.zeros(model.n) if config.x0 is None else np.asarray(config.x0, dtype=float)
    batch = sampler.sample_batch(
        model,
        dt=config.dt,
        steps=config.steps,
        n_paths=config.paths,
        seed=config.seed,
        x0=x0,
        law=law,
        method=config.method,
    )
    for k in range(batch.n_paths):
        _write_trajectory_csv(f"{config.out_path}_p{k}.csv", batch.path(k))
    return 0


def cmd_transient(config: RunConfig) -> int:
    model = _load_model(config)
    x0 = np.zeros(model.n) if config.x0 is None else np.asarray(config.x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"--x0 must have {model.n} components")
    if not (0 < config.t_step < math.inf and 0 <= config.t_max < math.inf):
        raise ValueError("transient grid requires finite --t-step > 0 and --t-max >= 0")
    factors = transient.rate_factors(model)
    reversible = factors.verdict is Verdict.REVERSIBLE
    n = model.n
    header = ["t"]
    header += [f"mean_{i + 1}" for i in range(n)]
    header += [f"cov_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += ["entropy", "epr_t", "hdr_t", "entropy_rate"]
    if reversible:
        header.append("free_energy")
    # Point mass at t = 0: entropy and rates are undefined, not -inf.
    undefined = "," * (len(header) - 1 - n - n * n)
    rows = [",".join(header)]
    n_rows = int(math.floor(config.t_max / config.t_step + 1e-9)) + 1
    states = transient.propagate_grid(model, x0, config.t_step, n_rows)
    for k, state in enumerate(states):
        law = _csv_cells([k * config.t_step, *state.mean.tolist(), *state.cov.ravel().tolist()])
        try:
            snap = factors.rates(state)
        except UndefinedEntropyError:
            rows.append(law + undefined)
            continue
        rates = [snap.entropy, snap.epr_t, snap.hdr_t, snap.entropy_rate]
        if reversible:
            rates.append(snap.free_energy)
        rows.append(f"{law},{_csv_cells(rates)}")
    _emit("\n".join(rows), config.out_path)
    return 0


def _skipped(reason: str) -> dict:
    return {"skipped": True, "reason": reason}


def cmd_verify(config: RunConfig) -> int:
    model = _load_model(config)
    cls = classify(model)
    sections: dict[str, dict] = {}
    sections["classification"] = dict(_classification_dict(cls), **{"pass": True})

    if cls.verdict is Verdict.SWEEPING:
        reason = "no stationary law (sweeping model)"
        for name in ("fdr", "epr_vs_hdr_mc", "two_time_symmetry", "green_kubo"):
            sections[name] = _skipped(reason)
        report = {"pass": True, "sections": sections, "seed": config.seed}
        _emit(canonical_json(report), config.out_path)
        return 0

    law = stationary.stationary_law(model)
    reversible = cls.verdict is Verdict.REVERSIBLE

    standard, strong = stationary.fdr_residuals(law)
    strong_zero = strong <= FDR_RESIDUAL_TOL
    fdr_pass = standard <= FDR_RESIDUAL_TOL and strong_zero == reversible
    sections["fdr"] = {
        "standard_residual": standard,
        "strong_residual": strong,
        "strong_residual_zero": strong_zero,
        "pass": bool(fdr_pass),
    }

    batch = sampler.sample_batch(
        model,
        dt=config.dt,
        steps=config.steps,
        n_paths=config.paths,
        seed=config.seed,
        law=law,
    )
    epr = law.epr
    hdr = estimators.hdr_estimate(batch, burn_in=config.burn_in)
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

    stats = estimators.path_statistics(batch, config.tau_list, burn_in=config.burn_in)
    rev = estimators.reversibility_test(stats)
    sections["two_time_symmetry"] = {
        "statistic": rev.statistic,
        "threshold": rev.threshold,
        "verdict_reversible": rev.verdict_reversible,
        "classified_reversible": reversible,
        "pass": bool(rev.verdict_reversible == reversible),
    }

    cond_steps = max(1, int(round(max(config.tau_list) / config.dt)))
    cond_batch = sampler.sample_batch(
        model,
        dt=config.dt,
        steps=cond_steps,
        n_paths=config.paths,
        seed=config.seed + 1,
        x0=np.ones(model.n),
    )
    gk = estimators.greenkubo_check(
        cond_batch,
        model,
        config.tau_list,
        stats=stats,
        law=law,
    )
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
        "seed": config.seed,
        "budget": {
            "dt": config.dt,
            "steps": config.steps,
            "paths": config.paths,
            "burn_in": config.burn_in,
            "tau_list": list(config.tau_list),
        },
    }
    _emit(canonical_json(report), config.out_path)
    return 0 if overall else 4


def _add_model_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="path to the model JSON file ({'B': [[..]], 'Gamma': [[..]]})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouirrev",
        description="Classify, analyze, simulate, and statistically verify "
        "linear stochastic systems dx/dt = -B x + Gamma xi(t).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("classify", help="stability/reversibility verdict", formatter_class=fmt)
    _add_model_arg(p)
    p.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")

    p = sub.add_parser("analyze", help="stationary law and thermodynamics", formatter_class=fmt)
    _add_model_arg(p)
    p.add_argument(
        "--tau",
        default=",".join(str(v) for v in DEFAULT_TAUS),
        help="comma-separated lags for the two-time covariance",
    )
    p.add_argument("--out", default=None, help="write the JSON report to this file")

    p = sub.add_parser("simulate", help="sample trajectories to CSV files", formatter_class=fmt)
    _add_model_arg(p)
    p.add_argument("--out", required=True, help="output path prefix; files get suffix _p<k>.csv")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed (uint64)")
    p.add_argument("--dt", type=float, default=DEFAULT_DT, help="time step")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="steps per path")
    p.add_argument("--paths", type=int, default=DEFAULT_PATHS, help="number of paths")
    p.add_argument("--x0", default=None, help="comma-separated start point (default: origin)")
    p.add_argument(
        "--stationary",
        action="store_true",
        help="draw each path's start from the stationary law",
    )
    p.add_argument(
        "--method",
        choices=("exact", "euler"),
        default="exact",
        help="exact transition sampling or Euler-Maruyama reference",
    )

    p = sub.add_parser("transient", help="time-dependent law as a CSV series", formatter_class=fmt)
    _add_model_arg(p)
    p.add_argument("--x0", default=None, help="comma-separated start point (default: origin)")
    p.add_argument("--t-max", type=float, default=2.0, help="last grid time")
    p.add_argument("--t-step", type=float, default=0.1, help="grid spacing")
    p.add_argument("--out", default=None, help="write the CSV to this file instead of stdout")

    p = sub.add_parser("verify", help="Monte Carlo vs. analytic check suite", formatter_class=fmt)
    _add_model_arg(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed (uint64)")
    p.add_argument("--dt", type=float, default=DEFAULT_DT, help="time step")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="steps per path")
    p.add_argument("--paths", type=int, default=DEFAULT_PATHS, help="number of paths")
    p.add_argument("--burn-in", type=float, default=DEFAULT_BURN_IN, help="discarded warmup time")
    p.add_argument(
        "--tau",
        default=",".join(str(v) for v in DEFAULT_TAUS),
        help="comma-separated lags / checkpoint times",
    )
    p.add_argument("--out", default=None, help="write the JSON report to this file")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs: dict = {"model_path": args.model}
    if hasattr(args, "seed"):
        if not (0 <= args.seed < 2**64):
            raise ValueError("--seed must fit in an unsigned 64-bit integer")
        kwargs["seed"] = args.seed
    for name in ("dt", "steps", "paths", "method"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if hasattr(args, "burn_in"):
        kwargs["burn_in"] = args.burn_in
    if getattr(args, "tau", None) is not None:
        kwargs["tau_list"] = _parse_floats(args.tau, "--tau")
    if getattr(args, "out", None) is not None:
        kwargs["out_path"] = args.out
    if getattr(args, "json", False):
        kwargs["json_output"] = True
    if getattr(args, "x0", None) is not None:
        kwargs["x0"] = _parse_floats(args.x0, "--x0")
    if getattr(args, "stationary", False):
        kwargs["stationary_start"] = True
    if hasattr(args, "t_max"):
        kwargs["t_max"] = args.t_max
        kwargs["t_step"] = args.t_step
    return RunConfig(**kwargs)


_COMMANDS = {
    "classify": cmd_classify,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "transient": cmd_transient,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return _COMMANDS[args.command](config)
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
