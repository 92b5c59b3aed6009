"""ouirrev benchmark: real CLI commands, each in a fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
One parent process runs one child at a time (a closed loop of one client), so
the children never compete with each other for the cores.

--trace 0 (end to end, no tracing): cycles of the command, a setup probe and
  reference.py for about S seconds (at least MIN_CYCLES cycles), then
  wall_s       median wall time of the command, spawn to exit
  cpu_s        median user + system CPU of the command and what it waited for
  peak_rss_mb  median peak resident memory of the command
  setup_s      median time from spawn until ouirrev.cli is imported and the
               model file parsed and validated (the setup probe)
  The host's speed drifts by tens of percent over minutes, so wall_s and
  setup_s are scaled by REFERENCE_S / median reference wall time, and cpu_s
  by REFERENCE_S / median reference CPU time: they are seconds at the machine
  speed at which the reference takes REFERENCE_S. The unscaled samples go to
  the details line.

--trace 1 (per layer): alternates untraced and traced commands for ~S seconds
  and reports, from the traced ones, median calls / total / self seconds of
  the public functions of each package module (see child.py), the sampler's
  path-step and array-byte counts, the bytes the command wrote, the import
  time, tracing_overhead_s (median traced minus median untraced wall), and a
  sweep of the dense kernels at n = 2, 8, 16, 32.

Every command's outputs are checked against oracles that do not use the
package (see workloads.py), and must be byte-identical across the runs of one
invocation; their SHA-256 digests, the per-run samples and the provenance go
to the line before the result. A run that exits nonzero or fails a check
counts in `failed`. The last line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, file_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_CYCLES = 3
# Typical wall time of reference.py (one BLAS thread) on a 2-core 2.1 GHz Xeon VM;
# the timing metrics are expressed at the machine speed where it takes this long.
REFERENCE_S = 0.32
CHILD_TIMEOUT_S = 120.0
ENTRY = "import sys; from ouirrev.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import json, sys; import ouirrev.cli; from ouirrev.model import model_from_dict\n"
    "with open(sys.argv[1], encoding='utf-8') as fh: model_from_dict(json.load(fh))\n"
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
# Children run with one BLAS thread. The program's own parallelism is
# OU_IRREV_THREADS (left as the caller set it; serial when unset). On a
# 2-core host shared with other tenants, a second BLAS thread makes the main
# thread wait whenever a neighbour holds the other core, which measured as
# both slower and noisier than one thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-layer spans reported by name; a function the workload never reaches
# reports 0 calls and 0 seconds.
SPAN_METRICS = (
    ("sampler.sample_batch", ("calls", "self_s")),
    ("sampler.path_stream", ("calls", "self_s")),
    ("sampler.make_exact_stepper", ("total_s",)),
    ("estimators.reversibility_test", ("self_s",)),
    ("estimators.greenkubo_check", ("self_s",)),
    ("estimators.hdr_estimate", ("self_s",)),
    ("linalg.eig", ("calls", "self_s")),
    ("linalg.expm", ("calls", "self_s")),
    ("linalg.gram_integral", ("calls", "self_s")),
    ("linalg.solve_lyapunov", ("calls", "self_s")),
    ("linalg.chol_spd", ("calls", "self_s")),
    ("linalg.sym_defect", ("calls",)),
    ("model.build_model", ("total_s",)),
    ("model.classify", ("calls", "total_s")),
    ("transient.propagate", ("calls", "total_s")),
    ("transient.instantaneous_rates", ("calls", "total_s")),
    ("stationary.stationary_law", ("total_s",)),
    ("cli.cmd_verify", ("self_s",)),
    ("cli.cmd_simulate", ("self_s",)),
    ("cli.cmd_transient", ("self_s",)),
)
SPAN_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], ready_line: bool = False) -> dict:
    """Spawn one child and reap it with wait4 for its resource usage.

    Returns wall seconds (spawn to exit), CPU seconds and peak RSS of the
    child and the processes it waited for, the exit code, and with
    ready_line the seconds from spawn to the child's first stdout line.
    """
    stderr_path = WORK / "stderr.txt"
    ready_s = None
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if ready_line else subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if ready_line:
                with proc.stdout:
                    if proc.stdout.readline() == b"ready\n":
                        ready_s = time.perf_counter() - start
                    proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "ready_s": ready_s,
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    }


def provenance(seed: int) -> dict:
    import numpy as np

    sys.path.insert(0, str(SRC))
    from ouirrev import __version__
    from ouirrev.sampler import resolve_workers

    workers = resolve_workers()
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "seed": seed,
        "commit": commit,
        "ouirrev": __version__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            name: child_env().get(name) for name in ("OU_IRREV_THREADS", *BLAS_THREADS)
        },
        "workers": f"{workers} (serial)" if workers == 1 else str(workers),
    }


def median(values: list[float]) -> float:
    """Median of the samples; 0.0 when every sample failed, which the run
    then reports through `failed`."""
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Session:
    """One benchmark invocation: runs commands, checks them, tallies failures."""

    def __init__(self, prepared) -> None:
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict[str, str] = {}  # known defects seen on the way, not failures
        self.digests: dict[str, str] | None = None
        self.first_code: int | None = None
        self.first_problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)
                print(f"check failed: {problem}", file=sys.stderr)

    def command(self, traced: bool) -> dict:
        """Run the workload command once and check its outputs."""
        for path in self.prepared.outputs:
            path.unlink(missing_ok=True)
        trace_out = WORK / "trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_out)]
        else:
            argv = [sys.executable, "-c", ENTRY]
        result = run_child(argv + self.prepared.args)
        self.attempted += 1
        if traced and result["code"] in (0, 4):
            result["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
        missing = [p.name for p in self.prepared.outputs if not p.exists()]
        if missing:
            self.fail([f"exit {result['code']}, missing outputs {missing[:3]}: {result['stderr']}"])
            return result
        digests = file_digests(self.prepared.outputs)
        if self.digests is None:
            # Identical bytes pass identical checks, so the oracles run once.
            self.digests, self.first_code = digests, result["code"]
            self.first_problems = self.prepared.check(result["code"])
        if digests != self.digests:
            self.fail(["output bytes differ between runs of the same inputs"])
        elif result["code"] != self.first_code:
            self.fail([f"exit code {result['code']} differs from {self.first_code}"])
        elif self.first_problems:
            self.fail(self.first_problems)
        result["bytes_written"] = sum(p.stat().st_size for p in self.prepared.outputs)
        return result

    def reference(self) -> dict:
        result = run_child([sys.executable, str(HERE / "reference.py")])
        self.attempted += 1
        if result["code"] != 0:
            self.fail([f"reference exited {result['code']}: {result['stderr']}"])
        return result

    def setup(self) -> dict:
        result = run_child(
            [sys.executable, "-c", SETUP_PROBE, str(self.prepared.model_path)], ready_line=True
        )
        self.attempted += 1
        if result["code"] != 0 or result["ready_s"] is None:
            self.fail([f"setup probe exited {result['code']}: {result['stderr']}"])
        return result


def repeat(cycle, seconds: float) -> list:
    """Run cycle() back to back for about `seconds`: at least MIN_CYCLES
    times, and never start one that the median cycle so far says would end
    past the window."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < MIN_CYCLES or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        begin = time.perf_counter()
        results.append(cycle())
        durations.append(time.perf_counter() - begin)
    return results


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Cycle the command, a setup probe and the reference, so all three
    sample the same stretch of the window; report medians of the command's
    times rescaled by REFERENCE_S / median reference time."""
    cycles = repeat(
        lambda: (session.command(traced=False), session.setup(), session.reference()), seconds
    )
    runs, probes, refs = zip(*cycles)
    samples = {key: [run[key] for run in runs] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [probe["ready_s"] for probe in probes if probe["ready_s"] is not None]
    samples["reference_wall_s"] = [ref["wall_s"] for ref in refs]
    samples["reference_cpu_s"] = [ref["cpu_s"] for ref in refs]
    ref_wall, ref_cpu = median(samples["reference_wall_s"]), median(samples["reference_cpu_s"])
    wall_scale = REFERENCE_S / ref_wall if ref_wall else 0.0
    cpu_scale = REFERENCE_S / ref_cpu if ref_cpu else 0.0
    metrics = {
        "wall_s": {"value": median(samples["wall_s"]) * wall_scale, "unit": "s"},
        "cpu_s": {"value": median(samples["cpu_s"]) * cpu_scale, "unit": "s"},
        "peak_rss_mb": {"value": median(samples["peak_rss_mb"]), "unit": "MB"},
        "setup_s": {"value": median(samples["setup_s"]) * wall_scale, "unit": "s"},
    }
    return metrics, samples


def per_layer(session: Session, seconds: float, seed: int) -> tuple[dict, dict]:
    """Cycle an untraced and a traced command; report medians over the traced
    runs, the traced-minus-untraced wall time, and the kernel sweep."""
    cycles = repeat(
        lambda: (session.command(traced=False), session.command(traced=True)), seconds
    )
    plain = [run for run, _ in cycles]
    traced = [run for _, run in cycles]
    traces = [run["trace"] for run in traced if "trace" in run]

    def median_of(get) -> float:
        return median([get(t) for t in traces])

    metrics = {}
    for name, fields in SPAN_METRICS:
        for field in fields:
            index = SPAN_FIELDS[field]
            value = median_of(lambda t: t["spans"].get(name, [0, 0.0, 0.0])[index])
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = {"value": value, "unit": unit}
    for key, unit in (
        ("sampler.sample_batch.path_steps", "count"),
        ("sampler.sample_batch.array_bytes", "bytes"),
    ):
        metrics[key] = {"value": median_of(lambda t: t["counts"].get(key, 0)), "unit": unit}
    path_steps = metrics["sampler.sample_batch.path_steps"]["value"]
    batch_s = median_of(lambda t: t["spans"].get("sampler.sample_batch", [0, 0.0, 0.0])[1])
    metrics["sampler.sample_batch.path_steps_per_s"] = {
        "value": path_steps / batch_s if batch_s > 0 else 0.0,
        "unit": "1/s",
    }
    written = [run["bytes_written"] for run in traced if "bytes_written" in run]
    metrics["cli.bytes_written"] = {"value": median(written), "unit": "bytes"}
    metrics["cli.import_s"] = {"value": median_of(lambda t: t["import_s"]), "unit": "s"}
    metrics["tracing_overhead_s"] = {
        "value": median([run["wall_s"] for run in traced])
        - median([run["wall_s"] for run in plain]),
        "unit": "s",
    }

    kernel_out = WORK / "kernels.json"
    result = run_child(
        [sys.executable, str(HERE / "child.py"), "kernels", str(kernel_out), str(seed)]
    )
    session.attempted += 1
    if result["code"] != 0:
        session.fail([f"kernel sweep exited {result['code']}: {result['stderr']}"])
    else:
        sweep = json.loads(kernel_out.read_text(encoding="utf-8"))
        for key, value in sweep.pop("timings").items():
            metrics[key] = {"value": value, "unit": "s"}
        session.notes.update(sweep)
    samples = {
        "wall_s_untraced": [r["wall_s"] for r in plain],
        "wall_s_traced": [r["wall_s"] for r in traced],
    }
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ouirrev" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    seed = args.seed % 2**64
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[args.workload](WORK, seed))
        if args.trace:
            metrics, samples = per_layer(session, args.seconds, seed)
        else:
            metrics, samples = end_to_end(session, args.seconds)
        details = {
            "workload": args.workload,
            "argv": ["ouirrev"] + session.prepared.args,
            "provenance": provenance(seed),
            "samples": samples,
            "quartiles": {key: quartiles(values) for key, values in samples.items() if values},
            "exit_code": session.first_code,
            "output_sha256": session.digests,
            "problems": session.problems,
            "known_defects": session.notes,
        }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
