import os
import subprocess
import sys
from pathlib import Path

import ouirrev


def test_public_names_resolve():
    assert len(set(ouirrev.__all__)) == len(ouirrev.__all__)
    for name in ouirrev.__all__:
        assert getattr(ouirrev, name) is not None


def test_removed_names_gone():
    from ouirrev import cli, estimators, model, sampler, stationary

    for module, name in [
        (stationary, "entropy_production_rate"),
        (stationary, "fdr_residuals"),
        (stationary, "heat_dissipation_rate_stationary"),
        (estimators, "empirical_two_time"),
        (estimators, "empirical_moments"),
        (estimators, "MomentEstimate"),
        (estimators, "MIN_EFFECTIVE_SAMPLES"),
        (estimators, "path_statistics"),
        (estimators, "hdr_estimate"),
        (estimators, "_path_statistics"),
        (estimators, "_heat_rate"),
        (sampler, "sample_path"),
        (sampler, "euler_maruyama_path"),
        (sampler, "_single_path"),
        (sampler, "sample_stationary_start"),
        (sampler, "ExactStepper"),
        (sampler, "make_exact_stepper"),
        (sampler, "Trajectory"),
        (sampler, "_validate_run"),
        (sampler, "_consume_chunk"),
        (model, "drift"),
        (cli, "_csv_cells"),
    ]:
        assert not hasattr(module, name)
        assert not hasattr(ouirrev, name)
        assert name not in ouirrev.__all__
    for name in ("path", "t_final", "method", "seed", "dim", "stationary_start"):
        assert name not in dir(sampler.TrajectoryBatch)
        assert name not in sampler.TrajectoryBatch.__dataclass_fields__
    assert "lags" not in estimators.PathStatistics.__dataclass_fields__
    for cls, name in [
        (sampler._Layout, "allocate"),
        (sampler._Layout, "result"),
        (estimators._LagSums, "result"),
    ]:
        assert not hasattr(cls, name)


def _run_python(code: str, **env) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(ouirrev.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_skips_process_pool():
    # concurrent.futures is imported only for a run with workers > 1
    code = (
        "import sys, ouirrev.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert _run_python(code).strip() == "[]"


def test_cli_import_skips_csv_formatter():
    # The CSV formatter is imported, and its tables built, by the first CSV
    # write: not by commands that write none, nor by importing the CLI.
    code = "import sys, ouirrev.cli; print('ouirrev._csvfmt' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_worker_threads_start_no_processes():
    # Two workers run the chunks of both entry points on threads: a thread
    # pool is imported, multiprocessing never is.
    code = """
import sys
from ouirrev import estimators, sampler
from ouirrev.model import build_model
from ouirrev.stationary import stationary_law

law = stationary_law(build_model([[1.0, 1.0], [-1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]))
assert len(sampler._chunk_bounds(130, sampler._budget_paths(101 * 2), 2)) == 2
sampler.sample_batch(law.model, 0.01, 100, 130, 3, law=law)
assert len(sampler._chunk_bounds(70, sampler._budget_paths(2 * 100 * 2), 2)) == 2
estimators.stationary_statistics(law, 0.01, 100, 70, 3, (0.1, 0.5))
print(sorted(m for m in ("concurrent.futures.thread", "multiprocessing") if m in sys.modules))
"""
    assert _run_python(code, OU_IRREV_THREADS="2").strip() == "['concurrent.futures.thread']"
