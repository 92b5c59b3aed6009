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
    from ouirrev import estimators, model, sampler, stationary

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
        (model, "drift"),
    ]:
        assert not hasattr(module, name)
        assert not hasattr(ouirrev, name)
        assert name not in ouirrev.__all__
    for name in ("path", "t_final", "method", "seed", "dim", "stationary_start"):
        assert name not in dir(sampler.TrajectoryBatch)
        assert name not in sampler.TrajectoryBatch.__dataclass_fields__
    assert "lags" not in estimators.PathStatistics.__dataclass_fields__


def test_cli_import_skips_process_pool():
    # concurrent.futures and multiprocessing are imported only for a run with workers > 1
    code = (
        "import sys, ouirrev.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ouirrev.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
