import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ouirrev


def test_public_names_resolve():
    assert len(set(ouirrev.__all__)) == len(ouirrev.__all__) == 41
    for name in ouirrev.__all__:
        assert getattr(ouirrev, name) is not None


def test_public_names_are_their_home_modules_objects():
    # Each name resolves on first use to the object its home module defines.
    for name in ouirrev.__all__:
        obj = getattr(ouirrev, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__ == f"ouirrev.{ouirrev._HOME[name]}"
        assert getattr(home, name) is obj


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ouirrev import *", namespace)
    for name in ouirrev.__all__:
        assert namespace[name] is getattr(ouirrev, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ouirrev.no_such_name


def test_removed_names_gone():
    from ouirrev import _csvfmt, cli, estimators, model, sampler, stationary, transient

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
        (sampler, "sample_batch"),
        (sampler, "TrajectoryBatch"),
        (sampler, "_Layout"),
        (sampler, "_validate_paths"),
        (sampler, "_StepHeat"),
        (model, "drift"),
        (model, "model_to_dict"),
        (cli, "_csv_cells"),
        (cli, "_CSV_CALL_CELLS"),
        (cli, "_matrix_list"),
        (cli, "GREEN_KUBO_Z_MAX"),
        (cli, "HDR_REL_ERR_MAX"),
        (cli, "HDR_ZERO_SIGMAS"),
        (cli, "FDR_RESIDUAL_TOL"),
        (cli, "_skipped"),
        (_csvfmt, "rows"),
        (transient, "RateFactors"),
        (transient, "rate_factors"),
        (transient, "_reversible_factors"),
    ]:
        assert not hasattr(module, name)
        assert not hasattr(ouirrev, name)
        assert name not in ouirrev.__all__
    for cls, name in [
        (estimators.PathStatistics, "lags"),
        (estimators.ReversibilityResult, "note"),
        (estimators.HdrEstimate, "n_paths"),
        (stationary.StationaryLaw, "M"),
        (model.Classification, "ainv_b"),
    ]:
        assert name not in cls.__dataclass_fields__
    assert not hasattr(estimators._LagSums, "result")


def test_removed_parameters_gone():
    # The Green-Kubo check runs at the time step of its statistics, the
    # reversibility test at REVERSIBILITY_THRESHOLD, and the consumers of
    # stream_batch write into the caller's arrays, so it returns nothing.
    from ouirrev import estimators, sampler

    assert "dt" not in inspect.signature(estimators.greenkubo_check).parameters
    assert "dt" in estimators.PathStatistics.__dataclass_fields__
    assert "threshold" not in inspect.signature(estimators.reversibility_test).parameters
    assert "threshold" in estimators.ReversibilityResult.__dataclass_fields__
    assert inspect.signature(sampler.stream_batch).return_annotation in (None, "None")
    # The heat takes its path count from each block, and a chunk's paths fill
    # its tiles from column 0: no path range or column slice is passed.
    assert list(inspect.signature(estimators._StepHeat).parameters) == ["s_mat"]
    assert "cols" not in inspect.signature(sampler._integrate).parameters


def test_model_holds_the_one_ainv_b():
    # build_model solves A^-1 B once; the rates read the model's copy
    from ouirrev import transient
    from ouirrev.model import build_model

    m = build_model([[1.0, 1.0], [-1.0, 1.0]], [[2.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(m.ainv_b, np.linalg.solve(m.A, m.B))
    for arr in (m.B, m.Gamma, m.A, m.ainv_b):
        assert not arr.flags.writeable
    assert "ainv_b" not in inspect.signature(transient._moment_rates).parameters


def _run_python(code: str, *args: str, **env) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(ouirrev.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_skips_process_pool():
    # concurrent.futures is imported only for a run with workers > 1
    code = (
        "import sys, ouirrev.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert _run_python(code).strip() == "[]"


_PRINT_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ouirrev')))"


def test_package_import_loads_no_submodule():
    # dir lists every public name before any is resolved, and resolves none
    code = "import sys, ouirrev\nassert set(ouirrev.__all__) <= set(dir(ouirrev))\n"
    assert _run_python(code + _PRINT_LOADED).split() == ["ouirrev"]


# The package modules each entry point loads besides ouirrev, cli, exceptions,
# linalg and model, which importing the CLI loads. The CSV formatter is
# imported, and its tables built, by the first CSV write: not by commands that
# write none, nor by importing the CLI.
_LOADED = {
    "import-cli": ([], []),
    "classify": (["classify"], []),
    "analyze": (["analyze"], ["stationary", "transient"]),
    "transient": (["transient", "--x0", "2,0"], ["_csvfmt", "transient"]),
    "simulate": (["simulate", "--steps", "10"], ["_csvfmt", "estimators", "sampler"]),
    "simulate-stationary": (
        ["simulate", "--steps", "10", "--stationary"],
        ["_csvfmt", "estimators", "sampler", "stationary", "transient"],
    ),
    "verify": (
        ["verify", "--paths", "20", "--steps", "2000", "--burn-in", "2", "--seed", "7"],
        ["estimators", "sampler", "stationary", "transient"],
    ),
}


@pytest.mark.parametrize("entry", list(_LOADED))
def test_modules_loaded(entry, tmp_path):
    command, own = _LOADED[entry]
    args = []
    if command:
        model = tmp_path / "rot2.json"
        model.write_text('{"B": [[1.0, 1.0], [-1.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}')
        args = [command[0], str(model), *command[1:], "--out", str(tmp_path / "out")]
    code = (
        "import sys, ouirrev.cli\n"
        "assert not sys.argv[1:] or ouirrev.cli.main(sys.argv[1:]) == 0\n" + _PRINT_LOADED
    )
    core = ["cli", "exceptions", "linalg", "model"]
    want = ["ouirrev", *(f"ouirrev.{m}" for m in core + own)]
    assert _run_python(code, *args).split() == sorted(want)


def test_worker_threads_start_no_processes():
    # Two workers run the chunks of stream_batch, called directly and by
    # stationary_statistics, on threads: a thread pool is imported,
    # multiprocessing never is.
    code = """
import sys
from ouirrev import estimators, sampler
from ouirrev.model import build_model
from ouirrev.stationary import stationary_law

law = stationary_law(build_model([[1.0, 1.0], [-1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]))
assert len(sampler._chunk_bounds(130, 1000, 2)) == 2
sampler.stream_batch(
    law.model, 0.01, 100, 130, 3, lambda lo, hi: lambda k, states: None,
    chunk_paths=1000, law=law,
)
assert len(sampler._chunk_bounds(70, sampler._budget_paths(2 * 100 * 2), 2)) == 2
estimators.stationary_statistics(law, 0.01, 100, 70, 3, (0.1, 0.5))
print(sorted(m for m in ("concurrent.futures.thread", "multiprocessing") if m in sys.modules))
"""
    assert _run_python(code, OU_IRREV_THREADS="2").strip() == "['concurrent.futures.thread']"


def test_readme_api_sketch_runs():
    # The README's Python API sketch, run as written.
    readme = Path(ouirrev.__file__).parents[2] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Python API sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _run_python(code).splitlines()
    assert lines[0] == "Irreversible"
    assert len(lines) == 5
