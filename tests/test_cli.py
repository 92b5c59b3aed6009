import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ouirrev
from ouirrev import _csvfmt, cli, estimators, linalg, sampler, stationary, transient
from ouirrev.cli import build_parser, canonical_json, main
from ouirrev.model import classify, model_from_dict
from ouirrev.stationary import stationary_law

import contract_fuzz
import oracles
from conftest import ring_model

GOLDEN = Path(__file__).parent / "golden" / "cli_defaults.json"

ROT = {"B": [[1.0, 1.0], [-1.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
REV = {"B": [[2.0, 1.0], [1.0, 2.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
SWEEP = {"B": [[-1.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
SCALAR = {"B": [[1.0]], "Gamma": [[1.0]]}
# Irreversible like ROT, with entries of B whose product with 1e308 overflows.
ROT_STIFF = {"B": [[2.0, 1.0], [-1.0, 2.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
SWEEP_1D = {"B": [[-1.0]], "Gamma": [[1.0]]}
SWEEP_FAST = {"B": [[-20.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
# Finite inputs at the edge of the double range: A = Gamma Gamma^T overflows
# in the first; 1e308 I + (1e308 I)^T would overflow in the second.
GAMMA_HUGE = {"B": [[1.0, 0.0], [0.0, 1.0]], "Gamma": [[1e200, 0.0], [0.0, 1e200]]}
B_HUGE = {"B": [[1e308, 0.0], [0.0, 1e308]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.fixture
def model_file(tmp_path):
    def write(payload, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassifyCommand:
    def test_rotational_human(self, model_file, capsys):
        assert main(["classify", model_file(ROT)]) == 0
        out = capsys.readouterr().out
        assert "Irreversible" in out
        assert "marginal: false" in out

    def test_rotational_json(self, model_file, capsys):
        code, report = run_json(capsys, ["classify", model_file(ROT), "--json"])
        assert code == 0
        assert report["verdict"] == "Irreversible"
        eigs = sorted(tuple(e) for e in report["eigenvalues"])
        assert eigs == [(1.0, -1.0), (1.0, 1.0)]

    def test_scalar_reversible(self, model_file, capsys):
        code, report = run_json(capsys, ["classify", model_file(SCALAR), "--json"])
        assert code == 0
        assert report["verdict"] == "Reversible"

    def test_sweeping_exits_zero(self, model_file, capsys):
        code, report = run_json(capsys, ["classify", model_file(SWEEP), "--json"])
        assert code == 0
        assert report["verdict"] == "Sweeping"

    @pytest.mark.filterwarnings("error")
    def test_extreme_finite_model(self, model_file, capsys):
        # sym(A^-1 B) is halved before the sum: no overflow, no numpy warning
        code, report = run_json(capsys, ["classify", model_file(B_HUGE), "--json"])
        assert code == 0
        assert report["verdict"] == "Reversible"
        assert capsys.readouterr().err == ""

    def test_validation_error_exit_1(self, model_file, capsys):
        bad = {"B": [[1.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [1.0, 0.0]]}
        assert main(["classify", model_file(bad)]) == 1

    def test_missing_file_exit_3(self, capsys):
        assert main(["classify", "/nonexistent/model.json"]) == 3

    def test_eig_failure_exit_2(self, model_file, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["classify", model_file(ROT)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1 and err.endswith("\n")


# Inputs whose step or grid matrices have a 1-norm beyond the double range:
# (argv after the model file, model). The "-product" cases overflow an entry
# of -B t itself, before its norm is taken; "simulate-gram" reaches
# gram_integral itself.
_NORM_OVERFLOW_CASES = {
    "simulate-dt": (["simulate", "--dt", "1e308"], ROT),
    "transient-t-step": (["transient", "--t-step", "1e308", "--t-max", "1e308"], ROT),
    "analyze-tau": (["analyze", "--tau", "1e308"], ROT),
    "simulate-dt-product": (["simulate", "--dt", "1e308"], ROT_STIFF),
    "transient-t-step-product": (
        ["transient", "--t-step", "1e308", "--t-max", "1e308"], ROT_STIFF
    ),
    "analyze-tau-product": (["analyze", "--tau", "1e308"], ROT_STIFF),
    "simulate-gram": (
        ["simulate", "--dt", "100"],
        {"B": ROT["B"], "Gamma": [[3e153, 0.0], [0.0, 3e153]]},
    ),
    # The Gram integral's 1-norm times t is finite, its double is not.
    "transient-gram-doubled-norm": (
        ["transient", "--t-step", "88.61027923279309", "--t-max", "1324.7815076419988"],
        {"B": [[2.360107103406195e-141]], "Gamma": [[1.0918380087638878e153]]},
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_NORM_OVERFLOW_CASES))
def test_norm_overflow_exit_2(case, model_file, tmp_path, capsys):
    # A 1-norm that overflows to inf is a numerical failure, reported in one
    # line: no numpy warning before it, and no OverflowError from log2(inf).
    (command, *options), payload = _NORM_OVERFLOW_CASES[case]
    argv = [command, model_file(payload), *options]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "paths")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _ring3(gamma: float) -> dict:
    """The irreversible 3-D drift B = [[1, 1, 0], [-1, 1, 0.5], [0, -0.5, 1]]
    with Gamma = gamma I."""
    return {
        "B": [[1.0, 1.0, 0.0], [-1.0, 1.0, 0.5], [0.0, -0.5, 1.0]],
        "Gamma": [[gamma if i == j else 0.0 for j in range(3)] for i in range(3)],
    }


_EXTREME_VERIFY = ["verify", "--paths", "20", "--steps", "500", "--burn-in", "0"]
# Extreme models that once broke the exit-code contract: (argv, model, exit
# code). "verify-zero-epr" is classified irreversible with epr = 0, which the
# hdr gate once divided by; the report is written and fdr fails (exit 4).
# "transient-expm-squaring" overflows in expm's squaring loop, and
# "simulate-recursion-overflow" in the sampler's recursion, inside a time
# block. In the "verify-*-overflow" cases a lag sum (Gamma = 1e153 I), a
# bootstrap norm (1e150 I) or a Green-Kubo standard error (1-D, 1e150) is not
# finite. The Lyapunov solve once warned: "analyze-sign-solve-overflow" has a
# finite X = A / 2 whose sign iteration's Y = 2 X overflows (exit 2), and
# "analyze-lyapunov-residual-overflow" a residual b x + x b^T that overflows
# (exit 1, as a backward error too large). "classify-cholesky-overflow" is an
# SPD test whose Cholesky factor overflows (exit 0, no warning).
# "analyze-stationary-epr-overflow" has a finite Xi and an epr beyond the
# double range (exit 2).
_EXTREME_CASES = {
    "verify-zero-epr": (
        ["verify", "--dt", "9.00379814016564e-49", "--steps", "60", "--paths", "4",
         "--burn-in", "0", "--tau", "9.00379814016564e-49,1.800759628033128e-48"],
        {"B": [[4.02217265112263]], "Gamma": [[-4.85257178520161e23]]},
        4,
    ),
    "transient-expm-squaring": (
        ["transient", "--x0=-1.0", "--t-step", "39.41844514309024",
         "--t-max", "551.8582320032633"],
        {"B": [[-386.5875048738971]], "Gamma": [[2.4557500496915087e-05]]},
        2,
    ),
    "simulate-recursion-overflow": (
        ["simulate", "--dt", "0.1", "--steps", "300", "--paths", "2"],
        {"B": [[-100.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]},
        2,
    ),
    "verify-lag-sum-overflow": (_EXTREME_VERIFY, _ring3(1e153), 2),
    "verify-bootstrap-norm-overflow": (_EXTREME_VERIFY, _ring3(1e150), 2),
    "verify-green-kubo-overflow": (_EXTREME_VERIFY, {"B": [[1.0]], "Gamma": [[1e150]]}, 2),
    "analyze-sign-solve-overflow": (["analyze"], {"B": [[1.0]], "Gamma": [[1e154]]}, 2),
    "analyze-lyapunov-residual-overflow": (
        ["analyze"],
        {
            "B": [[191.85217703159415, -1.4051042278509844e254],
                  [1.4051042278509844e254, 191.85217703159415]],
            "Gamma": [[-29966.496989940664, 0.0], [0.0, 6310.680776509004]],
        },
        1,
    ),
    "analyze-stationary-epr-overflow": (
        ["analyze"],
        {
            "B": [[1.4059661024526285e108, -7.823519314509885e221],
                  [7.823519314509885e221, 1.4059661024526285e108]],
            "Gamma": [[-1.9428032312870987e70, 0.0], [0.0, -1.9428032312870987e70]],
        },
        2,
    ),
    "classify-cholesky-overflow": (
        ["classify", "--json"],
        {
            "B": [[24065.680951538645, 4.252089385476805e-07],
                  [-7.93749087325149e215, 5.935966172352535e266]],
            "Gamma": [[1.1282780404888042, 0.0], [0.0, 55.53100030862028]],
        },
        0,
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_EXTREME_CASES))
def test_extreme_model_exit_code(case, model_file, tmp_path, capsys):
    # No traceback and no numpy warning: exits 0 and 4 write their report, and
    # exits 1 and 2 are one "error:" or "numerical failure:" line.
    (command, *options), payload, code = _EXTREME_CASES[case]
    if command == "simulate":
        options += ["--out", str(tmp_path / "paths")]
    assert main([command, model_file(payload), *options]) == code
    captured = capsys.readouterr()
    if code == 4:
        report = json.loads(captured.out)
        assert not report["sections"]["fdr"]["pass"]
        assert report["sections"]["epr_vs_hdr_mc"]["pass"]
        assert captured.err == ""
    elif code == 0:
        assert json.loads(captured.out) and captured.err == ""
    else:
        assert captured.err.startswith({1: "error: ", 2: "numerical failure: "}[code])
        assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["simulate-recursion-overflow", "verify-lag-sum-overflow"])
def test_extreme_model_worker_threads(case, model_file, tmp_path, capsys, monkeypatch):
    # Two or three chunks on two worker threads, which keep their own numpy error
    # state: still one line and no warning.
    monkeypatch.setenv("OU_IRREV_THREADS", "2")
    (command, *options), payload, _ = _EXTREME_CASES[case]
    options += ["--paths", "130", "--out", str(tmp_path / "paths")]
    assert main([command, model_file(payload), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contract_fuzz(seed):
    # Random models (entries 1e-310 to 1e308) and options through every
    # command keep the exit-code contract; CI runs contract_fuzz.py at 5000
    # cases on three other seeds.
    done, broken = contract_fuzz.sweep(1000, seed)
    assert broken is None, broken
    assert done == 1000


class TestAnalyzeCommand:
    def test_rotational_values(self, model_file, capsys):
        code, report = run_json(capsys, ["analyze", model_file(ROT)])
        assert code == 0
        assert report["epr"] == pytest.approx(2.0, abs=1e-10)
        assert report["hdr"] == pytest.approx(2.0, abs=1e-10)
        assert report["fdr_standard"] <= 1e-10
        assert report["fdr_strong"] == pytest.approx(math.sqrt(2) / (1 + math.sqrt(2)), abs=1e-9)
        assert set(report["r_tau"]) == {"0.1", "0.5", "1.0"}
        assert np.allclose(report["xi"], np.eye(2) / 2, atol=1e-10)

    def test_reversible_residuals(self, model_file, capsys):
        code, report = run_json(capsys, ["analyze", model_file(REV)])
        assert code == 0
        assert report["epr"] <= 1e-10
        assert report["fdr_strong"] <= 1e-10

    def test_sweeping_exit_1(self, model_file, capsys):
        assert main(["analyze", model_file(SWEEP)]) == 1
        assert "no stationary law" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_norms_beyond_sum_of_squares(self, model_file, capsys):
        # ||B||_F^2 and ||A||_F^2 overflow, the norms of the Lyapunov and FDR
        # checks do not: Xi = diag(1/2, 1/4) exactly
        payload = {"B": [[1e200, 0.0], [0.0, 2e200]], "Gamma": [[1e100, 0.0], [0.0, 1e100]]}
        code, report = run_json(capsys, ["analyze", model_file(payload), "--tau", "1e-200"])
        assert code == 0
        assert report["xi"] == [[0.5, 0.0], [0.0, 0.25]]
        assert report["fdr_standard"] == report["fdr_strong"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_extreme_model_one_line(self, model_file, capsys):
        # B = 1e308 I: the solve's backward error rejects it, in one line,
        # with no numpy warning from the norms of the check
        assert main(["analyze", model_file(B_HUGE)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Lyapunov backward error too large; system near-singular\n"

    def test_json_round_trip_canonical(self, model_file, capsys):
        main(["analyze", model_file(ROT)])
        text = capsys.readouterr().out.strip()
        assert canonical_json(json.loads(text)) == text


class TestSimulateCommand:
    def test_reproducible_bytes(self, model_file, tmp_path, capsys):
        model = model_file(ROT)
        args = ["simulate", model, "--paths", "2", "--steps", "50", "--seed", "42"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for k in range(2):
            a = (tmp_path / f"a_p{k}.csv").read_bytes()
            b = (tmp_path / f"b_p{k}.csv").read_bytes()
            assert a == b

    def test_header_matches_dimension(self, model_file, tmp_path, capsys):
        assert (
            main(
                [
                    "simulate",
                    model_file(SCALAR),
                    "--paths",
                    "1",
                    "--steps",
                    "3",
                    "--out",
                    str(tmp_path / "s"),
                ]
            )
            == 0
        )
        lines = (tmp_path / "s_p0.csv").read_text().splitlines()
        assert lines[0] == "t,x1,W"
        assert len(lines) == 5  # header + t=0 row + 3 steps
        assert lines[1].startswith("0.0,")

    def test_heat_rate_tracks_epr(self, model_file, tmp_path, capsys):
        model = model_file(ROT)
        code = main(
            [
                "simulate",
                model,
                "--stationary",
                "--paths",
                "20",
                "--steps",
                "5000",
                "--seed",
                "11",
                "--out",
                str(tmp_path / "w"),
            ]
        )
        assert code == 0
        rates = []
        for k in range(20):
            last = (tmp_path / f"w_p{k}.csv").read_text().splitlines()[-1].split(",")
            rates.append(float(last[-1]) / float(last[0]))
        assert np.mean(rates) == pytest.approx(2.0, rel=0.15)

    def test_unwritable_output_exit_3(self, model_file, capsys, monkeypatch):
        # The first chunk's files are opened before any of its paths is drawn.
        def refuse(*args):
            raise AssertionError("sampled before opening the output files")

        monkeypatch.setattr(sampler, "_generate", refuse)
        argv = ["simulate", model_file(ROT), "--paths", "1", "--steps", "2"]
        assert main(argv + ["--out", "/nonexistent_dir/x"]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")


# Streamed-writer cases: (model, paths, flags, the oracle's arguments). Each
# runs 300 steps unless it says otherwise, which is not a whole number of
# 128-step time blocks.
_STREAM_CASES = {
    # one tile per chunk: three chunks, the last holding two paths
    "chunks": (ROT, 130, ["--x0", "2,-1"], {"x0": [2.0, -1.0]}),
    # t cells such as 3 * 0.1 = 0.30000000000000004
    "dt": (ROT, 2, ["--dt", "0.1"], {"dt": 0.1}),
    # t from 1e+16 on in exponent form
    "dt-exponent": (ROT, 2, ["--dt", "1e15"], {"dt": 1e15}),
    # subnormal t and heat cells, which only repr writes right
    "dt-subnormal": (
        ROT, 2, ["--method", "euler", "--dt", "5e-324"], {"dt": 5e-324, "method": "euler"}
    ),
    "euler-stationary": (ROT, 3, ["--method", "euler", "--stationary"], {"method": "euler"}),
    # more rows than one time-text window: blocks read a second window
    "long": (ROT, 2, [], {"steps": 8500}),
    # the heat overflows at step 178: a numerical failure (exit 2) at the
    # second time block, after the first block's rows are written
    "sweep-inf": (SWEEP_FAST, 2, ["--dt", "0.1"], {"dt": 0.1}),
}


class TestSimulateStream:
    """simulate writes each time block's rows as the sampler hands them over:
    the same bytes as the stored batch written path by path, with memory and
    open files that do not grow with the batch."""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @pytest.mark.parametrize("case", sorted(_STREAM_CASES))
    def test_matches_stored_writer(self, case, model_file, tmp_path, monkeypatch, opened, capsys):
        payload, n_paths, flags, kwargs = _STREAM_CASES[case]
        model = model_from_dict(payload)
        if "--stationary" in flags:
            kwargs = dict(kwargs, law=stationary_law(model))
        steps = kwargs.pop("steps", 300)
        want = oracles.simulate_files(model, kwargs.pop("dt", 0.01), steps, n_paths, 13, **kwargs)
        chunks = []
        stream = sampler.stream_batch

        def counting(model, dt, steps, n_paths, seed, make_consumer, **kwargs):
            def counted(lo, hi):
                chunks[-1] += 1
                return make_consumer(lo, hi)

            chunks.append(0)
            stream(model, dt, steps, n_paths, seed, counted, **kwargs)

        monkeypatch.setattr(sampler, "stream_batch", counting)
        monkeypatch.setattr(cli, "_CSV_CHUNK_PATHS", 1)  # rounded up to one tile
        argv = ["simulate", model_file(payload), "--paths", str(n_paths), "--steps", str(steps)]
        with warnings.catch_warnings():
            # the writer's finiteness check reports an overflow, not numpy
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--seed", "13", *flags, "--out", str(tmp_path / "s")])
        files, _ = opened
        assert len(files) == 1 + n_paths and all(fh.closed for fh in files)
        if case == "sweep-inf":
            # the header, the start row and the first time block's 128 steps
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: path ") and err.count("\n") == 1
            written = [b"".join(w.splitlines(keepends=True)[: 2 + 128]) for w in want]
            assert b"inf" not in written[0] and b"inf" in want[0][len(written[0]) :]
            want = written
        else:
            assert code == 0
            assert chunks == [-(-n_paths // sampler._TILE)]
        got = [(tmp_path / f"s_p{k}.csv").read_bytes() for k in range(n_paths)]
        for k in range(n_paths):
            assert got[k] == want[k], k
        if case == "dt":
            assert b"\n0.30000000000000004," in got[0]
        elif case == "dt-exponent":
            assert b"\n9000000000000000.0," in got[0] and b"\n1e+16," in got[0]
        elif case == "dt-subnormal":
            assert b"\n5e-324," in got[0] and b"\n1.48e-321," in got[0]
        elif case == "long":
            assert steps + 1 > _csvfmt._BLOCK_CELLS

    def test_time_column_formatted_once(self, model_file, tmp_path, monkeypatch):
        # The writer formats the time cells once for all 20 paths: each path's
        # 301 rows of x1, x2, W, and the 301 t cells once (20 x 301 x 4 =
        # 24 080 cells if every path formatted its own t). Passes: one per
        # time block (the start row, two blocks of 128 steps and one of 44),
        # each of at most 20 x 128 x 3 cells, after the time text of its
        # window: the start row's own, then rows 1 .. 300.
        passes = []
        shortest = _csvfmt._shortest

        def counting(bits):
            passes.append(len(bits))
            return shortest(bits)

        monkeypatch.setattr(_csvfmt, "_shortest", counting)
        argv = ["simulate", model_file(ROT), "--paths", "20", "--steps", "300"]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert sum(passes) == 20 * 301 * 3 + 301 == 18_361
        assert passes == [1, 20 * 1 * 3, 300, 20 * 128 * 3, 20 * 128 * 3, 20 * 44 * 3]

    def test_each_time_row_formatted_once(self, model_file, tmp_path, monkeypatch):
        # 8301 rows are more than one window of time text (8192 rows) holds:
        # the start row, rows 1 .. 8192 (64 blocks of 128 steps) and the rest.
        time_passes, in_time_text = [], [False]
        table, shortest = _csvfmt.table, _csvfmt._shortest

        def marking(x, prefix=None):
            in_time_text[0] = prefix is None  # the x1 .. xn, W rows have prefixes
            try:
                return table(x, prefix)
            finally:
                in_time_text[0] = False

        def counting(bits):
            if in_time_text[0]:
                time_passes.append(len(bits))
            return shortest(bits)

        monkeypatch.setattr(_csvfmt, "table", marking)
        monkeypatch.setattr(_csvfmt, "_shortest", counting)
        argv = ["simulate", model_file(ROT), "--paths", "2", "--steps", "8300"]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert sum(time_passes) == 8301
        assert time_passes == [1, 8192, 108]

    def test_worker_count_invariance(self, model_file, tmp_path, monkeypatch):
        # 70 paths: two workers get a tile of 64 and a chunk of 6
        argv = ["simulate", model_file(ROT), "--paths", "70", "--steps", "300", "--stationary"]
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("OU_IRREV_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path / "threads")]) == 0
        for k in range(70):
            serial = (tmp_path / f"serial_p{k}.csv").read_bytes()
            assert (tmp_path / f"threads_p{k}.csv").read_bytes() == serial, k

    def test_one_solve_per_run(self, model_file, tmp_path, monkeypatch):
        # 130 paths: chunks of 64, 64 and 2, whose heat reads the model's one
        # A^-1 B, which build_model solved; with --stationary too, and
        # classify solves none of its own
        solves, heats = [], []
        solve, step_heat = np.linalg.solve, estimators._StepHeat

        def counting_solve(a, b):
            if np.array_equal(b, ROT["B"]):
                solves.append(a)
            return solve(a, b)

        def counting_heat(s_mat):
            heats.append(s_mat)
            return step_heat(s_mat)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(estimators, "_StepHeat", counting_heat)
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        argv = ["simulate", model_file(ROT), "--paths", "130", "--steps", "10"]
        for flags in ([], ["--stationary"]):
            solves.clear()
            heats.clear()
            assert main([*argv, *flags, "--out", str(tmp_path / "run")]) == 0
            assert len(solves) == 1
            assert len(heats) == 3 and all(s is heats[0] for s in heats)
        solves.clear()
        assert main(["classify", model_file(ROT)]) == 0
        assert len(solves) == 1

    def test_bad_worker_count_exit_1(self, model_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OU_IRREV_THREADS", "abc")
        argv = ["simulate", model_file(ROT), "--paths", "2", "--steps", "10"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == "error: OU_IRREV_THREADS must be an integer >= 0, got 'abc'\n"

    def test_memory_independent_of_steps(self, model_file, tmp_path):
        # The stored batch alone would hold 20 x 20 001 x (2 + 1) doubles
        # (9.6 MB); the stream keeps one chunk's sampler buffers and one
        # formatter call's temporaries.
        argv = ["simulate", model_file(ROT), "--paths", "20", "--steps", "20000"]
        bound = 6 * 2**20
        assert bound < 20 * 20_001 * 3 * 8
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "m")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.fixture
    def opened(self, monkeypatch):
        """The files the CLI opens, and the most open at once (last entry)."""
        files, peak = [], [0]

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            files.append(fh)
            peak[0] = max(peak[0], sum(not f.closed for f in files))
            return fh

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        return files, peak

    def test_open_files_bounded(self, model_file, tmp_path, monkeypatch, opened):
        # 150 paths in chunks of one tile: at most 64 files open at once,
        # each closed with its chunk's last time block.
        files, peak = opened
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        argv = ["simulate", model_file(ROT), "--paths", "150", "--steps", "5"]
        assert main(argv + ["--out", str(tmp_path / "f")]) == 0
        assert len(files) == 1 + 150  # the model file, then one per path
        assert peak[0] == cli._CSV_CHUNK_PATHS < 150
        assert all(fh.closed for fh in files)

    def test_write_failure_closes_files(self, model_file, tmp_path, monkeypatch, opened, capsys):
        # The second chunk (6 of 70 paths) fails on its first block of steps,
        # after its files are open: exit 3, and every file is closed.
        files, _ = opened
        write = cli._CsvWriter.__call__

        def failing(self, k, states):
            if k > 0 and len(self.files) < sampler._TILE:
                raise OSError("No space left on device")
            write(self, k, states)

        monkeypatch.setattr(cli._CsvWriter, "__call__", failing)
        argv = ["simulate", model_file(ROT), "--paths", "70", "--steps", "300"]
        assert main(argv + ["--out", str(tmp_path / "w")]) == 3
        assert "No space left" in capsys.readouterr().err
        assert len(files) == 1 + 70
        assert all(fh.closed for fh in files)


class TestTransientCommand:
    def test_first_row_has_empty_entropy(self, model_file, capsys):
        assert main(["transient", model_file(REV), "--x0", "2,0", "--t-max", "0.3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["t", "mean_1", "mean_2"]
        assert "free_energy" in header  # reversible model
        row0 = lines[1].split(",")
        cov_cols = row0[3:7]
        assert all(float(c) == 0.0 for c in cov_cols)
        assert row0[header.index("entropy") :] == [""] * 5

    def test_negative_x0_with_equals_form(self, model_file, capsys):
        # "--x0 -1,0" reads as an option; "--x0=-1,0" passes the value
        assert main(["transient", model_file(ROT), "--x0=-1,0", "--t-max", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("t,mean_1,mean_2,")
        assert [float(c) for c in lines[1].split(",")[1:3]] == [-1.0, 0.0]

    def test_free_energy_column_absent_for_irreversible(self, model_file, capsys):
        assert main(["transient", model_file(ROT), "--x0", "1,0", "--t-max", "0.2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "free_energy" not in header

    def test_entropy_increases_then_saturates(self, model_file, capsys):
        assert (
            main(
                [
                    "transient",
                    model_file(REV),
                    "--x0",
                    "1,0",
                    "--t-max",
                    "12",
                    "--t-step",
                    "0.1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        idx = lines[0].split(",").index("entropy")
        values = [float(r.split(",")[idx]) for r in lines[2:]]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
        assert values[10] - values[0] > 0.1  # growing early
        assert abs(values[-1] - values[-2]) < 1e-6  # saturated late

    def test_final_covariance_reaches_stationary(self, model_file, capsys):
        assert (
            main(["transient", model_file(REV), "--t-max", "12", "--t-step", "0.5"]) == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        last = lines[-1].split(",")
        cov = np.array([float(last[header.index(f"cov_{i}{j}")]) for i in (1, 2) for j in (1, 2)])
        expected = 0.5 * np.linalg.solve([[2.0, 1.0], [1.0, 2.0]], np.eye(2)).reshape(-1)
        assert np.max(np.abs(cov.reshape(-1) - expected)) < 1e-8

    def test_classifies_once(self, model_file, capsys, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return classify(model)

        monkeypatch.setattr(cli, "classify", counting)
        monkeypatch.setattr(transient, "classify", counting)
        for payload in (REV, ROT):
            calls.clear()
            assert main(["transient", model_file(payload), "--x0", "1,0", "--t-max", "1"]) == 0
            assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "payload, t_max, t_step, t",
        [
            (SWEEP_1D, "400", "1", "355.0"),
            (SWEEP, "400", "1", "355.0"),
            (SWEEP_FAST, "30", "0.1", "17.900000000000002"),
        ],
        ids=["n1", "n2", "n2-fast"],
    )
    def test_overflow_exit_2(self, payload, t_max, t_step, t, model_file, capsys):
        # the message names the first grid row whose law is not finite
        x0 = ",".join(["1"] * len(payload["B"]))
        argv = ["transient", model_file(payload), "--x0", x0, "--t-max", t_max, "--t-step", t_step]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"numerical failure: transient law overflows at t = {t}\n"

    @pytest.mark.filterwarnings("error")
    def test_rate_matrix_overflow_exit_2(self, model_file, capsys):
        # B^T A^-1 B of B = 1e308 I overflows: a numerical failure in one
        # line, not a NaN that the CSV would show as an undefined (empty) cell
        argv = ["transient", model_file(B_HUGE), "--x0", "1,0"]
        assert main(argv + ["--t-max", "1e-308", "--t-step", "1e-308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: rate matrices B^T A^-1 B, 2 A^-1 B or tr B overflow\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_rate_overflow_exit_2(self, model_file, capsys):
        # the law of B = -I stays finite through t = 354, its rates from t = 332 on do not
        payload = {"B": [[-1.0, 0.0], [0.0, -1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
        argv = ["transient", model_file(payload), "--x0", "1e10,0", "--t-max", "354", "--t-step", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: transient rates overflow at t = 332.0\n"

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_grid_exit_1(self, t_max, model_file, capsys):
        assert main(["transient", model_file(ROT), "--t-max", t_max]) == 1
        assert "finite" in capsys.readouterr().err

    def test_grid_overflow_exit_1(self, model_file, capsys):
        # t_max / t_step is inf: the row count overflows before any work
        argv = ["transient", model_file(ROT), "--t-max", "1e300", "--t-step", "1e-300"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_unallocatable_grid_exit_1(self, model_file, capsys):
        # 1e15 rows: the first array of the grid cannot be allocated, so the
        # request fails at once, with one line and no traceback
        argv = ["transient", model_file(ROT), "--t-max", "1e12", "--t-step", "1e-3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1


_CSV_PIN_ARGS = ["--paths", "2", "--steps", "300", "--seed", "13"]
_CSV_PIN_CASES = {
    "exact-x0": ["--method", "exact", "--x0", "2,-1"],
    "exact-stationary": ["--method", "exact", "--stationary"],
    "euler-x0": ["--method", "euler", "--x0", "2,-1"],
    "euler-stationary": ["--method", "euler", "--stationary"],
}
_CSV_PIN_DIGESTS = {
    "exact-x0": "8fde6921da524a6aee7d1b092b6bd2e627156712a94753612dff567fca06efef",
    "exact-stationary": "2b8042665eb3fb2941017aa5a5254b3879054d0975b97266cae538f019c95cc0",
    "euler-x0": "19b2ff7cba07bc95f21bfb79583a174ac8826799eaae612bb541b47fe98d48d8",
    "euler-stationary": "2eeb8c524a21d276dda6d8e68ad66b9e66306c696dfcc74832b5e4b5a9dfa458",
}


class TestSimulateCsvPin:
    """Pins the exact bytes of `simulate` CSVs (rotational model, both paths).

    The digests rest on the same numpy RNG streams as the sampler's TestBitPin
    and on repr's shortest round-trip digits for every cell.
    """

    @pytest.mark.parametrize("case", sorted(_CSV_PIN_CASES))
    def test_digest(self, case, model_file, tmp_path, capsys):
        prefix = tmp_path / "pin"
        argv = ["simulate", model_file(ROT), *_CSV_PIN_ARGS, *_CSV_PIN_CASES[case]]
        assert main(argv + ["--out", str(prefix)]) == 0
        digest = hashlib.sha256()
        for k in range(2):
            digest.update((tmp_path / f"pin_p{k}.csv").read_bytes())
        assert digest.hexdigest() == _CSV_PIN_DIGESTS[case]


_VERIFY_PIN_ARGS = ["--paths", "20", "--steps", "2000", "--burn-in", "2"]
_VERIFY_PIN_CASES = {
    "rot2": (ROT, "7"),
    "ring8": (ring_model(8), "2"),
}
# Recorded when the heat rate came to be read from the lag-one products and
# the end states: only hdr_hat and hdr_stderr moved, by at most 2.7e-15 of
# max(|hdr_hat|, hdr_stderr).
_VERIFY_PIN_DIGESTS = {
    "rot2": "7ef11613e9af709653d0969a33ee4255464a5f056308a8ec26ac8346c7fe5b74",
    "ring8": "817bfbf6297b8f325d655907e96be3be3b36274a9897768dba940cd55f6b5f5f",
}


class TestVerifyJsonPin:
    """Pins the exact bytes of `verify` JSON reports at a light budget.

    Every estimator section (hdr, two-time symmetry, Green-Kubo) feeds the
    report, so a silent change in the bits of any estimate changes a digest.
    """

    @pytest.mark.parametrize("case", sorted(_VERIFY_PIN_CASES))
    def test_digest(self, case, model_file, capsys):
        payload, seed = _VERIFY_PIN_CASES[case]
        assert main(["verify", model_file(payload), *_VERIFY_PIN_ARGS, "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_PIN_DIGESTS[case]


_TRANSIENT_PIN_CASES = {
    "rot2": (ROT, ["--x0", "2,0", "--t-max", "5", "--t-step", "0.01"]),
    "rev2": (REV, ["--x0", "2,0", "--t-max", "5", "--t-step", "0.01"]),
    "ring8": (ring_model(8), ["--x0", "1,0,0,0,0,0,0,-1", "--t-max", "2", "--t-step", "0.01"]),
    # rows 0-10 fall below the Cholesky pivot floor, so their rate cells are empty
    "rot2-faint": (
        {"B": ROT["B"], "Gamma": [[1e-5, 0.0], [0.0, 1e-5]]},
        ["--x0", "2,0", "--t-max", "0.04", "--t-step", "0.001"],
    ),
}
_TRANSIENT_PIN_DIGESTS = {
    "rot2": "c84fd5d214446e05ce27bf8d806ef1cc5684ff23fbd6ff8de4e7ddf2cf026f9e",
    "rev2": "53d38c590dd246061429778eae727859b671bafb5fb34888465696e827e08e6f",
    "ring8": "e04fc2f314e618c816f1773524918cf38d15c339c98d168b742d358a1cf3f14b",
    "rot2-faint": "1e3372ea2f3d4b0e747b1d2bdcca92e61d973ebdf7075647e40ab6d2cd0795d7",
}


class TestTransientCsvPin:
    """Pins the exact bytes of `transient` CSVs: the law built by doubling,
    entropy, rates and (for the reversible model) free energy of every row."""

    @pytest.mark.parametrize("case", sorted(_TRANSIENT_PIN_CASES))
    def test_digest(self, case, model_file, capsys):
        payload, args = _TRANSIENT_PIN_CASES[case]
        assert main(["transient", model_file(payload), *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _TRANSIENT_PIN_DIGESTS[case]


class TestVerifyCommand:
    def test_rotational_passes(self, model_file, capsys):
        code, report = run_json(
            capsys,
            ["verify", model_file(ROT), "--paths", "100", "--steps", "4000", "--seed", "5"],
        )
        assert code == 0
        assert report["pass"] is True
        sections = report["sections"]
        assert sections["classification"]["verdict"] == "Irreversible"
        assert not sections["two_time_symmetry"]["verdict_reversible"]
        assert sections["epr_vs_hdr_mc"]["pass"]

    def test_reversible_passes(self, model_file, capsys):
        code, report = run_json(
            capsys,
            ["verify", model_file(REV), "--paths", "100", "--steps", "4000", "--seed", "5"],
        )
        assert code == 0
        assert report["sections"]["fdr"]["strong_residual"] <= 1e-10
        assert report["sections"]["two_time_symmetry"]["verdict_reversible"]

    @pytest.mark.parametrize("taus", ["0.1,0.5,1.0", "0.2,0.4,0.6,0.8,1.0", "0.01,0.5"])
    def test_lag_products_once_per_lag(self, taus, model_file, capsys, monkeypatch):
        calls = []
        kernel = estimators._lag_products

        def counting(later, earlier):
            calls.append(later.shape)
            return kernel(later, earlier)

        monkeypatch.setattr(estimators, "_lag_products", counting)
        argv = ["verify", model_file(ROT), "--paths", "20", "--steps", "2000", "--burn-in", "2"]
        assert main(argv + ["--tau", taus]) in (0, 4)
        # The stream forms each lag's products one super-block at a time: in
        # all, every time pair (t + lag, t) after the burn-in once.
        # The heat rate reads the lag-one sums: their pairs count once more
        # when no lag is one step, and are shared with a lag of one step.
        ells = [round(float(tau) / 0.01) for tau in taus.split(",")]
        ells += [] if 1 in ells else [1]
        assert sum(shape[1] for shape in calls) == sum(2001 - 200 - ell for ell in ells)
        assert {shape[0] for shape in calls} == {20}

    @pytest.mark.parametrize("payload", [ROT, ring_model(8), SWEEP], ids=["rot2", "ring8", "sweep"])
    def test_classifies_once(self, payload, model_file, capsys, monkeypatch):
        calls, eig_calls = [], []
        eig = linalg.eig

        def counting(model):
            calls.append(model)
            return classify(model)

        def counting_eig(b):
            eig_calls.append(b)
            return eig(b)

        monkeypatch.setattr(cli, "classify", counting)
        monkeypatch.setattr(stationary, "classify", counting)
        monkeypatch.setattr(linalg, "eig", counting_eig)
        argv = ["verify", model_file(payload), "--paths", "20", "--steps", "500", "--burn-in", "1"]
        assert main(argv) in (0, 4)
        assert len(calls) == 1
        assert len(eig_calls) == 1

    def test_worker_count_invariance(self, model_file, capsys, monkeypatch):
        # 70 paths: two workers get a tile of 64 and a chunk of 6
        argv = ["verify", model_file(ROT), *_VERIFY_PIN_ARGS, "--paths", "70", "--seed", "7"]
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        main(argv)
        serial = capsys.readouterr().out
        monkeypatch.setenv("OU_IRREV_THREADS", "2")
        main(argv)
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "extra, match",
        [(["--dt", "1e-320"], "burn-in"), (["--dt", "1e-320", "--burn-in", "0"], "lag")],
        ids=["burn-in-steps", "lag-steps"],
    )
    def test_step_count_overflow_exit_1(self, extra, match, model_file, capsys):
        # burn_in / dt or lag / dt is inf: rejected before it is rounded
        assert main(["verify", model_file(ROT), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert match in captured.err

    @pytest.mark.parametrize(
        "flag, value", [("--steps", "-5"), ("--paths", "0"), ("--burn-in", "-3"), ("--dt", "-1")]
    )
    def test_sweeping_budget_checked(self, flag, value, model_file, capsys):
        # A sweeping model samples nothing, but its budget is checked as
        # rot2's is: exit 1 with the same one-line message.
        errors = []
        for payload in (ROT, SWEEP):
            assert main(["verify", model_file(payload), flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            errors.append(captured.err)
        assert errors[0] == errors[1] and errors[0].startswith("error: ")

    def test_lag_near_grid_writes_report(self, model_file, capsys):
        # 0.100000005 / 0.01 is within 1e-6 of 10 steps: a lag on the grid for
        # the stationary statistics and for the Green-Kubo check alike.
        argv = ["verify", model_file(ROT), "--tau", "0.100000005,0.5"]
        code, report = run_json(capsys, argv)
        assert code in (0, 4)
        assert report["budget"]["tau_list"] == [0.100000005, 0.5]
        assert "max_abs_z_conditional_mean" in report["sections"]["green_kubo"]

    def test_default_budget_memory(self, model_file, capsys):
        # The stored batch alone held 200 x 10 001 x (2 + 1) doubles (48 MB);
        # the stream keeps per-path sums and a window of the longest lag and
        # two 256-step GEMM pieces per path. With the sampler's 256-step
        # draw spans it peaks at about 4.5 MiB; a window of the longest lag
        # and a 1024-step super-block peaked at about 5.8 MiB, and 1024-step
        # draw spans with a separate noise buffer at about 8.8 MiB.
        tracemalloc.start()
        try:
            assert main(["verify", model_file(ROT), "--seed", "3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.25 * 2**20

    @pytest.mark.parametrize(
        "budget",
        [["--paths", "20", "--steps", "500", "--burn-in", "1"], ["--seed", "3"]],
        ids=["small", "default"],
    )
    def test_one_dimensional_symmetry_skipped(self, budget, model_file, capsys):
        # R(tau) is 1x1, so every asymmetry and its bootstrap spread are 0:
        # the symmetry test is skipped, and the other sections still run.
        path = model_file({"B": [[2.0]], "Gamma": [[1.0]]})
        code, report = run_json(capsys, ["verify", path, *budget])
        assert code == 0 and report["pass"] is True
        sections = report["sections"]
        assert sections["two_time_symmetry"]["skipped"] is True
        assert "1x1" in sections["two_time_symmetry"]["reason"]
        for name in ("fdr", "epr_vs_hdr_mc", "green_kubo"):
            assert sections[name]["pass"] is True

    def test_sweeping_sections_skipped(self, model_file, capsys):
        code, report = run_json(capsys, ["verify", model_file(SWEEP)])
        assert code == 0
        assert report["sections"]["classification"]["verdict"] == "Sweeping"
        for name in ("fdr", "epr_vs_hdr_mc", "two_time_symmetry", "green_kubo"):
            assert report["sections"][name]["skipped"]
            assert "reason" in report["sections"][name]

    def test_report_round_trip(self, model_file, capsys):
        main(["verify", model_file(SWEEP)])
        text = capsys.readouterr().out.strip()
        assert canonical_json(json.loads(text)) == text


class TestVerifySections:
    """estimators.verify_sections, called in process, gives the sections of
    the CLI report, and the CLI reads each gate from there."""

    @pytest.mark.parametrize("case", [*sorted(_VERIFY_PIN_CASES), "sweep"])
    def test_matches_cli(self, case, model_file, capsys):
        payload, seed = _VERIFY_PIN_CASES.get(case, (SWEEP, "0"))
        argv = ["verify", model_file(payload), *_VERIFY_PIN_ARGS, "--seed", seed]
        code, report = run_json(capsys, argv)
        assert code == 0
        args = build_parser().parse_args(argv)
        law = None if case == "sweep" else stationary_law(model_from_dict(payload))
        sections = estimators.verify_sections(
            law,
            dt=args.dt,
            steps=args.steps,
            n_paths=args.paths,
            seed=args.seed,
            lags=args.tau,
            burn_in=args.burn_in,
        )
        del report["sections"]["classification"]
        assert sections == report["sections"]

    @pytest.mark.parametrize(
        "gate, section",
        [("GREEN_KUBO_Z_MAX", "green_kubo"), ("HDR_REL_ERR_MAX", "epr_vs_hdr_mc")],
    )
    def test_zero_gate_exit_4(self, gate, section, model_file, capsys, monkeypatch):
        # rot2 passes every section at its pin; with the gate at 0 only its section fails
        argv = ["verify", model_file(ROT), *_VERIFY_PIN_ARGS, "--seed", "7"]
        code, passing = run_json(capsys, argv)
        assert code == 0
        monkeypatch.setattr(estimators, gate, 0.0)
        code, failing = run_json(capsys, argv)
        assert code == 4 and failing["pass"] is False
        assert [name for name, sec in failing["sections"].items() if not sec["pass"]] == [section]
        # the other sections, and this one's statistics, are those of the passing run
        failed, kept = failing["sections"].pop(section), passing["sections"].pop(section)
        assert failing["sections"] == passing["sections"]
        stats = set(kept) - {"pass", "criterion"}
        assert {k: failed[k] for k in stats} == {k: kept[k] for k in stats}


class TestStdoutMatchesOut:
    """Every command that can write to stdout writes there, as bytes, what
    --out writes to its file."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify"], 0),
            (["classify", "--json"], 0),
            (["analyze"], 0),
            (["transient", "--x0", "2,0", "--t-max", "5"], 0),
            (["verify", "--paths", "20", "--steps", "300", "--burn-in", "1"], None),
        ],
        ids=["classify", "classify-json", "analyze", "transient", "verify"],
    )
    def test_same_bytes(self, argv, code, model_file, tmp_path, capsysbinary):
        command, *flags = argv
        argv = [command, model_file(ROT), *flags]
        stdout_code = main(argv)
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == stdout_code
        assert code is None or stdout_code == code
        assert capsysbinary.readouterr().out == b""
        assert stdout.endswith(b"\n") and stdout == out.read_bytes()


class TestParserContract:
    def test_defaults_golden_file(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        defaults = {}
        for name, sub in subparsers.choices.items():
            defaults[name] = {
                action.dest: action.default
                for action in sub._actions
                if action.dest not in ("help", "model")
            }
        assert defaults == json.loads(GOLDEN.read_text())

    def test_help_lists_flags_with_defaults(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for name, sub in subparsers.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                if action.dest in ("help", "model"):
                    continue
                assert action.option_strings[0] in text
                if action.default is not None and not isinstance(action.default, bool):
                    assert str(action.default) in text

    def test_bad_seed_rejected(self, model_file, capsys):
        assert main(["verify", model_file(ROT), "--seed", "-1"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{model}", "--steps", "abc"],
            ["verify", "{model}", "--seed", "-1"],
            ["verify", "{model}", "--seed", "18446744073709551616"],
            ["verify", "{model}", "--tau", "0.1,x"],
            ["verify", "{model}", "--tau", "0.5"],
            ["transient", "{model}", "--t-step", "abc"],
            ["bogus", "{model}"],
            [],
            ["transient", "{model}", "--x0", "nan,0"],
            ["transient", "{model}", "--x0", "inf,0"],
            ["verify", "{model}", "--tau", "0.1,inf"],
            ["verify", "{model}", "--burn-in", "inf"],
            ["verify", "{model}", "--burn-in", "nan"],
            ["verify", "{model}", "--tau", "0,0.5,1.0"],
        ],
        ids=[
            "steps",
            "seed-negative",
            "seed-2**64",
            "tau",
            "tau-one-lag",
            "t-step",
            "unknown-command",
            "no-command",
            "x0-nan",
            "x0-inf",
            "tau-inf",
            "burn-in-inf",
            "burn-in-nan",
            "tau-zero-lag",
        ],
    )
    def test_usage_error_exit_1(self, argv, model_file, capsys):
        path = model_file(ROT)
        assert main([path if a == "{model}" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        flags = [a for a in argv if a.startswith("--")]
        assert all(flag in captured.err for flag in flags)

    def test_one_lag_rejected_before_sampling(self, model_file, monkeypatch, capsys):
        class Sampled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Sampled

        # verify reaches the stream through the name estimators imported
        monkeypatch.setattr(sampler, "stream_batch", refuse)
        monkeypatch.setattr(estimators, "stream_batch", refuse)
        path = model_file(ROT)
        with pytest.raises(Sampled):
            main(["verify", path, "--tau", "0.5,1.0"])
        for tau in ("0.5", "0.5,0.5", "0,0.5"):
            assert main(["verify", path, "--tau", tau]) == 1
            assert "--tau" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "at least two" in " ".join(capsys.readouterr().out.split())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "verify" in capsys.readouterr().out

    def test_max_seed_accepted(self, model_file, capsys):
        seed = 2**64 - 1
        argv = ["verify", model_file(ROT), "--paths", "20", "--steps", "500", "--burn-in", "1"]
        code, report = run_json(capsys, [*argv, "--seed", str(seed)])
        assert code in (0, 4)
        assert report["seed"] == seed


class TestValidationExits:
    """Each malformed input exits 1 with exactly one "error:" line."""

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("{not json", ["classify"]),
            ("[1, 2]", ["classify"]),
            ('{"B": [1, 2], "Gamma": [[1.0]]}', ["classify"]),
            ('{"B": [[1.0, 0.0]], "Gamma": [[1.0]]}', ["classify"]),
            (json.dumps(ROT), ["verify", "--seed", "abc"]),
            (json.dumps(ROT), ["analyze", "--tau", ","]),
            (json.dumps(ROT), ["transient", "--x0", "1,2,3"]),
            (json.dumps(GAMMA_HUGE), ["verify"]),
        ],
        ids=[
            "not-json",
            "json-array",
            "b-vector",
            "b-not-square",
            "seed-abc",
            "tau-empty",
            "x0-n3",
            "a-overflow-verify",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_exit_1_one_line(self, text, argv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "payload, message",
        [
            (GAMMA_HUGE, "A = Gamma Gamma^T overflows"),
            ({**ROT, "B": [["1.5", 0], [0, True]]}, '"B" contains non-numeric entries'),
            ({**ROT, "Gamma": [[1, None], [0, 1]]}, '"Gamma" contains non-numeric entries'),
        ],
        ids=["a-overflow", "b-string-bool", "gamma-null"],
    )
    @pytest.mark.filterwarnings("error")
    def test_model_message(self, payload, message, model_file, capsys):
        assert main(["classify", model_file(payload)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_x0_message_shared(self, model_file, tmp_path, capsys):
        # transient checks --x0 as simulate does, before it classifies
        path = model_file(ROT)
        errors = []
        for argv in (["transient", path], ["simulate", path, "--out", str(tmp_path / "run")]):
            assert main([*argv, "--x0", "1,2,3"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: initial state must have shape (2,), got (3,)\n"


# Commands run as the program, each with the exit code it must give:
# (argv, model written to model.json or None, exit code).
_ENTRY_CASES = {
    "classify": (["classify", "model.json", "--json"], ROT, 0),
    "analyze": (["analyze", "model.json"], ROT, 0),
    "transient": (["transient", "model.json", "--x0", "2,0", "--t-max", "5"], ROT, 0),
    "simulate": (["simulate", "model.json", *_CSV_PIN_ARGS, "--out", "p"], ROT, 0),
    "verify": (["verify", "model.json", *_VERIFY_PIN_ARGS, "--seed", "7"], ROT, 0),
    "analyze-tau-overflow": (["analyze", "model.json", "--tau", "1e308"], ROT_STIFF, 2),
    "missing-model": (["classify", "missing.json"], None, 3),
}
_ENTRY = "import sys; from ouirrev.cli import main; sys.exit(main())"


def _run_entry(argv, cwd, code=_ENTRY):
    """argv run as the program in a fresh interpreter: python -c code argv..."""
    env = dict(os.environ, PYTHONPATH=str(Path(ouirrev.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, check=False
    )


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestEntryPoint:
    """main() as the program's entry (argv None) freezes the collector's
    objects at exit; it writes what main(argv) writes in process."""

    @pytest.mark.parametrize("case", sorted(_ENTRY_CASES))
    def test_same_output_as_in_process(self, case, tmp_path, capsysbinary, monkeypatch):
        argv, payload, code = _ENTRY_CASES[case]
        runs = {}
        for name in ("entry", "in_process"):
            runs[name] = tmp_path / name
            runs[name].mkdir()
            if payload is not None:
                (runs[name] / "model.json").write_text(json.dumps(payload))
        entry = _run_entry(argv, runs["entry"])
        monkeypatch.chdir(runs["in_process"])
        assert main(argv) == entry.returncode == code
        captured = capsysbinary.readouterr()
        assert (entry.stdout, entry.stderr) == (captured.out, captured.err)
        assert _files(runs["entry"]) == _files(runs["in_process"])
        assert gc.get_freeze_count() == 0

    def test_freezes_only_as_entry(self, model_file, capsys):
        # an atexit hook, registered before main, runs after main has returned
        hook = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count()))\n"
        argv = ["classify", model_file(ROT), "--out", os.devnull]
        entry = _run_entry(argv, None, code=hook + _ENTRY)
        assert entry.returncode == 0
        assert int(entry.stdout) > 0
        assert main(argv) == 0
        assert gc.get_freeze_count() == 0
