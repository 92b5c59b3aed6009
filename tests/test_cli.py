import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ouirrev import cli, estimators, transient
from ouirrev.cli import build_parser, canonical_json, main
from ouirrev.model import classify

GOLDEN = Path(__file__).parent / "golden" / "cli_defaults.json"

ROT = {"B": [[1.0, 1.0], [-1.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
REV = {"B": [[2.0, 1.0], [1.0, 2.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
SWEEP = {"B": [[-1.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}
SCALAR = {"B": [[1.0]], "Gamma": [[1.0]]}
SWEEP_1D = {"B": [[-1.0]], "Gamma": [[1.0]]}


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

    def test_validation_error_exit_1(self, model_file, capsys):
        bad = {"B": [[1.0, 0.0], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [1.0, 0.0]]}
        assert main(["classify", model_file(bad)]) == 1

    def test_missing_file_exit_3(self, capsys):
        assert main(["classify", "/nonexistent/model.json"]) == 3


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

    def test_unwritable_output_exit_3(self, model_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    model_file(ROT),
                    "--paths",
                    "1",
                    "--steps",
                    "2",
                    "--out",
                    "/nonexistent_dir/x",
                ]
            )
            == 3
        )


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
    @pytest.mark.parametrize("payload", [SWEEP_1D, SWEEP], ids=["n1", "n2"])
    def test_overflow_exit_2(self, payload, model_file, capsys):
        x0 = ",".join(["1"] * len(payload["B"]))
        argv = ["transient", model_file(payload), "--x0", x0, "--t-max", "400", "--t-step", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_grid_exit_1(self, t_max, model_file, capsys):
        assert main(["transient", model_file(ROT), "--t-max", t_max]) == 1
        assert "finite" in capsys.readouterr().err


_CSV_PIN_ARGS = ["--paths", "2", "--steps", "300", "--seed", "13"]
_CSV_PIN_CASES = {
    "exact-x0": ["--method", "exact", "--x0", "2,-1"],
    "exact-stationary": ["--method", "exact", "--stationary"],
    "euler-x0": ["--method", "euler", "--x0", "2,-1"],
    "euler-stationary": ["--method", "euler", "--stationary"],
}
_CSV_PIN_DIGESTS = {
    "exact-x0": "fbd193bcff5ba2c24258369bdb3884204d76b0ada7a284a58ad8e693feefc215",
    "exact-stationary": "d83d655e3fc1a683a18db1a6860fa63a8e566fd4b54d95998fa92793df503e09",
    "euler-x0": "19b2ff7cba07bc95f21bfb79583a174ac8826799eaae612bb541b47fe98d48d8",
    "euler-stationary": "6855cc1d046edcc27d21267590a322efeab2ea2a19753f197a9481da90ed3c13",
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


def _ring_model(n: int) -> dict:
    """Irreversible n-dimensional model: B = 1.5 I plus a cyclic rotation
    (B[i][i+1] = 1, B[i+1][i] = -1), Gamma lower bidiagonal (1 on the
    diagonal, 0.5 below it)."""
    b = [[0.0] * n for _ in range(n)]
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 1.5
        b[i][(i + 1) % n] += 1.0
        b[(i + 1) % n][i] -= 1.0
        gamma[i][i] = 1.0
        if i:
            gamma[i][i - 1] = 0.5
    return {"B": b, "Gamma": gamma}


_VERIFY_PIN_ARGS = ["--paths", "20", "--steps", "2000", "--burn-in", "2"]
_VERIFY_PIN_CASES = {
    "rot2": (ROT, "7"),
    "ring8": (_ring_model(8), "2"),
}
_VERIFY_PIN_DIGESTS = {
    "rot2": "d68e362447042b569b6d5fc7715239e1246736f7a3e82a038d55379ee10a538b",
    "ring8": "0f8576e09d59097db698eef606a63cf7a1536c76cee856ab86b2834fc4dc6947",
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

    @pytest.mark.parametrize("taus", ["0.1,0.5,1.0", "0.2,0.4,0.6,0.8,1.0"])
    def test_lag_products_once_per_lag(self, taus, model_file, capsys, monkeypatch):
        calls = []
        kernel = estimators._lag_products

        def counting(later, earlier):
            calls.append(later.shape)
            return kernel(later, earlier)

        monkeypatch.setattr(estimators, "_lag_products", counting)
        argv = ["verify", model_file(ROT), "--paths", "20", "--steps", "2000", "--burn-in", "2"]
        assert main(argv + ["--tau", taus]) in (0, 4)
        assert len(calls) == len(taus.split(","))

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
