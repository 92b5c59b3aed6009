import numpy as np
import pytest

from ouirrev.exceptions import ModelValidationError
from ouirrev.model import Verdict, build_model, classify, model_from_dict

from conftest import random_reversible_model, rotational_model


class TestBuildModel:
    def test_scalar(self):
        m = build_model([[1.0]], [[1.0]])
        assert m.n == 1
        assert m.A[0, 0] == 1.0

    def test_diffusion_product(self):
        m = build_model(np.eye(2), [[1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(m.A, [[1.0, 1.0], [1.0, 2.0]])

    def test_singular_gamma_rejected(self):
        with pytest.raises(ModelValidationError):
            build_model(np.eye(2), [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n", [19, 32])
    def test_identity_gamma_accepted_at_large_n(self, n):
        m = build_model(2.0 * np.eye(n), np.eye(n))
        assert m.n == n

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_model(np.eye(2), np.eye(3))

    def test_arrays_frozen(self):
        m = build_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            m.B[0, 0] = 5.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            build_model(np.eye(33), np.eye(33))


class TestClassify:
    def test_scalar_reversible(self):
        # every 1-d stationary Gaussian process is reversible
        m = build_model([[2.0]], [[1.0]])
        assert classify(m).verdict is Verdict.REVERSIBLE

    def test_rotational_irreversible(self):
        cls = classify(rotational_model(0.5))
        assert cls.verdict is Verdict.IRREVERSIBLE
        assert np.allclose(
            np.sort_complex(cls.spectrum_B.eigenvalues), [1 - 0.5j, 1 + 0.5j], atol=1e-12
        )
        assert cls.symmetry_defect_AinvB > 0.1
        assert not cls.marginal

    def test_sweeping(self):
        cls = classify(build_model(np.diag([-1.0, 1.0]), np.eye(2)))
        assert cls.verdict is Verdict.SWEEPING
        assert not cls.marginal

    def test_marginal_flag_on_imaginary_axis(self):
        cls = classify(build_model([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)))
        assert cls.verdict is Verdict.SWEEPING
        assert cls.marginal

    def test_symmetric_reversible(self):
        # A^{-1} B = B symmetric, eigenvalues {1, 3} positive
        cls = classify(build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)))
        assert cls.verdict is Verdict.REVERSIBLE
        assert cls.symmetry_defect_AinvB <= 1e-12

    def test_scale_consistency(self):
        # replacing Gamma by c Gamma never changes the verdict
        rng = np.random.default_rng(41)
        models = [
            rotational_model(1.0),
            build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)),
            build_model(np.diag([-1.0, 1.0]), np.eye(2)),
            random_reversible_model(rng, 3),
        ]
        for m in models:
            base = classify(m).verdict
            for c in (0.1, 3.0):
                assert classify(build_model(m.B, c * m.Gamma)).verdict is base

    def test_scalar_positive_always_reversible(self):
        for lam in (0.01, 1.0, 50.0):
            for g in (0.2, 1.0, 7.0):
                assert classify(build_model([[lam]], [[g]])).verdict is Verdict.REVERSIBLE

    def test_reversible_spectrum_is_real(self):
        rng = np.random.default_rng(43)
        for n in (2, 3, 4):
            m = random_reversible_model(rng, n)
            cls = classify(m)
            assert cls.verdict is Verdict.REVERSIBLE
            assert np.max(np.abs(cls.spectrum_B.eigenvalues.imag)) <= 1e-8


class TestModelJson:
    def test_round_trip(self):
        m = rotational_model(0.5)
        again = model_from_dict({"B": m.B.tolist(), "Gamma": m.Gamma.tolist()})
        assert np.array_equal(again.B, m.B)
        assert np.array_equal(again.Gamma, m.Gamma)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ModelValidationError):
            model_from_dict({"B": [[1.0, 0.0], [0.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]})

    def test_missing_key_rejected(self):
        with pytest.raises(ModelValidationError):
            model_from_dict({"B": [[1.0]]})

    def test_non_numeric_rejected(self):
        with pytest.raises(ModelValidationError):
            model_from_dict({"B": [["x"]], "Gamma": [[1.0]]})
