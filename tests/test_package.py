import ouirrev


def test_public_names_resolve():
    assert len(set(ouirrev.__all__)) == len(ouirrev.__all__)
    for name in ouirrev.__all__:
        assert getattr(ouirrev, name) is not None


def test_removed_names_gone():
    from ouirrev import estimators, stationary

    for module, name in [
        (stationary, "entropy_production_rate"),
        (stationary, "fdr_residuals"),
        (estimators, "empirical_two_time"),
        (estimators, "empirical_moments"),
        (estimators, "MomentEstimate"),
        (estimators, "MIN_EFFECTIVE_SAMPLES"),
    ]:
        assert not hasattr(module, name)
        assert not hasattr(ouirrev, name)
        assert name not in ouirrev.__all__
