import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_dataset
from oplspm import estimation
from oplspm import (
    EstimationError,
    bootstrap_inner,
    build_model,
    cronbach_alpha_ordinal,
    dillon_goldstein_rho,
    fit_correlation_model,
    inner_coefficients,
    outer_loadings,
    pearson_matrix,
    score_based_pls_fit,
)


def chain_model():
    return build_model(
        "chain",
        ["a"],
        ["b", "c"],
        {"a": ["a1", "a2"], "b": ["b1", "b2"], "c": ["c1", "c2"]},
        [("a", "b"), ("b", "c"), ("a", "c")],
    )


class TestInnerCoefficients:
    def test_single_covariate_equals_correlation(self):
        model = build_model(
            "pair", ["a"], ["b"], {"a": ["a1"], "b": ["b1"]}, [("a", "b")]
        )
        p = np.array([[1.0, 0.37], [0.37, 1.0]])
        eqs = inner_coefficients(p, model)
        assert len(eqs) == 1
        assert eqs[0].coefficients == pytest.approx([0.37], abs=1e-15)
        assert eqs[0].r_squared == pytest.approx(0.37**2, abs=1e-15)

    def test_orthogonal_covariates_pass_through(self):
        model = build_model(
            "orth",
            ["a", "b"],
            ["c"],
            {"a": ["a1"], "b": ["b1"], "c": ["c1"]},
            [("a", "c"), ("b", "c")],
        )
        p = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.6], [0.5, 0.6, 1.0]])
        eqs = inner_coefficients(p, model)
        assert eqs[0].coefficients == pytest.approx([0.5, 0.6], abs=1e-15)

    def test_matches_ols_on_scores(self, rng):
        model = chain_model()
        data = factor_dataset(model, rng)
        fit = score_based_pls_fit(data, model)
        p_yy = fit.weights.standardized.T @ pearson_matrix(data).values @ fit.weights.standardized
        eqs = inner_coefficients(p_yy, model)
        idx = {name: i for i, name in enumerate(model.latent_names)}
        for eq in eqs:
            x = fit.scores[:, [idx[c] for c in eq.covariates]]
            y = fit.scores[:, idx[eq.target]]
            beta_ols = np.linalg.lstsq(x, y, rcond=None)[0]
            assert np.allclose(eq.coefficients, beta_ols, atol=1e-8)
            assert 0.0 <= eq.r_squared <= 1.0

    def test_singular_system(self):
        model = build_model(
            "sing",
            ["a", "b"],
            ["c"],
            {"a": ["a1"], "b": ["b1"], "c": ["c1"]},
            [("a", "c"), ("b", "c")],
        )
        p = np.ones((3, 3))
        with pytest.raises(EstimationError, match="singular inner system for equation 'c'"):
            inner_coefficients(p, model)


class TestOuterLoadings:
    def test_single_indicator_block_loads_one(self, rng):
        model = build_model(
            "one", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")]
        )
        x = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], 400)
        sigma = pearson_matrix(x)
        from oplspm import matrix_pls_fit

        fit = matrix_pls_fit(sigma, model)
        lams = outer_loadings(sigma.values @ fit.weights.standardized, model)
        assert lams == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_equal_loadings_for_interchangeable_indicators(self):
        # block of two indicators with within-block correlation 0.64
        model = build_model(
            "two", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        sigma_values = np.array(
            [[1.0, 0.64, 0.3], [0.64, 1.0, 0.3], [0.3, 0.3, 1.0]]
        )
        from oplspm import CorrelationMatrix, matrix_pls_fit

        sigma = CorrelationMatrix.build(sigma_values, "pearson")
        fit = matrix_pls_fit(sigma, model)
        lams = outer_loadings(sigma_values @ fit.weights.standardized, model)
        # composite-variance oracle: equal weights on two unit-variance items
        # with correlation r load each at sqrt((1 + r) / 2)
        want = np.sqrt((1.0 + 0.64) / 2.0)
        assert lams[0] == pytest.approx(want, abs=1e-10)
        assert lams[1] == pytest.approx(want, abs=1e-10)
        assert np.all(np.abs(lams) <= 1.0 + 1e-12)


class TestReliability:
    def test_alpha_two_items(self):
        block = np.array([[1.0, 0.5], [0.5, 1.0]])
        # direct formula evaluation: 2 * (1 - 2/3)
        assert cronbach_alpha_ordinal(block) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_alpha_zero_common_variance(self):
        assert cronbach_alpha_ordinal(np.eye(2)) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_perfect_limit(self):
        block = np.full((3, 3), 0.999999)
        np.fill_diagonal(block, 1.0)
        assert cronbach_alpha_ordinal(block) == pytest.approx(1.0, abs=1e-5)

    def test_alpha_needs_two_items(self):
        with pytest.raises(EstimationError):
            cronbach_alpha_ordinal(np.array([[1.0]]))

    def test_rho_perfect_indicators(self):
        assert dillon_goldstein_rho([1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_rho_null_indicators(self):
        assert dillon_goldstein_rho([0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_rho_frozen_example(self):
        # (0.8 + 0.9 + 0.95)^2 = 7.0225; residuals 0.36 + 0.19 + 0.0975 = 0.6475
        want = 7.0225 / (7.0225 + 0.6475)
        got = dillon_goldstein_rho([0.8, 0.9, 0.95])
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.9155801825493126, abs=1e-10)

    def test_rho_needs_two_items(self):
        with pytest.raises(EstimationError):
            dillon_goldstein_rho([0.9])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.001, max_value=0.01),
    )
    @settings(max_examples=100)
    def test_rho_monotone_in_each_loading(self, lams, pos, bump):
        pos = pos % len(lams)
        bumped = list(lams)
        bumped[pos] = min(1.0, bumped[pos] + bump)
        assert dillon_goldstein_rho(bumped) >= dillon_goldstein_rho(lams) - 1e-12


class TestFitResult:
    def test_full_fit_assembles(self, rng):
        model = chain_model()
        data = factor_dataset(model, rng)
        fit = fit_correlation_model(pearson_matrix(data), model)
        assert fit.mode == "pls"
        assert len(fit.inner) == 2
        assert fit.loadings.shape == (6,)
        assert np.all(np.abs(fit.loadings) <= 1.0 + 1e-12)
        assert np.all(fit.loading_residuals >= -1e-12)
        for rel in fit.reliability:
            assert rel.cronbach_alpha is not None
            assert rel.dillon_goldstein is not None
        assert fit.inner_coefficient("b", "a") == fit.inner[0].coefficients[0]

    def test_path_coefficients_in_requested_order(self, rng):
        model = chain_model()
        fit = fit_correlation_model(pearson_matrix(factor_dataset(model, rng)), model)
        by_path = {
            (eq.target, cov): b
            for eq in fit.inner
            for cov, b in zip(eq.covariates, eq.coefficients)
        }
        paths = [("c", "b"), ("b", "a"), ("c", "a")]
        assert fit.path_coefficients(paths).tolist() == [by_path[p] for p in paths]
        assert fit.inner_coefficient("c", "a") == by_path[("c", "a")]
        with pytest.raises(EstimationError, match="no inner coefficient for path c -> a"):
            fit.path_coefficients([("b", "a"), ("a", "c")])
        with pytest.raises(EstimationError, match="path c -> b"):
            fit.inner_coefficient("b", "c")

    def test_single_indicator_block_reliability_is_none(self, rng):
        model = build_model(
            "mix", ["a"], ["b"], {"a": ["x1"], "b": ["y1", "y2"]}, [("a", "b")]
        )
        data = factor_dataset(model, rng)
        fit = fit_correlation_model(pearson_matrix(data), model)
        assert fit.reliability[0].cronbach_alpha is None
        assert fit.reliability[1].cronbach_alpha is not None


class TestBootstrap:
    def test_deterministic_and_shaped(self, rng):
        model = chain_model()
        data = factor_dataset(model, rng, n=80)
        a = bootstrap_inner(data, model, mode="pls", n_boot=30, seed=4)
        b = bootstrap_inner(data, model, mode="pls", n_boot=30, seed=4)
        assert a.names == b.names
        assert np.array_equal(a.standard_errors, b.standard_errors)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.n_effective + a.n_failed == 30
        assert np.all(a.standard_errors > 0)
        assert np.all((0 <= a.p_values) & (a.p_values <= 1))

    def test_only_package_errors_count_as_failed_replicates(self, rng, monkeypatch):
        model = chain_model()
        data = factor_dataset(model, rng, n=80)
        real_fit = estimation.fit_correlation_model

        def failing_on(nth, error):
            # call 1 is the point estimate, calls 2.. are the replicates
            calls = []

            def fit(*args, **kwargs):
                calls.append(None)
                if len(calls) == nth:
                    raise error
                return real_fit(*args, **kwargs)

            return fit

        monkeypatch.setattr(estimation, "fit_correlation_model", failing_on(3, EstimationError("singular")))
        result = bootstrap_inner(data, model, mode="pls", n_boot=5, seed=4)
        assert (result.n_effective, result.n_failed) == (4, 1)

        monkeypatch.setattr(estimation, "fit_correlation_model", failing_on(3, TypeError("bad argument")))
        with pytest.raises(TypeError, match="bad argument"):
            bootstrap_inner(data, model, mode="pls", n_boot=5, seed=4)
