import numpy as np
import pytest

from conftest import ECSI_MODEL, factor_dataset, random_recursive_model
from oplspm.errors import ConvergenceError, DataError, EstimationError
from oplspm.estimation import bootstrap_inner
from oplspm.model import DataMatrix, build_model, parse_model
from oplspm.pls import _matrix_step, initial_weights, matrix_pls_fit, score_based_pls_fit
from oplspm.polychoric import pearson_matrix


def three_block_model():
    return build_model(
        "toy",
        ["f1"],
        ["f2", "f3"],
        {"f1": ["a1", "a2", "a3"], "f2": ["b1", "b2"], "f3": ["c1", "c2", "c3", "c4"]},
        [("f1", "f2"), ("f2", "f3"), ("f1", "f3")],
    )


class TestInitialWeights:
    def test_three_indicator_block(self):
        w = initial_weights(three_block_model())
        assert np.allclose(w[:3, 0], 1.0 / 3.0)
        assert np.allclose(w[3:5, 1], 0.5)
        assert np.allclose(w[5:, 2], 0.25)
        assert np.allclose(w.sum(axis=0), 1.0)

    def test_single_indicator_block(self):
        model = build_model(
            "one", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")]
        )
        w = initial_weights(model)
        assert np.array_equal(w, np.eye(2))

    def test_ecsi_quality_block(self):
        model = parse_model(ECSI_MODEL)
        w = initial_weights(model)
        j = model.latent_names.index("quality")
        block = model.block_slice(j)
        assert np.allclose(w[block, j], 1.0 / 7.0)
        assert np.count_nonzero(w[:, j]) == 7


class TestMatrixEngine:
    def test_single_indicator_latents_identity(self, rng):
        model = build_model(
            "singles",
            ["a"],
            ["b", "c"],
            {"a": ["x1"], "b": ["x2"], "c": ["x3"]},
            [("a", "b"), ("b", "c")],
        )
        x = rng.multivariate_normal(np.zeros(3), [[1, 0.5, 0.3], [0.5, 1, 0.4], [0.3, 0.4, 1]], 500)
        sigma = pearson_matrix(x)
        fit = matrix_pls_fit(sigma, model)
        assert fit.trace.iterations == 1
        assert np.array_equal(fit.weights.raw, np.eye(3))
        assert np.allclose(fit.latent_correlations, sigma.values, atol=1e-14)

    def test_raw_columns_sum_to_unit_magnitude(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        fit = matrix_pls_fit(pearson_matrix(data), model)
        assert np.allclose(np.abs(fit.weights.raw.sum(axis=0)), 1.0, atol=1e-12)

    def test_composite_unit_variance_every_iteration(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        sigma = pearson_matrix(data).values
        chi = model.weight_pattern()
        t_sym = model.inner_adjacency + model.inner_adjacency.T
        w = initial_weights(model)
        for _ in range(6):
            w, internals = _matrix_step(sigma, t_sym, chi, w)
            sw = internals["standardizing_weights"]
            assert np.allclose(np.diag(sw.T @ sigma @ sw), 1.0, atol=1e-10)
            # raw weight normalization: each column sums to +/-1
            assert np.allclose(np.abs(w.sum(axis=0)), 1.0, atol=1e-12)

    def test_upsilon_pattern(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        sigma = pearson_matrix(data).values
        chi = model.weight_pattern()
        t_sym = model.inner_adjacency + model.inner_adjacency.T
        _, internals = _matrix_step(sigma, t_sym, chi, initial_weights(model))
        ups = internals["upsilon"]
        assert np.array_equal(ups != 0, t_sym != 0)
        assert set(np.unique(ups)).issubset({-1.0, 0.0, 1.0})

    def test_c_respects_block_pattern(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        sigma = pearson_matrix(data).values
        chi = model.weight_pattern()
        t_sym = model.inner_adjacency + model.inner_adjacency.T
        _, internals = _matrix_step(sigma, t_sym, chi, initial_weights(model))
        assert np.all(internals["c"][chi == 0.0] == 0.0)

    def test_weight_sparsity_pattern(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        fit = matrix_pls_fit(pearson_matrix(data), model)
        chi = model.weight_pattern()
        assert np.all(fit.weights.raw[chi == 0.0] == 0.0)
        assert np.all(fit.weights.standardized[chi == 0.0] == 0.0)

    def test_permutation_equivariance(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        fit = matrix_pls_fit(pearson_matrix(data), model)

        # swap the first two indicators of block f1
        perm = np.arange(9)
        perm[[0, 1]] = perm[[1, 0]]
        permuted_model = build_model(
            "toy",
            ["f1"],
            ["f2", "f3"],
            {"f1": ["a2", "a1", "a3"], "f2": ["b1", "b2"], "f3": ["c1", "c2", "c3", "c4"]},
            [("f1", "f2"), ("f2", "f3"), ("f1", "f3")],
        )
        permuted_data = DataMatrix(
            data.values[:, perm],
            permuted_model.indicator_names,
            tuple(["interval"] * 9),
        )
        fit_perm = matrix_pls_fit(pearson_matrix(permuted_data), permuted_model)
        assert np.allclose(fit_perm.weights.raw[perm], fit.weights.raw, atol=1e-12)
        assert np.allclose(
            fit_perm.latent_correlations, fit.latent_correlations, atol=1e-12
        )

    def test_non_convergence_carries_trace(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        with pytest.raises(ConvergenceError) as err:
            matrix_pls_fit(pearson_matrix(data), model, max_iter=1)
        assert err.value.trace is not None
        assert err.value.trace.iterations == 1

    def test_dimension_mismatch(self, rng):
        model = three_block_model()
        with pytest.raises(DataError, match="expects"):
            matrix_pls_fit(np.eye(4), model)

    @pytest.mark.parametrize("change, message", [
        (lambda v: v[:3], "must be square"),
        (lambda v: np.full_like(v, np.nan), "non-finite entries"),
        (lambda v: v + np.triu(np.full_like(v, 0.05), 1), "must be symmetric"),
        (lambda v: 2.0 * v, "unit diagonal"),
        (lambda v: np.array([[1.0, 0.9, 0.9, 0.0], [0.9, 1.0, -0.9, 0.0],
                             [0.9, -0.9, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
         "not positive definite; re-run with PD repair enabled"),
    ], ids=["not-square", "not-finite", "not-symmetric", "not-unit-diagonal", "not-pd"])
    def test_invalid_array_rejected(self, change, message):
        # an array is checked as CorrelationMatrix.build checks it
        model = build_model(
            "two", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1", "y2"]}, [("a", "b")]
        )
        sigma = np.array(
            [[1.0, 0.5, 0.3, 0.2], [0.5, 1.0, 0.4, 0.3], [0.3, 0.4, 1.0, 0.6], [0.2, 0.3, 0.6, 1.0]]
        )
        with pytest.raises(DataError, match=message):
            matrix_pls_fit(change(sigma), model)

    def test_failed_pd_status_rejected(self):
        from oplspm.polychoric import CorrelationMatrix

        model = build_model(
            "one", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        bad = CorrelationMatrix(
            values=np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.9], [-0.99, 0.9, 1.0]]),
            kind="polychoric",
            pd_status="failed",
        )
        with pytest.raises(DataError, match="positive definite"):
            matrix_pls_fit(bad, model)


class TestIterationLimits:
    """Every engine rejects an iteration cap below 1 and a tolerance that is not finite and positive."""

    ENGINES = {
        "matrix": lambda data, model, kw: matrix_pls_fit(pearson_matrix(data), model, **kw),
        "score": lambda data, model, kw: score_based_pls_fit(data, model, **kw),
        "bootstrap": lambda data, model, kw: bootstrap_inner(data, model, n_boot=4, **kw),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
            ({"max_iter": -3}, "max_iter must be at least 1, got -3"),
            ({"tol": 0.0}, "tol must be a finite positive number, got 0.0"),
            ({"tol": -1.0}, "tol must be a finite positive number, got -1.0"),
            ({"tol": np.nan}, "tol must be a finite positive number, got nan"),
            ({"tol": np.inf}, "tol must be a finite positive number, got inf"),
        ],
    )
    def test_rejected(self, rng, engine, limits, message):
        model = three_block_model()
        data = factor_dataset(model, rng)
        with pytest.raises(EstimationError) as err:
            self.ENGINES[engine](data, model, limits)
        assert str(err.value) == message

    def test_one_iteration_runs(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        with pytest.raises(ConvergenceError) as err:
            score_based_pls_fit(data, model, max_iter=1)
        assert err.value.trace.iterations == 1


class TestEngineEquivalence:
    def test_three_block_example(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        score_fit = score_based_pls_fit(data, model)
        matrix_fit = matrix_pls_fit(pearson_matrix(data), model)
        assert np.allclose(score_fit.weights.raw, matrix_fit.weights.raw, atol=1e-10)
        assert np.allclose(
            score_fit.weights.standardized, matrix_fit.weights.standardized, atol=1e-10
        )
        assert score_fit.trace.iterations == matrix_fit.trace.iterations

    def test_random_models(self, rng):
        for _ in range(5):
            model = random_recursive_model(rng)
            data = factor_dataset(model, rng)
            score_fit = score_based_pls_fit(data, model)
            matrix_fit = matrix_pls_fit(pearson_matrix(data), model)
            assert np.allclose(score_fit.weights.raw, matrix_fit.weights.raw, atol=1e-8)

    def test_score_columns_standardized(self, rng):
        model = three_block_model()
        data = factor_dataset(model, rng)
        fit = score_based_pls_fit(data, model)
        assert np.allclose(fit.scores.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(fit.scores.var(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_duplicated_indicator_block_scores(self, rng):
        # a block whose indicators are identical copies of one variable
        model = build_model(
            "dup", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        base = rng.standard_normal(100)
        target = 0.8 * base + 0.6 * rng.standard_normal(100)
        values = np.column_stack([base, base.copy(), target])
        data = DataMatrix(values, model.indicator_names, ("interval",) * 3)
        fit = score_based_pls_fit(data, model)
        standardized = (base - base.mean()) / base.std(ddof=1)
        assert np.allclose(np.abs(fit.scores[:, 0]), np.abs(standardized), atol=1e-10)

    def test_zero_variance_indicator(self, rng):
        model = build_model(
            "flat", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        values = np.column_stack(
            [np.ones(50), rng.standard_normal(50), rng.standard_normal(50)]
        )
        data = DataMatrix(values, model.indicator_names, ("interval",) * 3)
        with pytest.raises(DataError, match="zero-variance indicator 'x1'"):
            score_based_pls_fit(data, model)

    def test_ordinal_data_rejected(self, rng):
        model = build_model(
            "ord", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")]
        )
        data = DataMatrix(
            np.column_stack([rng.integers(1, 5, 30), rng.integers(1, 5, 30)]).astype(float),
            model.indicator_names,
            ("ordinal", "ordinal"),
        )
        with pytest.raises(DataError, match="interval"):
            score_based_pls_fit(data, model)
