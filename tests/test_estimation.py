import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_dataset, ordinal_dataset, random_recursive_model
from oplspm import estimation, pls
from oplspm.errors import ConvergenceError, DataError, EstimationError, OplsError
from oplspm.estimation import (
    bootstrap_inner,
    cronbach_alpha_ordinal,
    dillon_goldstein_rho,
    fit_correlation_model,
    inner_coefficients,
    outer_loadings,
)
from oplspm.model import DataMatrix, build_model
from oplspm.pls import matrix_pls_fit, score_based_pls_fit
from oplspm.polychoric import (
    CorrelationMatrix,
    _count_polychoric,
    _ordinal_codes,
    pearson_matrix,
    polychoric_matrix,
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
        # both equations are singular; the error names the first
        model = build_model(
            "sing",
            ["a", "b"],
            ["c", "d"],
            {"a": ["a1"], "b": ["b1"], "c": ["c1"], "d": ["d1"]},
            [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")],
        )
        p = np.ones((4, 4))
        with pytest.raises(EstimationError, match="singular inner system for equation 'c'"):
            inner_coefficients(p, model)


class TestOuterLoadings:
    def test_single_indicator_block_loads_one(self, rng):
        model = build_model(
            "one", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")]
        )
        x = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], 400)
        sigma = pearson_matrix(x)
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

    @pytest.mark.parametrize("block, message", [
        ([[1.0, -1.0], [-1.0, 1.0]], "block sums to 0"),
        ([[1.0, -0.9, -0.9], [-0.9, 1.0, 0.0], [-0.9, 0.0, 1.0]], "block sums to -0.6"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
        ([[1.0, np.inf], [np.inf, 1.0]], "finite"),
        (0.5, "square block"),
    ], ids=["zero-sum", "negative-sum", "nan", "inf", "scalar"])
    def test_alpha_rejects_degenerate_blocks(self, block, message):
        with pytest.raises(EstimationError, match=message):
            cronbach_alpha_ordinal(np.array(block))

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

    @pytest.mark.parametrize("lams, message", [
        ([np.nan, 0.5], "finite"),
        ([np.inf, 0.5], "finite"),
        ([1.0, -1.0], "total is 0"),
        ([1.2, 0.5], r"loadings must lie in \[-1, 1\]"),
    ], ids=["nan", "inf", "zero-total", "beyond-one"])
    def test_rho_rejects_degenerate_loadings(self, lams, message):
        with pytest.raises(EstimationError, match=message):
            dillon_goldstein_rho(lams)

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
        assert fit.path_coefficients([("b", "a")])[0] == fit.inner[0].coefficients[0]

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
        with pytest.raises(EstimationError, match="no inner coefficient for path c -> a"):
            fit.path_coefficients([("b", "a"), ("a", "c")])
        with pytest.raises(EstimationError, match="path c -> b"):
            fit.path_coefficients([("b", "c")])

    def test_array_input_fits_as_pearson(self, rng):
        model = chain_model()
        sigma = pearson_matrix(factor_dataset(model, rng))
        fit = fit_correlation_model(sigma.values, model)
        want = fit_correlation_model(sigma, model)
        assert fit.mode == "pls"
        assert np.array_equal(fit.weights.raw, want.weights.raw)
        assert np.array_equal(fit.loadings, want.loadings)
        assert [eq.coefficients.tolist() for eq in fit.inner] == [
            eq.coefficients.tolist() for eq in want.inner
        ]

    def test_single_indicator_block_reliability_is_none(self, rng):
        model = build_model(
            "mix", ["a"], ["b"], {"a": ["x1"], "b": ["y1", "y2"]}, [("a", "b")]
        )
        data = factor_dataset(model, rng)
        fit = fit_correlation_model(pearson_matrix(data), model)
        assert fit.reliability[0].cronbach_alpha is None
        assert fit.reliability[1].cronbach_alpha is not None


class TestIndicatorPermutation:
    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=25, deadline=None)
    def test_permuting_indicators_within_blocks(self, seed, draw):
        rng = np.random.default_rng(seed)
        model = random_recursive_model(rng, n_latents=int(rng.integers(2, 5)), max_indicators=4)
        data = ordinal_dataset(model, rng, n=200, npoints=5)
        orders = [draw.draw(st.permutations(range(size))) for size in model.block_sizes]
        names, n_exo = model.latent_names, model.exogenous_count
        moved = build_model(
            model.name,
            names[:n_exo],
            names[n_exo:],
            {name: [block[i] for i in order] for name, block, order in zip(names, model.blocks, orders)},
            [(names[k], names[j]) for j, k in zip(*np.nonzero(model.inner_adjacency))],
        )
        perm = np.concatenate([model.block_slice(j).start + np.array(order) for j, order in enumerate(orders)])
        moved_data = DataMatrix(data.values[:, perm], moved.indicator_names, data.kinds)
        fit = fit_correlation_model(polychoric_matrix(data)[0], model)
        fit_p = fit_correlation_model(polychoric_matrix(moved_data)[0], moved)
        # a permutation moves rho by rounding only, so the bound is 1e-12, not equality
        assert np.abs(fit_p.weights.raw - fit.weights.raw[perm]).max() <= 1e-12
        assert np.abs(fit_p.weights.standardized - fit.weights.standardized[perm]).max() <= 1e-12
        assert np.abs(fit_p.latent_correlations - fit.latent_correlations).max() <= 1e-12
        for eq, eq_p in zip(fit.inner, fit_p.inner):
            assert (eq_p.target, eq_p.covariates) == (eq.target, eq.covariates)
            assert np.abs(eq_p.coefficients - eq.coefficients).max() <= 1e-12


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
        # pls replicates are fitted as stacks; the per-replicate call left is
        # the opls replicate's polychoric estimation
        model = chain_model()
        data = ordinal_dataset(model, rng, n=80)
        real_replicate = estimation._count_polychoric

        def failing_on(nth, error):
            calls = []

            def replicate(*args, **kwargs):
                calls.append(None)
                if len(calls) == nth:
                    raise error
                return real_replicate(*args, **kwargs)

            return replicate

        failing = failing_on(2, EstimationError("singular"))
        monkeypatch.setattr(estimation, "_count_polychoric", failing)
        result = bootstrap_inner(data, model, mode="opls", n_boot=5, seed=4)
        assert (result.n_effective, result.n_failed) == (4, 1)

        failing = failing_on(2, TypeError("bad argument"))
        monkeypatch.setattr(estimation, "_count_polychoric", failing)
        with pytest.raises(TypeError, match="bad argument"):
            bootstrap_inner(data, model, mode="opls", n_boot=5, seed=4)

    @pytest.mark.parametrize("n_boot", [-3, 0, 1])
    def test_fewer_than_two_replicates_rejected(self, rng, n_boot):
        model = chain_model()
        data = factor_dataset(model, rng, n=40)
        with pytest.raises(EstimationError, match=f"n_boot must be at least 2, got {n_boot}"):
            bootstrap_inner(data, model, mode="pls", n_boot=n_boot)

    def test_iteration_limits_rejected_before_any_replicate(self, rng, monkeypatch):
        model = chain_model()
        data = ordinal_dataset(model, rng, n=80)
        calls = []
        monkeypatch.setattr(estimation, "_count_polychoric", lambda *args: calls.append(None))
        with pytest.raises(EstimationError, match="max_iter must be at least 1"):
            bootstrap_inner(data, model, mode="opls", n_boot=4, max_iter=0)
        assert calls == []

    def test_fewer_than_two_successes_rejected(self, rng, monkeypatch):
        model = chain_model()
        data = ordinal_dataset(model, rng, n=80)
        real_replicate = estimation._count_polychoric
        calls = []

        def all_but_first_fail(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise EstimationError("singular")
            return real_replicate(*args, **kwargs)

        monkeypatch.setattr(estimation, "_count_polychoric", all_but_first_fail)
        with pytest.raises(EstimationError, match="1 of 4 bootstrap replicates succeeded"):
            bootstrap_inner(data, model, mode="opls", n_boot=4, seed=4)

    def test_path_names_follow_fit_order(self, rng):
        model = chain_model()
        data = factor_dataset(model, rng, n=80)
        fit = fit_correlation_model(pearson_matrix(data), model)
        result = bootstrap_inner(data, model, mode="pls", n_boot=5, seed=4)
        assert result.names == [(eq.target, cov) for eq in fit.inner for cov in eq.covariates]


def loop_pearson(data):
    """pearson_matrix as it was before it became the all-ones weighted moments."""
    values = data.values
    sd = values.std(axis=0, ddof=1)
    if np.any(sd == 0):
        raise DataError(f"zero-variance column '{data.columns[int(np.argmin(sd))]}'")
    return CorrelationMatrix.build(np.corrcoef(values, rowvar=False), kind="pearson")


def resampled(data, idx):
    return DataMatrix(values=data.values[idx], columns=data.columns, kinds=data.kinds)


def loop_bootstrap(data, model, mode, n_boot, seed, epsilon=0.5):
    """The per-replicate loop bootstrap_inner ran before replicates became row counts.

    Each replicate is a resampled DataMatrix, its own correlation matrix,
    a full fit and its path coefficients; an OplsError fails it.
    """

    def fit_once(d):
        if mode == "pls":
            sigma = loop_pearson(d)
        else:
            sigma, _ = polychoric_matrix(d, epsilon=epsilon)
        return fit_correlation_model(sigma, model)

    point = fit_once(data)
    names = [(eq.target, cov) for eq in point.inner for cov in eq.covariates]
    rng = np.random.default_rng(seed)
    draws, failed = [], 0
    for _ in range(n_boot):
        idx = rng.integers(0, data.n_rows, size=data.n_rows)
        try:
            draws.append(fit_once(resampled(data, idx)).path_coefficients(names))
        except OplsError:
            failed += 1
    b = np.vstack(draws)
    below = (b <= 0.0).mean(axis=0)
    above = (b >= 0.0).mean(axis=0)
    p = np.clip(2.0 * np.minimum(below, above), 0.0, 1.0)
    return names, b.std(axis=0, ddof=1), p, len(draws), failed


def two_block_stack():
    """A two-block model and three correlation matrices for it: ``linked``, ``unlinked``
    (no correlation across blocks, so the first weight update is singular) and ``other``."""
    model = build_model(
        "two", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1", "y2"]}, [("a", "b")]
    )
    linked = np.array(
        [[1.0, 0.5, 0.3, 0.2], [0.5, 1.0, 0.4, 0.3], [0.3, 0.4, 1.0, 0.6], [0.2, 0.3, 0.6, 1.0]]
    )
    unlinked = linked.copy()
    unlinked[:2, 2:] = unlinked[2:, :2] = 0.0
    other = linked.copy()
    other[:2, 2:] = other[2:, :2] = -0.25
    return model, linked, unlinked, other


def rare_category_data(rng, model, n=60):
    # category 5 of the first column appears in two rows only, so a replicate
    # misses it with probability about (1 - 2/n)^n, about 0.13
    data = ordinal_dataset(model, rng, n=n, npoints=4)
    values = data.values.copy()
    values[:, 0] = np.minimum(values[:, 0], 4.0)
    values[:2, 0] = 5.0
    return DataMatrix(values, data.columns, data.kinds)


class TestCountWeightedBootstrap:
    """Replicates as row counts against the resampled-DataMatrix loop they replace."""

    def test_pls_matches_per_replicate_loop(self, rng):
        model = chain_model()
        data = factor_dataset(model, rng, n=120)
        names, se, p, n_eff, n_failed = loop_bootstrap(data, model, "pls", 150, seed=7)
        result = bootstrap_inner(data, model, mode="pls", n_boot=150, seed=7)
        assert result.names == names
        assert (result.n_effective, result.n_failed) == (n_eff, n_failed)
        assert np.allclose(result.standard_errors, se, rtol=0.0, atol=1e-12)
        assert np.allclose(result.p_values, p, rtol=0.0, atol=1e-12)

    def test_opls_replicate_rho_bit_identical_with_undrawn_category(self, rng):
        model = chain_model()
        data = rare_category_data(rng, model)
        categories, codes = _ordinal_codes(data)
        full = polychoric_matrix(data)[1]
        draws = np.random.default_rng(11)
        collapsed = 0
        for _ in range(25):
            idx = draws.integers(0, data.n_rows, size=data.n_rows)
            counts = np.bincount(idx, minlength=data.n_rows).astype(float)
            sigma, own = polychoric_matrix(resampled(data, idx))
            values, drawn = _count_polychoric(codes, categories, data.columns, 0.5, counts)
            assert np.array_equal(values, sigma.values)
            for ts, expected in zip(drawn, own):
                assert np.array_equal(ts.cuts, expected.cuts)
                assert ts.categories == expected.categories
            collapsed += own[0].category_count < full[0].category_count
        assert collapsed > 0

    def test_opls_matches_per_replicate_loop(self, rng):
        model = chain_model()
        data = rare_category_data(rng, model)
        names, se, p, n_eff, n_failed = loop_bootstrap(data, model, "opls", 12, seed=5)
        result = bootstrap_inner(data, model, mode="opls", n_boot=12, seed=5)
        assert result.names == names
        assert (result.n_effective, result.n_failed) == (n_eff, n_failed)
        assert np.array_equal(result.standard_errors, se)
        assert np.array_equal(result.p_values, p)

    # 150 pls replicates span several default blocks
    @pytest.mark.parametrize("mode, n_boot", [("pls", 150), ("opls", 6)])
    def test_block_size_does_not_change_results(self, rng, monkeypatch, mode, n_boot):
        model = chain_model()
        data = rare_category_data(rng, model)
        default = bootstrap_inner(data, model, mode=mode, n_boot=n_boot, seed=9)
        monkeypatch.setattr(estimation, "_STACK_BLOCK", 1)
        single = bootstrap_inner(data, model, mode=mode, n_boot=n_boot, seed=9)
        assert np.array_equal(single.standard_errors, default.standard_errors)
        assert np.array_equal(single.p_values, default.p_values)
        assert (single.n_effective, single.n_failed) == (default.n_effective, default.n_failed)

    def test_constant_drawn_column_fails_alone(self, rng):
        # the first indicator varies only in rows 0 and 1; a replicate that
        # draws neither has a constant column and must fail by itself
        model = chain_model()
        data = factor_dataset(model, rng, n=40)
        values = data.values.copy()
        values[:, 0] = 1.0
        values[:2, 0] = 2.0
        data = DataMatrix(values, data.columns, data.kinds)
        draws = np.random.default_rng(13)
        flat = sum(
            not np.any(draws.integers(0, 40, size=40) < 2) for _ in range(estimation._STACK_BLOCK)
        )
        assert 0 < flat < estimation._STACK_BLOCK
        result = bootstrap_inner(data, model, mode="pls", n_boot=estimation._STACK_BLOCK, seed=13)
        assert result.n_failed == flat
        names, se, p, n_eff, n_failed = loop_bootstrap(
            data, model, "pls", estimation._STACK_BLOCK, seed=13
        )
        assert (result.n_effective, result.n_failed) == (n_eff, n_failed)
        assert np.allclose(result.standard_errors, se, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad, message", [
        (lambda col: np.where(np.arange(col.size) == 0, 1e300, col),
         "column 'a2' holds values too large or too small"),
        (lambda col: np.ones_like(col), "zero-variance column 'a2'"),
    ], ids=["huge", "constant"])
    def test_column_without_pearson_correlations_is_a_data_error(self, rng, bad, message):
        # raised before any replicate is drawn, as pearson_matrix raises it
        model = chain_model()
        data = factor_dataset(model, rng, n=40)
        values = data.values.copy()
        values[:, 1] = bad(values[:, 1])
        data = DataMatrix(values, data.columns, data.kinds)
        with pytest.raises(DataError, match=message):
            bootstrap_inner(data, model, mode="pls", n_boot=5)

    def test_replicate_whose_moments_overflow_fails_alone(self, rng):
        # the data's own sum of squares is 0.9 of the float maximum; a replicate
        # that draws row 0 twice or more overflows it and fails without a LinAlgError
        model = chain_model()
        data = factor_dataset(model, rng, n=12)
        values = data.values.copy()
        values[0, 0] = np.sqrt(0.9 * 12 / 11 * np.finfo(float).max)
        data = DataMatrix(values, data.columns, data.kinds)
        draws = np.random.default_rng(3)
        heavy = sum(
            np.sum(draws.integers(0, 12, size=12) == 0) >= 2 for _ in range(estimation._STACK_BLOCK)
        )
        assert 0 < heavy < estimation._STACK_BLOCK
        result = bootstrap_inner(data, model, mode="pls", n_boot=estimation._STACK_BLOCK, seed=3)
        assert heavy <= result.n_failed < estimation._STACK_BLOCK - 1

    def test_singular_update_fails_its_member_alone(self):
        model, linked, unlinked, other = two_block_stack()
        fit = pls._fit_stack(np.stack([linked, unlinked, other]), model)
        assert fit.singular.tolist() == [-1, 0, -1]
        assert fit.converged.tolist() == [True, False, True]
        for member, sigma in ((0, linked), (2, other)):
            alone = matrix_pls_fit(sigma, model)
            assert np.array_equal(fit.raw[member], alone.weights.raw)
            assert np.array_equal(fit.latent_correlations[member], alone.latent_correlations)
            # a member stops iterating at its first weight change below tol
            deltas = np.array(alone.trace.deltas)
            assert np.all(deltas[:-1] >= pls.DEFAULT_TOL) and deltas[-1] < pls.DEFAULT_TOL
            stopped = alone.trace.iterations
            assert fit.deltas[:stopped, member].tolist() == alone.trace.deltas
            assert np.isnan(fit.deltas[stopped:, member]).all()
        with pytest.raises(ConvergenceError, match="zero weight-update column sum for latent 'a'"):
            matrix_pls_fit(unlinked, model)

    @pytest.mark.parametrize("max_iter, kinds", [
        # linked needs 5 iterations, other 1 and rounded 14; unlinked is singular
        (4, [ConvergenceError, ConvergenceError, None, ConvergenceError]),
        (pls.DEFAULT_MAX_ITER, [None, ConvergenceError, None, EstimationError]),
    ])
    def test_member_errors_match_single_fits(self, max_iter, kinds):
        model, *sigmas = two_block_stack()
        # positive definite, but its weights put a block on one indicator, whose
        # loading rounds to 1 + 2**-52
        rounded = np.array([[1.0, -0.4, -0.1, 0.0], [-0.4, 1.0, 0.0, 0.4],
                            [-0.1, 0.0, 1.0, -0.3], [0.0, 0.4, -0.3, 1.0]])
        sigmas.append(rounded)
        *_, errors = estimation._fit_members(np.stack(sigmas), model, pls.DEFAULT_TOL, max_iter)
        assert [None if error is None else type(error) for error in errors] == kinds
        for sigma, error in zip(sigmas, errors):
            try:
                fit_correlation_model(sigma, model, max_iter=max_iter)
            except OplsError as exc:
                assert (type(exc), str(exc)) == (type(error), str(error))
            else:
                assert error is None
        assert "zero weight-update column sum for latent 'a'" in str(errors[1])
        if max_iter == 4:
            assert str(errors[0]).startswith("matrix PLS did not converge in 4 iterations")
            assert errors[0].trace.iterations == 4
        else:
            assert str(errors[3]) == "loadings must lie in [-1, 1]"

    def test_failed_members_make_no_single_fit(self, rng, request):
        model = chain_model()
        data = factor_dataset(model, rng, n=40)
        want = bootstrap_inner(data, model, mode="pls", n_boot=40, seed=2, max_iter=8)
        assert 0 < want.n_failed < 40
        request.getfixturevalue("no_single_fits")
        got = bootstrap_inner(data, model, mode="pls", n_boot=40, seed=2, max_iter=8)
        assert np.array_equal(got.standard_errors, want.standard_errors)
        assert (got.n_effective, got.n_failed) == (want.n_effective, want.n_failed)

    def test_singular_inner_system_fails_its_member_alone(self):
        good = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.4], [0.5, 0.4, 1.0]])
        bad = good.copy()
        bad[0, 1] = bad[1, 0] = 1.0  # identical covariates
        equations = [(2, np.array([0, 1]))]
        coefficients, r_squared, singular = estimation._structural_solve(
            np.stack([good, bad, good]), equations
        )
        assert singular.tolist() == [-1, 2, -1]
        beta = np.linalg.solve(good[:2, :2], good[:2, 2])
        assert np.allclose(coefficients[0], beta, atol=1e-15)
        assert r_squared[0, 0] == pytest.approx(beta @ good[:2, 2], abs=1e-15)
        assert np.array_equal(coefficients[0], coefficients[2])
