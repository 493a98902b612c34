import numpy as np
import pytest
from scipy.special import ndtr

from conftest import ECSI_MODEL, ecsi_dataset, ordinal_dataset, random_recursive_model
from oplspm.distributions import std_normal_cdf
from oplspm.errors import DataError
from oplspm.estimation import fit_correlation_model
from oplspm.model import DataMatrix, build_model, parse_model
from oplspm.pls import score_based_pls_fit
from oplspm.polychoric import ThresholdSet, estimate_thresholds, pearson_matrix, polychoric_matrix
from oplspm.scores import (
    _overlap_probabilities,
    _subject_intervals,
    concordance_table,
    direct_scores,
    latent_thresholds,
    predict_categories,
    raw_scale_scores,
)


def fit_opls(data, model):
    sigma, thresholds = polychoric_matrix(data)
    fit = fit_correlation_model(sigma, model)
    lt = latent_thresholds(thresholds, fit.weights.standardized, model)
    return fit, thresholds, lt


def two_block_model():
    return build_model(
        "two",
        ["a"],
        ["b"],
        {"a": ["x1", "x2"], "b": ["y1", "y2"]},
        [("a", "b")],
    )


def homogeneous_dataset(model, rng, n=200, npoints=4):
    """Each subject picks one category and repeats it on every indicator."""
    cats = rng.integers(1, npoints + 1, size=n)
    values = np.tile(cats[:, None], (1, model.n_indicators)).astype(float)
    # make sure every category is used so no collapse occurs
    values[: npoints, :] = np.arange(1, npoints + 1)[:, None]
    return DataMatrix(values, model.indicator_names, tuple(["ordinal"] * model.n_indicators))


class TestDirectScores:
    def test_single_indicator_score_is_standardized_column(self, rng):
        model = build_model("one", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")])
        x = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], 300)
        data = DataMatrix(x, model.indicator_names, ("interval", "interval"))
        fit = score_based_pls_fit(data, model)
        scores = direct_scores(data, fit.weights.standardized)
        col = (x[:, 0] - x[:, 0].mean()) / x[:, 0].std(ddof=1)
        assert np.allclose(scores[:, 0], col, atol=1e-12)

    def test_unit_variance_and_zero_mean(self, rng):
        model = two_block_model()
        x = rng.standard_normal((150, 1))
        values = np.column_stack(
            [0.9 * x[:, 0] + 0.4 * rng.standard_normal(150) for _ in range(4)]
        )
        data = DataMatrix(values, model.indicator_names, ("interval",) * 4)
        fit = score_based_pls_fit(data, model)
        scores = direct_scores(data, fit.weights.standardized)
        assert np.allclose(scores.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(scores.var(axis=0, ddof=1), 1.0, atol=1e-10)
        assert np.allclose(scores, fit.scores, atol=1e-12)


class TestLatentThresholds:
    def test_single_indicator_passthrough(self):
        model = build_model("one", ["a"], ["b"], {"a": ["x1"], "b": ["y1"]}, [("a", "b")])
        ts = ThresholdSet(np.array([-0.5, 0.7]), (1, 2, 3))
        sw = np.array([[1.0, 0.0], [0.0, 1.0]])
        lt = latent_thresholds([ts, ts], sw, model)
        assert np.allclose(lt.cuts[0], [-0.5, 0.7])
        assert lt.category_counts == (3, 3)

    def test_weighted_aggregation(self):
        model = build_model(
            "pair", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        ts = ThresholdSet(np.array([-1.0, 1.0]), (1, 2, 3))
        sw = np.zeros((3, 2))
        sw[0, 0] = sw[1, 0] = 0.6
        sw[2, 1] = 1.0
        lt = latent_thresholds([ts, ts, ts], sw, model)
        assert np.allclose(lt.cuts[0], [-1.2, 1.2])

    def test_clipped_threshold_contributes_bound_times_weight(self):
        model = build_model(
            "clip", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        clipped = ThresholdSet(np.array([-4.0]), (1, 2))
        normal = ThresholdSet(np.array([0.5]), (1, 2))
        sw = np.zeros((3, 2))
        sw[0, 0] = 0.7
        sw[1, 0] = 0.5
        sw[2, 1] = 1.0
        lt = latent_thresholds([clipped, normal, normal], sw, model)
        assert lt.cuts[0][0] == pytest.approx(0.7 * -4.0 + 0.5 * 0.5, abs=1e-15)

    def test_heterogeneous_counts_rejected(self):
        model = build_model(
            "mixed", ["a"], ["b"], {"a": ["x1", "x2"], "b": ["y1"]}, [("a", "b")]
        )
        t3 = ThresholdSet(np.array([-1.0, 1.0]), (1, 2, 3))
        t2 = ThresholdSet(np.array([0.0]), (1, 2))
        sw = np.zeros((3, 2))
        sw[:2, 0] = 0.6
        sw[2, 1] = 1.0
        with pytest.raises(DataError, match="heterogeneous"):
            latent_thresholds([t3, t2, t2], sw, model)


class TestPredictCategories:
    def test_homogeneous_responses_echo_category(self, rng):
        model = two_block_model()
        data = homogeneous_dataset(model, rng)
        fit, thresholds, lt = fit_opls(data, model)
        for rule in ("mode", "median", "mean"):
            pred = predict_categories(
                data, lt, thresholds, fit.weights.standardized, model, rule=rule
            )
            for j, latent in enumerate(model.latent_names):
                observed = data.values[:, model.block_slice(j).start].astype(int)
                assert np.array_equal(pred[:, j], observed), rule

    def test_overlap_probabilities_sum_to_interval_mass(self, rng):
        padded = np.array([-4.0, -0.8, 0.3, 1.1, 4.0])
        alpha = rng.uniform(-5.5, 1.0, size=40)
        beta = alpha + rng.uniform(0.01, 3.0, size=40)
        probs = _overlap_probabilities(alpha, beta, padded)
        total = std_normal_cdf(beta) - std_normal_cdf(alpha)
        assert np.allclose(probs.sum(axis=1), total, atol=1e-10)
        assert np.all(probs >= 0.0)

    def test_rules_mostly_agree_on_synthetic_data(self, rng):
        model = random_recursive_model(rng, n_latents=4, max_indicators=3)
        data = ordinal_dataset(model, rng, n=200, npoints=5)
        fit, thresholds, lt = fit_opls(data, model)
        preds = {
            rule: predict_categories(
                data, lt, thresholds, fit.weights.standardized, model, rule=rule
            )
            for rule in ("mode", "median", "mean")
        }
        agree = (preds["mode"] == preds["median"]) & (preds["median"] == preds["mean"])
        assert agree.mean() >= 0.8

    def test_median_monotone_under_dominance(self, rng):
        model = two_block_model()
        data = ordinal_dataset(model, rng, n=150, npoints=4)
        fit, thresholds, lt = fit_opls(data, model)
        sw = fit.weights.standardized
        if np.any(sw < 0):  # dominance property needs nonnegative weights
            pytest.skip("orientation produced negative weights")
        pred = predict_categories(data, lt, thresholds, sw, model, rule="median")
        block = model.block_slice(0)
        codes = data.values[:, block].astype(int)
        order = np.lexsort(codes.T[::-1])
        for a_idx in range(0, len(order) - 1, 7):
            s, t = order[a_idx], order[a_idx + 1]
            if np.all(codes[t] >= codes[s]):
                assert pred[t, 0] >= pred[s, 0]

    def test_unknown_rule(self, rng):
        model = two_block_model()
        data = homogeneous_dataset(model, rng)
        fit, thresholds, lt = fit_opls(data, model)
        with pytest.raises(DataError, match="unknown prediction rule"):
            predict_categories(data, lt, thresholds, fit.weights.standardized, model, rule="max")


def overlap_oracle(alpha, beta, cuts):
    """The mode rule's overlaps with Phi taken of every clipped endpoint, frozen."""
    lower_bounds = np.concatenate([[-np.inf], cuts])
    upper_bounds = np.concatenate([cuts, [np.inf]])
    hi = ndtr(np.minimum(beta[:, None], upper_bounds[None, :]))
    lo = ndtr(np.maximum(alpha[:, None], lower_bounds[None, :]))
    return np.clip(hi - lo, 0.0, None)


class TestModeOverlaps:
    """One ndtr per endpoint and per bound gives the per-element overlaps bit for bit."""

    CUTS = np.array([-2.3, -0.8, 0.0, 0.3, 1.1, 3.9])

    def assert_equal_to_oracle(self, alpha, beta, cuts):
        got = _overlap_probabilities(alpha, beta, cuts)
        assert np.array_equal(got, overlap_oracle(alpha, beta, cuts))

    def test_random_intervals(self, rng):
        alpha = rng.uniform(-5.5, 3.0, size=2000)
        beta = alpha + rng.exponential(1.0, size=2000)
        self.assert_equal_to_oracle(alpha, beta, self.CUTS)

    def test_endpoints_on_cuts_and_degenerate_intervals(self):
        points = np.concatenate([self.CUTS, [-0.0, np.nextafter(0.3, 1), np.nextafter(1.1, 0)]])
        alpha, beta = np.meshgrid(points, points)
        alpha, beta = alpha.ravel(), beta.ravel()  # includes alpha == beta and alpha > beta
        self.assert_equal_to_oracle(alpha, beta, self.CUTS)

    def test_endpoints_beyond_four_and_infinite(self):
        ends = np.array([-np.inf, -9.0, -4.5, -4.0, 4.0, 4.5, 9.0, np.inf])
        alpha, beta = np.meshgrid(ends, ends)
        self.assert_equal_to_oracle(alpha.ravel(), beta.ravel(), self.CUTS)

    def test_where_ndtr_steps_down(self):
        # ndtr is not monotone in the last bit, so Phi(min(beta, u)) is not the
        # min of Phi(beta) and Phi(u) where beta is the float just above a cut u
        x = (np.array([0.5]).view(np.int64) + np.arange(20000)).view(np.float64)
        down = np.flatnonzero(np.diff(ndtr(x)) < 0)
        if not down.size:
            pytest.skip("ndtr is monotone on this grid")
        beta = x[down + 1]
        self.assert_equal_to_oracle(beta - 1.0, beta, x[down])
        self.assert_equal_to_oracle(x[down], x[down] + 1.0, beta)

    def test_swapped_weight_intervals(self, rng, caplog):
        model = two_block_model()
        data = ordinal_dataset(model, rng, n=300, npoints=5)
        _, thresholds = polychoric_matrix(data)
        block = model.block_slice(0)
        weights = np.array([0.9, -0.6])  # a negative weight reverses some intervals
        alpha, beta = _subject_intervals(data, block, thresholds, weights, "a")
        assert "reversed by negative weights; endpoints swapped" in caplog.text
        cuts = weights @ np.vstack([thresholds[k].cuts for k in range(block.start, block.stop)])
        self.assert_equal_to_oracle(alpha, beta, np.sort(cuts))
        self.assert_equal_to_oracle(beta, alpha, np.sort(cuts))

    def test_mode_rule_on_ecsi_sample(self, rng):
        model = parse_model(ECSI_MODEL)
        data = ecsi_dataset(rng, n=400)
        fit, thresholds, lt = fit_opls(data, model)
        sw = fit.weights.standardized
        pred = predict_categories(data, lt, thresholds, sw, model, rule="mode")
        for j, latent in enumerate(model.latent_names):
            block = model.block_slice(j)
            alpha, beta = _subject_intervals(data, block, thresholds, sw[block, j], latent)
            expected = np.argmax(overlap_oracle(alpha, beta, lt.cuts[j]), axis=1) + 1
            assert np.array_equal(pred[:, j], expected), latent


class TestRawScaleAndConcordance:
    def test_raw_scores_stay_on_scale(self, rng):
        model = two_block_model()
        data = ordinal_dataset(model, rng, n=120, npoints=5)
        fit = fit_correlation_model(pearson_matrix(data), model)
        raw = raw_scale_scores(data, fit.weights.raw)
        if np.all(fit.weights.raw >= 0):
            assert raw.min() >= 1.0 - 1e-9
            assert raw.max() <= 5.0 + 1e-9

    def test_concordance_table(self):
        pred = np.array([[1, 2], [2, 3], [3, 3]])
        ref = np.array([[1, 2], [3, 3], [1, 3]])
        out = concordance_table(pred, ref)
        assert out["exact"][0] == pytest.approx(100.0 / 3)
        assert out["exact"][1] == pytest.approx(100.0)
        assert out["within_one"][0] == pytest.approx(200.0 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            concordance_table(np.ones((2, 2)), np.ones((3, 2)))
