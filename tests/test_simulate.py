import numpy as np
import pytest

from oplspm.errors import DataError
from oplspm.simulate import (
    BETA_SHAPES,
    BLOCK_LOADINGS,
    PARAMETER_PATHS,
    PARAMETERS,
    TRUE_VALUES,
    ZETA_VARIANCES,
    SimulationConfig,
    bias_ratio_summary,
    generate_dataset,
    rescale_to_points,
    run_study,
    simulation_model,
)


class TestConfig:
    def test_defaults_match_full_study(self):
        config = SimulationConfig()
        assert config.replications == 500
        assert config.sample_size == 250

    @pytest.mark.parametrize(
        "kw",
        [
            {"latent_law": "cauchy"},
            {"npoints": 6},
            {"replications": 0},
            {"sample_size": 2},
            {"epsilon": -1.0},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DataError):
            SimulationConfig(**kw)


class TestModelAndVariances:
    def test_structure(self):
        model = simulation_model()
        assert model.exogenous_count == 3
        assert model.endogenous_count == 3
        assert model.block_sizes == (3,) * 6
        assert int(model.inner_adjacency.sum()) == 5
        for param, (target, source) in PARAMETER_PATHS.items():
            j = model.latent_names.index(target)
            k = model.latent_names.index(source)
            assert model.inner_adjacency[j, k] == 1.0, param

    def test_error_variances_force_unit_variance(self):
        # independent re-derivation of the unit-variance algebra
        assert ZETA_VARIANCES[0] == pytest.approx(1.0 - 0.9**2, abs=1e-15)  # 0.19
        assert ZETA_VARIANCES[1] == pytest.approx(
            1.0 - 0.5**2 - 0.5**2 - 0.6**2, abs=1e-15
        )  # 0.14
        assert ZETA_VARIANCES[2] == pytest.approx(1.0 - 0.6**2, abs=1e-15)  # 0.64
        assert all(v >= 0 for v in ZETA_VARIANCES)
        # measurement errors: 1 - lambda^2, e.g. 0.0975 for lambda=0.95
        assert 1.0 - BLOCK_LOADINGS[2] ** 2 == pytest.approx(0.0975, abs=1e-15)

    def test_latent_population_variances(self):
        config = SimulationConfig(sample_size=200_000, replications=1, seed=5)
        _, latents = generate_dataset(config, np.random.default_rng(5))
        assert np.allclose(latents.var(axis=0, ddof=1), 1.0, atol=4.0 / np.sqrt(200_000) * 3)


class TestRescaling:
    def test_codes_cover_range(self, rng):
        x = rng.standard_normal(500)
        for npoints in (4, 5, 7, 9):
            codes = rescale_to_points(x, npoints)
            assert codes.min() >= 1 and codes.max() <= npoints
            assert codes[np.argmin(x)] == 1
            assert codes[np.argmax(x)] == npoints

    def test_half_away_rounding_at_minimum(self):
        codes = rescale_to_points(np.array([0.0, 1.0]), 4)
        # min rescales to exactly 0.5 and must round up to category 1
        assert codes[0] == 1.0
        assert codes[1] == 4.0

    def test_zero_range_errors(self):
        with pytest.raises(DataError, match="zero range"):
            rescale_to_points(np.ones(10), 4)


class TestGenerateDataset:
    def test_determinism(self):
        config = SimulationConfig(replications=1, seed=3)
        a, la = generate_dataset(config, np.random.default_rng(3))
        b, lb = generate_dataset(config, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(la, lb)

    def test_shapes_and_kinds(self):
        config = SimulationConfig(sample_size=100)
        data, latents = generate_dataset(config, np.random.default_rng(0))
        assert data.values.shape == (100, 18)
        assert latents.shape == (100, 6)
        assert data.all_ordinal
        assert data.values.max() <= config.npoints

    def test_beta_law_skews_left(self):
        config = SimulationConfig(latent_law="beta", sample_size=50_000, npoints=9)
        _, latents = generate_dataset(config, np.random.default_rng(8))
        skew = np.mean(latents[:, :3] ** 3, axis=0)
        assert np.all(skew < -0.3)


class TestRatioSummary:
    def test_identical_biases(self):
        b = np.array([0.1, -0.2, 0.05])
        s = bias_ratio_summary(b, b)
        assert np.allclose(s.percentiles, 1.0)
        assert s.geometric_mean == pytest.approx(1.0, abs=1e-12)

    def test_halved_biases(self):
        b = np.array([0.1, -0.2, 0.05, 0.4])
        s = bias_ratio_summary(b, b / 2)
        assert s.geometric_mean == pytest.approx(0.5, abs=1e-12)

    def test_zero_pls_bias_excluded_with_count(self):
        s = bias_ratio_summary(np.array([0.0, 0.1]), np.array([0.3, 0.05]))
        assert s.n_excluded == 1
        assert s.n_used == 1
        assert s.geometric_mean == pytest.approx(0.5, abs=1e-12)

    def test_empty_error(self):
        with pytest.raises(DataError):
            bias_ratio_summary(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            bias_ratio_summary(np.array([1.0]), np.array([1.0, 2.0]))


class TestRunStudy:
    def test_seed_determinism_and_summaries(self):
        config = SimulationConfig(replications=4, seed=12)
        a = run_study(config)
        b = run_study(config)
        assert np.array_equal(a.bias_pls, b.bias_pls)
        assert np.array_equal(a.bias_opls, b.bias_opls)
        assert a.parameters == PARAMETERS
        assert a.bias_pls.shape == (4 - a.n_excluded, 5)
        rows = a.summary_rows()
        assert len(rows) == 15  # 5 parameters x (pls, opls, ratio)
        sections = {r["section"] for r in rows}
        assert sections == {"pls", "opls", "ratio"}
        for row in rows:
            assert np.all(np.diff(row["percentiles"]) >= -1e-12)
        outer = a.outer_rows()
        assert len(outer) == 4 * 18

    def test_non_pd_replication_reports_smallest_eigenvalue(self):
        report = run_study(SimulationConfig(latent_law="beta", npoints=4, replications=2, seed=127))
        assert report.failures == [
            {"replication": 0, "error": "polychoric matrix not positive definite (smallest eigenvalue -0.00559)"}
        ]
        assert report.n_used == 1

    def test_true_values_are_fixed_constants(self):
        assert TRUE_VALUES == {
            "gamma11": 0.9,
            "gamma22": 0.5,
            "gamma23": 0.6,
            "beta21": 0.5,
            "beta32": 0.6,
        }
        assert BLOCK_LOADINGS == (0.8, 0.9, 0.95)
        assert BETA_SHAPES == ((11.0, 2.0), (16.0, 3.0), (54.0, 7.0))
