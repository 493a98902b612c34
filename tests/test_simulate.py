import re

import numpy as np
import pytest

from oplspm import estimation, simulate
from oplspm.errors import ConvergenceError, DataError, EstimationError
from oplspm.estimation import fit_correlation_model
from oplspm.pls import DEFAULT_MAX_ITER
from oplspm.polychoric import CorrelationMatrix, pearson_matrix, polychoric_matrix
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
        # run_study reads the biases in the structural-equation order of the coefficients
        names = model.latent_names
        paths = [(names[j], names[c]) for j, cov in estimation._structural_equations(model) for c in cov]
        assert paths == [PARAMETER_PATHS[p] for p in PARAMETERS]

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


REPORT_ARRAYS = (
    "bias_pls", "bias_opls", "loadings_pls", "loadings_opls", "weights_pls", "weights_opls"
)


def reference_study(config, max_iter=DEFAULT_MAX_ITER):
    """The per-replication loop ``run_study`` replaced: one ``fit_correlation_model``
    call per matrix. Returns the report arrays (None when every replication
    failed) and the failures."""
    model = simulation_model()
    rows = {name: [] for name in REPORT_ARRAYS}
    failures = []
    truth = np.array([TRUE_VALUES[p] for p in PARAMETERS])
    paths = [PARAMETER_PATHS[p] for p in PARAMETERS]
    for rep in range(config.replications):
        rng = np.random.default_rng([config.seed, rep])
        try:
            data, _ = generate_dataset(config, rng)
            fit_p = fit_correlation_model(pearson_matrix(data), model, max_iter=max_iter)
            sigma_poly, _ = polychoric_matrix(data, epsilon=config.epsilon)
            if sigma_poly.pd_status == "failed":
                eig = sigma_poly.min_eigenvalue()
                raise DataError(f"polychoric matrix not positive definite (smallest eigenvalue {eig:.3g})")
            fit_o = fit_correlation_model(sigma_poly, model, max_iter=max_iter)
        except (DataError, ConvergenceError, EstimationError) as exc:
            failures.append({"replication": rep, "error": str(exc)})
            continue
        for engine, fit in (("pls", fit_p), ("opls", fit_o)):
            rows[f"bias_{engine}"].append(fit.path_coefficients(paths) - truth)
            rows[f"loadings_{engine}"].append(fit.loadings)
            rows[f"weights_{engine}"].append(fit.weights.raw[model.weight_pattern() == 1.0])
    if not rows["bias_pls"]:
        return None, failures
    return {name: np.vstack(values) for name, values in rows.items()}, failures


def assert_same_report(report, arrays, failures):
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(report, name), arrays[name]), name
    assert report.failures == failures


class TestStackedStudy:
    """``run_study`` fits each route as a stack and keeps the per-replication results."""

    @pytest.mark.parametrize(
        "law, npoints, seed, max_iter",
        [
            ("beta", 4, 127, DEFAULT_MAX_ITER),  # replication 0 is not positive definite
            ("normal", 9, 3, DEFAULT_MAX_ITER),
            # With 5 iterations some members fail in their stack and are fitted
            # again alone: Pearson fits at beta/4, and at normal/9 the
            # polychoric fit of replication 38, whose Pearson fit converges.
            ("beta", 4, 127, 5),
            ("normal", 9, 3, 5),
        ],
    )
    def test_matches_per_replication_loop(self, monkeypatch, law, npoints, seed, max_iter):
        config = SimulationConfig(latent_law=law, npoints=npoints, replications=40, seed=seed)
        arrays, failures = reference_study(config, max_iter=max_iter)
        monkeypatch.setattr(simulate, "DEFAULT_MAX_ITER", max_iter)
        assert_same_report(run_study(config), arrays, failures)
        if max_iter == 5:
            assert any("did not converge in 5 iterations" in f["error"] for f in failures)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_results(self, monkeypatch, block):
        config = SimulationConfig(latent_law="beta", npoints=4, replications=20, seed=127)
        monkeypatch.setattr(simulate, "DEFAULT_MAX_ITER", 5)
        default = run_study(config)
        assert default.n_excluded == 5
        monkeypatch.setattr(estimation, "_STACK_BLOCK", block)
        patched = run_study(config)
        arrays = {name: getattr(default, name) for name in REPORT_ARRAYS}
        assert_same_report(patched, arrays, default.failures)

    def test_iteration_cap_of_one_gives_the_per_replication_text(self, monkeypatch):
        config = SimulationConfig(latent_law="normal", npoints=5, replications=3, seed=4)
        _, failures = reference_study(config, max_iter=1)
        assert len(failures) == 3
        texts = [f["error"] for f in failures]
        for text in texts:
            assert re.fullmatch(
                r"matrix PLS did not converge in 1 iterations \(last delta \d\.\d{3}e[+-]\d+\)", text
            )
        monkeypatch.setattr(simulate, "DEFAULT_MAX_ITER", 1)
        # every Pearson fit fails, so the whole stack's texts are its route's
        sigmas = {}
        for rep in range(3):
            data, _ = generate_dataset(config, np.random.default_rng([config.seed, rep]))
            sigmas[rep] = pearson_matrix(data)
        errors = {}
        assert simulate._fit_route(sigmas, simulation_model(), errors) == {}
        assert [errors[rep] for rep in range(3)] == texts
        with pytest.raises(DataError) as info:
            run_study(config)
        assert str(info.value) == f"every replication failed (3 of 3); replication 0: {texts[0]}"

    def test_failures_are_read_off_the_stack(self, monkeypatch, request):
        # At 5 iterations normal/4 seed 1 has failed members in both stacks:
        # Pearson fits (replication 3 and others) and the polychoric fit of
        # replication 17, whose Pearson fit converges. No member is fitted alone.
        config = SimulationConfig(latent_law="normal", npoints=4, replications=40, seed=1)
        arrays, failures = reference_study(config, max_iter=5)
        monkeypatch.setattr(simulate, "DEFAULT_MAX_ITER", 5)
        request.getfixturevalue("no_single_fits")
        report = run_study(config)
        assert_same_report(report, arrays, failures)
        failed = {f["replication"] for f in failures}
        assert {3, 17} <= failed

    def test_pearson_failure_outranks_polychoric_failure(self, monkeypatch):
        # Replication 0 of beta/4 at seed 127 has a polychoric matrix that is
        # not positive definite; a failed Pearson fit of the same replication
        # is reported instead, as when the polychoric matrix was computed
        # only after a successful Pearson fit.
        config = SimulationConfig(latent_law="beta", npoints=4, replications=2, seed=127)
        calls = []

        def failing_pearson(data):
            sigma = pearson_matrix(data)
            calls.append(data)
            if len(calls) > 1:
                return sigma
            return CorrelationMatrix(np.ones_like(sigma.values), "pearson", "failed")

        monkeypatch.setattr(simulate, "pearson_matrix", failing_pearson)
        report = run_study(config)
        assert report.failures == [{
            "replication": 0,
            "error": "correlation matrix is not positive definite; re-run with PD repair enabled",
        }]
        assert report.n_used == 1
