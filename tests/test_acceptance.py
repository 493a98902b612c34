"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The simulation criteria share cached desk-scale
studies (100 replications, fixed seed); the whole suite targets a
single-digit-minute budget.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import ECSI_MODEL, factor_dataset, random_recursive_model, ordinal_dataset
from oplspm import (
    ContingencyTable,
    DataMatrix,
    SimulationConfig,
    ThresholdSet,
    bvn_cdf,
    cell_probabilities,
    crosstab,
    cronbach_alpha_ordinal,
    dillon_goldstein_rho,
    estimate_thresholds,
    fit_correlation_model,
    latent_thresholds,
    load_data,
    matrix_pls_fit,
    parse_model,
    pearson_matrix,
    polychoric_matrix,
    polychoric_pair,
    predict_categories,
    run_study,
    score_based_pls_fit,
    std_normal_cdf,
)

SEED = 20260810

_STUDIES = {}


def study(law, npoints):
    key = (law, npoints)
    if key not in _STUDIES:
        _STUDIES[key] = run_study(
            SimulationConfig(latent_law=law, npoints=npoints, replications=100, seed=SEED)
        )
    return _STUDIES[key]


def conclude(number, name, checks):
    """Assert every (label, ok) pair and print the criterion verdict."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else f"FAIL ({'; '.join(failed)})"
    print(f"[ACCEPTANCE] criterion {number:02d} {name}: {verdict}")
    assert not failed, f"criterion {number} failed: {failed}"


def test_criterion_01_engine_equivalence():
    rng = np.random.default_rng(SEED)
    checks = []
    for trial in range(20):
        model = random_recursive_model(rng, max_indicators=5)
        data = factor_dataset(model, rng, n=200)
        sfit = score_based_pls_fit(data, model)
        mfit = matrix_pls_fit(pearson_matrix(data), model)
        dw = float(np.abs(sfit.weights.raw - mfit.weights.raw).max())
        full = fit_correlation_model(pearson_matrix(data), model)
        # inner coefficients: OLS on the score-engine's scores
        idx = {name: i for i, name in enumerate(model.latent_names)}
        d_inner = 0.0
        for eq in full.inner:
            x = sfit.scores[:, [idx[c] for c in eq.covariates]]
            y = sfit.scores[:, idx[eq.target]]
            beta = np.linalg.lstsq(x, y, rcond=None)[0]
            d_inner = max(d_inner, float(np.abs(beta - eq.coefficients).max()))
        # loadings: data-space correlation of indicator with its composite
        d_load = 0.0
        for j in range(model.n_latents):
            block = model.block_slice(j)
            for k in range(block.start, block.stop):
                r = np.corrcoef(data.values[:, k], sfit.scores[:, j])[0, 1]
                d_load = max(d_load, abs(r - full.loadings[k]))
        checks.append((f"trial {trial}: dw={dw:.2e} di={d_inner:.2e} dl={d_load:.2e}",
                       dw < 1e-8 and d_inner < 1e-8 and d_load < 1e-8))
    conclude(1, "engine equivalence on 20 random interval datasets", checks)


def test_criterion_02_bivariate_normal_cdf():
    worst_identity = 0.0
    for rho in np.arange(-0.95, 0.951, 0.05):
        got = bvn_cdf(0.0, 0.0, rho)
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        worst_identity = max(worst_identity, abs(got - want))
    rng = np.random.default_rng(SEED)
    h = rng.uniform(-4, 4, 1000)
    k = rng.uniform(-4, 4, 1000)
    rhos = rng.uniform(-0.999, 0.999, 1000)
    worst_frechet = 0.0
    for hi, ki, ri in zip(h, k, rhos):
        p = bvn_cdf(hi, ki, ri)
        lo_bound = max(0.0, std_normal_cdf(hi) + std_normal_cdf(ki) - 1.0)
        hi_bound = min(std_normal_cdf(hi), std_normal_cdf(ki))
        worst_frechet = max(worst_frechet, lo_bound - p, p - hi_bound)
    conclude(2, "bivariate normal CDF accuracy", [
        (f"zero-limit identity err {worst_identity:.2e}", worst_identity < 1e-9),
        (f"Frechet bound violation {worst_frechet:.2e}", worst_frechet < 1e-9),
    ])


def test_criterion_03_polychoric_grid_oracle():
    rng = np.random.default_rng(SEED)
    grid = np.linspace(-0.999, 0.999, 2001)
    worst_rho, worst_ll = 0.0, 0.0
    for _ in range(50):
        ih, ik = rng.integers(2, 10, 2)
        ts_h = ThresholdSet(np.sort(rng.normal(size=ih - 1)), tuple(range(1, ih + 1)))
        ts_k = ThresholdSet(np.sort(rng.normal(size=ik - 1)), tuple(range(1, ik + 1)))
        counts = rng.integers(0, 25, size=(ih, ik)).astype(float)
        counts[0, 0] += 1
        counts[-1, -1] += 1
        table = ContingencyTable(counts)  # default smoothing eps=0.5
        fit = polychoric_pair(table, ts_h, ts_k)
        probs = cell_probabilities(ts_h, ts_k, grid)  # one table per grid point
        ll = np.sum(table.smoothed() * np.log(np.maximum(probs, 1e-300)), axis=(1, 2))
        best = int(np.argmax(ll))
        best_ll, best_rho = float(ll[best]), grid[best]
        worst_rho = max(worst_rho, abs(fit.rho - best_rho))
        worst_ll = max(worst_ll, best_ll - fit.loglik)
    conclude(3, "polychoric matches 2001-point grid search on 50 tables", [
        (f"max |rho - rho_grid| = {worst_rho:.2e}", worst_rho < 1e-3),
        (f"max loglik shortfall = {worst_ll:.2e}", worst_ll < 1e-6),
    ])


def test_criterion_04_polychoric_consistency():
    rng = np.random.default_rng(SEED)
    cuts = np.array([-1.0, 0.0, 1.0])  # 4-point discretization
    checks = []
    for rho in (0.3, 0.6, 0.9):
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=100_000)
        x = np.searchsorted(cuts, z[:, 0]) + 1
        y = np.searchsorted(cuts, z[:, 1]) + 1
        ts_x, ts_y = estimate_thresholds(x), estimate_thresholds(y)
        table = ContingencyTable(
            crosstab(ts_x.map_codes(x), ts_y.map_codes(y), ts_x.category_count, ts_y.category_count)
        )
        fit = polychoric_pair(table, ts_x, ts_y)
        checks.append((f"rho={rho}: estimate {fit.rho:.4f}", abs(fit.rho - rho) < 0.01))
    conclude(4, "polychoric recovers rho from 1e5 discretized draws", checks)


def test_criterion_05_simulation_desk_scale_reproduction():
    report = study("normal", 4)
    g = report.parameter_summary("gamma11")
    pls_mean = g["pls"]["mean"]
    opls_mean = g["opls"]["mean"]
    gmeans = {p: report.parameter_summary(p)["ratio"].geometric_mean for p in report.parameters}
    checks = [
        (f"pls gamma11 mean {pls_mean:+.4f} in [-0.14, -0.11]", -0.14 <= pls_mean <= -0.11),
        (f"opls gamma11 mean {opls_mean:+.4f} in [-0.09, -0.05]", -0.09 <= opls_mean <= -0.05),
    ]
    for p, gm in gmeans.items():
        checks.append((f"gmean ratio {p} = {gm:.3f} < 0.70", gm < 0.70))
    conclude(5, "desk-scale bias reproduction (normal, 4 points)", checks)


def test_criterion_06_ratio_trend_in_npoints():
    gmeans = [
        study("normal", npts).parameter_summary("gamma11")["ratio"].geometric_mean
        for npts in (4, 5, 7, 9)
    ]
    inversions = sum(1 for a, b in zip(gmeans, gmeans[1:]) if not b > a)
    detail = " -> ".join(f"{g:.3f}" for g in gmeans)
    conclude(6, "gamma11 ratio geometric means increase with npoints", [
        (f"{detail} (inversions={inversions}, allowed 1)", inversions <= 1),
    ])


def test_criterion_07_negative_pls_bias():
    checks = []
    for law in ("normal", "beta"):
        for npts in (4, 5):
            report = study(law, npts)
            means = report.bias_pls.mean(axis=0)
            detail = ", ".join(f"{p}={m:+.3f}" for p, m in zip(report.parameters, means))
            checks.append((f"{law}/{npts}: {detail}", bool(np.all(means < 0.0))))
    conclude(7, "mean pls bias strictly negative (4 and 5 points, both laws)", checks)


def _fit_opls_with_thresholds(data, model):
    sigma, thresholds = polychoric_matrix(data)
    fit = fit_correlation_model(sigma, model)
    lt = latent_thresholds(thresholds, fit.weights.standardized, model)
    return fit, thresholds, lt


def test_criterion_08_score_prediction_coherency():
    rng = np.random.default_rng(SEED)
    from oplspm import build_model

    model = build_model(
        "coh", ["a"], ["b"],
        {"a": ["x1", "x2"], "b": ["y1", "y2", "y3"]},
        [("a", "b")],
    )
    npoints = 5
    cats = rng.integers(1, npoints + 1, size=300)
    cats[:npoints] = np.arange(1, npoints + 1)
    values = np.tile(cats[:, None], (1, model.n_indicators)).astype(float)
    homog = DataMatrix(values, model.indicator_names, ("ordinal",) * 5)
    fit, thresholds, lt = _fit_opls_with_thresholds(homog, model)
    checks = []
    for rule in ("mode", "median", "mean"):
        pred = predict_categories(homog, lt, thresholds, fit.weights.standardized, model, rule)
        hit = float((pred == cats[:, None]).mean())
        checks.append((f"homogeneous {rule}: {100 * hit:.1f}% exact", hit == 1.0))

    model2 = random_recursive_model(np.random.default_rng(SEED + 1), n_latents=4, max_indicators=3)
    general = ordinal_dataset(model2, np.random.default_rng(SEED + 2), n=250, npoints=4)
    fit2, thresholds2, lt2 = _fit_opls_with_thresholds(general, model2)
    preds = {
        rule: predict_categories(general, lt2, thresholds2, fit2.weights.standardized, model2, rule)
        for rule in ("mode", "median", "mean")
    }
    agree = float(((preds["mode"] == preds["median"]) & (preds["median"] == preds["mean"])).mean())
    checks.append((f"general synthetic three-rule agreement {100 * agree:.1f}%", agree >= 0.80))
    conclude(8, "score-prediction coherency", checks)


MOBILE_CSV = os.environ.get(
    "OPLSPM_MOBILE_CSV", str(Path(__file__).parent / "data" / "mobilephone.csv")
)


@pytest.mark.skipif(
    not Path(MOBILE_CSV).exists(),
    reason="mobile-phone dataset not supplied; criteria 1-8 and 10 constitute acceptance",
)
def test_criterion_09_mobile_phone_reproduction():
    model = parse_model(ECSI_MODEL)
    data = load_data(MOBILE_CSV, model, kinds="ordinal")
    pls = fit_correlation_model(pearson_matrix(data), model)
    opls = fit_correlation_model(polychoric_matrix(data)[0], model)
    b21_pls = pls.path_coefficients([("expectations", "image")])[0]
    b53_pls = pls.path_coefficients([("satisfaction", "quality")])[0]
    b21_opls = opls.path_coefficients([("expectations", "image")])[0]
    conclude(9, "mobile-phone fit reproduction", [
        (f"pls beta21 {b21_pls:.3f} ~ 0.491", abs(b21_pls - 0.491) <= 0.005),
        (f"pls beta53 {b53_pls:.3f} ~ 0.544", abs(b53_pls - 0.544) <= 0.005),
        (f"opls beta21 {b21_opls:.3f} ~ 0.584", abs(b21_opls - 0.584) <= 0.01),
    ])


def test_criterion_10_reliability_formulas():
    alpha_half = cronbach_alpha_ordinal(np.array([[1.0, 0.5], [0.5, 1.0]]))
    alpha_zero = cronbach_alpha_ordinal(np.eye(2))
    near_one = np.full((2, 2), 1.0 - 1e-12)
    np.fill_diagonal(near_one, 1.0)
    alpha_limit = cronbach_alpha_ordinal(near_one)
    rho_perfect = dillon_goldstein_rho([1.0, 1.0])
    rho_null = dillon_goldstein_rho([0.0, 0.0])
    rho_mixed = dillon_goldstein_rho([0.8, 0.9, 0.95])
    want_mixed = 7.0225 / (7.0225 + 0.6475)
    conclude(10, "reliability formulas match hand computation", [
        (f"alpha(r=0.5) = {alpha_half:.12f}", abs(alpha_half - 2.0 / 3.0) < 1e-10),
        (f"alpha(r=0) = {alpha_zero:.2e}", abs(alpha_zero) < 1e-10),
        (f"alpha(r->1) = {alpha_limit:.12f}", abs(alpha_limit - 1.0) < 1e-10),
        (f"dg(1,1) = {rho_perfect}", abs(rho_perfect - 1.0) < 1e-10),
        (f"dg(0,0) = {rho_null}", abs(rho_null) < 1e-10),
        (f"dg(0.8,0.9,0.95) = {rho_mixed:.12f}", abs(rho_mixed - want_mixed) < 1e-10),
    ])
