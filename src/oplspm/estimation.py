"""Ending phase: inner path coefficients, outer loadings, residual
variances, and block reliability, all computed from correlation matrices
alone so the same code serves interval (Pearson) and ordinal (polychoric)
fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, OplsError
from .model import DataMatrix, PathModel
from .pls import DEFAULT_MAX_ITER, DEFAULT_TOL, FitTrace, WeightState, matrix_pls_fit
from .polychoric import CorrelationMatrix, pearson_matrix, polychoric_matrix

__all__ = [
    "InnerEquation",
    "BlockReliability",
    "FitResult",
    "inner_coefficients",
    "outer_loadings",
    "cronbach_alpha_ordinal",
    "dillon_goldstein_rho",
    "fit_correlation_model",
    "BootstrapResult",
    "bootstrap_inner",
]


@dataclass
class InnerEquation:
    """One structural regression: standardized coefficients and fit."""

    target: str
    covariates: tuple[str, ...]
    coefficients: np.ndarray
    r_squared: float

    @property
    def residual_variance(self) -> float:
        return 1.0 - self.r_squared


@dataclass
class BlockReliability:
    latent: str
    n_indicators: int
    cronbach_alpha: float | None
    dillon_goldstein: float | None


@dataclass
class FitResult:
    """Complete fit of a path model from one correlation matrix."""

    mode: str  # "pls" | "opls"
    model: PathModel
    weights: WeightState
    latent_correlations: np.ndarray
    inner: list[InnerEquation]
    loadings: np.ndarray
    reliability: list[BlockReliability]
    trace: FitTrace

    @property
    def loading_residuals(self) -> np.ndarray:
        return 1.0 - self.loadings**2

    def path_coefficients(self, paths) -> np.ndarray:
        """Inner coefficients of the given (target, covariate) paths, in order."""
        lookup = {
            (eq.target, cov): b
            for eq in self.inner
            for cov, b in zip(eq.covariates, eq.coefficients.tolist())
        }
        try:
            return np.array([lookup[path] for path in paths])
        except KeyError as exc:
            target, covariate = exc.args[0]
            raise EstimationError(
                f"no inner coefficient for path {covariate} -> {target}"
            ) from None

    def inner_coefficient(self, target: str, covariate: str) -> float:
        return float(self.path_coefficients([(target, covariate)])[0])


def inner_coefficients(p_yy: np.ndarray, model: PathModel) -> list[InnerEquation]:
    """Solve every structural equation from the latent correlation matrix.

    For each endogenous latent the covariate rows/columns are extracted
    from ``p_yy`` and the normal equations solved; on standardized
    variables this is exactly the OLS of the composite scores.
    """
    p_yy = np.asarray(p_yy, dtype=float)
    equations = []
    t = model.inner_adjacency
    for j in range(model.exogenous_count, model.n_latents):
        covariate_idx = np.flatnonzero(t[j])
        sub = p_yy[np.ix_(covariate_idx, covariate_idx)]
        rhs = p_yy[covariate_idx, j]
        try:
            beta = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            raise EstimationError(
                f"singular inner system for equation '{model.latent_names[j]}'"
            ) from None
        equations.append(
            InnerEquation(
                target=model.latent_names[j],
                covariates=tuple(model.latent_names[k] for k in covariate_idx),
                coefficients=beta,
                r_squared=float(beta @ rhs),
            )
        )
    return equations


def outer_loadings(sigma_xy: np.ndarray, model: PathModel) -> np.ndarray:
    """Loading of each indicator on its own composite.

    ``sigma_xy`` must be the indicator-composite correlation matrix
    (``sigma_xx @ sw`` with unit-diagonal ``sigma_xx``); the loading is the
    correlation between an indicator and the composite of its block.
    """
    sigma_xy = np.asarray(sigma_xy, dtype=float)
    lams = np.empty(model.n_indicators)
    for j in range(model.n_latents):
        block = model.block_slice(j)
        lams[block] = sigma_xy[block, j]
    return lams


def cronbach_alpha_ordinal(block_matrix: np.ndarray) -> float:
    """Cronbach's alpha evaluated on a unit-diagonal correlation submatrix.

    With a polychoric submatrix this is the ordinal variant of alpha.
    """
    r = np.asarray(block_matrix, dtype=float)
    p = r.shape[0]
    if r.ndim != 2 or r.shape != (p, p) or p < 2:
        raise EstimationError("Cronbach's alpha needs a square block with at least 2 items")
    return float((p / (p - 1.0)) * (1.0 - p / r.sum()))


def dillon_goldstein_rho(loadings) -> float:
    """Composite reliability from a block's loadings."""
    lams = np.asarray(loadings, dtype=float)
    if lams.size < 2:
        raise EstimationError("Dillon-Goldstein's rho needs at least 2 items")
    if np.any(np.abs(lams) > 1.0):
        raise EstimationError("loadings must lie in [-1, 1]")
    total = lams.sum() ** 2
    return float(total / (total + np.sum(1.0 - lams**2)))


def fit_correlation_model(
    sigma_xx: CorrelationMatrix,
    model: PathModel,
    mode: str | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Run the matrix engine and the full ending phase on one matrix.

    ``mode`` defaults from the matrix kind: "pls" for Pearson input,
    "opls" for polychoric input.
    """
    if mode is None:
        mode = "opls" if sigma_xx.kind == "polychoric" else "pls"
    engine = matrix_pls_fit(sigma_xx, model, tol=tol, max_iter=max_iter)
    sigma = sigma_xx.values
    sigma_xy = sigma @ engine.weights.standardized
    lams = outer_loadings(sigma_xy, model)
    inner = inner_coefficients(engine.latent_correlations, model)
    reliability = []
    for j, latent in enumerate(model.latent_names):
        block = model.block_slice(j)
        p_j = model.block_sizes[j]
        if p_j >= 2:
            alpha = cronbach_alpha_ordinal(sigma[block, block])
            dg = dillon_goldstein_rho(lams[block])
        else:
            alpha = dg = None
        reliability.append(
            BlockReliability(
                latent=latent, n_indicators=p_j, cronbach_alpha=alpha, dillon_goldstein=dg
            )
        )
    return FitResult(
        mode=mode,
        model=model,
        weights=engine.weights,
        latent_correlations=engine.latent_correlations,
        inner=inner,
        loadings=lams,
        reliability=reliability,
        trace=engine.trace,
    )


@dataclass
class BootstrapResult:
    """Nonparametric bootstrap of the inner coefficients.

    This is an extension, not part of the core procedure: rows are
    resampled with replacement, the chosen correlation matrix is recomputed
    and the model refitted. ``p_values`` are two-sided percentile
    sign-crossing probabilities.
    """

    names: list[tuple[str, str]]  # (target, covariate)
    estimates: np.ndarray
    standard_errors: np.ndarray
    p_values: np.ndarray
    n_effective: int
    n_failed: int


def bootstrap_inner(
    data: DataMatrix,
    model: PathModel,
    mode: str = "pls",
    n_boot: int = 500,
    seed: int = 0,
    epsilon: float = 0.5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BootstrapResult:
    """Bootstrap standard errors and p-values for the inner coefficients.

    With ``mode="opls"`` every replicate re-estimates the polychoric
    matrix, which is accurate but slow; budget accordingly.
    """
    if mode not in ("pls", "opls"):
        raise EstimationError(f"unknown mode '{mode}'")

    def fit_once(d):
        if mode == "pls":
            sigma = pearson_matrix(d)
        else:
            sigma, _ = polychoric_matrix(d, epsilon=epsilon)
        return fit_correlation_model(sigma, model, mode=mode, tol=tol, max_iter=max_iter)

    point = fit_once(data)
    names = [(eq.target, cov) for eq in point.inner for cov in eq.covariates]
    estimates = point.path_coefficients(names)

    rng = np.random.default_rng(seed)
    draws = []
    failed = 0
    for _ in range(n_boot):
        idx = rng.integers(0, data.n_rows, size=data.n_rows)
        resampled = DataMatrix(
            values=data.values[idx], columns=data.columns, kinds=data.kinds
        )
        try:
            draws.append(fit_once(resampled).path_coefficients(names))
        except OplsError:
            failed += 1
    if not draws:
        raise EstimationError("all bootstrap replicates failed")
    b = np.vstack(draws)
    below = (b <= 0.0).mean(axis=0)
    above = (b >= 0.0).mean(axis=0)
    p = np.clip(2.0 * np.minimum(below, above), 0.0, 1.0)
    return BootstrapResult(
        names=names,
        estimates=estimates,
        standard_errors=b.std(axis=0, ddof=1),
        p_values=p,
        n_effective=b.shape[0],
        n_failed=failed,
    )
