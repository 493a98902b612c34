"""Ending phase: inner path coefficients, outer loadings, residual
variances, and block reliability, all computed from correlation matrices
alone so the same code serves interval (Pearson) and ordinal (polychoric)
fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError, OplsError
from .model import DataMatrix, PathModel
from .pls import DEFAULT_MAX_ITER, DEFAULT_TOL, FitTrace, WeightState, matrix_pls_fit
from .pls import _check_limits, _fit_stack
# pearson_matrix and polychoric_matrix are no longer called here, but stay
# importable from this module: bench/selftest.py patches them here.
from .polychoric import (  # noqa: F401
    CorrelationMatrix,
    _count_polychoric,
    _ordinal_codes,
    _positive_definite,
    _weighted_correlations,
    pearson_matrix,
    polychoric_matrix,
)

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


def _structural_equations(model: PathModel):
    """(target, covariate indices) of each endogenous latent, in ``FitResult.inner`` order."""
    t = model.inner_adjacency
    return [(j, np.flatnonzero(t[j])) for j in range(model.exogenous_count, model.n_latents)]


def _structural_solve(p_yy, equations):
    """Path coefficients and R^2 of every structural equation, over a B x L x L stack.

    Each equation's normal equations are one stacked solve; on
    standardized variables this is exactly the OLS of the composite
    scores. A singular system fails its member alone: the stack is then
    solved member by member. Returns, per equation, the B x covariates
    coefficients and the B values of R^2, and per member the target
    latent of its first singular equation, or -1.
    """
    n = p_yy.shape[0]
    singular = np.full(n, -1)
    solutions = []
    for j, cov in equations:
        sub = p_yy[:, cov[:, None], cov]
        rhs = p_yy[:, cov, j][..., None]
        try:
            beta = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            beta = np.zeros(rhs.shape)
            for m in range(n):
                try:
                    beta[m] = np.linalg.solve(sub[m : m + 1], rhs[m : m + 1])[0]
                except np.linalg.LinAlgError:
                    if singular[m] < 0:
                        singular[m] = j
        solutions.append((beta[..., 0], (beta.swapaxes(-1, -2) @ rhs)[:, 0, 0]))
    return solutions, singular


def inner_coefficients(p_yy: np.ndarray, model: PathModel) -> list[InnerEquation]:
    """Solve every structural equation from the latent correlation matrix.

    This is ``_structural_solve`` on a stack of one matrix.
    """
    equations = _structural_equations(model)
    solutions, singular = _structural_solve(np.asarray(p_yy, dtype=float)[None], equations)
    if singular[0] >= 0:
        raise EstimationError(
            f"singular inner system for equation '{model.latent_names[singular[0]]}'"
        )
    return [
        InnerEquation(
            target=model.latent_names[j],
            covariates=tuple(model.latent_names[k] for k in cov),
            coefficients=beta[0],
            r_squared=float(r_squared[0]),
        )
        for (j, cov), (beta, r_squared) in zip(equations, solutions)
    ]


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
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Run the matrix engine and the full ending phase on one matrix.

    The fit's ``mode`` follows the matrix kind: "pls" for Pearson input,
    "opls" for polychoric input.
    """
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
        mode="opls" if sigma_xx.kind == "polychoric" else "pls",
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

    This is an extension, not part of the core procedure: each replicate
    is a vector of counts of rows drawn with replacement, from which the
    chosen correlation matrix is recomputed and the model refitted.
    ``p_values`` are two-sided percentile sign-crossing probabilities.
    """

    names: list[tuple[str, str]]  # (target, covariate)
    standard_errors: np.ndarray
    p_values: np.ndarray
    n_effective: int
    n_failed: int


# Replicates fitted together as one stack. It bounds a block's working
# memory (counts, moments, stacks); the results do not depend on it.
_BOOT_BLOCK = 32


def _pearson_replicates(data: DataMatrix):
    """Pearson matrices of blocks of replicates, as a function of their row counts.

    The function maps B x N row counts to the correlation matrices of the
    replicates that have one, stacked in replicate order: a replicate in
    which some column is constant has none. Constancy is tested exactly,
    on each column's dense value ranks split into two base-2**13 digits:
    for fewer than 2**26 rows the count-weighted sum of squared digit
    deviations from a drawn row is an integer below 2**53, so float64
    computes it exactly, and it is zero only for a constant column.
    """
    values = data.values
    n, k = values.shape
    ranks = np.column_stack([np.unique(col, return_inverse=True)[1] for col in values.T])
    digits = np.hstack([ranks >> 13, ranks & 0x1FFF]).astype(float)
    squares = digits * digits

    def correlations(counts):
        ref = digits[np.argmax(counts > 0, axis=1)]
        spread = counts @ squares - 2.0 * ref * (counts @ digits) + n * ref * ref
        varies = np.all(spread[:, :k] + spread[:, k:] > 0.0, axis=1)
        return _weighted_correlations(values, counts[varies])

    return correlations


def _polychoric_replicates(data: DataMatrix, epsilon: float):
    """Polychoric matrices of blocks of replicates, as a function of their row counts.

    As ``_pearson_replicates``, but each replicate solves its own pairs
    from its count-weighted tables; a replicate whose estimation raises an
    ``OplsError`` has no matrix.
    """
    categories, codes = _ordinal_codes(data)
    k = data.n_cols

    def correlations(counts):
        sigma = []
        for row_counts in counts:
            try:
                values, _ = _count_polychoric(codes, categories, data.columns, epsilon, row_counts)
            except OplsError:
                continue
            sigma.append(values)
        return np.array(sigma).reshape(-1, k, k)

    return correlations


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

    Each replicate is the vector of counts of ``n_rows`` rows drawn with
    replacement; no resampled data are built. Replicates go in blocks of
    ``_BOOT_BLOCK``: the block's correlation matrices come from
    count-weighted moments (``mode="pls"``) or count-weighted pair tables
    (``mode="opls"``, which still solves every pair of every replicate and
    is slow; budget accordingly), then one stacked PLS fit and one stacked
    solve per structural equation. A replicate fails alone, and is counted
    in ``n_failed``, when a column is constant in it, its matrix is not
    positive definite, its PLS update is singular or does not converge,
    an inner system is singular, or its polychoric estimation raises.
    A standard error needs two replicates: ``n_boot`` below 2, or fewer
    than 2 replicates that succeed, raise ``EstimationError``.
    """
    if n_boot < 2:
        raise EstimationError(f"n_boot must be at least 2, got {n_boot}")
    if mode not in ("pls", "opls"):
        raise EstimationError(f"unknown mode '{mode}'")
    _check_limits(tol, max_iter)  # before any replicate is drawn or solved
    if data.n_cols != model.n_indicators:
        raise DataError(f"data has {data.n_cols} columns, model expects {model.n_indicators}")
    equations = _structural_equations(model)
    names = [(model.latent_names[j], model.latent_names[c]) for j, cov in equations for c in cov]
    correlations = (
        _pearson_replicates(data) if mode == "pls" else _polychoric_replicates(data, epsilon)
    )

    rng = np.random.default_rng(seed)
    n = data.n_rows
    draws = [np.empty((0, len(names)))]
    failed = 0
    for start in range(0, n_boot, _BOOT_BLOCK):
        size = min(_BOOT_BLOCK, n_boot - start)
        counts = np.array(
            [np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(size)],
            dtype=float,
        )
        sigma = correlations(counts)
        sigma = sigma[_positive_definite(sigma)]
        fit = _fit_stack(sigma, model, tol=tol, max_iter=max_iter)
        solutions, singular = _structural_solve(fit.latent_correlations[fit.converged], equations)
        solved = singular < 0
        draws.append(np.concatenate([beta for beta, _ in solutions], axis=1)[solved])
        failed += size - int(solved.sum())
    b = np.concatenate(draws)
    if b.shape[0] < 2:
        raise EstimationError(
            f"{b.shape[0]} of {n_boot} bootstrap replicates succeeded; need at least 2"
        )
    below = (b <= 0.0).mean(axis=0)
    above = (b >= 0.0).mean(axis=0)
    p = np.clip(2.0 * np.minimum(below, above), 0.0, 1.0)
    return BootstrapResult(
        names=names,
        standard_errors=b.std(axis=0, ddof=1),
        p_values=p,
        n_effective=b.shape[0],
        n_failed=failed,
    )
