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
from .pls import DEFAULT_MAX_ITER, DEFAULT_TOL, FitTrace, WeightState
from .pls import _as_sigma_values, _check_limits, _fit_error, _fit_stack
# matrix_pls_fit is no longer called here, but bench/spans.py hooks it here.
from .pls import matrix_pls_fit  # noqa: F401
# pearson_matrix and polychoric_matrix are no longer called here, but stay
# importable from this module: bench/selftest.py patches them here.
from .polychoric import (  # noqa: F401
    CorrelationMatrix,
    _count_polychoric,
    _data_correlations,
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
    solved member by member. Returns the B x paths coefficients and the
    B x equations R^2, both in equation order, and per member the target
    latent of its first singular equation, or -1.
    """
    n = p_yy.shape[0]
    singular = np.full(n, -1)
    coefficients, r_squared = [], []
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
        coefficients.append(beta[..., 0])
        r_squared.append((beta.swapaxes(-1, -2) @ rhs)[:, 0])
    return np.hstack(coefficients), np.hstack(r_squared), singular


def _inner_error(model: PathModel, j) -> EstimationError:
    return EstimationError(f"singular inner system for equation '{model.latent_names[j]}'")


_LOADING_RANGE = "loadings must lie in [-1, 1]"
# A loading is a correlation: from a positive definite matrix it passes +/-1 only by
# rounding, by an ulp or two where a block's weight falls wholly on one indicator.
_LOADING_ROUNDING = 4.0 * np.finfo(float).eps


def _checked_loadings(lams):
    """Loadings clipped to [-1, 1], and which lie beyond it by more than rounding."""
    return np.clip(lams, -1.0, 1.0), np.abs(lams) > 1.0 + _LOADING_ROUNDING


def _inner_equations(model: PathModel, coefficients, r_squared) -> list[InnerEquation]:
    """One member's path coefficients and R^2, in equation order, as ``InnerEquation``s."""
    equations = _structural_equations(model)
    splits = np.cumsum([cov.size for _, cov in equations])[:-1]
    names = model.latent_names
    return [
        InnerEquation(names[j], tuple(names[k] for k in cov), beta, float(r2))
        for (j, cov), beta, r2 in zip(equations, np.split(coefficients, splits), r_squared)
    ]


def outer_loadings(sigma_xy: np.ndarray, model: PathModel) -> np.ndarray:
    """Loading of each indicator on its own composite.

    ``sigma_xy`` must be the indicator-composite correlation matrix
    (``sigma_xx @ sw`` with unit-diagonal ``sigma_xx``), or a stack of
    them; the loading is the correlation between an indicator and the
    composite of its block.
    """
    sigma_xy = np.asarray(sigma_xy, dtype=float)
    return sigma_xy[..., np.arange(model.n_indicators), model.indicator_latents]


def cronbach_alpha_ordinal(block_matrix: np.ndarray) -> float:
    """Cronbach's alpha evaluated on a unit-diagonal correlation submatrix.

    With a polychoric submatrix this is the ordinal variant of alpha.
    """
    r = np.asarray(block_matrix, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 2:
        raise EstimationError("Cronbach's alpha needs a square block with at least 2 items")
    if not np.all(np.isfinite(r)):
        raise EstimationError("Cronbach's alpha needs finite correlations")
    p, total = r.shape[0], r.sum()
    if total <= 0.0:
        raise EstimationError(f"Cronbach's alpha is undefined: the block sums to {total:g}")
    return float((p / (p - 1.0)) * (1.0 - p / total))


def dillon_goldstein_rho(loadings) -> float:
    """Composite reliability from a block's loadings.

    A loading beyond +/-1 by a few ulp is rounding and counts as +/-1; one
    beyond that raises.
    """
    lams = np.asarray(loadings, dtype=float)
    if lams.size < 2:
        raise EstimationError("Dillon-Goldstein's rho needs at least 2 items")
    if not np.all(np.isfinite(lams)):
        raise EstimationError("Dillon-Goldstein's rho needs finite loadings")
    lams, beyond = _checked_loadings(lams)
    if beyond.any():
        raise EstimationError(_LOADING_RANGE)
    common = lams.sum() ** 2
    total = common + np.sum(1.0 - lams**2)
    if total <= 0.0:
        raise EstimationError(f"Dillon-Goldstein's rho is undefined: its total is {total:g}")
    return float(common / total)


def fit_correlation_model(
    sigma_xx: CorrelationMatrix,
    model: PathModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Run the matrix engine and the full ending phase on one matrix.

    This is ``_fit_members`` on a stack of one, with each block's
    Cronbach and Dillon-Goldstein reliability added; it raises the error
    ``_fit_members`` gives the matrix. ``sigma_xx`` is a
    ``CorrelationMatrix`` or an array, checked as ``matrix_pls_fit``
    checks it. The fit's ``mode`` follows the matrix kind: "opls" for
    polychoric input, "pls" for Pearson input or an array.
    """
    sigma = _as_sigma_values(sigma_xx, model)
    fit, coefficients, r_squared, loadings, errors = _fit_members(sigma[None], model, tol, max_iter)
    if errors[0] is not None:
        raise errors[0]
    lams = loadings[0]
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
        mode="opls" if getattr(sigma_xx, "kind", None) == "polychoric" else "pls",
        model=model,
        weights=WeightState(raw=fit.raw[0], standardized=fit.standardized[0]),
        latent_correlations=fit.latent_correlations[0],
        inner=_inner_equations(model, coefficients[0], r_squared[0]),
        loadings=lams,
        reliability=reliability,
        trace=fit.trace(0),
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


# Bootstrap replicates, or simulation replications, fitted as one stack: a
# study block's stack holds up to 2 x 32 members, each replication's Pearson
# and polychoric matrices. It bounds a block's working memory; the results do
# not depend on it.
_STACK_BLOCK = 32


def _blocks(n: int):
    """Consecutive ranges of at most ``_STACK_BLOCK`` that cover ``range(n)``."""
    return (range(start, min(start + _STACK_BLOCK, n)) for start in range(0, n, _STACK_BLOCK))


def _fit_members(sigma, model: PathModel, tol: float, max_iter: int):
    """The ending phase of a B x K x K positive definite stack, fitted as one.

    Returns the ``_fit_stack`` fit, the B x paths inner coefficients and
    B x equations R^2 in equation order, the B x K loadings, and per
    member None or the ``OplsError`` that ``fit_correlation_model`` raises
    on that matrix alone. A member fails, checked in this order, on a
    singular block, no convergence, a singular inner system, or a loading
    beyond +/-1 by more than rounding in a block of at least 2 indicators.
    The loadings are clipped to [-1, 1].
    """
    fit = _fit_stack(sigma, model, tol=tol, max_iter=max_iter)
    coefficients, r_squared, singular = _structural_solve(
        fit.latent_correlations, _structural_equations(model)
    )
    loadings, out_of_range = _checked_loadings(outer_loadings(sigma @ fit.standardized, model))
    shared = np.repeat(np.array(model.block_sizes) >= 2, model.block_sizes)
    beyond = np.any(shared & out_of_range, axis=1)
    errors = [None] * len(sigma)
    for m in np.flatnonzero(~fit.converged | (singular >= 0) | beyond):
        if not fit.converged[m]:
            errors[m] = _fit_error(model, fit.trace(m), fit.singular[m])
        elif singular[m] >= 0:
            errors[m] = _inner_error(model, singular[m])
        else:
            errors[m] = EstimationError(_LOADING_RANGE)
    return fit, coefficients, r_squared, loadings, errors


def _pearson_replicates(data: DataMatrix):
    """Pearson matrices of blocks of replicates, as a function of their row counts.

    The function maps B x N row counts to the correlation matrices of the
    replicates that have one, stacked in replicate order: a replicate in
    which some column is constant, or has a weighted variance that
    overflows or cancels to zero, has none. A column for which
    ``pearson_matrix`` of the data themselves raises DataError raises it
    here, before any replicate is drawn. Constancy is tested exactly,
    on each column's dense value ranks split into two base-2**13 digits:
    for fewer than 2**26 rows the count-weighted sum of squared digit
    deviations from a drawn row is an integer below 2**53, so float64
    computes it exactly, and it is zero only for a constant column.
    """
    values = data.values
    n, k = values.shape
    _data_correlations(values, data.columns)
    ranks = np.column_stack([np.unique(col, return_inverse=True)[1] for col in values.T])
    digits = np.hstack([ranks >> 13, ranks & 0x1FFF]).astype(float)
    squares = digits * digits

    def correlations(counts):
        ref = digits[np.argmax(counts > 0, axis=1)]
        spread = counts @ squares - 2.0 * ref * (counts @ digits) + n * ref * ref
        varies = np.all(spread[:, :k] + spread[:, k:] > 0.0, axis=1)
        corr = _weighted_correlations(values, counts[varies])
        return corr[np.isfinite(corr).all(axis=(1, 2))]

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
    ``_STACK_BLOCK``: the block's correlation matrices come from
    count-weighted moments (``mode="pls"``) or count-weighted pair tables
    (``mode="opls"``, which still solves every pair of every replicate and
    is slow; budget accordingly), then one stacked ending phase,
    ``_fit_members``, which ``simulate.run_study`` and
    ``fit_correlation_model`` share. A replicate fails alone, and is
    counted in ``n_failed``, when a column is constant in it, its Pearson
    moments overflow, its polychoric estimation raises, its matrix is not
    positive definite (the rule of ``CorrelationMatrix.build``, screened
    over the block with one stacked Cholesky factorization of Sigma -
    1e-10 * I, member by member only if some member has none), or
    ``_fit_members`` gives it an error: its PLS
    update is singular or does not converge, an inner system is singular,
    or a loading in a block of at least 2 indicators lies beyond +/-1. A
    standard error needs two replicates: ``n_boot`` below 2, or fewer than
    2 replicates that succeed, raise ``EstimationError``. In pls mode, a
    column that is constant, or whose squares overflow or underflow, in the
    data themselves raises ``DataError``.
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
    for block in _blocks(n_boot):
        counts = np.array(
            [np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in block], dtype=float
        )
        sigma = correlations(counts)
        sigma = sigma[_positive_definite(sigma)]
        _, coefficients, _, _, errors = _fit_members(sigma, model, tol, max_iter)
        ok = np.array([error is None for error in errors], dtype=bool)
        draws.append(coefficients[ok])
        failed += len(block) - int(ok.sum())
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
