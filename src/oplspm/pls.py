"""The two PLS weight engines.

``score_based_pls_fit`` is the classical iterative algorithm on observed
data: composites are rebuilt from the indicators every pass, instrumental
variables follow the centroid scheme, and Mode A weight updates use
covariances with the instrumental variables.

``matrix_pls_fit`` runs the same iteration expressed purely in terms of
the indicator correlation matrix, so it applies unchanged when that matrix
is polychoric and no observation-level scores exist. On the Pearson
correlation matrix of an interval dataset the two engines produce the same
weights; indicators are standardized (unit sample variance) in the
score-based engine to match. Its iteration runs over a stack of matrices
(``_fit_stack``), so bootstrap replicates, and simulation replications, are
fitted together; a single fit is the stack of one.

Within one pass the composites are built from the weights rescaled to sum
to one per block (the outer-approximation normalization), while the
reported weight matrix carries the block orientation sign; both engines
apply the same convention, which keeps them in lockstep even when an
orientation flips during the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError, EstimationError
from .model import DataMatrix, PathModel
from .polychoric import CorrelationMatrix

__all__ = [
    "FitTrace",
    "WeightState",
    "MatrixPLSResult",
    "ScorePLSResult",
    "initial_weights",
    "matrix_pls_fit",
    "score_based_pls_fit",
]

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 300


def _sign0(x):
    # sign with sign(0) := +1, so an exactly-zero correlation never stalls
    # the centroid scheme or zeroes out a block orientation.
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


@dataclass
class FitTrace:
    """Per-iteration weight-change record of one fit."""

    deltas: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.deltas)


@dataclass
class WeightState:
    """Converged weights: raw (block columns summing to +/-1) and standardizing."""

    raw: np.ndarray
    standardized: np.ndarray


@dataclass
class MatrixPLSResult:
    weights: WeightState
    latent_correlations: np.ndarray
    trace: FitTrace


@dataclass
class ScorePLSResult:
    weights: WeightState
    scores: np.ndarray
    trace: FitTrace


def initial_weights(model: PathModel) -> np.ndarray:
    """Starting weights 1/p_j on each block, zero elsewhere."""
    chi = model.weight_pattern()
    return chi / chi.sum(axis=0)


def _check_limits(tol, max_iter):
    """Reject an iteration cap below 1 or a tolerance that is not a finite positive number."""
    if not max_iter >= 1:
        raise EstimationError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0):
        raise EstimationError(f"tol must be a finite positive number, got {tol}")


def _matrix_step(sigma, t_sym, chi, weights):
    """One weight update from the current raw weights.

    ``sigma`` and ``weights`` may carry leading stack axes (B x K x K and
    B x K x L); each member is updated on its own. Returns the updated raw
    weights together with the intermediate quantities, so invariants can
    be checked iteration by iteration. A member whose weight-update column
    sum ``colsum`` is zero gets non-finite weights; the caller rejects it.
    """
    v = weights / weights.sum(axis=-2, keepdims=True)
    scale = np.sqrt(np.diagonal(v.swapaxes(-1, -2) @ sigma @ v, axis1=-2, axis2=-1))
    sw = v / scale[..., None, :]
    p_yy = sw.swapaxes(-1, -2) @ sigma @ sw
    upsilon = t_sym * _sign0(p_yy)
    sigma_xy = sigma @ sw
    sigma_xz = sigma_xy @ upsilon
    c = chi * sigma_xz
    colsum = c.sum(axis=-2)
    orientation = _sign0(np.where(chi == 1.0, _sign0(sigma_xy), 0.0).sum(axis=-2))
    with np.errstate(divide="ignore", invalid="ignore"):
        new_weights = (c / colsum[..., None, :]) * orientation[..., None, :]
    internals = {
        "standardizing_weights": sw,
        "latent_correlations": p_yy,
        "upsilon": upsilon,
        "sigma_xz": sigma_xz,
        "sigma_xy": sigma_xy,
        "c": c,
        "colsum": colsum,
        "orientation": orientation,
    }
    return new_weights, internals


def _as_sigma_values(sigma_xx, model) -> np.ndarray:
    if isinstance(sigma_xx, CorrelationMatrix):
        if sigma_xx.pd_status == "failed":
            raise DataError(
                "correlation matrix is not positive definite; re-run with PD repair enabled"
            )
        values = sigma_xx.values
    else:
        values = np.asarray(sigma_xx, dtype=float)
    k = model.n_indicators
    if values.shape != (k, k):
        raise DataError(f"correlation matrix is {values.shape}, model expects ({k}, {k})")
    return values


@dataclass
class _StackFit:
    """Matrix PLS fits of a stack of B correlation matrices.

    ``deltas[i, b]`` is member b's weight change at iteration i + 1, NaN
    once the member has stopped. ``singular[b]`` is the latent whose
    weight-update column sum was zero, or -1; such a member stops there
    and is not converged. Weights of members that did not converge are
    their last iterate.
    """

    raw: np.ndarray  # B x K x L
    standardized: np.ndarray  # B x K x L
    latent_correlations: np.ndarray  # B x L x L
    deltas: np.ndarray
    converged: np.ndarray
    singular: np.ndarray


def _fit_stack(
    sigma, model: PathModel, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> _StackFit:
    """Iterate the correlation-matrix PLS algorithm on a B x K x K stack.

    Every member starts from ``initial_weights`` and iterates until its
    own weight change is below ``tol``, its update is singular, or
    ``max_iter`` passes; only members still iterating are updated. A
    member's arithmetic does not depend on the rest of the stack.
    """
    _check_limits(tol, max_iter)
    chi = model.weight_pattern()
    t = model.inner_adjacency
    t_sym = t + t.T
    n = sigma.shape[0]
    weights = np.repeat(initial_weights(model)[None], n, axis=0)
    deltas = np.full((max_iter, n), np.nan)
    converged = np.zeros(n, dtype=bool)
    singular = np.full(n, -1)
    active = np.arange(n)
    iterations = 0
    while active.size and iterations < max_iter:
        new_weights, internals = _matrix_step(sigma[active], t_sym, chi, weights[active])
        zero = internals["colsum"] == 0.0
        del internals  # else the step's intermediates stay alive through the next step
        bad = zero.any(axis=-1)
        singular[active[bad]] = np.argmax(zero[bad], axis=-1)
        change = new_weights - weights[active]
        delta = np.sqrt(np.sum(change * change, axis=(-2, -1)))
        good = active[~bad]
        deltas[iterations, good] = delta[~bad]
        weights[good] = new_weights[~bad]
        done = ~bad & (delta < tol)
        converged[active[done]] = True
        active = active[~bad & ~done]
        iterations += 1
    scale = np.sqrt(np.diagonal(weights.swapaxes(-1, -2) @ sigma @ weights, axis1=-2, axis2=-1))
    sw = weights / scale[..., None, :]
    p_yy = sw.swapaxes(-1, -2) @ sigma @ sw
    return _StackFit(
        raw=weights,
        standardized=sw,
        latent_correlations=p_yy,
        deltas=deltas[:iterations],
        converged=converged,
        singular=singular,
    )


def matrix_pls_fit(
    sigma_xx,
    model: PathModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MatrixPLSResult:
    """Iterate the correlation-matrix form of the PLS algorithm.

    This is ``_fit_stack`` on a stack of one matrix.

    Parameters
    ----------
    sigma_xx : CorrelationMatrix or array
        Indicator correlation matrix (Pearson or polychoric), positive
        definite, in the model's indicator order.
    tol : float
        Frobenius-norm threshold on the raw-weight change.
    max_iter : int
        Iteration cap; exceeding it raises ConvergenceError with the trace.
    """
    sigma = _as_sigma_values(sigma_xx, model)
    stack = _fit_stack(sigma[None], model, tol=tol, max_iter=max_iter)
    if stack.singular[0] >= 0:
        raise ConvergenceError(
            f"singular block: zero weight-update column sum for latent "
            f"'{model.latent_names[stack.singular[0]]}'"
        )
    deltas = stack.deltas[:, 0]
    trace = FitTrace(deltas=deltas[~np.isnan(deltas)].tolist(), converged=bool(stack.converged[0]))
    if not trace.converged:
        raise ConvergenceError(
            f"matrix PLS did not converge in {max_iter} iterations "
            f"(last delta {trace.deltas[-1]:.3e})",
            trace=trace,
        )
    state = WeightState(raw=stack.raw[0], standardized=stack.standardized[0])
    return MatrixPLSResult(
        weights=state, latent_correlations=stack.latent_correlations[0], trace=trace
    )


def _standardize_columns(matrix, what):
    sd = matrix.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        raise DataError(f"zero-variance {what}")
    return matrix / sd


def _standardized_indicators(data: DataMatrix) -> np.ndarray:
    """The data's columns centered and scaled to unit sample (ddof=1) variance."""
    centered = data.values - data.values.mean(axis=0)
    sd = centered.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        j = int(np.argmin(sd))
        raise DataError(f"zero-variance indicator '{data.columns[j]}'")
    return centered / sd


def score_based_pls_fit(
    data: DataMatrix,
    model: PathModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScorePLSResult:
    """Classical score-based PLS on interval data.

    Indicators are centered and standardized, composite scores are rebuilt
    and re-standardized every pass (1/(N-1) variance estimator), and the
    returned scores come from the converged standardizing weights.
    """
    if not data.all_interval:
        raise DataError("score-based PLS requires interval data; use the matrix engine instead")
    if data.columns != model.indicator_names:
        raise DataError("data columns do not match the model's indicator order")
    _check_limits(tol, max_iter)
    n = data.n_rows
    z = _standardized_indicators(data)

    chi = model.weight_pattern()
    t_sym = model.inner_adjacency + model.inner_adjacency.T
    trace = FitTrace()
    weights = initial_weights(model)
    scores = _standardize_columns(z @ (weights / weights.sum(axis=0)), "composite")
    for _ in range(max_iter):
        score_cov = scores.T @ scores / (n - 1)
        upsilon = t_sym * _sign0(score_cov)
        instrumental = scores @ upsilon
        c = chi * (z.T @ instrumental) / (n - 1)
        colsum = c.sum(axis=0)
        if np.any(colsum == 0.0):
            j = int(np.flatnonzero(colsum == 0.0)[0])
            raise ConvergenceError(
                f"singular block: zero weight-update column sum for latent "
                f"'{model.latent_names[j]}'"
            )
        sigma_xy = z.T @ scores / (n - 1)
        orientation = _sign0(np.where(chi == 1.0, _sign0(sigma_xy), 0.0).sum(axis=0))
        new_weights = (c / colsum) * orientation
        delta = float(np.linalg.norm(new_weights - weights))
        trace.deltas.append(delta)
        weights = new_weights
        if delta < tol:
            trace.converged = True
            break
        scores = _standardize_columns(z @ (weights / weights.sum(axis=0)), "composite")
    if not trace.converged:
        raise ConvergenceError(
            f"score-based PLS did not converge in {max_iter} iterations "
            f"(last delta {trace.deltas[-1]:.3e})",
            trace=trace,
        )
    composite = z @ weights
    sw = weights / composite.std(axis=0, ddof=1)
    return ScorePLSResult(
        weights=WeightState(raw=weights, standardized=sw), scores=z @ sw, trace=trace
    )
