"""Marginal thresholds and the pairwise polychoric correlation matrix.

Each ordinal indicator is modeled as a discretized standard normal
variable: observed category i corresponds to the latent value falling
between consecutive thresholds. Thresholds are estimated from marginal
cumulative frequencies, then each pairwise correlation is obtained by
maximizing the two-way table's likelihood over the correlation alone
(two-step estimation: thresholds stay fixed).

Stored thresholds are clipped to [-4, 4]; inside the pair likelihood the
outermost category boundaries are open (+/-inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .distributions import (
    _TIER_EDGES,
    _bvn_cdf_finite,
    _bvn_pdf_drho,
    ndtr,
    std_normal_pdf,
    std_normal_quantile,
)
from .errors import ConvergenceError, DataError
from .model import DataMatrix, _as_codes, _as_numbers, _code_columns, _compact_codes

__all__ = [
    "RHO_BOUND",
    "THRESHOLD_BOUND",
    "ThresholdSet",
    "ContingencyTable",
    "CorrelationMatrix",
    "PairResult",
    "estimate_thresholds",
    "cell_probabilities",
    "polychoric_pair",
    "polychoric_matrix",
    "pearson_matrix",
    "nearest_pd_repair",
    "crosstab",
]

RHO_BOUND = 0.999
THRESHOLD_BOUND = 4.0
# A correlation matrix is positive definite when Sigma - _PD_TOL * I has a
# Cholesky factor, i.e. its smallest eigenvalue is above _PD_TOL up to rounding.
_PD_TOL = 1e-10
_LOG_FLOOR = 1e-300
_MAX_ITER = 100
# A pair's Newton refinement stops at the first step shorter than this.
_XATOL = 1e-8
_NOT_CONVERGED = f"polychoric optimizer failed: no convergence in {_MAX_ITER} iterations"
# A bound is checked exactly only where the closed-form ceiling on its
# loglikelihood, with each cell's cap raised by the margin, is not below the
# interior loglikelihood less this share of it (summation rounding).
_CEILING_MARGIN = 1e-12
_CEILING_SLACK = 1e-10
# Bytes of one row chunk of the one-hot code matrix in the count pass.
_CHUNK_BYTES = 1 << 23
# nearest_pd_repair's eigenvalue floor and its cap on clip-and-renormalize passes.
_REPAIR_MIN_EIGENVALUE = 1e-8
_REPAIR_MAX_ITER = 200


@dataclass(frozen=True)
class ThresholdSet:
    """Estimated thresholds of one ordinal variable on the standard-normal scale.

    ``cuts`` holds the I_k - 1 interior cut points, strictly increasing and
    clipped to [-4, 4]. ``categories`` maps each internal category index
    (1-based) back to the original observed code; unused codes are collapsed
    away so the internal codes are always contiguous. Construction raises
    ``DataError`` unless ``cuts`` is 1-D, finite, strictly increasing and
    one shorter than ``categories``, with at least one cut, and the
    categories are integer codes >= 1 in strictly increasing order.
    """

    cuts: np.ndarray
    categories: tuple[int, ...]

    def __post_init__(self):
        # A set is short, so each check is one Python pass; numpy's per-call
        # overhead would be most of the time.
        cuts = np.asarray(self.cuts, dtype=float)
        if cuts.ndim != 1:
            raise DataError(f"threshold cuts must be 1-D, got shape {cuts.shape}")
        codes = self.categories
        n = len(codes)
        if n < 2:
            raise DataError(f"a threshold set needs at least two categories, got {n}")
        if cuts.size != n - 1:
            raise DataError(f"{n} categories need {n - 1} cuts, got {cuts.size}")
        integers = all(isinstance(c, (int, np.integer)) for c in codes)
        if not integers or codes[0] < 1 or not all(a < b for a, b in pairwise(codes)):
            raise DataError(
                f"categories must be strictly increasing integer codes >= 1, got {codes}"
            )
        # strictly increasing (a NaN compares false) between finite ends is finite throughout
        values = cuts.tolist()
        if not (
            all(a < b for a, b in pairwise(values))
            and math.isfinite(values[0])
            and math.isfinite(values[-1])
        ):
            raise DataError(f"threshold cuts must be finite and strictly increasing, got {cuts}")
        object.__setattr__(self, "cuts", cuts)

    @property
    def category_count(self) -> int:
        return len(self.categories)

    def padded(self) -> np.ndarray:
        """Cut points with the clipped boundaries -4 and +4 attached."""
        return np.concatenate([[-THRESHOLD_BOUND], self.cuts, [THRESHOLD_BOUND]])

    def map_codes(self, codes: np.ndarray) -> np.ndarray:
        """Translate original codes to contiguous internal codes 1..I_k.

        Raises ``DataError`` naming the first value that is not one of
        ``categories``: "category code 0 was not seen at threshold
        estimation". A value that breaks the code rule (not an integer
        >= 1 below 2**53, such as 1.5 or NaN) is never one of them. Codes
        that are not numbers and cannot be read as floats raise
        ``DataError`` ("category codes must hold integer codes >= 1").
        """
        shape, values = np.shape(codes), _as_numbers(np.ravel(codes), "category codes")
        valid = _code_columns(values[None])
        codes = (values if valid.all() else np.where(valid, values, 0)).astype(int, copy=False)
        _, mapped = _compact_codes(codes, np.array(self.categories))
        if not mapped.all():
            code = values[np.argmin(mapped)].item()  # a Python number, printed as given
            raise DataError(f"category code {code} was not seen at threshold estimation")
        return mapped.astype(int).reshape(shape)


def _check_epsilon(epsilon):
    # a Python or numpy integer or float, not a bool, finite as a float and nonnegative
    try:
        valid = (
            isinstance(epsilon, (int, float, np.integer, np.floating))
            and not isinstance(epsilon, bool)
            and 0.0 <= float(epsilon) < math.inf
        )
    except OverflowError:  # a Python integer beyond the float range
        valid = False
    if not valid:
        raise DataError(f"smoothing epsilon must be finite and nonnegative, got {epsilon}")


@dataclass(frozen=True)
class ContingencyTable:
    """Two-way count table with zero-cell smoothing.

    ``epsilon`` replaces zero counts only; observed counts are never
    altered. ``epsilon=0`` disables the substitution entirely, in which
    case empty cells simply contribute nothing to the pair likelihood.
    Construction raises ``DataError`` unless the table is 2-D and its
    counts are nonnegative integers with a finite total.
    """

    counts: np.ndarray
    epsilon: float = 0.5

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2:
            raise DataError("contingency table must be 2-D")
        if np.any(counts < 0) or np.any(counts != np.round(counts)):
            raise DataError("contingency table counts must be nonnegative integers")
        with np.errstate(over="ignore"):
            if not np.isfinite(counts.sum()):
                raise DataError("contingency table counts and their total must be finite")
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "counts", counts)

    def smoothed(self) -> np.ndarray:
        return np.where(self.counts == 0, self.epsilon, self.counts)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric correlation matrix with provenance and PD bookkeeping."""

    values: np.ndarray
    kind: str  # "pearson" | "polychoric"
    pd_status: str  # "positive-definite" | "repaired" | "failed"

    @classmethod
    def build(cls, values, kind, repair=False) -> "CorrelationMatrix":
        """Check a square, finite, symmetric, unit-diagonal matrix and test it for PD.

        The matrix is symmetrized and its diagonal set to exactly 1. It is
        "positive-definite" when ``_positive_definite`` finds a Cholesky factor
        of Sigma - ``_PD_TOL`` * I; otherwise ``repair`` gives the
        ``nearest_pd_repair`` projection ("repaired") and no repair keeps it
        as "failed". No eigenvalue is computed here.

        Raises
        ------
        DataError
            If the matrix is not square, finite, symmetric and unit-diagonal
            to 1e-12.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError("correlation matrix must be square")
        if not np.all(np.isfinite(values)):
            raise DataError("correlation matrix has non-finite entries")
        if np.max(np.abs(values - values.T)) > 1e-12:
            raise DataError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(values) - 1.0)) > 1e-12:
            raise DataError("correlation matrix must have a unit diagonal")
        values = 0.5 * (values + values.T)
        np.fill_diagonal(values, 1.0)
        if _positive_definite(values):
            return cls(values=values, kind=kind, pd_status="positive-definite")
        if repair:
            return nearest_pd_repair(values, kind)
        return cls(values=values, kind=kind, pd_status="failed")

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue, for reports; the PD test does not use it."""
        return float(np.linalg.eigvalsh(self.values).min())


@dataclass(frozen=True)
class PairResult:
    rho: float
    loglik: float


def estimate_thresholds(column) -> ThresholdSet:
    """Estimate one variable's thresholds from its marginal frequencies.

    Each interior threshold is the standard-normal quantile of the
    cumulative relative frequency up to that category; values beyond +/-4
    are clipped to +/-4. Categories never chosen by any respondent are
    collapsed away (the original codes are retained in ``categories``).
    This is the one-column case of ``_thresholds_from_counts``.

    Raises
    ------
    DataError
        On a column that is not 1-D, an empty column, a value that breaks
        the code rule (an integer >= 1 below 2**53), with ``DataMatrix``'s
        messages, or a single observed category.
    """
    codes = _as_codes(column, "ordinal column")
    if codes.size == 0:
        raise DataError("cannot estimate thresholds from an empty column")
    observed, compact = _compact_codes(codes)
    return _thresholds_from_counts(np.bincount(compact)[None, 1:], [observed])[0][0]


def _thresholds_from_counts(counts, categories, columns=None):
    """Every column's thresholds from its category counts, in one pass.

    Row k of the K x I ``counts`` holds column k's integer counts of the
    codes in the array ``categories[k]``, in code order, padded with
    zeros; a category of zero count is collapsed away. Each interior cut
    is the standard-normal quantile of the cumulative share up to its
    category, clipped to +/-4. Returns each column's ``ThresholdSet``, the K x I
    positions in its row of its drawn categories, padded with -1, and the
    K x (I - 1) cuts, padded with 0.

    Raises
    ------
    DataError
        On the first column with a single drawn category or with two cuts
        that clip to one value, prefixed with its name from ``columns``
        when given.
    """
    counts = np.asarray(counts, dtype=float)
    k, width = counts.shape
    drawn = counts > 0
    sizes = np.count_nonzero(drawn, axis=1)
    # each row's drawn categories first, in code order
    position = np.argsort(~drawn, axis=1, kind="stable")
    cumulative = np.cumsum(np.take_along_axis(counts, position, axis=1), axis=1)
    position[np.arange(width) >= sizes[:, None]] = -1
    live = np.arange(width - 1) < sizes[:, None] - 1
    cuts = np.zeros((k, width - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = cumulative[:, :-1] / cumulative[:, -1:]
    cuts[live] = std_normal_quantile(shares[live])
    np.clip(cuts, -THRESHOLD_BOUND, THRESHOLD_BOUND, out=cuts)
    ties = live[:, 1:] & (np.diff(cuts, axis=1) <= 0)
    single = sizes < 2
    failed = single | ties.any(axis=1)
    if failed.any():
        j = int(np.argmax(failed))
        where = "" if columns is None else f"column '{columns[j]}': "
        if single[j]:
            raise DataError(f"{where}single observed category: no interior threshold estimable")
        # cut i separates the drawn categories i and i + 1
        i = int(np.argmax(ties[j]))
        low, mid, high = (int(c) for c in categories[j][position[j, i : i + 3]])
        raise DataError(
            f"{where}thresholds not strictly increasing after clipping at +/-4: the cuts between "
            f"codes {low}|{mid} and {mid}|{high} both clip to {cuts[j, i]:+g}"
        )
    thresholds = [
        ThresholdSet(
            cuts=cuts[j, : sizes[j] - 1].copy(),
            categories=tuple(int(c) for c in observed[position[j, : sizes[j]]]),
        )
        for j, observed in enumerate(categories)
    ]
    return thresholds, position, cuts


def _cell_probabilities(cuts_h, cuts_k, rho, derivatives=False):
    """Cell probabilities of n pair tables of one shape, each at its own rho.

    ``cuts_h`` is n x (R - 1), ``cuts_k`` n x (C - 1) and ``rho`` has n
    entries. A table's CDF corner grid is 0 on a -inf limit, the other
    limit's margin on a +inf limit and the BVN at the cuts; each cell is a
    four-corner difference. ``derivatives`` stacks the grids of phi2 and
    dphi2/drho, 0 on the open limits, after the CDF's. Returns 1 x n x R x C,
    or 3 x n x R x C: the cells and their first and second rho-derivatives.
    """
    n, rows, cols = rho.shape[0], cuts_h.shape[1] + 1, cuts_k.shape[1] + 1
    h, k = cuts_h[:, :, None], cuts_k[:, None, :]
    corners = np.zeros((3 if derivatives else 1, n, rows + 1, cols + 1))
    cdf = corners[0]
    cdf[:, -1, 1:-1], cdf[:, 1:-1, -1], cdf[:, -1, -1] = ndtr(cuts_k), ndtr(cuts_h), 1.0
    inner = corners[:, :, 1:-1, 1:-1]
    inner[0] = _bvn_cdf_finite(h, k, rho)
    if derivatives:
        inner[1], inner[2] = _bvn_pdf_drho(h, k, rho[:, None, None])
    return np.diff(np.diff(corners, axis=2), axis=3)


def cell_probabilities(thresholds_h: ThresholdSet, thresholds_k: ThresholdSet, rho) -> np.ndarray:
    """Cell probabilities of the discretized bivariate normal.

    Entry (i, j) is the probability of observing internal categories
    (i+1, j+1); the cells sum to 1 for any admissible rho. ``rho`` is a
    scalar or an array, and the result holds one R x C table per rho, with
    shape ``rho.shape + (R, C)``; each table equals the one of its rho
    alone.

    Raises
    ------
    ValueError
        If any rho is not strictly inside (-1, 1), or is NaN.
    """
    rho = np.asarray(rho, dtype=float)
    admissible = (rho > -1.0) & (rho < 1.0)
    if not admissible.all():
        bad = rho[~admissible].flat[0]
        raise ValueError(f"correlation must lie strictly inside (-1, 1), got {bad}")
    flat = rho.reshape(-1)
    cuts_h, cuts_k = (np.broadcast_to(c, (flat.size, c.size)) for c in (thresholds_h.cuts, thresholds_k.cuts))
    probs = _cell_probabilities(cuts_h, cuts_k, flat)[0]
    return probs.reshape(rho.shape + probs.shape[1:])


def _check_table(table: ContingencyTable, thresholds_h: ThresholdSet, thresholds_k: ThresholdSet):
    counts = table.counts
    if counts.shape != (thresholds_h.category_count, thresholds_k.category_count):
        raise DataError(
            f"table shape {counts.shape} does not match threshold categories "
            f"({thresholds_h.category_count}, {thresholds_k.category_count})"
        )
    if np.count_nonzero(counts.sum(axis=1)) < 2 or np.count_nonzero(counts.sum(axis=0)) < 2:
        raise DataError("degenerate table: all mass in one row or column")


def _turn_key(cuts):
    """A column's key: a pair is solved turned when its rows' key sorts after its columns' (a tie is not)."""
    return cuts.size, cuts.tolist()


def _solve_pairs(weights, cuts_h, cuts_k):
    """Two-step ML correlation of many pair tables of one shape at once.

    ``weights`` is n x R x C: ``weights[p]`` is pair p's smoothed count
    table, and ``cuts_h[p]``, ``cuts_k[p]`` its R - 1 and C - 1 interior
    thresholds. Callers turn each pair by ``_turn_key`` first, so a table
    and its transpose give the same result; the tables must be C-ordered,
    as the loglikelihood sums run in memory order. A pair's result depends
    only on its own table and thresholds, not on the pairs that share its
    call.

    Each pair starts at its first-order polychoric estimate
    (``_first_order_start``): the correlation of the two columns' normal
    scores under its own table, divided by the square root of the scores'
    variances, or that correlation itself where the quotient is not finite
    or reaches |rho| 0.925, or 0. Newton steps on the analytic score
    (dPhi2/drho = phi2) climb from there inside a bracket that starts as
    [-0.999, 0.999] and shrinks to the uphill side of each point; a step
    that leaves it, meets a curvature that is not negative or does not
    halve the step before last bisects instead, and a point with a floored
    observed cell, or whose phi2 underflows to 0 at every corner, shrinks it
    toward the last point with neither, or toward 0 while there is none: at
    0 a cell's probability is the product of its margins', so no observed
    cell is floored there. A bound the final bracket still reaches is
    evaluated only where a closed-form ceiling on its loglikelihood
    (``_bound_ceiling``) does not rule it out, and kept when its
    loglikelihood is higher; a ruled-out bound could not have won, so
    skipping it changes no result.

    Returns ``(rho, loglik, converged)`` arrays with one entry per pair.
    """
    n = weights.shape[0]

    def evaluate(active, rho, derivatives):
        # Loglikelihood (and score, curvature) of the active pairs at rho.
        probs, *grads = _cell_probabilities(cuts_h[active], cuts_k[active], rho[active], derivatives)
        w = weights[active]
        loglik = np.sum(w * np.log(np.maximum(probs, _LOG_FLOOR)), axis=(1, 2))
        if not derivatives:
            return loglik
        dp, d2p = grads
        # floored cells are flat in rho, so they drop out of the derivatives and the score
        # of a point with a floored observed cell is not trusted; nor is it where phi2
        # underflows to 0 at every corner, as the score is then 0 whatever the slope
        live = probs > _LOG_FLOOR
        untrusted = np.any((w > 0.0) & ~live, axis=(1, 2)) | ~np.any(dp, axis=(1, 2))
        w = np.where(live, w, 0.0)
        probs = np.where(live, probs, 1.0)
        ratio = dp / probs
        score = np.sum(w * ratio, axis=(1, 2))
        curvature = np.sum(w * (d2p / probs - ratio * ratio), axis=(1, 2))
        return loglik, score, curvature, untrusted

    rho = _first_order_start(weights, cuts_h, cuts_k)
    lo, hi = np.full(n, -RHO_BOUND), np.full(n, RHO_BOUND)
    best, loglik = np.zeros(n), np.full(n, -np.inf)
    step, older = np.full((2, n), hi - lo)  # the last two step lengths
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ll, score, curvature, untrusted = evaluate(active, rho, derivatives=True)
        x = rho[idx]
        best[idx[~untrusted]], loglik[idx[~untrusted]] = x[~untrusted], ll[~untrusted]
        up = np.where(untrusted, x < best[idx], score > 0.0)
        a = np.where(up, x, lo[idx])
        b = np.where(up, hi[idx], x)
        lo[idx], hi[idx] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - score / curvature
        ok = ~untrusted & (curvature < 0.0) & (newton >= a) & (newton <= b)
        ok &= 2.0 * np.abs(newton - x) <= older[idx]
        step_to = np.where(ok, newton, 0.5 * (a + b))
        older[idx], step[idx] = step[idx], np.abs(step_to - x)
        moving = step[idx] >= _XATOL
        rho[idx[moving]] = step_to[moving]
        active[idx[~moving]] = False

    for bound, reaches in ((-RHO_BOUND, lo == -RHO_BOUND), (RHO_BOUND, hi == RHO_BOUND)):
        idx = np.flatnonzero(reaches)
        ceiling = _bound_ceiling(weights[idx], cuts_h[idx], cuts_k[idx], bound)
        reaches[idx] = ceiling >= loglik[idx] - _CEILING_SLACK * np.abs(loglik[idx])
        if reaches.any():
            at_bound = np.full(n, -np.inf)
            at_bound[reaches] = evaluate(reaches, np.full(n, bound), derivatives=False)
            wins = at_bound > loglik
            best[wins], loglik[wins] = bound, at_bound[wins]
    return best, loglik, ~active


def _open_limits(cuts):
    """n columns' stacked cuts with the open outer limits -inf and +inf attached."""
    ends = np.full((cuts.shape[0], 1), np.inf)
    return np.concatenate([-ends, cuts, ends], axis=1)


def _normal_scores(cuts):
    """Each category's normal score and the scores' variance, for n columns' stacked cuts.

    Category i of cuts u, padded with -/+inf, gets s_i = (phi(u_{i-1}) -
    phi(u_i)) / pi_i, the mean of the latent normal over it, where pi_i =
    Phi(u_i) - Phi(u_{i-1}); the variance is sum_i pi_i s_i^2. Returns
    n x I scores and n variances, non-finite where Phi does not separate
    two cuts.
    """
    limits = _open_limits(cuts)
    shares = np.diff(ndtr(limits), axis=1)
    scores = -np.diff(std_normal_pdf(limits), axis=1) / shares
    return scores, np.sum(shares * scores * scores, axis=1)


def _first_order_start(weights, cuts_h, cuts_k):
    """Each pair's first-order polychoric estimate, the start of its Newton solve.

    r is the correlation of the two columns' normal scores under the
    pair's own table. By the tetrachoric series, Cov(s_h, s_k) = rho v_h v_k
    + O(rho^2) for score variances v, so the start is r / sqrt(v_h v_k).
    Where that is not finite, or reaches the near-singular BVN tier
    (|rho| >= 0.925), where a start's floored or underflowed cells can
    mislead the solve, the start is r itself, or 0 where r is not finite
    either; it is then clipped inside +/-0.999.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (s_h, v_h), (s_k, v_k) = _normal_scores(cuts_h), _normal_scores(cuts_k)
        p = weights / weights.sum(axis=(1, 2), keepdims=True)
        d_h = s_h[:, :, None] - np.sum(p * s_h[:, :, None], axis=(1, 2), keepdims=True)
        d_k = s_k[:, None, :] - np.sum(p * s_k[:, None, :], axis=(1, 2), keepdims=True)
        cov, var_h, var_k = (np.sum(p * d, axis=(1, 2)) for d in (d_h * d_k, d_h * d_h, d_k * d_k))
        r = cov / np.sqrt(var_h * var_k)
        rho = r / np.sqrt(v_h * v_k)
    fallback = np.where(np.isfinite(r), r, 0.0)
    rho = np.where(np.isfinite(rho) & (np.abs(rho) < _TIER_EDGES[-1]), rho, fallback)
    return np.clip(rho, -np.nextafter(RHO_BOUND, 0), np.nextafter(RHO_BOUND, 0))


def _bound_ceiling(weights, cuts_h, cuts_k, bound):
    """An upper bound on each pair's floored loglikelihood at rho = ``bound`` (+/-0.999).

    ``cuts_h`` and ``cuts_k`` are the pairs' stacked interior thresholds,
    and the outer limits are open (+/-inf). Cell (i, j) spans rows (a, b]
    and columns (c, d]. At rho = +0.999, X - Y ~ N(0, s^2) with
    s = sqrt(2 (1 - 0.999)), and X - Y lies in (a - d, b - c] on the cell,
    so its probability is at most Phi((b - c) / s) and Phi((d - a) / s) as
    well as its row and column marginals; at -0.999, X + Y lies in
    (a + c, b + d] and gives Phi((b + d) / s) and Phi(-(a + c) / s). Each
    cell's cap gets ``_CEILING_MARGIN`` added, far above the BVN's error of
    about 1e-15, so it also caps the computed probability and, being above
    the floor, its floored value.
    """
    lim_h, lim_k = _open_limits(cuts_h), _open_limits(cuts_k)
    a, b = lim_h[:, :-1, None], lim_h[:, 1:, None]
    c, d = lim_k[:, None, :-1], lim_k[:, None, 1:]
    s = np.sqrt(2.0 * (1.0 - RHO_BOUND))
    upper, lower = (b - c, d - a) if bound > 0 else (b + d, -(a + c))
    cap = np.minimum(np.minimum(ndtr(upper / s), ndtr(lower / s)), np.minimum(ndtr(b) - ndtr(a), ndtr(d) - ndtr(c)))
    return np.sum(weights * np.log(cap + _CEILING_MARGIN), axis=(1, 2))


def polychoric_pair(
    table: ContingencyTable, thresholds_h: ThresholdSet, thresholds_k: ThresholdSet
) -> PairResult:
    """Maximize the table loglikelihood over the correlation alone.

    Safeguarded Newton steps start at the table's first-order estimate, the
    correlation of the two columns' normal scores (each category's mean
    latent value) divided by the square root of the scores' variances; where
    that is not finite or reaches |rho| 0.925 they start at the scores'
    correlation itself, or at 0. They stop at the first step below 1e-8
    inside [-0.999, 0.999]. A bound the search still reaches is checked
    only when a closed-form ceiling on its loglikelihood shows it might fit
    better, and kept when it does, so perfectly concordant tables return
    exactly the bound. This is the one-pair case of the solver
    ``polychoric_matrix`` runs on all pairs at once.

    Raises
    ------
    DataError
        If the table is degenerate (all mass in one row or column) or its
        shape disagrees with the threshold sets.
    ConvergenceError
        If the refinement does not converge; carries the best rho found.
    """
    _check_table(table, thresholds_h, thresholds_k)
    weights, cuts_h, cuts_k = table.smoothed(), thresholds_h.cuts, thresholds_k.cuts
    if _turn_key(cuts_h) > _turn_key(cuts_k):
        weights, cuts_h, cuts_k = weights.T, cuts_k, cuts_h
    rho, loglik, converged = _solve_pairs(np.ascontiguousarray(weights[None]), cuts_h[None], cuts_k[None])
    if not converged[0]:
        raise ConvergenceError(_NOT_CONVERGED, best=float(rho[0]))
    return PairResult(rho=float(rho[0]), loglik=float(loglik[0]))


def crosstab(codes_h: np.ndarray, codes_k: np.ndarray, n_h: int, n_k: int) -> np.ndarray:
    """Count table of two contiguous 1-based code vectors.

    Raises ``DataError`` unless both are 1-D vectors of one length whose
    values follow the code rule (integers >= 1 below 2**53, with
    ``DataMatrix``'s messages) and lie in 1..n_h and 1..n_k.
    """
    codes_h, codes_k = _as_codes(codes_h, "codes_h"), _as_codes(codes_k, "codes_k")
    if codes_h.size != codes_k.size:
        raise DataError(f"code vectors differ in length: {codes_h.size} and {codes_k.size}")
    for codes, n in ((codes_h, n_h), (codes_k, n_k)):
        if codes.size and codes.max() > n:
            raise DataError(f"codes must lie in 1..{n}")
    cells = (codes_h - 1) * n_k + (codes_k - 1)
    return np.bincount(cells, minlength=n_h * n_k).reshape(n_h, n_k).astype(float)


def _code_gram(codes, offsets, width, weights=None) -> np.ndarray:
    """Cross-product O^T diag(w) O of the one-hot code matrix O, from one pass over the rows.

    ``codes`` is N x K with internal codes 1..I_k in column k, and column
    k's indicator columns start at ``offsets[k]`` of O's ``width``. Block
    (h, k) of the result is the count table of columns h and k, and the
    diagonal blocks hold the marginal counts. Row i counts ``weights[i]``
    times (default once), as in a bootstrap replicate's row counts. O is
    built a row chunk at a time in float32, exact for 0/1 entries and for
    chunk sums below 2**24; weighted rows and the sum over chunks are
    float64, exact for integer counts.
    """
    n = codes.shape[0]
    step = max(1, _CHUNK_BYTES // (4 * width))
    gram = np.zeros((width, width))
    for start in range(0, n, step):
        cols = codes[start : start + step] - 1 + offsets
        onehot = np.zeros((cols.shape[0], width), dtype=np.float32)
        np.put_along_axis(onehot, cols, 1.0, axis=1)
        weighted = onehot if weights is None else onehot * weights[start : start + step, None]
        gram += onehot.T @ weighted
    return gram


def _pair_tables(gram, index, pairs, epsilon):
    """Smoothed count tables of the pairs, stacked by table shape.

    Row k of ``index`` holds the cross-product rows of column k's
    categories, in category order, padded with -1, and pair (h, k)'s table
    is the block of ``gram`` at rows ``index[h]`` and columns ``index[k]``
    without the padding; empty cells hold ``epsilon``. Returns one
    ``(members, tables)`` per table shape, where ``members`` are the
    positions in ``pairs`` of the pairs of that shape, in order, and
    ``tables`` their stacked tables.
    """
    smoothed = np.where(gram == 0, epsilon, gram)
    sizes, base = np.count_nonzero(index >= 0, axis=1), index.shape[1] + 1
    h, k = pairs.T
    shapes, group = np.unique(sizes[h] * base + sizes[k], return_inverse=True)
    out = []
    for g, shape in enumerate(shapes):
        members = np.flatnonzero(group == g)
        rows, cols = divmod(int(shape), base)
        out.append((members, smoothed[index[h[members], :rows, None], index[k[members], None, :cols]]))
    return out


def _count_polychoric(codes, categories, columns, epsilon, weights=None):
    """Thresholds and pairwise polychoric correlations from one count pass.

    ``categories`` and ``codes`` are ``_ordinal_codes`` of the data; row i
    counts ``weights[i]`` times (default once), as in a bootstrap
    replicate's row counts. Every statistic of the two-step estimator is
    read off the weighted one-hot cross-product: each column's marginal
    counts from its diagonal, with the categories of zero count collapsed
    away, give its thresholds, and its off-diagonal blocks give the pair
    tables, solved one table shape at a time. Without weights no category
    has zero count.

    Returns the K x K values, with a unit diagonal, and the thresholds.

    Raises
    ------
    DataError
        On a column with a single category, named with the column.
    ConvergenceError
        If a pair does not converge, named with the pair.
    """

    def label(p):
        h, k = pairs[p]
        return f"pair ('{columns[h]}', '{columns[k]}')"

    sizes = np.array([len(observed) for observed in categories])
    offsets = np.cumsum([0, *sizes[:-1]])
    gram = _code_gram(codes, offsets, int(sizes.sum()), weights)
    n, slot = len(columns), np.arange(max(sizes))
    # each column's marginal counts, read off the diagonal, padded with zeros
    within = slot < sizes[:, None]
    marginals = np.zeros(within.shape)
    marginals[within] = np.diagonal(gram)
    thresholds, position, cuts = _thresholds_from_counts(marginals, categories, columns)
    # each column's drawn cross-product rows, padded with -1
    index = np.where(position >= 0, offsets[:, None] + position, -1)

    pairs = np.column_stack(np.triu_indices(n, 1))
    values = np.eye(n)
    if pairs.size:
        # a stable sort leaves a tie unturned; the cross-product is symmetric, so a turned
        # pair's block is its turned table
        rank = np.argsort(sorted(range(n), key=lambda j: _turn_key(thresholds[j].cuts)))
        solved = np.where((rank[pairs[:, 0]] > rank[pairs[:, 1]])[:, None], pairs[:, ::-1], pairs)
        groups = _pair_tables(gram, index, solved, epsilon)
        del gram  # not needed by the solve, whose working arrays set the memory peak
        rho, converged = np.empty(len(pairs)), np.empty(len(pairs), dtype=bool)
        for members, tables in groups:
            (h, k), (r, c) = solved[members].T, tables.shape[1:]
            rho[members], _, converged[members] = _solve_pairs(tables, cuts[h, : r - 1], cuts[k, : c - 1])
        if not converged.all():
            p = int(np.argmin(converged))
            raise ConvergenceError(f"{label(p)}: {_NOT_CONVERGED}", best=float(rho[p]))
        h, k = pairs.T
        values[h, k] = values[k, h] = rho
    return values, thresholds


def _ordinal_codes(data: DataMatrix):
    """Each column's observed codes, ascending, and the N x K matrix of its compact codes 1..I_k."""
    if not data.all_ordinal:
        raise DataError("polychoric correlations require all columns to be ordinal")
    categories, ranks = zip(*(_compact_codes(data.codes(j)) for j in range(data.n_cols)))
    return list(categories), np.column_stack(ranks)


def polychoric_matrix(data: DataMatrix, epsilon: float = 0.5, repair_pd: bool = False):
    """Thresholds plus the full pairwise polychoric correlation matrix.

    Parameters
    ----------
    data : DataMatrix
        All columns must be ordinal.
    epsilon : float
        Smoothing value substituted for zero cells in each pair table; one
        that is not finite and >= 0 raises DataError before any count.
    repair_pd : bool
        Project a non-positive-definite result to the nearest admissible
        matrix instead of flagging it as failed.

    Returns
    -------
    (CorrelationMatrix, list[ThresholdSet])
    """
    _check_epsilon(epsilon)
    categories, codes = _ordinal_codes(data)
    values, thresholds = _count_polychoric(codes, categories, data.columns, epsilon)
    return CorrelationMatrix.build(values, kind="polychoric", repair=repair_pd), thresholds


# Bytes of one weighted copy's share of a row chunk in the weighted moments.
_MOMENT_BYTES = 1 << 14


def _weighted_correlations(values, counts) -> np.ndarray:
    """Pearson correlation matrices of count-weighted copies of the rows.

    ``values`` is N x K and ``counts`` is B x N: row i enters copy b
    ``counts[b, i]`` times. The data are centred once at their own mean
    and given a column of ones, X1, so that (w * X1)^T X1 holds a copy's
    cross-products, column sums and total. Rows are taken in chunks whose
    size depends on K alone, so a copy's arithmetic does not depend on how
    many copies share the call. A column whose weighted variance is not a
    positive finite number, as when its squares overflow or underflow or
    it is constant within a copy, gets NaN on that copy's diagonal, without
    a warning. Returns B x K x K.
    """
    n, k = values.shape
    x = np.empty((n, k + 1))
    moments = np.zeros((counts.shape[0], k + 1, k + 1))
    step = max(1, _MOMENT_BYTES // (8 * (k + 1)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.subtract(values, values.mean(axis=0), out=x[:, :k])
        x[:, k] = 1.0
        for start in range(0, n, step):
            rows = x[start : start + step]
            moments += (counts[:, start : start + step, None] * rows).swapaxes(-1, -2) @ rows
        sums, total = moments[:, k, :k], moments[:, k, k, None, None]
        corr = moments[:, :k, :k] - sums[:, :, None] * sums[:, None, :] / total
        sd = np.sqrt(np.diagonal(corr, axis1=-2, axis2=-1))
        corr /= sd[:, :, None]
        corr /= sd[:, None, :]
        corr += corr.swapaxes(-1, -2)
    corr *= 0.5
    np.clip(corr, -1.0, 1.0, out=corr)
    usable = np.isfinite(sd) & (sd > 0.0)
    corr[:, np.arange(k), np.arange(k)] = np.where(usable, 1.0, np.nan)
    return corr


def _data_correlations(values, names) -> np.ndarray:
    """The one-copy, all-ones ``_weighted_correlations`` of N x K ``values``.

    Raises DataError naming the first column that is constant, or whose
    squares overflow or underflow.
    """
    constant = values.max(axis=0) == values.min(axis=0)
    if constant.any():
        raise DataError(f"zero-variance column '{names[int(np.argmax(constant))]}'")
    corr = _weighted_correlations(values, np.ones((1, values.shape[0])))[0]
    unusable = np.isnan(np.diagonal(corr))
    if unusable.any():
        raise DataError(f"column '{names[int(np.argmax(unusable))]}' holds values too large or "
                        "too small for Pearson correlations: their squares overflow or underflow")
    return corr


def pearson_matrix(data) -> CorrelationMatrix:
    """Pearson correlation matrix of a DataMatrix or raw N x K array.

    This is the one-copy, all-ones case of the count-weighted moments the
    bootstrap uses.
    """
    if isinstance(data, DataMatrix):
        values, names = data.values, data.columns
    else:
        values = np.asarray(data, dtype=float)
        names = [str(j) for j in range(values.shape[1])]
    return CorrelationMatrix.build(_data_correlations(values, names), kind="pearson")


def _positive_definite(values) -> np.ndarray:
    """The positive-definiteness test of ``CorrelationMatrix.build``, over leading stack axes.

    A finite matrix passes when Sigma - ``_PD_TOL`` * I has a Cholesky
    factor; only the lower triangle is read, as ``eigvalsh`` does. Every
    caller passes finite matrices: ``build`` rejects non-finite entries and
    the bootstrap's replicate builders return only finite matrices.
    That is "smallest eigenvalue above ``_PD_TOL``" up to rounding of order
    K * u * ||Sigma||, at a fraction of an eigen-decomposition's cost. The
    whole stack is factored at once; only if some member has no factor is
    each member factored alone, and a stack of one is decided by its one
    failure. A 2-D input gives one boolean.
    """
    shifted = values - _PD_TOL * np.eye(values.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if shifted.size == shifted.shape[-1] ** 2:
            return np.zeros(shifted.shape[:-2], dtype=bool)[()]
        members = values.reshape(-1, *values.shape[-2:])
        return np.array([_positive_definite(m) for m in members]).reshape(values.shape[:-2])
    return np.ones(shifted.shape[:-2], dtype=bool)[()]


def nearest_pd_repair(values, kind) -> CorrelationMatrix:
    """Project a symmetric matrix to a nearby unit-diagonal PD matrix of the given kind.

    Alternates eigenvalue clipping with diagonal renormalization; if the
    iteration stalls, a final convex blend with the identity guarantees the
    eigenvalue floor. ``CorrelationMatrix.build`` calls it on a matrix that
    failed its positive-definiteness test; the result is marked "repaired".
    """
    a = 0.5 * (values + values.T)
    for _ in range(_REPAIR_MAX_ITER):
        eigval, eigvec = np.linalg.eigh(a)
        if eigval.min() >= _REPAIR_MIN_EIGENVALUE:
            break
        eigval = np.maximum(eigval, _REPAIR_MIN_EIGENVALUE)
        a = (eigvec * eigval) @ eigvec.T
        a = 0.5 * (a + a.T)
        a = np.clip(a, -1.0, 1.0)
        np.fill_diagonal(a, 1.0)
    lam = np.linalg.eigvalsh(a).min()
    if lam < _REPAIR_MIN_EIGENVALUE:
        delta = (_REPAIR_MIN_EIGENVALUE - lam) / (1.0 - lam)
        a = (1.0 - delta) * a + delta * np.eye(a.shape[0])
        np.fill_diagonal(a, 1.0)
    return CorrelationMatrix(values=a, kind=kind, pd_status="repaired")
