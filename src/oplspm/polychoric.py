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

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .distributions import _bvn_cdf_finite, _bvn_cdf_infinite, _bvn_pdf_drho, bvn_cdf, std_normal_quantile
from .errors import ConvergenceError, DataError
from .model import DataMatrix

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
    away so the internal codes are always contiguous.
    """

    cuts: np.ndarray
    categories: tuple[int, ...]

    @property
    def category_count(self) -> int:
        return len(self.categories)

    def padded(self) -> np.ndarray:
        """Cut points with the clipped boundaries -4 and +4 attached."""
        return np.concatenate([[-THRESHOLD_BOUND], self.cuts, [THRESHOLD_BOUND]])

    def open_bounds(self) -> np.ndarray:
        """Cut points with open boundaries, as used inside the likelihood."""
        return np.concatenate([[-np.inf], self.cuts, [np.inf]])

    def map_codes(self, codes: np.ndarray) -> np.ndarray:
        """Translate original codes to contiguous internal codes 1..I_k."""
        codes = np.asarray(codes).astype(int, copy=False)
        top = self.categories[-1]
        lut = np.zeros(top + 1, dtype=int)  # 0 marks a code that was not seen
        lut[list(self.categories)] = np.arange(1, self.category_count + 1)
        inside = np.clip(codes, 0, top)
        mapped = lut[inside]
        bad = (mapped == 0) | (inside != codes)
        if bad.any():
            code = int(codes[np.argmax(bad)])
            raise DataError(f"category code {code} was not seen at threshold estimation")
        return mapped


def _check_epsilon(epsilon, where=""):
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise DataError(f"{where}smoothing epsilon must be finite and nonnegative, got {epsilon}")


@dataclass(frozen=True)
class ContingencyTable:
    """Two-way count table with zero-cell smoothing.

    ``epsilon`` replaces zero counts only; observed counts are never
    altered. ``epsilon=0`` disables the substitution entirely, in which
    case empty cells simply contribute nothing to the pair likelihood.
    """

    counts: np.ndarray
    epsilon: float = 0.5

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2:
            raise DataError("contingency table must be 2-D")
        if np.any(counts < 0) or np.any(counts != np.round(counts)):
            raise DataError("contingency table counts must be nonnegative integers")
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
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError("correlation matrix must be square")
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

    Raises
    ------
    DataError
        On an empty column, invalid codes, or a single observed category.
    """
    column = np.asarray(column)
    if column.size == 0:
        raise DataError("cannot estimate thresholds from an empty column")
    codes = column.astype(float)
    if np.any(codes != np.round(codes)) or np.any(codes < 1):
        raise DataError("ordinal codes must be integers >= 1")
    observed, counts = np.unique(codes.astype(int), return_counts=True)
    return _thresholds_from_counts(counts, observed)


def _thresholds_from_counts(counts, categories) -> ThresholdSet:
    """Thresholds from the positive counts of the given categories, in code order."""
    if len(categories) < 2:
        raise DataError("single observed category: no interior threshold estimable")
    cumulative = np.cumsum(counts) / counts.sum()
    cuts = std_normal_quantile(cumulative[:-1])
    cuts = np.clip(np.atleast_1d(cuts), -THRESHOLD_BOUND, THRESHOLD_BOUND)
    ties = np.flatnonzero(np.diff(cuts) <= 0)
    if ties.size:
        # Cut i separates categories[i] and categories[i + 1].
        i = int(ties[0])
        low, mid, high = (int(c) for c in categories[i : i + 3])
        raise DataError(
            "thresholds not strictly increasing after clipping at +/-4: the cuts between "
            f"codes {low}|{mid} and {mid}|{high} both clip to {cuts[i]:+g}"
        )
    return ThresholdSet(cuts=cuts, categories=tuple(int(c) for c in categories))


def cell_probabilities(thresholds_h: ThresholdSet, thresholds_k: ThresholdSet, rho: float) -> np.ndarray:
    """Cell probabilities of the discretized bivariate normal.

    Entry (i, j) is the probability of observing internal categories
    (i+1, j+1); the cells sum to 1 for any admissible rho.
    """
    bh = thresholds_h.open_bounds()
    bk = thresholds_k.open_bounds()
    grid_h, grid_k = np.meshgrid(bh, bk, indexing="ij")
    lower_cdf = bvn_cdf(grid_h, grid_k, rho)
    return np.diff(np.diff(lower_cdf, axis=0), axis=1)


def _check_table(table: ContingencyTable, thresholds_h: ThresholdSet, thresholds_k: ThresholdSet):
    counts = table.counts
    if counts.shape != (thresholds_h.category_count, thresholds_k.category_count):
        raise DataError(
            f"table shape {counts.shape} does not match threshold categories "
            f"({thresholds_h.category_count}, {thresholds_k.category_count})"
        )
    if np.count_nonzero(counts.sum(axis=1)) < 2 or np.count_nonzero(counts.sum(axis=0)) < 2:
        raise DataError("degenerate table: all mass in one row or column")


def _turned(cuts_h, cuts_k):
    """Whether a pair is solved turned: its rows' (cut count, cuts) sort after its columns' (a tie is not)."""
    return (cuts_h.size, cuts_h.tolist()) > (cuts_k.size, cuts_k.tolist())


def _solve_pairs(weights, cuts_h, cuts_k):
    """Two-step ML correlation of many pair tables of one shape at once.

    ``weights`` is n x R x C: ``weights[p]`` is pair p's smoothed count
    table, and ``cuts_h[p]``, ``cuts_k[p]`` its R - 1 and C - 1 interior
    thresholds. Callers turn each pair with ``_turned`` first, so a table
    and its transpose give the same result; the tables must be C-ordered,
    as the loglikelihood sums run in memory order. A pair's result depends
    only on its own table and thresholds, not on the pairs that share its
    call.

    Each pair starts cold at the Pearson correlation of its category
    indices under its own table. Newton steps on the analytic score
    (dPhi2/drho = phi2) climb from there inside a bracket that starts as
    [-0.999, 0.999] and shrinks to the uphill side of each point; a step
    that leaves it, meets a curvature that is not negative or does not
    halve the step before last bisects instead, and a point with a floored
    observed cell shrinks it toward the last point without one. A bound the
    final bracket still reaches is evaluated only where a closed-form
    ceiling on its loglikelihood (``_bound_ceiling``) does not rule it out,
    and kept when its loglikelihood is higher; a ruled-out bound could not
    have won, so skipping it changes no result.

    Returns ``(rho, loglik, converged)`` arrays with one entry per pair.
    """
    n, rows, cols = weights.shape
    cuts_h, cuts_k = np.stack(cuts_h), np.stack(cuts_k)
    lim_h, lim_k = (np.pad(c, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf)) for c in (cuts_h, cuts_k))

    # CDF corners on an infinite limit are marginals fixed by the
    # thresholds; only the interior corners, at the cuts, depend on rho. A
    # pair's interior corners are evaluated as one block sharing its rho,
    # from its row cuts against its column cuts.
    fixed, _ = _bvn_cdf_infinite(lim_h[:, :, None], lim_k[:, None, :])
    inner = np.s_[:, 1:-1, 1:-1]
    corner_h, corner_k = cuts_h[:, :, None], cuts_k[:, None, :]

    def evaluate(active, rho, derivatives):
        # Loglikelihood (and score, curvature) of the active pairs at rho.
        h, k, r = corner_h[active], corner_k[active], rho[active]
        cdf = fixed[active]
        cdf[inner] = _bvn_cdf_finite(h, k, r)
        probs = np.diff(np.diff(cdf, axis=1), axis=2)
        w = weights[active]
        loglik = np.sum(w * np.log(np.maximum(probs, _LOG_FLOOR)), axis=(1, 2))
        if not derivatives:
            return loglik
        d1, d2 = np.zeros((2, *cdf.shape))
        d1[inner], d2[inner] = _bvn_pdf_drho(h, k, r[:, None, None])
        dp = np.diff(np.diff(d1, axis=1), axis=2)
        d2p = np.diff(np.diff(d2, axis=1), axis=2)
        # floored cells are flat in rho, so they drop out of the derivatives
        live = probs > _LOG_FLOOR
        floored = np.any((w > 0.0) & ~live, axis=(1, 2))
        w = np.where(live, w, 0.0)
        probs = np.where(live, probs, 1.0)
        ratio = dp / probs
        score = np.sum(w * ratio, axis=(1, 2))
        curvature = np.sum(w * (d2p / probs - ratio * ratio), axis=(1, 2))
        return loglik, score, curvature, floored

    # index correlations, +/-1 when concordant
    p = weights / weights.sum(axis=(1, 2), keepdims=True)
    d_h = np.arange(rows)[:, None] - np.sum(p * np.arange(rows)[:, None], axis=(1, 2), keepdims=True)
    d_k = np.arange(cols) - np.sum(p * np.arange(cols), axis=(1, 2), keepdims=True)
    cov, var_h, var_k = (np.sum(p * d, axis=(1, 2)) for d in (d_h * d_k, d_h * d_h, d_k * d_k))
    rho = np.clip(cov / np.sqrt(var_h * var_k), -np.nextafter(RHO_BOUND, 0), np.nextafter(RHO_BOUND, 0))
    lo, hi = np.full(n, -RHO_BOUND), np.full(n, RHO_BOUND)
    best, loglik = rho.copy(), np.full(n, -np.inf)
    step, older = np.full((2, n), hi - lo)  # the last two step lengths
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ll, score, curvature, floored = evaluate(active, rho, derivatives=True)
        x = rho[idx]
        # after the first point, a floored point's score is not trusted
        floored &= np.isfinite(loglik[idx])
        best[idx[~floored]], loglik[idx[~floored]] = x[~floored], ll[~floored]
        up = np.where(floored, x < best[idx], score > 0.0)
        a = np.where(up, x, lo[idx])
        b = np.where(up, hi[idx], x)
        lo[idx], hi[idx] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - score / curvature
        ok = ~floored & (curvature < 0.0) & (newton >= a) & (newton <= b)
        ok &= 2.0 * np.abs(newton - x) <= older[idx]
        step_to = np.where(ok, newton, 0.5 * (a + b))
        older[idx], step[idx] = step[idx], np.abs(step_to - x)
        moving = step[idx] >= _XATOL
        rho[idx[moving]] = step_to[moving]
        active[idx[~moving]] = False

    for bound, reaches in ((-RHO_BOUND, lo == -RHO_BOUND), (RHO_BOUND, hi == RHO_BOUND)):
        idx = np.flatnonzero(reaches)
        ceiling = _bound_ceiling(weights[idx], lim_h[idx], lim_k[idx], bound)
        reaches[idx] = ceiling >= loglik[idx] - _CEILING_SLACK * np.abs(loglik[idx])
        if reaches.any():
            at_bound = np.full(n, -np.inf)
            at_bound[reaches] = evaluate(reaches, np.full(n, bound), derivatives=False)
            wins = at_bound > loglik
            best[wins], loglik[wins] = bound, at_bound[wins]
    return best, loglik, ~active


def _bound_ceiling(weights, lim_h, lim_k, bound):
    """An upper bound on each pair's floored loglikelihood at rho = ``bound`` (+/-0.999).

    Cell (i, j) spans rows (a, b] and columns (c, d]. At rho = +0.999,
    X - Y ~ N(0, s^2) with s = sqrt(2 (1 - 0.999)), and X - Y lies in
    (a - d, b - c] on the cell, so its probability is at most
    Phi((b - c) / s) and Phi((d - a) / s) as well as its row and column
    marginals; at -0.999, X + Y lies in (a + c, b + d] and gives
    Phi((b + d) / s) and Phi(-(a + c) / s). Each cell's cap gets
    ``_CEILING_MARGIN`` added, far above the BVN's error of about 1e-15, so
    it also caps the computed probability and, being above the floor, its
    floored value.
    """
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

    Safeguarded Newton steps start at the table's index correlation and
    stop at the first step below 1e-8 inside [-0.999, 0.999]. A bound the
    search still reaches is checked only when a closed-form ceiling on its
    loglikelihood shows it might fit better, and kept when it does, so
    perfectly concordant tables return exactly the bound. This is the
    one-pair case of the solver ``polychoric_matrix`` runs on all pairs at
    once.

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
    if _turned(cuts_h, cuts_k):
        weights, cuts_h, cuts_k = weights.T, cuts_k, cuts_h
    rho, loglik, converged = _solve_pairs(np.ascontiguousarray(weights[None]), [cuts_h], [cuts_k])
    if not converged[0]:
        raise ConvergenceError(_NOT_CONVERGED, best=float(rho[0]))
    return PairResult(rho=float(rho[0]), loglik=float(loglik[0]))


def crosstab(codes_h: np.ndarray, codes_k: np.ndarray, n_h: int, n_k: int) -> np.ndarray:
    """Count table of two contiguous 1-based code vectors."""
    codes_h, codes_k = np.asarray(codes_h), np.asarray(codes_k)
    for codes, n in ((codes_h, n_h), (codes_k, n_k)):
        if codes.size and (codes.min() < 1 or codes.max() > n):
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

    ``index[k]`` holds the cross-product rows of column k's categories, in
    category order, and pair (h, k)'s table is the block of ``gram`` at
    rows ``index[h]`` and columns ``index[k]``; empty cells hold
    ``epsilon``. Returns one ``(members, tables)`` per table shape, where
    ``members`` are the positions in ``pairs`` of the pairs of that shape,
    in order, and ``tables`` their stacked tables.
    """
    smoothed = np.where(gram == 0, epsilon, gram)
    groups = {}
    for p, (h, k) in enumerate(pairs):
        groups.setdefault((index[h].size, index[k].size), []).append(p)
    out = []
    for members in groups.values():
        rows = np.array([index[h] for h, _ in pairs[members]])
        cols = np.array([index[k] for _, k in pairs[members]])
        out.append((np.array(members), smoothed[rows[:, :, None], cols[:, None, :]]))
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

    sizes = [len(observed) for observed in categories]
    offsets = np.cumsum([0, *sizes[:-1]])
    gram = _code_gram(codes, offsets, sum(sizes), weights)
    marginals = np.diagonal(gram).copy()
    thresholds, index = [], []
    for name, start, observed in zip(columns, offsets, categories):
        counts = marginals[start : start + len(observed)]
        drawn = np.flatnonzero(counts)
        try:
            thresholds.append(_thresholds_from_counts(counts[drawn], observed[drawn]))
        except DataError as exc:
            raise DataError(f"column '{name}': {exc}") from None
        index.append(start + drawn)

    pairs = np.array(list(itertools.combinations(range(len(columns)), 2)), dtype=int)
    values = np.eye(len(columns))
    if pairs.size:
        _check_epsilon(epsilon, f"{label(0)}: ")
        # the cross-product is symmetric, so a turned pair's block is its turned table
        turned = [_turned(thresholds[h].cuts, thresholds[k].cuts) for h, k in pairs]
        solved = np.where(np.array(turned)[:, None], pairs[:, ::-1], pairs)
        groups = _pair_tables(gram, index, solved, epsilon)
        del gram  # not needed by the solve, whose working arrays set the memory peak
        rho, converged = np.empty(len(pairs)), np.empty(len(pairs), dtype=bool)
        for members, tables in groups:
            h, k = solved[members].T
            rho[members], _, converged[members] = _solve_pairs(
                tables, [thresholds[i].cuts for i in h], [thresholds[i].cuts for i in k]
            )
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
    seen = [np.bincount(data.codes(j)) > 0 for j in range(data.n_cols)]
    most = max((int(s.sum()) for s in seen), default=1)
    codes = np.empty(data.values.shape, dtype=np.min_scalar_type(most))
    for j, s in enumerate(seen):
        codes[:, j] = np.cumsum(s)[data.codes(j)]
    return [np.flatnonzero(s) for s in seen], codes


def polychoric_matrix(data: DataMatrix, epsilon: float = 0.5, repair_pd: bool = False):
    """Thresholds plus the full pairwise polychoric correlation matrix.

    Parameters
    ----------
    data : DataMatrix
        All columns must be ordinal.
    epsilon : float
        Smoothing value substituted for zero cells in each pair table.
    repair_pd : bool
        Project a non-positive-definite result to the nearest admissible
        matrix instead of flagging it as failed.

    Returns
    -------
    (CorrelationMatrix, list[ThresholdSet])
    """
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
    many copies share the call. A column constant within a copy gives
    non-finite entries; callers rule that out first. Returns B x K x K.
    """
    n, k = values.shape
    x = np.empty((n, k + 1))
    np.subtract(values, values.mean(axis=0), out=x[:, :k])
    x[:, k] = 1.0
    step = max(1, _MOMENT_BYTES // (8 * (k + 1)))
    moments = np.zeros((counts.shape[0], k + 1, k + 1))
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
    corr[:, np.arange(k), np.arange(k)] = 1.0
    return corr


def pearson_matrix(data) -> CorrelationMatrix:
    """Pearson correlation matrix of a DataMatrix or raw N x K array.

    This is the one-copy, all-ones case of the count-weighted moments the
    bootstrap uses.
    """
    values = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=float)
    constant = values.max(axis=0) == values.min(axis=0)
    if constant.any():
        j = int(np.argmax(constant))
        name = data.columns[j] if isinstance(data, DataMatrix) else str(j)
        raise DataError(f"zero-variance column '{name}'")
    corr = _weighted_correlations(values, np.ones((1, values.shape[0])))
    return CorrelationMatrix.build(corr[0], kind="pearson")


def _positive_definite(values) -> np.ndarray:
    """The positive-definiteness test of ``CorrelationMatrix.build``, over leading stack axes."""
    return np.linalg.eigvalsh(values).min(axis=-1) > _PD_TOL


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
