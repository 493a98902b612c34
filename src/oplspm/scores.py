"""Latent variable scores.

Interval data admits direct scores (standardized weighted composites).
Ordinal data only pins each subject's composite to an interval bounded by
the weighted thresholds of the chosen categories; a category on the latent
scale is then assigned by the mode, median, or mean of a standard normal
restricted to that interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .distributions import ndtr, truncated_normal_mean, truncated_normal_median
from .errors import DataError
from .model import DataMatrix, PathModel
from .pls import _standardized_indicators
from .polychoric import ThresholdSet

__all__ = [
    "LatentThresholds",
    "direct_scores",
    "raw_scale_scores",
    "latent_thresholds",
    "predict_categories",
    "concordance_table",
]

RULES = ("mode", "median", "mean")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatentThresholds:
    """Aggregated cut points per latent variable.

    ``cuts[j]`` holds latent j's interior cut points, the weighted
    (standardizing-weight) sums of its indicators' cut points. With -inf and
    +inf attached they tile the latent axis into the homogeneous-response
    intervals A_i = (a_{i-1}, a_i].
    """

    cuts: tuple[np.ndarray, ...]
    category_counts: tuple[int, ...]


def direct_scores(data: DataMatrix, standardizing_weights: np.ndarray) -> np.ndarray:
    """Composite scores for interval data: standardized indicators times SW.

    With weights converged on this dataset's correlation matrix the score
    columns have mean 0 and unit sample variance.
    """
    return _standardized_indicators(data) @ standardizing_weights


def raw_scale_scores(
    data: DataMatrix, raw_weights: np.ndarray, threshold_sets: list[ThresholdSet]
) -> np.ndarray:
    """Weighted averages (weights rescaled to sum 1) of the internal codes 1..I.

    Each column's codes go through its ``ThresholdSet.map_codes``, one
    column at a time, so the scores are on the scale of the predicted
    categories whatever codes the data use. With nonnegative weights the
    result stays in [1, I], which is what the concordance report rounds.
    """
    v = raw_weights / raw_weights.sum(axis=0)
    out = np.zeros((data.n_rows, v.shape[1]))
    for k, ts in enumerate(threshold_sets):
        codes = ts.map_codes(data.codes(k))
        for j in np.flatnonzero(v[k]):
            out[:, j] += v[k, j] * codes
    return out


def latent_thresholds(
    threshold_sets: list[ThresholdSet], standardizing_weights: np.ndarray, model: PathModel
) -> LatentThresholds:
    """Aggregate indicator thresholds into per-latent thresholds.

    All indicators of a block must share one category count; mixed counts
    make the homogeneous-response sets undefined and raise DataError.
    """
    if len(threshold_sets) != model.n_indicators:
        raise DataError("one ThresholdSet per indicator is required")
    cuts = []
    counts = []
    for j, latent in enumerate(model.latent_names):
        block = model.block_slice(j)
        block_sets = threshold_sets[block]
        cats = {ts.category_count for ts in block_sets}
        if len(cats) != 1:
            raise DataError(
                f"block '{latent}' has heterogeneous category counts {sorted(cats)}; "
                "a common number of categories per block is required"
            )
        w = standardizing_weights[block, j]
        stacked = np.vstack([ts.cuts for ts in block_sets])
        cuts.append(w @ stacked)
        counts.append(cats.pop())
    return LatentThresholds(cuts=tuple(cuts), category_counts=tuple(counts))


@dataclass(frozen=True)
class _Intervals:
    """One latent's subject intervals (alpha, beta], alpha <= beta, and their normal CDFs."""

    alpha: np.ndarray
    beta: np.ndarray
    cdf_alpha: np.ndarray
    cdf_beta: np.ndarray


def _check_prediction_data(data: DataMatrix, model: PathModel) -> None:
    if not data.all_ordinal:
        raise DataError("category prediction requires ordinal data")
    if data.columns != model.indicator_names:
        raise DataError("data columns do not match the model's indicator order")


def _block_intervals(data, block, threshold_sets, block_weights, latent):
    """Every subject's interval (alpha, beta] on one latent's scale, one block column at a time.

    The endpoints are the weighted sums of the responses' lower and upper
    cut points (clipped to +-4). Negative weights can reverse an interval;
    its endpoints are then swapped, with one warning for the latent.
    """
    lower = np.zeros(data.n_rows)
    upper = np.zeros(data.n_rows)
    for k, w in zip(range(block.start, block.stop), block_weights):
        padded = threshold_sets[k].padded()
        codes = threshold_sets[k].map_codes(data.codes(k))
        lower += w * np.take(padded, codes - 1)
        upper += w * np.take(padded, codes)
    swapped = lower > upper
    if np.any(swapped):
        # Possible only with negative weights after orientation correction.
        logger.warning(
            "block '%s': %d subject interval(s) reversed by negative weights; endpoints swapped",
            latent,
            int(swapped.sum()),
        )
        lower[swapped], upper[swapped] = upper[swapped].copy(), lower[swapped].copy()
    return _Intervals(lower, upper, ndtr(lower), ndtr(upper))


def _overlap_probabilities(alpha, beta, cuts, cdf_alpha, cdf_beta):
    """P(C intersect A_i) for each homogeneous set A_i between the interior ``cuts``, in order.

    Yields one array over the subjects per set. ``cdf_alpha`` and
    ``cdf_beta`` are Phi of the interval endpoints. The first and last sets
    reach -inf/+inf so the sets tile the whole axis: the overlaps then sum
    exactly to P(C) even when weighted endpoints fall outside [-4, 4].
    """
    lower_bounds = np.concatenate([[-np.inf], cuts])
    upper_bounds = np.concatenate([cuts, [np.inf]])
    # Phi(min(beta, u)) is Phi(u) where u < beta, else Phi(beta): one ndtr per endpoint and
    # bound. The min of the two Phis would differ, as ndtr is not monotone in the last bit.
    for lower, upper, cdf_lower, cdf_upper in zip(
        lower_bounds, upper_bounds, ndtr(lower_bounds), ndtr(upper_bounds)
    ):
        hi = np.where(upper < beta, cdf_upper, cdf_beta)
        hi -= np.where(lower > alpha, cdf_lower, cdf_alpha)
        yield np.clip(hi, 0.0, None, out=hi)


def _mode_categories(c: _Intervals, cuts) -> np.ndarray:
    """The 1-based set with the largest overlap per subject; ties go to the lower set."""
    best = np.zeros(len(c.alpha))
    out = np.ones(len(c.alpha), dtype=int)
    overlaps = _overlap_probabilities(c.alpha, c.beta, cuts, c.cdf_alpha, c.cdf_beta)
    for i, overlap in enumerate(overlaps, start=1):
        larger = overlap > best
        np.maximum(best, overlap, out=best)
        out[larger] = i
    return out


def _bin_statistic(stat, interior_cuts):
    # A_i = (a_{i-1}, a_i]: first interval takes everything <= a_1, the
    # last everything above a_{I-1}.
    return np.searchsorted(interior_cuts, stat, side="left") + 1


def _rule_categories(c: _Intervals, cuts, rule, latent) -> np.ndarray:
    """One latent's categories under ``rule`` from its subject intervals ``c``."""
    if rule == "mode":
        return _mode_categories(c, cuts)
    cdf = (c.cdf_alpha, c.cdf_beta)
    try:
        if rule == "median":
            stat = truncated_normal_median(c.alpha, c.beta, cdf=cdf)
        else:
            stat = truncated_normal_mean(c.alpha, c.beta, cdf=cdf)
    except ValueError as exc:
        raise DataError(f"latent '{latent}': {exc}") from None
    return _bin_statistic(stat, cuts)


def _latent_predictions(data, lt, threshold_sets, standardizing_weights, model, rules):
    """Each latent's category columns, one per rule in ``rules``, latent by latent.

    A latent's subject intervals are built once, read by every rule, and
    dropped before the next latent's are built.
    """
    for rule in rules:
        if rule not in RULES:
            raise DataError(f"unknown prediction rule '{rule}'; expected one of {RULES}")
    _check_prediction_data(data, model)
    for j, latent in enumerate(model.latent_names):
        block = model.block_slice(j)
        c = _block_intervals(data, block, threshold_sets, standardizing_weights[block, j], latent)
        columns = [_rule_categories(c, lt.cuts[j], rule, latent) for rule in rules]
        del c
        yield columns


def predict_categories(
    data: DataMatrix,
    lt: LatentThresholds,
    threshold_sets: list[ThresholdSet],
    standardizing_weights: np.ndarray,
    model: PathModel,
    rule: str = "mode",
) -> np.ndarray:
    """Assign a latent category to every subject and latent variable.

    rule
        "mode":   the homogeneous set with the largest probability overlap
                  with the subject's interval (ties go to the lower
                  category);
        "median": the set containing the median of the standard normal
                  restricted to the subject's interval;
        "mean":   the same with the truncated mean.

    Each latent's subject intervals are built as it is reached and dropped
    after it.
    """
    out = np.empty((data.n_rows, model.n_latents), dtype=int)
    columns = _latent_predictions(data, lt, threshold_sets, standardizing_weights, model, (rule,))
    for j, (column,) in enumerate(columns):
        out[:, j] = column
    return out


def concordance_table(predicted: np.ndarray, reference: np.ndarray):
    """Percent agreement per latent: exact and within one category."""
    predicted = np.asarray(predicted)
    reference = np.asarray(reference)
    if predicted.shape != reference.shape:
        raise DataError("concordance inputs must have identical shapes")
    diff = np.abs(predicted - reference)
    return {
        "exact": 100.0 * (diff == 0).mean(axis=0),
        "within_one": 100.0 * (diff <= 1).mean(axis=0),
    }
