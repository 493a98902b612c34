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
from scipy.special import ndtr

from .distributions import truncated_normal_mean, truncated_normal_median
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


def raw_scale_scores(data: DataMatrix, raw_weights: np.ndarray) -> np.ndarray:
    """Weighted averages of the raw indicator values (weights rescaled to sum 1).

    For ordinal codes 1..I and nonnegative weights the result stays on the
    original category scale, which is what the concordance report rounds.
    """
    v = raw_weights / raw_weights.sum(axis=0)
    return data.values @ v


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


def _subject_intervals(data, block, threshold_sets, block_weights, latent):
    """Per-subject interval endpoints (alpha, beta] on the latent scale, one block column at a time."""
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
    return lower, upper


def _overlap_probabilities(alpha, beta, cuts):
    """P(C intersect A_i) for every homogeneous set A_i between the interior ``cuts``.

    The first and last sets reach -inf/+inf so the sets tile the whole
    axis: the overlaps then sum exactly to P(C) even when weighted
    endpoints fall outside [-4, 4].
    """
    lower_bounds = np.concatenate([[-np.inf], cuts])
    upper_bounds = np.concatenate([cuts, [np.inf]])
    # Phi(min(beta, u)) is Phi(u) where u < beta, else Phi(beta): one ndtr per endpoint and
    # bound. The min of the two Phis would differ, as ndtr is not monotone in the last bit.
    hi = np.where(upper_bounds < beta[:, None], ndtr(upper_bounds), ndtr(beta)[:, None])
    lo = np.where(lower_bounds > alpha[:, None], ndtr(lower_bounds), ndtr(alpha)[:, None])
    hi -= lo
    return np.clip(hi, 0.0, None, out=hi)


def _bin_statistic(stat, interior_cuts):
    # A_i = (a_{i-1}, a_i]: first interval takes everything <= a_1, the
    # last everything above a_{I-1}.
    return np.searchsorted(interior_cuts, stat, side="left") + 1


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
    """
    if rule not in RULES:
        raise DataError(f"unknown prediction rule '{rule}'; expected one of {RULES}")
    if not data.all_ordinal:
        raise DataError("category prediction requires ordinal data")
    if data.columns != model.indicator_names:
        raise DataError("data columns do not match the model's indicator order")
    n = data.n_rows
    out = np.empty((n, model.n_latents), dtype=int)
    for j, latent in enumerate(model.latent_names):
        block = model.block_slice(j)
        w = standardizing_weights[block, j]
        alpha, beta = _subject_intervals(data, block, threshold_sets, w, latent)
        if rule == "mode":
            out[:, j] = np.argmax(_overlap_probabilities(alpha, beta, lt.cuts[j]), axis=1) + 1
        else:
            try:
                if rule == "median":
                    stat = truncated_normal_median(alpha, beta)
                else:
                    stat = truncated_normal_mean(alpha, beta)
            except ValueError as exc:
                raise DataError(f"latent '{latent}': {exc}") from None
            out[:, j] = _bin_statistic(stat, lt.cuts[j])
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
