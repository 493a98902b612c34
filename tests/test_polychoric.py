import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

from conftest import ecsi_dataset, random_recursive_model, ordinal_dataset
from oplspm import polychoric
from oplspm.distributions import _TIER_EDGES, _bvn_cdf_finite, _bvn_pdf_drho
from oplspm.errors import ConvergenceError, DataError
from oplspm.model import DataMatrix
from oplspm.polychoric import (
    ContingencyTable,
    CorrelationMatrix,
    ThresholdSet,
    cell_probabilities,
    crosstab,
    estimate_thresholds,
    nearest_pd_repair,
    pearson_matrix,
    polychoric_matrix,
    polychoric_pair,
)
from oplspm.simulate import SimulationConfig, generate_dataset
from sweep_grid_oracle import criterion_tables

RHO_BOUND = 0.999
# the acceptance suite's seed, for the datasets its criteria draw
ACCEPTANCE_SEED = 20260810
# the scan solver's constants, frozen with it
_SCAN = np.linspace(-RHO_BOUND, RHO_BOUND, 21)
_MAX_ITER = 100
_XATOL = 1e-8
_LOG_FLOOR = 1e-300


def make_ts(cuts, n_cat=None):
    cuts = np.atleast_1d(np.asarray(cuts, dtype=float))
    n = cuts.size + 1 if n_cat is None else n_cat
    return ThresholdSet(cuts=cuts, categories=tuple(range(1, n + 1)))


def margin_thresholds(counts):
    """The two-step thresholds of a table margin: ``_thresholds_from_counts`` of one column coded 1..I."""
    return polychoric._thresholds_from_counts(counts[None], [np.arange(1, counts.size + 1)])[0][0]


def count_tables(codes, thresholds, pairs, epsilon):
    """Pair tables of internal codes from the one-hot cross-product, as polychoric_matrix does.

    They are gathered by table shape and listed here in pair order.
    """
    sizes = [ts.category_count for ts in thresholds]
    offsets = np.cumsum([0, *sizes[:-1]])
    gram = polychoric._code_gram(np.asarray(codes), offsets, sum(sizes))
    index = np.full((len(sizes), max(sizes)), -1)  # padded with -1, as the count pass does
    for j, (start, size) in enumerate(zip(offsets, sizes)):
        index[j, :size] = start + np.arange(size)
    tables = [None] * len(pairs)
    for members, stacked in polychoric._pair_tables(gram, index, pairs, epsilon):
        assert len({table.shape for table in stacked}) == 1
        for p, table in zip(members, stacked):
            tables[p] = table
    return tables


def factor_codes(seed, k, n):
    """N x K ordinal codes of one common factor, each column with 2 to 7 categories."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1)) * rng.uniform(-0.9, 0.9, size=k) + 0.6 * rng.normal(size=(n, k))
    columns = []
    for j in range(k):
        cuts = np.quantile(z[:, j], np.sort(rng.uniform(0.1, 0.9, size=rng.integers(1, 7))))
        columns.append(np.searchsorted(cuts, z[:, j]) + 1)
    names = tuple(f"v{j}" for j in range(k))
    return DataMatrix(np.column_stack(columns).astype(float), names, ("ordinal",) * k)


def floored_loglik(table, ts_h, ts_k, rho):
    """The floored table loglikelihood at each rho, from ``cell_probabilities``."""
    probs = cell_probabilities(ts_h, ts_k, rho)
    return np.sum(table.smoothed() * np.log(np.maximum(probs, _LOG_FLOOR)), axis=(-2, -1))


def grid_search(table, ts_h, ts_k, n_grid=2001):
    """Independent dense-grid oracle for the pair maximizer."""
    grid = np.linspace(-RHO_BOUND, RHO_BOUND, n_grid)
    loglik = floored_loglik(table, ts_h, ts_k, grid)
    best = int(np.argmax(loglik))
    return grid[best], float(loglik[best])


def brent_oracle(table, ts_h, ts_k):
    """The pair solver before batching: 21-point scan, then bounded Brent."""

    def loglik(rho):
        return floored_loglik(table, ts_h, ts_k, rho)

    scan = np.linspace(-RHO_BOUND, RHO_BOUND, 21)
    best = int(np.argmax([loglik(r) for r in scan]))
    lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)]
    result = minimize_scalar(
        lambda r: -loglik(r), bounds=(lo, hi), method="bounded", options={"xatol": 1e-8}
    )
    candidates = [(float(result.x), -float(result.fun))]
    candidates += [(b, loglik(b)) for b in (-RHO_BOUND, RHO_BOUND) if b in (lo, hi)]
    return max(candidates, key=lambda c: c[1])[0]


def scan_oracle(weights, cuts_h, cuts_k):
    """The pair solver before the cold start, frozen: ``_solve_pairs`` as it was.

    Two-step ML correlation of many pair tables at once.

    ``weights[p]`` is pair p's smoothed count table and ``cuts_h[p]``,
    ``cuts_k[p]`` its interior thresholds. Every pair is padded to one
    corner grid: ``weights`` is stacked at the largest table shape with
    zero counts in the padded cells, and padded limits are +inf, so they
    add exactly 0 to the loglikelihood and its derivatives, and a pair's
    result does not depend on which pairs share its batch.

    A 21-point scan over [-0.999, 0.999] brackets each pair's maximum
    between the neighbours of its best scan point. Newton steps on the
    analytic score (dPhi2/drho = phi2) then refine inside that bracket,
    falling back to bisection on the sign of the score whenever a step
    leaves the bracket or the curvature is not negative; only pairs still
    moving are evaluated again. A bound is kept when its loglikelihood
    beats the refined point, so concordant tables return exactly +/-0.999.

    Returns ``(rho, loglik, converged)`` arrays with one entry per pair.
    """
    n, rows, cols = weights.shape
    lim_h = np.full((n, rows + 1), np.inf)
    lim_k = np.full((n, cols + 1), np.inf)
    lim_h[:, 0] = lim_k[:, 0] = -np.inf
    for p, (ch, ck) in enumerate(zip(cuts_h, cuts_k)):
        lim_h[p, 1 : 1 + ch.size] = ch
        lim_k[p, 1 : 1 + ck.size] = ck

    # CDF corners on an infinite limit are marginals fixed by the
    # thresholds; only the finite interior corners depend on rho.
    grid_h, grid_k = np.broadcast_arrays(lim_h[:, :, None], lim_k[:, None, :])
    finite = np.isfinite(grid_h) & np.isfinite(grid_k)
    fixed = np.where(np.isposinf(grid_h), ndtr(grid_k), np.where(np.isposinf(grid_k), ndtr(grid_h), 0.0))
    corner_h, corner_k = grid_h[finite], grid_k[finite]
    owner = np.nonzero(finite)[0]

    def evaluate(active, rho, derivatives):
        # Loglikelihood (and score, curvature) of the active pairs at rho.
        sel = active[owner]
        h, k = corner_h[sel], corner_k[sel]
        r = rho if np.ndim(rho) == 0 else rho[owner[sel]]
        mask = finite[active]
        cdf = fixed[active]
        cdf[mask] = _bvn_cdf_finite(h, k, r)
        probs = np.diff(np.diff(cdf, axis=1), axis=2)
        w = weights[active]
        loglik = np.sum(w * np.log(np.maximum(probs, _LOG_FLOOR)), axis=(1, 2))
        if not derivatives:
            return loglik
        d1 = np.zeros(cdf.shape)
        d2 = np.zeros(cdf.shape)
        d1[mask], d2[mask] = _bvn_pdf_drho(h, k, r)
        dp = np.diff(np.diff(d1, axis=1), axis=2)
        d2p = np.diff(np.diff(d2, axis=1), axis=2)
        # floored cells are flat in rho, so they drop out of the derivatives
        live = probs > _LOG_FLOOR
        w = np.where(live, w, 0.0)
        probs = np.where(live, probs, 1.0)
        ratio = dp / probs
        score = np.sum(w * ratio, axis=(1, 2))
        curvature = np.sum(w * (d2p / probs - ratio * ratio), axis=(1, 2))
        return loglik, score, curvature

    everyone = np.ones(n, dtype=bool)
    scan_ll = np.empty((n, _SCAN.size))
    for i, r in enumerate(_SCAN):
        scan_ll[:, i] = evaluate(everyone, r, derivatives=False)
    best = np.argmax(scan_ll, axis=1)
    lo = _SCAN[np.maximum(best - 1, 0)]
    hi = _SCAN[np.minimum(best + 1, _SCAN.size - 1)]
    at_bound = [(0, lo == -RHO_BOUND), (_SCAN.size - 1, hi == RHO_BOUND)]

    rho = _SCAN[best]
    loglik = scan_ll[np.arange(n), best]
    active = everyone.copy()
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ll, score, curvature = evaluate(active, rho, derivatives=True)
        x = rho[idx]
        loglik[idx] = ll
        # the maximum lies uphill of x: shrink the bracket to that side
        up = score > 0.0
        a = np.where(up, x, lo[idx])
        b = np.where(up, hi[idx], x)
        lo[idx], hi[idx] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - score / curvature
        ok = (curvature < 0.0) & (newton >= a) & (newton <= b)
        step_to = np.where(ok, newton, 0.5 * (a + b))
        moving = np.abs(step_to - x) >= _XATOL
        rho[idx[moving]] = step_to[moving]
        active[idx[~moving]] = False

    for i, candidate in at_bound:
        better = candidate & (scan_ll[:, i] > loglik)
        rho = np.where(better, _SCAN[i], rho)
        loglik = np.where(better, scan_ll[:, i], loglik)
    return rho, loglik, ~active


def oracle_gap(monkeypatch, estimate):
    """Largest |change| in ``estimate()`` when the frozen scan solver takes the pairs."""
    current = np.asarray(estimate())
    with monkeypatch.context() as patch:
        patch.setattr(polychoric, "_solve_pairs", scan_oracle)
        frozen = np.asarray(estimate())
    return float(np.abs(current - frozen).max())


def sparse_table(seed, epsilon):
    """A table with many empty cells, every row and column drawn, and its two-step thresholds."""
    rng = np.random.default_rng(seed)
    ih, ik = rng.integers(2, 10, 2)
    counts = rng.integers(1, 30, size=(ih, ik)) * (rng.random((ih, ik)) < rng.uniform(0.05, 0.6))
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, rng.integers(ik)] = rng.integers(1, 30)
    for j in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[rng.integers(ih), j] = rng.integers(1, 30)
    ts_h = margin_thresholds(counts.sum(axis=1))
    ts_k = margin_thresholds(counts.sum(axis=0))
    return ContingencyTable(counts.astype(float), epsilon=epsilon), ts_h, ts_k


def staircase(rng, shape):
    """Counts on a monotone staircase through a table of ``shape``: a concordant table."""
    ih, ik = shape
    steps = max(ih, ik)
    counts = np.zeros(shape)
    counts[np.arange(steps) * ih // steps, np.arange(steps) * ik // steps] = rng.integers(1, 30, size=steps)
    return counts


def screen_table(seed, kind):
    """A pair table of one kind and its two-step thresholds.

    "sparse" and "smoothed" are ``sparse_table`` at eps 0 and 0.5; "concordant"
    and "anti" are a staircase and its column-reversed mirror at eps 0.
    """
    if kind in ("sparse", "smoothed"):
        return sparse_table(seed, 0.0 if kind == "sparse" else 0.5)
    rng = np.random.default_rng(seed)
    counts = staircase(rng, tuple(rng.integers(2, 8, 2)))
    if kind == "anti":
        counts = counts[:, ::-1].copy()
    ih, ik = counts.shape
    ts_h = margin_thresholds(counts.sum(axis=1))
    ts_k = margin_thresholds(counts.sum(axis=0))
    return ContingencyTable(counts, epsilon=0.0), ts_h, ts_k


def pair_tables(data, thresholds, epsilon):
    """{(h, k): (table, thresholds_h, thresholds_k)} for every column pair."""
    codes = [ts.map_codes(data.codes(j)) for j, ts in enumerate(thresholds)]
    out = {}
    for h, k in itertools.combinations(range(data.n_cols), 2):
        ts_h, ts_k = thresholds[h], thresholds[k]
        counts = crosstab(codes[h], codes[k], ts_h.category_count, ts_k.category_count)
        out[h, k] = (ContingencyTable(counts, epsilon=epsilon), ts_h, ts_k)
    return out


class TestThresholds:
    def test_even_binary_split(self):
        ts = estimate_thresholds(np.repeat([1, 2], 50))
        assert ts.cuts == pytest.approx([0.0], abs=1e-12)

    def test_binary_841_159(self):
        ts = estimate_thresholds(np.repeat([1, 2], [841, 159]))
        assert ts.cuts[0] == pytest.approx(ndtri(0.841), abs=1e-12)
        assert ts.cuts[0] == pytest.approx(0.9986, abs=5e-4)

    def test_three_rare_categories(self):
        ts = estimate_thresholds(np.repeat([1, 2, 3], [1, 1, 998]))
        assert ts.cuts[0] == pytest.approx(ndtri(0.001), abs=1e-12)
        assert ts.cuts[0] == pytest.approx(-3.0902, abs=5e-4)
        assert ts.cuts[1] == pytest.approx(ndtri(0.002), abs=1e-12)

    def test_clipping_at_minus_four(self):
        # cumulative frequency 1e-6 -> quantile -4.75 -> clipped
        ts = estimate_thresholds(np.repeat([1, 2], [1, 999_999]))
        assert ts.cuts[0] == -4.0
        assert ts.padded()[0] == -4.0 and ts.padded()[-1] == 4.0

    def test_clipping_tie_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            estimate_thresholds(np.repeat([1, 2, 3], [1, 1, 999_998]))

    def test_clipping_tie_names_column_and_codes(self, rng):
        # 1e5 rows, two single-respondent top categories: the cuts above
        # codes 2 and 3 both clip to +4
        column = np.repeat([1, 2, 3, 4], [50_000, 49_998, 1, 1])
        other = rng.integers(1, 4, size=column.size)
        data = DataMatrix(np.column_stack([column, other]), ("a", "b"), ("ordinal", "ordinal"))
        with pytest.raises(DataError) as exc:
            polychoric_matrix(data)
        assert str(exc.value) == (
            "column 'a': thresholds not strictly increasing after clipping at +/-4: "
            "the cuts between codes 2|3 and 3|4 both clip to +4"
        )

    @pytest.mark.parametrize(
        "cuts, categories, message",
        [
            ([1.0, 0.0], (1, 2, 3), "strictly increasing"),  # cells of negative probability
            ([0.0, 0.0], (1, 2, 3), "strictly increasing"),
            ([0.0, np.nan], (1, 2, 3), "finite"),  # a NaN loglikelihood
            ([0.0, np.inf], (1, 2, 3), "finite"),
            ([0.0], (1, 2, 3), "3 categories need 2 cuts, got 1"),  # a numpy broadcast error
            ([-1.0, 0.0, 1.0], (1, 2, 3), "3 categories need 2 cuts, got 3"),
            ([], (1,), "at least two categories"),
            ([[-0.5, 0.5]], (1, 2, 3), "1-D"),
            ([0.0], (1, 1), "strictly increasing integer codes >= 1"),  # map_codes gave [2, 2]
            ([0.0], (2, 1), "strictly increasing integer codes >= 1"),  # an untyped IndexError
            ([0.0, 1.0], (1, 3, 2), "strictly increasing integer codes >= 1"),
            ([0.0], (0, 1), "strictly increasing integer codes >= 1"),
            ([0.0], (1.0, 2.0), "strictly increasing integer codes >= 1"),
        ],
    )
    def test_threshold_set_rejects_invalid_cuts(self, cuts, categories, message):
        with pytest.raises(DataError, match=message):
            ThresholdSet(cuts=np.array(cuts), categories=categories)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_threshold_set_rejects_a_non_finite_cut_anywhere(self, position, bad):
        cuts = np.array([-1.0, 0.0, 1.0])
        cuts[position] = bad
        with pytest.raises(DataError, match="finite and strictly increasing"):
            ThresholdSet(cuts=cuts, categories=(1, 2, 3, 4))

    def test_single_category_error(self):
        with pytest.raises(DataError, match="single observed category"):
            estimate_thresholds(np.ones(10, dtype=int))

    def test_empty_error(self):
        with pytest.raises(DataError, match="empty"):
            estimate_thresholds(np.array([], dtype=int))

    def test_unused_categories_collapse(self):
        ts = estimate_thresholds(np.array([1, 3, 3, 5, 5, 5]))
        assert ts.categories == (1, 3, 5)
        assert ts.category_count == 3
        assert np.array_equal(ts.map_codes(np.array([1, 3, 5])), [1, 2, 3])
        with pytest.raises(DataError, match="not seen"):
            ts.map_codes(np.array([2]))


class TestCellProbabilities:
    def test_cells_sum_to_one(self, rng):
        for _ in range(25):
            ih, ik = rng.integers(2, 10, 2)
            ts_h = make_ts(np.sort(rng.normal(size=ih - 1)))
            ts_k = make_ts(np.sort(rng.normal(size=ik - 1)))
            rho = rng.uniform(-0.998, 0.998)
            probs = cell_probabilities(ts_h, ts_k, rho)
            assert probs.shape == (ih, ik)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= -1e-15)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_rho_array_matches_scalar_calls(self, rng, shape):
        ts_h, ts_k = make_ts([-1.2, 0.1, 0.9]), make_ts([-0.4, 1.5])
        # every quadrature tier and the near-singular form, including the bounds
        rho = rng.choice([-0.999, -0.95, -0.8, -0.5, -0.1, 0.0, 0.2, 0.6, 0.93, 0.999], size=shape)
        probs = cell_probabilities(ts_h, ts_k, rho)
        assert probs.shape == shape + (4, 3)
        stacked = np.array([cell_probabilities(ts_h, ts_k, float(r)) for r in rho.ravel()])
        assert np.array_equal(probs, stacked.reshape(probs.shape))
        assert np.allclose(probs.sum(axis=(-2, -1)), 1.0, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0, np.nan])
    def test_rho_array_rejects_any_inadmissible_rho(self, bad):
        ts = make_ts([-0.5, 0.5])
        with pytest.raises(ValueError, match="strictly inside"):
            cell_probabilities(ts, ts, bad)
        with pytest.raises(ValueError, match="strictly inside"):
            cell_probabilities(ts, ts, np.array([[0.1, 0.2], [bad, 0.3]]))


class TestPolychoricPair:
    def test_independent_table(self):
        ts = make_ts([0.0])
        fit = polychoric_pair(ContingencyTable(np.full((2, 2), 25.0)), ts, ts)
        assert abs(fit.rho) < 1e-6

    def test_concordant_table_hits_clip(self):
        ts = make_ts([0.0])
        fit = polychoric_pair(ContingencyTable(np.diag([50.0, 50.0])), ts, ts)
        assert fit.rho == RHO_BOUND

    def test_two_step_leaves_thresholds_alone(self):
        col = np.repeat([1, 2, 3], [30, 40, 30])
        ts = estimate_thresholds(col)
        before = ts.cuts.copy()
        table = ContingencyTable(crosstab(ts.map_codes(col), ts.map_codes(col[::-1]), 3, 3))
        polychoric_pair(table, ts, ts)
        assert np.array_equal(ts.cuts, before)

    def test_simulation_recovery(self):
        rng = np.random.default_rng(99)
        z = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=1_000_000)
        x = (z[:, 0] > 0).astype(int) + 1
        y = (z[:, 1] > 0).astype(int) + 1
        ts_x, ts_y = estimate_thresholds(x), estimate_thresholds(y)
        table = ContingencyTable(crosstab(ts_x.map_codes(x), ts_y.map_codes(y), 2, 2))
        fit = polychoric_pair(table, ts_x, ts_y)
        assert fit.rho == pytest.approx(0.6, abs=0.01)

    def test_grid_oracle_agreement(self, rng):
        for _ in range(12):
            ih, ik = rng.integers(2, 6, 2)
            ts_h = make_ts(np.sort(rng.normal(size=ih - 1)))
            ts_k = make_ts(np.sort(rng.normal(size=ik - 1)))
            counts = rng.integers(0, 40, size=(ih, ik)).astype(float)
            counts[0, 0] += 1
            counts[-1, -1] += 1
            table = ContingencyTable(counts)
            fit = polychoric_pair(table, ts_h, ts_k)
            rho_grid, ll_grid = grid_search(table, ts_h, ts_k, n_grid=801)
            assert abs(fit.rho - rho_grid) < 2.5e-3  # one 801-grid step
            assert fit.loglik >= ll_grid - 1e-6

    def test_two_by_two_sign_matches_determinant(self, rng):
        # the sign property is a two-step statement: thresholds must come
        # from the table's own margins
        for _ in range(20):
            counts = rng.integers(1, 60, size=(2, 2)).astype(float)
            det = counts[0, 0] * counts[1, 1] - counts[0, 1] * counts[1, 0]
            if det == 0:
                continue
            total = counts.sum()
            ts_h = make_ts([ndtri(counts.sum(axis=1)[0] / total)])
            ts_k = make_ts([ndtri(counts.sum(axis=0)[0] / total)])
            fit = polychoric_pair(ContingencyTable(counts), ts_h, ts_k)
            assert np.sign(fit.rho) == np.sign(det)

    def test_label_reversal_antisymmetry(self, rng):
        for _ in range(8):
            ih, ik = rng.integers(2, 5, 2)
            cuts_h = np.sort(rng.normal(size=ih - 1))
            cuts_k = np.sort(rng.normal(size=ik - 1))
            counts = rng.integers(1, 50, size=(ih, ik)).astype(float)
            fit = polychoric_pair(ContingencyTable(counts), make_ts(cuts_h), make_ts(cuts_k))
            flipped = polychoric_pair(
                ContingencyTable(counts[:, ::-1].copy()),
                make_ts(cuts_h),
                make_ts(np.sort(-cuts_k)),
            )
            assert flipped.rho == pytest.approx(-fit.rho, abs=1e-6)

    def test_degenerate_table_error(self):
        ts2 = make_ts([0.0])
        with pytest.raises(DataError, match="degenerate"):
            polychoric_pair(ContingencyTable(np.array([[10.0, 20.0], [0.0, 0.0]])), ts2, ts2)

    def test_shape_mismatch_error(self):
        with pytest.raises(DataError, match="does not match"):
            polychoric_pair(ContingencyTable(np.full((2, 2), 5.0)), make_ts([0.0]), make_ts([-1.0, 1.0]))

    def test_smoothing_only_touches_zero_cells(self):
        table = ContingencyTable(np.array([[3.0, 0.0], [0.0, 7.0]]), epsilon=0.5)
        assert np.array_equal(table.smoothed(), [[3.0, 0.5], [0.5, 7.0]])
        bare = ContingencyTable(np.array([[3.0, 0.0], [0.0, 7.0]]), epsilon=0.0)
        assert np.array_equal(bare.smoothed(), bare.counts)


class TestPolychoricMatrix:
    def test_single_column(self):
        data = DataMatrix(np.array([[1.0], [2.0], [1.0], [2.0]]), ("a",), ("ordinal",))
        sigma, thresholds = polychoric_matrix(data)
        assert sigma.values.shape == (1, 1)
        assert sigma.values[0, 0] == 1.0
        assert len(thresholds) == 1

    def test_duplicated_column_at_clip(self, rng):
        col = rng.integers(1, 3, size=200).astype(float)
        data = DataMatrix(np.column_stack([col, col]), ("a", "b"), ("ordinal", "ordinal"))
        sigma, _ = polychoric_matrix(data)
        assert sigma.values[0, 1] == RHO_BOUND

    def test_three_variable_recovery(self):
        rng = np.random.default_rng(17)
        target = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
        z = rng.multivariate_normal(np.zeros(3), target, size=100_000)
        codes = np.searchsorted([-1.0, 0.0, 1.0], z) + 1
        data = DataMatrix(codes.astype(float), ("a", "b", "c"), ("ordinal",) * 3)
        sigma, _ = polychoric_matrix(data)
        assert np.max(np.abs(sigma.values - target)) < 0.02
        assert sigma.pd_status == "positive-definite"

    def test_pair_error_names_columns(self, rng):
        col = rng.integers(1, 4, size=50).astype(float)
        const = np.ones(50)
        data = DataMatrix(np.column_stack([col, const]), ("good", "flat"), ("ordinal",) * 2)
        with pytest.raises(DataError, match="flat"):
            polychoric_matrix(data)

    def test_interval_rejected(self):
        data = DataMatrix(np.random.default_rng(0).normal(size=(10, 2)), ("a", "b"), ("interval",) * 2)
        with pytest.raises(DataError, match="ordinal"):
            polychoric_matrix(data)

    def test_entries_match_pairs_solved_alone(self, rng):
        # columns with 2 to 10 categories, so the matrix solves pairs of many table shapes
        model = random_recursive_model(rng, n_latents=3, max_indicators=3)
        data = ordinal_dataset(model, rng, n=150, npoints=10)
        binary = (data.values[:, 0] > np.median(data.values[:, 0])).astype(float) + 1
        mixed = DataMatrix(
            np.column_stack([data.values, binary]), (*data.columns, "bin"), data.kinds + ("ordinal",)
        )
        # turn keys that tie exactly ("tie" is "a" with some rows permuted) or differ only in
        # the last cut ("b" moves the top cut of "a" down), each pair in both column orders
        keyed_rng = np.random.default_rng(2)
        z = keyed_rng.normal(size=(200, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
        a = np.searchsorted([-1.0, -0.3, 0.4, 1.1], z[:, 0]) + 1
        b = np.searchsorted([-1.0, -0.3, 0.4, 0.8], z[:, 0]) + 1
        tie = a.copy()
        tie[:60] = keyed_rng.permutation(a[:60])
        other = np.searchsorted([-0.5, 0.5], z[:, 1]) + 1
        keyed = np.column_stack([a, b, tie, other]).astype(float)
        names = ("a", "b", "tie", "other")
        datasets = [mixed] + [
            DataMatrix(keyed[:, order], tuple(names[j] for j in order), ("ordinal",) * 4)
            for order in ([0, 1, 2, 3], [3, 2, 1, 0])
        ]
        for data in datasets:
            sigma, thresholds = polychoric_matrix(data)
            for (h, k), (table, ts_h, ts_k) in pair_tables(data, thresholds, epsilon=0.5).items():
                alone = polychoric_pair(table, ts_h, ts_k)
                assert sigma.values[h, k] == alone.rho
        ts = dict(zip(data.columns, thresholds))
        assert np.array_equal(ts["a"].cuts, ts["tie"].cuts)
        assert np.array_equal(ts["a"].cuts[:-1], ts["b"].cuts[:-1]) and ts["a"].cuts[-1] > ts["b"].cuts[-1]
        # a wrong turn shows above: these pairs' solves change in the last bits when turned
        tables = pair_tables(data, thresholds, epsilon=0.5)
        for x, y in (("tie", "a"), ("b", "a")):
            table, ts_x, ts_y = tables[data.columns.index(x), data.columns.index(y)]
            weights = table.smoothed()
            as_given = polychoric._solve_pairs(weights[None], ts_x.cuts[None], ts_y.cuts[None])[0]
            turned = polychoric._solve_pairs(weights.T.copy()[None], ts_y.cuts[None], ts_x.cuts[None])[0]
            assert as_given != turned

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([0.0, 0.5]))
    @settings(max_examples=25, deadline=None)
    @example(3, 5, 0.5)
    def test_entry_depends_only_on_its_own_table(self, seed, k, epsilon):
        # Columns of 2 to 7 categories give pair tables of several shapes. Solved in one
        # stack padded to the largest shape, seed 3 at k 5 put 7 of its 10 entries off
        # their pairs' own solves, and dropping its widest column moved 2 other entries.
        data = factor_codes(seed, k, 120)
        sigma, thresholds = polychoric_matrix(data, epsilon=epsilon)
        for (h, j), (table, ts_h, ts_k) in pair_tables(data, thresholds, epsilon).items():
            assert polychoric_pair(table, ts_h, ts_k).rho == sigma.values[h, j]
        sizes = np.array([ts.category_count for ts in thresholds])
        keep = np.flatnonzero(sizes < sizes.max())
        if keep.size:
            narrow = DataMatrix(
                data.values[:, keep], tuple(data.columns[j] for j in keep), ("ordinal",) * keep.size
            )
            sigma_n, _ = polychoric_matrix(narrow, epsilon=epsilon)
            assert np.array_equal(sigma_n.values, sigma.values[np.ix_(keep, keep)])

    def test_pair_solve_does_not_depend_on_its_batch(self, rng):
        # 5-point columns give 5 x 5 tables with correlations in every BVN tier,
        # and a concordant 5 x 5 table is solved at its bound
        config = SimulationConfig(latent_law="beta", npoints=5, replications=1)
        data, _ = generate_dataset(config, np.random.default_rng([3, 0]))
        fits = list(pair_tables(data, polychoric_matrix(data)[1], epsilon=0.0).values())
        counts = staircase(rng, (5, 5))
        ts = margin_thresholds(counts.sum(axis=1))
        ts_k = margin_thresholds(counts.sum(axis=0))
        fits.append((ContingencyTable(counts, epsilon=0.0), ts, ts_k))
        assert {table.counts.shape for table, _, _ in fits} == {(5, 5)}

        def solve(batch):
            weights = np.stack([fits[p][0].smoothed() for p in batch])
            cuts_h, cuts_k = (np.stack([fits[p][i].cuts for p in batch]) for i in (1, 2))
            return polychoric._solve_pairs(weights, cuts_h, cuts_k)

        everyone = np.arange(len(fits))
        rho, loglik, _ = solve(everyone)
        assert np.any(np.abs(rho) > 0.925) and np.any(np.abs(rho) < 0.3) and rho[-1] == RHO_BOUND
        subset = rng.permutation(everyone)[: len(fits) // 3]
        for batch in [subset, [everyone[-1]], *([p] for p in everyone[::5])]:
            alone_rho, alone_loglik, _ = solve(batch)
            assert np.array_equal(alone_rho, rho[batch])
            assert np.array_equal(alone_loglik, loglik[batch])

    def test_non_convergence_names_pair(self, rng, monkeypatch):
        model = random_recursive_model(rng, n_latents=3, max_indicators=2)
        data = ordinal_dataset(model, rng, n=150, npoints=4)
        monkeypatch.setattr(polychoric, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=f"pair \\('{data.columns[0]}'") as info:
            polychoric_matrix(data)
        assert -RHO_BOUND <= info.value.best <= RHO_BOUND


class TestCountPass:
    """Pair tables from one one-hot cross-product instead of per-pair crosstabs."""

    @pytest.mark.parametrize("chunk_bytes", [1 << 23, 64])
    def test_gram_tables_equal_crosstab(self, rng, monkeypatch, chunk_bytes):
        # 64 bytes holds a few one-hot rows, so many chunks are summed
        monkeypatch.setattr(polychoric, "_CHUNK_BYTES", chunk_bytes)
        n = 400
        original = np.column_stack([
            rng.choice([1, 2, 5, 9], size=n),  # unused codes 3, 4, 6-8 collapse
            rng.integers(1, 3, size=n),
            rng.choice([2, 3, 4, 7, 8, 11], size=n),
            rng.integers(1, 8, size=n),
        ])
        thresholds = [estimate_thresholds(col) for col in original.T]
        codes = np.column_stack([ts.map_codes(col) for ts, col in zip(thresholds, original.T)])
        data = DataMatrix(original.astype(float), ("a", "b", "c", "d"), ("ordinal",) * 4)
        categories, compact = polychoric._ordinal_codes(data)
        assert np.array_equal(compact, codes)
        assert [tuple(c) for c in categories] == [ts.categories for ts in thresholds]
        pairs = np.array(list(itertools.combinations(range(codes.shape[1]), 2)))
        tables = count_tables(codes, thresholds, pairs, epsilon=0.0)
        for p, (h, k) in enumerate(pairs):
            i_h, i_k = thresholds[h].category_count, thresholds[k].category_count
            expected = crosstab(codes[:, h], codes[:, k], i_h, i_k)
            assert np.array_equal(tables[p], expected)

    def test_smoothing_touches_only_empty_table_cells(self):
        codes = np.array([[1, 1, 2], [2, 2, 2], [1, 1, 1], [3, 2, 2]])
        thresholds = [make_ts([-0.5, 0.5]), make_ts([0.0]), make_ts([0.0])]
        pairs = np.array([[0, 1], [1, 2]])
        tables = count_tables(codes, thresholds, pairs, epsilon=0.5)
        assert np.array_equal(tables[0], [[2.0, 0.5], [0.5, 1.0], [0.5, 1.0]])
        assert np.array_equal(tables[1], [[1.0, 1.0], [0.5, 2.0]])

    def test_negative_epsilon_names_pair(self, rng):
        data = DataMatrix(
            rng.integers(1, 4, size=(30, 3)).astype(float), ("a", "b", "c"), ("ordinal",) * 3
        )
        with pytest.raises(DataError, match="pair \\('a', 'b'\\): smoothing epsilon"):
            polychoric_matrix(data, epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf"), -float("inf")])
    def test_epsilon_must_be_finite_and_nonnegative(self, rng, epsilon):
        data = DataMatrix(
            rng.integers(1, 4, size=(30, 3)).astype(float), ("a", "b", "c"), ("ordinal",) * 3
        )
        with pytest.raises(DataError, match="smoothing epsilon must be finite and nonnegative"):
            polychoric_matrix(data, epsilon=epsilon)
        with pytest.raises(DataError, match="smoothing epsilon must be finite and nonnegative"):
            ContingencyTable(np.ones((2, 2)), epsilon=epsilon)

    def test_crosstab_counts(self):
        table = crosstab(np.array([1, 2, 2, 3]), np.array([2, 1, 1, 2]), 3, 2)
        assert np.array_equal(table, [[0, 1], [2, 0], [0, 1]])
        with pytest.raises(DataError, match="1..2"):
            crosstab(np.array([1, 2]), np.array([1, 3]), 2, 2)
        with pytest.raises(DataError, match="differ in length: 3 and 2"):  # a broadcast error
            crosstab(np.array([1, 2, 1]), np.array([1, 2]), 2, 2)

    @pytest.mark.parametrize(
        "counts", [[[np.inf, 1.0], [1.0, 5.0]], [[1e308, 1e308], [1e308, 1e308]]],
        ids=["inf", "sum"],
    )
    def test_contingency_table_rejects_a_non_finite_total(self, counts):
        # polychoric_pair gave rho 0.999 with loglik -inf, and rho 0 after overflow warnings
        with pytest.raises(DataError, match="counts and their total must be finite"):
            ContingencyTable(np.array(counts))

    @pytest.mark.parametrize("code", [2, 0, -3, 6, 4])
    def test_map_codes_rejects_unseen(self, code):
        ts = ThresholdSet(cuts=np.array([-0.5, 0.5]), categories=(1, 3, 5))
        with pytest.raises(DataError) as info:
            ts.map_codes(np.array([5, 1, code, 3, 9]))
        assert str(info.value) == f"category code {code} was not seen at threshold estimation"

    def test_map_codes_keeps_order(self, rng):
        ts = ThresholdSet(cuts=np.array([-1.0, 0.0, 1.0]), categories=(2, 4, 7, 8))
        original = rng.choice([2, 4, 7, 8], size=50)
        expected = [ts.categories.index(c) + 1 for c in original]
        assert ts.map_codes(original).tolist() == expected
        assert ts.map_codes(original.astype(float)).tolist() == expected
        # any shape, as before the codes went through the one compaction
        grid = ts.map_codes(original.reshape(5, 10))
        assert grid.tolist() == np.reshape(expected, (5, 10)).tolist()
        assert ts.map_codes(original[0]) == expected[0]


    @pytest.mark.parametrize("code", [2, 0, -3, 20_000_002, 4])
    def test_map_codes_far_above_the_row_count(self, code):
        # a table indexed by code would hold 20 million entries: the codes are searched
        ts = ThresholdSet(cuts=np.array([-0.5, 0.5]), categories=(1, 3, 20_000_001))
        assert ts.map_codes(np.array([20_000_001, 1, 3, 1])).tolist() == [3, 1, 2, 1]
        with pytest.raises(DataError) as info:
            ts.map_codes(np.array([20_000_001, 1, code, 3, 9]))
        assert str(info.value) == f"category code {code} was not seen at threshold estimation"

    def test_codes_far_above_the_row_count(self, rng):
        values = rng.integers(1, 5, size=(80, 3)).astype(float)
        # code 4 becomes 70 000 in two columns and 20 000 001 in the third
        relabelled = np.where(values == 4, [70_000, 70_000, 20_000_001], values)
        kinds = ("ordinal",) * 3
        sigma, thresholds = polychoric_matrix(DataMatrix(values, ("a", "b", "c"), kinds))
        sigma_r, thresholds_r = polychoric_matrix(DataMatrix(relabelled, ("a", "b", "c"), kinds))
        assert np.array_equal(sigma.values, sigma_r.values)
        assert [ts.categories for ts in thresholds_r] == [(1, 2, 3, 70_000)] * 2 + [
            (1, 2, 3, 20_000_001)
        ]
        for ts, ts_r in zip(thresholds, thresholds_r):
            assert np.array_equal(ts.cuts, ts_r.cuts)


class TestBrentOracleAgreement:
    """The batched solver against the pair-by-pair scan plus Brent it replaced."""

    @staticmethod
    def assert_agrees(data, epsilon):
        sigma, thresholds = polychoric_matrix(data, epsilon=epsilon)
        for (h, k), (table, ts_h, ts_k) in pair_tables(data, thresholds, epsilon).items():
            assert abs(sigma.values[h, k] - brent_oracle(table, ts_h, ts_k)) <= 1e-6, (h, k)
        return sigma

    @pytest.mark.parametrize("law, npoints", [("normal", 4), ("beta", 9)])
    def test_simulation_samples(self, law, npoints):
        config = SimulationConfig(latent_law=law, npoints=npoints, replications=1, seed=5)
        data, _ = generate_dataset(config, np.random.default_rng([config.seed, 0]))
        self.assert_agrees(data, epsilon=0.0)

    def test_sparse_survey_sample(self, rng):
        model = random_recursive_model(rng, n_latents=4, max_indicators=3)
        self.assert_agrees(ordinal_dataset(model, rng, n=250, npoints=10), epsilon=0.5)

    def test_concordant_pairs_at_bound(self, rng):
        col = rng.integers(1, 5, size=200).astype(float)
        other = rng.integers(1, 5, size=200).astype(float)
        data = DataMatrix(
            np.column_stack([col, col, 5.0 - col, other]), ("a", "b", "c", "d"), ("ordinal",) * 4
        )
        sigma = self.assert_agrees(data, epsilon=0.0)
        assert sigma.values[0, 1] == RHO_BOUND
        assert sigma.values[0, 2] == sigma.values[1, 2] == -RHO_BOUND


class TestScanOracleAgreement:
    """The cold-start solver against the frozen scan solver it replaced, on every gate set."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    @pytest.mark.parametrize("law", ["normal", "beta"])
    @pytest.mark.parametrize("npoints", [4, 5, 7, 9])
    def test_simulation_cells(self, monkeypatch, law, npoints, epsilon):
        config = SimulationConfig(latent_law=law, npoints=npoints, replications=1, seed=5)
        data, _ = generate_dataset(config, np.random.default_rng([config.seed, 0]))
        assert oracle_gap(monkeypatch, lambda: polychoric_matrix(data, epsilon)[0].values) <= 1e-6

    def test_acceptance_pair_tables(self, monkeypatch):
        # the tables of criteria 03 (random thresholds, eps 0.5) and 04 (1e5 draws)
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        fits = []
        for _ in range(50):
            ih, ik = rng.integers(2, 10, 2)
            ts_h = make_ts(np.sort(rng.normal(size=ih - 1)))
            ts_k = make_ts(np.sort(rng.normal(size=ik - 1)))
            counts = rng.integers(0, 25, size=(ih, ik)).astype(float)
            counts[0, 0] += 1
            counts[-1, -1] += 1
            fits.append((ContingencyTable(counts), ts_h, ts_k))
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        for rho in (0.3, 0.6, 0.9):
            z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=100_000)
            x, y = (np.searchsorted([-1.0, 0.0, 1.0], z[:, j]) + 1 for j in (0, 1))
            ts_x, ts_y = estimate_thresholds(x), estimate_thresholds(y)
            counts = crosstab(ts_x.map_codes(x), ts_y.map_codes(y), 4, 4)
            fits.append((ContingencyTable(counts), ts_x, ts_y))
        assert oracle_gap(monkeypatch, lambda: [polychoric_pair(*fit).rho for fit in fits]) <= 1e-6

    def test_acceptance_datasets(self, monkeypatch):
        # criterion 08's homogeneous and general data
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        cats = rng.integers(1, 6, size=300)
        cats[:5] = np.arange(1, 6)
        homogeneous = DataMatrix(np.tile(cats[:, None], (1, 5)).astype(float), tuple("abcde"), ("ordinal",) * 5)
        model = random_recursive_model(np.random.default_rng(ACCEPTANCE_SEED + 1), n_latents=4, max_indicators=3)
        general = ordinal_dataset(model, np.random.default_rng(ACCEPTANCE_SEED + 2), n=250, npoints=4)
        for data in (homogeneous, general):
            assert oracle_gap(monkeypatch, lambda: polychoric_matrix(data)[0].values) <= 1e-6

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5]))
    @settings(max_examples=100, deadline=None)
    @example(429, 0.0)  # a Newton step lands where an observed cell's probability is floored
    @example(34, 0.0)  # the maximum is a bound that plain Newton steps only creep toward
    def test_sparse_tables(self, seed, epsilon):
        table, ts_h, ts_k = sparse_table(seed, epsilon)
        fit = polychoric_pair(table, ts_h, ts_k)
        rho, loglik, converged = scan_oracle(table.smoothed()[None], [ts_h.cuts], [ts_k.cuts])
        if converged[0]:
            assert abs(fit.rho - rho[0]) <= 1e-6
        else:  # the scan solver can creep along a flat loglikelihood without settling
            assert fit.loglik >= loglik[0]

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 6), (7, 3)])
    def test_concordant_tables_at_bound(self, rng, shape):
        ih, ik = shape
        counts = staircase(rng, shape)
        for sign, table in ((1.0, counts), (-1.0, counts[:, ::-1].copy())):
            ts_h = margin_thresholds(table.sum(axis=1))
            ts_k = margin_thresholds(table.sum(axis=0))
            fit = polychoric_pair(ContingencyTable(table, epsilon=0.0), ts_h, ts_k)
            rho, _, _ = scan_oracle(table[None], [ts_h.cuts], [ts_k.cuts])
            assert fit.rho == rho[0] == sign * RHO_BOUND

    def test_bootstrap_replicate_with_undrawn_categories(self, monkeypatch, rng):
        data = factor_codes(3, 5, 60)
        values = data.values.copy()
        values[:2, 0] = values[:, 0].max() + 1.0  # a category of rows 0 and 1 only
        data = DataMatrix(values, data.columns, data.kinds)
        categories, codes = polychoric._ordinal_codes(data)
        counts = np.bincount(rng.integers(2, 60, size=60), minlength=60).astype(float)
        _, drawn = polychoric._count_polychoric(codes, categories, data.columns, 0.5, counts)
        assert drawn[0].category_count == categories[0].size - 1

        def replicate():
            return polychoric._count_polychoric(codes, categories, data.columns, 0.5, counts)[0]

        assert oracle_gap(monkeypatch, replicate) <= 1e-6


class TestFirstOrderStart:
    """Each pair's Newton solve starts at its first-order estimate, kept out of the near-singular tier."""

    @pytest.mark.parametrize(
        "seed, draw",
        [
            # with the +/-0.999 clip alone this 2 x 2 table starts at -0.9986, where phi2
            # underflows to 0 at every corner and the zero score reads as downhill: the
            # solve slid to the bound, 126 below the best loglikelihood
            (248, 35),
            # with the start guarded at |rho| 0.99 instead of 0.925, these failed the oracle
            (93, 33),
            (101, 38),
            (317, 12),
        ],
    )
    def test_criterion_tables_that_misled_a_less_guarded_start(self, seed, draw):
        table, ts_h, ts_k = list(criterion_tables(seed))[draw]
        assert (seed, draw) != (248, 35) or table.counts.shape == (2, 2)
        start = polychoric._first_order_start(table.smoothed()[None], ts_h.cuts[None], ts_k.cuts[None])
        assert abs(start[0]) < _TIER_EDGES[-1]
        fit = polychoric_pair(table, ts_h, ts_k)
        rho_grid, ll_grid = grid_search(table, ts_h, ts_k)
        assert abs(fit.rho - rho_grid) < 1e-3  # criterion 03's tolerances
        assert fit.loglik >= ll_grid - 1e-6

    def test_cuts_that_normal_probabilities_do_not_separate_start_at_zero(self):
        # Phi(3) == Phi(nextafter(3)): the third category has probability 0 and no count,
        # so its normal score, the score variance and the scores' correlation are not finite
        ts_h = ThresholdSet(np.array([-0.5, 3.0, np.nextafter(3.0, 4.0)]), (1, 2, 3, 4))
        ts_k = make_ts([-0.3, 0.6])
        counts = np.array([[20.0, 5.0, 2.0], [6.0, 15.0, 9.0], [0.0, 0.0, 0.0], [1.0, 3.0, 12.0]])
        table = ContingencyTable(counts, epsilon=0.0)
        assert ndtr(ts_h.cuts[1]) == ndtr(ts_h.cuts[2])
        start = polychoric._first_order_start(table.smoothed()[None], ts_h.cuts[None], ts_k.cuts[None])
        assert start.tolist() == [0.0]
        fit = polychoric_pair(table, ts_h, ts_k)
        rho_grid, ll_grid = grid_search(table, ts_h, ts_k)
        assert abs(fit.rho - rho_grid) < 1e-3
        assert fit.loglik >= ll_grid - 1e-6

    @pytest.mark.parametrize("law, npoints", [("normal", 4), ("beta", 9)])
    def test_evaluations_per_pair(self, monkeypatch, law, npoints):
        # loglikelihood evaluations per pair, bound checks included, over the 8 simulation
        # cells' 18 x 250 samples at eps 0 (seeds 1-5): 2.66-2.99 from the first-order
        # start, 3.50-4.37 from the correlation of the category indices it replaced
        rows, kernel = [], polychoric._cell_probabilities

        def record(cuts_h, cuts_k, rho, derivatives=False):
            rows.append(rho.shape[0])
            return kernel(cuts_h, cuts_k, rho, derivatives)

        monkeypatch.setattr(polychoric, "_cell_probabilities", record)
        config = SimulationConfig(latent_law=law, npoints=npoints, replications=1, seed=1)
        data, _ = generate_dataset(config, np.random.default_rng([config.seed, 0]))
        polychoric_matrix(data, epsilon=0.0)
        pairs = data.n_cols * (data.n_cols - 1) // 2
        assert (data.n_rows, pairs) == (250, 153)
        assert sum(rows) / pairs <= 3.2


class TestBoundScreen:
    """A bound the final bracket reaches is evaluated only where its closed-form ceiling might win."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(["sparse", "smoothed", "concordant", "anti"])),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ceiling_bounds_the_exact_loglikelihood(self, draws):
        fits = [screen_table(seed, kind) for seed, kind in draws]
        # the solver takes one table shape per call, as polychoric_matrix groups its pairs
        for shape in {table.counts.shape for table, _, _ in fits}:
            group = [fit for fit in fits if fit[0].counts.shape == shape]
            weights = np.stack([table.smoothed() for table, _, _ in group])
            cuts_h = np.stack([ts_h.cuts for _, ts_h, _ in group])
            cuts_k = np.stack([ts_k.cuts for _, _, ts_k in group])
            _, loglik, _ = polychoric._solve_pairs(weights, cuts_h, cuts_k)
            for bound in (-RHO_BOUND, RHO_BOUND):
                ceiling = polychoric._bound_ceiling(weights, cuts_h, cuts_k, bound)
                exact = np.array([floored_loglik(*fit, bound) for fit in group])
                assert np.all(ceiling >= exact)
                assert np.all(exact <= loglik)

    @staticmethod
    def record_bound_work(monkeypatch):
        """Record the correlations of every BVN call and the pairs screened at each bound."""
        calls, screened = [], []
        bvn, ceiling = polychoric._bvn_cdf_finite, polychoric._bound_ceiling

        def record_bvn(h, k, rho):
            calls.append((h.size, np.abs(rho)))
            return bvn(h, k, rho)

        def record_ceiling(weights, cuts_h, cuts_k, bound):
            screened.append((bound, weights.shape[0]))
            return ceiling(weights, cuts_h, cuts_k, bound)

        monkeypatch.setattr(polychoric, "_bvn_cdf_finite", record_bvn)
        monkeypatch.setattr(polychoric, "_bound_ceiling", record_ceiling)
        return calls, screened

    def test_survey_sample_evaluates_no_bound(self, monkeypatch):
        # 250 x 24 ten-point codes at eps 0.5, as a bootstrap of a survey fit solves
        data = ecsi_dataset(np.random.default_rng(ACCEPTANCE_SEED))
        calls, screened = self.record_bound_work(monkeypatch)
        polychoric_matrix(data, epsilon=0.5)
        assert dict(screened)[-RHO_BOUND] >= 200  # most of the 276 pairs reach -0.999
        assert min(size for size, _ in calls) > 0
        assert sum(np.any(r == RHO_BOUND) for _, r in calls) == 0

    def test_concordant_pair_is_evaluated_at_its_bound(self, monkeypatch, rng):
        col = rng.integers(1, 5, size=200).astype(float)
        other = rng.integers(1, 5, size=200).astype(float)
        data = DataMatrix(np.column_stack([col, 5.0 - col, other]), ("a", "b", "c"), ("ordinal",) * 3)
        calls, _ = self.record_bound_work(monkeypatch)
        sigma, _ = polychoric_matrix(data, epsilon=0.0)
        at_bound = [size for size, r in calls if np.all(r == RHO_BOUND)]
        assert len(at_bound) == 1 and at_bound[0] > 0
        assert sigma.values[0, 1] == -RHO_BOUND


class TestSymmetries:
    """Relabelling the data moves the count-pass estimates the way the model says."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_column_permutation_permutes_estimates(self, seed, k, draw):
        data = factor_codes(seed, k, 120)
        perm = draw.draw(st.permutations(range(k)))
        sigma, thresholds = polychoric_matrix(data)
        moved = DataMatrix(
            data.values[:, perm], tuple(data.columns[p] for p in perm), data.kinds
        )
        sigma_p, thresholds_p = polychoric_matrix(moved)
        for ts, p in zip(thresholds_p, perm):
            assert np.array_equal(ts.cuts, thresholds[p].cuts)
            assert ts.categories == thresholds[p].categories
        # a permutation may transpose a pair's table, which the solve turns back
        # unless the two columns' cuts are equal
        assert np.abs(sigma_p.values - sigma.values[np.ix_(perm, perm)]).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_reversing_a_column_negates_its_correlations(self, seed, k, draw):
        data = factor_codes(seed, k, 120)
        j = draw.draw(st.integers(0, k - 1))
        values = data.values.copy()
        values[:, j] = values[:, j].max() + 1.0 - values[:, j]
        sigma, _ = polychoric_matrix(data)
        flipped, _ = polychoric_matrix(DataMatrix(values, data.columns, data.kinds))
        sign = np.ones(k)
        sign[j] = -1.0
        assert np.abs(flipped.values - sigma.values * np.outer(sign, sign)).max() <= 1e-10

    @staticmethod
    def transposed_fits(seed, order="C"):
        """``polychoric_pair`` on a random table and on its transpose, both in the given memory order."""
        rng = np.random.default_rng(seed)
        ih, ik = rng.integers(2, 7, 2)
        ts_h = make_ts(np.sort(rng.normal(size=ih - 1)))
        ts_k = make_ts(np.sort(rng.normal(size=ik - 1)))
        counts = rng.integers(0, 30, size=(ih, ik)).astype(float)
        counts[0, 0] += 1
        counts[-1, -1] += 1
        fit = polychoric_pair(ContingencyTable(np.array(counts, order=order)), ts_h, ts_k)
        transposed = polychoric_pair(ContingencyTable(np.array(counts.T, order=order)), ts_k, ts_h)
        return fit, transposed

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transposed_table_same_rho(self, seed):
        fit, transposed = self.transposed_fits(seed)
        assert transposed.rho == pytest.approx(fit.rho, abs=1e-12)

    @pytest.mark.parametrize("seed", [981455, 2161])
    def test_transposed_table_same_rho_regressions(self, seed):
        # a solve in the orientation it was given put these 1.02e-12 and 2.7e-12 apart
        fit, transposed = self.transposed_fits(seed)
        assert transposed.rho == fit.rho

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @example(981455)
    @example(2161)
    def test_memory_order_does_not_move_rho(self, seed):
        fits = [*self.transposed_fits(seed), *self.transposed_fits(seed, order="F")]
        assert len({fit.rho for fit in fits}) == 1


class TestPearsonMatrix:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=(50, 4))
        sigma = pearson_matrix(x)
        assert np.allclose(sigma.values, np.corrcoef(x, rowvar=False), atol=1e-14)
        assert sigma.kind == "pearson"

    def test_zero_variance_column(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DataError, match="zero-variance"):
            pearson_matrix(x)

    def test_overflowing_column_is_named(self):
        # squares above about 1e308 overflow; the column is named, with no RuntimeWarning
        x = np.column_stack([np.arange(4.0), [3.0, 1.0, 2.0, 0.0], [1e300, 2.0, 3.0, 1.0]])
        with pytest.raises(DataError) as info:
            pearson_matrix(x)
        assert str(info.value) == (
            "column '2' holds values too large or too small for Pearson correlations: "
            "their squares overflow or underflow"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_build_rejects_non_finite_entries(self, bad):
        # NaN fails no symmetry or diagonal comparison, so it is tested on its own
        values = np.array([[1.0, bad, 0.2], [bad, 1.0, 0.1], [0.2, 0.1, 1.0]])
        with pytest.raises(DataError, match="correlation matrix has non-finite entries"):
            CorrelationMatrix.build(values, "pearson")


class TestNearestPdRepair:
    def test_off_diagonal_pulled_inside(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        repaired = nearest_pd_repair(bad, "pearson")
        assert abs(repaired.values[0, 1]) <= 1.0
        assert repaired.pd_status == "repaired"
        assert repaired.min_eigenvalue() >= 1e-8 - 1e-12

    def test_indefinite_spectrum(self, rng):
        # known spectrum (2.1, 0.95, -0.05) in a random orthogonal basis
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = (q * np.array([2.1, 0.95, -0.05])) @ q.T
        a = 0.5 * (a + a.T)
        d = np.sqrt(np.diag(a))
        a = a / np.outer(d, d)  # unit diagonal, still indefinite in general
        repaired = nearest_pd_repair(a, "pearson")
        assert repaired.min_eigenvalue() >= 1e-8 - 1e-12
        assert np.linalg.norm(repaired.values - a) < 0.1
        assert np.allclose(np.diag(repaired.values), 1.0)

    def test_build_with_repair_flag(self):
        bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.9], [-0.99, 0.9, 1.0]])
        failed = CorrelationMatrix.build(bad, "polychoric")
        assert failed.pd_status == "failed"
        fixed = CorrelationMatrix.build(bad, "polychoric", repair=True)
        assert fixed.pd_status == "repaired"
        assert fixed.min_eigenvalue() >= 1e-8 - 1e-12


def spectrum_stack(rng, k, count, smallest):
    """``count`` matrices Q diag(lambda) Q^T of random orthogonal Q whose smallest eigenvalue is
    ``smallest``; the other K - 1 lie in [0.1, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(count, k, k)))
    lam = rng.uniform(0.1, 2.0, size=(count, k))
    lam[np.arange(count), rng.integers(0, k, size=count)] = smallest
    m = (q * lam[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (m + m.swapaxes(-1, -2))


class TestPositiveDefinite:
    SMALLEST = (1e-10 * (1 - 1e-3), 1e-10 * (1 + 1e-3), 0.0, -1e-3, 1e-8)

    @pytest.mark.parametrize("k", [4, 18, 24])
    def test_agrees_with_the_eigenvalue_rule(self, k):
        rng = np.random.default_rng(k)
        stack = np.concatenate([spectrum_stack(rng, k, 200, s) for s in self.SMALLEST])
        rule = np.linalg.eigvalsh(stack).min(axis=-1) > 1e-10
        alone = np.array([polychoric._positive_definite(m) for m in stack])
        assert np.array_equal(alone, rule)
        assert np.array_equal(polychoric._positive_definite(stack), rule)
        # each smallest eigenvalue is 1e-3 of the tolerance or more from it, so the
        # rule itself reads the design: pass above 1e-10, fail at or below
        assert np.array_equal(rule, np.repeat(np.array(self.SMALLEST) > 1e-10, 200))

    def test_each_member_of_a_mixed_stack_as_alone(self, rng):
        k = 6
        members = [spectrum_stack(rng, k, 1, s)[0] for s in (0.3, -0.2, 5e-11, 0.05, 1e-9, -1.0)]
        stack = np.array([*members, 1.5 * np.eye(k) - 0.5, np.eye(k)])
        mixed = polychoric._positive_definite(stack)
        assert mixed.tolist() == [True, False, False, True, True, False, False, True]
        for m, result in zip(stack, mixed):
            assert polychoric._positive_definite(m) == result
            assert polychoric._positive_definite(m[None]).tolist() == [result]
        grid = polychoric._positive_definite(stack.reshape(2, 4, k, k))
        assert np.array_equal(grid, mixed.reshape(2, 4))

    def test_factors_each_member_only_after_a_stacked_failure(self, rng, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(polychoric.np.linalg, "cholesky", counting)
        good = spectrum_stack(rng, 5, 3, 0.2)
        bad = spectrum_stack(rng, 5, 1, -0.2)
        assert polychoric._positive_definite(good).tolist() == [True] * 3
        assert calls == [(3, 5, 5)]
        calls.clear()
        assert polychoric._positive_definite(bad).tolist() == [False]
        assert calls == [(1, 5, 5)]  # a stack of one is decided by its one failure
        calls.clear()
        assert polychoric._positive_definite(np.concatenate([good, bad])).tolist() == [
            True, True, True, False
        ]
        assert calls == [(4, 5, 5)] + [(5, 5)] * 4

    def test_two_dimensional_input_gives_one_boolean(self):
        for a, expected in ((np.eye(3), True), (np.array([[1.0, 1.2], [1.2, 1.0]]), False)):
            result = polychoric._positive_definite(a)
            assert isinstance(result, np.bool_)
            assert result == expected
        assert polychoric._positive_definite(np.empty((0, 4, 4))).shape == (0,)
