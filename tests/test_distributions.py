import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oplspm import distributions
from oplspm.distributions import (
    bvn_cdf,
    sample_standardized_beta,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    truncated_normal_mean,
    truncated_normal_median,
)
from oplspm.distributions import (
    _BRANCHES,
    _TIER_EDGES,
    _bvn_cdf_finite,
    _bvnu_arcsine,
    _bvnu_near_singular,
)

mp.mp.dps = 40


def mp_cdf(x):
    return float(mp.ncdf(x))


def mp_quantile(p):
    # root-find on the high-precision cdf, independent of scipy
    return float(mp.findroot(lambda t: mp.ncdf(t) - mp.mpf(repr(p)), 0.0))


def mp_bvn(h, k, rho):
    # 1-D reduction of the bivariate cdf, integrated at high precision. The
    # integrand steps at x = k / rho, sharply when |rho| is near 1, so the
    # quadrature is split there and at 0.
    h, k, rho = (mp.mpf(repr(v)) for v in (h, k, rho))
    scale = mp.sqrt(1 - rho**2)
    f = lambda x: mp.npdf(x) * mp.ncdf((k - rho * x) / scale)
    steps = [mp.mpf(0)] + ([k / rho] if rho != 0 else [])
    points = [-mp.inf, *sorted(x for x in steps if x < h), h]
    return float(mp.quad(f, points))


def arcsine_oracle(h, k, r, nodes):
    """The arcsine form before the per-pair sines, frozen: ``_bvnu_arcsine`` as it was.

    1-D arrays with one correlation per element; the nodes are accumulated
    one at a time.
    """
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = 0.5 * np.arcsin(r)
    acc = np.zeros(h.shape)
    for x, w in nodes:
        sn = np.sin(asr * x)
        acc += w * np.exp((sn * hk - hs) / (1.0 - sn * sn))
    return acc * asr / (2.0 * math.pi) + ndtr(-h) * ndtr(-k)


def bvn_oracle(h, k, rho):
    """``_bvn_cdf_finite`` element by element: each element's own tier, the frozen
    arcsine form, or the near-singular form at one correlation per element."""
    h, k, rho = np.broadcast_arrays(h, k, rho)
    shape = h.shape
    h, k, rho = (np.ravel(v).astype(float) for v in (h, k, rho))
    tier = np.searchsorted(_TIER_EDGES, np.abs(rho), side="right")
    out = np.empty(h.shape)
    for t, (branch, nodes) in enumerate(_BRANCHES):
        m = tier == t
        if m.any():
            form = arcsine_oracle if branch is _bvnu_arcsine else _bvnu_near_singular
            out[m] = form(-h[m], -k[m], rho[m], nodes)
    return np.clip(out, 0.0, 1.0).reshape(shape)


# one correlation inside each tier, on each tier edge, and at the +/-0.999 bound
TIER_RHOS = [0.1, -0.29, 0.3, 0.5, -0.75, 0.8, 0.925, -0.93, 0.97, 0.999, -0.999]

# (h, k, rho) covering every quadrature tier (|rho| < 0.3, < 0.75, < 0.925)
# and both signs of the near-singular branch
ORACLE_POINTS = [
    (0.5, -0.3, 0.93),
    (1.5, 1.2, 0.99),
    (-2.0, 0.7, -0.97),
    (0.1, 0.2, 0.5),
    (-1.0, -1.0, -0.999),
    (3.0, -3.0, 0.95),
    (0.0, 2.0, 0.924),
    (2.2, 2.3, 0.999),
    (2.2, 2.3, -0.999),
    (-0.5, 1.7, -0.2),
]


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_limits(self):
        assert std_normal_cdf(np.inf) == 1.0
        assert std_normal_cdf(-np.inf) == 0.0

    def test_cdf_against_high_precision_oracle(self):
        xs = np.linspace(-8.0, 8.0, 81)
        for x in xs:
            assert abs(std_normal_cdf(x) - mp_cdf(x)) < 1e-12

    def test_cdf_value_at_one(self):
        # frozen from the mpmath oracle
        assert abs(std_normal_cdf(1.0) - 0.8413447460685429) < 1e-15

    def test_quantile_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_inverts_cdf_oracle(self):
        assert abs(std_normal_quantile(0.8413447460685429) - 1.0) < 1e-10
        assert abs(std_normal_quantile(0.975) - mp_quantile(0.975)) < 1e-10
        assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_domain_error(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    def test_cdf_quantile_identity(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-10

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_quantile_cdf_identity(self, x):
        # beyond |x| ~ 5 one ulp of p near 0/1 already moves x by > 1e-10,
        # so the roundtrip is representation-limited, not algorithm-limited
        assert abs(std_normal_quantile(std_normal_cdf(x)) - x) < 1e-10

    def test_pdf_positive_and_symmetric(self):
        xs = np.linspace(-10, 10, 41)
        assert np.all(std_normal_pdf(xs) > 0)
        assert np.allclose(std_normal_pdf(xs), std_normal_pdf(-xs))


class TestBvnCdf:
    def test_independence_at_medians(self):
        assert abs(bvn_cdf(0.0, 0.0, 0.0) - 0.25) < 1e-15

    def test_zero_limit_identity(self):
        for rho in np.arange(-0.95, 0.951, 0.05):
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert abs(bvn_cdf(0.0, 0.0, rho) - want) < 1e-9

    def test_marginalization_at_infinity(self):
        # +inf leaves the other limit's margin and any -inf gives 0, exactly,
        # whether the corner is alone or shares an array with finite ones.
        inf = np.inf
        corners = [
            (inf, 0.7, std_normal_cdf(0.7)),
            (-1.2, inf, std_normal_cdf(-1.2)),
            (inf, inf, 1.0),
            (-inf, 0.7, 0.0),
            (-1.2, -inf, 0.0),
            (-inf, -inf, 0.0),
            (-inf, inf, 0.0),
            (inf, -inf, 0.0),
        ]
        h, k, want = (np.array(c) for c in zip(*corners))
        for rho in (0.1, -0.5, 0.8, 0.95, -0.999):
            for hi, ki, wi in corners:
                assert bvn_cdf(hi, ki, rho) == wi
            out = bvn_cdf(np.append(h, -0.4), np.append(k, 1.1), rho)
            assert np.array_equal(out[:-1], want)
            assert out[-1] == bvn_cdf(-0.4, 1.1, rho)

    def test_nan_limit_gives_nan(self):
        # either limit NaN gives NaN, whatever the other limit, alone or among
        # finite and infinite corners, which keep their values bit for bit
        inf, nan = np.inf, np.nan
        others = [0.0, -1.3, inf, -inf, nan]
        h = np.array([nan] * 5 + others + [inf, -inf, 0.4, -inf, inf])
        k = np.array(others + [nan] * 5 + [0.2, 0.7, -inf, -inf, inf])
        for rho in (0.1, -0.5, 0.95):
            for hi, ki in zip(h[:10], k[:10]):
                assert np.isnan(bvn_cdf(hi, ki, rho))
            out = bvn_cdf(h, k, rho)
            assert np.all(np.isnan(out[:10]))
            assert np.array_equal(out[10:], [bvn_cdf(hi, ki, rho) for hi, ki in zip(h[10:], k[10:])])
        assert np.isnan(std_normal_cdf(nan))

    def test_tiers_keep_their_rules(self):
        assert np.array_equal(_TIER_EDGES, [0.3, 0.75, 0.925])
        assert [len(nodes) for _, nodes in _BRANCHES] == [6, 12, 20, 20]

    @pytest.mark.parametrize("tier", range(len(_BRANCHES)))
    def test_rule_integrates_polynomials_exactly(self, tier):
        # An n-point Gauss-Legendre rule on [0, 2] is exact for x^d, d <= 2n - 1,
        # up to rounding: within 1e-14 of the integrand's largest value, 2^d.
        nodes = _BRANCHES[tier][1]
        for d in range(2 * len(nodes)):
            got = math.fsum(w * x**d for x, w in nodes)
            assert abs(got - 2.0 ** (d + 1) / (d + 1)) <= 1e-14 * 2.0**d

    def test_against_mpmath_oracle(self):
        for h, k, rho in ORACLE_POINTS:
            assert abs(bvn_cdf(h, k, rho) - mp_bvn(h, k, rho)) < 1e-12

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-0.999, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_exchange_symmetry(self, h, k, rho):
        assert bvn_cdf(h, k, rho) == pytest.approx(bvn_cdf(k, h, rho), abs=1e-14)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-0.999, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_frechet_bounds(self, h, k, rho):
        p = bvn_cdf(h, k, rho)
        ph, pk = std_normal_cdf(h), std_normal_cdf(k)
        assert p >= max(0.0, ph + pk - 1.0) - 1e-12
        assert p <= min(ph, pk) + 1e-12

    def test_independence_factorization(self):
        grid = np.linspace(-3, 3, 13)
        for h in grid:
            for k in grid:
                want = std_normal_cdf(h) * std_normal_cdf(k)
                assert abs(bvn_cdf(h, k, 0.0) - want) < 1e-10

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.2])
    def test_domain_error(self, rho):
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, rho)

    def test_array_broadcasting(self):
        h = np.array([-1.0, 0.0, 1.0])
        out = bvn_cdf(h, 0.5, 0.3)
        assert out.shape == (3,)
        assert out[0] < out[1] < out[2]

    def test_per_element_rho_matches_scalar_calls(self):
        h, k, rhos = (np.array(c) for c in zip(*ORACLE_POINTS))
        batched = _bvn_cdf_finite(h, k, rhos)
        for i, (hi, ki, rho) in enumerate(ORACLE_POINTS):
            alone = _bvn_cdf_finite(h[i : i + 1], k[i : i + 1], rho)[0]
            assert abs(batched[i] - alone) <= 1e-15
            assert abs(batched[i] - mp_bvn(hi, ki, rho)) < 1e-12


class TestBvnKernel:
    """Sines once per correlation and node, bit for bit the frozen per-element form."""

    @pytest.mark.parametrize("rho", TIER_RHOS)
    @pytest.mark.parametrize("n", [2, 37])
    def test_scalar_rho(self, rho, n):
        rng = np.random.default_rng(n)
        h, k = rng.uniform(-4, 4, (2, n))
        assert np.array_equal(_bvn_cdf_finite(h, k, rho), bvn_oracle(h, k, rho))
        assert np.array_equal(_bvn_cdf_finite(h, k, np.float64(rho)), bvn_oracle(h, k, rho))

    def test_single_element_calls(self, rng):
        # one element is where a pairwise sum over the nodes would round differently
        for h, k, rho in zip(*rng.uniform(-4, 4, (2, 300)), rng.uniform(-0.999, 0.999, 300)):
            assert _bvn_cdf_finite(np.array([h]), np.array([k]), rho) == bvn_oracle(h, k, rho)

    def test_rho_per_element_mixing_tiers(self, rng):
        h, k = rng.uniform(-4, 4, (2, 500))
        rho = np.concatenate([TIER_RHOS, rng.uniform(-0.999, 0.999, 500 - len(TIER_RHOS))])
        assert np.array_equal(_bvn_cdf_finite(h, k, rho), bvn_oracle(h, k, rho))

    @pytest.mark.parametrize("broadcast", [False, True])
    def test_rho_per_row_mixing_tiers(self, rng, broadcast):
        # a pair's corners: its row limits against its column limits, as the pair solve has them
        rows = len(TIER_RHOS)
        h, k = rng.uniform(-4, 4, (rows, 6, 1)), rng.uniform(-4, 4, (rows, 1, 5))
        if not broadcast:
            h, k = np.broadcast_arrays(h, k)
        rho = np.array(TIER_RHOS)
        assert np.array_equal(_bvn_cdf_finite(h, k, rho), bvn_oracle(h, k, rho[:, None, None]))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6, 7])
    def test_inputs_either_side_of_a_chunk_boundary(self, rng, monkeypatch, rows):
        # blocks of three 4 x 5 rows at the 6-point rule, and of one row at 12 and 20 points
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", 8 * 6 * 20 * 3)
        h, k = rng.uniform(-4, 4, (rows, 4, 1)), rng.uniform(-4, 4, (rows, 1, 5))
        rho = rng.choice(TIER_RHOS, rows)
        assert np.array_equal(_bvn_cdf_finite(h, k, rho), bvn_oracle(h, k, rho[:, None, None]))
        for r in (0.1, 0.5, 0.8):
            flat = rng.uniform(-4, 4, (2, 20 * rows))
            assert np.array_equal(_bvn_cdf_finite(*flat, r), bvn_oracle(*flat, r))

    def test_public_cdf_above_one_block(self, rng):
        # more elements than one block holds at every rule
        h, k = rng.uniform(-4, 4, (2, distributions._BLOCK_BYTES // 8 + 3))
        for rho in (0.1, 0.5, 0.8, 0.95):
            assert np.array_equal(bvn_cdf(h, k, rho), bvn_oracle(h, k, rho))


class TestTruncatedNormal:
    def test_symmetric_interval_is_centered(self):
        assert truncated_normal_mean(-1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert truncated_normal_median(-1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_mean_against_quadrature_oracle(self):
        # independent oracle: numerical moments of the restricted density
        from scipy.integrate import quad

        for a, b in [(0.0, 4.0), (-4.0, 4.0), (0.5, 1.5), (-2.3, -0.7)]:
            density = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            mass, _ = quad(density, a, b)
            first, _ = quad(lambda x: x * density(x), a, b)
            assert truncated_normal_mean(a, b) == pytest.approx(first / mass, abs=1e-9)

    def test_mean_over_half_range(self):
        assert truncated_normal_mean(0.0, 4.0) == pytest.approx(0.7979, abs=5e-4)
        assert truncated_normal_mean(-4.0, 4.0) == pytest.approx(0.0, abs=1e-3)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=150)
    def test_mean_strictly_inside_interval(self, a, width):
        b = a + width
        m = truncated_normal_mean(a, b)
        assert a < m < b

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=150)
    def test_median_definition(self, a, width):
        b = a + width
        m = truncated_normal_median(a, b)
        assert std_normal_cdf(m) == pytest.approx(
            0.5 * (std_normal_cdf(a) + std_normal_cdf(b)), abs=1e-10
        )

    def test_given_cdf_is_the_same_formula(self, rng):
        a = rng.uniform(-5.0, 3.0, size=500)
        b = a + rng.exponential(1.0, size=500)
        cdf = (ndtr(a), ndtr(b))
        assert np.array_equal(truncated_normal_mean(a, b, cdf=cdf), truncated_normal_mean(a, b))
        assert np.array_equal(
            truncated_normal_median(a, b, cdf=cdf), truncated_normal_median(a, b)
        )

    def test_empty_interval_errors(self):
        with pytest.raises(ValueError):
            truncated_normal_mean(30.0, 31.0)


class TestSamplers:
    @pytest.mark.parametrize(
        "alpha,beta,skew",
        [(11.0, 2.0, -0.9573), (16.0, 3.0, -0.7992), (54.0, 7.0, -0.6043)],
    )
    def test_beta_skewness(self, alpha, beta, skew):
        x = sample_standardized_beta(alpha, beta, np.random.default_rng(2), 100_000)
        sample_skew = np.mean(x**3)  # already standardized
        assert sample_skew == pytest.approx(skew, abs=0.1)

    def test_beta_exact_standardization(self):
        x = sample_standardized_beta(2.0, 5.0, np.random.default_rng(3), 2)
        assert x.mean() == pytest.approx(0.0, abs=1e-15)
        assert x.var(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_beta_invalid_params(self):
        with pytest.raises(ValueError):
            sample_standardized_beta(-1.0, 2.0, np.random.default_rng(0), 10)
        with pytest.raises(ValueError):
            sample_standardized_beta(1.0, 0.0, np.random.default_rng(0), 10)
        with pytest.raises(ValueError):
            sample_standardized_beta(1.0, 1.0, np.random.default_rng(0), 1)
