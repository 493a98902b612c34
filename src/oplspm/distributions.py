"""Scalar probability primitives: Gaussian CDF/quantile, bivariate normal
CDF, and the samplers used by the simulation harness.

All functions accept scalars or numpy arrays and are pure; random number
generation goes through an explicitly passed ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``), so independent streams are safe
to use concurrently.

This module is the package's one boundary with scipy: ``ndtr`` and
``ndtri`` here are scipy's normal CDF and quantile ufuncs, and the rest of
the package takes them from here. ``scipy.special`` is imported at the
first normal probability, not with the package, so a command that never
evaluates one (the Pearson route of ``fit``) never loads scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "bvn_cdf",
    "truncated_normal_mean",
    "truncated_normal_median",
    "sample_standardized_beta",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@functools.cache
def _special():
    # the package's one scipy import, run at the first normal probability
    import scipy.special

    return scipy.special


def ndtr(x):
    # scipy's standard normal CDF ufunc
    return _special().ndtr(x)


def ndtri(p):
    # scipy's standard normal quantile ufunc
    return _special().ndtri(p)


def std_normal_pdf(x):
    """Standard normal density, vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal distribution function; accepts +/-inf."""
    x = np.asarray(x, dtype=float)
    out = ndtr(x)
    return float(out) if np.ndim(out) == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF on the open interval (0, 1).

    Raises
    ------
    ValueError
        If any probability lies outside (0, 1).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile probabilities must lie strictly inside (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bivariate normal CDF
#
# Gauss-Legendre reduction of the correlation-integral representation,
# following Drezner & Wesolowsky (1989) as modified by Genz (bvn.m / BVND).
# The 6-, 12- and 20-point rules are generated by numpy's ``leggauss``.
# Absolute error is around 1e-15, far inside the 1e-9 budget needed for
# stable polychoric likelihood maximization.
# ---------------------------------------------------------------------------

# Gauss-Legendre tier by |r|: 6 points below 0.3, 12 below 0.75, 20 above;
# from 0.925 on, Genz's near-singular expansion replaces the arcsine form.
_TIER_EDGES = np.array([0.3, 0.75, 0.925])
# Bytes of one (nodes, rows, ...) block of the arcsine quadrature; a larger
# input is taken a row chunk at a time.
_BLOCK_BYTES = 1 << 20


def _rule(n):
    # The n-point Gauss-Legendre rule mapped onto [0, 2], as rows (node, weight).
    x, w = np.polynomial.legendre.leggauss(n)
    return np.column_stack([1.0 + x, w])


def _bvnu_arcsine(h, k, r, nodes):
    # |r| < 0.925: quadrature of the arcsine form of the correlation integral.
    # sin(asr x) and 1 - sin^2 depend on r and the node alone, so they are
    # formed on r's own shape and broadcast over the trailing axes.
    shape = np.broadcast_shapes(h.shape, k.shape)
    x, w = (v.reshape(-1, *(1,) * len(shape)) for v in nodes.T)
    asr = 0.5 * np.arcsin(r.reshape(r.shape + (1,) * (len(shape) - r.ndim)))
    step = max(1, _BLOCK_BYTES // (8 * len(nodes) * math.prod(shape[1:])))
    out = np.empty(shape)
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        hc, kc, a = h[rows], k[rows], asr[rows] if r.ndim else asr
        sn = np.sin(a * x)
        terms = sn * (hc * kc)
        terms -= 0.5 * (hc * hc + kc * kc)
        terms /= 1.0 - sn * sn
        np.exp(terms, out=terms)
        terms *= w
        # node by node, in rule order: np.add.reduce sums a one-element
        # block pairwise instead, which rounds differently
        acc = terms[0]
        for term in terms[1:]:
            acc += term
        out[rows] = acc * a / (2.0 * math.pi) + ndtr(-hc) * ndtr(-kc)
    return out


def _bvnu_near_singular(h, k, r, nodes):
    # |r| >= 0.925: the integrand is nearly singular; use Genz's expansion
    # around |r| = 1 plus quadrature on the remainder, element by element.
    ndim = max(h.ndim, k.ndim)
    h, k, r = np.broadcast_arrays(h, k, r.reshape(r.shape + (1,) * (ndim - r.ndim)))
    negative = r < 0.0
    kk = np.where(negative, -k, k)
    hk = np.where(negative, -h * k, h * k)
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    bs = (h - kk) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -0.5 * (bs / as_ + hk)
    bvn = np.where(
        asr0 > -100.0,
        a
        * np.exp(asr0)
        * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_ * as_ / 5.0),
        0.0,
    )
    tail = hk > -100.0
    if np.any(tail):
        b = np.sqrt(bs[tail])
        sp = _SQRT_2PI * ndtr(-b / a[tail])
        bvn[tail] -= (
            np.exp(-0.5 * hk[tail])
            * sp
            * b
            * (1.0 - c[tail] * bs[tail] * (1.0 - d[tail] * bs[tail] / 5.0) / 3.0)
        )
    a2 = a / 2.0
    acc = np.zeros(h.shape)
    for x, w in nodes:
        xs = (a2 * x) ** 2
        rs = np.sqrt(1.0 - xs)
        asr = -0.5 * (bs / xs + hk)
        sp = 1.0 + c * xs * (1.0 + d * xs)
        ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        acc += w * np.where(asr > -100.0, np.exp(asr) * (ep - sp), 0.0)
    bvn = -(bvn + a2 * acc) / (2.0 * math.pi)
    return np.where(
        r > 0.0,
        bvn + ndtr(-np.maximum(h, kk)),
        -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-kk)),
    )


# One (evaluator, nodes) per tier of _TIER_EDGES, the nodes as rows (node,
# weight). The arcsine form takes every node of a row chunk at once, as a
# (nodes, rows, ...) block of at most _BLOCK_BYTES, and adds the nodes in
# rule order; the near-singular form takes one node at a time.
_BRANCHES = (
    (_bvnu_arcsine, _rule(6)),
    (_bvnu_arcsine, _rule(12)),
    (_bvnu_arcsine, _rule(20)),
    (_bvnu_near_singular, _rule(20)),
)


def _bvnu_finite(h, k, r):
    # Upper-orthant probability P(X > h, Y > k) at finite limits, with r as
    # in _bvn_cdf_finite; each leading index takes the quadrature tier and
    # branch of its own |r|.
    r = np.asarray(r, dtype=float)
    tier = np.searchsorted(_TIER_EDGES, np.abs(r), side="right")
    out = np.empty(np.broadcast_shapes(h.shape, k.shape))
    for t, (branch, nodes) in enumerate(_BRANCHES):
        m = tier == t
        if m.all():
            return branch(h, k, r, nodes)
        if m.any():
            out[m] = branch(h[m], k[m], r[m], nodes)
    return out


def _bvn_cdf_finite(h, k, rho):
    """P(X <= h, Y <= k) at finite limits, for hot loops that validated rho themselves.

    ``h`` and ``k`` are float arrays that broadcast to one shape with at
    least one axis, such as a pair's row limits against its column limits.
    ``rho`` holds one correlation per leading index of that shape: 0-d for
    all elements, one per row (a pair's corners) or one per element; ``h``
    and ``k`` have those leading axes in full. The quadrature's sines are
    computed once per correlation and node, and terms of one limit once
    per limit, not once per corner.
    """
    return np.clip(_bvnu_finite(-h, -k, rho), 0.0, 1.0)


def _bvn_pdf_drho(h, k, rho):
    # Bivariate normal density phi2(h, k; rho) and its derivative in rho;
    # phi2 is itself the rho-derivative of the CDF. Elementwise, finite limits.
    s = (1.0 - rho) * (1.0 + rho)
    q = h * h - 2.0 * rho * h * k + k * k
    pdf = np.exp(-0.5 * q / s) / (2.0 * math.pi * np.sqrt(s))
    return pdf, pdf * (rho / s + (h * k * s - rho * q) / (s * s))


def bvn_cdf(h, k, rho):
    """Standard bivariate normal CDF P(X <= h, Y <= k) with correlation rho.

    Parameters
    ----------
    h, k : float or array_like
        Upper integration limits; +/-inf are valid and handled exactly, and
        a NaN limit gives NaN.
    rho : float
        Correlation, strictly inside (-1, 1). Callers holding estimates at
        the clip bound (0.999) stay inside the admissible range.

    Raises
    ------
    ValueError
        If ``abs(rho) >= 1``.
    """
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must lie strictly inside (-1, 1), got {rho}")
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    # a +inf limit leaves the other limit's margin and a -inf limit gives 0
    p = np.where(np.isposinf(h), ndtr(k), np.where(np.isposinf(k), ndtr(h), 0.0))
    finite = np.isfinite(h) & np.isfinite(k)
    p[finite] = _bvn_cdf_finite(h[finite], k[finite], rho)
    p[np.isnan(h) | np.isnan(k)] = np.nan
    return float(p) if p.ndim == 0 else p


def truncated_normal_mean(alpha, beta, *, cdf=None):
    """Mean of a standard normal restricted to the interval (alpha, beta].

    Computed as (pdf(alpha) - pdf(beta)) / (cdf(beta) - cdf(alpha)); raises
    when the interval carries essentially no probability mass. ``cdf`` may
    give (Phi(alpha), Phi(beta)) already taken.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cdf_alpha, cdf_beta = (ndtr(alpha), ndtr(beta)) if cdf is None else cdf
    denom = cdf_beta - cdf_alpha
    if np.any(denom < 1e-300):
        raise ValueError("truncation interval carries no probability mass")
    out = (std_normal_pdf(alpha) - std_normal_pdf(beta)) / denom
    return float(out) if out.ndim == 0 else out


def truncated_normal_median(alpha, beta, *, cdf=None):
    """Median of a standard normal restricted to (alpha, beta].

    ``cdf`` may give (Phi(alpha), Phi(beta)) already taken.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cdf_alpha, cdf_beta = (ndtr(alpha), ndtr(beta)) if cdf is None else cdf
    out = ndtri(0.5 * (cdf_alpha + cdf_beta))
    return float(out) if out.ndim == 0 else out


def sample_standardized_beta(alpha, beta, rng, n):
    """Draw Beta(alpha, beta) variates and standardize them exactly.

    The returned sample has mean 0 and unit variance (ddof=1 estimator) by
    construction, preserving only the shape (skewness/kurtosis) of the Beta
    law.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("Beta shape parameters must be positive")
    n = int(n)
    if n < 2:
        raise ValueError("standardization needs at least 2 draws")
    x = rng.beta(alpha, beta, size=n)
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("degenerate Beta sample (zero variance)")
    return (x - x.mean()) / sd
