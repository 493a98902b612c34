"""Scalar probability primitives: Gaussian CDF/quantile, bivariate normal
CDF, and the samplers used by the simulation harness.

All functions accept scalars or numpy arrays and are pure; random number
generation goes through an explicitly passed ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``), so independent streams are safe
to use concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

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
# Absolute error is around 1e-15, far inside the 1e-9 budget needed for
# stable polychoric likelihood maximization.
# ---------------------------------------------------------------------------

_GL_HALF = {
    6: (
        np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
        np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
    ),
    12: (
        np.array(
            [
                0.9815606342467191,
                0.9041172563704750,
                0.7699026741943050,
                0.5873179542866171,
                0.3678314989981802,
                0.1252334085114692,
            ]
        ),
        np.array(
            [
                0.04717533638651177,
                0.1069393259953183,
                0.1600783285433464,
                0.2031674267230659,
                0.2334925365383547,
                0.2491470458134029,
            ]
        ),
    ),
    20: (
        np.array(
            [
                0.9931285991850949,
                0.9639719272779138,
                0.9122344282513259,
                0.8391169718222188,
                0.7463319064601508,
                0.6360536807265150,
                0.5108670019508271,
                0.3737060887154196,
                0.2277858511416451,
                0.07652652113349733,
            ]
        ),
        np.array(
            [
                0.01761400713915212,
                0.04060142980038694,
                0.06267204833410906,
                0.08327674157670475,
                0.1019301198172404,
                0.1181945319615184,
                0.1316886384491766,
                0.1420961093183821,
                0.1491729864726037,
                0.1527533871307259,
            ]
        ),
    ),
}


# Gauss-Legendre tier by |r|: 6 points below 0.3, 12 below 0.75, 20 above;
# from 0.925 on, Genz's near-singular expansion replaces the arcsine form.
_TIER_EDGES = np.array([0.3, 0.75, 0.925])


def _nodes(xh, wh):
    # (node, weight) pairs of a half rule mapped onto [0, 2], as Python floats.
    return tuple(zip((1.0 - xh).tolist() + (1.0 + xh).tolist(), 2 * wh.tolist()))


def _bvnu_arcsine(h, k, r, nodes):
    # |r| < 0.925: quadrature of the arcsine form of the correlation integral.
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = 0.5 * np.arcsin(r)
    acc = np.zeros(h.shape)
    for x, w in nodes:
        sn = np.sin(asr * x)
        acc += w * np.exp((sn * hk - hs) / (1.0 - sn * sn))
    return acc * asr / (2.0 * math.pi) + ndtr(-h) * ndtr(-k)


def _bvnu_near_singular(h, k, r, nodes):
    # |r| >= 0.925: the integrand is nearly singular; use Genz's expansion
    # around |r| = 1 plus quadrature on the remainder.
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
        sp = _SQRT_2PI * ndtr(-b / np.broadcast_to(a, h.shape)[tail])
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


# One (evaluator, nodes) per tier of _TIER_EDGES. The nodes are accumulated
# one at a time rather than as a (nodes x elements) array, which keeps the
# working set at a few element-sized vectors.
_BRANCHES = (
    (_bvnu_arcsine, _nodes(*_GL_HALF[6])),
    (_bvnu_arcsine, _nodes(*_GL_HALF[12])),
    (_bvnu_arcsine, _nodes(*_GL_HALF[20])),
    (_bvnu_near_singular, _nodes(*_GL_HALF[20])),
)


def _bvnu_finite(h, k, r):
    # Upper-orthant probability P(X > h, Y > k) for 1-D arrays of finite
    # limits; r is one correlation or one per element, and each element
    # takes the quadrature tier and branch of its own |r|.
    r = np.asarray(r, dtype=float)
    tier = np.searchsorted(_TIER_EDGES, np.abs(r), side="right")
    if r.ndim == 0:
        branch, nodes = _BRANCHES[tier]
        return branch(h, k, r, nodes)
    r = np.broadcast_to(r, h.shape)
    out = np.empty(h.shape)
    for t, (branch, nodes) in enumerate(_BRANCHES):
        m = tier == t
        if m.all():
            return branch(h, k, r, nodes)
        if m.any():
            out[m] = branch(h[m], k[m], r[m], nodes)
    return out


def _bvnu(dh, dk, r):
    # P(X > dh, Y > dk); limits may be +/-inf.
    out = np.zeros(dh.shape)
    pos_inf = np.isposinf(dh) | np.isposinf(dk)
    h_ninf = np.isneginf(dh)
    k_ninf = np.isneginf(dk)
    out[h_ninf & k_ninf] = 1.0
    m = h_ninf & ~k_ninf & ~pos_inf
    out[m] = ndtr(-dk[m])
    m = k_ninf & ~h_ninf & ~pos_inf
    out[m] = ndtr(-dh[m])
    fin = np.isfinite(dh) & np.isfinite(dk)
    if np.any(fin):
        out[fin] = np.clip(_bvnu_finite(dh[fin], dk[fin], r), 0.0, 1.0)
    return out


def _bvn_cdf_finite(h, k, rho):
    # Low-overhead path for hot loops: 1-D float arrays of finite limits,
    # rho (scalar or one per element) already validated by the caller.
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
        Upper integration limits; +/-inf are valid and handled exactly.
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
    h_arr = np.asarray(h, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    scalar = h_arr.ndim == 0 and k_arr.ndim == 0
    hb, kb = np.broadcast_arrays(np.atleast_1d(h_arr), np.atleast_1d(k_arr))
    shape = hb.shape
    p = _bvnu(-hb.reshape(-1), -kb.reshape(-1), rho).reshape(shape)
    return float(p[0]) if scalar else p


def truncated_normal_mean(alpha, beta):
    """Mean of a standard normal restricted to the interval (alpha, beta].

    Computed as (pdf(alpha) - pdf(beta)) / (cdf(beta) - cdf(alpha)); raises
    when the interval carries essentially no probability mass.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    denom = ndtr(beta) - ndtr(alpha)
    if np.any(denom < 1e-300):
        raise ValueError("truncation interval carries no probability mass")
    out = (std_normal_pdf(alpha) - std_normal_pdf(beta)) / denom
    return float(out) if out.ndim == 0 else out


def truncated_normal_median(alpha, beta):
    """Median of a standard normal restricted to (alpha, beta]."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = ndtri(0.5 * (ndtr(alpha) + ndtr(beta)))
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
