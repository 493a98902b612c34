"""Shared helpers: random recursive models and synthetic datasets."""

import numpy as np
import pytest
from scipy.special import ndtri

from oplspm.model import DataMatrix, build_model, parse_model

ECSI_MODEL = """
model mobile-phone
latent image exogenous
latent expectations endogenous
latent quality endogenous
latent value endogenous
latent satisfaction endogenous
latent complaints endogenous
latent loyalty endogenous
indicators image: img1 img2 img3 img4 img5
indicators expectations: expe1 expe2 expe3
indicators quality: qual1 qual2 qual3 qual4 qual5 qual6 qual7
indicators value: val1 val2
indicators satisfaction: sat1 sat2 sat3
indicators complaints: comp1
indicators loyalty: loy1 loy2 loy3
path image -> expectations
path expectations -> quality
path expectations -> value
path quality -> value
path image -> satisfaction
path expectations -> satisfaction
path quality -> satisfaction
path value -> satisfaction
path satisfaction -> complaints
path image -> loyalty
path satisfaction -> loyalty
path complaints -> loyalty
"""


# Block sizes and structural coefficients (target <- source: coefficient) of
# ECSI_MODEL's latents, in the order it declares them.
ECSI_BLOCKS = (5, 3, 7, 2, 3, 1, 3)
ECSI_PATHS = {
    1: {0: 0.6},
    2: {1: 0.7},
    3: {1: 0.3, 2: 0.5},
    4: {0: 0.2, 1: 0.1, 2: 0.3, 3: 0.3},
    5: {4: 0.5},
    6: {0: 0.3, 4: 0.4, 5: 0.1},
}
# Cumulative shares of the first nine of ten categories, skewed to the top
# as satisfaction surveys are.
ECSI_SHARES = (0.02, 0.05, 0.10, 0.18, 0.30, 0.45, 0.63, 0.80, 0.92)


def ecsi_dataset(rng, n=250):
    """N x 24 ten-point codes from ECSI_MODEL's path structure, loadings 0.7 to 0.9."""
    latents = rng.standard_normal((n, len(ECSI_BLOCKS)))
    for target, sources in ECSI_PATHS.items():
        for source, coef in sources.items():
            latents[:, target] += coef * latents[:, source]
    latents = (latents - latents.mean(axis=0)) / latents.std(axis=0)
    cuts = ndtri(ECSI_SHARES)
    cols = []
    for j, size in enumerate(ECSI_BLOCKS):
        for lam in np.linspace(0.7, 0.9, size):
            x = lam * latents[:, j] + np.sqrt(1.0 - lam * lam) * rng.standard_normal(n)
            cols.append(np.searchsorted(cuts, x) + 1.0)
    names = parse_model(ECSI_MODEL).indicator_names
    return DataMatrix(np.column_stack(cols), names, ("ordinal",) * len(names))


def random_recursive_model(rng, n_latents=None, max_indicators=5):
    """A random valid path model: DAG inner graph, 1..max_indicators blocks."""
    if n_latents is None:
        n_latents = int(rng.integers(3, 8))
    n_exo = int(rng.integers(1, max(2, n_latents - 1)))
    exo = [f"f{i}" for i in range(n_exo)]
    endo = [f"f{i}" for i in range(n_exo, n_latents)]
    names = exo + endo
    paths = []
    for j in range(n_exo, n_latents):
        # at least one incoming edge from an earlier latent
        sources = list(rng.choice(j, size=int(rng.integers(1, j + 1)), replace=False))
        paths.extend((names[s], names[j]) for s in sources)
    # no isolated latents: the centroid scheme needs every latent to have
    # at least one inner neighbor
    used_sources = {src for src, _ in paths}
    for name in exo:
        if name not in used_sources:
            target = names[int(rng.integers(n_exo, n_latents))]
            paths.append((name, target))
    blocks = {}
    counter = 0
    for name in names:
        p = int(rng.integers(1, max_indicators + 1))
        blocks[name] = [f"x{counter + h}" for h in range(p)]
        counter += p
    return build_model("random", exo, endo, blocks, paths)


def factor_dataset(model, rng, n=200, noise=0.6):
    """Interval data with block structure driven by correlated latent factors."""
    n_lat = model.n_latents
    base = rng.standard_normal((n, n_lat + 1))
    shared = base[:, -1:]
    factors = 0.6 * base[:, :n_lat] + 0.8 * shared  # mutually correlated latents
    cols = []
    for j in range(n_lat):
        for _ in range(model.block_sizes[j]):
            lam = rng.uniform(0.6, 0.95)
            scale = rng.uniform(0.5, 3.0)
            cols.append(scale * (lam * factors[:, j] + noise * rng.standard_normal(n)))
    values = np.column_stack(cols)
    return DataMatrix(values, model.indicator_names, tuple(["interval"] * values.shape[1]))


def ordinal_dataset(model, rng, n=250, npoints=5):
    """Ordinal data from the same factor construction, binned to npoints."""
    interval = factor_dataset(model, rng, n=n, noise=0.8)
    values = interval.values
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    scaled = (values - lo) / (hi - lo + 0.01) * npoints + 0.5
    codes = np.floor(scaled + 0.5)
    return DataMatrix(codes, model.indicator_names, tuple(["ordinal"] * values.shape[1]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def no_single_fits(monkeypatch):
    """Make every one-matrix fit raise where a stacked path could reach it."""
    from oplspm import estimation, pls, simulate

    def refuse(*args, **kwargs):
        raise AssertionError("a stacked path made a one-matrix fit")

    for module, name in (
        (estimation, "fit_correlation_model"),
        (estimation, "matrix_pls_fit"),
        (estimation, "inner_coefficients"),
        (estimation, "dillon_goldstein_rho"),
        (pls, "matrix_pls_fit"),
        (simulate, "fit_correlation_model"),
    ):
        monkeypatch.setattr(module, name, refuse)
