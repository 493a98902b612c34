"""Shared helpers: random recursive models and synthetic datasets."""

import numpy as np
import pytest

from oplspm.model import DataMatrix, build_model

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
