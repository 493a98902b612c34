"""Monte Carlo harness comparing Pearson-based and polychoric-based fits.

The data-generating process is a fixed three-exogenous / three-endogenous
path model with three reflective indicators per latent. Latents are
standard normal or standardized Beta draws; every structural and
measurement error variance is chosen so the endogenous latents and all
indicators have unit population variance. Indicators are rescaled to an
npoints category scale using the sample extrema and rounded, producing
ordinal responses.

Each replication fits the same dataset twice: on the Pearson correlation
matrix of the raw codes ("pls") and on the polychoric matrix ("opls").
The report aggregates the inner-coefficient biases and the per-replication
ratio of their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import sample_standardized_beta
from .errors import DataError, OplsError
from .estimation import _blocks, _fit_members
# fit_correlation_model is no longer called here, but bench/spans.py hooks it here.
from .estimation import fit_correlation_model  # noqa: F401
from .model import DataMatrix, PathModel, build_model
from .pls import DEFAULT_MAX_ITER, DEFAULT_TOL, _as_sigma_values
from .polychoric import _check_epsilon, pearson_matrix, polychoric_matrix

__all__ = [
    "PARAMETERS",
    "TRUE_VALUES",
    "BLOCK_LOADINGS",
    "BETA_SHAPES",
    "ZETA_VARIANCES",
    "PERCENTILES",
    "SimulationConfig",
    "RatioSummary",
    "BiasReport",
    "simulation_model",
    "rescale_to_points",
    "generate_dataset",
    "bias_ratio_summary",
    "run_study",
]

PARAMETERS = ("gamma11", "gamma22", "gamma23", "beta21", "beta32")
TRUE_VALUES = {
    "gamma11": 0.9,
    "gamma22": 0.5,
    "gamma23": 0.6,
    "beta21": 0.5,
    "beta32": 0.6,
}
# (target, covariate) path for each reported parameter.
PARAMETER_PATHS = {
    "gamma11": ("eta1", "xi1"),
    "gamma22": ("eta2", "xi2"),
    "gamma23": ("eta2", "xi3"),
    "beta21": ("eta2", "eta1"),
    "beta32": ("eta3", "eta2"),
}
BLOCK_LOADINGS = (0.8, 0.9, 0.95)
BETA_SHAPES = ((11.0, 2.0), (16.0, 3.0), (54.0, 7.0))
# Structural error variances forcing unit variance on eta1..eta3 given
# independent unit-variance exogenous latents.
ZETA_VARIANCES = (
    1.0 - TRUE_VALUES["gamma11"] ** 2,
    1.0 - TRUE_VALUES["beta21"] ** 2 - TRUE_VALUES["gamma22"] ** 2 - TRUE_VALUES["gamma23"] ** 2,
    1.0 - TRUE_VALUES["beta32"] ** 2,
)
PERCENTILES = (5, 10, 25, 50, 75, 90, 95)

_LATENTS = ("xi1", "xi2", "xi3", "eta1", "eta2", "eta3")


def simulation_model() -> PathModel:
    """The study's fixed path model (three indicators per latent)."""
    return build_model(
        name="bias-study",
        exogenous=["xi1", "xi2", "xi3"],
        endogenous=["eta1", "eta2", "eta3"],
        blocks={lat: [f"{lat}_{h}" for h in (1, 2, 3)] for lat in _LATENTS},
        paths=[
            ("xi1", "eta1"),
            ("eta1", "eta2"),
            ("xi2", "eta2"),
            ("xi3", "eta2"),
            ("eta2", "eta3"),
        ],
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Study settings; defaults reproduce one full-size table cell.

    ``epsilon`` defaults to 0 here (no zero-cell substitution): unused
    categories are collapsed away before the pair likelihoods, and
    substituting mass into genuinely empty cells measurably attenuates the
    high polychoric correlations this study depends on.
    """

    latent_law: str = "normal"  # "normal" | "beta"
    npoints: int = 4
    replications: int = 500
    sample_size: int = 250
    seed: int = 0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.latent_law not in ("normal", "beta"):
            raise DataError(f"unknown latent law '{self.latent_law}'")
        if self.npoints not in (4, 5, 7, 9):
            raise DataError("npoints must be one of 4, 5, 7, 9")
        if self.replications < 1:
            raise DataError("need at least one replication")
        if self.sample_size < 3:
            raise DataError("sample size must be at least 3")
        _check_epsilon(self.epsilon)


def rescale_to_points(values: np.ndarray, npoints: int) -> np.ndarray:
    """Map a continuous sample onto integer categories 1..npoints.

    Uses each column's sample extrema; the +0.01 in the denominator keeps the
    top value strictly below npoints + 0.5. Rounding is half away from zero
    so the minimum (exactly 0.5 after rescaling) lands on category 1.
    """
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    if np.any(hi == lo):
        raise DataError("degenerate sample: indicator has zero range")
    scaled = (values - lo) / (hi - lo + 0.01) * npoints + 0.5
    return np.floor(scaled + 0.5)


def _draw_once(config: SimulationConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    n = config.sample_size
    if config.latent_law == "normal":
        xi = rng.standard_normal((n, 3))
    else:
        xi = np.column_stack(
            [sample_standardized_beta(a, b, rng, n) for a, b in BETA_SHAPES]
        )
    zeta = rng.standard_normal((n, 3)) * np.sqrt(ZETA_VARIANCES)
    eta1 = TRUE_VALUES["gamma11"] * xi[:, 0] + zeta[:, 0]
    eta2 = (
        TRUE_VALUES["beta21"] * eta1
        + TRUE_VALUES["gamma22"] * xi[:, 1]
        + TRUE_VALUES["gamma23"] * xi[:, 2]
        + zeta[:, 1]
    )
    eta3 = TRUE_VALUES["beta32"] * eta2 + zeta[:, 2]
    latents = np.column_stack([xi, eta1, eta2, eta3])
    errors = rng.standard_normal((n, 6 * len(BLOCK_LOADINGS)))
    lam = np.tile(BLOCK_LOADINGS, 6)
    indicators = lam * np.repeat(latents, len(BLOCK_LOADINGS), axis=1) + np.sqrt(1.0 - lam**2) * errors
    return indicators, latents


def generate_dataset(config: SimulationConfig, rng) -> tuple[DataMatrix, np.ndarray]:
    """One ordinal dataset plus the true latent draws behind it.

    A zero-range indicator triggers a fresh draw from the same stream
    (still deterministic given the seed).
    """
    model = simulation_model()
    for _ in range(100):
        indicators, latents = _draw_once(config, rng)
        try:
            codes = rescale_to_points(indicators, config.npoints)
        except DataError:
            continue
        data = DataMatrix(
            values=codes,
            columns=model.indicator_names,
            kinds=tuple(["ordinal"] * 18),
        )
        return data, latents
    raise DataError("could not generate a non-degenerate sample in 100 attempts")


@dataclass
class RatioSummary:
    """Distribution of |opls bias| / |pls bias| across replications."""

    percentiles: np.ndarray
    geometric_mean: float
    n_used: int
    n_excluded: int  # replications with an exactly-zero pls bias


def bias_ratio_summary(biases_pls, biases_opls) -> RatioSummary:
    b_pls = np.asarray(biases_pls, dtype=float)
    b_opls = np.asarray(biases_opls, dtype=float)
    if b_pls.shape != b_opls.shape:
        raise DataError("bias vectors must have equal length")
    if b_pls.size == 0:
        raise DataError("bias vectors are empty")
    keep = b_pls != 0.0
    excluded = int((~keep).sum())
    if not np.any(keep):
        raise DataError("all pls biases are exactly zero; ratios undefined")
    ratios = np.abs(b_opls[keep]) / np.abs(b_pls[keep])
    with np.errstate(divide="ignore"):
        log_mean = np.mean(np.log(ratios))
    return RatioSummary(
        percentiles=np.percentile(ratios, PERCENTILES),
        geometric_mean=float(np.exp(log_mean)),
        n_used=int(keep.sum()),
        n_excluded=excluded,
    )


def _distribution_row(values: np.ndarray) -> dict:
    return {
        "percentiles": np.percentile(values, PERCENTILES),
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
    }


@dataclass
class BiasReport:
    """Raw replication results plus table-ready summaries."""

    config: SimulationConfig
    parameters: tuple[str, ...]
    bias_pls: np.ndarray  # (replications_used, 5)
    bias_opls: np.ndarray
    loadings_pls: np.ndarray  # (replications_used, 18)
    loadings_opls: np.ndarray
    weights_pls: np.ndarray
    weights_opls: np.ndarray
    indicator_names: tuple[str, ...]
    failures: list = field(default_factory=list)

    @property
    def n_used(self) -> int:
        return self.bias_pls.shape[0]

    @property
    def n_excluded(self) -> int:
        return len(self.failures)

    def parameter_summary(self, parameter: str) -> dict:
        i = self.parameters.index(parameter)
        return {
            "pls": _distribution_row(self.bias_pls[:, i]),
            "opls": _distribution_row(self.bias_opls[:, i]),
            "ratio": bias_ratio_summary(self.bias_pls[:, i], self.bias_opls[:, i]),
        }

    def summary_rows(self) -> list[dict]:
        """Long-format rows mirroring the bias tables (pls / opls / ratio)."""
        rows = []
        for param in self.parameters:
            s = self.parameter_summary(param)
            for section in ("pls", "opls"):
                d = s[section]
                rows.append(
                    {
                        "section": section,
                        "parameter": param,
                        "true_value": TRUE_VALUES[param],
                        "percentiles": d["percentiles"],
                        "mean": d["mean"],
                        "sd": d["sd"],
                        "geometric_mean": None,
                        "n_used": self.n_used,
                        "n_excluded": self.n_excluded,
                    }
                )
            ratio = s["ratio"]
            rows.append(
                {
                    "section": "ratio",
                    "parameter": param,
                    "true_value": TRUE_VALUES[param],
                    "percentiles": ratio.percentiles,
                    "mean": None,
                    "sd": None,
                    "geometric_mean": ratio.geometric_mean,
                    "n_used": ratio.n_used,
                    "n_excluded": self.n_excluded + ratio.n_excluded,
                }
            )
        return rows

    def outer_rows(self) -> list[dict]:
        """Quartile summaries of loading biases and weights per indicator."""
        true_loadings = np.tile(BLOCK_LOADINGS, 6)
        rows = []
        blocks = {
            ("loading_bias", "pls"): self.loadings_pls - true_loadings,
            ("loading_bias", "opls"): self.loadings_opls - true_loadings,
            ("weight", "pls"): self.weights_pls,
            ("weight", "opls"): self.weights_opls,
        }
        for (kind, engine), values in blocks.items():
            for k, name in enumerate(self.indicator_names):
                col = values[:, k]
                rows.append(
                    {
                        "kind": kind,
                        "engine": engine,
                        "coefficient": name,
                        "p25": float(np.percentile(col, 25)),
                        "p50": float(np.percentile(col, 50)),
                        "p75": float(np.percentile(col, 75)),
                        "mean": float(col.mean()),
                    }
                )
        return rows


def _fit_route(sigmas: dict, model: PathModel, errors: dict) -> dict:
    """Fit ``sigmas`` (replication -> matrix) as one stack: replication -> (inner
    coefficients, loadings, raw weights) of each member that succeeds. The text
    of any other's error goes into ``errors``: the input check's for a matrix
    that is not positive definite, else the one ``_fit_members`` gives it."""
    checked = {}
    for rep, sigma in sigmas.items():
        try:
            checked[rep] = _as_sigma_values(sigma, model)
        except OplsError as exc:
            errors[rep] = str(exc)
    k = model.n_indicators
    stack = np.array(list(checked.values())).reshape(-1, k, k)
    fit, coefficients, _, loadings, failed = _fit_members(
        stack, model, DEFAULT_TOL, DEFAULT_MAX_ITER
    )
    weights = fit.raw[:, np.arange(k), model.indicator_latents]
    errors.update((rep, str(error)) for rep, error in zip(checked, failed) if error is not None)
    return {
        rep: (coefficients[i], loadings[i], weights[i])
        for i, rep in enumerate(checked)
        if failed[i] is None
    }


def run_study(config: SimulationConfig) -> BiasReport:
    """Run the full replication loop for one (law, npoints) cell.

    Replications draw from independent substreams seeded by
    (config.seed, replication index), so results do not depend on
    execution order and are reproducible bit for bit. A block of
    ``estimation._STACK_BLOCK`` replications fits its Pearson, then its
    polychoric, matrices as one stack each (``estimation._fit_members``).
    Replications whose fit fails or whose polychoric matrix is not
    positive definite are excluded and reported with the reason, never
    silently dropped; a failed fit's reason is the error that stack gives
    the member, the text ``fit_correlation_model`` raises on that matrix
    alone, and no member is fitted twice.
    """
    model = simulation_model()
    kept, failures = [], []
    for reps in _blocks(config.replications):
        pearson, polychoric, errors = {}, {}, {}
        for rep in reps:
            try:
                data, _ = generate_dataset(config, np.random.default_rng([config.seed, rep]))
                pearson[rep] = pearson_matrix(data)
                polychoric[rep], _ = polychoric_matrix(data, epsilon=config.epsilon)
                if polychoric[rep].pd_status == "failed":
                    eig = polychoric.pop(rep).min_eigenvalue()
                    raise DataError(f"polychoric matrix not positive definite (smallest eigenvalue {eig:.3g})")
            except OplsError as exc:
                errors[rep] = str(exc)
        fitted_pls = _fit_route(pearson, model, errors)  # a failed fit outranks its polychoric error
        fitted_opls = _fit_route({r: polychoric[r] for r in fitted_pls if r in polychoric}, model, errors)
        failures += [{"replication": rep, "error": errors[rep]} for rep in reps if rep in errors]
        kept += [(*fitted_pls[rep], *fitted_opls[rep]) for rep in reps if rep not in errors]
    if not kept:
        raise DataError(f"every replication failed ({len(failures)} of {config.replications}); "
                        f"replication {failures[0]['replication']}: {failures[0]['error']}")
    truth = np.array([TRUE_VALUES[p] for p in PARAMETERS])  # in the coefficients' order
    coef_pls, lam_pls, w_pls, coef_opls, lam_opls, w_opls = map(np.vstack, zip(*kept))
    return BiasReport(
        config=config,
        parameters=PARAMETERS,
        bias_pls=coef_pls - truth,
        bias_opls=coef_opls - truth,
        loadings_pls=lam_pls,
        loadings_opls=lam_opls,
        weights_pls=w_pls,
        weights_opls=w_opls,
        indicator_names=model.indicator_names,
        failures=failures,
    )
