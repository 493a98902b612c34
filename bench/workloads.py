"""Benchmark workloads: input generation, the timed operations, and checks.

Every workload drives the package only through ``oplspm.simulate.run_study``
and ``oplspm.cli.main`` with CLI flags that are part of the documented
interface. Inputs are generated from the ``--seed`` of the run; the
reference checks use fixed inputs (``REF_SEED``) whose outputs were recorded
once in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

import oplspm.cli
from oplspm.errors import DataError
from oplspm.simulate import SimulationConfig, run_study

REF_SEED = 1
REF_SURVEY_ROWS = 1_000
# Sizes shared by every --size and by the reference checks.
SIM_N = 250
BOOT_ROWS = 250
WARM_ROWS = 1_000
# Share of subject x latent cells that must match the reference categories,
# and the absolute tolerance on every reference number.
AGREE_MIN = 0.999
ABS_TOL = 1e-6
# Smallest eigenvalue at or below which a correlation matrix is not positive definite.
PD_TOL = 1e-10

# The 7-latent, 24-indicator mobile-phone (ECSI) model.
ECSI_MODEL = """\
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
BLOCKS = (
    ("img", 5), ("expe", 3), ("qual", 7), ("val", 2), ("sat", 3), ("comp", 1), ("loy", 3),
)
INDICATORS = tuple(f"{prefix}{h}" for prefix, size in BLOCKS for h in range(1, size + 1))
# Structural paths (target latent index <- source latent index: coefficient)
# of the generating model, in the order of BLOCKS.
PATHS = {
    1: {0: 0.6},
    2: {1: 0.7},
    3: {1: 0.3, 2: 0.5},
    4: {0: 0.2, 1: 0.1, 2: 0.3, 3: 0.3},
    5: {4: 0.5},
    6: {0: 0.3, 4: 0.4, 5: 0.1},
}
LOADINGS = (0.85, 0.75, 0.8, 0.7, 0.9)
# Category probabilities of a 10-point item, skewed to the top as satisfaction
# surveys are; no category is rare enough to vanish from 1 000 respondents.
CATEGORY_PROBS = (0.02, 0.03, 0.05, 0.08, 0.12, 0.15, 0.18, 0.17, 0.12, 0.08)
CUTS = np.array([NormalDist().inv_cdf(p) for p in np.cumsum(CATEGORY_PROBS)[:-1]])

GRID = tuple((law, npoints) for law in ("normal", "beta") for npoints in (4, 5, 7, 9))

SIZES = {
    "full": {
        "sim_cells": len(GRID), "survey_rows": 100_000,
        "boot_pls_reps": 1000, "boot_opls_reps": 2, "setups": 3,
    },
    "tiny": {
        "sim_cells": 2, "survey_rows": 3_000,
        "boot_pls_reps": 20, "boot_opls_reps": 2, "setups": 1,
    },
}


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def survey_codes(rng: np.random.Generator, n: int) -> np.ndarray:
    """N x 24 codes 1..10 from the ECSI path structure."""
    latents = rng.standard_normal((n, len(BLOCKS)))
    for target, sources in PATHS.items():
        for source, coef in sources.items():
            latents[:, target] += coef * latents[:, source]
    latents = (latents - latents.mean(axis=0)) / latents.std(axis=0)
    cols = []
    for j, (_, size) in enumerate(BLOCKS):
        for _ in range(size):
            lam = LOADINGS[len(cols) % len(LOADINGS)]
            x = lam * latents[:, j] + math.sqrt(1.0 - lam * lam) * rng.standard_normal(n)
            cols.append(np.searchsorted(CUTS, x) + 1)
    return np.column_stack(cols)


def write_codes(path: Path, codes: np.ndarray) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join(INDICATORS) + "\n")
        np.savetxt(handle, codes, fmt="%d", delimiter=",")
    return path


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def cli(argv: list[str]) -> int:
    """``oplspm.cli.main`` with its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return oplspm.cli.main(argv)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


@dataclass
class Op:
    """One timed call into the package.

    ``call`` is the only timed part. ``verify`` runs after the timed phase
    and returns (failed work units, outputs ok, bytes written, excluded
    work units).
    """

    span: str
    units: int
    call: Callable[[], object]
    verify: Callable[[object], tuple[int, bool, int, int]]


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, size: dict):
        self.work = work
        self.seed = seed
        self.size = size
        self.inputs: list = []
        self.model_path = work / "ecsi.model"
        self.model_path.write_text(ECSI_MODEL, encoding="utf-8")

    def setup(self, i: int) -> None:
        """Generate input set ``i`` and run one warm-up operation on it."""
        raise NotImplementedError

    def batch(self, b: int, tag: str) -> list[Op]:
        """The ops of batch ``b``; a batch is the smallest unit the time budget stops at."""
        raise NotImplementedError

    def reference(self) -> dict:
        """Outputs on the fixed reference inputs, as {name: (kind, values)}."""
        raise NotImplementedError


def _study(config: SimulationConfig):
    """``run_study``, or None when its one replication was excluded (it raises then)."""
    try:
        return run_study(config)
    except DataError:
        return None


def _non_pd(config: SimulationConfig) -> bool:
    """Whether the one replication of ``config`` has a non-positive-definite polychoric matrix.

    ``run_study`` excludes such a replication by its documented policy and
    does not say why; this rebuilds the replication's sample (seeded by
    (seed, replication index)) and checks the matrix's smallest eigenvalue.
    """
    from oplspm.polychoric import polychoric_matrix
    from oplspm.simulate import generate_dataset

    data, _ = generate_dataset(config, np.random.default_rng([config.seed, 0]))
    sigma, _ = polychoric_matrix(data, epsilon=config.epsilon)
    return float(np.linalg.eigvalsh(getattr(sigma, "values", sigma)).min()) <= PD_TOL


class SimGrid(Workload):
    name = "sim_grid"

    def _config(self, cell: int, seed: int) -> SimulationConfig:
        law, npoints = GRID[cell]
        return SimulationConfig(
            latent_law=law, npoints=npoints, replications=1, sample_size=SIM_N, seed=seed
        )

    def setup(self, i):
        _study(self._config(0, derive_seed(self.seed, 0, i)))

    def batch(self, b, tag):
        def verify(report, config):
            if report is None:
                # An exclusion is correct output only for a non-PD sample.
                ok = _non_pd(config)
                return (0 if ok else 1), ok, 0, 1
            ok = report.n_used == 1 and report.n_excluded == 0 and bool(
                np.all(np.isfinite(report.bias_opls)) and np.all(np.isfinite(report.bias_pls))
            )
            return (0 if ok else 1), ok, 0, 0

        ops = []
        for cell in range(self.size["sim_cells"]):
            config = self._config(cell, derive_seed(self.seed, 1, b, cell))
            ops.append(Op("simulate.run_study", 1, lambda c=config: _study(c),
                          lambda report, c=config: verify(report, c)))
        return ops

    def reference(self):
        out = {}
        for cell in (0, len(GRID) - 1):
            report = run_study(self._config(cell, REF_SEED))
            law, npoints = GRID[cell]
            rows = [
                [*r["percentiles"], r["mean"], r["sd"], r["geometric_mean"], r["n_used"]]
                for r in report.summary_rows()
            ]
            out[f"{law}{npoints}.bias_rows"] = ("abs", rows)
            out[f"{law}{npoints}.loadings_opls"] = ("abs", report.loadings_opls)
        return out


class SurveyLarge(Workload):
    name = "survey_large"
    argv = ["--rule", "median", "--coherency"]

    def setup(self, i):
        codes = survey_codes(np.random.default_rng([self.seed, 2, i]), self.size["survey_rows"])
        data = write_codes(self.work / f"survey_{i}.csv", codes)
        head = write_codes(self.work / f"survey_{i}_head.csv", codes[:WARM_ROWS])
        self.inputs.append(data)
        self._predict(head, self.work / f"warm_{i}")

    def _predict(self, data: Path, out: Path) -> int:
        return cli(["predict-scores", "--model", str(self.model_path), "--data", str(data),
                    *self.argv, "--out", str(out)])

    def batch(self, b, tag):
        data = self.inputs[b % len(self.inputs)]
        out = self.work / f"{tag}_{b}"
        rows = self.size["survey_rows"]

        def verify(rc):
            if rc != 0:
                return 1, False, 0, 0
            # Streamed, so the check does not set the run's peak memory.
            n, codes = 0, set()
            with (out / "predicted_categories.csv").open(encoding="utf-8", newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader)
                for row in reader:
                    n += 1
                    codes.update(row[1:])
            ok = len(header) == 8 and n == rows and codes <= {str(c) for c in range(1, 11)}
            return (0 if ok else 1), ok, dir_bytes(out), 0

        return [Op("cli.main", 1, lambda: self._predict(data, out), verify)]

    def reference(self):
        codes = survey_codes(np.random.default_rng([REF_SEED, 2]), REF_SURVEY_ROWS)
        data = write_codes(self.work / "ref_survey.csv", codes)
        poly, pred = self.work / "ref_poly", self.work / "ref_pred"
        rc = cli(["polychoric", "--data", str(data), "--out", str(poly)])
        rc |= self._predict(data, pred)
        if rc != 0:
            raise RuntimeError(f"reference commands exited with {rc}")
        return {
            "polychoric_matrix": ("abs", _numbers(poly / "polychoric_matrix.csv", 1)),
            "thresholds": ("abs", _numbers(poly / "thresholds.csv", 2)),
            "latent_thresholds": ("abs", _numbers(pred / "latent_thresholds.csv", 2)),
            "predicted_categories": ("agree", _numbers(pred / "predicted_categories.csv", 1)),
        }


class Boot(Workload):
    mode = ""
    reps_key = ""

    def __init__(self, work: Path, seed: int, size: dict):
        super().__init__(work, seed, size)
        self.captured = capture_bootstrap()

    def setup(self, i):
        codes = survey_codes(np.random.default_rng([self.seed, 3, i]), BOOT_ROWS)
        data = write_codes(self.work / f"boot_{i}.csv", codes)
        self.inputs.append(data)
        self._fit(data, self.work / f"warm_{i}", reps=0, seed=0)

    def _fit(self, data: Path, out: Path, reps: int, seed: int) -> int:
        argv = ["fit", "--model", str(self.model_path), "--data", str(data),
                "--mode", self.mode, "--out", str(out)]
        if reps:
            argv += ["--bootstrap", str(reps), "--seed", str(seed)]
        return cli(argv)

    def batch(self, b, tag):
        data = self.inputs[b % len(self.inputs)]
        out = self.work / f"{tag}_{b}"
        reps = self.size[self.reps_key]
        seed = derive_seed(self.seed, 4, b)

        def call():
            self.captured.clear()
            return self._fit(data, out, reps, seed), list(self.captured)

        def verify(result):
            rc, boots = result
            if rc != 0:
                return reps, False, 0, 0
            header, body = read_table(out / "inner_coefficients.csv")
            se = np.array([row[header.index("bootstrap_se")] for row in body], dtype=float)
            ok = len(body) == 12 and bool(np.all(np.isfinite(se)) and np.all(se > 0))
            failed = sum(r.n_failed for r in boots)
            return (failed if ok else reps), ok, dir_bytes(out), 0

        return [Op("cli.main", reps, call, verify)]

    def reference(self):
        codes = survey_codes(np.random.default_rng([REF_SEED, 3]), BOOT_ROWS)
        data = write_codes(self.work / "ref_boot.csv", codes)
        out = self.work / "ref_fit"
        reps = 200 if self.mode == "pls" else 2
        if self._fit(data, out, reps=reps, seed=REF_SEED) != 0:
            raise RuntimeError("reference fit failed")
        return {
            "inner_coefficients": ("abs", _numbers(out / "inner_coefficients.csv", 2)),
            "weights": ("abs", _numbers(out / "weights.csv", 2)),
            "loadings": ("abs", _numbers(out / "loadings.csv", 2)),
        }


class BootPls(Boot):
    name = "boot_pls"
    mode = "pls"
    reps_key = "boot_pls_reps"


class BootOpls(Boot):
    name = "boot_opls"
    mode = "opls"
    reps_key = "boot_opls_reps"


WORKLOADS = {w.name: w for w in (SimGrid, SurveyLarge, BootPls, BootOpls)}


def _numbers(path: Path, skip: int) -> list[list[float]]:
    """The numeric columns of an output CSV (the first ``skip`` are labels)."""
    _, body = read_table(path)
    return [[float(cell) if cell else math.nan for cell in row[skip:]] for row in body]


_bootstrap_results: list = []


def capture_bootstrap() -> list:
    """Record each ``BootstrapResult`` the CLI computes, so failed replicates count.

    The CLI reports only the surviving replicates; their failures are visible
    only on the result object. Without the hook (the name may go away) the
    list stays empty and the failures are not counted.
    """
    fn = getattr(oplspm.cli, "bootstrap_inner", None)
    if fn is not None and not getattr(fn, "_bench_capture", False):
        def bootstrap_inner(*args, **kwargs):
            result = fn(*args, **kwargs)
            _bootstrap_results.append(result)
            return result

        bootstrap_inner._bench_capture = True
        oplspm.cli.bootstrap_inner = bootstrap_inner
    return _bootstrap_results


def compare(expected: dict, actual: dict) -> list[str]:
    """Names of the reference outputs that disagree, with the largest error."""
    problems = []
    for key, spec in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        want = np.asarray(spec["values"], dtype=float)
        got = np.asarray(actual[key][1], dtype=float)
        if want.shape != got.shape:
            problems.append(f"{key}: shape {got.shape} != {want.shape}")
        elif spec["check"] == "agree":
            share = float(np.mean(want == got))
            if share < AGREE_MIN:
                problems.append(f"{key}: {share:.5f} of cells agree (< {AGREE_MIN})")
        else:
            err = np.abs(want - got)
            err[np.isnan(want) & np.isnan(got)] = 0.0  # e.g. the empty sd cell of a ratio row
            worst = float(np.nan_to_num(err, nan=np.inf).max(initial=0.0))
            if worst > ABS_TOL:
                problems.append(f"{key}: max abs error {worst:.3e} > {ABS_TOL}")
    return problems


def as_json(outputs: dict) -> dict:
    return {
        key: {"check": kind, "values": np.asarray(values, dtype=float).tolist()}
        for key, (kind, values) in outputs.items()
    }
