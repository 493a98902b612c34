"""Command-line interface.

Subcommands: ``fit``, ``polychoric``, ``predict-scores``, ``simulate``.
Every run writes its tables as CSV (full double precision, fixed column
order) plus a ``manifest.json`` recording the command, its arguments
(with ``--seed`` for ``fit`` and ``simulate``, the commands that draw
random numbers), tool version, and SHA-256 checksums of all inputs and
outputs, so a run can be audited and reproduced bit for bit.

Exit codes: 0 success, 2 input/validation error, 3 numerical
non-convergence, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, DataError, ModelError, OplsError
from .estimation import bootstrap_inner, fit_correlation_model
from .model import load_csv, load_data, parse_model
from .polychoric import pearson_matrix, polychoric_matrix
from .scores import (
    concordance_table,
    latent_thresholds,
    predict_categories,
    raw_scale_scores,
)
from .simulate import PERCENTILES, SimulationConfig, run_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_INTERNAL = 4


def _write_csv(path: Path, header, rows) -> Path:
    """Write a header and rows of Python str, int, float, bool or None cells.

    The csv module writes None as an empty cell and everything else with
    ``str``, which for a Python float is its shortest round-trip form (full
    double precision). Convert numpy values first (``ndarray.tolist()``,
    ``float()``): their ``str`` follows numpy's print options.
    """
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command, args, inputs, outputs, extra=None) -> Path:
    manifest = {
        "tool": "oplspm",
        "version": __version__,
        "command": command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_kinds(arg):
    return None if arg == "infer" else arg


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelError(f"cannot read model file '{path}': {exc}") from None
    return parse_model(text)


def _load_table(path: str, loader, **kw):
    try:
        return loader(path, **kw)
    except OSError as exc:
        raise DataError(f"cannot read data file '{path}': {exc}") from None


def cmd_fit(args) -> int:
    out = _out_dir(args)
    model = _load_model(args.model)
    data = _load_table(args.data, load_data, model=model, kinds=_resolve_kinds(args.kinds))
    if args.mode == "opls":
        sigma, _ = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    else:
        sigma = pearson_matrix(data)
    fit = fit_correlation_model(sigma, model, mode=args.mode, tol=args.tol, max_iter=args.max_iter)

    boot = None
    if args.bootstrap:
        boot = bootstrap_inner(
            data, model, mode=args.mode, n_boot=args.bootstrap, seed=args.seed,
            epsilon=args.epsilon, tol=args.tol, max_iter=args.max_iter,
        )

    files = []
    weight_rows = []
    raw, standardized = fit.weights.raw.tolist(), fit.weights.standardized.tolist()
    for j, latent in enumerate(model.latent_names):
        for h, name in enumerate(model.blocks[j]):
            k = model.block_slice(j).start + h
            weight_rows.append([name, latent, raw[k][j], standardized[k][j]])
    files.append(
        _write_csv(out / "weights.csv",
                   ["indicator", "latent", "raw_weight", "standardized_weight"], weight_rows)
    )

    inner_rows = []
    boot_lookup = {}
    if boot is not None:
        boot_lookup = dict(
            zip(boot.names, zip(boot.standard_errors.tolist(), boot.p_values.tolist()))
        )
    for eq in fit.inner:
        for cov, b in zip(eq.covariates, eq.coefficients.tolist()):
            row = [eq.target, cov, b]
            if boot is not None:
                se, p = boot_lookup[(eq.target, cov)]
                row += [se, p]
            inner_rows.append(row)
    header = ["target", "covariate", "estimate"]
    if boot is not None:
        header += ["bootstrap_se", "bootstrap_p"]
    files.append(_write_csv(out / "inner_coefficients.csv", header, inner_rows))
    files.append(
        _write_csv(
            out / "inner_equations.csv",
            ["target", "r_squared", "residual_variance"],
            [[eq.target, eq.r_squared, eq.residual_variance] for eq in fit.inner],
        )
    )

    loading_rows = []
    loadings, residuals = fit.loadings.tolist(), fit.loading_residuals.tolist()
    for j, latent in enumerate(model.latent_names):
        for h, name in enumerate(model.blocks[j]):
            k = model.block_slice(j).start + h
            loading_rows.append([name, latent, loadings[k], residuals[k]])
    files.append(
        _write_csv(out / "loadings.csv",
                   ["indicator", "latent", "loading", "residual_variance"], loading_rows)
    )

    files.append(
        _write_csv(
            out / "latent_correlations.csv",
            ["latent", *model.latent_names],
            [[name, *row]
             for name, row in zip(model.latent_names, fit.latent_correlations.tolist())],
        )
    )
    files.append(
        _write_csv(
            out / "reliability.csv",
            ["latent", "n_indicators", "cronbach_alpha", "dillon_goldstein_rho"],
            [[r.latent, r.n_indicators, r.cronbach_alpha, r.dillon_goldstein]
             for r in fit.reliability],
        )
    )
    files.append(
        _write_csv(
            out / "convergence.csv",
            ["iteration", "delta"],
            [[i + 1, d] for i, d in enumerate(fit.trace.deltas)],
        )
    )
    _write_manifest(
        out, "fit", args, [args.model, args.data], files,
        extra={"mode": fit.mode, "iterations": fit.trace.iterations,
               "pd_status": sigma.pd_status},
    )
    print(f"fit ({fit.mode}) converged in {fit.trace.iterations} iterations -> {out}")
    return EXIT_OK


def cmd_polychoric(args) -> int:
    out = _out_dir(args)
    data = _load_table(args.data, load_csv, kinds="ordinal")
    sigma, thresholds = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    files = [
        _write_csv(
            out / "polychoric_matrix.csv",
            ["variable", *data.columns],
            [[name, *row] for name, row in zip(data.columns, sigma.values.tolist())],
        ),
        _write_csv(
            out / "thresholds.csv",
            ["variable", "cut_index", "value"],
            [
                [name, i + 1, cut]
                for name, ts in zip(data.columns, thresholds)
                for i, cut in enumerate(ts.cuts.tolist())
            ],
        ),
        _write_csv(
            out / "category_map.csv",
            ["variable", "internal_code", "original_code"],
            [
                [name, i + 1, code]
                for name, ts in zip(data.columns, thresholds)
                for i, code in enumerate(ts.categories)
            ],
        ),
    ]
    _write_manifest(
        out, "polychoric", args, [args.data], files,
        extra={"pd_status": sigma.pd_status, "min_eigenvalue": sigma.min_eigenvalue()},
    )
    print(f"polychoric matrix ({sigma.pd_status}) for {data.n_cols} variables -> {out}")
    return EXIT_OK


def cmd_predict_scores(args) -> int:
    out = _out_dir(args)
    model = _load_model(args.model)
    data = _load_table(args.data, load_data, model=model, kinds="ordinal")
    sigma, thresholds = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    fit = fit_correlation_model(sigma, model, mode="opls", tol=args.tol, max_iter=args.max_iter)
    lt = latent_thresholds(thresholds, fit.weights.standardized, model)
    predicted = predict_categories(
        data, lt, thresholds, fit.weights.standardized, model, rule=args.rule
    )
    files = [
        _write_csv(
            out / "predicted_categories.csv",
            ["subject", *model.latent_names],
            np.column_stack([np.arange(1, data.n_rows + 1), predicted]).tolist(),
        ),
        _write_csv(
            out / "latent_thresholds.csv",
            ["latent", "cut_index", "value"],
            [
                [name, i + 1, cut]
                for j, name in enumerate(model.latent_names)
                for i, cut in enumerate(lt.cuts[j].tolist())
            ],
        ),
    ]
    extra = {"rule": args.rule, "pd_status": sigma.pd_status}
    if args.coherency:
        pls_fit = fit_correlation_model(
            pearson_matrix(data), model, mode="pls", tol=args.tol, max_iter=args.max_iter
        )
        raw = raw_scale_scores(data, pls_fit.weights.raw)
        rows = []
        for rule in ("mode", "median", "mean"):
            if rule == args.rule:
                pred = predicted
            else:
                pred = predict_categories(
                    data, lt, thresholds, fit.weights.standardized, model, rule=rule
                )
            for j, latent in enumerate(model.latent_names):
                i_max = lt.category_counts[j]
                rounded = np.clip(np.floor(raw[:, j] + 0.5), 1, i_max).astype(int)
                table = concordance_table(pred[:, j : j + 1], rounded[:, None])
                rows.append(
                    [rule, latent, float(table["exact"][0]), float(table["within_one"][0])]
                )
        files.append(
            _write_csv(
                out / "coherency.csv",
                ["rule", "latent", "exact_pct", "within_one_pct"],
                rows,
            )
        )
    _write_manifest(out, "predict-scores", args, [args.model, args.data], files, extra=extra)
    print(f"predicted categories ({args.rule}) for {data.n_rows} subjects -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    config = SimulationConfig(
        latent_law=args.law,
        npoints=args.npoints,
        replications=args.reps,
        sample_size=args.n,
        seed=args.seed,
        epsilon=args.epsilon,
    )
    report = run_study(config)
    pct_header = [f"p{p:02d}" for p in PERCENTILES]
    rows = []
    for row in report.summary_rows():
        rows.append(
            [row["section"], row["parameter"], row["true_value"], *row["percentiles"].tolist(),
             row["mean"], row["sd"], row["geometric_mean"], row["n_used"], row["n_excluded"]]
        )
    files = [
        _write_csv(
            out / "bias_report.csv",
            ["section", "parameter", "true_value", *pct_header,
             "mean", "sd", "geometric_mean", "n_used", "n_excluded"],
            rows,
        ),
        _write_csv(
            out / "outer_summary.csv",
            ["kind", "engine", "coefficient", "p25", "p50", "p75", "mean"],
            [[r["kind"], r["engine"], r["coefficient"], r["p25"], r["p50"], r["p75"], r["mean"]]
             for r in report.outer_rows()],
        ),
        _write_csv(
            out / "failures.csv",
            ["replication", "error"],
            [[f["replication"], f["error"]] for f in report.failures],
        ),
    ]
    _write_manifest(
        out, "simulate", args, [], files,
        extra={"replications_used": report.n_used, "replications_failed": report.n_excluded},
    )
    print(
        f"simulation {config.latent_law}/{config.npoints} points: "
        f"{report.n_used} replications used, {report.n_excluded} excluded -> {out}"
    )
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplspm",
        description="PLS path modeling with ordinal indicators via polychoric correlations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate a path model from a CSV dataset")
    p_fit.add_argument("--model", required=True, help="model config file")
    p_fit.add_argument("--data", required=True, help="CSV data file")
    p_fit.add_argument("--mode", choices=["pls", "opls"], default="pls")
    p_fit.add_argument("--tol", type=float, default=1e-7)
    p_fit.add_argument("--max-iter", type=int, default=300)
    p_fit.add_argument("--epsilon", type=float, default=0.5,
                       help="zero-cell smoothing for polychoric tables")
    p_fit.add_argument("--repair-pd", action="store_true",
                       help="project a non-PD polychoric matrix to the nearest PD matrix")
    p_fit.add_argument("--bootstrap", type=int, default=0, metavar="N",
                       help="bootstrap replicates for inner-coefficient s.e. (extension)")
    p_fit.add_argument("--kinds", choices=["infer", "ordinal", "interval"], default="infer")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="bootstrap random seed (recorded in manifest)")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_poly = sub.add_parser("polychoric", help="polychoric correlation matrix of an ordinal CSV")
    p_poly.add_argument("--data", required=True)
    p_poly.add_argument("--epsilon", type=float, default=0.5)
    p_poly.add_argument("--repair-pd", action="store_true")
    _add_common(p_poly)
    p_poly.set_defaults(func=cmd_polychoric)

    p_pred = sub.add_parser("predict-scores", help="threshold-based latent category prediction")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--rule", choices=["mode", "median", "mean"], default="mode")
    p_pred.add_argument("--coherency", action="store_true",
                        help="also report concordance with rounded interval-scale scores")
    p_pred.add_argument("--epsilon", type=float, default=0.5)
    p_pred.add_argument("--repair-pd", action="store_true")
    p_pred.add_argument("--tol", type=float, default=1e-7)
    p_pred.add_argument("--max-iter", type=int, default=300)
    _add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict_scores)

    p_sim = sub.add_parser("simulate", help="estimator-bias study (pls vs opls)")
    p_sim.add_argument("--law", choices=["normal", "beta"], default="normal")
    p_sim.add_argument("--npoints", type=int, choices=[4, 5, 7, 9], default=4)
    p_sim.add_argument("--reps", type=int, default=100,
                       help="replications (100 = desk scale; the full study uses 500)")
    p_sim.add_argument("--n", type=int, default=250, help="observations per replication")
    p_sim.add_argument("--epsilon", type=float, default=0.0,
                       help="zero-cell substitution (0 = none, matching the bias tables)")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (recorded in manifest)")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ModelError, DataError, OplsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
