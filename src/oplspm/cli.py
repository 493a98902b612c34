"""Command-line interface.

Subcommands: ``fit``, ``polychoric``, ``predict-scores``, ``simulate``.
Every run writes its tables as CSV (full double precision, fixed column
order) plus a ``manifest.json`` recording the command, its arguments
(with ``--seed`` for ``fit`` and ``simulate``, the commands that draw
random numbers), tool version, and SHA-256 checksums of all inputs and
outputs, so a run can be audited and reproduced bit for bit. ``fit
--bootstrap`` also records how many replicates succeeded and failed.

Each ``cmd_*`` only computes and returns its tables; ``main`` writes every
command's outputs through one path, and only after the command succeeds.

Exit codes: 0 success, 2 input/validation error (an unwritable ``--out``
included), 3 numerical non-convergence, 4 internal assertion failure.
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
from .pls import DEFAULT_MAX_ITER, DEFAULT_TOL
from .scores import (
    RULES,
    _latent_predictions,
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
# A large table is written without ever being one list of Python rows.
_ROW_CHUNK = 1 << 14


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows of Python str, int, float, bool or None cells.

    The csv module writes None as an empty cell and everything else with
    ``str``, which for a Python float is its shortest round-trip form (full
    double precision). Convert numpy values first (``ndarray.tolist()``,
    ``float()``): their ``str`` follows numpy's print options.

    An integer ndarray is written as the rows ``[i, *row]``, i counting
    from 1, one ``_ROW_CHUNK`` of rows per call, in the bytes csv would
    write: ``%d`` of a Python int is its ``str``, and csv quotes no digits
    and ends each row with CR LF.
    """
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        line = ",".join(["%d"] * (rows.shape[1] + 1)) + "\r\n"
        for start in range(0, len(rows), _ROW_CHUNK):
            block = rows[start : start + _ROW_CHUNK]
            chunk = np.column_stack([np.arange(start + 1, start + 1 + len(block)), block])
            handle.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_outputs(out: Path, args, tables, inputs, extra) -> None:
    """Write every table as CSV, then ``manifest.json`` with the checksums."""
    outputs = {}
    for name, (header, rows) in tables.items():
        path = out / name
        _write_csv(path, header, rows)
        outputs[str(path)] = _sha256(path)
    manifest = {
        "tool": "oplspm",
        "version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": outputs,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / "manifest.json").write_text(text, encoding="utf-8")


def _indicator_rows(model, *columns):
    """``[indicator, latent, *values]`` per indicator, in model order; a 2-D
    column (indicators x latents) is read at each indicator's own latent."""
    owner = model.indicator_latents
    k = np.arange(model.n_indicators)
    values = [(c[k, owner] if c.ndim == 2 else c).tolist() for c in columns]
    return [
        [name, model.latent_names[j], *cells]
        for name, j, *cells in zip(model.indicator_names, owner, *values)
    ]


def _indexed_rows(names, sequences):
    """``[name, i, value]`` rows, with i counting each name's values from 1."""
    return [[name, i, v] for name, values in zip(names, sequences)
            for i, v in enumerate(values, 1)]


def _load_model(path: str):
    try:
        return parse_model(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ModelError(f"cannot read model file '{path}': {exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file '{path}' is not UTF-8 text: {exc.reason} "
                         f"(byte 0x{exc.object[exc.start]:02x})") from None


def _load_table(path: str, loader, **kw):
    try:
        return loader(path, **kw)
    except OSError as exc:
        raise DataError(f"cannot read data file '{path}': {exc}") from None


def cmd_fit(args):
    model = _load_model(args.model)
    # polychoric correlations need ordinal codes; Pearson takes any column
    kinds = "ordinal" if args.mode == "opls" else None
    data = _load_table(args.data, load_data, model=model, kinds=kinds)
    if args.mode == "opls":
        sigma, _ = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    else:
        sigma = pearson_matrix(data)
    fit = fit_correlation_model(sigma, model, tol=args.tol, max_iter=args.max_iter)
    inner_header = ["target", "covariate", "estimate"]
    inner_rows = [
        [eq.target, cov, b]
        for eq in fit.inner
        for cov, b in zip(eq.covariates, eq.coefficients.tolist())
    ]
    if args.bootstrap:
        boot = bootstrap_inner(
            data, model, mode=args.mode, n_boot=args.bootstrap, seed=args.seed,
            epsilon=args.epsilon, tol=args.tol, max_iter=args.max_iter,
        )
        # The bootstrap's paths and fit.inner both follow the structural equations' order.
        inner_header += ["bootstrap_se", "bootstrap_p"]
        se, p = boot.standard_errors.tolist(), boot.p_values.tolist()
        inner_rows = [[*row, *cells] for row, *cells in zip(inner_rows, se, p)]

    tables = {
        "weights.csv": (
            ["indicator", "latent", "raw_weight", "standardized_weight"],
            _indicator_rows(model, fit.weights.raw, fit.weights.standardized),
        ),
        "inner_coefficients.csv": (inner_header, inner_rows),
        "inner_equations.csv": (
            ["target", "r_squared", "residual_variance"],
            [[eq.target, eq.r_squared, eq.residual_variance] for eq in fit.inner],
        ),
        "loadings.csv": (
            ["indicator", "latent", "loading", "residual_variance"],
            _indicator_rows(model, fit.loadings, fit.loading_residuals),
        ),
        "latent_correlations.csv": (
            ["latent", *model.latent_names],
            [[name, *row]
             for name, row in zip(model.latent_names, fit.latent_correlations.tolist())],
        ),
        "reliability.csv": (
            ["latent", "n_indicators", "cronbach_alpha", "dillon_goldstein_rho"],
            [[r.latent, r.n_indicators, r.cronbach_alpha, r.dillon_goldstein]
             for r in fit.reliability],
        ),
        "convergence.csv": (["iteration", "delta"],
                            [[i, d] for i, d in enumerate(fit.trace.deltas, 1)]),
    }
    extra = {"mode": fit.mode, "iterations": fit.trace.iterations, "pd_status": sigma.pd_status}
    if args.bootstrap:
        extra.update(bootstrap_effective=boot.n_effective, bootstrap_failed=boot.n_failed)
    message = f"fit ({fit.mode}) converged in {fit.trace.iterations} iterations"
    return tables, [args.model, args.data], extra, message


def cmd_polychoric(args):
    data = _load_table(args.data, load_csv, kinds="ordinal")
    sigma, thresholds = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    tables = {
        "polychoric_matrix.csv": (
            ["variable", *data.columns],
            [[name, *row] for name, row in zip(data.columns, sigma.values.tolist())],
        ),
        "thresholds.csv": (
            ["variable", "cut_index", "value"],
            _indexed_rows(data.columns, [ts.cuts.tolist() for ts in thresholds]),
        ),
        "category_map.csv": (
            ["variable", "internal_code", "original_code"],
            _indexed_rows(data.columns, [ts.categories for ts in thresholds]),
        ),
    }
    extra = {"pd_status": sigma.pd_status, "min_eigenvalue": sigma.min_eigenvalue()}
    message = f"polychoric matrix ({sigma.pd_status}) for {data.n_cols} variables"
    return tables, [args.data], extra, message


def cmd_predict_scores(args):
    model = _load_model(args.model)
    data = _load_table(args.data, load_data, model=model, kinds="ordinal")
    sigma, thresholds = polychoric_matrix(data, epsilon=args.epsilon, repair_pd=args.repair_pd)
    fit = fit_correlation_model(sigma, model, tol=args.tol, max_iter=args.max_iter)
    weights = fit.weights.standardized
    lt = latent_thresholds(thresholds, weights, model)
    tables = {
        "latent_thresholds.csv": (
            ["latent", "cut_index", "value"],
            _indexed_rows(model.latent_names, [cuts.tolist() for cuts in lt.cuts]),
        ),
    }
    if args.coherency:
        pls_fit = fit_correlation_model(pearson_matrix(data), model,
                                        tol=args.tol, max_iter=args.max_iter)
        raw = raw_scale_scores(data, pls_fit.weights.raw, thresholds)
        # Held through the whole pass over the latents, so as small an integer as fits.
        counts = lt.category_counts
        rounded = np.clip(np.floor(raw + 0.5), 1, counts).astype(np.min_scalar_type(max(counts)))
        del raw
        # One pass over the latents runs every rule on that latent's intervals.
        predicted = np.empty((data.n_rows, model.n_latents), dtype=int)
        rows = {rule: [] for rule in RULES}
        latents = _latent_predictions(data, lt, thresholds, weights, model, RULES)
        for j, (latent, columns) in enumerate(zip(model.latent_names, latents)):
            predicted[:, j] = columns[RULES.index(args.rule)]
            for rule, column in zip(RULES, columns):
                table = concordance_table(column[:, None], rounded[:, j : j + 1])
                rows[rule].append([rule, latent, *(float(table[k][0])
                                                   for k in ("exact", "within_one"))])
        tables["coherency.csv"] = (["rule", "latent", "exact_pct", "within_one_pct"],
                                   [row for rule in RULES for row in rows[rule]])
    else:
        predicted = predict_categories(data, lt, thresholds, weights, model, rule=args.rule)
    tables["predicted_categories.csv"] = (["subject", *model.latent_names], predicted)
    extra = {"rule": args.rule, "pd_status": sigma.pd_status}
    message = f"predicted categories ({args.rule}) for {data.n_rows} subjects"
    return tables, [args.model, args.data], extra, message


def cmd_simulate(args):
    config = SimulationConfig(
        latent_law=args.law, npoints=args.npoints, replications=args.reps,
        sample_size=args.n, seed=args.seed, epsilon=args.epsilon,
    )
    report = run_study(config)
    outer_header = ["kind", "engine", "coefficient", "p25", "p50", "p75", "mean"]
    tables = {
        "bias_report.csv": (
            ["section", "parameter", "true_value", *(f"p{p:02d}" for p in PERCENTILES),
             "mean", "sd", "geometric_mean", "n_used", "n_excluded"],
            [[r["section"], r["parameter"], r["true_value"], *r["percentiles"].tolist(),
              r["mean"], r["sd"], r["geometric_mean"], r["n_used"], r["n_excluded"]]
             for r in report.summary_rows()],
        ),
        "outer_summary.csv": (
            outer_header, [[r[key] for key in outer_header] for r in report.outer_rows()]
        ),
        "failures.csv": (
            ["replication", "error"], [[f["replication"], f["error"]] for f in report.failures]
        ),
    }
    extra = {"replications_used": report.n_used, "replications_failed": report.n_excluded}
    message = (f"simulation {config.latent_law}/{config.npoints} points: "
               f"{report.n_used} replications used, {report.n_excluded} excluded")
    return tables, [], extra, message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplspm",
        description="PLS path modeling with ordinal indicators via polychoric correlations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several commands share, declared once as parent parsers.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--model", required=True, help="model config file")
    fitting.add_argument("--data", required=True, help="CSV data file")
    fitting.add_argument("--tol", type=float, default=DEFAULT_TOL)
    fitting.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    smoothing = argparse.ArgumentParser(add_help=False)
    smoothing.add_argument("--epsilon", type=float, default=0.5,
                           help="zero-cell smoothing for polychoric tables")
    smoothing.add_argument("--repair-pd", action="store_true",
                           help="project a non-PD polychoric matrix to the nearest PD matrix")

    p_fit = sub.add_parser("fit", parents=[fitting, smoothing, out],
                           help="estimate a path model from a CSV dataset")
    p_fit.add_argument("--mode", choices=["pls", "opls"], default="pls")
    p_fit.add_argument("--bootstrap", type=int, default=0, metavar="N",
                       help="bootstrap replicates for inner-coefficient s.e. (extension)")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="bootstrap random seed, an integer >= 0 (recorded in manifest)")
    p_fit.set_defaults(func=cmd_fit)

    p_poly = sub.add_parser("polychoric", parents=[smoothing, out],
                            help="polychoric correlation matrix of an ordinal CSV")
    p_poly.add_argument("--data", required=True)
    p_poly.set_defaults(func=cmd_polychoric)

    p_pred = sub.add_parser("predict-scores", parents=[fitting, smoothing, out],
                            help="threshold-based latent category prediction")
    p_pred.add_argument("--rule", choices=RULES, default="mode")
    p_pred.add_argument("--coherency", action="store_true",
                        help="also report concordance with rounded interval-scale scores")
    p_pred.set_defaults(func=cmd_predict_scores)

    p_sim = sub.add_parser("simulate", parents=[out], help="estimator-bias study (pls vs opls)")
    p_sim.add_argument("--law", choices=["normal", "beta"], default="normal")
    p_sim.add_argument("--npoints", type=int, choices=[4, 5, 7, 9], default=4)
    p_sim.add_argument("--reps", type=int, default=100,
                       help="replications (100 = desk scale; the full study uses 500)")
    p_sim.add_argument("--n", type=int, default=250, help="observations per replication")
    p_sim.add_argument("--epsilon", type=float, default=0.0,
                       help="zero-cell substitution (0 = none, matching the bias tables)")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (recorded in manifest)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        tables, inputs, extra, message = args.func(args)
        _write_outputs(out, args, tables, inputs, extra)
    except OplsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INPUT
    except OSError as exc:
        # An unreadable input is a DataError or ModelError: this is an output.
        print(f"error: cannot write outputs to '{out}': {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{message} -> {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
