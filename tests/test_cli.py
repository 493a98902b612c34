import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ordinal_dataset, random_recursive_model
from oplspm.estimation import fit_correlation_model
from oplspm.model import load_data, parse_model, serialize_model
from oplspm.polychoric import pearson_matrix, polychoric_matrix
from oplspm.scores import latent_thresholds, predict_categories
from oplspm import cli, scores
from oplspm.cli import main

MODEL_TEXT = (
    "model tiny\n"
    "latent a exogenous\n"
    "latent b endogenous\n"
    "indicators a: x1 x2\n"
    "indicators b: y1 y2\n"
    "path a -> b\n"
)


def write_inputs(tmp_path, rng, npoints=5, n=120):
    model = parse_model(MODEL_TEXT)
    data = ordinal_dataset(model, rng, n=n, npoints=npoints)
    model_path = tmp_path / "tiny.model"
    model_path.write_text(MODEL_TEXT)
    data_path = tmp_path / "tiny.csv"
    with data_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.columns)
        writer.writerows(data.values.astype(int).tolist())
    return model, data, model_path, data_path


def read_rows(path):
    with Path(path).open() as handle:
        return list(csv.DictReader(handle))


class TestFitCommand:
    def test_pls_fit_matches_api(self, tmp_path, rng):
        model, data, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(
            ["fit", "--model", str(model_path), "--data", str(data_path),
             "--mode", "pls", "--out", str(out)]
        )
        assert code == 0
        expected = fit_correlation_model(pearson_matrix(data), model)
        rows = read_rows(out / "inner_coefficients.csv")
        assert len(rows) == 1
        assert float(rows[0]["estimate"]) == pytest.approx(
            expected.inner[0].coefficients[0], abs=1e-12
        )
        weights = read_rows(out / "weights.csv")
        assert [w["indicator"] for w in weights] == list(model.indicator_names)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(data_path) in manifest["inputs"]
        for name in ("weights.csv", "loadings.csv", "latent_correlations.csv",
                     "reliability.csv", "inner_equations.csv", "convergence.csv"):
            assert (out / name).exists()

    def test_opls_fit_runs(self, tmp_path, rng):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(
            ["fit", "--model", str(model_path), "--data", str(data_path),
             "--mode", "opls", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "opls"

    def test_opls_fit_reads_ordinal_codes(self, tmp_path, rng, capsys):
        _, data, model_path, _ = write_inputs(tmp_path, rng)
        path = tmp_path / "mixed.csv"
        values = data.values.copy()
        values[:, 2] += 0.5  # y1 is not an integer code
        path.write_text(",".join(data.columns) + "\n"
                        + "".join(",".join(map(str, row)) + "\n" for row in values.tolist()))
        fit = ["fit", "--model", str(model_path), "--data", str(path)]
        assert main([*fit, "--mode", "opls", "--out", str(tmp_path / "opls")]) == 2
        err = capsys.readouterr().err
        assert err == "error: ordinal column 'y1' must hold integer codes >= 1\n"
        # Pearson correlations take the column as interval
        assert main([*fit, "--mode", "pls", "--out", str(tmp_path / "pls")]) == 0
        with pytest.raises(SystemExit):
            main([*fit, "--kinds", "interval", "--out", str(tmp_path / "kinds")])

    def test_bootstrap_columns(self, tmp_path, rng):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(
            ["fit", "--model", str(model_path), "--data", str(data_path),
             "--mode", "pls", "--bootstrap", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out / "inner_coefficients.csv")
        assert "bootstrap_se" in rows[0] and "bootstrap_p" in rows[0]

    @pytest.mark.parametrize("mode, n_boot", [("pls", "20"), ("opls", "3")])
    def test_manifest_counts_bootstrap_replicates(self, tmp_path, rng, mode, n_boot):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        fit = ["fit", "--model", str(model_path), "--data", str(data_path), "--mode", mode]
        out = tmp_path / "boot"
        assert main([*fit, "--bootstrap", n_boot, "--seed", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["bootstrap_effective"] >= 2 and manifest["bootstrap_failed"] >= 0
        assert manifest["bootstrap_effective"] + manifest["bootstrap_failed"] == int(n_boot)
        assert main([*fit, "--out", str(tmp_path / "point")]) == 0
        manifest = json.loads((tmp_path / "point" / "manifest.json").read_text())
        assert "bootstrap_effective" not in manifest and "bootstrap_failed" not in manifest

    def test_missing_data_file_is_input_error(self, tmp_path, rng):
        _, _, model_path, _ = write_inputs(tmp_path, rng)
        code = main(
            ["fit", "--model", str(model_path), "--data", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_non_convergence_exit_code(self, tmp_path, rng):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        code = main(
            ["fit", "--model", str(model_path), "--data", str(data_path),
             "--max-iter", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 3


SCIPY_PROBE = """
import sys
import oplspm
if sys.argv[1:]:
    from oplspm.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exit:  # --version
        code = exit.code
    assert code in (0, None), code
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_modules_after(argv=(), program=SCIPY_PROBE):
    """The scipy modules a fresh interpreter holds after ``program`` ran with ``argv``, as a set.

    The default program imports the package and runs any ``argv`` as
    ``oplspm`` arguments. The test process itself has scipy loaded, so the
    check needs a child.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", program, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    line = next(line for line in done.stdout.splitlines() if line.startswith("scipy modules:"))
    return set(line.split()[2:])


def fit_argv(tmp_path, rng, *options):
    _, _, model_path, data_path = write_inputs(tmp_path, rng)
    return ["fit", "--model", str(model_path), "--data", str(data_path), *options,
            "--seed", "1", "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "command",
    [(), ("--version",), ("--mode", "pls"), ("--mode", "pls", "--bootstrap", "50")],
    ids=["import", "version", "pls-fit", "pls-bootstrap"],
)
def test_pearson_route_never_loads_scipy(tmp_path, rng, command):
    # the package loads scipy.special at its first normal probability, which the Pearson
    # route never evaluates, so start-up there pays for no scipy import
    argv = fit_argv(tmp_path, rng, *command) if command[:1] == ("--mode",) else command
    assert scipy_modules_after(argv) == set()


def test_bootstrap_fit_leaves_scipy_linalg_unimported(tmp_path, rng):
    # scipy.linalg adds about 6 MB of resident memory on import; numpy.linalg serves the
    # package. The polychoric route loads scipy.special, which on older scipy releases
    # imports scipy.linalg at module level; there the guard has nothing to check.
    loaded = scipy_modules_after(fit_argv(tmp_path, rng, "--mode", "opls", "--bootstrap", "2"))
    assert "scipy.special" in loaded
    if "scipy.linalg" in loaded:
        probe = SCIPY_PROBE.replace("import oplspm", "import scipy.special")
        if "scipy.linalg" in scipy_modules_after(program=probe):
            pytest.skip("this scipy's scipy.special imports scipy.linalg")
    assert "scipy.linalg" not in loaded


class TestPolychoricCommand:
    def test_concordant_pair_at_clip(self, tmp_path, rng):
        col = rng.integers(1, 3, size=80)
        path = tmp_path / "pair.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["u", "v"])
            writer.writerows(np.column_stack([col, col]).tolist())
        out = tmp_path / "out"
        assert main(["polychoric", "--data", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "polychoric_matrix.csv")
        assert float(rows[0]["v"]) == 0.999
        thresholds = read_rows(out / "thresholds.csv")
        assert {t["variable"] for t in thresholds} == {"u", "v"}

    def test_repair_flag_plumbs_through(self, tmp_path, rng):
        cols = np.column_stack([rng.integers(1, 4, 60) for _ in range(3)])
        path = tmp_path / "three.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["a", "b", "c"])
            writer.writerows(cols.tolist())
        out = tmp_path / "out"
        assert main(["polychoric", "--data", str(path), "--repair-pd", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pd_status"] in ("positive-definite", "repaired")


SINGLE_MODEL = (
    "model single\n"
    "latent a exogenous\n"
    "latent b endogenous\n"
    "indicators a: x1\n"
    "indicators b: y1\n"
    "path a -> b\n"
)


class TestPredictScoresCommand:
    def test_homogeneous_echo(self, tmp_path, rng):
        model = parse_model(MODEL_TEXT)
        cats = rng.integers(1, 5, size=60)
        cats[:4] = [1, 2, 3, 4]
        values = np.tile(cats[:, None], (1, 4))
        path = tmp_path / "homog.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(model.indicator_names)
            writer.writerows(values.tolist())
        model_path = tmp_path / "tiny.model"
        model_path.write_text(MODEL_TEXT)
        out = tmp_path / "out"
        code = main(
            ["predict-scores", "--model", str(model_path), "--data", str(path),
             "--rule", "mode", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out / "predicted_categories.csv")
        got = np.array([[int(r["a"]), int(r["b"])] for r in rows])
        assert np.array_equal(got[:, 0], cats)
        assert np.array_equal(got[:, 1], cats)

    def test_coherency_report_single_indicator_blocks(self, tmp_path, rng):
        # single-indicator blocks: every response is homogeneous by
        # construction and the Pearson arm stays nonsingular
        x = rng.integers(1, 5, size=80)
        noise = rng.integers(-1, 2, size=80)
        y = np.clip(x + noise, 1, 4)
        x[:4] = y[:4] = [1, 2, 3, 4]
        path = tmp_path / "pair.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x1", "y1"])
            writer.writerows(np.column_stack([x, y]).tolist())
        model_path = tmp_path / "single.model"
        model_path.write_text(SINGLE_MODEL)
        out = tmp_path / "out"
        code = main(
            ["predict-scores", "--model", str(model_path), "--data", str(path),
             "--rule", "median", "--coherency", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out / "predicted_categories.csv")
        got = np.array([[int(r["a"]), int(r["b"])] for r in rows])
        assert np.array_equal(got[:, 0], x)
        assert np.array_equal(got[:, 1], y)
        coherency = read_rows(out / "coherency.csv")
        assert {c["rule"] for c in coherency} == {"mode", "median", "mean"}
        # raw single-indicator scores are the codes themselves
        for row in coherency:
            assert float(row["exact_pct"]) == 100.0


    @pytest.mark.parametrize("codes", [(2, 3, 4, 5, 6), (1, 3, 5)])
    def test_coherency_compares_internal_codes(self, tmp_path, rng, codes):
        # the codes are labels: a single-indicator score is its own category
        # whatever codes the data use, so every rule agrees exactly
        labels = np.array(codes)
        x = rng.integers(0, len(codes), size=80)
        y = np.clip(x + rng.integers(-1, 2, size=80), 0, len(codes) - 1)
        x[: len(codes)] = y[: len(codes)] = np.arange(len(codes))
        path = tmp_path / "labels.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x1", "y1"])
            writer.writerows(np.column_stack([labels[x], labels[y]]).tolist())
        model_path = tmp_path / "single.model"
        model_path.write_text(SINGLE_MODEL)
        out = tmp_path / "out"
        code = main(["predict-scores", "--model", str(model_path), "--data", str(path),
                     "--coherency", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "predicted_categories.csv")
        got = np.array([[int(r["a"]), int(r["b"])] for r in rows])
        assert np.array_equal(got, np.column_stack([x, y]) + 1)
        coherency = read_rows(out / "coherency.csv")
        assert len(coherency) == 6
        for row in coherency:
            assert float(row["exact_pct"]) == 100.0

    def test_coherency_reuses_rule_prediction(self, tmp_path, rng, monkeypatch):
        _, _, model_path, data_path = write_inputs(tmp_path, rng, npoints=6)
        real = cli.predict_categories
        rules = []

        def counting(*args, **kwargs):
            rules.append(kwargs["rule"])
            return real(*args, **kwargs)

        real_intervals = scores._block_intervals
        builds = []

        def counting_intervals(*args):
            builds.append(args[-1])
            return real_intervals(*args)

        monkeypatch.setattr(cli, "predict_categories", counting)
        monkeypatch.setattr(scores, "_block_intervals", counting_intervals)
        common = ["predict-scores", "--model", str(model_path), "--data", str(data_path)]
        outs = {name: tmp_path / name for name in ("median", "mode", "plain")}
        assert main([*common, "--rule", "median", "--coherency", "--out", str(outs["median"])]) == 0
        assert rules == []  # every rule runs in the one pass over the latents
        assert builds == ["a", "b"]  # each latent's intervals are built once for all rules
        assert main([*common, "--rule", "mode", "--coherency", "--out", str(outs["mode"])]) == 0
        assert main([*common, "--rule", "median", "--out", str(outs["plain"])]) == 0
        assert rules == ["median"]
        assert builds == ["a", "b"] * 3
        # the --rule column and the coherency rows do not depend on which rule is chosen
        assert (outs["median"] / "coherency.csv").read_bytes() == (
            outs["mode"] / "coherency.csv"
        ).read_bytes()
        for name in ("predicted_categories.csv", "latent_thresholds.csv"):
            assert (outs["median"] / name).read_bytes() == (outs["plain"] / name).read_bytes()


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["polychoric", "predict-scores"])
    def test_rejected_where_nothing_is_drawn(self, tmp_path, rng, capsys, command):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        model = ["--model", str(model_path)] if command == "predict-scores" else []
        argv = [command, *model, "--data", str(data_path), "--seed", "1",
                "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_recorded_where_random_numbers_are_drawn(self, tmp_path, rng):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "fit"
        assert main(["fit", "--model", str(model_path), "--data", str(data_path),
                     "--bootstrap", "3", "--seed", "5", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["arguments"]["seed"] == 5
        out = tmp_path / "poly"
        assert main(["polychoric", "--data", str(data_path), "--out", str(out)]) == 0
        assert "seed" not in json.loads((out / "manifest.json").read_text())["arguments"]


class TestSimulateCommand:
    def test_idempotent_outputs(self, tmp_path):
        args = ["simulate", "--law", "normal", "--npoints", "4", "--reps", "2",
                "--n", "120", "--seed", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("bias_report.csv", "outer_summary.csv", "failures.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert [m1["outputs"][str(out1 / n)] for n in ("bias_report.csv",)] == [
            m2["outputs"][str(out2 / n)] for n in ("bias_report.csv",)
        ]

    def test_bias_report_layout(self, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["simulate", "--law", "beta", "--npoints", "4", "--reps", "2",
             "--n", "120", "--seed", "2", "--out", str(out)]
        ) == 0
        rows = read_rows(out / "bias_report.csv")
        assert len(rows) == 15
        assert set(rows[0].keys()) >= {
            "section", "parameter", "p05", "p10", "p25", "p50", "p75", "p90", "p95",
            "mean", "sd", "geometric_mean", "n_used", "n_excluded",
        }
        ratio_rows = [r for r in rows if r["section"] == "ratio"]
        assert all(r["geometric_mean"] != "" for r in ratio_rows)

    def test_every_replication_failed_names_the_first_reason(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--n", "3", "--reps", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: every replication failed (2 of 2); replication 0: "
            "correlation matrix is not positive definite; re-run with PD repair enabled\n"
        )
        assert list(out.iterdir()) == []


def fmt_writer(path, header, rows):
    """The per-cell formatter the CLI used before writing Python values directly."""

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


class TestOutputFormat:
    def test_predict_scores_bytes_match_fmt_writer(self, tmp_path, rng):
        model, _, model_path, data_path = write_inputs(tmp_path, rng, npoints=6)
        out = tmp_path / "out"
        assert main(
            ["predict-scores", "--model", str(model_path), "--data", str(data_path),
             "--rule", "median", "--out", str(out)]
        ) == 0
        data = load_data(data_path, model, kinds="ordinal")
        sigma, thresholds = polychoric_matrix(data)
        fit = fit_correlation_model(sigma, model)
        lt = latent_thresholds(thresholds, fit.weights.standardized, model)
        predicted = predict_categories(
            data, lt, thresholds, fit.weights.standardized, model, rule="median"
        )
        fmt_writer(
            tmp_path / "predicted.csv", ["subject", *model.latent_names],
            [[s + 1, *predicted[s]] for s in range(data.n_rows)],
        )
        fmt_writer(
            tmp_path / "thresholds.csv", ["latent", "cut_index", "value"],
            [[name, i + 1, cut] for j, name in enumerate(model.latent_names)
             for i, cut in enumerate(lt.cuts[j])],
        )
        assert (out / "predicted_categories.csv").read_bytes() == (
            tmp_path / "predicted.csv"
        ).read_bytes()
        assert (out / "latent_thresholds.csv").read_bytes() == (
            tmp_path / "thresholds.csv"
        ).read_bytes()

    def test_outputs_ignore_numpy_print_options(self, tmp_path, rng):
        # numpy scalars reaching the csv module would be written with str(),
        # which follows numpy's print options; the legacy mode keeps 12 digits
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        common = ["--model", str(model_path), "--data", str(data_path)]
        runs = {
            "opls": ["fit", *common, "--mode", "opls", "--bootstrap", "2"],
            "pls": ["fit", *common, "--mode", "pls", "--bootstrap", "5"],
            "poly": ["polychoric", "--data", str(data_path)],
            "pred": ["predict-scores", *common, "--coherency"],
            "sim": ["simulate", "--reps", "2", "--n", "120", "--seed", "1"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / "plain" / name)]) == 0, name
            with np.printoptions(legacy="1.13"):
                assert main([*argv, "--out", str(tmp_path / "legacy" / name)]) == 0, name
        files = sorted((tmp_path / "plain").glob("*/*.csv"))
        assert len(files) == 23
        for path in files:
            legacy = tmp_path / "legacy" / path.relative_to(tmp_path / "plain")
            assert path.read_bytes() == legacy.read_bytes(), path.name


class TestIntegerTableWriter:
    """The bulk writer of integer tables against the csv module it stands in for."""

    @pytest.mark.parametrize("chunk, rows", [(cli._ROW_CHUNK, 1), (7, 1), (7, 7), (7, 8), (7, 23)])
    def test_bytes_match_csv_writer(self, tmp_path, rng, monkeypatch, chunk, rows):
        monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
        values = rng.integers(1, 10, size=(rows, 3)) * 10 ** rng.integers(0, 13, size=(rows, 3))
        header = ["subject", "a", "b", "c"]
        cli._write_csv(tmp_path / "bulk.csv", header, values)
        with (tmp_path / "csv.csv").open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows([i, *row] for i, row in enumerate(values.tolist(), 1))
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


class TestInputErrors:
    """Unreadable or out-of-range input exits 2 with one line naming the file or column."""

    @pytest.mark.parametrize("where", ["header", "late row"])
    def test_non_utf8_data_file(self, tmp_path, rng, capsys, where):
        _, _, _, data_path = write_inputs(tmp_path, rng, n=3000)
        text = data_path.read_bytes()
        at = text.index(b",") if where == "header" else len(text) - 3
        data_path.write_bytes(text[:at] + b"\xff" + text[at:])
        out = tmp_path / "out"
        assert main(["polychoric", "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data file '{data_path}' is not UTF-8 text")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_non_utf8_model_file(self, tmp_path, rng, capsys):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        model_path.write_bytes(b"# caf\xe9\n" + model_path.read_bytes())
        out = tmp_path / "out"
        code = main(["fit", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file '{model_path}' is not UTF-8 text")
        assert err.count("\n") == 1

    def test_byte_order_marks_change_nothing(self, tmp_path, rng):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        bom_model, bom_data = tmp_path / "bom.model", tmp_path / "bom.csv"
        bom_model.write_bytes(b"\xef\xbb\xbf" + model_path.read_bytes())
        bom_data.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
        assert serialize_model(cli._load_model(str(bom_model))) == serialize_model(
            cli._load_model(str(model_path))
        )
        runs = {
            "polychoric_matrix.csv": lambda m, d: ["polychoric", "--data", d],
            "weights.csv": lambda m, d: ["fit", "--model", m, "--data", d, "--mode", "opls"],
        }
        for name, argv in runs.items():
            outputs = []
            for m, d in ((model_path, data_path), (bom_model, bom_data)):
                out = tmp_path / f"{name}-{d.name}"
                assert main(argv(str(m), str(d)) + ["--out", str(out)]) == 0
                outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
            assert name in outputs[0]
            assert outputs[0] == outputs[1]

    def test_code_beyond_float_integers(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("a,b,c\n1,2,1\n2,1,2\n1,1,2\n2,2,1e20\n1,2,1\n")
        assert main(["polychoric", "--data", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: ordinal column 'c' holds code 1e+20; codes must be below 2**53\n"
        )

    @pytest.mark.parametrize("bootstrap", [[], ["--bootstrap", "5"]])
    def test_value_whose_square_overflows(self, tmp_path, capsys, bootstrap):
        model_path = tmp_path / "tiny.model"
        model_path.write_text(MODEL_TEXT)
        path = tmp_path / "huge.csv"
        path.write_text("x1,x2,y1,y2\n1e300,2,3,4\n2,3,4,1\n3,4,1,2\n1,1,2,3\n")
        out = tmp_path / "out"
        code = main(["fit", "--model", str(model_path), "--data", str(path), "--mode", "pls",
                     *bootstrap, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: column 'x1' holds values too large or too small for Pearson correlations: "
            "their squares overflow or underflow\n"
        )
        assert list(out.iterdir()) == []

    def test_code_far_above_the_row_count(self, tmp_path):
        peaks = {}
        for top in (3, 20_000_001):
            path = tmp_path / f"codes_{top}.csv"
            path.write_text(f"a,b,c\n1,2,1\n2,1,2\n1,1,2\n2,2,{top}\n1,2,1\n")
            out = tmp_path / f"out_{top}"
            tracemalloc.start()
            try:
                assert main(["polychoric", "--data", str(path), "--out", str(out)]) == 0
                peaks[top] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert read_rows(out / "category_map.csv")[-1]["original_code"] == str(top)
        # a table indexed by code would take 160 MB
        assert peaks[20_000_001] < peaks[3] + 4 * 2**20
        small, huge = (read_rows(tmp_path / f"out_{top}" / "polychoric_matrix.csv")
                       for top in (3, 20_000_001))
        assert small == huge


class TestOutputContract:
    COMMANDS = {
        "fit": lambda m, d: ["fit", *m, *d, "--mode", "opls", "--bootstrap", "3"],
        "polychoric": lambda m, d: ["polychoric", *d, "--repair-pd"],
        "predict-scores": lambda m, d: ["predict-scores", *m, *d, "--coherency"],
        "simulate": lambda m, d: ["simulate", "--reps", "2", "--n", "120", "--seed", "1"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_lists_every_csv_with_its_checksum(self, tmp_path, rng, command):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        argv = self.COMMANDS[command](["--model", str(model_path)], ["--data", str(data_path)])
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        csvs = sorted(out.glob("*.csv"))
        assert csvs and sorted(p.name for p in out.iterdir()) == sorted(
            [p.name for p in csvs] + ["manifest.json"]
        )
        assert manifest["outputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs
        }

    def test_failing_run_writes_nothing(self, tmp_path, rng, capsys):
        _, _, model_path, _ = write_inputs(tmp_path, rng)
        path = tmp_path / "interval.csv"
        path.write_text("x1,x2,y1,y2\n1.5,2,3,4\n2,3,4,1\n3,4,1,2\n")
        out = tmp_path / "out"
        code = main(["predict-scores", "--model", str(model_path), "--data", str(path),
                     "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unwritable_out_is_input_error(self, tmp_path, rng, capsys):
        _, _, _, data_path = write_inputs(tmp_path, rng)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = blocker / "sub"
        assert main(["polychoric", "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to '{out}'")
        # the directory exists, but a table cannot be written into it
        out = tmp_path / "taken"
        (out / "thresholds.csv").mkdir(parents=True)
        assert main(["polychoric", "--data", str(data_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write outputs to '{out}'")

    @pytest.mark.parametrize("n_boot", ["-3", "1"])
    def test_bootstrap_below_two_is_input_error(self, tmp_path, rng, capsys, n_boot):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(["fit", "--model", str(model_path), "--data", str(data_path),
                     "--bootstrap", n_boot, "--out", str(out)])
        assert code == 2
        assert f"n_boot must be at least 2, got {n_boot}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mode", ["pls", "opls"])
    def test_negative_bootstrap_seed_is_input_error(self, tmp_path, rng, capsys, mode):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(["fit", "--model", str(model_path), "--data", str(data_path), "--mode", mode,
                     "--bootstrap", "5", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--max-iter", "0"), ("--max-iter", "-3"),
                                             ("--tol", "0"), ("--tol", "-1")])
    @pytest.mark.parametrize("mode", ["pls", "opls"])
    def test_iteration_limits_are_input_errors(self, tmp_path, rng, capsys, flag, value, mode):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main(["fit", "--model", str(model_path), "--data", str(data_path), "--mode", mode,
                     "--bootstrap", "5", flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "polychoric"])
    def test_repeated_header_column_is_input_error(self, tmp_path, rng, capsys, command):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        lines = data_path.read_text().splitlines()
        path = tmp_path / "repeated.csv"
        path.write_text("\n".join(f"{line},{line.split(',')[0]}" for line in lines) + "\n")
        model = ["--model", str(model_path)] if command == "fit" else []
        code = main([command, *model, "--data", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: repeated data column 'x1'\n"


class TestEpsilonValidation:
    """A smoothing epsilon that is not a finite number >= 0 is an input error."""

    @staticmethod
    def argv(command, model_path, data_path):
        fit = ["fit", "--model", str(model_path), "--data", str(data_path)]
        return {
            "polychoric": ["polychoric", "--data", str(data_path)],
            "fit-opls": [*fit, "--mode", "opls"],
            "fit-opls-bootstrap": [*fit, "--mode", "opls", "--bootstrap", "5"],
            "fit-pls": [*fit, "--mode", "pls"],
            "predict-scores": ["predict-scores", "--model", str(model_path),
                               "--data", str(data_path)],
            "simulate": ["simulate", "--reps", "2", "--n", "50"],
        }[command]

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "command", ["polychoric", "fit-opls", "fit-opls-bootstrap", "predict-scores", "simulate"]
    )
    def test_rejected(self, tmp_path, rng, capsys, command, epsilon):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        out = tmp_path / "out"
        code = main([*self.argv(command, model_path, data_path), "--epsilon", epsilon,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "smoothing epsilon must be finite and nonnegative" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_ignored_by_pls_fit(self, tmp_path, rng, epsilon):
        _, _, model_path, data_path = write_inputs(tmp_path, rng)
        argv = self.argv("fit-pls", model_path, data_path)
        assert main([*argv, "--epsilon", epsilon, "--out", str(tmp_path / "out")]) == 0


FUZZ_COMMANDS = {
    "fit-pls": ["fit", "--mode", "pls"],
    "fit-opls": ["fit", "--mode", "opls"],
    "fit-pls-bootstrap": ["fit", "--mode", "pls", "--bootstrap", "3"],
    "fit-opls-bootstrap": ["fit", "--mode", "opls", "--bootstrap", "3"],
    "polychoric": ["polychoric"],
    "predict-scores": ["predict-scores", "--coherency"],
}
ODD_CELLS = ["1e300", "-1e300", "-2", "0", "2.5", "nan", "inf", "-inf", "", "1e20", "x"]


@st.composite
def fuzzed_inputs(draw):
    """A MODEL_TEXT model file and a CSV of at most 50 rows, with up to two kinds of fault."""
    faults = draw(st.sets(st.sampled_from(["columns", "one-category", "cells", "file"]),
                          max_size=2))
    n = draw(st.integers(20, 50) | st.integers(0, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    latent = rng.standard_normal(n)
    codes = np.clip(np.rint(latent[:, None] + 0.7 * rng.standard_normal((n, 4))) + 3, 1, 5)
    cells = codes.astype(int).astype(str).tolist()
    names = list(draw(st.permutations(["x1", "x2", "y1", "y2"])))
    if "columns" in faults:
        change = draw(st.sampled_from(["drop", "repeat", "extra"]))
        if change == "drop":
            del names[-1]
            cells = [row[:-1] for row in cells]
        else:
            names.append(names[0] if change == "repeat" else "z1")
            cells = [[*row, row[0]] for row in cells]
    if n and "one-category" in faults:
        j = draw(st.integers(0, len(names) - 1))
        for row in cells:
            row[j] = cells[0][j]
    for _ in range(draw(st.integers(1, 3)) if n and "cells" in faults else 0):
        row, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(names) - 1))
        cells[row][j] = draw(st.sampled_from(ODD_CELLS))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    files = ["".join(",".join(row) + end for row in [names, *cells]).encode(), MODEL_TEXT.encode()]
    if "file" in faults:
        i = draw(st.integers(0, 1))  # the data or the model file
        damage = draw(st.sampled_from(["empty", "bom", "byte"]))
        if damage == "empty":
            files[i] = b""
        elif damage == "bom":
            files[i] = b"\xef\xbb\xbf" + files[i]
        else:
            at = draw(st.integers(0, len(files[i])))
            files[i] = files[i][:at] + b"\xff" + files[i][at:]
    return tuple(files)


class TestFuzzedInputs:
    """Any small damaged input ends in exit 0, 2 or 3, an ``error:`` line and no traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(command=st.sampled_from(sorted(FUZZ_COMMANDS)), files=fuzzed_inputs())
    @example(command="fit-pls",
             files=(b"x1,x2,y1,y2\n1e300,2,3,4\n2,3,4,1\n3,4,1,2\n1,1,2,3\n", MODEL_TEXT.encode()))
    @example(command="fit-pls-bootstrap",
             files=(b"x1,x2,y1,y2\n1e300,2,3,4\n2,3,4,1\n3,4,1,2\n1,1,2,3\n", MODEL_TEXT.encode()))
    def test_exit_code_and_one_error_line(self, command, files):
        with tempfile.TemporaryDirectory() as tmp:
            data_path, model_path = Path(tmp) / "data.csv", Path(tmp) / "tiny.model"
            data_path.write_bytes(files[0])
            model_path.write_bytes(files[1])
            model = [] if command == "polychoric" else ["--model", str(model_path)]
            argv = [*FUZZ_COMMANDS[command], *model, "--data", str(data_path),
                    "--out", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
