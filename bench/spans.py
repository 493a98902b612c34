"""Span tracing for the traced run, installed from the benchmark's files only.

Timing wrappers replace package functions at the names where each caller
module imported them (``oplspm.cli.polychoric_matrix``,
``oplspm.polychoric.crosstab``, ``ThresholdSet.map_codes``, ...) and are
removed again when the traced phase ends. A span records name, start, end
and parent; spans stay in memory and are written out at the end.

A span's self time is its duration minus its direct children's durations.
Each span name starts with its layer (the package module), so the layers'
self times plus the part of the traced wall time no span covers add up to
that wall time.
"""

from __future__ import annotations

import importlib
import os
import time
from pathlib import Path

import numpy as np

LAYERS = ("model", "simulate", "polychoric", "distributions", "pls", "estimation", "scores", "cli")


def _file_bytes(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


def _pd_ok(args, kwargs, result):
    return float(result[0].pd_status == "positive-definite")


HOOKS = (
    # (owner, attribute, span name, value recorded from (args, kwargs, result))
    ("oplspm.cli", "parse_model", "model.parse_model", None),
    ("oplspm.cli", "load_data", "model.load_data", _file_bytes),
    ("oplspm.simulate", "generate_dataset", "simulate.generate_dataset", None),
    ("oplspm.cli", "polychoric_matrix", "polychoric.polychoric_matrix", _pd_ok),
    ("oplspm.simulate", "polychoric_matrix", "polychoric.polychoric_matrix", _pd_ok),
    ("oplspm.estimation", "polychoric_matrix", "polychoric.polychoric_matrix", _pd_ok),
    ("oplspm.polychoric", "estimate_thresholds", "polychoric.estimate_thresholds", None),
    ("oplspm.polychoric:ThresholdSet", "map_codes", "polychoric.map_codes", None),
    ("oplspm.polychoric", "crosstab", "polychoric.crosstab", None),
    ("oplspm.polychoric", "polychoric_pair", "polychoric.polychoric_pair", None),
    ("oplspm.cli", "pearson_matrix", "polychoric.pearson_matrix", None),
    ("oplspm.simulate", "pearson_matrix", "polychoric.pearson_matrix", None),
    ("oplspm.estimation", "pearson_matrix", "polychoric.pearson_matrix", None),
    ("oplspm.polychoric", "std_normal_quantile", "distributions.std_normal_quantile", None),
    ("oplspm.polychoric", "_bvn_cdf_finite", "distributions.bvn", lambda a, k, r: len(a[0])),
    ("oplspm.scores", "truncated_normal_median", "distributions.truncated_normal", None),
    ("oplspm.scores", "truncated_normal_mean", "distributions.truncated_normal", None),
    ("oplspm.estimation", "matrix_pls_fit", "pls.matrix_pls_fit",
     lambda a, k, r: r.trace.iterations),
    ("oplspm.cli", "fit_correlation_model", "estimation.fit_correlation_model", None),
    ("oplspm.simulate", "fit_correlation_model", "estimation.fit_correlation_model", None),
    ("oplspm.estimation", "fit_correlation_model", "estimation.fit_correlation_model", None),
    ("oplspm.cli", "bootstrap_inner", "estimation.bootstrap_inner",
     lambda a, k, r: r.n_effective / (r.n_effective + r.n_failed)),
    ("oplspm.cli", "latent_thresholds", "scores.latent_thresholds", None),
    ("oplspm.cli", "predict_categories", "scores.predict_categories",
     lambda a, k, r: len(r)),
    ("oplspm.cli", "concordance_table", "scores.concordance_table", None),
    ("oplspm.cli", "raw_scale_scores", "scores.raw_scale_scores", None),
)


def _owner(spec: str):
    module, _, attr = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """In-memory span recorder; ``install`` swaps the wrappers in, ``remove`` out."""

    def __init__(self):
        # [id, parent id, name, start, end, recorded value]; id 0 is the root.
        self.spans: list[list] = []
        self._stack = [0]
        self._installed: list[tuple[object, str, object]] = []
        self.available: set[str] = {"simulate.run_study", "cli.main"}
        self.wall = 0.0

    def wrap(self, name, fn, record=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if record is not None:
                span[5] = record(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for spec, attr, name, record in HOOKS:
            try:
                owner = _owner(spec)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue  # the metrics built on this span are reported absent
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, record))
            self.available.add(name)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s,value\n")
            for sid, parent, name, start, end, value in self.spans:
                handle.write(f"{sid},{parent},{name},{start!r},{end!r},"
                             f"{'' if value is None else repr(value)}\n")

    def totals(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, summed recorded value."""
        n = len(self.spans)
        parents = np.fromiter((s[1] for s in self.spans), dtype=np.int64, count=n)
        dur = np.fromiter((s[4] - s[3] for s in self.spans), dtype=float, count=n)
        children = np.bincount(parents, weights=dur, minlength=n + 1)
        self_time = dur - children[1:]
        out = {}
        for i, (_, _, name, _, _, value) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0})
            t["calls"] += 1
            t["s"] += dur[i]
            t["self_s"] += self_time[i]
            t["value"] += value or 0.0
        out["<top>"] = {"s": float(children[0])}
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, span names it needs, formula over the per-name totals)
METRICS = (
    ("model.load_data.s", "s", ("model.load_data",), lambda t: t["model.load_data"]["s"]),
    ("model.load_data.mb_per_s", "MB/s", ("model.load_data",),
     lambda t: _ratio(t["model.load_data"]["value"] / 2**20, t["model.load_data"]["s"])),
    ("simulate.generate_dataset.s", "s", ("simulate.generate_dataset",),
     lambda t: t["simulate.generate_dataset"]["s"]),
    ("polychoric.polychoric_matrix.s", "s", ("polychoric.polychoric_matrix",),
     lambda t: t["polychoric.polychoric_matrix"]["s"]),
    ("polychoric.polychoric_matrix.calls", "count", ("polychoric.polychoric_matrix",),
     lambda t: t["polychoric.polychoric_matrix"]["calls"]),
    ("polychoric.pd_ok_frac", "frac", ("polychoric.polychoric_matrix",),
     lambda t: _ratio(t["polychoric.polychoric_matrix"]["value"],
                      t["polychoric.polychoric_matrix"]["calls"])),
    ("polychoric.estimate_thresholds.s", "s", ("polychoric.estimate_thresholds",),
     lambda t: t["polychoric.estimate_thresholds"]["s"]),
    ("polychoric.map_codes.s", "s", ("polychoric.map_codes",),
     lambda t: t["polychoric.map_codes"]["s"]),
    ("polychoric.crosstab.s", "s", ("polychoric.crosstab",),
     lambda t: t["polychoric.crosstab"]["s"]),
    ("polychoric.polychoric_pair.s", "s", ("polychoric.polychoric_pair",),
     lambda t: t["polychoric.polychoric_pair"]["s"]),
    ("polychoric.polychoric_pair.calls", "count", ("polychoric.polychoric_pair",),
     lambda t: t["polychoric.polychoric_pair"]["calls"]),
    ("polychoric.pairs_per_s", "1/s", ("polychoric.polychoric_pair",),
     lambda t: _ratio(t["polychoric.polychoric_pair"]["calls"],
                      t["polychoric.polychoric_pair"]["s"])),
    ("polychoric.pearson_matrix.s", "s", ("polychoric.pearson_matrix",),
     lambda t: t["polychoric.pearson_matrix"]["s"]),
    ("distributions.bvn.calls", "count", ("distributions.bvn",),
     lambda t: t["distributions.bvn"]["calls"]),
    ("distributions.bvn.cells", "count", ("distributions.bvn",),
     lambda t: t["distributions.bvn"]["value"]),
    ("distributions.bvn.calls_per_pair", "count", ("distributions.bvn", "polychoric.polychoric_pair"),
     lambda t: _ratio(t["distributions.bvn"]["calls"], t["polychoric.polychoric_pair"]["calls"])),
    ("distributions.bvn.cells_per_s", "1/s", ("distributions.bvn",),
     lambda t: _ratio(t["distributions.bvn"]["value"], t["distributions.bvn"]["s"])),
    ("pls.matrix_pls_fit.s", "s", ("pls.matrix_pls_fit",),
     lambda t: t["pls.matrix_pls_fit"]["s"]),
    ("pls.matrix_pls_fit.calls", "count", ("pls.matrix_pls_fit",),
     lambda t: t["pls.matrix_pls_fit"]["calls"]),
    ("pls.iterations_per_fit", "count", ("pls.matrix_pls_fit",),
     lambda t: _ratio(t["pls.matrix_pls_fit"]["value"], t["pls.matrix_pls_fit"]["calls"])),
    ("estimation.fit_correlation_model.s", "s", ("estimation.fit_correlation_model",),
     lambda t: t["estimation.fit_correlation_model"]["s"]),
    ("estimation.ending.self_s", "s", ("estimation.fit_correlation_model",),
     lambda t: t["estimation.fit_correlation_model"]["self_s"]),
    ("estimation.bootstrap_inner.s", "s", ("estimation.bootstrap_inner",),
     lambda t: t["estimation.bootstrap_inner"]["s"]),
    ("estimation.bootstrap.self_s", "s", ("estimation.bootstrap_inner",),
     lambda t: t["estimation.bootstrap_inner"]["self_s"]),
    ("estimation.bootstrap.effective_frac", "frac", ("estimation.bootstrap_inner",),
     lambda t: _ratio(t["estimation.bootstrap_inner"]["value"],
                      t["estimation.bootstrap_inner"]["calls"])),
    ("scores.latent_thresholds.s", "s", ("scores.latent_thresholds",),
     lambda t: t["scores.latent_thresholds"]["s"]),
    ("scores.predict_categories.s", "s", ("scores.predict_categories",),
     lambda t: t["scores.predict_categories"]["s"]),
    ("scores.predict_categories.rows_per_s", "1/s", ("scores.predict_categories",),
     lambda t: _ratio(t["scores.predict_categories"]["value"],
                      t["scores.predict_categories"]["s"])),
    ("scores.concordance_table.s", "s", ("scores.concordance_table",),
     lambda t: t["scores.concordance_table"]["s"]),
)
EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced phase; metrics on a missing hook are left out."""
    totals = tracer.totals()
    view = {name: totals.get(name, EMPTY) for name in tracer.available}
    out = {}
    for name, unit, needs, formula in METRICS:
        if all(n in tracer.available for n in needs):
            out[name] = (float(formula(view)), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            float(sum(t["self_s"] for n, t in totals.items() if n.split(".")[0] == layer)), "s"
        )
    out["trace.wall_s"] = (tracer.wall, "s")
    out["trace.uncovered_s"] = (tracer.wall - totals["<top>"]["s"], "s")
    return out
