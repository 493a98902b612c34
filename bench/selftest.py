"""Self-test of the benchmark: tiny sizes, every metric, corrupted outputs.

    python3 bench/selftest.py

Kept out of pytest collection on purpose (the file name does not match
``test_*.py``): it runs every workload and takes about a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys
import unittest

import run

sys.path.insert(0, str(run.SRC))

import oplspm.cli  # noqa: E402
import oplspm.estimation  # noqa: E402
import oplspm.polychoric  # noqa: E402
import oplspm.simulate  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, compare  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--size", "tiny", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def corrupted_rho(delta: float = 1e-3):
    """Perturb one correlation of every matrix the package computes."""

    def perturb(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sigma = result[0] if isinstance(result, tuple) else result
            values = sigma.values.copy()
            values[0, 1] += delta
            values[1, 0] += delta
            sigma = dataclasses.replace(sigma, values=values)
            return (sigma, *result[1:]) if isinstance(result, tuple) else sigma

        return wrapper

    patched = [
        (module, name, getattr(module, name))
        for module in (oplspm.cli, oplspm.simulate, oplspm.estimation)
        for name in ("polychoric_matrix", "pearson_matrix")
    ]
    for module, name, fn in patched:
        setattr(module, name, perturb(fn))
    try:
        yield
    finally:
        for module, name, fn in patched:
            setattr(module, name, fn)


class BenchmarkSelfTest(unittest.TestCase):
    def test_end_to_end_metrics_emitted_with_units(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(END_TO_END))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], END_TO_END[name])
                    self.assertGreater(metric["value"], 0.0)

    def test_per_layer_metrics_emitted_and_self_times_add_up(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=1)
                self.assertTrue(result["correct"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics), set(PER_LAYER))
                for name, metric in metrics.items():
                    self.assertEqual(metric["unit"], PER_LAYER[name])
                    self.assertTrue(math.isfinite(metric["value"]))
                parts = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
                parts += metrics["trace.uncovered_s"]["value"]
                self.assertAlmostEqual(parts, metrics["trace.wall_s"]["value"], delta=1e-9)
                self.assertEqual(metrics["failed_frac"]["value"], 0.0)

    def test_corrupted_rho_fails_every_reference_check(self):
        expected = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        work = run.WORK / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        try:
            for name, cls in WORKLOADS.items():
                with self.subTest(workload=name):
                    workload = cls(work, 0, SIZES["tiny"])
                    self.assertEqual(compare(expected[name], workload.reference()), [])
                    with corrupted_rho():
                        self.assertNotEqual(compare(expected[name], workload.reference()), [])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_corrupted_rho_counts_in_failed_frac(self):
        with corrupted_rho():
            result = bench("boot_pls", trace=1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["failed_frac"]["value"], 0.0)

    def test_exclusion_is_failed_unless_the_sample_is_non_pd(self):
        work = run.WORK / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        try:
            ops = WORKLOADS["sim_grid"](work, 2, SIZES["full"]).batch(8, "selftest")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        # Cell 4 (beta law, 4 points) of this batch draws a sample whose
        # polychoric matrix has smallest eigenvalue about -0.0045.
        non_pd = ops[4]
        self.assertIsNone(non_pd.call())
        self.assertEqual(non_pd.verify(None), (0, True, 0, 1))
        failed, ok, _, excluded = ops[0].verify(None)
        self.assertEqual((failed, ok, excluded), (1, False, 1))

    def test_missing_hook_leaves_its_metrics_absent(self):
        crosstab = oplspm.polychoric.crosstab
        del oplspm.polychoric.crosstab
        tracer = Tracer()
        try:
            tracer.install()
        finally:
            tracer.remove()
            oplspm.polychoric.crosstab = crosstab
        metrics = layer_metrics(tracer)
        self.assertNotIn("polychoric.crosstab.s", metrics)
        self.assertIn("polychoric.polychoric_pair.s", metrics)


if __name__ == "__main__":
    unittest.main(verbosity=2)
