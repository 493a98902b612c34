"""Module attributes the benchmark harness patches or reads.

``bench/selftest.py`` swaps the correlation functions where the CLI,
the simulator and the estimation module see them, deletes
``polychoric.crosstab`` to test a missing hook, ``bench/workloads.py``
wraps ``cli.bootstrap_inner`` to count failed replicates, and
``bench/spans.py`` times the BVN through ``polychoric._bvn_cdf_finite``.
Every name the span tracer wraps (``HOOKS`` in ``bench/spans.py``, read
from that file) must exist too, or its per-layer metrics go missing. A
refactor that drops one of these names breaks the benchmark, so it fails
here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from oplspm import distributions, estimation, polychoric

PATCH_POINTS = [
    (module, name, polychoric)
    for module in ("oplspm.cli", "oplspm.simulate", "oplspm.estimation")
    for name in ("polychoric_matrix", "pearson_matrix")
] + [
    ("oplspm.polychoric", "crosstab", polychoric),
    ("oplspm.polychoric", "polychoric_pair", polychoric),
    ("oplspm.cli", "bootstrap_inner", estimation),
    ("oplspm.polychoric", "_bvn_cdf_finite", distributions),
]


@pytest.mark.parametrize(
    "module, name, home", PATCH_POINTS, ids=[f"{m}.{n}" for m, n, _ in PATCH_POINTS]
)
def test_patch_point_is_the_package_function(module, name, home):
    assert getattr(importlib.import_module(module), name) is getattr(home, name)


def _span_hooks():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(owner, name) for owner, name, _, _ in spans.HOOKS]


SPAN_HOOKS = _span_hooks()


@pytest.mark.parametrize("owner, name", SPAN_HOOKS, ids=[f"{o}.{n}" for o, n in SPAN_HOOKS])
def test_span_hook_target_exists(owner, name):
    module, _, attr = owner.partition(":")
    target = importlib.import_module(module)
    assert callable(getattr(getattr(target, attr) if attr else target, name))
