"""Module attributes the benchmark harness patches or reads.

``bench/selftest.py`` swaps the correlation functions where the CLI,
the simulator and the estimation module see them, deletes
``polychoric.crosstab`` to test a missing hook, ``bench/workloads.py``
wraps ``cli.bootstrap_inner`` to count failed replicates, and
``bench/spans.py`` times the BVN through ``polychoric._bvn_cdf_finite``.
A refactor that drops one of these names breaks the benchmark, so it
fails here too.
"""

import importlib

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
