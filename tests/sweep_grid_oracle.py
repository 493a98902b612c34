"""Sweep acceptance criterion 03's table generator over many seeds against a grid oracle.

Criterion 03 draws 50 random tables and thresholds from one seed and checks
each pair solve against a 2001-point grid over [-0.999, 0.999]. This script
runs the same generator over seeds 0-399 (20 000 tables) with the same
tolerances. To stay near a minute it takes every tenth point of that grid,
then the full grid's 21 points around the best of them. Newton starts that
misled the solve failed here on seeds the criterion's own seed never drew.

It is not collected by pytest (its name does not match ``test_*.py``). Run it
from the repository root:

    PYTHONPATH=src python tests/sweep_grid_oracle.py [first_seed last_seed]

It prints each failing table and exits with status 1 if there is one.
"""

import sys
import time

import numpy as np

from oplspm import ContingencyTable, ThresholdSet, cell_probabilities, polychoric_pair

GRID = np.linspace(-0.999, 0.999, 2001)  # criterion 03's grid
COARSE = 10  # grid points per coarse step
RHO_TOL, LOGLIK_TOL = 1e-3, 1e-6  # criterion 03's tolerances


def criterion_tables(seed):
    """Criterion 03's 50 tables of one seed, as (table, thresholds_h, thresholds_k)."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        ih, ik = rng.integers(2, 10, 2)
        ts_h = ThresholdSet(np.sort(rng.normal(size=ih - 1)), tuple(range(1, ih + 1)))
        ts_k = ThresholdSet(np.sort(rng.normal(size=ik - 1)), tuple(range(1, ik + 1)))
        counts = rng.integers(0, 25, size=(ih, ik)).astype(float)
        counts[0, 0] += 1
        counts[-1, -1] += 1
        yield ContingencyTable(counts), ts_h, ts_k  # default smoothing eps=0.5


def grid_maximum(table, ts_h, ts_k):
    """The best point of the 2001-point grid near the best of every tenth point, and its loglikelihood."""

    def loglik(rho):
        probs = cell_probabilities(ts_h, ts_k, rho)
        return np.sum(table.smoothed() * np.log(np.maximum(probs, 1e-300)), axis=(1, 2))

    best = COARSE * int(np.argmax(loglik(GRID[::COARSE])))
    near = GRID[max(best - COARSE, 0) : best + COARSE + 1]
    ll = loglik(near)
    return near[int(np.argmax(ll))], float(ll.max())


def main(first=0, last=399):
    start, failures, count = time.perf_counter(), 0, 0
    for seed in range(first, last + 1):
        for t, (table, ts_h, ts_k) in enumerate(criterion_tables(seed)):
            fit = polychoric_pair(table, ts_h, ts_k)
            rho, loglik = grid_maximum(table, ts_h, ts_k)
            count += 1
            if abs(fit.rho - rho) >= RHO_TOL or loglik - fit.loglik >= LOGLIK_TOL:
                failures += 1
                print(
                    f"seed {seed} table {t} {table.counts.shape}: rho {fit.rho:.6f}, "
                    f"grid {rho:.6f}, loglik shortfall {loglik - fit.loglik:.3e}"
                )
    print(f"{count} tables, {failures} failing, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*(int(a) for a in sys.argv[1:3])))
