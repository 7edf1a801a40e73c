"""Monte Carlo verifier for tail bounds of quadratic forms.

Every tail the certificates rest on is one ``constants.NoiseAssumption``:
the data-matrix tails ``GAUSSIAN`` and ``sub_gaussian``, and the tails of
quadratic forms of independent coordinates, ``GAUSSIAN_QUADFORM`` and
``hanson_wright``.  ``monte_carlo_tail_check`` confronts any tail with
simulation; since the bounds are proven, a flagged row indicates an
implementation bug, not a statistical fluke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import rng_stream

__all__ = [
    "TailCheckReport",
    "TailCheckRow",
    "monte_carlo_tail_check",
]


@dataclass(frozen=True)
class TailCheckRow:
    eps: float
    empirical: float
    bound: float
    flagged: bool


@dataclass(frozen=True)
class TailCheckReport:
    """Per-deviation empirical exceedance frequencies vs the analytic bound."""

    rows: tuple
    trials: int

    @property
    def flagged(self) -> bool:
        return any(row.flagged for row in self.rows)


# draws per slab of the Monte Carlo tail check: a 16-dimensional slab is 1 MiB
_STATISTIC_ROWS = 8192


def monte_carlo_tail_check(sampler, statistic, bound_fn, eps_grid, trials: int, seed: int) -> TailCheckReport:
    """Empirical exceedance frequencies against an analytic tail bound.

    ``sampler(rng, count)`` draws a batch of inputs and ``statistic(batch)``
    maps them to one centered scalar per draw; ``bound_fn(eps)`` is the
    analytic tail.  The draws come in slabs of at most ``_STATISTIC_ROWS``
    from one generator, so a sampler that fills its batch in stream order
    (numpy's ``standard_normal`` and ``uniform`` do) gives the numbers of one
    whole batch.  A row is flagged when the empirical frequency exceeds the
    bound by more than three one-sided binomial standard errors; with a proven
    bound a flag indicates a bug.
    """
    trials = int(trials)
    if trials < 10_000:
        raise ValueError("tail check needs at least 10^4 trials")
    grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("eps grid must be finite and non-empty")
    rng = rng_stream(seed)
    stats = np.empty(trials)
    for start in range(0, trials, _STATISTIC_ROWS):
        count = min(_STATISTIC_ROWS, trials - start)
        slab = np.asarray(statistic(sampler(rng, count)), dtype=float)
        if slab.shape != (count,) or not np.all(np.isfinite(slab)):
            raise ValueError("statistic must yield one finite value per trial")
        stats[start : start + count] = slab
    rows = []
    for eps in grid:
        empirical = float(np.mean(stats > eps))
        bound = float(min(1.0, max(0.0, bound_fn(float(eps)))))
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        rows.append(TailCheckRow(float(eps), empirical, bound, empirical > bound + slack))
    return TailCheckReport(tuple(rows), trials)
