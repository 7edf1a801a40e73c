"""Single table of concentration constants and the one tail object that reads them.

The data-matrix tail bound has the shape

    cover^(2n) * multiplier * exp(-rate * min{eps^2 / (scale^4 F^2 p^2),
                                              eps / (scale^2 S p)})

with F and S the Frobenius and spectral norms of the coefficient matrix and p
the sup of the process spectrum.  Gaussian data admits a smaller multiplier
and a much larger rate than general sub-Gaussian data, which is why Gaussian
certificates are tighter at matched inputs.

``NoiseAssumption`` is the only place the shape is written.  ``tail`` is the
forward bound; ``log_budget`` solves it without the cover, whose log
``bounds.BoundContext.budget`` adds, for the exponent that the log of a
failure probability allows, and ``deviation``, the one inverse of the tail,
turns an envelope and a budget into the deviation they prove: an accuracy
target eps is met exactly when that deviation is at most eps.  Quadratic
forms of independent coordinates (``hanson_wright``, ``GAUSSIAN_QUADFORM``)
are the same shape with p = 1 and no cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GAUSSIAN_TAIL_MULTIPLIER = 2.0
GAUSSIAN_TAIL_RATE = 1.0 / 32.0
SUBGAUSSIAN_TAIL_MULTIPLIER = 4.0
SUBGAUSSIAN_TAIL_RATE = 2.0 ** -19

# Quadratic forms of independent coordinates: psi2-bounded coordinates carry a
# two-sided multiplier of 2, standard normal coordinates a multiplier of 1.
HANSON_WRIGHT_RATE = 1.0 / 2048.0
GAUSSIAN_QUADFORM_RATE = 1.0 / 8.0

# Unit-ball cover size per channel dimension pair, and the frequency-grid
# cover factor entering worst-case-over-frequency bounds as log(5 * width^2).
COVER_BASE = 10.0
FREQUENCY_COVER_FACTOR = 5.0


@dataclass(frozen=True)
class NoiseAssumption:
    """(multiplier, rate, scale) of the data-matrix tail bound under one noise law."""

    multiplier: float
    rate: float
    scale: float

    def tail(self, eps: float, frobenius: float, spectral: float, phi: float = 1.0, cover: float = 1.0) -> float:
        """Probability bound, capped at one, that the centered form deviates by more than eps."""
        if eps < 0.0:
            raise ValueError("deviation must be nonnegative")
        if not (frobenius > 0.0 and spectral > 0.0):
            raise ValueError("norms must be positive")
        b2 = self.scale * self.scale
        exponent = self.rate * min(eps * eps / (b2 * b2 * frobenius ** 2 * phi ** 2), eps / (b2 * spectral * phi))
        return min(1.0, cover * self.multiplier * math.exp(-exponent))

    def log_budget(self, log_delta: float) -> float:
        """The exponent the tail must reach, without a cover, at failure probability exp(log_delta)."""
        return (math.log(self.multiplier) - log_delta) / self.rate

    def deviation(self, envelope: float, budget: float, phi: float) -> float:
        """Deviation that an envelope proves at a log budget: the tail solved for eps, zero for a zero envelope."""
        if not envelope >= 0.0:
            raise ValueError("norm envelope must be nonnegative")
        level = envelope * budget
        return self.scale ** 2 * phi * max(level, math.sqrt(level))


GAUSSIAN = NoiseAssumption(GAUSSIAN_TAIL_MULTIPLIER, GAUSSIAN_TAIL_RATE, 1.0)
GAUSSIAN_QUADFORM = NoiseAssumption(1.0, GAUSSIAN_QUADFORM_RATE, 1.0)


def sub_gaussian(sigma: float) -> NoiseAssumption:
    if not sigma >= 1.0:
        # unit-variance coordinates force the sub-gaussian scale to be >= 1
        raise ValueError("sub-gaussian scale must be at least one")
    return NoiseAssumption(SUBGAUSSIAN_TAIL_MULTIPLIER, SUBGAUSSIAN_TAIL_RATE, float(sigma))


def hanson_wright(psi2: float) -> NoiseAssumption:
    """The Hanson-Wright tail of x'Ax for independent coordinates with psi2 norm at most ``psi2``."""
    if not psi2 > 0.0:
        raise ValueError("psi2 bound must be positive")
    return NoiseAssumption(2.0, HANSON_WRIGHT_RATE, float(psi2))
