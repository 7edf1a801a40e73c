"""Single table of concentration constants used by every bound in the package.

The data-matrix tail bound has the shape

    cover^(2n) * multiplier * exp(-rate * min{eps^2 / (scale^4 F^2 p^2),
                                              eps / (scale^2 S p)})

with F and S the Frobenius and spectral norms of the coefficient matrix and p
the sup of the process spectrum.  Gaussian data admits a smaller multiplier
and a much larger rate than general sub-Gaussian data, which is why Gaussian
certificates are tighter at matched inputs.
"""

from __future__ import annotations

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


GAUSSIAN = NoiseAssumption(GAUSSIAN_TAIL_MULTIPLIER, GAUSSIAN_TAIL_RATE, 1.0)


def sub_gaussian(sigma: float) -> NoiseAssumption:
    if not sigma >= 1.0:
        # unit-variance coordinates force the sub-gaussian scale to be >= 1
        raise ValueError("sub-gaussian scale must be at least one")
    return NoiseAssumption(SUBGAUSSIAN_TAIL_MULTIPLIER, SUBGAUSSIAN_TAIL_RATE, float(sigma))
