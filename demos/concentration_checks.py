"""Confront the quadratic-form tail bounds with simulation.

The certificates rest on two tail inequalities for x'Ax around its mean: one
for standard normal coordinates and one, with much larger constants, for
general psi2-bounded coordinates.  Both are proven, so the Monte Carlo check
must never flag a violation; the printout shows how conservative each bound
is at each deviation level.
"""

import math

import numpy as np

from specbound import GAUSSIAN_QUADFORM, hanson_wright, monte_carlo_tail_check

dim, trials = 8, 50_000
rng = np.random.default_rng(12)
raw = rng.standard_normal((dim, dim))
matrix = 0.5 * (raw + raw.T)
frob = float(np.linalg.norm(matrix))
spec_norm = float(np.abs(np.linalg.eigvalsh(matrix)).max())
trace = float(np.trace(matrix))


def statistic(batch):
    return np.einsum("ti,ij,tj->t", batch, matrix, batch) - trace


print(f"random symmetric matrix, dim {dim}: ||A||_F = {frob:.2f}, ||A||_2 = {spec_norm:.2f}\n")

print("standard normal coordinates vs the gaussian tail:")
grid = np.linspace(0.0, 40.0 * spec_norm, 9)
report = monte_carlo_tail_check(
    lambda stream, count: stream.standard_normal((count, dim)),
    statistic,
    lambda eps: GAUSSIAN_QUADFORM.tail(eps, frob, spec_norm),
    grid,
    trials,
    seed=1,
)
print(f"{'deviation':>10s} {'empirical':>10s} {'bound':>10s}")
for row in report.rows:
    print(f"{row.eps:10.1f} {row.empirical:10.5f} {row.bound:10.5f}")
print("flagged:", report.flagged)

print("\nuniform coordinates on [-sqrt(3), sqrt(3)] vs the psi2 tail (b = 2 sqrt(3)):")
half = math.sqrt(3.0)
psi2_tail = hanson_wright(2.0 * half)
report = monte_carlo_tail_check(
    lambda stream, count: stream.uniform(-half, half, (count, dim)),
    statistic,
    lambda eps: psi2_tail.tail(eps, frob, spec_norm),
    grid,
    trials,
    seed=2,
)
for row in report.rows:
    print(f"{row.eps:10.1f} {row.empirical:10.5f} {row.bound:10.5f}")
print("flagged:", report.flagged)
print("\nthe psi2 constants are far more conservative: that gap is exactly why")
print("sub-gaussian certificates sit orders of magnitude above gaussian ones.")
