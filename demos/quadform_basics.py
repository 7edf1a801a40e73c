"""Tour of the quadratic-form view of the classical spectrum estimators.

Every estimator here is the same object in disguise: a symmetric coefficient
matrix A sandwiched between phase-rotated copies of the data.  This script
builds A for each family at a small size, reads off the quantities the error
certificates consume, and confirms that the fast evaluation paths agree with
the dense quadratic form.
"""

import numpy as np

from specbound import (
    Bartlett,
    BiasedPeriodogram,
    BlackmanTukey,
    DataMatrix,
    UnbiasedPeriodogram,
    Welch,
    bias_coefficients,
    build_matrix,
    certificate_params,
    diagonal_profile,
    evaluate_fast,
    evaluate_generic_grid,
    frequency_grid,
)

N = 12
specs = {
    "biased periodogram": BiasedPeriodogram(),
    "unbiased periodogram": UnbiasedPeriodogram(),
    "blackman-tukey (hann, M=4)": BlackmanTukey(4, "hann"),
    "bartlett (M=4)": Bartlett(4),
    "welch (M=6, hop 3, hann)": Welch(6, 3, "hann"),
}

print(f"coefficient matrices at N = {N}\n")
for name, spec in specs.items():
    form = build_matrix(spec, N)
    params = certificate_params(spec, N)
    line = f"{name:28s}  ||A||_2 = {form.spectral_norm:.4f}  ||A||_F^2 = {form.frobenius_norm**2:.4f}"
    if params is None:
        line += "  (no concentration certificate: envelope >= 1)"
    else:
        line += f"  envelope g = {params.envelope:.4f}  truncation = {params.truncation}"
    print(line)

print("\nbartlett coefficient matrix (scaled by N):")
print((build_matrix(Bartlett(4), N).matrix * N).astype(int))

print("\ndiagonal profile of the bartlett matrix at lag 1:")
profile = diagonal_profile(build_matrix(Bartlett(4), N), 1)
print("  entries:", np.round(profile.entries, 4))
print(f"  sup norm {profile.sup_norm:.4f} (= ||B[1]||_2), l2 norm {profile.l2_norm:.4f} (= ||B[1]||_F)")

print("\ndiagonal sums b[k] determine the estimator mean; bartlett gives 1 - |k|/M:")
lags = bias_coefficients(build_matrix(Bartlett(4), N)).on_lags(5)
for k in range(5):
    print(f"  b[{k}] = {lags[k + 4]:.4f}")

print("\nfast structured paths vs the dense quadratic form (worst entry deviation):")
rng = np.random.default_rng(7)
data = DataMatrix(rng.standard_normal((2, N)))
grid = frequency_grid(17, full_range=True)
for name, spec in specs.items():
    fast = evaluate_fast(spec, data, grid)
    dense = evaluate_generic_grid(data, build_matrix(spec, N), grid)
    print(f"  {name:28s} {np.abs(fast.matrices - dense.matrices).max():.2e}")
