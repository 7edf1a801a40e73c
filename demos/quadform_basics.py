"""Tour of the quadratic-form view of the classical spectrum estimators.

Every estimator here is the same object in disguise: a symmetric coefficient
matrix A sandwiched between phase-rotated copies of the data.  This script
builds A for each family at a small size, reads off the quantities the error
certificates consume (the dense form's exact norms, and the closed-form
bounds on them that each family gives in the same record), and confirms
that the fast evaluation paths agree with the dense quadratic form.
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
    exact = build_matrix(spec, N).certificate_params
    params = certificate_params(spec, N)
    line = f"{name:28s}  ||A||_2 = {exact.spectral:.4f}  ||A||_F^2 = {exact.frobenius_sq:.4f}"
    if params is None:
        line += "  (no concentration certificate: envelope >= 1)"
    else:
        line += f"  closed form: envelope <= {params.envelope:.4f}, truncation {params.truncation}"
    print(line)

print("\nbartlett coefficient matrix (scaled by N):")
print((build_matrix(Bartlett(4), N).matrix * N).astype(int))

print("\ndiagonal profile of the bartlett matrix at lag 1:")
form = build_matrix(Bartlett(4), N)
profile = diagonal_profile(form, 1)
print("  entries:", np.round(profile, 4))
print(f"  sup norm {np.abs(profile).max():.4f} (= ||B[1]||_2 <= ||A||_2), l2 norm {np.linalg.norm(profile):.4f} (= ||B[1]||_F <= ||A||_F)")

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
