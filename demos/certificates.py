"""Finite-sample certificates for a tapered-segment estimator, end to end.

For a scalar process with known geometric covariance decay we ask: with 95%
confidence, how far can the estimated spectrum be from the truth, uniformly
over frequency?  The answer combines a concentration bound (random error)
with a bias bound (systematic error).  The script sweeps the amount of data
and prints how the certified error shrinks, then closes the loop with the
data-driven variant that never looks at the true spectrum.
"""

import numpy as np

from specbound import (
    BoundContext,
    GAUSSIAN,
    GeometricScalar,
    Welch,
    certificate_params,
    closed_form_bias,
    data_driven_error_bound,
    data_driven_factor,
    evaluate_fast,
    frequency_grid,
    geometric_bias_bound,
    sample_geometric,
    worst_case_error_bound,
)

model = GeometricScalar(0.3)
ctx = BoundContext.from_model(model, GAUSSIAN)
gamma, rho = ctx.decay
delta = 0.05
segment, hop = 32, 16

print(f"process: scalar, covariance decay {gamma:.0f} * {rho}^|k|, spectrum sup {ctx.phi_inf:.3f}")
print(f"estimator: tapered segments (hann), length {segment}, hop {hop}; confidence {1 - delta:.0%}\n")
print(f"{'segments':>9s} {'samples':>8s} {'concentration':>14s} {'bias':>9s} {'total certificate':>18s}")
for segments in (8, 32, 128, 512):
    samples = (segments - 1) * hop + segment
    spec = Welch(segment, hop, "hann")
    params = certificate_params(spec, samples)
    concentration = worst_case_error_bound(params, delta, ctx).value
    bias = geometric_bias_bound(closed_form_bias(spec, samples), params.truncation, gamma, rho).value
    print(f"{segments:9d} {samples:8d} {concentration:14.3f} {bias:9.4f} {concentration + bias:18.3f}")

print("\ndata-driven total bound (no true spectrum needed):")
for segments in (512, 8192):
    samples = (segments - 1) * hop + segment
    spec = Welch(segment, hop, "hann")
    params = certificate_params(spec, samples)
    bias = geometric_bias_bound(closed_form_bias(spec, samples), params.truncation, gamma, rho).value
    factor = data_driven_factor(params, delta, ctx)
    estimate = evaluate_fast(spec, sample_geometric(rho, samples, seed=1), frequency_grid(101))
    print(f"  {segments} segments: factor a = {factor:.3f}, observed sup = {estimate.sup_norm():.3f}")
    certificate = data_driven_error_bound(factor, bias, estimate.sup_norm())
    if certificate.available:
        print(f"    certified worst-case error <= {certificate.value:.3f} with probability {1 - delta:.0%}")
    else:
        print("    no certificate yet: the factor must drop below one")
