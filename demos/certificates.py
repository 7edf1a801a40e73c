"""Finite-sample certificates for a tapered-segment estimator, end to end.

For a scalar process with known geometric covariance decay we ask: with 95%
confidence, how far can the estimated spectrum be from the truth, uniformly
over frequency?  The answer combines a concentration bound (random error)
with a bias bound (systematic error).  The script sweeps the amount of data
and prints how the certified error shrinks, then closes the loop with the
data-driven variant that never looks at the true spectrum.
"""

from specbound import (
    BoundContext,
    GAUSSIAN,
    GeometricScalar,
    Welch,
    certificate_suite,
    evaluate_fast,
    frequency_grid,
    sample_geometric,
)

model = GeometricScalar(0.3)
ctx = BoundContext.from_model(model, GAUSSIAN)
gamma, rho = ctx.decay
delta = 0.05
segment, hop = 32, 16
spec = Welch(segment, hop, "hann")

print(f"process: scalar, covariance decay {gamma:.0f} * {rho}^|k|, spectrum sup {ctx.phi_inf:.3f}")
print(f"estimator: tapered segments (hann), length {segment}, hop {hop}; confidence {1 - delta:.0%}\n")
print(f"{'segments':>9s} {'samples':>8s} {'concentration':>14s} {'bias':>9s} {'total certificate':>18s}")
for segments in (8, 32, 128, 512):
    samples = (segments - 1) * hop + segment
    # the rows `specbound certify` writes for this estimator, by statement
    rows = {cert.statement: cert for cert in certificate_suite(spec, samples, delta, ctx)}
    concentration = rows["worst_case_bound"].value
    bias = rows["bias_bound_geometric"].value
    print(f"{segments:9d} {samples:8d} {concentration:14.3f} {bias:9.4f} {rows['total_worst_bound'].value:18.3f}")

print("\ndata-driven total bound (no true spectrum needed):")
for segments in (512, 8192):
    samples = (segments - 1) * hop + segment
    estimate = evaluate_fast(spec, sample_geometric(rho, samples, seed=1), frequency_grid(101))
    suite = certificate_suite(spec, samples, delta, ctx, estimate_sup=estimate.sup_norm())
    certificate = {cert.statement: cert for cert in suite}["data_driven_bound"]
    factor = dict(certificate.inputs)["a"]
    print(f"  {segments} segments: factor a = {factor:.3f}, observed sup = {estimate.sup_norm():.3f}")
    if certificate.available:
        print(f"    certified worst-case error <= {certificate.value:.3f} with probability {1 - delta:.0%}")
    else:
        print("    no certificate yet: the factor must drop below one")
