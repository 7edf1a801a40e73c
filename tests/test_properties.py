"""Property tests of acceptance criteria 1 and 2 over the whole estimator spec space.

One hypothesis strategy per family draws a spec and a sample count N <= 64,
including invalid and degenerate specs (zero widths, length-two tapers that
vanish identically).  Every spec either fails at construction with a
ValueError or satisfies the closed-form bias identity (1e-12), the
fast-path oracle equivalence (1e-10), and, for any rho in [0, 1), equality of
its geometric bias bound with the lag-by-lag sequential sum.  Two last
strategies draw Blackman-Tukey windows and Welch tapers of any sign and size
(Welch at any hop, Bartlett among them), whose closed-form records must
cover the dense form's field by field, and so must their envelopes.  For every family, custom Welch tapers (positive or
signed) and Blackman-Tukey windows near [0, 1] among them, a bias verdict
that holds implies the general check on the closed-form diagonal sums, and
a segment average's verdict equals it.  A float table written as an array
has the bytes of the same table written row by row, rounding ties, cells
next to a power of ten and uniform tables of every shape included, and a
rounding tie is formatted by the scalar formatter.  A positive
semi-definite W W^T of rank at most N/8 takes the low-rank spectral-norm
route and matches the dense eigensolve to 1e-13; under a perturbation
below the gate it stays above the dense norm and within twice the route's
residual of it; an indefinite W diag(+-1) W^T keeps the split or dense
norm bit for bit.  A nonnegative centrosymmetric matrix takes the first
half-size block alone (Perron-Frobenius), matches the dense eigensolve to
1e-13, and no eigenvalue of its second block passes the first block's
largest by more than 1e-13 of it; under a J-odd perturbation below the
gate it stays within the same bounds as the low-rank route.  A
centrosymmetric matrix with a negative entry, exact or so perturbed, gets
the dense eigensolve's norm bit for bit.  In a random real symmetric
matrix no max|d[k]| passes ||A||_2 and no ||d[k]||^2 passes ||A||_F^2 by
more than 4 ulps, so the norm envelope covers every diagonal.  Over stable state-space
models, ``grid_phi_inf`` equals its full-grid evaluation bit for bit.  For
seeds below 2^200 and trial indices on both sides of 2^32, the batch key
pass of ``streams`` gives SeedSequence's own Philox keys, and its reset
generator draws what ``rng_stream`` draws.  Under every library tail, the
log-space budget is finite at any channel count below 10^299 and any delta
in (0, 1), lies within 1e-15 relative of the budget formed from the float
cover 10^(2 channels) wherever that one is finite, and is nondecreasing in
the channel count and in 1 / delta.  Each concentration condition row is
its bound's row with a verdict: it holds exactly when the bound is at most
eps, and it agrees with the reciprocal envelope compared with the accuracy
and confidence demands wherever the bound lies more than 4 ulps from eps.
Hypothesis also draws the
numeric literals of the source, so the examples change with them; edge cases
are pinned with ``@example``: an all-zero custom Blackman-Tukey window,
rejected at construction, Blackman-Tukey hann 32 at 2017 and 2018
samples, the two sides of the lag products' one-block edge, and, for the
spectral norm, ranks at the cap N/8, the zero and a 1 x 1 matrix, a signed
Blackman-Tukey window with a subnormal centre and a matrix whose first
factor row squares past the largest double; for the first-block branch,
N = 1 and 2, the zero matrix, the exchange matrix J, a reducible matrix,
-0.0 entries, a subnormal entry and one negative entry, which takes the
dense eigensolve; for the signed case, a signed Blackman-Tukey window at 16
and 17 samples; for the diagonal norms, a diagonal matrix and one
symmetric off-diagonal pair, whose entries tie ||A||_2, N = 1, the zero
matrix and Bartlett 1 at 64 samples (I / N, whose main diagonal ties
both norms); for the budget, delta 0.025 at 3 channels, where the last bit
moves, 153 channels, the last count whose float cover is finite, and the
smallest subnormal delta with a truncation, whose half rounds to zero;
for the conditions, eps equal to a pointwise or worst-case bound, which
holds.
"""

import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specbound import bounds as bd
from specbound import estimators as est
from specbound import quadform as qf
from specbound import signals
from specbound import experiments
from specbound.constants import (
    COVER_BASE,
    FREQUENCY_COVER_FACTOR,
    GAUSSIAN,
    GAUSSIAN_QUADFORM,
    hanson_wright,
    sub_gaussian,
)
from specbound import streams
from specbound.experiments import write_csv

from conftest import centrosymmetric_blocks, full_grid_phi_inf, sequential_geometric_bias_bound

MAX_SAMPLES = 64
windows = st.sampled_from(est.WINDOW_KINDS)


@st.composite
def periodograms(draw, cls):
    return (lambda: cls()), draw(st.integers(1, MAX_SAMPLES))


@st.composite
def blackman_tukeys(draw):
    n = draw(st.integers(1, MAX_SAMPLES))
    half_width = draw(st.integers(0, n))
    window = draw(windows)
    return (lambda: est.BlackmanTukey(half_width, window)), n


@st.composite
def bartletts(draw):
    block = draw(st.integers(0, 16))
    blocks = draw(st.integers(1, MAX_SAMPLES // max(block, 1)))
    return (lambda: est.Bartlett(block)), max(block, 1) * blocks


@st.composite
def welches(draw):
    segment = draw(st.integers(1, 32))
    hop = draw(st.integers(0, segment))
    segments = draw(st.integers(1, (MAX_SAMPLES - segment) // max(hop, 1) + 1))
    taper = draw(windows)
    return (lambda: est.Welch(segment, hop, taper)), (segments - 1) * max(hop, 1) + segment


SPECS = st.one_of(
    periodograms(est.BiasedPeriodogram),
    periodograms(est.UnbiasedPeriodogram),
    blackman_tukeys(),
    bartletts(),
    welches(),
)


def _construct(build):
    """The spec, or None when construction rejects it with a ValueError."""
    try:
        return build()
    except ValueError:
        return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SPECS)
def test_closed_form_bias_matches_dense_diagonal_sums(case):
    build, n = case
    spec = _construct(build)
    if spec is None:
        return
    closed = est.closed_form_bias(spec, n)
    brute = qf.bias_coefficients(est.build_matrix(spec, n))
    assert np.abs(closed.values - brute.values).max() <= 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SPECS, st.integers(1, 3), st.integers(0, 2**32 - 1))
# both sides of the lag products' one-block edge: 2017 samples and 31 more
# fill one block of 2048 points, 2018 take two
@example((lambda: est.BlackmanTukey(32, "hann"), 2017), 2, 7)
@example((lambda: est.BlackmanTukey(32, "hann"), 2018), 2, 7)
def test_fast_path_matches_generic_oracle(case, channels, seed):
    build, n = case
    spec = _construct(build)
    if spec is None:
        return
    data = qf.DataMatrix(np.random.default_rng(seed).standard_normal((channels, n)))
    grid = qf.frequency_grid(7, full_range=True)
    fast = est.evaluate_fast(spec, data, grid)
    generic = qf.evaluate_generic_grid(data, est.build_matrix(spec, n), grid)
    assert np.abs(fast.matrices - generic.matrices).max() < 1e-10


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SPECS, st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 8))
def test_geometric_bias_bound_equals_sequential_sum(case, rho, extra):
    build, n = case
    spec = _construct(build)
    if spec is None:
        return
    bias = est.closed_form_bias(spec, n)
    truncation = bias.half_width + extra
    cert = bd.geometric_bias_bound(bias, truncation, 1.3, rho)
    assert cert.value == sequential_geometric_bias_bound(bias, truncation, 1.3, rho)


@st.composite
def stable_state_spaces(draw):
    """A state-space model with 1-8 states, 1-6 channels and inputs, spectral radius up to 0.995, D zero or not."""
    states, channels, inputs = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    radius = draw(st.floats(0.0, 0.995))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((states, states))
    a *= radius / signals.spectral_radius(a)
    b, c = rng.standard_normal((states, inputs)), rng.standard_normal((channels, states))
    d = rng.standard_normal((channels, inputs)) if draw(st.booleans()) else np.zeros((channels, inputs))
    return signals.StateSpace(a, b, c, d)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stable_state_spaces())
def test_grid_phi_inf_equals_the_full_grid(model):
    assert signals.grid_phi_inf(model) == full_grid_phi_inf(model)


def _assert_record_covers_the_dense_record(spec, n):
    """Each closed-form norm bound is at least the dense form's exact norm, and so is the truncation width."""
    closed, dense = est.certificate_params(spec, n), est.build_matrix(spec, n).certificate_params
    for name in ("spectral", "frobenius_sq"):
        assert getattr(closed, name) * (1.0 + 1e-12) >= getattr(dense, name), name
    assert closed.truncation >= dense.truncation


@st.composite
def signed_windows(draw):
    """A sample count and a Blackman-Tukey spec whose symmetric window takes any sign and size."""
    n = draw(st.integers(1, MAX_SAMPLES))
    half_width = draw(st.integers(1, n))
    # an all-zero window is rejected at construction
    half = draw(st.lists(st.floats(-10.0, 10.0), min_size=half_width, max_size=half_width).filter(any))
    return est.BlackmanTukey(half_width, half[:0:-1] + half), n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_windows())
def test_blackman_tukey_envelope_covers_the_dense_envelope(case):
    spec, n = case
    envelope = est.certificate_params(spec, n).envelope
    assert envelope * (1.0 + 1e-12) >= bd.envelope_from_form(est.build_matrix(spec, n))
    _assert_record_covers_the_dense_record(spec, n)


@st.composite
def signed_tapers(draw):
    """A sample count and a Welch spec at any hop whose taper takes any sign and size, or a Bartlett spec."""
    m = draw(st.integers(1, 32))
    if draw(st.booleans()):
        return est.Bartlett(m), m * draw(st.integers(1, MAX_SAMPLES // m))
    hop = draw(st.integers(1, MAX_SAMPLES))
    segments = draw(st.integers(1, (MAX_SAMPLES - m) // hop + 1))
    # below about 1e-154 the squared taper underflows, in the dense form too
    taper = draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m).filter(lambda t: max(map(abs, t)) >= 1e-3))
    return est.Welch(m, hop, taper), (segments - 1) * hop + m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_tapers())
def test_welch_envelope_covers_the_dense_envelope(case):
    spec, n = case
    envelope = est.certificate_params(spec, n).envelope
    assert envelope * (1.0 + 1e-12) >= bd.envelope_from_form(est.build_matrix(spec, n))
    _assert_record_covers_the_dense_record(spec, n)


@st.composite
def custom_taper_welches(draw):
    """A callable returning a Welch spec whose custom taper is positive or takes either sign, and a sample count."""
    m = draw(st.integers(1, 32))
    hop = draw(st.integers(1, m))
    segments = draw(st.integers(1, (MAX_SAMPLES - m) // hop + 1))
    low = 1e-3 if draw(st.booleans()) else -10.0
    taper = draw(st.lists(st.floats(low, 10.0), min_size=m, max_size=m).filter(lambda t: max(map(abs, t)) >= 1e-3))
    return (lambda: est.Welch(m, hop, taper)), (segments - 1) * hop + m


@st.composite
def near_unit_windows(draw):
    """A callable returning a Blackman-Tukey spec whose window lies in [0, 1] or strays a little past it, and a sample count."""
    n = draw(st.integers(1, MAX_SAMPLES))
    half_width = draw(st.integers(1, n))
    low, high = (0.0, 1.0) if draw(st.booleans()) else (-0.25, 1.25)
    half = draw(st.lists(st.floats(low, high), min_size=half_width, max_size=half_width))
    return (lambda: est.BlackmanTukey(half_width, half[:0:-1] + half)), n


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(SPECS, custom_taper_welches(), near_unit_windows()), st.floats(0.0, 0.9), st.floats(0.05, 8.0))
# an all-zero custom window, rejected at construction
@example((lambda: est.BlackmanTukey(3, [0.0] * 5), 16), 0.5, 1.0)
def test_every_family_bias_verdict_implies_the_general_check(case, rho, eps):
    build, n = case
    spec = _construct(build)
    if spec is None:
        return
    ctx = bd.BoundContext.from_model(signals.GeometricScalar(rho), bd.GAUSSIAN)
    specific = bd.check_estimator_conditions(spec, n, "bias", eps, 0.1, ctx).holds
    general = bd.check_conditions("bias", eps, 0.1, ctx, bias=est.closed_form_bias(spec, n)).holds
    # a family may ask more (Blackman-Tukey: n >= 2 L r1 / eps), never less;
    # the segment averages ask nothing more
    assert general or not specific
    if isinstance(spec, (est.Bartlett, est.Welch)):
        assert specific == general


def _dense_spectral_norm(matrix):
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


@st.composite
def centrosymmetric_matrices(draw):
    """A symmetric matrix S + JSJ (J the index reversal) of size 1 to 40, exactly centrosymmetric."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((n, n)) * 10.0 ** draw(st.integers(-6, 6))
    symmetric = raw + raw.T
    return symmetric + symmetric[::-1, ::-1], rng


def _perturbed(matrix, rng, fraction):
    """A centrosymmetric matrix plus a J-odd matrix whose ||A - JAJ||_F / 2 is ``fraction`` of the gate."""
    raw = rng.standard_normal(matrix.shape)
    symmetric = raw + raw.T
    skew = symmetric - symmetric[::-1, ::-1]  # J skew J = -skew
    scale = np.linalg.norm(skew)
    if scale > 0.0:
        # ||A - JAJ||_F / 2 = ||perturbation||_F
        matrix = matrix + skew * (fraction * qf._RESIDUAL_GATE * np.linalg.norm(matrix) / scale)
    return matrix


@settings(derandomize=True, max_examples=300, deadline=None)
@given(centrosymmetric_matrices(), st.floats(0.0, 0.9))
@example((est.build_matrix(est.BlackmanTukey(3, [0.2, -0.5, 1.0, -0.5, 0.2]), 16).matrix, np.random.default_rng(0)), 0.0)
@example((est.build_matrix(est.BlackmanTukey(3, [0.2, -0.5, 1.0, -0.5, 0.2]), 17).matrix, np.random.default_rng(0)), 0.9)
def test_signed_centrosymmetric_matrices_take_the_dense_eigensolve(case, fraction):
    """A centrosymmetric part with a negative entry, exact or perturbed below the gate, gets the dense norm bit for bit."""
    matrix, rng = case
    if matrix.min() >= 0.0:
        return  # a 1 x 1 or 2 x 2 draw may be nonnegative, the first block's case
    form = qf.QuadraticForm(_perturbed(matrix, rng, fraction))
    assert form.spectral_norm == _dense_spectral_norm(form.matrix)


@st.composite
def nonnegative_centrosymmetric_matrices(draw):
    """S + JSJ for a nonnegative symmetric S of size 1 to 40, some of its entries zero, scaled by 10^k, |k| <= 6."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < draw(st.floats(0.05, 1.0)))
    symmetric = (raw + raw.T) * 10.0 ** draw(st.integers(-6, 6))
    return symmetric + symmetric[::-1, ::-1]


def _reducible_matrix():
    """Two mirrored 2 x 2 blocks around a middle entry: the largest eigenvalue is in both half-size blocks."""
    matrix = np.zeros((5, 5))
    matrix[:2, :2] = [[2.0, 1.0], [1.0, 0.0]]
    matrix[3:, 3:] = matrix[:2, :2][::-1, ::-1]
    matrix[2, 2] = 0.5
    return matrix


def _one_negative_entry_matrix():
    """All ones but a negative middle entry, its own mirror and transpose."""
    matrix = np.ones((7, 7))
    matrix[3, 3] = -4.0
    return matrix


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonnegative_centrosymmetric_matrices())
@example(np.array([[3.0]]))
@example(np.array([[1.0, 2.0], [2.0, 1.0]]))
@example(np.zeros((6, 6)))
# the exchange matrix J, eigenvalues +1 and -1
@example(np.eye(8)[::-1])
@example(np.eye(9)[::-1])
@example(_reducible_matrix())
# -0.0 off a band of ones
@example(np.where(np.abs(np.subtract.outer(np.arange(9), np.arange(9))) < 3, 1.0, -0.0))
# a nonnegative window with a subnormal centre
@example(est.build_matrix(est.BlackmanTukey(2, [1.0, 1.6e-309, 1.0]), 16).matrix)
@example(_one_negative_entry_matrix())
def test_nonnegative_centrosymmetric_norm_takes_the_first_block_alone(matrix):
    """Perron-Frobenius: a nonnegative C has its norm in the first block, and a negative entry takes the dense eigensolve."""
    form = qf.QuadraticForm(matrix)
    n = form.size
    assert form.spectral_norm == pytest.approx(_dense_spectral_norm(form.matrix), rel=1e-13, abs=0.0)
    first, second = centrosymmetric_blocks(form.matrix)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        value = qf._centrosymmetric_norm(form.matrix, form.frobenius_norm)
    sizes = [call.args[0].shape[-1] for call in eigvalsh.call_args_list]
    if form.matrix.min() >= 0.0:
        assert sizes == [n - n // 2]
        eigenvalues = np.linalg.eigvalsh(first)
        assert value == float(np.abs(eigenvalues).max())
        assert float(np.abs(np.linalg.eigvalsh(second)).max(initial=0.0)) <= eigenvalues.max() * (1.0 + 1e-13)
    else:
        assert sizes == [n]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonnegative_centrosymmetric_matrices(), st.integers(0, 2**32 - 1), st.floats(0.01, 0.9))
# the largest eigenvalue in both blocks: the perturbation moves it at first order, by up to the residual
@example(_reducible_matrix(), 0, 0.9)
def test_first_block_norm_of_a_perturbed_matrix_stays_an_upper_bound(matrix, seed, fraction):
    """A J-odd perturbation leaves C = (A + JAJ)/2 nonnegative, so the first block and the residual bound ||A||_2.

    The split stays above the dense norm, and within twice its residual of it.
    """
    form = qf.QuadraticForm(_perturbed(matrix, np.random.default_rng(seed), fraction))
    dense = _dense_spectral_norm(form.matrix)
    residual = 0.5 * np.linalg.norm(form.matrix - form.matrix[::-1, ::-1])
    assert form.spectral_norm >= dense * (1.0 - 1e-13)
    assert form.spectral_norm <= dense * (1.0 + 1e-13) + 2.0 * residual


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_generic_symmetric_norm_is_the_dense_expression_bit_for_bit(n, seed):
    form = qf.QuadraticForm(np.random.default_rng(seed).standard_normal((n, n)))
    assert form.spectral_norm == _dense_spectral_norm(form.matrix)


@st.composite
def symmetric_matrices(draw):
    """A real symmetric matrix of size 1 to 40, some of its entries zero, scaled by 10^k, |k| <= 6."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((n, n)) * (rng.random((n, n)) < draw(st.floats(0.05, 1.0)))
    return (raw + raw.T) * 10.0 ** draw(st.integers(-6, 6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(symmetric_matrices())
# a diagonal matrix, whose largest entry ties ||A||_2
@example(np.diag([3.0, -1.0, 2.0, 0.5]))
# one symmetric off-diagonal pair, whose entry ties ||A||_2
@example(np.array([[0.0, 1.5], [1.5, 0.0]]))
@example(np.array([[-2.5]]))
@example(np.zeros((6, 6)))
# I / N, where d[0] ties both norms
@example(est.build_matrix(est.Bartlett(1), 64).matrix)
def test_no_diagonal_norm_passes_the_matrix_norms(matrix):
    """Every max|d[k]| is at most ||A||_2 and every ||d[k]||^2 at most ||A||_F^2, within 4 ulps.

    So the envelope max(||A||_2, ||A||_F^2) covers every per-diagonal norm
    pair, and the certificate record keeps none.
    """
    form = qf.QuadraticForm(matrix)
    slack = 1.0 + 4.0 * sys.float_info.epsilon
    spectral, frobenius_sq = form.spectral_norm * slack, form.frobenius_norm ** 2 * slack
    for k in range(form.size):
        entries = np.diagonal(form.matrix, k)
        assert np.abs(entries).max() <= spectral, k
        assert entries @ entries <= frobenius_sq, k


def _psd_of_rank(n, rank, seed, exponent):
    """W W^T for a Gaussian n x rank matrix W scaled by 10^exponent."""
    w = np.random.default_rng(seed).standard_normal((n, rank)) * 10.0 ** exponent
    return w @ w.T


@st.composite
def low_rank_psd_matrices(draw):
    """A positive semi-definite W W^T of size 8 to 64 and rank 1 to N/8, and the generator of its draw."""
    n = draw(st.integers(8, 64))
    rank = draw(st.integers(1, n // 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return _psd_of_rank(n, rank, seed, draw(st.integers(-6, 6))), np.random.default_rng(seed + 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(low_rank_psd_matrices())
# ranks at the cap N/8
@example((_psd_of_rank(16, 2, 16, 0), None))
@example((_psd_of_rank(64, 8, 64, -6), None))
def test_low_rank_route_matches_the_dense_eigensolve(case):
    matrix, _ = case
    form = qf.QuadraticForm(matrix)
    assert qf._low_rank_norm(form.matrix, form.frobenius_norm) == form.spectral_norm
    assert form.spectral_norm == pytest.approx(_dense_spectral_norm(form.matrix), rel=1e-13, abs=0.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(low_rank_psd_matrices(), st.floats(0.01, 0.9))
def test_low_rank_route_of_a_perturbed_matrix_stays_an_upper_bound(case, fraction):
    matrix, rng = case
    raw = rng.standard_normal(matrix.shape)
    symmetric = raw + raw.T
    # ||perturbation||_F, a fraction of the gate
    scale = fraction * qf._RESIDUAL_GATE * np.linalg.norm(matrix) / np.linalg.norm(symmetric)
    form = qf.QuadraticForm(matrix + scale * symmetric)
    factor = qf._pivoted_cholesky(form.matrix, qf._RESIDUAL_GATE * form.frobenius_norm)
    residual = 0.0 if factor is None else np.linalg.norm(form.matrix - factor.T @ factor)
    dense = _dense_spectral_norm(form.matrix)
    assert form.spectral_norm >= dense * (1.0 - 1e-13)
    assert form.spectral_norm <= dense * (1.0 + 1e-13) + 2.0 * residual


@st.composite
def indefinite_low_rank_matrices(draw):
    """W diag(s) W^T, s of both signs, for a Gaussian W of size N = 2 to 64 by 2 to max(2, N/8), scaled by 10^k."""
    n = draw(st.integers(2, 64))
    rank = draw(st.integers(2, max(2, n // 8)))
    signs = np.ones(rank)
    signs[: draw(st.integers(1, rank - 1))] = -1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((n, rank)) * 10.0 ** draw(st.integers(-6, 6))
    return (w * signs) @ w.T


def _pivot_overflow_matrix():
    """A subnormal first pivot over small negative diagonal entries: its factor row squares past the largest double."""
    matrix = np.diag([1e-310] + [-0.5e-12] * 15)
    matrix[0, 1] = matrix[1, 0] = 1.0
    return matrix


@settings(derandomize=True, max_examples=300, deadline=None)
@given(indefinite_low_rank_matrices())
@example(np.zeros((16, 16)))
@example(np.array([[2.5]]))
# a signed Blackman-Tukey window whose centre, and so every first Schur pivot, is subnormal
@example(est.build_matrix(est.BlackmanTukey(2, [-10.0, 1.6e-309, -10.0]), 16).matrix)
@example(_pivot_overflow_matrix())
def test_forms_off_the_low_rank_route_keep_the_split_or_dense_norm_bit_for_bit(matrix):
    """The split, or the dense eigensolve behind it.

    Random full-rank matrices are ``test_generic_symmetric_norm_is_the_dense_expression_bit_for_bit``'s.
    """
    form = qf.QuadraticForm(matrix)
    assert qf._low_rank_norm(form.matrix, form.frobenius_norm) is None
    assert form.spectral_norm == qf._centrosymmetric_norm(form.matrix, form.frobenius_norm)


# zeros, the edges of the plain range, the subnormal and largest doubles and the non-finite values
EDGE_CELLS = [
    0.0, -0.0, 1e-3, -1e-3, *np.nextafter(1e-3, [0.0, 1.0]), 1e4, -1e4, *np.nextafter(1e4, [0.0, np.inf]),
    9999.999999999999, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, np.nan, np.inf, -np.inf,
]


@st.composite
def float_tables(draw):
    """A table of 1, 4 or 91 columns (91: a 9-channel estimate), drawn from a small pool of cells."""
    columns = draw(st.sampled_from((1, 4, 91)))
    rows = draw(st.sampled_from((0, 1, 2, 300)))
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_CELLS), st.floats()), min_size=1, max_size=24))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).choice(np.array(pool), (rows, columns))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def _same_bytes(table_dir, table, index=False) -> bytes:
    """Write ``table`` as an array and row by row, assert the two files agree, and return the bytes."""
    columns = [f"c{k}" for k in range(table.shape[1] + index)]
    rows = [[t] * index + row for t, row in enumerate(table.tolist())]
    from_array = write_csv(table_dir / "array.csv", columns, table, {"k": 1}, index=index)
    from_rows = write_csv(table_dir / "rows.csv", columns, rows, {"k": 1})
    assert from_array.read_bytes() == from_rows.read_bytes()
    return from_array.read_bytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(float_tables(), st.booleans())
def test_array_and_row_tables_write_the_same_bytes(table_dir, table, index):
    _same_bytes(table_dir, table, index)


@st.composite
def decimal_ties(draw):
    """An exact double that ends in a 5 one digit past what its cell keeps: a rounding tie.

    A plain cell (1e-3 <= |v| < 1e4) keeps 12 significant digits, a
    scientific one 13.  With |v| in [10^x, 10^(x+1)) the tie digit sits
    ``places = kept - x`` digits after the point, and an odd multiple of
    2^-places ends there in a 5; past the point, an integer ending in 5 does.
    """
    exponent = draw(st.integers(-7, 14))
    kept = 12 if -3 <= exponent <= 3 else 13
    places = kept - exponent
    if places > 0:
        low = math.ceil(Fraction(10) ** exponent * 2**places)
        high = math.ceil(Fraction(10) ** (exponent + 1) * 2**places)
        odd = draw(st.integers(low, high - 1).filter(lambda a: a % 2 == 1))
        value = odd / 2**places
    else:
        value = float((10 * draw(st.integers(10 ** (kept - 1), 10**kept - 1)) + 5) * 10**-places)
    return draw(st.sampled_from((1.0, -1.0))) * value


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(decimal_ties(), min_size=1, max_size=12), st.booleans())
def test_exact_ties_take_the_fallback_and_keep_their_bytes(table_dir, ties, index):
    table = np.array(ties).reshape(-1, 1)
    with mock.patch.object(experiments, "_format_float", side_effect=experiments._format_float) as counted:
        experiments._format_table(table, index)
    assert counted.call_count == len(ties)
    _same_bytes(table_dir, table, index)


def test_near_ties_built_from_integers_take_the_fallback(table_dir):
    # within an ulp of 1.000001953125 and 0.001000001953125 (12 digits and a
    # 5), and of 1.0000022091255e-5 and 1.0000022091255e5 (13 digits and a 5)
    near = np.array([[1953125 * 512001 * 1e-12, 1953125 * 512001 * 1e-15, 19531255 * 512001 * 1e-18, 19531255 * 512001 * 1e-8]])
    with mock.patch.object(experiments, "_format_float", side_effect=experiments._format_float) as counted:
        experiments._format_table(near, False)
    assert counted.call_count == near.size
    _same_bytes(table_dir, np.vstack([near, -near]))


# every power of ten from 1e-3 to 1e4, the ends of the plain range, with both neighbours
POWERS = np.array([float(f"1e{e}") for e in range(-3, 5)])
NEIGHBOURS = np.concatenate([np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, np.inf)])
# 13 nines and a 5 carry into the next power of ten, plain and scientific alike
CARRIES = np.array([9.9999999999995 * 10.0**e for e in range(-12, 30)] + [9.999999999999995 * 10.0**e for e in range(-12, 30)])


@pytest.mark.parametrize("cells", [NEIGHBOURS, CARRIES], ids=["power_neighbours", "carries"])
def test_cells_next_to_a_power_of_ten(table_dir, cells):
    table = np.concatenate([cells, -cells, np.nextafter(cells, 0.0), np.nextafter(cells, np.inf)]).reshape(-1, 2)
    _same_bytes(table_dir, table, index=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(("scientific", "nan", "inf", "zeros", "negative")),
    st.sampled_from(((0, 3), (1, 1), (3, 64), (2, 130))),
    st.integers(0, 2**32 - 1),
)
def test_uniform_tables_and_shapes(table_dir, kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "scientific":
        table = rng.standard_normal(shape) * 10.0 ** rng.choice([-300, -12, -5, 4, 9, 20, 300], shape)
    elif kind == "nan":
        table = np.full(shape, np.nan)
    elif kind == "inf":
        table = rng.choice([np.inf, -np.inf], shape)
    elif kind == "zeros":
        table = rng.choice([0.0, -0.0], shape)
    else:
        table = -np.abs(rng.standard_normal(shape)) * 10.0 ** rng.integers(-6, 8, shape)
    _same_bytes(table_dir, table, index=bool(seed % 2))


def test_index_past_ten_thousand_rows(table_dir):
    table = np.random.default_rng(5).standard_normal((20011, 1)) * 1e3
    lines = _same_bytes(table_dir, table, index=True).splitlines()
    assert lines[2 + 9999].startswith(b"9999,") and lines[2 + 10000].startswith(b"10000,")
    assert lines[-1].startswith(b"20010,")


def test_import_builds_no_digit_table():
    probe = "import specbound.cli, specbound.experiments as e; print(e._digit_tables.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(0, 2**200 - 1),
    st.one_of(st.integers(0, 2**32 - 8), st.integers(2**32 - 8, 2**32 + 8), st.integers(2**32, 2**70)),
    st.integers(1, 9),
)
def test_batch_keys_are_seed_sequence_keys(seed, first, trials):
    # the suite turns a RuntimeWarning, a uint32 wraparound on numpy scalars among them, into an error
    expected = [
        np.random.SeedSequence(entropy=seed, spawn_key=(first + t,)).generate_state(2, np.uint64) for t in range(trials)
    ]
    if trials > 1:
        low, high = streams._spawn_keys(np.random.SeedSequence(seed), first, trials)
        assert low.dtype == high.dtype == np.uint64
        np.testing.assert_array_equal(np.stack([low, high], axis=1), expected)
    for t, rng in enumerate(streams.trial_streams(seed, first, trials)):
        reference = streams.rng_stream(seed, first + t)
        np.testing.assert_array_equal(rng.bit_generator.state["state"]["key"], expected[t])
        assert rng.standard_normal(5).tobytes() == reference.standard_normal(5).tobytes()
        assert rng.uniform(-1.0, 1.0, 3).tobytes() == reference.uniform(-1.0, 1.0, 3).tobytes()


ASSUMPTIONS = {
    "gaussian": GAUSSIAN,
    "sub_gaussian": sub_gaussian(signals.UNIFORM_SIGMA),
    "hanson_wright": hanson_wright(1.0),
    "gaussian_quadform": GAUSSIAN_QUADFORM,
}


def _float_cover_budget(assumption, channels, delta, truncation):
    """The budget formed from the float cover COVER_BASE^(2 channels), then one log: inf where a float overflows."""
    try:
        cover = COVER_BASE ** (2 * channels)
    except OverflowError:
        return math.inf
    share = delta if truncation is None else delta / 2.0
    budget = math.log(cover * assumption.multiplier / share) / assumption.rate if share > 0.0 else math.inf
    return budget if truncation is None else math.log(FREQUENCY_COVER_FACTOR * truncation ** 2) + budget


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.sampled_from(list(ASSUMPTIONS)),
    st.one_of(st.integers(1, 160), st.integers(1, 10**299)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.one_of(st.none(), st.integers(1, 4096)),
)
@example("gaussian", 3, 0.025, 0.05, None)
@example("gaussian", 3, 0.025, 0.05, 32)
@example("gaussian", 153, 0.05, 0.025, None)
@example("sub_gaussian", 153, 0.05, 0.025, 8)
@example("gaussian", 1, 5e-324, 0.05, 32)
def test_log_space_budget_matches_the_float_cover_and_is_monotone(name, channels, delta, other, truncation):
    assumption = ASSUMPTIONS[name]
    budget = bd.BoundContext(assumption, 1.0, 1.0, channels).budget(delta, truncation)
    assert math.isfinite(budget)
    reference = _float_cover_budget(assumption, channels, delta, truncation)
    if math.isfinite(reference):
        assert budget == pytest.approx(reference, rel=1e-15, abs=0.0)
    # nondecreasing in the channel count and in 1 / delta
    assert bd.BoundContext(assumption, 1.0, 1.0, channels + 1).budget(delta, truncation) >= budget
    smaller, larger = sorted((delta, other))
    context = bd.BoundContext(assumption, 1.0, 1.0, channels)
    assert context.budget(smaller, truncation) >= context.budget(larger, truncation)


def _reference_verdict(assumption, envelope, eps, phi, budget):
    """The concentration condition as the reciprocal envelope against the accuracy and confidence demands."""
    if envelope == 0.0:
        return True
    b2 = assumption.scale ** 2
    return 1.0 / envelope >= max(b2 * b2 * phi * phi / (eps * eps), b2 * phi / eps) * budget


BOUNDS = {"pointwise": bd.pointwise_error_bound, "worst_case": bd.worst_case_error_bound}


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.sampled_from(list(ASSUMPTIONS)),
    st.integers(1, 3),
    st.floats(0.1, 10.0),
    st.tuples(*[st.floats(1e-9, 10.0)] * 2),
    st.integers(1, 4096),
    st.floats(1e-3, 0.5),
    st.floats(1e-6, 1e4),
    st.sampled_from([None, *BOUNDS]),
)
@example("gaussian", 1, 1.0, (1e-3, 1e-3), 4, 0.05, 1.0, "pointwise")
@example("gaussian", 2, 2.5, (1e-4, 2e-3), 64, 0.1, 1.0, "worst_case")
@example("sub_gaussian", 3, 0.7, (5e-6, 1e-6), 32, 0.01, 1.0, "worst_case")
def test_concentration_condition_is_its_bound_compared_with_eps(name, channels, phi, norms, truncation, delta, eps, tie):
    assumption = ASSUMPTIONS[name]
    ctx = bd.BoundContext(assumption, phi, 1.0, channels)
    params = qf.CertificateParams(*norms, truncation)
    if tie is not None:
        # eps at the bound's own value: the condition holds
        eps = BOUNDS[tie](params, delta, ctx).value
    for part, evaluator in BOUNDS.items():
        bound = evaluator(params, delta, ctx)
        cert = bd.check_conditions(part, eps, delta, ctx, params=params)
        assert cert.value == bound.value and cert.inputs == bound.inputs
        assert cert.holds is (bound.value <= eps)
        if part == tie:
            assert cert.holds
        # the reference agrees wherever rounding cannot tip the comparison
        if abs(bound.value / eps - 1.0) > 4.0 * sys.float_info.epsilon:
            if part == "pointwise":
                reference = _reference_verdict(assumption, params.envelope, eps, phi, ctx.budget(delta))
            else:
                reference = _reference_verdict(assumption, params.envelope, eps / 2.0, phi, ctx.budget(delta, truncation))
            assert cert.holds == reference
