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
rounding tie is formatted by the scalar formatter.  Over stable state-space
models, ``grid_phi_inf`` equals its full-grid evaluation bit for bit.  For
seeds below 2^200 and trial indices on both sides of 2^32, the batch key
pass of ``streams`` gives SeedSequence's own Philox keys, and its reset
generator draws what ``rng_stream`` draws.
"""

import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specbound import bounds as bd
from specbound import estimators as est
from specbound import quadform as qf
from specbound import signals
from specbound import experiments
from specbound import streams
from specbound.experiments import write_csv

from conftest import full_grid_phi_inf, sequential_geometric_bias_bound

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
    for name in ("spectral", "frobenius_sq", "diagonal"):
        assert getattr(closed, name) * (1.0 + 1e-12) >= getattr(dense, name), name
    assert closed.truncation >= dense.truncation


@st.composite
def signed_windows(draw):
    """A sample count and a Blackman-Tukey spec whose symmetric window takes any sign and size."""
    n = draw(st.integers(1, MAX_SAMPLES))
    half_width = draw(st.integers(1, n))
    half = draw(st.lists(st.floats(-10.0, 10.0), min_size=half_width, max_size=half_width))
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(centrosymmetric_matrices())
def test_centrosymmetric_split_matches_the_dense_eigensolve(case):
    matrix, _ = case
    form = qf.QuadraticForm(matrix)
    assert form.spectral_norm == pytest.approx(_dense_spectral_norm(form.matrix), rel=1e-13, abs=0.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(centrosymmetric_matrices(), st.floats(0.01, 0.9))
def test_split_of_a_perturbed_centrosymmetric_matrix_stays_an_upper_bound(case, fraction):
    matrix, rng = case
    raw = rng.standard_normal(matrix.shape)
    symmetric = raw + raw.T
    skew = symmetric - symmetric[::-1, ::-1]  # J skew J = -skew
    scale = np.linalg.norm(skew)
    if scale > 0.0:
        # ||A - JAJ||_F / 2 = ||perturbation||_F, a fraction of the gate
        matrix = matrix + skew * (fraction * qf._CENTRO_GATE * np.linalg.norm(matrix) / scale)
    form = qf.QuadraticForm(matrix)
    dense = _dense_spectral_norm(form.matrix)
    residual = 0.5 * np.linalg.norm(form.matrix - form.matrix[::-1, ::-1])
    assert form.spectral_norm >= dense * (1.0 - 1e-13)
    assert form.spectral_norm <= dense * (1.0 + 1e-13) + 2.0 * residual


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_generic_symmetric_norm_is_the_dense_expression_bit_for_bit(n, seed):
    form = qf.QuadraticForm(np.random.default_rng(seed).standard_normal((n, n)))
    assert form.spectral_norm == _dense_spectral_norm(form.matrix)


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
