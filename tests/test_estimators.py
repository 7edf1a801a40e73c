"""Tests for the structured estimator constructors and fast paths."""

import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from specbound import estimators as est
from specbound import phases as ph
from specbound import quadform as qf
from specbound.bounds import envelope_from_form
from specbound.signals import sample_geometric_paths

from conftest import index_arithmetic_matrix, longdouble_lag_sum, random_estimator_spec


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(321)


# ---------------------------------------------------------------- windows


@pytest.mark.parametrize("kind", est.WINDOW_KINDS)
@pytest.mark.parametrize("length", [1, 2, 3, 8, 33])
def test_taper_windows_are_symmetric_and_in_range(kind, length):
    values = est.taper_window(kind, length)
    assert values.shape == (length,)
    np.testing.assert_allclose(values, values[::-1], atol=1e-15)
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_length_one_window_is_unit():
    for kind in est.WINDOW_KINDS:
        np.testing.assert_array_equal(est.taper_window(kind, 1), [1.0])


@pytest.mark.parametrize("kind", est.WINDOW_KINDS)
def test_length_two_tapers_fail_at_construction(kind):
    # hann, triangular and blackman vanish at both ends, so at length two the
    # taper is identically zero; the other kinds stay valid
    if kind in ("hann", "triangular", "blackman"):
        with pytest.raises(ValueError, match="taper must be finite and non-zero"):
            est.Welch(2, 1, kind)
    else:
        est.Welch(2, 1, kind)


def test_lag_window_peaks_at_zero_lag():
    for kind in est.WINDOW_KINDS:
        weights = est.lag_window(kind, 5)
        assert weights.shape == (9,)
        assert weights[4] == pytest.approx(1.0)
        np.testing.assert_allclose(weights, weights[::-1], atol=1e-15)


@pytest.mark.parametrize("kind", est.WINDOW_KINDS)
def test_named_lag_windows_are_exactly_even(kind):
    for half_width in range(1, 1001):
        weights = est.lag_window(kind, half_width)
        assert np.array_equal(weights, weights[::-1]), half_width
        # the non-negative lags, which the fast path reads, are the taper's own
        assert weights[half_width - 1 :].tobytes() == est.taper_window(kind, 2 * half_width - 1)[half_width - 1 :].tobytes()


@pytest.mark.parametrize("kind", est.WINDOW_KINDS)
def test_named_lag_window_forms_are_their_own_transpose(kind):
    spec = est.BlackmanTukey(40, kind)
    matrix = spec.matrix(100)
    assert np.array_equal(matrix, matrix.T)
    assert est.build_matrix(spec, 100).matrix.tobytes() == np.ascontiguousarray(matrix).tobytes()


def test_unknown_window_kind_raises():
    with pytest.raises(ValueError):
        est.taper_window("kaiser", 8)


def test_custom_lag_window_must_be_symmetric():
    with pytest.raises(ValueError):
        est.BlackmanTukey(2, np.array([0.1, 1.0, 0.2])).weights()
    custom = est.BlackmanTukey(2, np.array([0.5, 1.0, 0.5]))
    np.testing.assert_array_equal(custom.weights(), [0.5, 1.0, 0.5])


# ---------------------------------------------------------------- matrices


def test_biased_periodogram_matrix():
    form = est.build_matrix(est.BiasedPeriodogram(), 3)
    np.testing.assert_allclose(form.matrix, np.full((3, 3), 1.0 / 3.0))


def test_unbiased_periodogram_matrix():
    form = est.build_matrix(est.UnbiasedPeriodogram(), 2)
    np.testing.assert_allclose(form.matrix, [[0.5, 1.0], [1.0, 0.5]])


def test_block_average_matrix():
    form = est.build_matrix(est.Bartlett(2), 4)
    block = 0.25 * np.ones((2, 2))
    expected = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    np.testing.assert_array_equal(form.matrix, expected)


def test_rectangular_non_overlapping_welch_equals_block_average():
    welch = est.build_matrix(est.Welch(4, 4, "rectangular"), 12)
    bartlett = est.build_matrix(est.Bartlett(4), 12)
    np.testing.assert_allclose(welch.matrix, bartlett.matrix, atol=1e-15)


DENSE_SIZES = [1, 2, 3, 127, 128, 129, 259, 1024]


def toeplitz_specs(n):
    """The three Toeplitz families at n samples: every named lag window and a custom one at several widths."""
    specs = [est.BiasedPeriodogram(), est.UnbiasedPeriodogram()]
    for m in sorted({1, min(n, 2), (n + 1) // 2, n}):
        specs += [est.BlackmanTukey(m, kind) for kind in est.WINDOW_KINDS]
        half = np.random.default_rng(m).uniform(-1.0, 1.0, 2 * m - 1)
        # a + b rounds as b + a, so the custom window is symmetric in every bit
        specs.append(est.BlackmanTukey(m, half + half[::-1]))
    return specs


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_toeplitz_matrices_are_read_only_views_with_the_index_arithmetic_bits(n):
    for spec in toeplitz_specs(n):
        matrix = spec.matrix(n)
        assert matrix.shape == (n, n)
        assert matrix.tobytes() == index_arithmetic_matrix(spec, n).tobytes(), spec
        with pytest.raises(ValueError, match="read-only"):
            matrix[n - 1, 0] = 1.0
        reference = qf.QuadraticForm(index_arithmetic_matrix(spec, n))
        assert est.build_matrix(spec, n).matrix.tobytes() == reference.matrix.tobytes()


@pytest.mark.parametrize(
    "spec, copies",
    [
        (est.BiasedPeriodogram(), 1.05),
        (est.UnbiasedPeriodogram(), 1.05),
        (est.BlackmanTukey(32, "hann"), 1.05),
        (est.Bartlett(16), 2.05),
        (est.Welch(32, 16, "hann"), 2.05),
    ],
    ids=lambda value: getattr(value, "kind", str(value)),
)
def test_build_matrix_writes_one_dense_copy(spec, copies):
    # a Toeplitz family's matrix is a view of its lag vector, and the form
    # holds the one dense copy; a segment average builds its matrix densely
    # and the form copies it once more
    n = 1024
    tracemalloc.start()
    try:
        est.build_matrix(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copies * (8 * n * n)


def test_build_matrix_size_errors():
    with pytest.raises(ValueError):
        est.build_matrix(est.Bartlett(3), 10)
    with pytest.raises(ValueError):
        est.build_matrix(est.Welch(8, 4), 13)
    with pytest.raises(ValueError):
        est.build_matrix(est.BlackmanTukey(9), 8)


def test_diagonals_vanish_beyond_truncation():
    # the closed-form width is an upper bound: zero-endpoint windows can shrink it
    for spec, n in [
        (est.BlackmanTukey(3, "hann"), 12),
        (est.Bartlett(4), 16),
        (est.Welch(6, 3, "hamming"), 15),
    ]:
        form = est.build_matrix(spec, n)
        width = est.certificate_params(spec, n).truncation
        assert form.truncation_width <= width
        assert not np.any(np.tril(form.matrix, -width))


def test_periodogram_norm_obstruction():
    # both periodogram variants have max(||A||, ||A||_F^2) >= 1 at every size
    for n in (2, 5, 16, 64):
        for spec in (est.BiasedPeriodogram(), est.UnbiasedPeriodogram()):
            form = est.build_matrix(spec, n)
            assert max(form.spectral_norm, form.frobenius_norm ** 2) >= 1.0 - 1e-12


# ---------------------------------------------------------------- diagonal sums


def test_biased_periodogram_bias_sequence():
    coeffs = est.closed_form_bias(est.BiasedPeriodogram(), 4)
    lags = coeffs.on_lags(5)
    for k, value in [(0, 1.0), (1, 0.75), (2, 0.5), (3, 0.25), (4, 0.0)]:
        assert lags[k + 4] == pytest.approx(value)
        assert lags[-k + 4] == pytest.approx(value)


def test_unbiased_periodogram_bias_is_one():
    coeffs = est.closed_form_bias(est.UnbiasedPeriodogram(), 6)
    assert np.all(coeffs.on_lags(6) == 1.0)


def test_block_average_bias_closed_form():
    coeffs = est.closed_form_bias(est.Bartlett(2), 4)
    lags = coeffs.on_lags(3)
    assert lags[1 + 2] == pytest.approx(0.5)
    assert lags[2 + 2] == 0.0


def test_tapered_segment_bias_two_ways(rng):
    spec = est.Welch(4, 2, "hann")
    closed = est.closed_form_bias(spec, 10)
    brute = qf.bias_coefficients(est.build_matrix(spec, 10))
    assert np.abs(closed.values - brute.values).max() <= 1e-12


def test_closed_form_bias_matches_brute_force_random_specs(rng):
    for _ in range(25):
        spec, n = random_estimator_spec(rng, max_samples=48)
        closed = est.closed_form_bias(spec, n)
        brute = qf.bias_coefficients(est.build_matrix(spec, n))
        assert np.abs(closed.values - brute.values).max() <= 1e-12


# ---------------------------------------------------------------- fast paths


def test_single_block_average_is_biased_periodogram(rng):
    data = qf.DataMatrix(rng.standard_normal((1, 8)))
    grid = qf.frequency_grid(9, full_range=True)
    bartlett = est.evaluate_fast(est.Bartlett(8), data, grid)
    periodogram = est.evaluate_fast(est.BiasedPeriodogram(), data, grid)
    np.testing.assert_allclose(bartlett.matrices, periodogram.matrices, atol=1e-12)


def test_single_segment_welch_is_tapered_periodogram(rng):
    data = qf.DataMatrix(rng.standard_normal((2, 8)))
    grid = qf.frequency_grid(7)
    spec = est.Welch(8, 3, "hann")
    fast = est.evaluate_fast(spec, data, grid)
    generic = qf.evaluate_generic_grid(data, est.build_matrix(spec, 8), grid)
    assert np.abs(fast.matrices - generic.matrices).max() < 1e-10


def test_fast_paths_match_generic_oracle(rng):
    data = qf.DataMatrix(rng.standard_normal((2, 16)))
    grid = qf.frequency_grid(33, full_range=True)
    specs = [
        est.BiasedPeriodogram(),
        est.UnbiasedPeriodogram(),
        est.BlackmanTukey(5, "hamming"),
        est.Bartlett(4),
        est.Welch(8, 4, "hann"),
    ]
    for spec in specs:
        fast = est.evaluate_fast(spec, data, grid)
        generic = qf.evaluate_generic_grid(data, est.build_matrix(spec, 16), grid)
        assert np.abs(fast.matrices - generic.matrices).max() < 1e-10


SLAB_CASES = (
    [(n, p) for n in (1, 7, 144, 2064) for p in (1, 2, 9, 17, 101, 257)]
    + [(144, 4097), (8192, 4097)]
    + [(n, p) for n in (8192, 65536) for p in (9, 17, 101)]
)

# segment families at N = 65536: long segments, and many short segments
# whose (segments, channels, grid) transform spans several slabs (at 17
# points the last slab holds one grid column)
SEGMENT_SLAB_SPECS = {
    "bartlett8192": est.Bartlett(8192),
    "bartlett32768": est.Bartlett(32768),
    "welch_hann": est.Welch(16384, 8192, "hann"),
    "welch_custom": est.Welch(16384, 8192, [1.0 + (k % 5) for k in range(16384)]),
    "welch32": est.Welch(32, 16),
    "bartlett16": est.Bartlett(16),
    "welch512": est.Welch(512, 64),
    "welch256": est.Welch(256, 64),
}
# welch512 at 201 points: several slabs, each reading its columns of both
# cached two-stage tables; welch256, whose segments are longer than the
# padded grid, and welch32 at 17 points keep the one-stage transforms and
# reduce them with einsum over several slabs from three channels on
SEGMENT_SLAB_CASES = [(name, 65536, 101) for name in SEGMENT_SLAB_SPECS] + [
    ("bartlett8192", 65536, 257),
    ("welch32", 65536, 17),
    ("welch512", 65536, 201),
]

# samples per block of the two-stage segment transform
BLOCK = 256


def reduced_phases(indices, grid):
    """e^{-2 pi i t s} for integer indices t < 2^27, the argument t s reduced mod 1 before it is rounded.

    s splits into a head of at most 26 significant bits (Veltkamp), whose
    products with t are exact, and a small tail.
    """
    split = grid * 134217729.0  # 2^27 + 1
    head = split - (split - grid)
    turns = np.outer(indices, head)
    turns = turns - np.round(turns) + np.outer(indices, grid - head)
    return np.exp(-2j * np.pi * turns)


def padded_phases(length, grid, taper=None):
    """The (length, grid) phases, times the taper, zero-padded to a multiple of 8 columns."""
    phases = np.zeros((length, -(-grid.size // 8) * 8), dtype=complex)
    phases[:, : grid.size] = reduced_phases(np.arange(length), grid)
    if taper is not None:
        phases[:, : grid.size] *= taper[:, None]
    return phases


def real_transform(windows, phases, points):
    """The real stack (..., length) times the padded phases read as reals, first ``points`` columns."""
    product = (windows.reshape(-1, windows.shape[-1]) @ phases.view(float)).view(complex)
    return product[:, :points].reshape(windows.shape[:-1] + (points,))


def stacked_gram_estimate(windows, taper, grid, divisor):
    """The segment average from the lag head of the stacked segments' Gram, each subdiagonal summed on its own.

    The reference for the several-channel short-segment path: diagonal -k
    of each (i, j) block of the Gram, followed by k zeros, is one numpy sum
    (pairwise, in the estimator's order), and the head's lag sum is
    divided by ``divisor``.
    """
    segments, channels, length = windows.shape
    stack = (windows * taper).reshape(segments, channels * length)
    gram = stack.T @ stack
    head = np.empty((length, channels, channels))
    for k in range(length):
        for i in range(channels):
            for j in range(channels):
                block = gram[i * length : (i + 1) * length, j * length : (j + 1) * length]
                head[k, i, j] = np.concatenate([np.diagonal(block, -k), np.zeros(k)]).sum()
    return qf.hermitian_part(ph.lag_sum(head, np.ones(length), grid) / divisor)


def whole_matrix_estimate(spec, values, grid):
    """The estimate from unslabbed products over the whole grid.

    A segment of at most ``BLOCK`` samples takes one real product with its
    whole padded (segment length, grid) phase matrix.  A longer one is
    zero-padded to Q whole blocks and takes one real product with the padded
    (BLOCK, grid) inner phases and one contraction of Q with the (Q, grid)
    outer phases.  Several channels of short segments that the estimator's
    rule gives the segment Gram take ``stacked_gram_estimate``.
    """
    num_samples = values.shape[1]
    if isinstance(spec, est.BiasedPeriodogram) and num_samples <= BLOCK:
        transform = real_transform(values, padded_phases(num_samples, grid), grid.size)
        return qf.hermitian_part(np.einsum("if,jf->fij", transform, transform.conj()) / num_samples)
    if isinstance(spec, est.BiasedPeriodogram):
        length = hop = num_samples
        taper, divisor = None, num_samples
    else:
        length, hop, divisor = spec.segment_length, spec.hop, spec.segments(num_samples)
        taper = spec.taper_values() / np.linalg.norm(spec.taper_values())
    windows = np.stack([values[:, start : start + length] for start in range(0, num_samples - length + 1, hop)])
    if est._gram_is_cheaper(*windows.shape, grid.size):
        return stacked_gram_estimate(windows, taper, grid, divisor)
    if length <= BLOCK:
        transform = real_transform(windows, padded_phases(length, grid, taper), grid.size)
    else:
        blocks = -(-length // BLOCK)
        padded = np.zeros(windows.shape[:2] + (blocks * BLOCK,))
        padded[..., :length] = windows if taper is None else windows * taper
        inner = padded_phases(BLOCK, grid)
        outer = reduced_phases(np.arange(blocks) * BLOCK, grid)
        partial = real_transform(padded.reshape(windows.shape[:2] + (blocks, BLOCK)), inner, grid.size)
        transform = np.einsum("liqf,qf->lif", partial, outer)
    return qf.hermitian_part(np.einsum("lif,ljf->fij", transform, transform.conj()) / divisor)


def slab_mismatches():
    """(spec, N, points, full_range, channels) cases where the bits of a slabbed
    estimate differ from one product with the whole phase matrix."""
    cases = [("biased_periodogram", n, p) for n, p in SLAB_CASES] + SEGMENT_SLAB_CASES
    specs = dict(SEGMENT_SLAB_SPECS, biased_periodogram=est.BiasedPeriodogram())
    mismatches = []
    for name, num_samples, points in cases:
        rng = np.random.default_rng(num_samples + points)
        for full_range in (False, True):
            grid = qf.frequency_grid(points, full_range)
            for channels in (1, 2, 3, 5):
                values = rng.standard_normal((channels, num_samples))
                expected = whole_matrix_estimate(specs[name], values, grid)
                fast = est.evaluate_fast(specs[name], qf.DataMatrix(values), grid)
                if fast.matrices.tobytes() != expected.tobytes():
                    mismatches.append((name, num_samples, points, full_range, channels))
    return mismatches


@pytest.fixture(scope="module")
def one_thread_slab_mismatches():
    # with several BLAS threads OpenBLAS splits a one-channel product between
    # threads at columns set by the product's width, so the whole-matrix bits
    # themselves change with the thread count; compare at one thread
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    probe = "import json, test_estimators; print(json.dumps(test_estimators.slab_mismatches()))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return [tuple(case) for case in json.loads(result.stdout)]


@pytest.mark.parametrize(
    "case",
    [("biased_periodogram", n, p) for n, p in SLAB_CASES] + SEGMENT_SLAB_CASES,
    ids=lambda case: "-".join(map(str, case[1:] if case[0] == "biased_periodogram" else case)),
)
def test_biased_periodogram_slabs_keep_every_bit(one_thread_slab_mismatches, case):
    assert [mismatch for mismatch in one_thread_slab_mismatches if mismatch[:3] == case] == []


@pytest.mark.parametrize(
    "spec, channels, num_samples",
    [
        (est.BiasedPeriodogram(), 3, 65536),
        (est.Bartlett(32768), 3, 65536),
        (est.Welch(16384, 8192), 3, 65536),
        (est.Welch(32, 16), 3, 65536),
        (est.UnbiasedPeriodogram(), 1, 16384),
    ],
    ids=["biased_periodogram", "bartlett32768", "welch16384", "welch32", "unbiased_periodogram16384"],
)
def test_biased_periodogram_memory_stays_flat(spec, channels, num_samples):
    data = qf.DataMatrix(np.random.default_rng(7).standard_normal((channels, num_samples)))
    grid = qf.frequency_grid(101)
    tracemalloc.start()
    try:
        est.evaluate_fast(spec, data, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one-stage phase matrices of 106 MB (periodogram), 53 MB (Bartlett) and
    # 26 MB (Welch 16384); a 19 MB transform and its conjugate (Welch 32);
    # a 53 MB lag-phase matrix (unbiased periodogram)
    assert peak < 32 << 20


def longdouble_estimate(spec, values, freqs):
    """The segment average at a few frequencies, its transforms summed in long double."""
    num_samples = values.shape[1]
    if isinstance(spec, est.BiasedPeriodogram):
        length = hop = divisor = num_samples
        taper = np.ones(length)
    elif isinstance(spec, est.Bartlett):
        length = hop = spec.block_length
        divisor, taper = num_samples, np.ones(length)
    else:
        length, hop, divisor = spec.segment_length, spec.hop, spec.segments(num_samples)
        taper = spec.taper_values() / np.linalg.norm(spec.taper_values())
    windows = np.stack([values[:, start : start + length] for start in range(0, num_samples - length + 1, hop)])
    weighted = windows.astype(np.longdouble) * taper.astype(np.longdouble)
    estimates = []
    for s in freqs:
        turns = (np.arange(length, dtype=np.longdouble) * np.longdouble(s)) % 1
        angle = -2 * np.pi * turns
        real, imag = weighted @ np.cos(angle), weighted @ np.sin(angle)
        transform = real + 1j * imag
        estimates.append(np.einsum("li,lj->ij", transform, transform.conj()) / divisor)
    return np.array(estimates)


@pytest.mark.parametrize("full_range", [False, True], ids=["half_range", "full_range"])
# at N = 262144 a phase argument t s rounded before its reduction mod 1 is
# off by up to 2^-36 turns, which puts the periodogram at s = 0.495 1.8e-10
# (relative) off the long-double sum
@pytest.mark.parametrize("channels, num_samples", [(1, 65536), (3, 65536), (1, 262144)], ids=["1", "3", "1-262144"])
@pytest.mark.parametrize(
    "spec", [est.BiasedPeriodogram(), est.Bartlett(32768), est.Welch(16384, 8192, "hann")], ids=lambda spec: spec.kind
)
def test_two_stage_segments_match_a_long_double_transform(spec, channels, num_samples, full_range):
    values = np.random.default_rng(channels).standard_normal((channels, num_samples))
    grid = qf.frequency_grid(101, full_range)
    picks = [0, 1, 37, 99, 100]
    fast = est.evaluate_fast(spec, qf.DataMatrix(values), grid).matrices[picks]
    reference = longdouble_estimate(spec, values, grid[picks])
    for got, want in zip(fast, reference):
        scale = float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= 1e-10 * scale


@pytest.mark.parametrize(
    "spec, num_samples",
    [
        (est.BiasedPeriodogram(), 257),
        (est.BiasedPeriodogram(), 600),
        (est.UnbiasedPeriodogram(), 129),
        (est.UnbiasedPeriodogram(), 600),
        (est.BlackmanTukey(300, "hamming"), 600),
        (est.Bartlett(300), 600),
        (est.Welch(300, 100, "hann"), 600),
        (est.Welch(260, 170, [1.0 + (k % 7) for k in range(260)]), 600),
    ],
    ids=lambda case: case.kind if hasattr(case, "kind") else str(case),
)
def test_two_stage_fast_paths_match_generic_oracle(spec, num_samples):
    data = qf.DataMatrix(np.random.default_rng(num_samples).standard_normal((2, num_samples)))
    for full_range in (False, True):
        grid = qf.frequency_grid(37, full_range)  # spacing 1/72: s B is not a whole number of turns
        fast = est.evaluate_fast(spec, data, grid)
        generic = qf.evaluate_generic_grid(data, est.build_matrix(spec, num_samples), grid)
        assert np.abs(fast.matrices - generic.matrices).max() < 1e-10


@pytest.mark.parametrize(
    "spec, num_samples",
    [pytest.param(est.Welch(m, hop), n, id=f"{n}-{m}-{hop}") for n, m, hop in [(64, 8, 8), (400, 8, 8), (2064, 48, 16), (65536, 32, 16)]]
    + [pytest.param(est.Bartlett(m), n, id=f"bartlett-{n}-{m}") for n, m in [(64, 8), (400, 8), (2064, 48), (65536, 32)]],
)
def test_welch_windows_match_stacked_segments(spec, num_samples):
    values = np.random.default_rng(num_samples).standard_normal((2, num_samples))
    grid = qf.frequency_grid(17)
    segments, length, hop = spec.segments(num_samples), spec.segment_length, spec.hop
    windows = np.stack([values[:, i * hop : i * hop + length] for i in range(segments)])
    taper = spec.taper_values() / np.linalg.norm(spec.taper_values())
    if est._gram_is_cheaper(segments, 2, length, grid.size):
        expected = stacked_gram_estimate(windows, taper, grid, segments)
    else:
        transform = real_transform(windows, padded_phases(length, grid, taper), grid.size)
        expected = qf.hermitian_part(np.einsum("lif,ljf->fij", transform, transform.conj()) / segments)
    for _ in range(2):  # the second call reads the cached phases
        fast = est.evaluate_fast(spec, qf.DataMatrix(values), grid)
        assert fast.matrices.tobytes() == expected.tobytes()


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("length, hop", [(8, 3), (8, 8), (8, 11)], ids=["overlap", "contiguous", "gaps"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_segment_stack_is_the_sliding_window_stack(channels, length, hop, order):
    segments = 6
    values = np.random.default_rng(hop).standard_normal((channels, (segments - 1) * hop + length))
    values = np.asarray(values, order=order)  # a Fortran-ordered block is copied, not misread
    stack = est._segment_stack(values, length, hop, segments)
    expected = sliding_window_view(values, length, axis=1)[:, ::hop].transpose(1, 0, 2)
    assert stack.shape == expected.shape == (segments, channels, length)
    assert stack.tobytes() == expected.tobytes()
    assert not stack.flags.writeable
    assert np.shares_memory(stack, values) == values.flags.c_contiguous


def einsum_segment_average(windows, taper, freqs, divisor):
    """The several-channel reduction of ``_segment_average``: einsum over the same slabs' transforms."""
    segments, channels, length = windows.shape
    blocks = -(-length // BLOCK)
    rows = min(length, BLOCK) + blocks + segments * channels * (blocks + 1)
    estimate = np.empty((channels, channels, freqs.size), dtype=complex).transpose(2, 0, 1)
    for a, b in ph._phase_slabs(rows, freqs.size):
        transform = np.ascontiguousarray(ph._phase_transform(windows, taper, freqs, slice(a, b)))
        np.einsum("lif,ljf->fij", transform, transform.conj(), out=estimate[a:b])
    return estimate / divisor


# one-stage (Bartlett 16, Welch 32 hann) and two-stage (300 samples) segments
@pytest.mark.parametrize("length, taper", [(16, "rectangular"), (32, "hann"), (300, "rectangular"), (300, "hann")])
@pytest.mark.parametrize("full_range", [False, True], ids=["half_range", "full_range"])
@pytest.mark.parametrize("points", [1, 2, 9, 101])
@pytest.mark.parametrize("segments", [1, 2, 9, 128, 4095])
def test_one_channel_segment_sum_keeps_the_einsum_bits(segments, points, full_range, length, taper):
    # numpy sums a lone reduced axis pairwise, which from 9 segments on is
    # another order than einsum's; with these draws a pairwise sum changes the
    # bits of every one-point case from 9 segments on
    windows = np.random.default_rng([37, segments, points, length]).standard_normal((segments, 1, length))
    grid = qf.frequency_grid(points, full_range)
    fast = est._segment_average(windows, taper, grid, segments)
    assert fast.tobytes() == einsum_segment_average(windows, taper, grid, segments).tobytes()


def test_welch_custom_tapers_of_equal_length_keep_their_own_phases():
    # same length, same norm, same values in another order: only the key's
    # taper bytes tell the two specs apart
    values = np.random.default_rng(5).standard_normal((1, 40))
    grid = qf.frequency_grid(9)
    rising = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    specs = [est.Welch(8, 4, rising), est.Welch(8, 4, rising[::-1])]
    results = [est.evaluate_fast(spec, qf.DataMatrix(values), grid).matrices for spec in specs]
    assert results[0].tobytes() != results[1].tobytes()
    for spec, result in zip(specs, results):
        windows = np.stack([values[:, i * 4 : i * 4 + 8] for i in range(spec.segments(40))])
        taper = spec.taper_values() / np.linalg.norm(spec.taper_values())
        transform = real_transform(windows, padded_phases(8, grid, taper), grid.size)
        expected = qf.hermitian_part(np.einsum("lif,ljf->fij", transform, transform.conj()) / spec.segments(40))
        assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length, points", [(8, 17), (4096, 101)])  # cached, and too large to cache
def test_segment_phases_are_read_only(length, points):
    phases = ph._segment_phases(length, "hann", qf.frequency_grid(points))
    # the grid's columns, then zeros up to a multiple of 8
    assert phases.shape == (length, -(-points // 8) * 8) and not phases.flags.writeable
    assert not np.any(phases[:, points:])
    with pytest.raises(ValueError):
        phases[0, 0] = 0.0


# ---------------------------------------------------------------- segment Gram

# overlapping, contiguous and gapped segments; named, positive custom and
# signed custom tapers
GRAM_SPECS = {
    "overlap_hann": est.Welch(32, 16, "hann"),
    "contiguous": est.Bartlett(16),
    "gaps_hamming": est.Welch(24, 40, "hamming"),
    "custom": est.Welch(48, 24, [1.0 + (k % 5) for k in range(48)]),
    "signed": est.Welch(48, 16, [(k % 7) - 3.0 for k in range(48)]),
}


@pytest.mark.parametrize("segments", [4, 256], ids=["transform_side", "gram_side"])
@pytest.mark.parametrize("channels", [2, 3, 5])
@pytest.mark.parametrize("name", list(GRAM_SPECS))
def test_segment_gram_matches_a_long_double_sum_and_the_transforms(name, channels, segments, monkeypatch):
    spec = GRAM_SPECS[name]
    num_samples = (segments - 1) * spec.hop + spec.segment_length
    grid = qf.frequency_grid(101)
    # the rule's own choice, then each kernel forced in turn
    assert est._gram_is_cheaper(segments, channels, spec.segment_length, grid.size) == (segments == 256)
    data = qf.DataMatrix(np.random.default_rng([channels, segments]).standard_normal((channels, num_samples)))
    estimates = {}
    for gram in (True, False):
        monkeypatch.setattr(est, "_gram_is_cheaper", lambda *args, gram=gram: gram)
        estimates[gram] = est.evaluate_fast(spec, data, grid).matrices
    picks = [0, 1, 37, 99, 100]
    reference = longdouble_estimate(spec, data.values, grid[picks])
    assert float(np.abs(estimates[True][picks] - reference).max()) <= 1e-13 * float(np.abs(reference).max())
    assert float(np.abs(estimates[True] - estimates[False]).max()) <= 1e-13 * float(np.abs(estimates[False]).max())


def test_the_gram_rule_reads_the_shapes():
    # one channel, one segment (the biased periodogram, even on a wide grid)
    # and two-stage segments keep the transforms
    assert not est._gram_is_cheaper(4095, 1, 32, 101)
    assert not est._gram_is_cheaper(1, 2, 8, 100_001)
    assert not est._gram_is_cheaper(4095, 3, BLOCK + 1, 1001)
    assert est._gram_is_cheaper(4095, 3, 32, 101) and est._gram_is_cheaper(4096, 3, 16, 101)
    # fewer segments than stacked samples, and segments longer than the padded grid
    assert est._gram_is_cheaper(96, 3, 32, 101) and not est._gram_is_cheaper(95, 3, 32, 101)
    assert est._gram_is_cheaper(4095, 3, 24, 17) and not est._gram_is_cheaper(4095, 3, 32, 17)
    # a Gram of at most one 8 MiB phase slab
    assert est._gram_is_cheaper(1088, 16, 64, 101) and not est._gram_is_cheaper(1088, 17, 64, 101)


def test_a_gram_wider_than_a_slab_keeps_the_transforms():
    # 17 channels of 1088 blocks of 64 would take a 9.5 MB Gram and as large a
    # copy of its diagonals (30 MiB at the peak); the transforms keep to one
    # 8 MiB phase slab beside the 9.5 MB segment stack
    data = qf.DataMatrix(np.random.default_rng(7).standard_normal((17, 1088 * 64)))
    grid = qf.frequency_grid(101)
    tracemalloc.start()
    try:
        est.evaluate_fast(est.Bartlett(64), data, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


# ---------------------------------------------------------------- autocovariance


@functools.lru_cache(maxsize=None)
def longdouble_lag_products(channels, num_samples, lags):
    """The data of the lag-product tests and its sum_t y_i[t + k] y_j[t] at lags k < ``lags``, in long double."""
    values = np.random.default_rng([channels, num_samples]).standard_normal((channels, num_samples))
    y = values.astype(np.longdouble)
    return values, np.array([y[:, k:] @ y[:, : num_samples - k].T for k in range(lags)])


LAG_PRODUCT_SIZES = [(c, n) for n in (1, 2, 3, 255, 256, 257, 2064) for c in (1, 2, 3)] + [(1, 16384)]
# records longer than one FFT block: 300 lags in blocks of 2048 points and
# spans of 1749 samples, the last span partial but at 3498 samples, 64 and
# 65 lags in spans of 1985 and 1984, and 32 lags at the one-block edge,
# 2017 samples in one block and 2018 in two; rectangular windows, so that a
# wrapped product at the last lag would count
LAG_PRODUCT_BLOCKS = [(c, n, 300) for n in (2064, 16384) for c in (1, 2, 3)] + [(2, 3498, 300), (2, 5000, 300)]
LAG_PRODUCT_BLOCKS += [(c, 4100, lags) for lags in (64, 65) for c in (1, 3)]
LAG_PRODUCT_BLOCKS += [(c, n, 32) for n in (2017, 2018) for c in (1, 3)]
LAG_PRODUCT_CASES = [(c, n, family) for c, n in LAG_PRODUCT_SIZES for family in ("unbiased", "biased_all_lags", "biased_32_lags")]
LAG_PRODUCT_CASES += [(c, n, f"rectangular_{lags}") for c, n, lags in LAG_PRODUCT_BLOCKS]


@pytest.mark.parametrize("block", ["chosen", "least"])
@pytest.mark.parametrize("channels, num_samples, family", LAG_PRODUCT_CASES, ids=lambda value: str(value))
def test_lag_products_match_a_long_double_lag_sum(channels, num_samples, family, block, monkeypatch):
    # each size runs in the block ``_lag_block`` chooses, and in the least
    # block whose span holds the lags, so that records which fit one chosen
    # block also cross the block edges in many spans, the last one partial
    if family == "unbiased":
        spec = est.UnbiasedPeriodogram()
    elif family == "biased_all_lags":
        spec = est.BlackmanTukey(num_samples, "rectangular")
    elif family == "biased_32_lags":
        spec = est.BlackmanTukey(min(32, num_samples), "hann")
    else:
        spec = est.BlackmanTukey(int(family.split("_")[1]), "rectangular")
    lags = num_samples if family == "unbiased" else spec.half_width
    values, products = longdouble_lag_products(channels, num_samples, lags)
    if family == "unbiased":
        weights = np.ones(num_samples)
        head = products / (num_samples - np.arange(num_samples)).astype(np.longdouble)[:, None, None]
    else:
        weights = spec.weights()[lags - 1 :]
        head = products / num_samples
    if block == "least":
        monkeypatch.setattr(est, "_lag_block", lambda samples, lags: min(est._fft_size(lags, lags), est._fft_size(samples, lags)))
    grid = qf.frequency_grid(37, full_range=True)
    picks = [0, 1, 18, 25, 36]
    fast = est.evaluate_fast(spec, qf.DataMatrix(values), grid).matrices[picks]
    reference = longdouble_lag_sum(head, weights, grid[picks])
    assert float(np.abs(fast - reference).max()) <= 1e-12 * float(np.abs(reference).max())


def lag_blocks(num_samples, lags):
    """``_acs_head``'s block size and block count: spans of F - H + 1 samples cover the record."""
    size = est._lag_block(num_samples, lags)
    return size, -(-num_samples // (size - lags + 1))


def test_lag_block_edges():
    # one block while N + H - 1 <= F, two from one more sample
    assert lag_blocks(2017, 32) == (2048, 1) and lag_blocks(2018, 32) == (2048, 2)
    assert lag_blocks(1985, 64) == (2048, 1) and lag_blocks(1986, 64) == (2048, 2)
    # a record that fits one block takes its own least transform
    assert lag_blocks(256, 32) == (512, 1) and lag_blocks(1, 1) == (1, 1)
    # the unbiased periodogram always fits one block
    for num_samples in (1, 2, 255, 256, 257, 2064, 16384):
        assert lag_blocks(num_samples, num_samples) == (est._fft_size(num_samples, num_samples), 1)
    # the 2048-point floor holds up to 512 lags
    assert est._lag_block(65536, 1) == est._lag_block(65536, 300) == est._lag_block(65536, 512) == 2048
    # past it, four times the least power of two of at least the lags
    assert est._lag_block(65536, 513) == est._lag_block(65536, 1024) == 4096
    assert est._lag_block(65536, 1025) == 8192
    assert est._lag_block(1000, 513) == 2048 == est._fft_size(1000, 513)


def test_every_lag_product_estimate_keeps_its_bits_at_two_blas_threads():
    # the FFT lag products call no BLAS, one block (the unbiased periodogram)
    # or many (Blackman-Tukey hann 16, 32 and 300), and the lag sum's
    # products keep their bits at one and two threads
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    probe = (
        "import hashlib, numpy as np\n"
        "from specbound import estimators as est, quadform as qf\n"
        "data = qf.DataMatrix(np.random.default_rng(15).standard_normal((1, 16384)))\n"
        "specs = [est.UnbiasedPeriodogram()] + [est.BlackmanTukey(m, 'hann') for m in (16, 32, 300)]\n"
        "for spec in specs:\n"
        "    estimate = est.evaluate_fast(spec, data, qf.frequency_grid(101))\n"
        "    print(hashlib.sha256(estimate.matrices.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


def test_unbiased_acs_is_unbiased_monte_carlo():
    # mean of the divisor-corrected estimate equals the true autocovariance
    trials, samples, rho = 10_000, 32, 0.4
    paths = sample_geometric_paths(rho, samples, trials, "gaussian", seed=9)
    for lag in range(5):
        per_trial = (paths[:, lag:] * paths[:, : samples - lag]).sum(axis=1) / (samples - lag)
        spread = per_trial.std(ddof=1) / np.sqrt(trials)
        assert abs(per_trial.mean() - rho ** lag) <= 3.0 * spread


# ---------------------------------------------------------------- certificate parameters


def test_certificate_params_closed_forms():
    params = est.certificate_params(est.BlackmanTukey(8), 128)
    assert params.envelope == pytest.approx(15.0 / 128.0) and params.truncation == 8
    params = est.certificate_params(est.Bartlett(8), 128)
    assert params.envelope == pytest.approx(1.0 / 16.0) and params.truncation == 8
    params = est.certificate_params(est.Welch(8, 4), 128)
    assert params.envelope == pytest.approx(0.0379145) and params.truncation == 8


def test_blackman_tukey_envelope_covers_a_custom_window_above_one():
    # (2M - 1) / n = 3/64 is below the dense envelope 1.1597; sum w^2 / n binds
    spec = est.BlackmanTukey(2, [5.0, 5.0, 5.0])
    params = est.certificate_params(spec, 64)
    assert params.envelope == 75.0 / 64.0
    assert params.envelope >= envelope_from_form(est.build_matrix(spec, 64))


def test_certificate_params_unavailable_for_periodograms():
    assert est.certificate_params(est.BiasedPeriodogram(), 64) is None
    assert est.certificate_params(est.UnbiasedPeriodogram(), 64) is None


def test_block_average_norms_are_exact():
    for m, n in [(2, 8), (4, 16), (8, 64)]:
        form = est.build_matrix(est.Bartlett(m), n)
        assert form.spectral_norm == pytest.approx(m / n, abs=1e-12)
        assert form.frobenius_norm ** 2 == pytest.approx(m / n, abs=1e-12)


def test_welch_norm_envelopes(rng):
    for m, k, segments in [(8, 4, 7), (6, 2, 5), (5, 5, 4)]:
        n = (segments - 1) * k + m
        spec = est.Welch(m, k, "hann" if m > 2 else "rectangular")
        form = est.build_matrix(spec, n)
        params = est.certificate_params(spec, n)
        ceil_ratio = -(-m // k)
        assert form.spectral_norm <= ceil_ratio / segments + 1e-9
        assert form.frobenius_norm ** 2 <= params.envelope + 1e-9
        for k in range(n):
            entries = np.diagonal(form.matrix, k)
            assert np.abs(entries).max() <= params.envelope + 1e-9
            assert entries @ entries <= params.envelope + 1e-9


class _TiltedWelch(est.Welch):
    """Welch with a rounding-size imaginary part added, and a negative-zero one at every other point."""

    def evaluate(self, data, freqs):
        raw = super().evaluate(data, freqs)
        raw.imag = np.where((np.arange(freqs.size) % 2)[:, None, None] == 1, 1e-17 * raw.real, -0.0)
        return raw


ONE_CHANNEL_SPECS = [
    est.BiasedPeriodogram(),
    est.UnbiasedPeriodogram(),
    est.BlackmanTukey(16, "hann"),
    est.Bartlett(16),
    est.Welch(32, 16),
    _TiltedWelch(32, 16),
]


@pytest.mark.parametrize("spec", ONE_CHANNEL_SPECS, ids=lambda spec: type(spec).__name__)
def test_one_channel_fast_estimate_has_the_bits_of_its_hermitian_part(spec):
    # a 1 x 1 estimate skips hermitian_part and takes +0 as its imaginary part
    data = qf.DataMatrix(sample_geometric_paths(0.3, 144, 1, seed=7))
    freqs = np.linspace(0.0, 0.5, 33)
    reference = qf.SpectralEstimate(freqs, qf.hermitian_part(spec.evaluate(data, freqs)))
    estimate = est.evaluate_fast(spec, data, freqs)
    assert estimate.matrices.tobytes() == reference.matrices.tobytes()
    assert not np.signbit(estimate.matrices.imag).any()
    assert estimate.frequencies.tobytes() == reference.frequencies.tobytes()
    assert not estimate.matrices.flags.writeable and not estimate.frequencies.flags.writeable
    assert not np.shares_memory(estimate.frequencies, freqs)


def test_owning_estimate_checks_its_shapes():
    with pytest.raises(ValueError, match="stack matching the frequencies"):
        qf.SpectralEstimate.owning(np.zeros(3), np.zeros((2, 1, 1), dtype=complex))
    with pytest.raises(ValueError, match="stack matching the frequencies"):
        qf.SpectralEstimate.owning(np.zeros(2), np.zeros((2, 1, 2), dtype=complex))
