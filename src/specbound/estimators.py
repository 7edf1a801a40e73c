"""Classical spectrum estimators expressed through their quadratic forms.

Three families are covered: raw periodograms (biased and unbiased
autocovariance transforms), windowed-autocovariance estimates (Blackman-Tukey,
banded Toeplitz coefficient matrix), and tapered segment averages (Welch, a
sum of shifted rank-one blocks, and Bartlett, the layout of contiguous
untapered blocks, which takes every method from Welch).  Each spec class has
a config ``kind`` and, for a sample count n, its dense coefficient matrix
(``matrix(n)``: for the Toeplitz families, the periodograms and
Blackman-Tukey, a read-only view of one vector of 2n - 1 lag entries, so
only ``QuadraticForm``'s copy writes n x n entries), its closed-form
diagonal sums b[k] at lags k = 0..n-1 (``diagonal_sums(n)``; b is even),
the ``CertificateParams`` norm bounds feeding the concentration
certificates (``certificate_params(n)``, None when no concentration
certificate exists), what its bias condition asks beyond the
general test on those sums in ``bounds.check_conditions``
(``bias_condition``), and a fast evaluation path (``evaluate(data, freqs)``)
that matches the generic quadratic form to rounding error.  ``FAMILIES``
maps each ``kind`` to its class; the module-level functions dispatch to
these methods.

The biased periodogram (one segment of length N) and the segment averages
evaluate through one kernel, ``_segment_average``, which covers the grid in
the column slabs of ``phases._phase_slabs`` and takes each slab's segment
transforms from ``phases._phase_transform``.  The unbiased periodogram and
Blackman-Tukey sum their lag products (``_acs_head``) through
``phases.lag_sum``, the sum that ``quadform``'s exact mean and bias take
too.  The phase tables, their cache and the exact reduction of the phase
argument live in ``phases``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phases import _PHASE_BLOCK, WINDOW_KINDS, _phase_slabs, _phase_transform, lag_sum, taper_window
from .quadform import (
    _RANGE_SLACK,
    BiasCoefficients,
    CertificateParams,
    DataMatrix,
    QuadraticForm,
    SpectralEstimate,
    hermitian_part,
)

__all__ = [
    "Bartlett",
    "BiasedPeriodogram",
    "BlackmanTukey",
    "CertificateParams",
    "FAMILIES",
    "UnbiasedPeriodogram",
    "WINDOW_KINDS",
    "Welch",
    "build_matrix",
    "certificate_params",
    "closed_form_bias",
    "evaluate_fast",
    "lag_window",
    "taper_window",
]


def lag_window(kind: str, half_width: int) -> np.ndarray:
    """Symmetric lag weights w[k] for |k| < half_width, stored at index k + half_width - 1.

    Same shapes as the tapers, re-centered so the peak weight sits at lag 0.
    """
    return taper_window(kind, 2 * half_width - 1)


def _toeplitz(lags: np.ndarray) -> np.ndarray:
    """Read-only n x n view M[i, j] = lags[i - j + n - 1] of a vector of 2n - 1 lag entries.

    Row i is the window lags[i : i + n] read backwards, so the view reads
    every entry with i - j as the index and never transposes the vector:
    a named lag window need not be symmetric in its last bit.
    """
    return sliding_window_view(lags, (lags.size + 1) // 2)[:, ::-1]


def _segment_stack(values: np.ndarray, length: int, hop: int, segments: int) -> np.ndarray:
    """Read-only (segments, channels, length) view of a (channels, samples) block; segment l starts at l hop.

    One strided view of the C-contiguous block: 1.5 us at N = 144, where
    ``sliding_window_view`` took 15 us, and a short path pays it per call.
    """
    values = np.ascontiguousarray(values)
    row, column = values.strides
    stack = np.ndarray((segments, values.shape[0], length), float, values, 0, (hop * column, row, column))
    stack.flags.writeable = False  # its segments may overlap
    return stack


def _segment_average(windows: np.ndarray, taper, freqs: np.ndarray, divisor) -> np.ndarray:
    """sum_l X_l(s) X_l(s)^H / divisor on a grid, as (grid, channels, channels).

    ``windows`` is a real (segments, channels, length) stack and X_l(s) the
    transform of segment l by ``_phase_transform``.  The grid is covered in
    the column slabs of ``_phase_slabs``, and each slab's transform is
    reduced before the next is built, so neither a phase table too large to
    cache nor the (segments, channels, grid) transform and its conjugate ever
    exist whole: Welch 32/16 on 3 x 65536 samples at 101 points has a 19 MB
    transform.  Slabs keep every bit of the unslabbed computation, because
    each phase entry is computed elementwise, each output column is the same
    BLAS dot over the samples and each estimate entry sums the segments in
    the same order, provided BLAS takes the same kernel for every column.
    The product is a real GEMM (a GEMV for one row) over twice as many real
    columns as the table has complex ones, and OpenBLAS sums the columns past
    the last whole group of its kernel's unroll with tail kernels, in another
    order.  So every table is zero-padded to a multiple of ``_PHASE_PAD`` = 8
    complex columns, ``_phase_slabs`` gives slabs that start at multiples of
    8 and, but for the last, which reads its padded columns, are a multiple
    of 8 wide, and only the grid's own columns are reduced.  Padded, no
    product is one column wide either, which numpy would run as a
    matrix-vector product summing in another order.

    Several channels reduce each slab with ``einsum``, which sums
    x_i conj(x_j) over the segments in order, starting from zero.  One
    channel takes a real reduction with the same bits, in about half the
    time.  einsum's product x conj(x) has the real part re*re - im*(-im),
    that is re^2 + im^2 with the same two roundings, and an imaginary part
    that cancels to zero exactly.  So the (segments, 2 columns) real view of
    the transform, re and im interleaved, is squared in place, each pair is
    added into its re column, and the segments are summed.  They must be
    summed in order.  numpy reduces an axis in order only when another axis
    is its inner loop; a reduced axis that is the only one longer than one
    becomes the inner loop, and numpy sums it pairwise, which changes the
    bits from 9 segments on.  A one-point grid of re columns alone would be
    that case, so the sum runs over both interleaved columns of every grid
    point and reads only the re ones.  The one-stage transform is taken
    with its zero pad columns, so that it is contiguous and the in-place
    square runs at full speed.  numpy divides a complex number by a real one
    as a product with the reciprocal, and the real path takes the same
    product.  The same real formulation at three channels, four real
    products per entry, measured 2-6 times slower than ``einsum``, so the
    path is chosen by the channel count.

    OpenBLAS splits a product between threads at points set by its shape, so
    the bits are promised at a fixed thread count only, and the tests compare
    at one thread; no change was seen between one and four threads.
    """
    segments, channels, length = windows.shape
    blocks = -(-length // _PHASE_BLOCK)
    # per grid column: the phase tables, then either the (segments, channels,
    # Q) partial products and the transform, or the transform and its conjugate
    rows = min(length, _PHASE_BLOCK) + blocks + segments * channels * (blocks + 1)
    windows = np.ascontiguousarray(windows)  # so each slab's product flattens it without a copy
    if channels == 1:
        estimate = np.zeros((freqs.size, 1, 1), dtype=complex)
        real = estimate.view(float)[:, 0, 0]
        scale = 1.0 / divisor
        for a, b in _phase_slabs(rows, freqs.size):
            # the transform is a fresh array of this call's, so it is overwritten
            squares = _phase_transform(windows, taper, freqs, slice(a, b), keep_padding=True).view(float)[:, 0]
            np.square(squares, out=squares)
            np.add(squares[:, 0::2], squares[:, 1::2], out=squares[:, 0::2])
            np.multiply(np.add.reduce(squares, axis=0)[0 : 2 * (b - a) : 2], scale, out=real[a:b])
        return estimate
    # the layout einsum gives its own output: the grid axis is contiguous
    estimate = np.empty((channels, channels, freqs.size), dtype=complex).transpose(2, 0, 1)
    for a, b in _phase_slabs(rows, freqs.size):
        # contiguous: the one-stage transform is a view of the padded product,
        # on which conj and einsum take a slow strided path (same bits)
        transform = np.ascontiguousarray(_phase_transform(windows, taper, freqs, slice(a, b)))
        np.einsum("lif,ljf->fij", transform, transform.conj(), out=estimate[a:b])
    estimate /= divisor
    return estimate


@dataclass(frozen=True)
class BiasedPeriodogram:
    """Transform of the biased autocovariance estimate; coefficient matrix ones/N."""

    kind = "biased_periodogram"

    def matrix(self, n: int) -> np.ndarray:
        return np.broadcast_to(1.0 / n, (n, n))

    def diagonal_sums(self, n: int) -> np.ndarray:
        return 1.0 - np.arange(n) / n

    def certificate_params(self, n: int) -> None:
        return None

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        return _segment_average(data.values[None], None, freqs, data.samples)

    def bias_condition(self, n: int, cutoff: int, eps: float, r1: float) -> bool:
        return n >= 2.0 * cutoff * r1 / eps


@dataclass(frozen=True)
class UnbiasedPeriodogram:
    """Transform of the unbiased autocovariance estimate; Toeplitz entries 1/(N-|k|)."""

    kind = "unbiased_periodogram"

    def matrix(self, n: int) -> np.ndarray:
        return _toeplitz(1.0 / (n - np.abs(np.arange(1 - n, n))))

    def diagonal_sums(self, n: int) -> np.ndarray:
        return np.ones(n)

    def certificate_params(self, n: int) -> None:
        return None

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        n = data.samples
        return lag_sum(_acs_head(data, n - 1, biased=False), np.ones(n), freqs)

    def bias_condition(self, n: int, cutoff: int, eps: float, r1: float) -> bool:
        return n >= cutoff


@dataclass(frozen=True)
class BlackmanTukey:
    """Windowed autocovariance estimator with lag weights cut off at ``half_width``.

    ``window`` is a named kind or an explicit symmetric weight vector of
    length 2*half_width - 1 (symmetry is required for a symmetric coefficient
    matrix).
    """

    kind = "blackman_tukey"
    half_width: int
    window: object = "rectangular"

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be positive")
        self.weights()

    def weights(self) -> np.ndarray:
        if isinstance(self.window, str):
            return lag_window(self.window, self.half_width)
        values = np.asarray(self.window, dtype=float)
        expected = 2 * self.half_width - 1
        if values.shape != (expected,):
            raise ValueError(f"custom lag window must have length {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("lag window contains non-finite entries")
        if not np.array_equal(values, values[::-1]):
            raise ValueError("lag window must satisfy w[k] = w[-k]")
        return values

    def _check_fits(self, n: int) -> None:
        if self.half_width > n:
            raise ValueError("lag cutoff cannot exceed the sample count")

    def matrix(self, n: int) -> np.ndarray:
        m = self.half_width
        self._check_fits(n)
        wide = np.zeros(2 * n - 1)
        wide[n - m : n + m - 1] = self.weights()
        return _toeplitz(wide / n)

    def diagonal_sums(self, n: int) -> np.ndarray:
        m = self.half_width
        self._check_fits(n)
        values = np.zeros(n)
        values[:m] = (n - np.arange(m)) * self.weights()[m - 1 :] / n
        return values

    def certificate_params(self, n: int) -> CertificateParams:
        # A[i, j] = w[i - j] / n: the row-sum bound gives ||A||_2 <= sum|w| / n,
        # every max |d[k]| is at most that, and ||A||_F^2 and every ||d[k]||^2
        # are at most sum w^2 / n
        self._check_fits(n)
        weights = self.weights()
        spectral, frobenius_sq = float(np.abs(weights).sum()) / n, float(weights @ weights) / n
        return CertificateParams(spectral, frobenius_sq, max(spectral, frobenius_sq), self.half_width)

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        m = self.half_width
        self._check_fits(data.samples)
        return lag_sum(_acs_head(data, m - 1, biased=True), self.weights()[m - 1 :], freqs)

    def bias_condition(self, n: int, cutoff: int, eps: float, r1: float) -> bool:
        weights = self.weights()
        in_range = bool(np.all(weights >= -_RANGE_SLACK) and np.all(weights <= 1.0 + _RANGE_SLACK))
        return self.half_width >= cutoff and n >= 2.0 * cutoff * r1 / eps and in_range


class _SegmentAverage:
    """Average of tapered periodograms over K segments: A = V V^T / K, V's columns the unit-norm taper at l * hop.

    A subclass gives the layout: ``segment_length``, ``hop``, ``taper`` (a
    window kind or weights of any norm) and ``segments(n)``, which counts the
    segments of n samples and rejects a count that the layout does not fill.
    """

    def taper_values(self) -> np.ndarray:
        if isinstance(self.taper, str):
            values = taper_window(self.taper, self.segment_length)
        else:
            values = np.asarray(self.taper, dtype=float)
            if values.shape != (self.segment_length,):
                raise ValueError(f"custom taper must have length {self.segment_length}")
        if not np.all(np.isfinite(values)) or not np.linalg.norm(values) > 0.0:
            raise ValueError("taper must be finite and non-zero")
        return values

    @cached_property
    def _taper_correlation(self) -> np.ndarray:
        """Read-only taper autocorrelation c over lags 0..m-1, with c(0) = 1.

        1 - |k|/m for a constant taper (Bartlett's), else |W|^2 of one real
        FFT zero-padded to at least 2m - 1 points.
        """
        taper = self.taper_values()
        m = taper.size
        if np.all(taper == taper[0]):
            one_sided = 1.0 - np.arange(m) / m
        else:
            size = 1 << (2 * m - 2).bit_length()
            spectrum = np.fft.rfft(taper, size)
            one_sided = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[:m]
        correlation = one_sided / one_sided[0]
        correlation.setflags(write=False)
        return correlation

    def matrix(self, n: int) -> np.ndarray:
        segments = self.segments(n)
        taper = self.taper_values()
        block = np.outer(taper, taper)
        matrix = np.zeros((n, n))
        for i in range(segments):
            start = i * self.hop
            matrix[start : start + self.segment_length, start : start + self.segment_length] += block
        matrix /= segments * float(taper @ taper)
        return matrix

    def diagonal_sums(self, n: int) -> np.ndarray:
        self.segments(n)
        values = np.zeros(n)
        values[: self.segment_length] = self._taper_correlation
        return values

    def certificate_params(self, n: int) -> CertificateParams:
        """Every norm bound (1 + 2 sum_{1 <= l < K, l hop < m} |c(l hop)|) / K, and truncation m.

        A is PSD with trace 1, so ||A||_F^2 <= ||A||_2 tr A, every ||d[k]||^2
        <= max_i A_ii tr A and every max|d[k]| <= max_i A_ii are at most
        ||A||_2 = ||V^T V||_2 / K.  The Gram matrix V^T V has entries
        c(|i - j| hop), and Gershgorin bounds its norm by its largest absolute
        row sum.  Without overlap (Bartlett) the bound is ||A||_2 = 1/K.
        """
        segments = self.segments(n)
        m = self.segment_length
        lags = np.arange(self.hop, m, self.hop)[: segments - 1]
        overlap = float(np.abs(self._taper_correlation[lags]).sum())
        bound = (1.0 + 2.0 * overlap) / segments
        return CertificateParams(bound, bound, bound, m)

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        segments = self.segments(data.samples)
        windows = _segment_stack(data.values, self.segment_length, self.hop, segments)
        taper = self.taper if isinstance(self.taper, str) else np.asarray(self.taper, dtype=float).tobytes()
        return _segment_average(windows, taper, freqs, segments)

    def bias_condition(self, n: int, cutoff: int, eps: float, r1: float) -> bool:
        # the diagonal sums are c out to the segment length and zero past it,
        # and the general test on them is the whole condition
        return True


@dataclass(frozen=True)
class Bartlett(_SegmentAverage):
    """Average of plain periodograms over contiguous blocks: the rectangular taper at hop = segment length."""

    kind = "bartlett"
    block_length: int
    taper = "rectangular"

    def __post_init__(self):
        if self.block_length < 1:
            raise ValueError("block_length must be positive")

    @property
    def segment_length(self) -> int:
        return self.block_length

    hop = segment_length

    def segments(self, num_samples: int) -> int:
        if num_samples < 1 or num_samples % self.block_length:
            raise ValueError("sample count must be a positive multiple of the block length")
        return num_samples // self.block_length


@dataclass(frozen=True)
class Welch(_SegmentAverage):
    """Average of tapered periodograms over segments of any length, hop and taper."""

    kind = "welch"
    segment_length: int
    hop: int
    taper: object = "hann"

    def __post_init__(self):
        if self.segment_length < 1 or self.hop < 1:
            raise ValueError("segment_length and hop must be positive")
        self.taper_values()

    def segments(self, num_samples: int) -> int:
        leftover = num_samples - self.segment_length
        if leftover < 0 or leftover % self.hop:
            raise ValueError("sample count must equal (segments - 1) * hop + segment_length")
        return leftover // self.hop + 1


FAMILIES = {cls.kind: cls for cls in (BiasedPeriodogram, UnbiasedPeriodogram, BlackmanTukey, Bartlett, Welch)}


def build_matrix(spec, num_samples: int) -> QuadraticForm:
    """Dense coefficient matrix of the estimator (the generic-path representation)."""
    n = int(num_samples)
    if n < 1:
        raise ValueError("sample count must be positive")
    return QuadraticForm(spec.matrix(n))


def closed_form_bias(spec, num_samples: int) -> BiasCoefficients:
    """Per-family closed form for the diagonal sums b[k], padded to lags 0..num_samples-1.

    Equals the brute-force diagonal sums of the dense coefficient matrix to
    rounding error.
    """
    n = int(num_samples)
    if n < 1:
        raise ValueError("sample count must be positive")
    return BiasCoefficients(spec.diagonal_sums(n))


def certificate_params(spec, num_samples: int) -> CertificateParams | None:
    """Closed-form norm bounds and truncation width feeding the concentration certificates.

    Returns None for the periodogram variants: their norm envelope never drops
    below one, so no concentration certificate exists.
    """
    return spec.certificate_params(int(num_samples))


def _acs_head(data: DataMatrix, max_lag: int, biased: bool) -> np.ndarray:
    """Lag products for k = 0..max_lag, divided by N (biased) or N - k."""
    y = data.values
    n, total = y.shape
    out = np.empty((max_lag + 1, n, n))
    for k in range(max_lag + 1):
        out[k] = (y[:, k:] @ y[:, : total - k].T) / (total if biased else total - k)
    return out


def evaluate_fast(spec, data: DataMatrix, frequencies) -> SpectralEstimate:
    """Structured evaluation over a grid: segment transforms or windowed autocovariance.

    Algebraically identical to ``evaluate_generic`` with the dense matrix;
    agreement holds to rounding error and is enforced by the test suite.

    The estimate is made exactly Hermitian, and its fresh stack is handed
    over, not copied.  A 1 x 1 estimate keeps its real part and takes +0 as
    its imaginary part, the bits ``hermitian_part`` gives it: 0.5 (re + re)
    is re and 0.5 (im - im) is +0 for any estimate below half the largest
    double.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    raw = spec.evaluate(data, freqs)
    if raw.shape[-1] == 1:
        raw.imag = 0.0
    else:
        raw = hermitian_part(raw)
    return SpectralEstimate.owning(freqs, raw)
