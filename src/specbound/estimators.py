"""Classical spectrum estimators expressed through their quadratic forms.

Three families are covered: raw periodograms (biased and unbiased
autocovariance transforms), windowed-autocovariance estimates (Blackman-Tukey,
banded Toeplitz coefficient matrix), and tapered segment averages (Welch, a
sum of shifted rank-one blocks, and Bartlett, the layout of contiguous
untapered blocks, which takes every method from Welch).  Each spec class has
a config ``kind`` and, for a sample count n, its dense coefficient matrix
(``matrix(n)``), its closed-form diagonal sums b[k] at lags k = 0..n-1
(``diagonal_sums(n)``; b is even), the norm envelope and truncation width
feeding the worst-case certificates (``certificate_params(n)``, None when no
concentration certificate exists), what its bias condition asks beyond the
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

    OpenBLAS splits a product between threads at points set by its shape, so
    the bits are promised at a fixed thread count only, and the tests compare
    at one thread; no change was seen between one and four threads.
    """
    segments, channels, length = windows.shape
    blocks = -(-length // _PHASE_BLOCK)
    # per grid column: the phase tables, then either the (segments, channels,
    # Q) partial products and the transform, or the transform and its conjugate
    rows = min(length, _PHASE_BLOCK) + blocks + segments * channels * (blocks + 1)
    # the layout einsum gives its own output: the grid axis is contiguous
    estimate = np.empty((channels, channels, freqs.size), dtype=complex).transpose(2, 0, 1)
    windows = np.ascontiguousarray(windows)  # so each slab's product flattens it without a copy
    for a, b in _phase_slabs(rows, freqs.size):
        # contiguous: the one-stage transform is a view of the padded product,
        # on which conj and einsum take a slow strided path (same bits)
        transform = np.ascontiguousarray(_phase_transform(windows, taper, freqs, slice(a, b)))
        np.einsum("lif,ljf->fij", transform, transform.conj(), out=estimate[a:b])
    return estimate / divisor


@dataclass(frozen=True)
class BiasedPeriodogram:
    """Transform of the biased autocovariance estimate; coefficient matrix ones/N."""

    kind = "biased_periodogram"

    def matrix(self, n: int) -> np.ndarray:
        return np.full((n, n), 1.0 / n)

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
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        return 1.0 / (n - lags)

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
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        return wide[diff + n - 1] / n

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
        bound = max(float(np.abs(weights).sum()), float(weights @ weights))
        return CertificateParams(bound / n, self.half_width)

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
        """Envelope (1 + 2 sum_{1 <= l < K, l hop < m} |c(l hop)|) / K and truncation m.

        A is PSD with trace 1, so ||A||_F^2 <= ||A||_2 tr A, every ||d[k]||^2
        <= max_i A_ii tr A and every max|d[k]| <= max_i A_ii are at most
        ||A||_2 = ||V^T V||_2 / K.  The Gram matrix V^T V has entries
        c(|i - j| hop), and Gershgorin bounds its norm by its largest absolute
        row sum.  Without overlap (Bartlett) the envelope is ||A||_2 = 1/K.
        """
        segments = self.segments(n)
        m = self.segment_length
        lags = np.arange(self.hop, m, self.hop)[: segments - 1]
        overlap = float(np.abs(self._taper_correlation[lags]).sum())
        return CertificateParams((1.0 + 2.0 * overlap) / segments, m)

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        segments = self.segments(data.samples)
        windows = sliding_window_view(data.values, self.segment_length, axis=1)[:, ::self.hop]
        taper = self.taper if isinstance(self.taper, str) else np.asarray(self.taper, dtype=float).tobytes()
        return _segment_average(windows.transpose(1, 0, 2), taper, freqs, segments)

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


@dataclass(frozen=True)
class CertificateParams:
    """Envelope over all coefficient norms plus the diagonal truncation width."""

    envelope: float
    truncation: int


def certificate_params(spec, num_samples: int):
    """Closed-form (envelope, truncation) feeding the worst-case certificates.

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
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    return SpectralEstimate(freqs, hermitian_part(spec.evaluate(data, freqs)))
