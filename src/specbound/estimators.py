"""Classical spectrum estimators expressed through their quadratic forms.

Three families are covered: raw periodograms (biased and unbiased
autocovariance transforms), windowed-autocovariance estimates (Blackman-Tukey,
banded Toeplitz coefficient matrix), and tapered segment averages (Welch, a
sum of shifted rank-one blocks, and Bartlett, the layout of contiguous
untapered blocks, which takes every method from Welch).  Each spec class has
a config ``kind`` and, for a sample count n, a check that its layout fits n
(``check_fits(n)``, a ValueError naming the mismatch), its dense coefficient matrix
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

``_acs_head`` takes every lag head from FFT lag products in blocks
(overlap-save), whatever the window and the record length.  No lag product
calls BLAS, so these two families' estimates have the same bits at any BLAS
thread count.

Every estimate is one quadratic form, which can be summed in the transform
domain or in the lag domain to the same rounding at very different costs.
Several channels of many short segments take the lag head of one segment
Gram (``_segment_gram``) instead of the segment transforms and ``einsum``,
chosen by the shapes alone (``_gram_is_cheaper``): at least as many
segments as the stacked segment has samples, a segment no longer than the
padded grid and a Gram no larger than one phase slab.  Three channels of
4095 Hann segments of 32 on 101 points take 3.5 ms instead of 51 ms.  One
channel, one segment (the biased periodogram) and segments longer than 256
samples always keep the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phases import _PHASE_BLOCK, _PHASE_SLAB_BYTES, WINDOW_KINDS, _padded, _phase_slabs, _phase_transform, _unit_taper, lag_sum, taper_window
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
    """Even lag weights w[k] = w[-k] for |k| < half_width, stored at index k + half_width - 1.

    Same shapes as the tapers, re-centered so the peak weight sits at lag 0.
    A named taper's two halves can differ in the last bit, because
    cos(2 pi k / (L - 1)) and cos(2 pi (L - 1 - k) / (L - 1)) round apart,
    so the lags k >= 0, the half the fast path reads, are mirrored onto the
    negative ones: the window, the dense form and b[k] are exactly even.
    """
    weights = taper_window(kind, 2 * half_width - 1)
    weights[: half_width - 1] = weights[: half_width - 1 : -1]
    return weights


def _toeplitz(lags: np.ndarray) -> np.ndarray:
    """Read-only n x n view M[i, j] = lags[i - j + n - 1] of a vector of 2n - 1 lag entries.

    Row i is the window lags[i : i + n] read backwards, so the view reads
    every entry with i - j as the index and never transposes the vector.
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


def _gram_is_cheaper(segments: int, channels: int, length: int, points: int) -> bool:
    """Whether ``_segment_gram`` takes the place of the segment transforms, by the shapes alone.

    For K segments of m samples, c channels and P padded grid columns, the
    transforms take K c m P multiply-adds and K c^2 P ``einsum`` terms, the
    Gram K (c m)^2 / 2 multiply-adds and a fixed c^2 m^2 diagonal terms.
    So the Gram is taken when
    - there are several channels: one keeps its real transform path;
    - the segment stack is at least as tall as it is wide, K >= c m, so that
      its fixed cost is spread over as many segments as the Gram has rows.
      This keeps the one segment of the biased periodogram on its transform;
    - a segment is no longer than the padded grid, m <= P, since the Gram's
      work per segment grows with m^2 and the transforms' with m P;
    - a segment is one block, m <= ``_PHASE_BLOCK``: a longer one keeps its
      two-stage transform;
    - the Gram is no larger than one phase slab, 8 (c m)^2 bytes at most
      ``_PHASE_SLAB_BYTES``, as the Gram and its diagonals are two arrays of
      that size where the transforms keep to their slabs.
    Timed against the transforms over 2, 3, 5 and 8 channels, m = 8..256,
    K = 2..4095 and 1, 17, 101 and 1001 points (one BLAS thread, 2-vCPU
    Xeon), the Gram so taken was slower in 16 of 456 cases, by 0.7 ms in
    all, the most 2.4 times on a 0.03 ms estimate (two channels, 32
    segments of 8, one point).  Three channels of 4095 Hann segments of 32
    on 101 points take 3.5 instead of 51 ms.  Bartlett 64 on 17 x 69632
    samples, too wide a Gram, keeps its transforms: 15 MiB of scratch where
    the Gram takes 30 MiB, though 250 ms where the Gram takes 60.
    """
    width = channels * length
    return (
        channels > 1
        and segments >= width
        and length <= min(_padded(points), _PHASE_BLOCK)
        and 8 * width * width <= _PHASE_SLAB_BYTES
    )


def _segment_gram(windows: np.ndarray, taper, freqs: np.ndarray) -> np.ndarray:
    """sum_l X_l(s) X_l(s)^H on a grid, as (grid, channels, channels), from the lag head of one segment Gram.

    S is the (segments, channels * length) stack of the segments times the
    unit-norm taper q, and its Gram S^T S one BLAS ``syrk`` (numpy runs
    a.T @ a so).  Block (i, j) of the Gram holds sum_l q[t] q[t'] y_i[lh + t]
    y_j[lh + t'], so its k-th subdiagonal sums to
    head[k][i, j] = sum_l sum_t q[t + k] q[t] y_i[lh + t + k] y_j[lh + t]
    for k < m, and sum_l X_l X_l^H is the lag sum of that head with unit
    weights, head[-k] = head[k]^T, by ``lag_sum``: the same quadratic form,
    evaluated in the lag domain.  The subdiagonals are read through one
    strided view of the Gram and summed in two numpy calls, with no loop
    over k.
    """
    segments, channels, length = windows.shape
    width = channels * length
    # written in C order: numpy would lay out the product of an overlapping
    # view in that view's stride order, and the reshape would then copy it
    # (5.5 against 0.7 ms for Welch 32/16 on 3 x 65536 samples)
    stack = np.multiply(windows, _unit_taper(taper, length), out=np.empty(windows.shape)).reshape(segments, width)
    # the Gram followed by m - 1 rows of zeros, so that entry
    # (i m + t + k, j m + t) lies in the array for every t, k < m
    rows = np.empty((width + length - 1, width))
    rows[width:] = 0.0
    np.matmul(stack.T, stack, out=rows[:width])
    row, column = rows.strides
    diagonals = np.ndarray((channels, channels, length, length), float, rows, 0, (length * row, length * column, row, row + column))
    # entry [i, j, k, t] of the diagonals is a term of head[k][i, j] while
    # t + k < m; each diagonal is copied into a contiguous row, zeros last,
    # which numpy sums pairwise
    terms = np.zeros(diagonals.shape)
    np.copyto(terms, diagonals, where=np.tri(length, dtype=bool)[::-1])
    head = terms.sum(axis=-1)
    return lag_sum(head.transpose(2, 0, 1), np.ones(length), freqs)


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

    Several channels of short segments that ``_gram_is_cheaper`` picks
    take ``_segment_gram`` instead, the same form in the lag domain;
    its bits were the same at one and two BLAS threads in every case tried
    (two, three and five channels, 128 to 4095 segments).
    """
    segments, channels, length = windows.shape
    if _gram_is_cheaper(segments, channels, length, freqs.size):
        estimate = _segment_gram(windows, taper, freqs)
        estimate /= divisor
        return estimate
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

    def check_fits(self, n: int) -> None:
        """Every sample count fits."""

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

    def check_fits(self, n: int) -> None:
        """Every sample count fits."""

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
        if not np.any(values):
            raise ValueError("lag window must have a nonzero weight")
        return values

    def check_fits(self, n: int) -> None:
        if self.half_width > n:
            raise ValueError("lag cutoff cannot exceed the sample count")

    def matrix(self, n: int) -> np.ndarray:
        m = self.half_width
        self.check_fits(n)
        wide = np.zeros(2 * n - 1)
        wide[n - m : n + m - 1] = self.weights()
        return _toeplitz(wide / n)

    def diagonal_sums(self, n: int) -> np.ndarray:
        m = self.half_width
        self.check_fits(n)
        values = np.zeros(n)
        values[:m] = (n - np.arange(m)) * self.weights()[m - 1 :] / n
        return values

    def certificate_params(self, n: int) -> CertificateParams:
        # A[i, j] = w[i - j] / n: the row-sum bound gives ||A||_2 <= sum|w| / n,
        # and ||A||_F^2 is at most sum w^2 / n
        self.check_fits(n)
        weights = self.weights()
        return CertificateParams(float(np.abs(weights).sum()) / n, float(weights @ weights) / n, self.half_width)

    def evaluate(self, data: DataMatrix, freqs: np.ndarray) -> np.ndarray:
        m = self.half_width
        self.check_fits(data.samples)
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

    def check_fits(self, n: int) -> None:
        self.segments(n)

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
        """Both norm bounds (1 + 2 sum_{1 <= l < K, l hop < m} |c(l hop)|) / K, and truncation m.

        A is PSD with trace 1, so ||A||_F^2 <= ||A||_2 tr A is at most
        ||A||_2 = ||V^T V||_2 / K.  The Gram matrix V^T V has entries
        c(|i - j| hop), and Gershgorin bounds its norm by its largest absolute
        row sum.  Without overlap (Bartlett) the bound is ||A||_2 = 1/K.
        """
        segments = self.segments(n)
        m = self.segment_length
        lags = np.arange(self.hop, m, self.hop)[: segments - 1]
        overlap = float(np.abs(self._taper_correlation[lags]).sum())
        bound = (1.0 + 2.0 * overlap) / segments
        return CertificateParams(bound, bound, m)

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


def _fft_size(samples: int, lags: int) -> int:
    """The least power of two of at least samples + lags - 1, so that no circular product wraps onto a kept lag."""
    return 1 << (samples + lags - 2).bit_length()


def _lag_block(samples: int, lags: int) -> int:
    """The FFT lag products' block: 4 times the least power of two of at least ``lags``, at least 2048 points and at most ``_fft_size``."""
    return min(max(2048, 4 << (lags - 1).bit_length()), _fft_size(samples, lags))


def _acs_head(data: DataMatrix, max_lag: int, biased: bool) -> np.ndarray:
    """Lag products R[k][i, j] = sum_t y_i[t + k] y_j[t] for k = 0..max_lag, divided by N (biased) or N - k.

    FFT lag products in blocks of F = ``_lag_block`` points (overlap-save,
    Stockham 1966): the record is cut into spans of F - max_lag samples, the
    F samples from each span's start are correlated with the span alone, so
    that each product y_i[t + k] y_j[t] is counted once and none wraps, and
    the c^2 cross-spectra X_i conj(Z_j) are summed over the blocks before one
    batched ``irfft``.  A record of at most F - max_lag samples is the case
    of one block, whose window and span have the same zero-padded input, so
    one transform serves both.  numpy's FFT and ``einsum`` do not call BLAS,
    so the head has the same bits at any BLAS thread count.  Against a
    long-double lag sum on one channel, the unbiased periodogram is 9e-15
    (N = 2064) and 2e-14 (N = 16384) of its largest value off,
    Blackman-Tukey hann 32 7e-16 and 4e-16.
    """
    y = data.values
    total = data.samples
    lags = max_lag + 1
    size = _lag_block(total, lags)
    span = size - max_lag
    windows = sliding_window_view(np.pad(y, ((0, 0), (0, -total % span + max_lag))), size, axis=1)[:, ::span]
    spectra = np.fft.rfft(windows)
    heads = spectra if total <= span else np.fft.rfft(windows[..., :span], size)
    cross = np.einsum("ibf,jbf->ijf", spectra, heads.conj())
    head = np.fft.irfft(cross, size)[..., :lags].transpose(2, 0, 1)
    return head / (total if biased else (total - np.arange(lags))[:, None, None])


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
