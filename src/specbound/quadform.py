"""Quadratic-form machinery shared by every spectral estimator in the package.

All estimators here evaluate, at a frequency ``s`` given in cycles per sample
on [-1/2, 1/2], the Hermitian matrix

    Y D(-s) A D(s) Y^T,    D(s) = diag(1, e^{j2 pi s}, ..., e^{j2 pi (N-1) s}),

for a real symmetric N x N coefficient matrix ``A``.  This module holds the
dense representation of ``A`` together with the derived quantities consumed by
the error certificates: the spectral and Frobenius norms of ``A`` and the
width past which its diagonals d[k] vanish, the diagonal sums b[k] that
determine the estimator mean (even in k, so stored for k >= 0 only), the
generic evaluation path used as the correctness oracle for the fast
structured paths, and exact bias evaluation against analytic process models,
whose lag sums go through ``phases.lag_sum`` like the estimators'.

Every per-diagonal statistic of a form (the sums, ``max|d[k]|`` and the
truncation width) comes from one vectorised pass over its diagonals, cached
on the form.  The spectral norm of a form of low rank (the biased
periodogram, Bartlett and Welch, all ``V V^T / K``) comes from a pivoted
Cholesky factor and one small eigensolve (Higham, 1990); every other
estimator family builds a centrosymmetric form (``A = J A J``, J reversing
the index order), whose spectral norm comes from one half-size eigensolve
instead of one dense one (Cantoni & Butler, 1976) when the form is entrywise
nonnegative (Perron-Frobenius), as Blackman-Tukey's and the unbiased
periodogram's are; any other form takes the dense eigensolve.  The generic
path rotates the data for a slab of frequencies at once, multiplies the
stacked real and imaginary parts by the real ``A`` in one real GEMM, and
finishes each frequency with one small batched product.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phases import lag_sum

__all__ = [
    "BiasCoefficients",
    "CertificateParams",
    "DataMatrix",
    "DiagonalStats",
    "QuadraticForm",
    "SpectralEstimate",
    "bias_coefficients",
    "diagonal_profile",
    "envelope_tail",
    "evaluate_generic",
    "evaluate_generic_grid",
    "exact_bias_sup",
    "expected_estimate",
    "frequency_grid",
    "hermitian_part",
    "hermitian_spectral_norms",
]


def frequency_grid(points: int = 101, full_range: bool = False) -> np.ndarray:
    """Closed, linearly spaced grid of frequencies in cycles per sample.

    The default covers [0, 1/2]; with ``full_range`` the grid spans
    [-1/2, 1/2].  Endpoints are always included.
    """
    if points < 1:
        raise ValueError("frequency grid needs at least one point")
    if points == 1:
        return np.zeros(1)
    start = -0.5 if full_range else 0.0
    return np.linspace(start, 0.5, points)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Average a square matrix, or each of a stack (..., n, n), with its conjugate transpose."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def hermitian_spectral_norms(matrices: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack (..., n, n) of Hermitian matrices.

    A 1 x 1 stack skips the eigensolver: LAPACK returns the real part of a
    1 x 1 Hermitian matrix as its eigenvalue, so the bits are the same.
    """
    if matrices.shape[-1] == 1:
        return np.abs(matrices[..., 0, 0].real)
    eigenvalues = np.linalg.eigvalsh(matrices)
    return np.abs(eigenvalues).max(axis=-1)


# slack for testing b[k] in [0, 1]: closed forms and diagonal sums agree only
# to rounding
_RANGE_SLACK = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, not copied if it is one; a complex input is an error, not a truncation."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError(f"{what} must be real, not complex")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class DataMatrix:
    """Real sample block with one row per channel and one column per sample."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(_real_array(self.values, "data"))
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("data must form a non-empty two-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "values", _frozen_array(arr))

    @classmethod
    def batch(cls, paths: np.ndarray) -> Iterator[DataMatrix]:
        """Each (channels, samples) block of a (trials, channels, samples) batch, checked once for the batch.

        The batch is frozen in place, not copied, and every block is a
        read-only row view of it.
        """
        arr = _real_array(paths, "data")
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError("a batch must form a non-empty (trials, channels, samples) array")
        if not np.isfinite(arr).all():
            raise ValueError("data contains non-finite entries")
        arr.setflags(write=False)
        for block in arr:
            data = object.__new__(cls)
            object.__setattr__(data, "values", block)
            yield data

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CertificateParams:
    """Bounds on ||A||_2 and ||A||_F^2, and a width past which every diagonal d[k] of A is zero.

    Both tails read ``envelope``; the tail uniform over frequency reads
    ``truncation`` too.  No per-diagonal norm is kept, since none can
    exceed the envelope: for a symmetric A every entry has |A_ij| =
    |e_i^T A e_j| <= ||A||_2, so max|d[k]| <= ||A||_2, and each ||d[k]||^2
    is a sum of squares of distinct entries, at most ||A||_F^2.
    """

    spectral: float
    frobenius_sq: float
    truncation: int

    @property
    def envelope(self) -> float:
        return max(self.spectral, self.frobenius_sq)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric coefficient matrix of a quadratic-form spectral estimator.

    The matrix is symmetrized on construction into one fresh, read-only,
    C-contiguous copy of 0.5 (A + A^T), written tile by tile (see
    ``_symmetric_copy``); rounding noise in upstream builders is the only
    asymmetry this ever removes.  Norms are computed lazily and cached.  The
    spectral norm takes the first of three routes that applies (see
    ``_spectral_norm``):

    - a positive semi-definite matrix of rank at most N/8 (the biased
      periodogram, Bartlett, Welch): max eig(G G^T) of a pivoted Cholesky
      factor G plus ||A - G^T G||_F;
    - a nearly centrosymmetric matrix whose centrosymmetric part C =
      (A + JAJ)/2 is entrywise nonnegative (every named Blackman-Tukey
      window and the unbiased periodogram): one half-size eigensolve plus
      ||A - JAJ||_F / 2, since the Perron eigenvector of C is J-even;
    - any other matrix (a signed custom window among them): one dense
      symmetric eigensolve, exact.

    The first two are upper bounds, above the exact norm by at most twice a
    residual of at most 1e-12 ||A||_F; on the estimator forms the residual is
    a few ulps.  The rank cap N/8 keeps the first route's O(N^2 r) flops
    below two half-size eigensolves' N^3 / 3.  A finite form whose squares pass the
    largest double keeps a finite ``frobenius_norm``, computed scaled by a
    power of two; ``certificate_params`` then reads ``frobenius_sq`` as inf.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _real_array(self.matrix, "coefficient matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("coefficient matrix must be square and non-empty")
        object.__setattr__(self, "matrix", _symmetric_copy(arr))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral_norm(self) -> float:
        return _spectral_norm(self.matrix, self.frobenius_norm)

    @cached_property
    def frobenius_norm(self) -> float:
        return _frobenius_norm(self.matrix)

    @cached_property
    def diagonal_stats(self) -> DiagonalStats:
        return _diagonal_pass(self.matrix)

    @cached_property
    def truncation_width(self) -> int:
        """Smallest width beyond which every diagonal of the matrix vanishes."""
        nonzero = np.flatnonzero(self.diagonal_stats.sup_norms)
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    @cached_property
    def certificate_params(self) -> CertificateParams:
        """The exact norms, in the record that the closed forms bound."""
        # f * f reads inf past the largest double, where f ** 2 raises
        frobenius = self.frobenius_norm
        return CertificateParams(self.spectral_norm, frobenius * frobenius, self.truncation_width)


def _frobenius_norm(matrix: np.ndarray) -> float:
    """||A||_F; when the squares of the entries overflow, from A scaled by a power of two.

    The scaling is exact, so any norm whose sum of squares stays finite keeps
    its bits; a norm that itself passes the largest double reads inf.
    """
    # a sum of squares past the largest double reads inf and is redone scaled
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(matrix))
        if math.isfinite(norm):
            return norm
        exponent = math.frexp(float(np.abs(matrix).max()))[1]
        return float(np.ldexp(np.linalg.norm(np.ldexp(matrix, -exponent)), exponent))


# side of the square tiles of ``_symmetric_copy``: a tile and its mirror,
# 128 KiB each, stay in cache while the mirror is read transposed
_SYMMETRIC_TILE = 128


def _symmetric_copy(matrix: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T) as one fresh, read-only, C-contiguous array, written tile by tile.

    ``np.add`` writes A[I, J] + A[J, I]^T into each tile I, J on or above
    the diagonal; the tile below it takes the transpose of that sum, which
    has the same bits, since a + b rounds as b + a.  So the transposed
    operand is read only within a tile that stays in cache: read across the
    whole matrix, each of its entries lies a row's length from the last.
    The copy is then halved in place.  Any input, a strided or broadcast
    view too, takes this one path.

    Each sum tile is checked for finiteness while it is in cache, which
    covers every input entry and every sum that overflows: a non-finite
    input raises as before, and a finite one whose a_ij + a_ji passes the
    largest double raises too, instead of giving a form of inf entries.
    """
    size = matrix.shape[0]
    out = np.empty((size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, size, _SYMMETRIC_TILE):
            rows = slice(i, i + _SYMMETRIC_TILE)
            for j in range(i, size, _SYMMETRIC_TILE):
                columns = slice(j, j + _SYMMETRIC_TILE)
                tile = np.add(matrix[rows, columns], matrix[columns, rows].T, out=out[rows, columns])
                if not np.isfinite(tile).all():
                    if np.isfinite(matrix).all():
                        raise ValueError("coefficient matrix overflows when symmetrized")
                    raise ValueError("coefficient matrix contains non-finite entries")
                if j != i:
                    out[columns, rows] = tile.T
    out *= 0.5
    out.setflags(write=False)
    return out


# largest scratch slab of the low-rank residual, the diagonal pass and the
# generic grid evaluation
_SLAB_BYTES = 8 << 20

# largest residual, as a multiple of ||A||_F, that still takes the low-rank
# route (||A - G^T G||_F) or the split (||A - JAJ||_F / 2): builders leave a
# few ulps, a generic matrix is far above
_RESIDUAL_GATE = 1e-12


def _spectral_norm(matrix: np.ndarray, frobenius_norm: float) -> float:
    """Spectral norm of a symmetric matrix, an upper bound when a route adds its residual.

    Three routes, tried in this order, each read off the matrix itself:

    - low rank (``_low_rank_norm``): a pivoted Cholesky factor G of at most
      N/8 rows gives max eig(G G^T) + ||A - G^T G||_F; the biased
      periodogram (rank 1), Bartlett and Welch (rank K, the segment count)
      take it;
    - split (``_centrosymmetric_norm``): one half-size eigensolve of the
      centrosymmetric part C plus ||A - JAJ||_F / 2, when C is entrywise
      nonnegative and the Perron-Frobenius theorem puts ||C||_2 in its first
      block; Blackman-Tukey with any named window and the unbiased
      periodogram, indefinite and of full rank, take it;
    - dense: one eigensolve, for any other matrix.

    By Weyl's inequality each residual, a Frobenius norm and so at least the
    spectral norm of what the route leaves out, bounds the error of the
    route's small eigenproblem; it is computed in floating point, and a
    route whose residual is above the gate falls through to the next one.
    """
    low_rank = _low_rank_norm(matrix, frobenius_norm)
    if low_rank is not None:
        return low_rank
    return _centrosymmetric_norm(matrix, frobenius_norm)


def _pivoted_cholesky(matrix: np.ndarray, limit: float) -> np.ndarray | None:
    """Rows G of a pivoted Cholesky factor of a symmetric matrix (Higham, 1990), at most N/8 of them, or None.

    Each step takes the largest diagonal entry of the Schur complement
    R = A - G^T G as its pivot p and appends the row R[p] / sqrt(R[p, p]).
    It stops once sum |diag R| is at most ``limit``: for a positive
    semi-definite R, ||R||_F <= trace R.  It refuses when no pivot can go
    on, or when R cannot get that small within N/8 rows:

    - a diagonal entry below -``limit``: no positive semi-definite Schur
      complement has one, later steps only lower it, and |R[i, i]| <= ||R||_F;
    - a pivot that is not positive;
    - N/8 rows that leave the diagonal above ``limit``.

    Where overflow is ignored, a row that overflows makes its square, and so
    some diagonal entry, -inf or NaN, which the first test refuses.
    """
    size = matrix.shape[0]
    cap = size // 8
    schur = np.diagonal(matrix).copy()
    factor = np.empty((cap, size))
    for rank in range(cap + 1):
        if not schur.min() >= -limit:
            return None
        if np.abs(schur).sum() <= limit:
            return factor[:rank]
        pivot = int(schur.argmax())
        if rank == cap or not schur[pivot] > 0.0:
            return None
        row = factor[rank]
        np.matmul(factor[:rank, pivot], factor[:rank], out=row)
        np.subtract(matrix[pivot], row, out=row)
        row /= math.sqrt(schur[pivot])
        schur -= row * row


def _low_rank_norm(matrix: np.ndarray, frobenius_norm: float) -> float | None:
    """max eig(G G^T) + ||A - G^T G||_F from a pivoted Cholesky factor G, or None when the route does not apply.

    G G^T has the nonzero spectrum of G^T G, and ||A||_2 <= ||G^T G||_2 +
    ||A - G^T G||_2 (Weyl).  Since ||A||_F - ||G G^T||_F is at most the
    residual, a Frobenius gap above the gate refuses the factor before the
    O(N^2 r) residual pass.  With r <= N/8 rows the factor (N r^2 flops),
    that pass (2 N^2 r <= N^3 / 4 flops of GEMM) and the r x r eigensolve
    cost less than two half-size eigensolves, about N^3 / 3 flops (the two
    meet near r = 0.15 N, and the cap stays below it), and less still than
    the dense eigensolve that a form with a negative entry would take
    instead.  A nonnegative form, whose split takes one half-size
    eigensolve, still gains at the cap, since the pass runs at GEMM speed:
    Bartlett 8 at N = 1024, rank N/8, takes 11.3 ms by the factor and
    14.1 ms by the split (one BLAS thread, 2-vCPU Xeon).  A zero or an
    overflowing ||A||_F leaves no gate to test, and the route does not
    apply.
    """
    if not 0.0 < frobenius_norm < math.inf:
        return None
    limit = _RESIDUAL_GATE * frobenius_norm
    # an overflow anywhere leaves an inf or NaN that a test below refuses
    with np.errstate(over="ignore"):
        factor = _pivoted_cholesky(matrix, limit)
        if factor is None:
            return None
        gram = factor @ factor.T
        if not abs(float(np.linalg.norm(gram)) - frobenius_norm) <= limit:
            return None
        residual = _factor_residual(matrix, factor)
    if not residual <= limit:
        return None
    return float(np.linalg.eigvalsh(gram).max()) + residual


def _factor_residual(matrix: np.ndarray, factor: np.ndarray) -> float:
    """||A - G^T G||_F, in row slabs of at most a quarter of the matrix and at most ``_SLAB_BYTES``.

    One slab buffer serves every slab, so the scratch, with G's at most N/8
    rows, stays below the half-size A - JAJ that the split forms first.
    """
    size = matrix.shape[0]
    rows = max(1, min((size + 3) // 4, _SLAB_BYTES // (8 * size)))
    slab = np.empty((rows, size))
    total = 0.0
    for start in range(0, size, rows):
        part = slab[: min(rows, size - start)]
        np.matmul(factor[:, start : start + rows].T, factor, out=part)
        np.subtract(matrix[start : start + rows], part, out=part)
        total += float(np.vdot(part, part))
    return math.sqrt(total)


def _centrosymmetric_norm(matrix: np.ndarray, frobenius_norm: float) -> float:
    """Spectral norm of a symmetric matrix by one half-size block of its centrosymmetric part, or by the dense eigensolve.

    With J the index reversal, C = (A + JAJ)/2 is centrosymmetric, and an
    orthogonal similarity splits its spectrum into those of two half-size
    blocks (Cantoni & Butler, 1976): for N = 2m, C11 + C12 J and C11 - C12 J;
    for N = 2m + 1 the first is bordered by sqrt(2) times the middle column
    and the middle entry.  The first block holds the J-even eigenvectors
    (Jv = v), the second the J-odd ones (Jv = -v).  D = A - JAJ has JDJ = -D,
    so rows i and N - 1 - i of D have one norm and the top half gives
    R = ||D||_F / 2.  Since ||A||_2 <= ||C||_2 + R, the split returns
    ||C||_2 + R.

    When C is entrywise nonnegative (every named Blackman-Tukey window, whose
    taper is clipped to [0, 1], and the unbiased periodogram, 1/(N - |k|)),
    the first block alone gives ||C||_2 (Perron-Frobenius).  C is symmetric
    and nonnegative, so ||C||_2 = rho(C) is an eigenvalue with an eigenvector
    v >= 0; JCJ = C makes Jv one for the same eigenvalue, and u = v + Jv is
    nonzero and J-even, so rho(C) is an eigenvalue of the first block.  Every
    eigenvalue of either block is one of C, at most rho(C) in magnitude, so
    max|eig| of the first block is ||C||_2.  A matrix with R above the gate,
    or whose C has a negative entry (a signed custom window), takes the
    dense eigensolve.
    """
    half, odd = divmod(matrix.shape[0], 2)
    top = matrix[: half + odd]
    mirrored = matrix[::-1, ::-1][: half + odd]
    skew = top - mirrored
    residual = 0.5 * math.sqrt(2.0 * np.vdot(skew[:half], skew[:half]) + np.vdot(skew[half:], skew[half:]))
    del skew
    if residual <= _RESIDUAL_GATE * frobenius_norm:
        # top rows of C, which hold every entry of C, whose bottom rows mirror them
        centro = top if residual == 0.0 else 0.5 * (top + mirrored)
        if centro.min() >= 0.0:
            first = centro[:half, :half] + centro[:half, ::-1][:, :half]
            if odd:
                border = math.sqrt(2.0) * centro[:half, half : half + 1]
                first = np.block([[first, border], [border.T, centro[half:, half : half + 1]]])
            return float(np.abs(np.linalg.eigvalsh(first)).max()) + residual
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


@dataclass(frozen=True)
class DiagonalStats:
    """Sum and ``max|d[k]|`` of each diagonal, at index k = 0..N-1.

    The matrix is exactly symmetric, so diagonal -k holds the entries of
    diagonal k and shares its statistics.
    """

    sums: np.ndarray
    sup_norms: np.ndarray

    def __post_init__(self):
        for name in ("sums", "sup_norms"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def _diagonal_pass(matrix: np.ndarray) -> DiagonalStats:
    """Sums and sup norms of every diagonal of a symmetric matrix, in row slabs of offsets.

    Row k - 1 of ``wrapped`` starts at entry (0, k) and steps N + 1 entries
    of the flat matrix.  Its first N - k entries are the diagonal k places
    above the main one, equal to d[k] because the matrix is symmetric; the
    rest wrap into the diagonal N + 1 - k places below it, and a mask zeroes
    them.
    """
    size = matrix.shape[0]
    main = np.diagonal(matrix)
    sums, sups = np.empty(size), np.empty(size)
    sums[0], sups[0] = main.sum(), np.abs(main).max()
    width = size - 1
    if width:
        # a symmetric matrix reads the same in either memory order, so this is a view
        flat = matrix.ravel(order="K")
        wrapped = sliding_window_view(flat, (width - 1) * (size + 1) + 1)[1:size, :: size + 1]
        columns = np.arange(width)
        rows = max(1, _SLAB_BYTES // (8 * width))
        for start in range(0, width, rows):
            stop = min(start + rows, width)
            lengths = width - np.arange(start, stop)
            heads = np.where(columns < lengths[:, None], wrapped[start:stop], 0.0)
            sums[1 + start : 1 + stop] = heads.sum(axis=1)
            np.abs(heads, out=heads)
            sups[1 + start : 1 + stop] = heads.max(axis=1)
    return DiagonalStats(sums, sups)


def diagonal_profile(form: QuadraticForm, offset: int) -> np.ndarray:
    """Read-only view of d[k], the ``offset``-th diagonal of ``form`` (positive offsets below the main one)."""
    if abs(offset) >= form.size:
        raise ValueError(f"|offset| must be smaller than the size {form.size}")
    return np.diagonal(form.matrix, offset=-offset)


@dataclass(frozen=True)
class BiasCoefficients:
    """Diagonal sums b[k] of a symmetric coefficient matrix, stored for lags k = 0..half_width-1.

    Every b[k] is even, b[-k] = b[k], so lag k lives at index |k|, and the
    sequence is zero past the stored lags; ``on_lags`` gives both signs.  The
    estimator mean is sum_k e^{-j2 pi s k} b[k] R[k].
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("diagonal sums need a non-empty vector")
        object.__setattr__(self, "values", _frozen_array(arr))

    @property
    def half_width(self) -> int:
        return self.values.size

    def on_lags(self, width: int) -> np.ndarray:
        """b[k] for |k| < width at index k + width - 1, zero beyond the stored lags."""
        head = self.values[:width]
        if width > head.size:
            head = np.concatenate([head, np.zeros(width - head.size)])
        return np.concatenate([head[:0:-1], head])


def bias_coefficients(form: QuadraticForm) -> BiasCoefficients:
    """Sum every diagonal of ``form``; equals 1^T d[k] at each lag."""
    return BiasCoefficients(form.diagonal_stats.sums)


def evaluate_generic(data: DataMatrix, form: QuadraticForm, frequency: float) -> np.ndarray:
    """Evaluate Y D(-s) A D(s) Y^T at one frequency, symmetrized to exact Hermitian.

    The one-frequency call of ``evaluate_generic_grid``: it rotates the data
    first, so it runs in O(n N^2 + n^2 N), with the product by ``A`` one real
    GEMM on the stacked real and imaginary parts of the rotated rows.  This
    dense path is the correctness oracle for the structured estimators.
    """
    return evaluate_generic_grid(data, form, [frequency]).matrices[0]


@dataclass(frozen=True)
class SpectralEstimate:
    """Hermitian spectral matrices evaluated on a frequency grid."""

    frequencies: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        self._freeze(self.frequencies, np.array(self.matrices, dtype=complex))

    def _freeze(self, frequencies, mats: np.ndarray) -> None:
        freqs = _frozen_array(np.atleast_1d(frequencies))
        if mats.ndim != 3 or mats.shape[0] != freqs.size or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must form a (grid, n, n) stack matching the frequencies")
        mats.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def owning(cls, frequencies, matrices: np.ndarray) -> SpectralEstimate:
        """An estimate that takes over ``matrices``, a fresh complex stack nothing else holds.

        The stack is checked and frozen, not copied; the grid is copied.
        """
        estimate = object.__new__(cls)
        estimate._freeze(frequencies, np.asarray(matrices, dtype=complex))
        return estimate

    @property
    def channels(self) -> int:
        return self.matrices.shape[1]

    def sup_norm(self) -> float:
        """Largest spectral norm over the grid."""
        return float(hermitian_spectral_norms(self.matrices).max())


def evaluate_generic_grid(data: DataMatrix, form: QuadraticForm, frequencies) -> SpectralEstimate:
    """Generic quadratic-form evaluation over a whole grid, in slabs of frequencies.

    For each frequency the rotated rows Y D(-s) = C - jS are stacked as the
    real rows [C; S].  A slab of frequencies holds at most half of
    ``_SLAB_BYTES`` of these rows, and their product by ``A`` the other half.
    One real GEMM multiplies the whole slab by ``A``; one batched 2n x 2n
    product per frequency then gives G = [C; S] A [C; S]^T, whence the
    estimate is (C A C^T + S A S^T) + j (C A S^T - S A C^T), made exactly
    Hermitian.  ``A`` is never cast to complex.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if form.size != data.samples:
        raise ValueError("coefficient matrix size must match the sample count")
    values, matrix = data.values, form.matrix
    n, size = values.shape
    angles = 2.0 * np.pi * np.arange(size)
    points = max(1, _SLAB_BYTES // (32 * n * size))
    matrices = np.empty((freqs.size, n, n), dtype=complex)
    for start in range(0, freqs.size, points):
        slab = freqs[start : start + points]
        phases = np.outer(slab, angles)
        rows = np.empty((slab.size, 2 * n, size))
        np.multiply(np.cos(phases)[:, None, :], values, out=rows[:, :n])
        np.multiply(np.sin(phases, out=phases)[:, None, :], values, out=rows[:, n:])
        del phases
        gram = (rows.reshape(-1, size) @ matrix).reshape(rows.shape) @ rows.swapaxes(1, 2)
        out = matrices[start : start + slab.size]
        out.real = gram[:, :n, :n] + gram[:, n:, n:]
        out.imag = gram[:, :n, n:] - gram[:, n:, :n]
    return SpectralEstimate(freqs, hermitian_part(matrices))


def envelope_tail(gamma: float, rho: float, lag: int) -> float:
    """Sum of the envelope gamma rho^|k| over |k| >= lag, for lag >= 1."""
    return 2.0 * gamma * rho ** lag / (1.0 - rho)


def _lag_sum(weights: np.ndarray, model, frequencies) -> np.ndarray:
    """sum_{|k| < H} e^{-j2 pi s k} w[k] R[k] on a grid, as (grid, n, n), from w[0..H-1] and the model's R[0..H-1]."""
    if not hasattr(model, "autocov_stack"):
        raise TypeError("model does not expose an analytic autocovariance")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    head = np.asarray(model.autocov_stack(weights.size - 1), dtype=float)
    return lag_sum(head, weights, freqs)


def expected_estimate(bias: BiasCoefficients, model, frequencies) -> np.ndarray:
    """Exact estimator mean sum_k e^{-j2 pi s k} b[k] R[k] on a grid, as (grid, n, n).

    Serves as the exact-mean oracle in bias tests.
    """
    return _lag_sum(bias.values, model, frequencies)


def exact_bias_sup(bias: BiasCoefficients, model, frequencies) -> float:
    """Worst-case bias upper bound, sharp up to the grid resolution.

    Evaluates sum_{|k| < H} e^{-j2 pi s k} (1 - b[k]) R[k] on the grid, takes
    the largest spectral norm, and adds the remainder bound
    ``envelope_tail`` of the model's decay pair on sum_{|l| >= H} ||R[l]||_2,
    where H >= 1 is the half-width of the diagonal sums.
    """
    finite = hermitian_part(_lag_sum(1.0 - bias.values, model, frequencies))
    grid_sup = float(hermitian_spectral_norms(finite).max())
    return grid_sup + float(envelope_tail(*model.decay(), bias.half_width))
