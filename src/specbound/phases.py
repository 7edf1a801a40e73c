"""Fourier sums over the phases e^{-2 pi i s t}: one cached table builder, one transform and one lag sum.

Every fast path of the estimators and the exact mean and bias sums of
``quadform`` evaluate a sum sum_t x[t] e^{-2 pi i s t} on a frequency grid,
and all of them take it from ``_phase_transform``: a real stack of at most
``_PHASE_BLOCK`` = 256 samples takes one product with its (length, grid)
phase table, a unit-norm taper folded in; a longer one is split into blocks
of 256 (t = qB + r) and takes one product with a (256, grid) inner table and
one contraction with a (blocks, grid) outer table, so N samples build
256 + N/256 complex exponentials per frequency instead of N.  The data stays
real: each product multiplies the flattened real stack by the complex table
read as twice as many real columns, one real GEMM with half the flops of a
complex one, and every table is stored zero-padded to a multiple of 8 grid
columns, so each slab of ``_phase_slabs`` takes the BLAS kernels of the
whole grid's.  ``lag_sum`` sums an even-weighted lag sequence over both
signs of the lag through one such transform of its one-sided head.

Every table comes from ``_build_segment_phases``, which reduces each phase
argument t s mod 1 exactly before it is rounded, so a table's accuracy does
not fall with its length.  Tables of at most ``_PHASE_CACHE_BYTES`` come
from one bounded ``functools.lru_cache`` keyed by the length, the taper (a
window name or a custom taper's bytes) and the grid bytes; at 101 grid
points that holds both tables of every transform up to 65536 samples.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["WINDOW_KINDS", "lag_sum", "taper_window"]

WINDOW_KINDS = ("rectangular", "triangular", "hann", "hamming", "blackman")


def taper_window(kind: str, length: int) -> np.ndarray:
    """Symmetric data taper of the named kind on points 0..length-1.

    All named kinds take values in [0, 1] and are symmetric about the
    midpoint; a length of one degenerates to the single weight 1.
    """
    if length < 1:
        raise ValueError("window length must be positive")
    if kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind {kind!r}")
    if kind == "rectangular" or length == 1:
        return np.ones(length)
    k = np.arange(length)
    x = 2.0 * np.pi * k / (length - 1)
    if kind == "triangular":
        values = 1.0 - np.abs(2.0 * k - (length - 1)) / (length - 1)
    elif kind == "hann":
        values = 0.5 - 0.5 * np.cos(x)
    elif kind == "hamming":
        values = 0.54 - 0.46 * np.cos(x)
    else:
        values = 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    # rounding can leave values a few ulp outside [0, 1]
    return np.clip(values, 0.0, 1.0)


# largest set of per-column arrays _segment_average builds at once
_PHASE_SLAB_BYTES = 8 << 20

# phase tables are stored with their grid columns zero-padded to a multiple of this
_PHASE_PAD = 8


def _padded(points: int) -> int:
    """``points`` rounded up to a whole number of ``_PHASE_PAD`` columns."""
    return -(-points // _PHASE_PAD) * _PHASE_PAD


def _phase_slabs(rows: int, points: int) -> list[tuple[int, int]]:
    """Column ranges [a, b) covering ``points`` grid columns of ``rows`` complex entries each.

    Up to ``_PHASE_SLAB_BYTES`` in all is one range.  Otherwise the ranges
    start at multiples of ``_PHASE_PAD`` and, but for the last, are a
    multiple of ``_PHASE_PAD`` wide.
    """
    width = _PHASE_SLAB_BYTES // (16 * rows)
    if width >= points:
        return [(0, points)]
    width = max(_PHASE_PAD, width // _PHASE_PAD * _PHASE_PAD)
    starts = list(range(0, points, width))
    return list(zip(starts, starts[1:] + [points]))


# largest segment phase matrix _segment_phases keeps in its cache
_PHASE_CACHE_BYTES = 1 << 20

# samples per block of the two-stage transform; a power of two, so s * B is exact
_PHASE_BLOCK = 256

def _unit_taper(taper, length: int) -> np.ndarray:
    """A window kind or a custom taper's float64 bytes, scaled to unit norm."""
    values = taper_window(taper, length) if isinstance(taper, str) else np.frombuffer(taper)
    return values / np.linalg.norm(values)


def _build_segment_phases(length: int, taper, grid: bytes) -> np.ndarray:
    """Read-only (length, padded grid) matrix of segment phases, scaled by a unit-norm taper.

    ``taper`` is None (no taper), a window kind, or the float64 bytes of a
    custom taper; ``grid`` holds the float64 bytes of the frequencies, and
    the columns past them, up to a multiple of ``_PHASE_PAD``, are zero.
    The phase of t at s is e^{-2 pi i (t s mod 1)}, the argument reduced
    before it is rounded: a Veltkamp split writes s = head + tail with a head
    of at most 26 significant bits, so t head is exact for t < 2^27 and its
    whole turns are removed exactly; only the small t tail is rounded.
    Built in place, so a matrix of B bytes peaks at 1.5 B.
    """
    freqs = np.frombuffer(grid)
    split = freqs * (2.0**27 + 1.0)
    head = split - (split - freqs)
    indices = np.arange(length, dtype=float)[:, None]
    turns = indices * head
    turns -= np.round(turns)
    turns += indices * (freqs - head)
    phases = np.zeros((length, _padded(freqs.size)), dtype=complex)
    table = phases[:, : freqs.size]
    np.multiply(turns, -2j * np.pi, out=table)
    np.exp(table, out=table)
    if taper is not None:
        table *= _unit_taper(taper, length)[:, None]
    phases.setflags(write=False)
    return phases


_cached_segment_phases = functools.lru_cache(maxsize=16)(_build_segment_phases)


def _segment_phases(length: int, taper, freqs: np.ndarray, columns: slice = slice(None)) -> np.ndarray:
    """Grid ``columns`` of the segment phases shared by every call with the same (length, taper, grid).

    ``columns`` starts at a multiple of ``_PHASE_PAD``, and the table
    returned runs on to a multiple of ``_PHASE_PAD`` columns past that start,
    the columns past the grid being zero.  A whole table of at most
    ``_PHASE_CACHE_BYTES`` is cached, so every slab of a grid reads one
    entry; a larger one is built afresh for the asked columns on each call,
    so the cache holds at most 16 MiB.
    """
    if 16 * length * _padded(freqs.size) > _PHASE_CACHE_BYTES:
        return _build_segment_phases(length, taper, freqs[columns].tobytes())
    start, stop, _ = columns.indices(freqs.size)
    return _cached_segment_phases(length, taper, freqs.tobytes())[:, start : start + _padded(stop - start)]


def _times_phases(values: np.ndarray, phases: np.ndarray, width: int | None) -> np.ndarray:
    """Real (..., length) stack times a padded (length, columns) phase table, as (..., width).

    One real GEMM (or, for one row, GEMV) of the flattened stack with the
    table read as (length, 2 columns) reals; the first ``width`` complex
    columns of the product are a view.  A ``width`` of None keeps every
    padded column: the product itself, contiguous.
    """
    product = (values.reshape(-1, values.shape[-1]) @ phases.view(float)).view(complex)
    if width is not None:
        product = product[:, :width]
    return product.reshape(values.shape[:-1] + product.shape[1:])


def _phase_transform(
    values: np.ndarray, taper, freqs: np.ndarray, columns: slice = slice(None), keep_padding: bool = False
) -> np.ndarray:
    """sum_t w[t] x[t] e^{-2 pi i s t} over the last axis of a real (..., length) stack, as (..., columns).

    w is the unit-norm ``taper``, or one when it is None.  Up to
    ``_PHASE_BLOCK`` samples this is one product with the (length, grid)
    phases of ``_segment_phases``, the taper folded in.  A longer axis is
    split as t = q B + r (Cooley & Tukey, 1965): the tapered data, zero-padded
    to Q whole blocks of B samples, is multiplied by the (B, grid) inner
    phases e^{-2 pi i s r}, and its Q axis is contracted against the
    (Q, grid) outer phases e^{-2 pi i s q B}, which are the segment phases of
    length Q on the grid scaled by B.  Both tables come from
    ``_segment_phases``: (B + Q) exponentials per frequency instead of Q B.
    The data stays real: each product is one real GEMM by ``_times_phases``.
    With ``keep_padding`` a one-stage transform keeps the product's zero
    columns past the grid, up to a multiple of ``_PHASE_PAD``, and is
    contiguous; a two-stage one is contiguous with the grid's columns only.
    """
    length = values.shape[-1]
    width = freqs[columns].size
    if length <= _PHASE_BLOCK:
        return _times_phases(values, _segment_phases(length, taper, freqs, columns), None if keep_padding else width)
    blocks = -(-length // _PHASE_BLOCK)
    padded = np.zeros(values.shape[:-1] + (blocks * _PHASE_BLOCK,))
    padded[..., :length] = values if taper is None else values * _unit_taper(taper, length)
    inner = _segment_phases(_PHASE_BLOCK, None, freqs, columns)
    partial = _times_phases(padded.reshape(values.shape[:-1] + (blocks, _PHASE_BLOCK)), inner, width)
    outer = _segment_phases(blocks, None, freqs * _PHASE_BLOCK, columns)[:, :width]
    return np.einsum("...qf,qf->...f", partial, outer)


def lag_sum(head: np.ndarray, weights: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """sum_{|k| < H} e^{-2 pi i s k} w[k] R[k] on a grid, as (grid, n, n).

    ``head`` is the real one-sided stack R[0..H-1] of (n, n) lag matrices,
    and ``weights`` the one-sided w[0..H-1] of an even weight sequence,
    w[-k] = w[k].  Both sides are one ``_phase_transform`` over the lags
    k = 0..H-1, stacked as (2n, n, H): w[k] R[k] on top, and below
    w[-k] R[-k] = w[k] R[k]^T, whose transform is conjugated because the R[k]
    are real.  The phase tables are the cached (H, grid) one up to 256 lags
    and the cached (256, grid) and (blocks, grid) ones beyond, never a
    (grid, 2H - 1) phase matrix, and each phase e^{-2 pi i s k} is rounded
    at its own |k|, where a decaying covariance keeps its mass.
    """
    head = head.transpose(1, 2, 0)  # R[k][i, j] at [i, j, k]
    n = head.shape[0]
    sides = np.concatenate([head * weights, head.transpose(1, 0, 2) * weights])
    sides[n:, :, 0] = 0.0  # lag 0 is summed once
    transform = _phase_transform(sides, None, freqs)
    return (transform[:n] + transform[n:].conj()).transpose(2, 0, 1)
