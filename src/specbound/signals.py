"""Analytic process models, exact spectra, decay certificates, and samplers.

Three stationary zero-mean model families back the validation studies:

* ``GeometricScalar`` - a scalar first-order recursion with autocovariance
  exactly rho^|k| and unit variance, driven by Gaussian or scaled-uniform
  noise;
* ``WhiteNoise`` - independent unit-variance channels;
* ``StateSpace`` - a stable multichannel system driven by standard normal
  vectors, with closed-form autocovariance via the stationary state
  covariance.

Models expose the exact autocovariance R[0..K] as one stack
(``autocov_stack``), the spectrum, its sup norm, the summed covariance norm
and its first lag moment, a geometric decay pair (gamma, rho) with ||R[k]||_2 <= gamma * rho^|k|
(``decay(rate)`` gives one at a faster rate where that is proven), and their sampler
as ``sample_paths``; covariance tail sums follow from the decay pair
(``quadform.envelope_tail``).  ``MODELS`` maps each config ``kind`` to
its class, whose dataclass fields are the config keys.  Samplers draw from
counter-based streams keyed by (seed, path index) so every path is bitwise
reproducible independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadform import DataMatrix, envelope_tail, hermitian_spectral_norms
from .streams import trial_streams

__all__ = [
    "DecayCertificate",
    "GeometricScalar",
    "MODELS",
    "NOISE_KINDS",
    "PHI_GRID_POINTS",
    "StateSpace",
    "UNIFORM_SIGMA",
    "WhiteNoise",
    "certify_decay",
    "covariance_norm_sums",
    "grid_phi_inf",
    "psd",
    "r1_norm_bound",
    "sample_geometric",
    "sample_geometric_paths",
    "sample_state_space",
    "sample_state_space_paths",
    "sample_white",
    "sample_white_paths",
    "solve_discrete_lyapunov",
    "spectral_radius",
]

NOISE_KINDS = ("gaussian", "uniform")

# uniform noise on [-sqrt(3), sqrt(3)]: unit variance, sub-gaussian scale sqrt(3)
UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_SIGMA = math.sqrt(3.0)


def spectral_radius(matrix) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float))).max())


def solve_discrete_lyapunov(transition, forcing) -> np.ndarray:
    """Solve X = T X T' + Q by fixed-point doubling (requires spectral radius of T < 1).

    Each pass squares the transition matrix, so convergence is quadratic and
    unconditional for stable T; the result is symmetrized.  It stops once an
    update falls below 1e-12 of the sum, and fails after 128 passes.
    """
    x = np.array(forcing, dtype=float)
    t = np.array(transition, dtype=float)
    for _ in range(128):
        update = t @ x @ t.T
        fresh = x + update
        if np.linalg.norm(update) <= 1e-12 * max(np.linalg.norm(fresh), np.finfo(float).tiny):
            return 0.5 * (fresh + fresh.T)
        x = fresh
        t = t @ t
    raise ValueError("doubling iteration did not converge; transition matrix may be unstable")


# points of the frequency grid on [-1/2, 1/2] behind ``grid_phi_inf``
PHI_GRID_POINTS = 4096
# the coarse pass of ``grid_phi_inf`` takes every PHI_COARSE_STRIDE-th grid point and the last
PHI_COARSE_STRIDE = 16
# relative slack on the bracket comparisons of ``grid_phi_inf``; rounding is far below it
PHI_BRACKET_SLACK = 1e-9


def _norm_brackets(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the spectral norm of each Hermitian matrix ``eigvalsh`` reads.

    ``eigvalsh`` reads the lower triangle and the real diagonal.  Upper: that
    matrix's Frobenius norm.  Lower: the Rayleigh quotient of one power step
    from the column of the largest diagonal entry, at most ||H|| in modulus.
    """
    n = matrices.shape[-1]
    strict = np.tril(matrices, -1)
    herm = strict + strict.conj().swapaxes(-1, -2)
    diag = matrices.real.diagonal(axis1=-2, axis2=-1)
    herm.real[..., np.arange(n), np.arange(n)] = diag
    power2 = herm.real**2 + herm.imag**2
    upper = np.sqrt(power2.sum(axis=(-2, -1)))
    start = np.take_along_axis(herm, diag.argmax(axis=-1)[:, None, None], axis=-1)
    step = herm @ start
    norm2 = (start.real**2 + start.imag**2).sum(axis=(-2, -1))
    quotient = np.abs((start.conj() * step).sum(axis=(-2, -1)).real)
    lower = np.divide(quotient, norm2, out=np.zeros_like(norm2), where=norm2 > 0.0)
    return lower, upper


def grid_phi_inf(model) -> float:
    """Proven upper bound on sup_s ||Phi(s)||_2: min(r1, grid max + pi h L).

    ||Phi(s)|| <= sum_k ||R[k]|| = r1 at every s.  Phi is Lipschitz with
    ||dPhi/ds|| <= 2 pi L, where L = sum_k |k| ||R[k]|| (``lag_moment``), and
    every frequency lies within h/2 of a point of the grid of spacing h.

    The grid max is that of all ``PHI_GRID_POINTS`` points, bit for bit, but
    the spectrum is evaluated only where it can lie.  A coarse pass takes
    every ``PHI_COARSE_STRIDE``-th point and the last, and brackets each
    matrix's norm without an eigensolve (``_norm_brackets``); the largest
    lower bracket is a floor under the grid max.  A fine point i between
    coarse neighbours j has ||Phi|| <= upper[j] + 2 pi L h |i - j| for each
    of them, so only points where both reach the floor are evaluated, and
    their brackets raise it.  Every evaluated matrix whose upper bracket
    reaches the floor goes to one ``hermitian_spectral_norms`` call.  Each
    comparison gives way by ``PHI_BRACKET_SLACK`` of the floor.  The point
    holding the maximum is among those sent, and ``psd_grid`` and
    ``eigvalsh`` treat each matrix apart from the batch around it, so its
    norm has the bits of a full-grid evaluation.
    """
    freqs = np.linspace(-0.5, 0.5, PHI_GRID_POINTS)
    spacing = 1.0 / (PHI_GRID_POINTS - 1)
    lag_moment = model.lag_moment()
    last = PHI_GRID_POINTS - 1
    coarse = np.append(np.arange(0, last, PHI_COARSE_STRIDE), last)
    coarse_psd = model.psd_grid(freqs[coarse])
    coarse_lower, coarse_upper = _norm_brackets(coarse_psd)
    threshold = coarse_lower.max() * (1.0 - PHI_BRACKET_SLACK)
    # fine points with their right coarse neighbour's slot; the left one is the slot before
    fine = np.arange(1, last)
    fine = fine[fine % PHI_COARSE_STRIDE != 0]
    right = fine // PHI_COARSE_STRIDE + 1
    rate = 2.0 * math.pi * lag_moment * spacing
    reach = np.minimum(
        coarse_upper[right - 1] + rate * (fine - coarse[right - 1]),
        coarse_upper[right] + rate * (coarse[right] - fine),
    )
    fine_psd = model.psd_grid(freqs[fine[reach >= threshold]])
    fine_lower, fine_upper = _norm_brackets(fine_psd)
    threshold = max(coarse_lower.max(), fine_lower.max(initial=0.0)) * (1.0 - PHI_BRACKET_SLACK)
    candidates = np.concatenate([coarse_psd[coarse_upper >= threshold], fine_psd[fine_upper >= threshold]])
    grid_max = float(hermitian_spectral_norms(candidates).max())
    return min(model.r1_norm(), grid_max + math.pi * spacing * lag_moment)


@dataclass(frozen=True)
class GeometricScalar:
    """Scalar process with autocovariance exactly rho^|k| and unit variance.

    Realized by the recursion y[k] = rho y[k-1] + sqrt(1 - rho^2) e[k] with
    unit-variance shocks; the gain makes the stated autocovariance exact.
    """

    kind = "geometric"
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")

    @property
    def channels(self) -> int:
        return 1

    def autocov_stack(self, max_lag: int) -> np.ndarray:
        return (self.rho ** np.arange(max_lag + 1, dtype=float)).reshape(-1, 1, 1)

    def psd_grid(self, frequencies) -> np.ndarray:
        s = np.atleast_1d(np.asarray(frequencies, dtype=float))
        gain = np.abs(1.0 - self.rho * np.exp(-2j * np.pi * s)) ** 2
        return ((1.0 - self.rho ** 2) / gain).astype(complex).reshape(-1, 1, 1)

    def psd(self, frequency: float) -> np.ndarray:
        return self.psd_grid([frequency])[0]

    def phi_inf(self) -> float:
        # the spectrum peaks at frequency zero
        return (1.0 + self.rho) / (1.0 - self.rho)

    def r1_norm(self) -> float:
        return (1.0 + self.rho) / (1.0 - self.rho)

    def lag_moment(self) -> float:
        return 2.0 * self.rho / (1.0 - self.rho) ** 2

    def decay(self, rate: float | None = None) -> tuple[float, float]:
        return (1.0, self.rho)

    def sample_paths(self, num_samples: int, trials: int, noise: str, seed: int, first_trial: int) -> np.ndarray:
        """Stationary paths (trials, 1, samples), one stream per trial."""
        return sample_geometric_paths(self.rho, num_samples, trials, noise, seed, first_trial)[:, None, :]


@dataclass(frozen=True)
class WhiteNoise:
    """Independent unit-variance channels: R[k] = delta[k] I and a flat unit spectrum."""

    kind = "white"
    channels: int = 1

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channel count must be positive")

    def autocov_stack(self, max_lag: int) -> np.ndarray:
        out = np.zeros((max_lag + 1, self.channels, self.channels))
        out[0] = np.eye(self.channels)
        return out

    def psd_grid(self, frequencies) -> np.ndarray:
        s = np.atleast_1d(np.asarray(frequencies, dtype=float))
        return np.broadcast_to(np.eye(self.channels, dtype=complex), (s.size, self.channels, self.channels)).copy()

    def psd(self, frequency: float) -> np.ndarray:
        return np.eye(self.channels, dtype=complex)

    def phi_inf(self) -> float:
        return 1.0

    def r1_norm(self) -> float:
        return 1.0

    def lag_moment(self) -> float:
        return 0.0

    def decay(self, rate: float | None = None) -> tuple[float, float]:
        return (1.0, 0.0)

    def sample_paths(self, num_samples: int, trials: int, noise: str, seed: int, first_trial: int) -> np.ndarray:
        """Independent noise blocks (trials, channels, samples), one stream per trial."""
        return sample_white_paths(self.channels, num_samples, trials, noise, seed, first_trial)


@dataclass(frozen=True)
class DecayCertificate:
    """Certified envelope ||R[k]||_2 <= gamma * rho^|k| for a state-space model."""

    gamma: float
    rho: float
    kappa: float
    weight_matrix: np.ndarray


@dataclass(frozen=True)
class StateSpace:
    """Stable linear state-space process driven by standard normal noise.

    x[k+1] = A x[k] + B e[k],  y[k] = C x[k] + D e[k], with i.i.d. standard
    normal e[k] and the state started from its stationary law.  ``rho_target``
    picks the rate of the certified autocovariance envelope; it defaults to
    the midpoint between the spectral radius of A and one.
    """

    kind = "state_space"
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    rho_target: float | None = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("state transition matrix must be square")
        states = a.shape[0]
        if b.shape[0] != states or c.shape[1] != states or d.shape != (c.shape[0], b.shape[1]):
            raise ValueError("state-space matrix dimensions are inconsistent")
        radius = spectral_radius(a)
        if radius >= 1.0:
            raise ValueError("state transition matrix must be stable (spectral radius < 1)")
        if self.rho_target is not None and not radius < self.rho_target < 1.0:
            raise ValueError("rho_target must lie strictly between the spectral radius and one")
        for name, arr in (("a", a), ("b", b), ("c", c), ("d", d)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.c.shape[0]

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.b.shape[1]

    @cached_property
    def state_covariance(self) -> np.ndarray:
        """Stationary state covariance X = A X A' + B B'."""
        return solve_discrete_lyapunov(self.a, self.b @ self.b.T)

    @cached_property
    def _lag_seed(self) -> np.ndarray:
        # R[k] = C A^(k-1) (A X C' + B D') for k >= 1
        return self.a @ self.state_covariance @ self.c.T + self.b @ self.d.T

    def autocov_stack(self, max_lag: int) -> np.ndarray:
        """R[0..max_lag], with R[1 + cL + j] = C A^j (A^(cL) S) and S = A X C' + B D'.

        The lags run in chunks of L = isqrt(max_lag): one product per chunk
        start, then one batched product with a table of the powers A^0 .. A^L.
        """
        n = self.channels
        out = np.empty((max_lag + 1, n, n))
        out[0] = self.c @ self.state_covariance @ self.c.T + self.d @ self.d.T
        if max_lag == 0:
            return out
        length = math.isqrt(max_lag)
        chunks = -(-max_lag // length)
        powers = _power_table(self.a, length)
        # A^(cL) seed, one product per chunk
        starts = np.empty((chunks, self.state_dim, n))
        starts[0] = self._lag_seed
        for prev, start in zip(starts, starts[1:]):
            np.matmul(powers[length], prev, out=start)
        lags = np.matmul(self.c @ powers[:length], starts[:, None]).reshape(chunks * length, n, n)
        out[1:] = lags[:max_lag]
        return out

    @cached_property
    def decay_certificate(self) -> DecayCertificate:
        target = self.rho_target
        if target is None:
            target = 0.5 * (spectral_radius(self.a) + 1.0)
        return certify_decay(self, target)

    def decay(self, rate: float | None = None) -> tuple[float, float]:
        """The pair at ``rho_target``, or ``certify_decay``'s at a ``rate`` between the spectral radius and that."""
        cert = self.decay_certificate
        if rate is not None and rate < cert.rho and spectral_radius(self.a) < rate:
            cert = certify_decay(self, rate)
        return (cert.gamma, cert.rho)

    def psd(self, frequency: float) -> np.ndarray:
        return self.psd_grid([frequency])[0]

    def psd_grid(self, frequencies) -> np.ndarray:
        """H(s) H(s)^* with H(s) = D + C (e^{j2 pi s} I - A)^{-1} B, one batched solve over the grid."""
        s = np.atleast_1d(np.asarray(frequencies, dtype=float))
        z = np.exp(2j * np.pi * s)
        shifted = z[:, None, None] * np.eye(self.state_dim) - self.a
        forcing = np.broadcast_to(self.b.astype(complex), (s.size,) + self.b.shape)
        h = self.d + self.c @ np.linalg.solve(shifted, forcing)
        return h @ h.conj().swapaxes(-1, -2)

    @cached_property
    def _phi_inf(self) -> float:
        return grid_phi_inf(self)

    def phi_inf(self) -> float:
        return self._phi_inf

    @cached_property
    def _norm_sums(self) -> tuple[float, float, float]:
        gamma, rho = self.decay()
        if rho == 0.0 or gamma == 0.0:
            # the remainders past depth 1 are exact zeros
            depth = 1
        else:
            # pick a depth at which the certified remainder is negligible
            depth = int(math.ceil(math.log(1e-9 * (1.0 - rho) / (2.0 * gamma)) / math.log(rho)))
            depth = min(max(depth, 1), 100_000)
        return covariance_norm_sums(self, depth)

    def r1_norm(self) -> float:
        return self._norm_sums[0]

    def lag_moment(self) -> float:
        return self._norm_sums[1]

    def sample_paths(self, num_samples: int, trials: int, noise: str, seed: int, first_trial: int) -> np.ndarray:
        """Stationary paths (trials, channels, samples); only gaussian noise drives the system."""
        if noise != "gaussian":
            raise ValueError("state-space sampling supports gaussian noise only")
        return sample_state_space_paths(self, num_samples, trials, seed, first_trial)


# config kind -> model class; ``ar1`` is another name for the geometric model
MODELS = {**{cls.kind: cls for cls in (GeometricScalar, WhiteNoise, StateSpace)}, "ar1": GeometricScalar}


def covariance_norm_sums(model, depth: int) -> tuple[float, float, float]:
    """Upper bounds on sum_k ||R[k]||_2 and on sum_k |k| ||R[k]||_2, and the first one's remainder.

    Each is its partial sum over |k| <= ``depth``, from one
    ``autocov_stack(depth)`` and one batched SVD, plus the certified
    remainder of the decay pair (gamma, rho) over |k| > D = ``depth``:
    ``envelope_tail(gamma, rho, D + 1)`` and
    2 gamma rho^(D+1) (D + 1 - D rho) / (1 - rho)^2.
    """
    norms = np.linalg.svd(model.autocov_stack(depth), compute_uv=False)[:, 0]
    gamma, rho = model.decay()
    remainder = envelope_tail(gamma, rho, depth + 1)
    moment_remainder = 2.0 * gamma * rho ** (depth + 1) * (depth + 1 - depth * rho) / (1.0 - rho) ** 2
    partial = float(norms[0] + 2.0 * norms[1:].sum())
    moment = 2.0 * float(np.arange(1, depth + 1) @ norms[1:])
    return partial + remainder, moment + moment_remainder, remainder


def r1_norm_bound(model, depth: int) -> tuple[float, float]:
    """Partial sum of ||R[k]||_2 to ``depth`` plus a certified geometric remainder.

    Returns (upper bound on the summed covariance norms, remainder used).
    """
    bound, _, remainder = covariance_norm_sums(model, depth)
    return bound, remainder


def certify_decay(model: StateSpace, rho_target: float) -> DecayCertificate:
    """Constructive decay pair for a state-space model via a weighted stability bound.

    Solves P = (A/rho)' P (A/rho) + I, so A' P A is dominated by rho^2 P, and
    turns its condition number into the envelope scale

        gamma = max(||C X C' + D D'||,
                    sqrt(kappa) ||C|| (||B D'|| / rho + ||X C'||)).
    """
    radius = spectral_radius(model.a)
    if not radius < rho_target < 1.0:
        raise ValueError("rho_target must lie strictly between the spectral radius and one")
    scaled = model.a / rho_target
    weight = solve_discrete_lyapunov(scaled.T, np.eye(model.state_dim))
    eigenvalues = np.linalg.eigvalsh(weight)
    kappa = float(eigenvalues.max() / eigenvalues.min())
    x = model.state_covariance
    static = float(np.linalg.norm(model.autocov_stack(0)[0], 2))
    driven = (
        math.sqrt(kappa)
        * float(np.linalg.norm(model.c, 2))
        * (
            float(np.linalg.norm(model.b @ model.d.T, 2)) / rho_target
            + float(np.linalg.norm(x @ model.c.T, 2))
        )
    )
    return DecayCertificate(max(static, driven), float(rho_target), kappa, weight)


def psd(model, frequency: float) -> np.ndarray:
    return model.psd(frequency)


def _check_noise(noise: str) -> None:
    if noise not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise!r}")


def _draw_noise(rng: np.random.Generator, noise: str, shape) -> np.ndarray:
    if noise == "gaussian":
        return rng.standard_normal(shape)
    return rng.uniform(-UNIFORM_HALF_WIDTH, UNIFORM_HALF_WIDTH, shape)


def sample_geometric_paths(
    rho: float,
    num_samples: int,
    trials: int,
    noise: str = "gaussian",
    seed: int = 0,
    first_trial: int = 0,
) -> np.ndarray:
    """Stationary paths of the geometric scalar model, one stream per trial.

    Gaussian shocks admit an exact stationary start; the uniform case burns in
    from zero long enough that the start-up transient is below 1e-12.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    _check_noise(noise)
    if num_samples < 1 or trials < 1:
        raise ValueError("num_samples and trials must be positive")
    gain = math.sqrt(1.0 - rho * rho)
    burn = 0
    if noise == "uniform" and rho != 0.0:
        burn = int(math.ceil(math.log(1e-12) / math.log(rho)))
    # column 0 of ``head`` holds y[-1]: the stationary start (gaussian) or
    # zero (uniform); its other columns hold the burn-in
    head, out = np.zeros((trials, burn + 1)), np.empty((trials, num_samples))
    for t, rng in enumerate(trial_streams(seed, first_trial, trials)):
        if noise == "gaussian":
            head[t, 0] = rng.standard_normal()
        shocks = _draw_noise(rng, noise, burn + num_samples)
        head[t, 1:], out[t] = shocks[:burn], shocks[burn:]
    head[:, 1:] *= gain
    out *= gain
    # y[k] = gain x[k] + rho y[k-1] are the IEEE operations of an order-one
    # direct-form IIR filter, so the paths equal such a filter's bit for bit
    if trials == 1:
        burn_in, values = head[0].tolist(), out[0].tolist()
        prev = burn_in[0]
        for value in burn_in[1:]:
            prev = value + rho * prev
        for k in range(num_samples):
            prev = values[k] + rho * prev
            values[k] = prev
        return np.array([values])
    # the time columns, as row views of the transposed buffers, are scanned
    # in place: column += rho * prev in two ufunc calls, the same IEEE
    # operations without a temporary per step, and with rho as an array
    # numpy does not convert a Python float on every call
    columns = list(head.T) + list(out.T)
    factor, scaled = np.full(trials, rho), np.empty(trials)
    multiply, add = np.multiply, np.add
    for prev, column in zip(columns, columns[1:]):
        multiply(prev, factor, scaled)
        add(column, scaled, column)
    return out


def sample_geometric(
    rho: float, num_samples: int, noise: str = "gaussian", seed: int = 0, trial: int = 0
) -> DataMatrix:
    """One stationary path of the geometric scalar model as a 1 x N data block."""
    path = sample_geometric_paths(rho, num_samples, 1, noise, seed, first_trial=trial)
    return DataMatrix(path)


def sample_white_paths(
    channels: int,
    num_samples: int,
    trials: int,
    noise: str = "gaussian",
    seed: int = 0,
    first_trial: int = 0,
) -> np.ndarray:
    """Independent unit-variance noise blocks, one stream per trial."""
    _check_noise(noise)
    if channels < 1 or num_samples < 1 or trials < 1:
        raise ValueError("channels, num_samples and trials must be positive")
    out = np.empty((trials, channels, num_samples))
    for t, rng in enumerate(trial_streams(seed, first_trial, trials)):
        out[t] = _draw_noise(rng, noise, (channels, num_samples))
    return out


def sample_white(
    channels: int, num_samples: int, noise: str = "gaussian", seed: int = 0, trial: int = 0
) -> DataMatrix:
    return DataMatrix(sample_white_paths(channels, num_samples, 1, noise, seed, first_trial=trial)[0])


def _covariance_root(covariance: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(covariance)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _power_table(matrix: np.ndarray, length: int) -> np.ndarray:
    """The powers A^0 .. A^length of a square matrix, stacked in its dtype, each one product from the last."""
    table = np.empty((length + 1,) + matrix.shape, dtype=matrix.dtype)
    table[0] = np.eye(matrix.shape[0])
    for prev, power in zip(table, table[1:]):
        np.matmul(matrix, prev, out=power)
    return table


# entries of a run of ``_add_entry_products`` and of a slab of ``_add_products`` (512 KiB)
_TERM_ENTRIES = 1 << 16


def _add_entry_products(out: np.ndarray, matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Add matrix @ vectors into ``out`` (rows, V), one product per nonzero matrix entry, in index order.

    Row r adds M[r, i] * vectors[i] for every i with M[r, i] != 0, each a
    scalar times a contiguous run of a row.  Skipping a zero entry keeps
    the bits: a sum that starts at +0 never changes when a +0 or -0 term is
    added to it.  The rows run in runs of ``_TERM_ENTRIES`` entries, so a
    run of a row and its scratch term stay in cache while its terms are added.
    The sampler forms ``B z``, ``C x`` and ``D z`` this way, whose rows hold
    every sample; the scan's rows are short and its matrices dense, and
    there the outer products of ``_add_products`` take fewer calls.
    """
    width = out.shape[-1]
    entries = [(r, [(i, float(row[i])) for i in np.flatnonzero(row)]) for r, row in enumerate(matrix)]
    scratch = np.empty(min(width, _TERM_ENTRIES))
    for start in range(0, width, _TERM_ENTRIES):
        cut = slice(start, start + _TERM_ENTRIES)
        term = scratch[: min(_TERM_ENTRIES, width - start)]
        for r, terms in entries:
            target = out[r, cut]
            for i, value in terms:
                np.multiply(vectors[i, cut], value, out=term)
                np.add(target, term, out=target)
    return out


def _column_spans(matrix: np.ndarray) -> list[tuple[int, slice]]:
    """Each column of a matrix (or of any in a stack) with a nonzero entry, and the least row range holding them."""
    nonzero = (matrix != 0.0).reshape((-1,) + matrix.shape[-2:]).any(axis=0)
    spans = []
    for column, mask in enumerate(nonzero.T):
        rows = np.flatnonzero(mask)
        if rows.size:
            spans.append((column, slice(rows[0], rows[-1] + 1)))
    return spans


def _add_products(out: np.ndarray, matrix: np.ndarray, vectors: np.ndarray, spans) -> np.ndarray:
    """Add matrix @ vectors into ``out`` as elementwise products, column by column, in index order.

    ``out`` is (rows, V) or a stack (J, rows, V), ``matrix`` (rows, cols) or
    a stack (J, rows, cols) and ``vectors`` (cols, V).  Column i adds the
    outer product of matrix[..., i] and vectors[i] to the rows of its span
    in ``spans``, ``_column_spans(matrix)``; the rows of a span without a
    nonzero entry in that column add +-0, which leaves the bits alone (see
    ``_add_entry_products``).  Each entry is rounded on its own, so no
    entry depends on the batch around it, as one of a BLAS product over a
    stacked batch may.  A stack runs in slabs of whole (rows, V) blocks,
    about ``_TERM_ENTRIES`` entries or one block, so a slab and its scratch
    term stay in cache while every column is added.
    """
    stack = out if out.ndim == 3 else out[None]
    matrices = matrix if matrix.ndim == 3 else matrix[None]
    block = stack.shape[1:]
    runs = -(-len(stack) * math.prod(block) // _TERM_ENTRIES)
    run = -(-len(stack) // runs)
    scratch = np.empty((run,) + block)
    for start in range(0, len(stack), run):
        slab = stack[start : start + run]
        factors = matrices[start : start + run] if len(matrices) > 1 else matrices
        for column, span in spans:
            target = slab[:, span]
            term = scratch[: len(slab), span]
            np.multiply(factors[:, span, column, None], vectors[column], out=term)
            np.add(target, term, out=target)
    return out


def _scan_states(a: np.ndarray, path: np.ndarray, first: np.ndarray, length: int) -> np.ndarray:
    """Overwrite ``path`` (states, trials, M), holding u[0 .. M - 1], with the states x[0 .. M - 1].

    x[0] = ``first`` (states, trials) and x[k + 1] = A x[k] + u[k]; u[M - 1]
    is not read.  ``sample_state_space_paths`` gives the steps: chunks of
    L = ``length`` samples, or one chunk of M samples when M <= 2L, whose
    starts this function scans with A^L in place of A.  The products use
    ``a`` rounded to float64; its powers are formed in its own dtype (long
    double from the sampler) and rounded only for the products, so A^L
    passes to the next level unrounded.  The scan buffer is freed on return.
    """
    states, trials, total = path.shape
    if total == 1:
        path[:, :, 0] = first
        return path
    if total <= 2 * length:
        length = total
    chunks = -(-total // length)
    full, rest = divmod(total, length)
    # steps[j, :, t, c] holds u[cL + j], then w[c, j + 1], and in the end
    # x[cL + j + 1]; steps[L - 1] takes the chunk starts x[cL] in place
    steps = np.empty((length, states, trials, chunks))
    blocked = steps.transpose(1, 2, 3, 0)
    blocked[:, :, :full] = path[:, :, : full * length].reshape(states, trials, full, length)
    if rest:
        blocked[:, :, full, :rest] = path[:, :, full * length :]
        blocked[:, :, full, rest:] = 0.0
    flat = steps.reshape(length, states, trials * chunks)
    rounded = a.astype(float)
    spans = _column_spans(rounded)
    for prev, step in zip(flat, flat[1:]):
        _add_products(step, rounded, prev, spans)
    powers = _power_table(a, length)
    starts = _scan_states(powers[length], steps[-1], first, length)
    fill = powers[1:length].astype(float)
    _add_products(flat[:-1], fill, flat[-1], _column_spans(fill))
    chunked = path[:, :, : full * length].reshape(states, trials, full, length)
    chunked[..., 0] = starts[..., :full]
    chunked[..., 1:] = blocked[:, :, :full, :-1]
    if rest:
        path[:, :, full * length] = starts[..., full]
        path[:, :, full * length + 1 :] = blocked[:, :, full, : rest - 1]
    return path


def _chunk_length(num_samples: int) -> int:
    """The least L with L^3 >= N: then N / L^2 <= L chunk starts are left after two levels, and fit one chunk."""
    root = round(num_samples ** (1.0 / 3.0))
    while root**3 < num_samples:
        root += 1
    while (root - 1) ** 3 >= num_samples:
        root -= 1
    return root


def sample_state_space_paths(
    model: StateSpace, num_samples: int, trials: int, seed: int = 0, first_trial: int = 0
) -> np.ndarray:
    """Stationary state-space paths (trials, channels, samples), one stream per trial.

    The state starts from its exact stationary law.  Trial t draws its start
    and then its shocks from its own stream.

    The recursion x[k + 1] = A x[k] + u[k], with u = B z, runs as a blocked
    scan (Blelloch 1990) over chunks of L samples, the least L with
    L^3 >= N, applied again to its own chunk starts.  A recursion of M
    states is one chunk when M <= 2L, and otherwise C = ceil(M / L) chunks:

    1. in every chunk at once, the recursion from a zero start,
       w[c, j + 1] = A w[c, j] + u[cL + j] with w[c, 0] = 0 (L - 1 steps);
    2. the chunk starts x[(c + 1) L] = A^L x[cL] + w[c, L], a recursion of
       C states, by the same scan with A^L in place of A;
    3. every other state in one pass, x[cL + j] = w[c, j] + A^j x[cL], from
       a table of the powers A^0 .. A^L.

    Two levels leave at most N / L^2 <= L chunk starts, one chunk, so a
    path takes at most three levels and about 3 N^(1/3) Python steps, not
    N.  At N = 65536 (L = 41) the levels hold 65536 samples in 1599 chunks,
    1599 starts in 39 chunks and 39 starts in one: 40 + 40 + 38 steps and
    three passes.  At N = 2064 (L = 13) they take 12 + 12 + 12 steps.

    ``B z``, ``C x`` and ``D z`` are formed once each, as a scalar times a
    contiguous row per nonzero matrix entry (``_add_entry_products``); the
    scan's products are outer products of a matrix column and a row
    (``_add_products``).  Both add in index order and skip exact-zero
    matrix entries, so each entry of a path is rounded alone and never
    inside a BLAS call over a batch.  Which products a state goes through
    depends on the chunk layout, and the layout depends on N only.  So
    path t is bitwise identical however trials are batched or scheduled.

    The powers A^j, (A^L)^j and (A^(L^2))^j reach A^N, whose float64
    rounding error grows with the exponent, so the tables are formed in
    long double from A and rounded once.  Against the per-step recursion
    in long double, the paths of the test models (up to 40 states, a lightly
    damped resonance of radius 0.995 among them, N up to 65536) come within
    2.8e-15 of each path's largest value, about as close as the old
    two-level scan; resonances of radius 0.9999 within 1.3e-15, where
    float64 tables reached 3.3e-14.  The elementwise products take about
    2 s^2 operations per sample for s states, fewer where the matrices have
    zeros, plus about 3 N^(1/3) long-double products of s x s matrices per
    path (46 ms of 0.5 s for 40 states at N = 65536); so with tens of
    states a per-step loop over BLAS products is faster.
    """
    if num_samples < 1 or trials < 1:
        raise ValueError("num_samples and trials must be positive")
    n = num_samples
    root = _covariance_root(model.state_covariance)
    first = np.empty((model.state_dim, trials))
    # shocks[:, t, k] is z[k] of trial t
    shocks = np.empty((model.noise_dim, trials, n))
    for t, rng in enumerate(trial_streams(seed, first_trial, trials)):
        first[:, t] = root @ rng.standard_normal(model.state_dim)
        for row in shocks[:, t]:
            rng.standard_normal(out=row)
    states = np.zeros((model.state_dim, trials, n))
    _add_entry_products(states.reshape(model.state_dim, -1), model.b, shocks.reshape(model.noise_dim, -1))
    _scan_states(model.a.astype(np.longdouble), states, first, _chunk_length(n))
    out = np.zeros((model.channels, trials * n))
    _add_entry_products(out, model.c, states.reshape(model.state_dim, -1))
    _add_entry_products(out, model.d, shocks.reshape(model.noise_dim, -1))
    return np.ascontiguousarray(out.reshape(model.channels, trials, n).transpose(1, 0, 2))


def sample_state_space(model: StateSpace, num_samples: int, seed: int = 0, trial: int = 0) -> DataMatrix:
    return DataMatrix(sample_state_space_paths(model, num_samples, 1, seed, first_trial=trial)[0])
