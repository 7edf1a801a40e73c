"""Tests for the analytic models, decay certificates, and samplers."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specbound import quadform as qf
from specbound.bounds import GAUSSIAN, BoundContext, covariance_tail
from specbound import signals as sig
from specbound.experiments import example_state_space
from specbound.streams import rng_stream

from conftest import full_grid_phi_inf


@pytest.fixture(scope="module")
def chain():
    return example_state_space(0.5)


def _resonant():
    # y[k + 1] + 0.995 y[k - 1] = e[k]: lightly damped, the spectrum peaks at 40000
    return sig.StateSpace(a=[[0.0, -0.995], [1.0, 0.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]], d=[[0.0]])


def two_sided_stack(head):
    """Extend a one-sided stack R[0..K] to lags -K..K using R[-k] = R[k]^T."""
    return np.concatenate([head[1:][::-1].transpose(0, 2, 1), head])


# ---------------------------------------------------------------- geometric model


def test_geometric_autocovariance_and_transform():
    model = sig.GeometricScalar(0.3)
    stack = two_sided_stack(model.autocov_stack(2))
    assert stack[4, 0, 0] == pytest.approx(0.09)
    assert stack[0, 0, 0] == pytest.approx(0.09)
    # value at frequency zero equals the full covariance sum (1 + rho) / (1 - rho)
    assert model.psd(0.0)[0, 0].real == pytest.approx(0.91 / 0.49)
    assert model.phi_inf() == pytest.approx(13.0 / 7.0)
    assert model.r1_norm() == pytest.approx(13.0 / 7.0)
    # the tail sum over |k| >= L is 2 rho^L / (1 - rho), and the whole sum at L <= 0
    ctx = BoundContext.from_model(model, GAUSSIAN)
    for lag in (1, 2, 7, 64, 299):
        value = covariance_tail(ctx, lag)
        assert type(value) is float and value == 2 * 0.3 ** lag / (1 - 0.3)
    assert covariance_tail(ctx, 0) == covariance_tail(ctx, -2) == model.r1_norm()


def test_geometric_transform_equals_lag_sum():
    model = sig.GeometricScalar(0.3)
    for s in (0.0, 0.11, 0.5):
        series = sum(0.3 ** abs(k) * np.exp(-2j * np.pi * s * k) for k in range(-200, 201))
        assert model.psd(s)[0, 0] == pytest.approx(series, abs=1e-12)


def test_geometric_grid_phi_inf_brackets_exact():
    model = sig.GeometricScalar(0.3)
    assert model.phi_inf() <= sig.grid_phi_inf(model) <= 1.01 * model.phi_inf()


def test_geometric_validation():
    with pytest.raises(ValueError):
        sig.GeometricScalar(1.0)
    with pytest.raises(ValueError):
        sig.GeometricScalar(-0.1)


def test_white_noise_model():
    model = sig.WhiteNoise(2)
    stack = model.autocov_stack(3)
    np.testing.assert_array_equal(stack[0], np.eye(2))
    assert not stack[1:].any()
    np.testing.assert_array_equal(model.psd(0.3), np.eye(2))

    ctx = BoundContext.from_model(model, GAUSSIAN)
    assert covariance_tail(ctx, 0) == covariance_tail(ctx, -1) == 1.0
    assert all(covariance_tail(ctx, lag) == 0.0 for lag in (1, 2, 64))


# ---------------------------------------------------------------- state space


def test_chain_system_has_three_channels(chain):
    assert chain.channels == 3
    assert chain.state_dim == 2 and chain.noise_dim == 3


def test_lyapunov_doubling_matches_direct_solver(chain):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    for _ in range(5):
        raw = rng.standard_normal((3, 3))
        transition = 0.9 * raw / np.abs(np.linalg.eigvals(raw)).max()
        forcing = rng.standard_normal((3, 3))
        forcing = forcing @ forcing.T
        ours = sig.solve_discrete_lyapunov(transition, forcing)
        reference = linalg.solve_discrete_lyapunov(transition, forcing)
        np.testing.assert_allclose(ours, reference, atol=1e-10)


def test_state_covariance_fixed_point(chain):
    x = chain.state_covariance
    np.testing.assert_allclose(x, chain.a @ x @ chain.a.T + chain.b @ chain.b.T, atol=1e-12)


def test_state_space_autocov_closed_form(chain):
    x = chain.state_covariance
    stack = chain.autocov_stack(5)
    two_sided = two_sided_stack(stack)
    np.testing.assert_allclose(stack[0], chain.c @ x @ chain.c.T + chain.d @ chain.d.T, atol=1e-12)
    seed = chain.a @ x @ chain.c.T + chain.b @ chain.d.T
    for k in (1, 2, 5):
        expected = chain.c @ np.linalg.matrix_power(chain.a, k - 1) @ seed
        np.testing.assert_allclose(stack[k], expected, atol=1e-12)
        np.testing.assert_allclose(two_sided[5 - k], expected.T, atol=1e-12)


@pytest.mark.parametrize("model", ["chain", "resonant"])
def test_psd_grid_equals_stacked_psd(model, chain):
    if model == "chain":
        model = chain
    else:
        model = _resonant()
    freqs = np.linspace(-0.5, 0.5, 4096)
    eye = np.eye(model.state_dim)
    stacked = []
    for s in freqs:
        # H(s) = D + C (zI - A)^{-1} B at z = e^{j2 pi s}, one frequency at a time
        h = model.d + model.c @ np.linalg.inv(np.exp(2j * np.pi * s) * eye - model.a) @ model.b
        stacked.append(h @ h.conj().T)
    stacked = np.stack(stacked)
    grid = model.psd_grid(freqs)
    scale = np.abs(stacked).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(grid - stacked) <= 1e-12 * scale)


def test_state_space_spectrum_is_positive_semidefinite(chain):
    grid = np.linspace(-0.5, 0.5, 1024)
    eigenvalues = np.linalg.eigvalsh(chain.psd_grid(grid))
    assert eigenvalues.min() >= -1e-10


def test_spectrum_matches_truncated_lag_transform(chain):
    # rounding allowance on top of the analytic remainder, which sits below 1e-15 here
    depth = 64
    grid = np.linspace(-0.5, 0.5, 256)
    truth = chain.psd_grid(grid)
    stack = two_sided_stack(chain.autocov_stack(depth))
    phases = np.exp(-2j * np.pi * np.outer(grid, np.arange(-depth, depth + 1)))
    approx = np.einsum("fk,kij->fij", phases, stack)
    diff = truth - approx
    diff = 0.5 * (diff + diff.conj().transpose(0, 2, 1))
    gap = qf.hermitian_spectral_norms(diff).max()
    assert gap <= covariance_tail(BoundContext.from_model(chain, GAUSSIAN), depth + 1) + 1e-12


def test_unstable_transition_rejected():
    with pytest.raises(ValueError):
        sig.StateSpace([[1.0]], [[1.0]], [[1.0]], [[1.0]])


def test_decay_certificate_envelope(chain):
    cert = chain.decay_certificate
    assert cert.kappa >= 1.0
    assert cert.rho == 0.5
    stack = chain.autocov_stack(64)
    for k in range(65):
        norm = np.linalg.norm(stack[k], 2)
        assert norm <= cert.gamma * cert.rho ** k + 1e-12
    # the tail sum of the envelope over |k| >= L, and the summed norm bound at L <= 0
    ctx = BoundContext.from_model(chain, GAUSSIAN)
    for lag in (1, 2, 7, 64, 299):
        value = covariance_tail(ctx, lag)
        assert type(value) is float and value == 2 * cert.gamma * cert.rho ** lag / (1 - cert.rho)
    assert covariance_tail(ctx, 0) == covariance_tail(ctx, -2) == chain.r1_norm()


def test_decay_certificate_weight_inequality(chain):
    # A' P A dominated by rho^2 P
    cert = chain.decay_certificate
    p = cert.weight_matrix
    gap = cert.rho ** 2 * p - chain.a.T @ p @ chain.a
    assert np.linalg.eigvalsh(gap).min() >= -1e-9


def test_decay_certificate_static_system():
    model = sig.StateSpace(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((3, 2)), np.eye(3))
    cert = sig.certify_decay(model, 0.5)
    assert cert.gamma == pytest.approx(1.0)
    assert cert.kappa == pytest.approx(1.0)


def test_certify_decay_rejects_bad_target(chain):
    with pytest.raises(ValueError):
        sig.certify_decay(chain, 0.2)
    with pytest.raises(ValueError):
        sig.certify_decay(chain, 1.0)


def test_phi_inf_covers_a_resonance_between_grid_points():
    # the spectrum peaks at 1 / 0.005^2 = 40000 at s = 1/4, between two grid
    # points, and r1 equals that peak
    model = _resonant()
    assert 40000.0 <= model.phi_inf() <= 40000.0 * (1.0 + 1e-9)


def test_r1_truncation_depths_agree(chain):
    shallow, shallow_rem = sig.r1_norm_bound(chain, 32)
    deep, _ = sig.r1_norm_bound(chain, 128)
    assert abs(shallow - deep) <= shallow_rem
    assert chain.r1_norm() >= deep - 1e-9


# ---------------------------------------------------------------- samplers


def test_geometric_sampler_matches_exact_autocovariance():
    paths = sig.sample_geometric_paths(0.3, 4096, 200, "gaussian", seed=42)
    samples = paths.shape[1]
    for lag in range(6):
        products = paths[:, lag:] * paths[:, : samples - lag]
        per_trial = products.mean(axis=1)
        spread = per_trial.std(ddof=1) / np.sqrt(len(per_trial))
        assert abs(per_trial.mean() - 0.3 ** lag) <= 3.0 * spread


@pytest.mark.parametrize("noise", sig.NOISE_KINDS)
def test_sampler_variance_is_unit(noise):
    paths = sig.sample_geometric_paths(0.3, 2048, 100, noise, seed=7)
    spread = paths.var(axis=1).std(ddof=1) / 10.0
    assert abs(paths.var() - 1.0) <= 3.0 * max(spread, 1e-3)


def test_zero_correlation_gives_iid_noise():
    paths = sig.sample_geometric_paths(0.0, 8192, 24, "gaussian", seed=3)
    lag1 = (paths[:, 1:] * paths[:, :-1]).mean()
    assert abs(lag1) <= 3.0 / np.sqrt(paths.size)
    assert abs(paths.var() - 1.0) <= 0.02


def test_uniform_noise_moments():
    draws = sig.sample_geometric_paths(0.0, 4096, 50, "uniform", seed=11)
    assert abs(draws.mean()) <= 3.0 / np.sqrt(draws.size)
    assert abs(draws.var() - 1.0) <= 0.02
    assert np.abs(draws).max() <= np.sqrt(3.0) + 1e-12


def test_stationarity_across_window_positions():
    paths = sig.sample_geometric_paths(0.5, 3000, 150, "uniform", seed=13)
    first = (paths[:, 0:1000] * paths[:, 1:1001]).mean(axis=1)
    last = (paths[:, 1900:2900] * paths[:, 1901:2901]).mean(axis=1)
    spread = np.sqrt(first.var(ddof=1) + last.var(ddof=1)) / np.sqrt(len(first))
    assert abs(first.mean() - last.mean()) <= 3.0 * spread


def test_state_space_sampler_matches_lag_zero(chain):
    paths = sig.sample_state_space_paths(chain, 512, 300, seed=21)
    covariance = np.einsum("tik,tjk->ij", paths, paths) / (300 * 512)
    exact = chain.autocov_stack(0)[0]
    spread = np.abs(exact).max() / np.sqrt(300)
    assert np.abs(covariance - exact).max() <= 3.0 * spread


def _lfilter_geometric_paths(rho, num_samples, trials, noise, seed, first_trial):
    """The sampler written with scipy's direct-form IIR filter."""
    signal = pytest.importorskip("scipy.signal")
    gain = math.sqrt(1.0 - rho * rho)
    out = np.empty((trials, num_samples))
    for t in range(trials):
        rng = rng_stream(seed, first_trial + t)
        if noise == "gaussian":
            start = rng.standard_normal()
            shocks = rng.standard_normal(num_samples)
            out[t] = signal.lfilter([gain], [1.0, -rho], shocks, zi=np.array([rho * start]))[0]
        else:
            burn = 0 if rho == 0.0 else int(math.ceil(math.log(1e-12) / math.log(rho)))
            shocks = rng.uniform(-sig.UNIFORM_HALF_WIDTH, sig.UNIFORM_HALF_WIDTH, burn + num_samples)
            out[t] = signal.lfilter([gain], [1.0, -rho], shocks)[burn:]
    return out


@pytest.mark.parametrize("noise", sig.NOISE_KINDS)
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.995])
@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("num_samples", [1, 144, 65536])
def test_geometric_sampler_equals_iir_filter_bitwise(noise, rho, trials, num_samples):
    reference = _lfilter_geometric_paths(rho, num_samples, trials, noise, seed=17, first_trial=3)
    paths = sig.sample_geometric_paths(rho, num_samples, trials, noise, seed=17, first_trial=3)
    assert paths.flags.c_contiguous
    assert paths.tobytes() == reference.tobytes()


def test_streams_are_reproducible_and_distinct():
    one = sig.sample_geometric(0.3, 16, "gaussian", seed=5, trial=3)
    batch = sig.sample_geometric_paths(0.3, 16, 5, "gaussian", seed=5)
    np.testing.assert_array_equal(one.values[0], batch[3])
    again = sig.sample_geometric(0.3, 16, "gaussian", seed=5, trial=3)
    np.testing.assert_array_equal(one.values, again.values)
    other = sig.sample_geometric(0.3, 16, "gaussian", seed=5, trial=4)
    assert not np.array_equal(one.values, other.values)


# three uint32 words, and trial indices across 2^32, where an index gains a word
BATCH_SEED, BATCH_FIRST = 2**64 + 5, 2**32 - 2


def _batch_sampler(kind, noise):
    """A sampler of 40 samples at ``BATCH_SEED`` as a function of (trials, first trial)."""
    if kind == "geometric":
        return lambda trials, first: sig.sample_geometric_paths(0.3, 40, trials, noise, BATCH_SEED, first)
    if kind == "white":
        return lambda trials, first: sig.sample_white_paths(2, 40, trials, noise, BATCH_SEED, first)
    return lambda trials, first: sig.sample_state_space_paths(example_state_space(0.5), 40, trials, BATCH_SEED, first)


# the state-space sampler draws gaussian noise only
@pytest.mark.parametrize(
    "kind, noise", [(kind, noise) for kind in ("geometric", "white") for noise in sig.NOISE_KINDS] + [("state_space", "gaussian")]
)
def test_batched_rows_equal_one_trial_calls(kind, noise):
    sampler = _batch_sampler(kind, noise)
    batch = sampler(5, BATCH_FIRST)
    for t, row in enumerate(batch):
        assert row.tobytes() == sampler(1, BATCH_FIRST + t)[0].tobytes()


def test_state_space_stream_consistency(chain):
    one = sig.sample_state_space(chain, 32, seed=9, trial=2)
    batch = sig.sample_state_space_paths(chain, 32, 4, seed=9)
    np.testing.assert_array_equal(one.values, batch[2])


def _long_double_state_space_paths(model, num_samples, trials, seed, first_trial):
    """The sampler written as the per-step recursion, in long double, from the same draws."""
    root = sig._covariance_root(model.state_covariance)
    a, b, c, d = (m.astype(np.longdouble) for m in (model.a, model.b, model.c, model.d))
    state = np.empty((trials, model.state_dim), dtype=np.longdouble)
    shocks = np.empty((trials, model.noise_dim, num_samples))
    for t in range(trials):
        rng = rng_stream(seed, first_trial + t)
        state[t] = root @ rng.standard_normal(model.state_dim)
        rng.standard_normal(out=shocks[t])
    z = shocks.astype(np.longdouble)
    out = np.empty((trials, model.channels, num_samples), dtype=np.longdouble)
    for k in range(num_samples):
        out[:, :, k] = state @ c.T + z[:, :, k] @ d.T
        state = state @ a.T + z[:, :, k] @ b.T
    return out


def _dense_state_space(states, inputs, channels):
    """A state-space model with dense random matrices and spectral radius 0.9."""
    rng = np.random.default_rng(1000 * states + 10 * inputs + channels)
    a = rng.standard_normal((states, states))
    a *= 0.9 / sig.spectral_radius(a)
    b, c, d = (rng.standard_normal(shape) for shape in ((states, inputs), (channels, states), (channels, inputs)))
    return sig.StateSpace(a, b, c, d)


# (states, noise inputs, channels)
STATE_SPACE_SHAPES = [(1, 1, 1), (1, 2, 3), (3, 1, 3), (2, 5, 1), (6, 7, 1), (8, 1, 5), (16, 6, 4), (40, 16, 1)]
SAMPLER_MODELS = ["chain", "resonant"] + STATE_SPACE_SHAPES
# 19 is the least N whose chunk starts are scanned in chunks of their own, a
# third level, and 20 the next; 4099 leaves a partial last chunk at every
# level (test_scan_levels_of_the_sampler_cases)
SAMPLER_CASES = [(n, trials) for n in (1, 2, 9, 19, 20, 2064, 4099) for trials in (1, 7)]
# one long path where A^L matters most: the resonant model has radius 0.995
LONG_SAMPLER_CASES = {"chain": [(65536, 1)], "resonant": [(65536, 1)]}


def _scan_levels(monkeypatch, model, num_samples):
    """The recursion lengths of one sampler call, level by level, and its number of ``_add_products`` calls."""
    lengths, products = [], [0]
    scan, add = sig._scan_states, sig._add_products

    def recording_scan(a, path, first, length):
        lengths.append(path.shape[-1])
        return scan(a, path, first, length)

    def counting_add(*args):
        products[0] += 1
        return add(*args)

    monkeypatch.setattr(sig, "_scan_states", recording_scan)
    monkeypatch.setattr(sig, "_add_products", counting_add)
    sig.sample_state_space_paths(model, num_samples, 1)
    monkeypatch.undo()
    return lengths, products[0]


def test_scan_levels_of_the_sampler_cases(chain, monkeypatch):
    # 18 samples: chunks of L = 3, and their 6 starts in one chunk
    assert _scan_levels(monkeypatch, chain, 18)[0] == [18, 6, 1]
    # 19 and 20: the 7 chunk starts take chunks of their own, a third level
    assert _scan_levels(monkeypatch, chain, 19)[0] == [19, 7, 3, 1]
    assert _scan_levels(monkeypatch, chain, 20)[0] == [20, 7, 3, 1]
    # 4099 = 241 * 17 + 2 and 242 = 14 * 17 + 4: a partial last chunk at every
    # level, and the last level's one chunk is shorter than L = 17
    assert _scan_levels(monkeypatch, chain, 4099)[0] == [4099, 242, 15, 1]
    # L = 41: 40 + 40 + 38 in-chunk steps and three fills
    assert _scan_levels(monkeypatch, chain, 65536) == ([65536, 1599, 39, 1], 121)


def _sampler_model(chain, name):
    if name == "chain":
        return chain
    return _resonant() if name == "resonant" else _dense_state_space(*name)


def _model_id(name):
    return name if isinstance(name, str) else "x".join(map(str, name))


@pytest.mark.parametrize("name", SAMPLER_MODELS, ids=_model_id)
def test_state_space_sampler_matches_long_double_recursion(chain, name):
    model = _sampler_model(chain, name)
    for num_samples, trials in SAMPLER_CASES + LONG_SAMPLER_CASES.get(name, []):
        reference = _long_double_state_space_paths(model, num_samples, trials, seed=23, first_trial=4)
        paths = sig.sample_state_space_paths(model, num_samples, trials, seed=23, first_trial=4)
        assert paths.flags.c_contiguous and paths.shape == reference.shape
        error = np.abs(paths - reference).max(axis=(1, 2))
        assert np.all(error <= 1e-14 * np.abs(reference).max(axis=(1, 2))), (num_samples, trials)


def test_sampler_keeps_a_slow_resonance_accurate():
    # radius 0.9999: the powers reach A^N with little decay, so they are
    # formed in long double; float64 tables come 2e-14 off at N = 2064
    model = sig.StateSpace(a=[[0.0, -0.9999], [1.0, 0.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]], d=[[0.0]])
    for num_samples in (2064, 4099):
        reference = _long_double_state_space_paths(model, num_samples, 1, seed=23, first_trial=4)
        paths = sig.sample_state_space_paths(model, num_samples, 1, seed=23, first_trial=4)
        assert np.abs(paths - reference).max() <= 1e-14 * np.abs(reference).max(), num_samples


@pytest.mark.parametrize("name", SAMPLER_MODELS, ids=_model_id)
def test_state_space_sampler_batching_is_bitwise(chain, name):
    model = _sampler_model(chain, name)
    for num_samples in sorted({n for n, _ in SAMPLER_CASES + LONG_SAMPLER_CASES.get(name, [])}):
        batch = sig.sample_state_space_paths(model, num_samples, 7, seed=23, first_trial=4)
        for t in range(7):
            alone = sig.sample_state_space_paths(model, num_samples, 1, seed=23, first_trial=4 + t)
            assert alone[0].tobytes() == batch[t].tobytes(), (num_samples, t)


def test_sampler_keeps_its_bits_at_two_blas_threads():
    # no path product calls BLAS: the chain model's long path and a dense
    # 16 x 6 x 4 model's batch hash the same at one and two threads
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    probe = (
        "import hashlib, numpy as np\n"
        "from specbound import signals as sig\n"
        "from specbound.experiments import example_state_space\n"
        + inspect.getsource(_dense_state_space)
        + "for model, n, trials in ((example_state_space(0.5), 65536, 1), (_dense_state_space(16, 6, 4), 2064, 7)):\n"
        "    paths = sig.sample_state_space_paths(model, n, trials, seed=23, first_trial=4)\n"
        "    print(hashlib.sha256(paths.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]
    paths = sig.sample_state_space_paths(_dense_state_space(16, 6, 4), 2064, 7, seed=23, first_trial=4)
    assert digests[0].split()[1] == hashlib.sha256(paths.tobytes()).hexdigest()


def test_resonant_autocov_stack_matches_long_double():
    # 26119 lags: the depth at which the resonant model's certified remainder drops below 1e-9
    model = _resonant()
    stack = model.autocov_stack(26119)
    a, c = model.a.astype(np.longdouble), model.c.astype(np.longdouble)
    cross = model._lag_seed.astype(np.longdouble)
    reference = np.empty(stack.shape, dtype=np.longdouble)
    reference[0] = stack[0]
    for k in range(1, stack.shape[0]):
        reference[k] = c @ cross
        cross = a @ cross
    assert np.abs(stack - reference).max() <= 1e-14 * np.abs(reference).max()


def test_sampler_argument_errors(chain):
    with pytest.raises(ValueError):
        sig.sample_geometric_paths(1.2, 16, 1)
    with pytest.raises(ValueError):
        sig.sample_geometric_paths(0.3, 16, 1, noise="poisson")
    with pytest.raises(ValueError):
        sig.sample_state_space_paths(chain, 0, 1)


@pytest.mark.parametrize("trials", [1, 3])
def test_model_sample_paths_equal_the_samplers_bitwise(chain, trials):
    cases = [
        (sig.GeometricScalar(0.3), "uniform", sig.sample_geometric_paths(0.3, 40, trials, "uniform", 5, 2)[:, None, :]),
        (sig.WhiteNoise(2), "gaussian", sig.sample_white_paths(2, 40, trials, "gaussian", 5, 2)),
        (chain, "gaussian", sig.sample_state_space_paths(chain, 40, trials, 5, 2)),
    ]
    for model, noise, expected in cases:
        paths = model.sample_paths(40, trials, noise, 5, 2)
        assert paths.shape == (trials, model.channels, 40)
        assert paths.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="state-space sampling supports gaussian noise only"):
        chain.sample_paths(40, trials, "uniform", 5, 2)


def test_module_level_delegates(chain):
    np.testing.assert_array_equal(sig.psd(chain, 0.1), chain.psd(0.1))


# ---------------------------------------------------------------- grid phi_inf
# a coarse pass, its norm brackets and a Lipschitz reach pick the grid points
# that can hold the maximum; the maximum keeps the full grid's bits only if a
# matrix's spectrum and norm do not depend on the batch around it

PHI_MODELS = ["chain", "resonant"] + STATE_SPACE_SHAPES
PHI_FREQS = np.linspace(-0.5, 0.5, sig.PHI_GRID_POINTS)


def _index_sets():
    scattered = np.sort(np.random.default_rng(3).choice(sig.PHI_GRID_POINTS, 97, replace=False))
    return {
        "scattered": scattered,
        "unsorted": scattered[::-1].copy(),
        "contiguous": np.arange(1000, 1168),
        "one": np.array([2049]),
        "last": np.array([sig.PHI_GRID_POINTS - 1]),
    }


@pytest.mark.parametrize("name", PHI_MODELS, ids=_model_id)
def test_psd_grid_and_norms_of_a_subset_keep_their_bits(chain, name):
    model = _sampler_model(chain, name)
    full = model.psd_grid(PHI_FREQS)
    norms = qf.hermitian_spectral_norms(full)
    for label, idx in _index_sets().items():
        subset = model.psd_grid(PHI_FREQS[idx])
        assert subset.tobytes() == full[idx].tobytes(), label
        assert qf.hermitian_spectral_norms(subset).tobytes() == norms[idx].tobytes(), label
        assert qf.hermitian_spectral_norms(full[idx]).tobytes() == norms[idx].tobytes(), label


@pytest.mark.parametrize("name", PHI_MODELS, ids=_model_id)
def test_grid_phi_inf_equals_the_full_grid(chain, name):
    model = _sampler_model(chain, name)
    assert sig.grid_phi_inf(model) == full_grid_phi_inf(model)


def test_grid_phi_inf_of_scalar_models_equals_the_full_grid():
    for model in (sig.GeometricScalar(0.0), sig.GeometricScalar(0.3), sig.GeometricScalar(0.99), sig.WhiteNoise(2)):
        assert sig.grid_phi_inf(model) == full_grid_phi_inf(model)


class _ZeroSpectrum:
    """A model stub whose spectrum vanishes: every bracket is zero, so no grid point can be dropped."""

    def psd_grid(self, frequencies):
        return np.zeros((np.size(frequencies), 2, 2), dtype=complex)

    def r1_norm(self):
        return 1.0

    def lag_moment(self):
        return 0.0


def test_grid_phi_inf_of_a_zero_spectrum():
    assert sig.grid_phi_inf(_ZeroSpectrum()) == full_grid_phi_inf(_ZeroSpectrum()) == 0.0


def test_grid_phi_inf_makes_one_eigensolve_and_skips_most_of_the_grid(monkeypatch):
    model = example_state_space(0.5)
    model.lag_moment()
    calls, points = [], []
    norms, psd_grid = sig.hermitian_spectral_norms, sig.StateSpace.psd_grid

    def counted_norms(matrices):
        calls.append(len(matrices))
        return norms(matrices)

    def counted_psd_grid(self, frequencies):
        points.append(np.size(frequencies))
        return psd_grid(self, frequencies)

    monkeypatch.setattr(sig, "hermitian_spectral_norms", counted_norms)
    monkeypatch.setattr(sig.StateSpace, "psd_grid", counted_psd_grid)
    sig.grid_phi_inf(model)
    assert len(calls) == 1 and 1 <= calls[0] <= sum(points)
    # the coarse pass takes every 16th point and the last
    assert points[0] == sig.PHI_GRID_POINTS // sig.PHI_COARSE_STRIDE + 1
    assert sum(points) <= sig.PHI_GRID_POINTS // 8


def test_norm_brackets_hold_the_spectral_norm():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 6):
        raw = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        # positive semidefinite, indefinite, rank one and zero; the upper
        # triangles are noise that eigvalsh does not read
        gram = raw @ raw.conj().swapaxes(-1, -2)
        indefinite = qf.hermitian_part(raw)
        rank_one = raw[:, :, :1] @ raw[:, :, :1].conj().swapaxes(-1, -2)
        stack = np.concatenate([gram, indefinite, rank_one, np.zeros((1, n, n))])
        noisy = stack + np.triu(rng.standard_normal(stack.shape), 1)
        noisy[..., np.arange(n), np.arange(n)] += 1j
        lower, upper = sig._norm_brackets(noisy)
        norms = qf.hermitian_spectral_norms(noisy)
        assert np.all(lower <= norms * (1.0 + 1e-12)) and np.all(norms <= upper * (1.0 + 1e-12))
        assert np.array_equal(norms, qf.hermitian_spectral_norms(stack))
