"""Experiment drivers: configuration, runners, reproduction studies, reports.

This module is the engine behind the command line.  Configs are flat JSON
documents; every runner is a pure function of (config, seed) and emits CSVs
whose first line records the config hash and seed, so repeated runs are
byte-identical.  The two bundled reproduction studies sweep the number of
tapered segments and emit three-curve reports (empirical worst-grid error,
total certificate, bias curve) as CSV plus a log-scale SVG plot.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import bounds, estimators, signals
from .concentration import monte_carlo_tail_check
from .constants import GAUSSIAN, GAUSSIAN_QUADFORM, hanson_wright, sub_gaussian
from .quadform import (
    DataMatrix,
    QuadraticForm,
    SpectralEstimate,
    evaluate_generic_grid,
    exact_bias_sup,
    frequency_grid,
    hermitian_spectral_norms,
)
from .streams import rng_stream
from .svgplot import Series, line_plot

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ReproduceOptions",
    "apply_overrides",
    "example_state_space",
    "format_number",
    "load_config",
    "make_context",
    "parse_config",
    "read_estimate_csv",
    "run_certify",
    "run_estimate",
    "run_reproduce",
    "run_simulate",
    "run_verify_concentration",
    "trial_errors",
    "write_csv",
]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def format_number(value) -> str:
    """CSV cell format of one value.

    A float keeps 12 significant digits: ``%.12g`` (plain) when
    1e-3 <= |v| < 1e4, ``%.12e`` outside that range; both zeros print as
    ``0`` and NaN and infinities as ``nan``, ``inf`` and ``-inf``.  An
    integer prints as an integer, booleans as true/false, a string as itself
    and None as the empty cell.
    """
    # plain floats and ints, nearly every cell, take the first two checks
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _format_float(float(value))


# a float cell's format, indexed by whether it prints plain
_FLOAT_FORMATS = ("%.12e", "%.12g")


def _plain(magnitude):
    """Whether a float of this magnitude prints plain; elementwise on an array.

    Zero prints plain, as ``0``; NaN and infinities print alike either way.
    """
    return (magnitude == 0.0) | ((magnitude >= 1e-3) & (magnitude < 1e4))


def _format_float(v: float) -> str:
    # adding 0.0 turns -0.0 into 0.0
    return _FLOAT_FORMATS[_plain(abs(v))] % (v + 0.0)


# cells per slab of the array kernel, which bounds its temporaries
_SLAB_CELLS = 1 << 14
# half the distance to a rounding tie below which a scaled cell is formatted by _format_float
_TIE_MARGIN = 2.0**-9


@functools.cache
def _digit_tables():
    """Lookup tables of the array kernel, built with numpy on first use.

    ``head[(i * 2 + dot) * 2 + neg]`` holds the 8 bytes ``,``, ``-`` when
    ``neg``, the digits of 0 <= i <= 10000 and ``.`` when ``dot``.
    ``word[variant * 10**4 + g]`` holds the 4 digits of 0 <= g < 10**4
    without trailing zeros (variant 0), so none for g = 0, or in full (1);
    ``word[2 * 10**4 + 99 + x]`` holds ``e±xx`` for |x| <= 99.  ``power[j]``
    is the exact double 10**j for 0 <= j <= 22.  A zero byte stands for no
    character.
    """
    weights = 10 ** np.arange(4, -1, -1)
    i = np.arange(10001)[:, None]
    # a leading zero of i is no character, but i = 0 keeps its units digit
    digits = np.where((i < weights) & (weights > 1), 0, i // weights % 10 + ord("0"))
    head = np.zeros((10001, 2, 2, 8), np.uint8)
    head[..., 0] = ord(",")
    head[..., 2:7] = digits[:, None, None, :]
    head[:, 1, :, 7] = ord(".")
    head[:, :, 1, 1] = ord("-")
    full = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    trailing = np.cumprod(full[:, ::-1] == ord("0"), axis=1)[:, ::-1] == 1
    x = np.arange(-99, 100)
    sign = np.where(x < 0, ord("-"), ord("+"))
    exponent = np.column_stack([np.full(199, ord("e")), sign, abs(x) // 10 + ord("0"), abs(x) % 10 + ord("0")])
    word = np.concatenate([np.where(trailing, 0, full), full, exponent]).astype(np.uint8)
    power = np.array([float(10**j) for j in range(23)])
    return head.view(np.uint64).ravel(), word.view(np.uint32).ravel(), power


def _fallback(cells: np.ndarray, where: np.ndarray, texts) -> None:
    """Write each ``,text`` over the words of the cells (cells, words) flagged by ``where``."""
    width = 4 * cells.shape[1]
    slots = b"".join([("," + text).encode().ljust(width, b"\0") for text in texts])
    cells.view(np.uint8)[where] = np.frombuffer(slots, np.uint8).reshape(-1, width)


def _scaled(m: np.ndarray, k: np.ndarray, power: np.ndarray) -> np.ndarray:
    """m * 10**k for -22 <= k <= 22 in one IEEE rounding: 10**|k| is an exact double."""
    y = m * power.take(np.maximum(k, 0))
    shrink = k < 0
    if shrink.any():
        y[shrink] = m[shrink] / power.take(-k[shrink])
    return y


def _value_words(block: np.ndarray) -> np.ndarray:
    """The cells of a 2-D float block as ``,``-led words, shaped (rows, 6 columns).

    Each cell is an 8-byte head word (separator, sign, integer digits and
    point) and four 4-byte words: three groups of four fraction digits and
    a fourth group when plain, the exponent when scientific.

    A nonzero finite |v| is scaled by 10**k, an exact double for
    -22 <= k <= 22, to y in [10**(d-1), 10**d], where d is its significant
    digit count: 12 plain, 13 scientific.  That is one IEEE rounding, off by
    at most 2**-14 below 1e12 and 2**-10 below 1e13, so when y is more than
    ``_TIE_MARGIN`` from a rounding tie, y rounds to the integer the exact
    |v| 10**k rounds to.  At either end of the range the rounded integer
    names the same decimal as the neighbouring k would, so y may sit on an
    end.  Every value split below is an integer a < 2**53, and a / 10**j
    rounds by less than 10**-j, the least distance to the next integer, so
    its floor is exact; the splitting powers 10**(j-8) and 10**(16-j) are
    exact quotients of exact powers (a carry to 10000 leaves no fraction to
    split).  ``_format_float`` formats the rest: cells within the margin of
    a tie, NaN and infinities, and magnitudes that need a k outside
    [-22, 22], which scale out of range.
    """
    head, word, power = _digit_tables()
    v = np.asarray(block, dtype=float).ravel()
    m = np.abs(v)
    plain = _plain(m)
    scientific = ~plain
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(m))
    # zeros scale as 1.0 and print their digit 0 below; NaN and infinities scale to 0.0, out of range
    special = ~np.isfinite(e)
    zero = m == 0.0
    m[special] = zero[special]
    e[special] = 0.0
    low = 1e11 + 9e11 * scientific
    top = 10.0 * low
    k = (11 - e.astype(np.intp) + scientific).clip(-22, 22)
    y = _scaled(m, k, power)
    # log10 may miss the exponent by one next to a power of ten
    off = (y < low) | (y > top)
    if off.any():
        moved = np.flatnonzero(off)
        k[moved] = (k[moved] + np.where(y[moved] < low[moved], 1, -1)).clip(-22, 22)
        y[moved] = _scaled(m[moved], k[moved], power)
        off = (y < low) | (y > top)
    q = np.rint(y)
    fallback = off | (np.abs(y - q) >= 0.5 - _TIE_MARGIN)
    q[fallback] = low[fallback]
    # a carry into the next power of ten
    carry = q == top
    q[carry] = low[carry]
    k -= carry
    # digits after the point: k when plain, 12 when scientific
    scale = power.take(np.where(plain, k, 12))
    integer = np.floor(q / scale)
    rest = q - integer * scale
    # the fraction padded to 16 digits is high * 10**8 + low8
    split = scale / 1e8
    high = np.floor(rest / split)
    low8 = (rest - high * split) * (1e16 / scale)
    groups = np.empty((4, len(v)))
    groups[0] = np.floor(high / 1e4)
    groups[1] = high - groups[0] * 1e4
    groups[2] = np.floor(low8 / 1e4)
    # the last word holds the fourth group when plain, the exponent when scientific
    groups[3] = np.where(plain, low8 - groups[2] * 1e4, 2e4 + 111 - k)
    # a group prints in full when a later word prints, else without its trailing zeros
    later = groups[3] != 0
    for j in (2, 1, 0):
        printed = later | (groups[j] != 0)
        groups[j] += 1e4 * later
        later = printed
    integer[zero] = 0.0
    # the point prints when a later word does
    key = (integer.astype(np.intp) * 2 + later) * 2 + (v < 0)
    cells = np.empty((len(v), 6), np.uint32)
    cells.view(np.uint64)[:, 0] = head.take(key)
    for j, column in enumerate(groups.astype(np.intp)):
        cells[:, 2 + j] = word.take(column)
    if fallback.any():
        _fallback(cells, fallback, [_format_float(x) for x in v[fallback].tolist()])
    return cells.reshape(block.shape[0], 6 * block.shape[1])


def _index_words(start: int, stop: int) -> np.ndarray:
    """The row numbers start..stop-1 below 10**11 as ``,``-led words: a head word and a group, (rows, 3)."""
    head, word, _ = _digit_tables()
    t = np.arange(start, stop, dtype=float)
    wide = t >= 1e4
    high = np.floor(t / 1e4)
    lead = np.where(wide, high, t).clip(0, 10000)
    cells = np.empty((len(t), 3), np.uint32)
    cells[:, :2] = head.take(lead.astype(np.intp) * 4).view(np.uint32).reshape(-1, 2)
    cells[:, 2] = word.take(np.where(wide, t - high * 1e4 + 1e4, 0).astype(np.intp))
    huge = t >= 1e8
    if huge.any():
        _fallback(cells, huge, [str(n) for n in range(max(start, 10**8), stop)])
    return cells


def _format_table(table: np.ndarray, index: bool) -> bytes:
    """CSV lines of a 2-D float array, each cell as ``format_number`` writes it.

    A numpy digit kernel writes each cell as machine words gathered from
    lookup tables (``_value_words``, which carries the exactness argument,
    and ``_index_words``), in slabs of about ``_SLAB_CELLS`` cells; the zero
    bytes that pad the words are then dropped.  Each cell starts with its
    separator, and the first cell of every row with a newline.
    """
    rows, columns = table.shape
    width = columns + index
    if not width:
        return b"\n" * rows
    step = max(1, _SLAB_CELLS // width)
    parts = []
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        cells = _value_words(table[start:stop])
        if index:
            cells = np.concatenate([_index_words(start, stop), cells], axis=1)
        cells.view(np.uint8)[:, 0] = ord("\n")
        parts.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(parts)[1:] + b"\n" if rows else b""


def write_csv(path, columns, rows, meta, *, index: bool = False) -> Path:
    """Write a CSV with one comment line of metadata and a header row.

    ``rows`` is either an iterable of rows, each cell written by
    ``format_number``, or a 2-D float array, written by a numpy digit kernel
    (``_format_table``) to the same bytes.  With ``index`` the array's rows
    are preceded by their 0-based number as an integer cell, which
    ``columns`` names first.
    """
    head = "# " + " ".join(f"{key}={value}" for key, value in meta.items()) + "\n" + ",".join(columns) + "\n"
    if isinstance(rows, np.ndarray):
        body = _format_table(rows, index)
    else:
        body = "".join(",".join([format_number(cell) for cell in row]) + "\n" for row in rows).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(head.encode("utf-8") + body)
    return path


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw document it came from."""

    raw: dict = field(repr=False)
    model: object | None
    noise: str
    estimator: object | None
    num_samples: int | None
    grid_points: int
    full_range: bool
    trials: int
    delta: float
    epsilon: float | None
    seed: int
    context_overrides: dict


def config_digest(config: ExperimentConfig) -> str:
    payload = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _is_int(value) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ConfigError(f"{where}.{key} is required")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return value


def _reject_unknown(data: dict, known, where: str) -> None:
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}")


# the JSON type a field accepts, by its annotation
_JSON_TYPES = {"int": int, "float": (int, float), "np.ndarray": list}

# the JSON type of each ``context`` key
_CONTEXT_TYPES = {**dict.fromkeys(("phi_inf", "r1", "gamma", "rho"), (int, float)), "channels": int}


def _parse_spec(data: dict, registry: dict, where: str):
    """Build the class that ``registry`` lists under ``data["kind"]`` from its dataclass fields.

    A field without a default is required and must have the JSON type of its
    annotation; an optional ``int`` field must be a JSON integer when given,
    and the other optional fields go to the class as they are.
    """
    kind = _require(data, "kind", str, where)
    if kind not in registry:
        kinds = dict.fromkeys(cls.kind for cls in registry.values())
        raise ConfigError(f"{where}.kind {kind!r} is not one of {', '.join(kinds)}")
    cls = registry[kind]
    _reject_unknown(data, {"kind"} | {f.name for f in fields(cls)}, where)
    try:
        values = {}
        for f in fields(cls):
            if f.default is MISSING or (f.type == "int" and f.name in data):
                value = _require(data, f.name, _JSON_TYPES[f.type], where)
                values[f.name] = float(value) if f.type == "float" else value
            elif f.name in data:
                values[f.name] = data[f.name]
        return cls(**values)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{where}: {err}") from err


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    known = {
        "model", "noise", "estimator", "num_samples", "grid_points", "full_range",
        "trials", "delta", "epsilon", "seed", "context",
    }
    _reject_unknown(data, known, "config")
    noise = data.get("noise", "gaussian")
    if noise not in signals.NOISE_KINDS:
        raise ConfigError(f"noise must be one of {signals.NOISE_KINDS}")
    model = _parse_spec(data["model"], signals.MODELS, "model") if "model" in data else None
    estimator = _parse_spec(data["estimator"], estimators.FAMILIES, "estimator") if "estimator" in data else None
    num_samples = data.get("num_samples")
    if num_samples is not None and (not _is_int(num_samples) or num_samples < 1):
        raise ConfigError("num_samples must be a positive integer")
    grid_points = data.get("grid_points", 101)
    if not _is_int(grid_points) or grid_points < 1:
        raise ConfigError("grid_points must be a positive integer")
    trials = data.get("trials", 100)
    if not _is_int(trials) or trials < 1:
        raise ConfigError("trials must be a positive integer")
    delta = data.get("delta", 0.05)
    if not isinstance(delta, (int, float)) or not 0.0 < float(delta) < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    epsilon = data.get("epsilon")
    if epsilon is not None and (
        isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) or not float(epsilon) > 0.0
    ):
        raise ConfigError("epsilon must be positive when given")
    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    context = data.get("context", {})
    if not isinstance(context, dict):
        raise ConfigError("context must be an object")
    _reject_unknown(context, _CONTEXT_TYPES, "context")
    for key in context:
        _require(context, key, _CONTEXT_TYPES[key], "context")
    full_range = data.get("full_range", False)
    if not isinstance(full_range, bool):
        raise ConfigError("full_range must be a boolean")
    return ExperimentConfig(
        raw=data,
        model=model,
        noise=noise,
        estimator=estimator,
        num_samples=num_samples,
        grid_points=grid_points,
        full_range=full_range,
        trials=trials,
        delta=float(delta),
        epsilon=None if epsilon is None else float(epsilon),
        seed=seed,
        context_overrides=context,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err

    def reject(literal):
        raise ConfigError(f"{path}: non-finite literal {literal}; config numbers must be finite")

    try:
        data = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return parse_config(data)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Re-parse the config with CLI overrides folded into the raw document."""
    data = dict(config.raw)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return parse_config(data)


def _assumption_for(noise: str):
    return GAUSSIAN if noise == "gaussian" else sub_gaussian(signals.UNIFORM_SIGMA)


def make_context(config: ExperimentConfig) -> bounds.BoundContext:
    """Bound context from the model's values, each of which the ``context`` object may override.

    Without a model, the ``context`` object supplies every value.  With one,
    a ``channels`` value must equal the model's: the certificates' cover term
    grows with the channel count, so a smaller one would leave them unproven.
    For the same reason a ``phi_inf`` or ``r1`` value may not lie below the
    model's proven one: the concentration bounds shrink with phi_inf, and
    the bias floor 1 - eps / (2 r1) drops with r1.
    """
    given = config.context_overrides
    model = config.model
    if model is None:
        missing = [name for name in ("phi_inf", "r1", "channels") if name not in given]
        if missing:
            raise ConfigError("context missing fields: " + ", ".join(missing))
        if ("gamma" in given) != ("rho" in given):
            raise ConfigError("context needs gamma and rho together")
        values = {}
    else:
        if given.get("channels", model.channels) != model.channels:
            raise ConfigError(f"context.channels must equal the model's channel count {model.channels}")
        gamma, rho = model.decay()
        values = dict(phi_inf=model.phi_inf(), r1=model.r1_norm(), channels=model.channels, gamma=gamma, rho=rho)
        for name in ("phi_inf", "r1"):
            if given.get(name, values[name]) < values[name]:
                raise ConfigError(f"context.{name} is below the model's proven value {values[name]!r}")
    values.update(given)
    decay = (float(values["gamma"]), float(values["rho"])) if "gamma" in values else None
    try:
        return bounds.BoundContext(
            _assumption_for(config.noise),
            float(values["phi_inf"]),
            float(values["r1"]),
            values["channels"],
            decay,
            model,
        )
    except ValueError as err:
        raise ConfigError(f"context: {err}") from err


def sample_model(model, noise: str, num_samples: int, seed: int, trial: int = 0) -> DataMatrix:
    """Draw one path from the configured model; a non-finite path, from gains that overflow, is a ConfigError."""
    path = model.sample_paths(num_samples, 1, noise, seed, trial)[0]
    with _config_errors():
        return DataMatrix(path)


@contextlib.contextmanager
def _config_errors():
    """Raise a ValueError of the block, which checks values of the config or options, as a ConfigError."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _need(config: ExperimentConfig, what: str):
    value = getattr(config, what)
    if value is None:
        raise ConfigError(f"{what} is required for this command")
    return value


def run_simulate(config: ExperimentConfig, out_dir) -> Path:
    """Export one sampled path as CSV with columns t, y1..yn."""
    model = _need(config, "model")
    num_samples = _need(config, "num_samples")
    with _config_errors():
        signals.check_noise(model, config.noise)
    data = sample_model(model, config.noise, num_samples, config.seed, trial=0)
    columns = ["t"] + [f"y{i + 1}" for i in range(data.channels)]
    meta = {"config_hash": config_digest(config), "seed": config.seed}
    return write_csv(Path(out_dir) / "simulate.csv", columns, data.values.T, meta, index=True)


def _estimate_columns(channels: int) -> list[str]:
    columns = ["frequency"]
    for i, j in zip(*np.triu_indices(channels)):
        columns += [f"re_{i + 1}_{j + 1}", f"im_{i + 1}_{j + 1}"]
    return columns


def run_estimate(config: ExperimentConfig, out_dir, oracle: bool = False) -> Path:
    """Estimate the spectrum of one sampled path over the grid and write it as CSV.

    ``oracle`` forces the dense generic quadratic-form path in place of the
    fast structured one.
    """
    model = _need(config, "model")
    spec = _need(config, "estimator")
    num_samples = _need(config, "num_samples")
    grid = frequency_grid(config.grid_points, config.full_range)
    with _config_errors():
        signals.check_noise(model, config.noise)
        spec.check_fits(num_samples)
    data = sample_model(model, config.noise, num_samples, config.seed, trial=0)
    if oracle:
        with _config_errors():
            matrix = estimators.build_matrix(spec, num_samples)
        estimate = evaluate_generic_grid(data, matrix, grid)
    else:
        estimate = estimators.evaluate_fast(spec, data, grid)
    n = estimate.channels
    # upper-triangle entries in row-major order, each as its (re, im) pair
    i, j = np.triu_indices(n)
    upper = np.ascontiguousarray(estimate.matrices[:, i, j])
    rows = np.column_stack([estimate.frequencies, upper.view(float)])
    meta = {
        "config_hash": config_digest(config),
        "seed": config.seed,
        "oracle": oracle,
        "channels": n,
    }
    return write_csv(Path(out_dir) / "estimate.csv", _estimate_columns(n), rows, meta)


def _read_text(path, first_line: bool = False) -> str:
    """The text of a file, or its first line; a file that cannot be read is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readline() if first_line else handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err


def read_estimate_csv(path) -> SpectralEstimate:
    """Rebuild a Hermitian spectral estimate from an estimate CSV.

    A file that cannot be read, has no estimate header or no rows, or holds
    a row whose cell count differs from the header's or a cell that is not
    a finite number is a ConfigError naming the file and the line.
    """
    numbered = enumerate(_read_text(path).splitlines(), 1)
    lines = [(number, line) for number, line in numbered if line and not line.startswith("#")]
    if not lines:
        raise ConfigError(f"estimate {path} has no header")
    number, line = lines[0]
    header = line.split(",")
    pairs = (len(header) - 1) // 2
    channels = int((math.isqrt(8 * pairs + 1) - 1) // 2)
    if channels < 1 or header != _estimate_columns(channels):
        raise ConfigError(f"{path}:{number}: not an estimate header")
    if len(lines) == 1:
        raise ConfigError(f"estimate {path} has no rows")
    table = np.empty((len(lines) - 1, len(header)))
    for row, (number, line) in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{number}: {len(cells)} cells, the header has {len(header)}")
        try:
            table[row] = [float(cell) for cell in cells]
        except ValueError as err:
            raise ConfigError(f"{path}:{number}: {err}") from err
    if not np.all(np.isfinite(table)):
        row, column = np.argwhere(~np.isfinite(table))[0]
        number, line = lines[1 + row]
        raise ConfigError(f"{path}:{number}: non-finite cell {line.split(',')[column]!r}")
    upper = table[:, 1:].copy().view(complex)
    i, j = np.triu_indices(channels)
    matrices = np.zeros((len(table), channels, channels), dtype=complex)
    matrices[:, i, j] = upper
    matrices[:, j, i] = upper.conj()
    return SpectralEstimate(table[:, 0], matrices)


def _meta(path) -> dict:
    """The ``key=value`` items of a CSV's first line, when it is a metadata comment."""
    first = _read_text(path, first_line=True)
    return dict(item.partition("=")[::2] for item in first[2:].split()) if first.startswith("# ") else {}


def _certificate_row(cert: bounds.Certificate) -> list:
    inputs = ";".join(f"{key}={format_number(value)}" for key, value in cert.inputs)
    return [inputs if f.name == "inputs" else getattr(cert, f.name) for f in fields(cert)]


def run_certify(config: ExperimentConfig, out_dir, estimate_path=None):
    """Write ``bounds.certificate_suite`` for the configured estimator and context.

    Rows follow the suite's rules: a periodogram's concentration rows are
    unavailable, and the bias and total rows are omitted without a decay
    pair.  An ``estimate_path`` whose ``config_hash`` differs from this
    config's, or that ``read_estimate_csv`` rejects, is rejected whether or
    not its row is available.  Returns (path, certificates).
    """
    spec = _need(config, "estimator")
    num_samples = _need(config, "num_samples")
    estimate_sup = None
    if estimate_path is not None:
        found = _meta(estimate_path).get("config_hash")
        if found != config_digest(config):
            raise ConfigError(
                f"estimate {estimate_path} has config_hash={found}, not this config's {config_digest(config)}: "
                "certify needs an estimate of the same config"
            )
        estimate_sup = read_estimate_csv(estimate_path).sup_norm()
    # certify samples nothing, so whatever the suite rejects is a value of the config
    with _config_errors():
        certs = bounds.certificate_suite(
            spec, num_samples, config.delta, make_context(config), epsilon=config.epsilon, estimate_sup=estimate_sup
        )
    columns = [f.name for f in fields(bounds.Certificate)]
    meta = {"config_hash": config_digest(config), "seed": config.seed, "delta": config.delta}
    path = write_csv(Path(out_dir) / "certificates.csv", columns, [_certificate_row(c) for c in certs], meta)
    return path, certs


def example_state_space(rho_target: float = 0.5) -> signals.StateSpace:
    """Three-output chain system used by the second bundled reproduction study."""
    return signals.StateSpace(
        a=[[0.3, 0.0], [1.0, 0.3]],
        b=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        c=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        d=np.eye(3),
        rho_target=rho_target,
    )


# the segment taper of both studies and the correlation of the first study's model
REPRODUCE_TAPER = "hann"
EXAMPLE1_RHO = 0.3


@dataclass(frozen=True)
class ReproduceOptions:
    """Knobs of the bundled reproduction studies (all recorded in the output)."""

    # the Welch segment length and hop of both studies, fixed like the taper
    segment_length: ClassVar[int] = 32
    hop: ClassVar[int] = 16
    trials: int = 100
    seed: int = 20240311
    delta: float = 0.05
    grid_points: int = 101
    blocks: tuple = (8, 16, 32, 64, 128)
    rho_target: float = 0.5


_SWEEP_COLUMNS = [
    "blocks",
    "num_samples",
    "empirical_mean",
    "empirical_max",
    "certificate",
    "concentration_bound",
    "bias_bound",
    "exact_bias",
]


def trial_errors(
    model, noise: str, spec, num_samples: int, grid, trials: int, seed: int, first_trial: int, truth=None
) -> np.ndarray:
    """The (trials, grid) array of ||Phi_hat(s) - Phi(s)||_2 for the paths first_trial .. first_trial + trials - 1.

    The paths come from one ``model.sample_paths`` call and one
    ``DataMatrix.batch`` check; each is estimated by one ``evaluate_fast``
    call and scored against the model's spectrum ``truth`` over the grid
    (``model.psd_grid(grid)`` when not given) by one
    ``hermitian_spectral_norms`` call.  A path's row does not depend on the
    batch around it, so a batch's rows equal one-trial calls bit for bit.
    """
    truth = model.psd_grid(grid) if truth is None else truth
    errors = np.empty((trials, len(grid)))
    paths = DataMatrix.batch(model.sample_paths(num_samples, trials, noise, seed, first_trial))
    for row, data in zip(errors, paths):
        row[:] = hermitian_spectral_norms(estimators.evaluate_fast(spec, data, grid).matrices - truth)
    return errors


def _sweep_rows(model, noises: tuple, options: ReproduceOptions):
    """Per noise, one row per segment count: empirical worst-grid error vs certificates.

    The empirical cells are the mean and the maximum over the trials of each
    path's worst grid error, from one ``trial_errors`` call per segment count
    and noise.  The certificate cells come from one ``bounds.certificate_suite``
    per segment count and noise, and the exact bias, which no noise changes,
    once per count.
    """
    grid = frequency_grid(options.grid_points)
    truth = model.psd_grid(grid)
    contexts = [bounds.BoundContext.from_model(model, _assumption_for(noise)) for noise in noises]
    spec = estimators.Welch(options.segment_length, options.hop, REPRODUCE_TAPER)
    rows = [[] for _ in noises]
    for sweep_index, blocks in enumerate(options.blocks):
        num_samples = (blocks - 1) * options.hop + options.segment_length
        exact_bias = exact_bias_sup(estimators.closed_form_bias(spec, num_samples), model, grid)
        for noise_index, (noise, ctx) in enumerate(zip(noises, contexts)):
            suite = bounds.certificate_suite(spec, num_samples, options.delta, ctx)
            values = {cert.statement: cert.value for cert in suite}
            first = (noise_index * len(options.blocks) + sweep_index) * options.trials
            errors = trial_errors(model, noise, spec, num_samples, grid, options.trials, options.seed, first, truth)
            worst = errors.max(axis=1)
            rows[noise_index].append(
                [
                    blocks,
                    num_samples,
                    float(worst.mean()),
                    float(worst.max()),
                    values["total_worst_bound"],
                    values["worst_case_bound"],
                    values["bias_bound_geometric"],
                    exact_bias,
                ]
            )
    return rows


def _sweep_report(rows, out_dir, stem: str, meta: dict, bias_series: str) -> list[Path]:
    csv_path = write_csv(Path(out_dir) / f"{stem}.csv", _SWEEP_COLUMNS, rows, meta)
    blocks = [row[0] for row in rows]
    bias_column = _SWEEP_COLUMNS.index(bias_series)
    svg_path = line_plot(
        Path(out_dir) / f"{stem}.svg",
        [
            Series("empirical max-over-grid error", tuple(blocks), tuple(row[2] for row in rows)),
            Series("total certificate", tuple(blocks), tuple(row[4] for row in rows), dash="6,4"),
            Series(
                bias_series.replace("_", " "),
                tuple(blocks),
                tuple(row[bias_column] for row in rows),
                color="#d62728",
                dash="2,3",
            ),
        ],
        title=stem.replace("_", " "),
        x_label="number of segments",
        y_label="spectral-norm error",
    )
    return [csv_path, svg_path]


# example -> (its model for the options, the file stem of each noise, the
# model field its files record, its bias curve)
_STUDIES = {
    1: (
        lambda options: signals.GeometricScalar(EXAMPLE1_RHO),
        {"gaussian": "example1_gaussian", "uniform": "example1_subgaussian"},
        "rho",
        "exact_bias",
    ),
    2: (lambda options: example_state_space(options.rho_target), {"gaussian": "example2"}, "rho_target", "bias_bound"),
}


def run_reproduce(example: int, out_dir, options: ReproduceOptions = ReproduceOptions()) -> list[Path]:
    """Run one of the bundled studies; returns the emitted file paths.

    Study 1 sweeps the tapered-segment estimator on the scalar geometric
    process under Gaussian and scaled-uniform noise; study 2 does the same for
    the three-channel state-space process, with the certified decay envelope
    standing in for the exact bias curve.  A model or option that cannot run
    is a ConfigError raised before any path is drawn.
    """
    if example not in _STUDIES:
        raise ConfigError("example must be 1 or 2")
    make_model, stems, field_name, bias_series = _STUDIES[example]
    with _config_errors():
        model = make_model(options)
        # the sweep's own checks of the options, in the order it meets them before its first path
        frequency_grid(options.grid_points)
        GAUSSIAN.log_budget(options.delta, 1.0)
        signals.check_counts(options.segment_length, options.trials)
        np.random.SeedSequence(options.seed)
    base_meta = {
        "trials": options.trials,
        "delta": options.delta,
        "seed": options.seed,
        "segment_length": options.segment_length,
        "hop": options.hop,
        "taper": REPRODUCE_TAPER,
        "grid_points": options.grid_points,
    }
    paths = []
    for (noise, stem), rows in zip(stems.items(), _sweep_rows(model, tuple(stems), options)):
        meta = dict(base_meta, example=example, noise=noise)
        meta[field_name] = getattr(model, field_name)
        meta["config_hash"] = _options_digest(meta)
        paths += _sweep_report(rows, out_dir, stem, meta, bias_series)
    return paths


def _options_digest(meta: dict) -> str:
    payload = json.dumps({k: str(v) for k, v in meta.items()}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _symmetric_gaussian_matrix(dim: int, rng) -> np.ndarray:
    raw = rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.T)


def run_verify_concentration(out_dir, trials: int = 100_000, seed: int = 987654321):
    """Monte Carlo validation of the quadratic-form tail bounds.

    Runs a Gaussian suite against the Gaussian tail and a scaled-uniform suite
    against the psi2 tail, for 4 x 4 and 16 x 16 matrices at 20 deviations
    each.  Returns (path, reports); any flagged row indicates a bug since the
    bounds are proven.
    """
    if trials < 10_000:
        raise ConfigError("verify-concentration needs trials >= 10000")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    dims = (4, 16)
    uniform_tail = hanson_wright(2.0 * signals.UNIFORM_SIGMA)
    rows = []
    reports = {}
    for suite_index, dim in enumerate(dims):
        form = QuadraticForm(_symmetric_gaussian_matrix(dim, rng_stream(seed, 1000 + suite_index)))
        matrix, frob, spec_norm = form.matrix, form.frobenius_norm, form.spectral_norm
        trace = float(np.trace(matrix))

        def statistic(batch, matrix=matrix, trace=trace):
            return np.einsum("ti,ti->t", batch @ matrix, batch) - trace

        suites = {
            "gaussian": (
                lambda rng, count: rng.standard_normal((count, dim)),
                lambda eps: GAUSSIAN_QUADFORM.tail(eps, frob, spec_norm),
                max(math.sqrt(72.0) * frob, 72.0 * spec_norm),
            ),
            "uniform": (
                lambda rng, count: rng.uniform(
                    -signals.UNIFORM_HALF_WIDTH, signals.UNIFORM_HALF_WIDTH, (count, dim)
                ),
                lambda eps: uniform_tail.tail(eps, frob, spec_norm),
                max(math.sqrt(1500.0) * 12.0 * frob, 1500.0 * 12.0 * spec_norm),
            ),
        }
        for suite_offset, (name, (sampler, bound_fn, eps_max)) in enumerate(suites.items()):
            grid = np.linspace(0.0, eps_max, 20)
            report = monte_carlo_tail_check(
                sampler, statistic, bound_fn, grid, trials, seed + 7 * suite_index + suite_offset
            )
            reports[(name, dim)] = report
            for row in report.rows:
                rows.append([name, dim, row.eps, row.empirical, row.bound, row.flagged])
    columns = ["suite", "dim", "eps", "empirical", "bound", "flagged"]
    meta = {"seed": seed, "trials": trials, "config_hash": _options_digest({"seed": seed, "trials": trials, "dims": dims})}
    path = write_csv(Path(out_dir) / "concentration_check.csv", columns, rows, meta)
    return path, reports
