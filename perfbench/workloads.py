"""The four benchmark workloads: seeded inputs, the ops of one cycle, and their output checks.

Every workload is a closed loop with one client: the runner executes the ops
of a cycle one after another and starts the next op only when the previous
one has returned.  ``build`` generates all inputs from the benchmark seed; the
library only ever sees those inputs (configs, argument lists, data arrays).
Each op is split into ``run`` (timed) and ``check`` (untimed), which raises
``CheckFailed`` on a wrong output and otherwise returns the bytes whose digest
must repeat whenever the op repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from specbound import bounds, cli, estimators, experiments, quadform, signals

WORKLOADS = ("scalar_sweep", "state_space_sweep", "queries", "validation")

# the existing oracle-equivalence gate of the test suite
ORACLE_TOLERANCE = 1e-10

FULL = {"small_n": 2064, "large_n": 65536, "dense_ns": (256, 512, 1024), "conc_trials": 100_000}
SMOKE = {"small_n": 144, "large_n": 528, "dense_ns": (32, 64, 128), "conc_trials": 10_000}
SMOKE_TRIALS, SMOKE_GRID = 2, 9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    paths: int = 0  # sample paths the op draws


@dataclass
class Workload:
    name: str
    ops: list[Op]
    largest_array: tuple[str, int]  # (description, bytes), computed from the sizes
    sweep_ratios: list[float] = field(default_factory=list)  # certificate / empirical max
    trace_checks: list[Callable[[dict], list[str]]] = field(default_factory=list)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(value) for value in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _cli(argv: list[str]) -> list[str]:
    """Run ``specbound`` in-process; returns the printed output paths."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    except SystemExit as exit_:  # argparse rejects a bad command line this way
        raise CheckFailed(f"specbound {argv[0]} exited with {exit_.code}") from exit_
    if status != 0:
        raise CheckFailed(f"specbound {argv[0]} exited with {status}")
    return stdout.getvalue().split()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise CheckFailed(f"{path.name}: missing metadata or header line")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(row) != len(header) for row in rows):
        raise CheckFailed(f"{path.name}: ragged rows")
    return header, rows


def _floats(path: Path, rows: list[list[str]]) -> np.ndarray:
    try:
        values = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError as err:
        raise CheckFailed(f"{path.name}: {err}") from err
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path.name}: non-finite value")
    return values


def _file_bytes(paths) -> bytes:
    return b"".join(Path(path).name.encode() + b"\0" + Path(path).read_bytes() for path in sorted(paths))


# --------------------------------------------------------------------------- sweeps


def _sweep(name: str, example: int, seed: int, work: Path, smoke: bool) -> Workload:
    defaults = experiments.ReproduceOptions()
    trials = SMOKE_TRIALS if smoke else defaults.trials
    noises = 2 if example == 1 else 1
    rows_per_csv = len(defaults.blocks)
    out = work / name
    argv = ["reproduce", "--example", str(example), "--out", str(out), "--seed", str(_seeds(seed, 1)[0])]
    if smoke:
        argv += ["--trials", str(SMOKE_TRIALS), "--grid", str(SMOKE_GRID)]
    max_n = (max(defaults.blocks) - 1) * defaults.hop + defaults.segment_length
    channels = 1 if example == 1 else 3
    workload = Workload(name, [], ("sample paths trials x channels x N float64", trials * channels * max_n * 8))

    def check(printed) -> bytes:
        csvs = [Path(path) for path in printed if path.endswith(".csv")]
        if len(csvs) != noises or len(printed) != 2 * noises:
            raise CheckFailed(f"expected {noises} CSV + SVG pairs, got {printed}")
        ratios = []
        for path in csvs:
            header, rows = _read_csv(path)
            if len(rows) != rows_per_csv:
                raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {rows_per_csv}")
            values = _floats(path, rows)
            empirical = values[:, header.index("empirical_max")]
            certificate = values[:, header.index("certificate")]
            if np.any(certificate < empirical):
                raise CheckFailed(f"{path.name}: certificate below the empirical maximum")
            ratios += list(certificate / empirical)
        workload.sweep_ratios = ratios
        return _file_bytes(printed)

    evaluate_calls = trials * rows_per_csv * noises
    workload.ops.append(Op(f"reproduce/{example}", lambda: _cli(argv), check, paths=evaluate_calls))

    def trace_check(counts: dict) -> list[str]:
        # every path is estimated once and scored with one spectral-norm call;
        # exact_bias_sup and grid_phi_inf add one each.  A wrapper missing an
        # import site breaks these identities.
        problems = []
        fast = counts.get("calls:estimators.evaluate_fast:evaluate_fast", 0)
        if fast != evaluate_calls:
            problems.append(f"evaluate_fast calls {fast} != {evaluate_calls}")
        norms = counts.get("calls:quadform.spectral_norms:hermitian_spectral_norms", 0)
        expected = (
            fast
            + counts.get("calls:quadform.exact_bias_sup:exact_bias_sup", 0)
            + counts.get("calls:signals.psd:grid_phi_inf", 0)
        )
        if norms != expected:
            problems.append(f"hermitian_spectral_norms calls {norms} != {expected}")
        return problems

    workload.trace_checks.append(trace_check)
    return workload


# --------------------------------------------------------------------------- queries

MODELS = {
    "geometric": ({"kind": "geometric", "rho": 0.3}, "uniform"),
    "white": ({"kind": "white", "channels": 2}, "gaussian"),
    "state_space": (
        {
            "kind": "state_space",
            "a": [[0.3, 0.0], [1.0, 0.3]],
            "b": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "d": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "rho_target": 0.5,
        },
        "gaussian",
    ),
}
CHANNELS = {"geometric": 1, "white": 2, "state_space": 3}
FAMILIES = {
    "biased_periodogram": {"kind": "biased_periodogram"},
    "unbiased_periodogram": {"kind": "unbiased_periodogram"},
    "blackman_tukey": {"kind": "blackman_tukey", "half_width": 32, "window": "hann"},
    "bartlett": {"kind": "bartlett", "block_length": 16},
    "welch": {"kind": "welch", "segment_length": 32, "hop": 16, "taper": "hann"},
}
PERIODOGRAMS = ("biased_periodogram", "unbiased_periodogram")
QUERY_GRID = 101
QUERY_EPSILON = 0.5

# The N = 65536 queries: (model, family, commands).  Chosen so that every one
# of them takes the long-path cost (periodogram phase matrix, the per-lag bias
# loop, one long state-space path); with 13 of 52 queries the 90th percentile
# lands inside this group and the median inside the N = 2064 group.
LARGE_QUERIES = [
    ("geometric", "biased_periodogram", ("estimate", "certify", "simulate")),
    ("white", "biased_periodogram", ("estimate", "certify", "simulate")),
    ("state_space", "biased_periodogram", ("estimate", "certify", "simulate")),
    ("state_space", "welch", ("estimate", "certify")),
    ("state_space", "bartlett", ("estimate",)),
    ("state_space", "blackman_tukey", ("estimate",)),
]


def _certify_statements(family: str) -> int:
    # pointwise, worst_case, bias, data_driven and five condition parts; the
    # total bound exists only where a concentration envelope does
    return 9 if family in PERIODOGRAMS else 10


def _query_ops(model: str, family: str, n: int, commands, config: Path, out: Path) -> list[Op]:
    channels = CHANNELS[model]
    ops = []
    if "estimate" in commands:
        def check_estimate(printed, path=out / "estimate.csv") -> bytes:
            header, rows = _read_csv(path)
            if len(header) != 1 + channels * (channels + 1) or len(rows) != QUERY_GRID:
                raise CheckFailed(f"{model}/{family}/{n}: estimate.csv has the wrong shape")
            _floats(path, rows)
            return _file_bytes([path])

        argv = ["estimate", "--config", str(config), "--out", str(out)]
        ops.append(Op(f"estimate/{model}/{family}/{n}", lambda argv=argv: _cli(argv), check_estimate, 1))
    if "certify" in commands:
        def check_certify(printed, path=out / "certificates.csv") -> bytes:
            header, rows = _read_csv(path)
            statements = [row[0] for row in rows]
            if len(rows) != _certify_statements(family) or len(set(statements)) != len(statements):
                raise CheckFailed(f"{model}/{family}/{n}: certificates.csv has {len(rows)} rows")
            if any(row[1] not in ("true", "false") for row in rows):
                raise CheckFailed(f"{model}/{family}/{n}: malformed availability column")
            return _file_bytes([path])

        argv = ["certify", "--config", str(config), "--out", str(out), "--estimate", str(out / "estimate.csv")]
        ops.append(Op(f"certify/{model}/{family}/{n}", lambda argv=argv: _cli(argv), check_certify))
    if "simulate" in commands:
        def check_simulate(printed, path=out / "simulate.csv") -> bytes:
            header, rows = _read_csv(path)
            if len(header) != 1 + channels or len(rows) != n:
                raise CheckFailed(f"{model}/{n}: simulate.csv has the wrong shape")
            _floats(path, rows)
            return _file_bytes([path])

        argv = ["simulate", "--config", str(config), "--out", str(out)]
        ops.append(Op(f"simulate/{model}/{n}", lambda argv=argv: _cli(argv), check_simulate, 1))
    return ops


def _optimize_op(model: str, config: Path, divisors_only: bool) -> Op:
    def run():
        parsed = experiments.load_config(config)
        ctx = experiments.make_context(parsed)
        return parsed.num_samples, bounds.optimize_bartlett_m(parsed.num_samples, parsed.delta, ctx, divisors_only)

    def check(result) -> bytes:
        n, selection = result
        m = selection.block_length
        if not (math.isfinite(selection.bound) and selection.bound > 0.0 and 1.0 <= m <= n):
            raise CheckFailed(f"optimize/{model}: bad selection {selection}")
        if divisors_only and n % int(m):
            raise CheckFailed(f"optimize/{model}: block length {m} does not divide {n}")
        return repr(selection).encode()

    mode = "divisors" if divisors_only else "continuous"
    return Op(f"optimize/{model}/{mode}", run, check)


def _queries(seed: int, work: Path, smoke: bool) -> Workload:
    sizes = SMOKE if smoke else FULL
    small, large = sizes["small_n"], sizes["large_n"]
    plan = []  # (model, family, n, commands)
    for model in MODELS:
        for family in FAMILIES:
            commands = ("estimate", "certify", "simulate") if family == "welch" else ("estimate", "certify")
            plan.append((model, family, small, commands))
        plan += [(m, family, large, commands) for m, family, commands in LARGE_QUERIES if m == model]
    seeds = _seeds(seed, len(plan))
    ops = []
    for (model, family, n, commands), config_seed in zip(plan, seeds):
        model_doc, noise = MODELS[model]
        config = {
            "model": model_doc,
            "noise": noise,
            "estimator": FAMILIES[family],
            "num_samples": n,
            "grid_points": QUERY_GRID,
            "epsilon": QUERY_EPSILON,
            "seed": config_seed,
        }
        stem = f"{model}-{family}-{n}"
        path = work / "queries" / f"{stem}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config), encoding="utf-8")
        ops += _query_ops(model, family, n, commands, path, work / "queries" / stem)
        if family == "bartlett" and n == small:
            ops += [_optimize_op(model, path, True), _optimize_op(model, path, False)]
    return Workload(
        "queries",
        ops,
        ("biased-periodogram phase matrix N x grid complex128", large * QUERY_GRID * 16),
    )


# --------------------------------------------------------------------------- validation

VALIDATION_GRID = 101
VALIDATION_EPSILON = 0.5
VALIDATION_DELTA = 0.05
# paths per cycle at each dense size, smallest first: the small size carries
# the median and the largest size the 90th percentile
VALIDATION_REPEATS = (3, 1, 1)


def _validation_specs():
    return {
        "biased_periodogram": estimators.BiasedPeriodogram(),
        "unbiased_periodogram": estimators.UnbiasedPeriodogram(),
        "blackman_tukey": estimators.BlackmanTukey(32, "hann"),
        "bartlett": estimators.Bartlett(16),
        "welch": estimators.Welch(32, 16, "hann"),
    }


def _dense_op(family: str, spec, values: np.ndarray, trial: int) -> Op:
    n = values.shape[1]
    grid = quadform.frequency_grid(VALIDATION_GRID)

    def run():
        ctx = bounds.BoundContext.from_model(signals.GeometricScalar(0.3), bounds.GAUSSIAN)
        data = quadform.DataMatrix(values)
        form = estimators.build_matrix(spec, n)
        generic = quadform.evaluate_generic_grid(data, form, grid)
        fast = estimators.evaluate_fast(spec, data, grid)
        certificates = [
            bounds.check_conditions(part, VALIDATION_EPSILON, VALIDATION_DELTA, ctx, form=form)
            for part in bounds.CONDITION_PARTS
        ]
        return generic, fast, certificates

    def check(result) -> bytes:
        generic, fast, certificates = result
        deviation = float(np.abs(fast.matrices - generic.matrices).max())
        if not deviation < ORACLE_TOLERANCE:
            raise CheckFailed(f"dense/{family}/{n}: fast vs oracle deviation {deviation:.3e}")
        if any(not isinstance(cert.holds, bool) for cert in certificates):
            raise CheckFailed(f"dense/{family}/{n}: condition without a verdict")
        return fast.matrices.tobytes() + generic.matrices.tobytes() + repr(certificates).encode()

    return Op(f"dense/{family}/{n}/{trial}", run, check, paths=1)


def _concentration_op(trials: int, seed: int, out: Path) -> Op:
    argv = ["verify-concentration", "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
    rows_expected = 2 * 2 * 20  # two suites x two dimensions x 20 deviations

    def check(printed) -> bytes:
        path = out / "concentration_check.csv"
        header, rows = _read_csv(path)
        if len(rows) != rows_expected:
            raise CheckFailed(f"concentration_check.csv has {len(rows)} rows")
        if any(row[header.index("flagged")] != "false" for row in rows):
            raise CheckFailed("verify-concentration flagged a row")
        return _file_bytes([path])

    return Op("verify-concentration", lambda: _cli(argv), check)


def _validation(seed: int, work: Path, smoke: bool) -> Workload:
    sizes = SMOKE if smoke else FULL
    rng = np.random.default_rng(seed)
    ops = []
    for family, spec in _validation_specs().items():
        for n, repeats in zip(sizes["dense_ns"], VALIDATION_REPEATS):
            for trial in range(repeats):
                ops.append(_dense_op(family, spec, rng.standard_normal((1, n)), trial))
    ops.append(_concentration_op(sizes["conc_trials"], _seeds(seed, 1)[0], work / "validation"))
    largest = max(sizes["dense_ns"])
    return Workload("validation", ops, ("dense coefficient matrix N x N float64", largest * largest * 8))


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Generate the inputs of one workload under ``work`` and return its cycle of ops."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    if name == "scalar_sweep":
        return _sweep(name, 1, seed, work, smoke)
    if name == "state_space_sweep":
        return _sweep(name, 2, seed, work, smoke)
    if name == "queries":
        return _queries(seed, work, smoke)
    if name == "validation":
        return _validation(seed, work, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
