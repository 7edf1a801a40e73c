"""End-to-end tests of the command-line interface and its file formats."""

import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from specbound import cli, estimators, experiments, signals
from specbound.bounds import CONDITION_PARTS, GAUSSIAN, BoundContext
from specbound.experiments import (
    ConfigError,
    example_state_space,
    format_number,
    load_config,
    make_context,
    parse_config,
    read_estimate_csv,
    run_certify,
    run_estimate,
    run_reproduce,
    run_simulate,
    sample_model,
    write_csv,
    ReproduceOptions,
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "specbound", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# blocks scipy, so that an import of it anywhere on the path of the import,
# of a command or of the continuous block-length search raises ImportError
NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from specbound import bounds, cli
from specbound.constants import GAUSSIAN
config, out = sys.argv[1:]
for argv in (
    ["estimate", "--config", config],
    ["certify", "--config", config, "--estimate", out + "/estimate.csv"],
    ["simulate", "--config", config],
    ["reproduce", "--example", "2", "--trials", "2", "--grid", "9"],
    ["verify-concentration", "--trials", "10000"],
):
    assert cli.main(argv + ["--out", out]) == 0, argv
ctx = bounds.BoundContext(GAUSSIAN, 13.0 / 7.0, 13.0 / 7.0, 1, (1.0, 0.3))
bounds.optimize_bartlett_m(2064, 0.05, ctx, divisors_only=False)
"""


def test_import_loads_no_scipy(tmp_path):
    config = {"model": {"kind": "geometric", "rho": 0.3}, "noise": "gaussian", "num_samples": 136, "grid_points": 9,
              "estimator": {"kind": "welch", "segment_length": 16, "hop": 8}, "epsilon": 0.5, "seed": 77}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(path), str(tmp_path / "out")], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture()
def welch_config(tmp_path):
    config = {
        "model": {"kind": "geometric", "rho": 0.3},
        "noise": "gaussian",
        "estimator": {"kind": "welch", "segment_length": 16, "hop": 8, "taper": "hann"},
        "num_samples": 136,
        "grid_points": 9,
        "trials": 5,
        "delta": 0.1,
        "seed": 77,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_estimate_is_deterministic(tmp_path, welch_config):
    first = run_cli("estimate", "--config", str(welch_config), "--out", str(tmp_path / "a"))
    second = run_cli("estimate", "--config", str(welch_config), "--out", str(tmp_path / "b"))
    assert first.returncode == 0 and second.returncode == 0
    a = (tmp_path / "a" / "estimate.csv").read_bytes()
    b = (tmp_path / "b" / "estimate.csv").read_bytes()
    assert a == b


def test_estimate_rows_and_hermitian_reader(tmp_path, welch_config):
    result = run_cli("estimate", "--config", str(welch_config), "--out", str(tmp_path))
    assert result.returncode == 0
    estimate = read_estimate_csv(tmp_path / "estimate.csv")
    assert estimate.frequencies.size == 9
    herm_gap = np.abs(estimate.matrices - estimate.matrices.conj().transpose(0, 2, 1)).max()
    assert herm_gap == 0.0


def test_three_channel_estimate_round_trip(tmp_path):
    model = example_state_space(0.5)
    config = parse_config(
        {
            "model": {
                "kind": "state_space",
                "a": model.a.tolist(),
                "b": model.b.tolist(),
                "c": model.c.tolist(),
                "d": model.d.tolist(),
                "rho_target": 0.5,
            },
            "estimator": {"kind": "welch", "segment_length": 16, "hop": 8},
            "num_samples": 136,
            "grid_points": 9,
            "full_range": True,
            "seed": 4,
        }
    )
    path = run_estimate(config, tmp_path)
    header = path.read_text().splitlines()[1]
    assert header == (
        "frequency,re_1_1,im_1_1,re_1_2,im_1_2,re_1_3,im_1_3,"
        "re_2_2,im_2_2,re_2_3,im_2_3,re_3_3,im_3_3"
    )
    data = sample_model(config.model, "gaussian", 136, 4)
    grid = np.linspace(-0.5, 0.5, 9)
    fast = estimators.evaluate_fast(config.estimator, data, grid)
    # each row is the frequency, then (re, im) of the upper triangle row by row
    for line, freq, matrix in zip(path.read_text().splitlines()[2:], grid, fast.matrices, strict=True):
        upper = [matrix[i, j] for i in range(3) for j in range(i, 3)]
        cells = [freq] + [part for value in upper for part in (value.real, value.imag)]
        assert line == ",".join(format_number(cell) for cell in cells)
    estimate = read_estimate_csv(path)
    np.testing.assert_array_equal(estimate.frequencies, grid)
    # the CSV keeps 12 significant digits
    assert np.abs(estimate.matrices - fast.matrices).max() <= 1e-11 * np.abs(fast.matrices).max()


def test_oracle_flag_agrees_with_fast_path(tmp_path, welch_config):
    run_cli("estimate", "--config", str(welch_config), "--out", str(tmp_path / "fast"))
    run_cli("estimate", "--config", str(welch_config), "--oracle", "--out", str(tmp_path / "oracle"))
    fast = read_estimate_csv(tmp_path / "fast" / "estimate.csv")
    oracle = read_estimate_csv(tmp_path / "oracle" / "estimate.csv")
    assert np.abs(fast.matrices - oracle.matrices).max() < 1e-10


def test_grid_and_seed_overrides(tmp_path, welch_config):
    result = run_cli(
        "estimate", "--config", str(welch_config), "--grid", "5", "--seed", "123",
        "--out", str(tmp_path),
    )
    assert result.returncode == 0
    estimate = read_estimate_csv(tmp_path / "estimate.csv")
    assert estimate.frequencies.size == 5
    header = (tmp_path / "estimate.csv").read_text().splitlines()[0]
    assert "seed=123" in header and "config_hash=" in header


def test_certify_table_and_delta_monotonicity(tmp_path, welch_config):
    config = load_config(welch_config)
    _, certs = run_certify(config, tmp_path / "a")
    by_name = {c.statement: c for c in certs}
    assert by_name["worst_case_bound"].value > 0.0
    assert by_name["total_worst_bound"].value == pytest.approx(
        by_name["worst_case_bound"].value + by_name["bias_bound_geometric"].value
    )
    tighter = parse_config({**config.raw, "delta": 0.01})
    _, tight_certs = run_certify(tighter, tmp_path / "b")
    tight = {c.statement: c for c in tight_certs}
    assert tight["worst_case_bound"].value > by_name["worst_case_bound"].value


def test_certify_includes_condition_rows_when_epsilon_given(tmp_path, welch_config):
    config = load_config(welch_config)
    config = parse_config({**config.raw, "epsilon": 0.5})
    path, certs = run_certify(config, tmp_path)
    names = [c.statement for c in certs]
    assert "welch.bias_condition" in names and "welch.worst_total_condition" in names
    text = path.read_text()
    assert text.splitlines()[1].startswith("statement,available,holds")


def test_certify_data_driven_from_estimate(tmp_path, welch_config):
    run_cli("estimate", "--config", str(welch_config), "--out", str(tmp_path))
    config = load_config(welch_config)
    _, certs = run_certify(config, tmp_path, estimate_path=tmp_path / "estimate.csv")
    data_driven = [c for c in certs if c.statement == "data_driven_bound"]
    assert len(data_driven) == 1
    # the concentration factor exceeds one at this tiny sample size
    assert not data_driven[0].available


def test_certify_rejects_an_estimate_of_another_config(tmp_path, welch_config, capsys):
    # a finer grid is another config: its estimate's sup is taken over other points
    other = tmp_path / "other"
    assert cli.main(["estimate", "--config", str(welch_config), "--grid", "17", "--out", str(other)]) == 0
    own = experiments.config_digest(load_config(welch_config))
    found = experiments._meta(other / "estimate.csv")["config_hash"]
    assert found != own
    capsys.readouterr()
    argv = ["certify", "--config", str(welch_config), "--out", str(tmp_path / "c"), "--estimate", str(other / "estimate.csv")]
    assert cli.main(argv) == 2
    assert f"has config_hash={found}, not this config's {own}: certify needs an estimate of the same config" in capsys.readouterr().err
    assert not (tmp_path / "c" / "certificates.csv").exists()
    # a table without the metadata line names no config
    bare = tmp_path / "bare.csv"
    bare.write_text("".join((other / "estimate.csv").read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ConfigError, match="has config_hash=None"):
        run_certify(load_config(welch_config), tmp_path / "d", estimate_path=bare)


def _with_cell(lines, number, cell):
    """The lines with the second cell of line ``number`` (counted from one) replaced by ``cell``."""
    cells = lines[number - 1].split(",")
    cells[1] = cell
    return lines[: number - 1] + [",".join(cells)] + lines[number:]


# name -> (the malformed file's lines, made from a good one-channel estimate's; the message after "config error: ")
MALFORMED_ESTIMATES = {
    "unreadable": (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "no_header": (lambda lines: lines[:1], "estimate {path} has no header"),
    "no_rows": (lambda lines: lines[:2], "estimate {path} has no rows"),
    "not_an_estimate_header": (lambda lines: [lines[0], "frequency,re_1_1"] + lines[2:], "{path}:2: not an estimate header"),
    "ragged_row": (lambda lines: lines[:2] + [lines[2].rpartition(",")[0]] + lines[3:], "{path}:3: 2 cells, the header has 3"),
    "non_numeric_cell": (lambda lines: _with_cell(lines, 4, "abc"), "{path}:4: could not convert string to float: 'abc'"),
    "non_finite_cell": (lambda lines: _with_cell(lines, 4, "nan"), "{path}:4: non-finite cell 'nan'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ESTIMATES))
def test_certify_rejects_a_malformed_estimate_by_name(tmp_path, welch_config, capsys, case):
    assert cli.main(["estimate", "--config", str(welch_config), "--out", str(tmp_path)]) == 0
    edit, message = MALFORMED_ESTIMATES[case]
    path = tmp_path / "malformed.csv"
    if edit is not None:
        path.write_text("\n".join(edit((tmp_path / "estimate.csv").read_text().splitlines())) + "\n")
    capsys.readouterr()
    argv = ["certify", "--config", str(welch_config), "--out", str(tmp_path / "c"), "--estimate", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "config error: " + message.format(path=path) + "\n"
    assert not (tmp_path / "c" / "certificates.csv").exists()


def test_certify_rejects_a_malformed_estimate_without_a_data_driven_row(tmp_path, capsys):
    # the periodogram has no concentration envelope, so no row reads the file
    config = {
        "model": {"kind": "geometric", "rho": 0.3},
        "noise": "gaussian",
        "estimator": {"kind": "biased_periodogram"},
        "num_samples": 144,
        "grid_points": 9,
        "delta": 0.1,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["estimate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    path = tmp_path / "metadata_only.csv"
    path.write_text((tmp_path / "estimate.csv").read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    argv = ["certify", "--config", str(config_path), "--out", str(tmp_path / "c"), "--estimate", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: estimate {path} has no header\n"
    assert not (tmp_path / "c" / "certificates.csv").exists()


def test_certify_takes_the_grid_overrides_of_its_estimate(tmp_path, welch_config):
    overrides = ["--grid", "17", "--full-range"]
    assert cli.main(["estimate", "--config", str(welch_config), "--out", str(tmp_path)] + overrides) == 0
    argv = ["certify", "--config", str(welch_config), "--out", str(tmp_path), "--estimate", str(tmp_path / "estimate.csv")]
    assert cli.main(argv + overrides) == 0
    rows = (tmp_path / "certificates.csv").read_text().splitlines()
    assert sum(row.startswith("data_driven_bound,") for row in rows) == 1


@pytest.mark.parametrize(
    "estimator",
    [
        {"kind": "blackman_tukey", "half_width": 8, "window": "hann"},
        {"kind": "bartlett", "block_length": 8},
        {"kind": "welch", "segment_length": 16, "hop": 8},
    ],
    ids=lambda estimator: estimator["kind"],
)
def test_pointwise_bound_and_condition_name_one_xi(tmp_path, estimator):
    config = {"model": {"kind": "geometric", "rho": 0.3}, "estimator": estimator, "num_samples": 136, "epsilon": 0.5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "certificates.csv").read_text().splitlines()[2:]
    inputs = {row.split(",")[0]: row.split(",")[6] for row in rows}
    # each row records the two norms the bound reads, and the condition row the bound's whole cell
    keys = {"pointwise": ["spectral", "frobenius_sq"], "worst_case": ["spectral", "frobenius_sq", "truncation"]}
    for part, names in keys.items():
        cell = inputs[f"{part}_bound"]
        assert [item.partition("=")[0] for item in cell.split(";")] == names
        assert inputs[f"{estimator['kind']}.{part}_condition"] == cell


def test_certify_periodogram_unavailable_and_require_feasible(tmp_path):
    config = {
        "model": {"kind": "white"},
        "estimator": {"kind": "biased_periodogram"},
        "num_samples": 16,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    plain = run_cli("certify", "--config", str(path), "--out", str(tmp_path))
    assert plain.returncode == 0
    strict = run_cli("certify", "--config", str(path), "--require-feasible", "--out", str(tmp_path))
    assert strict.returncode == 3
    rows = (tmp_path / "certificates.csv").read_text().splitlines()
    assert any(row.startswith("pointwise_bound,false") for row in rows)


def test_missing_context_fields_listed(tmp_path):
    config = {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli("certify", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "phi_inf" in result.stderr and "r1" in result.stderr and "channels" in result.stderr


def test_simulate_exports_path(tmp_path, welch_config):
    result = run_cli("simulate", "--config", str(welch_config), "--out", str(tmp_path))
    assert result.returncode == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[1] == "t,y1"
    assert len(lines) == 2 + 136


def test_long_simulate_rows_are_formatted_like_format_number(tmp_path):
    # past t = 10000 a float t column would turn scientific
    config = parse_config({"model": {"kind": "white", "channels": 2}, "num_samples": 10050, "seed": 3})
    lines = run_simulate(config, tmp_path).read_text().splitlines()
    data = sample_model(config.model, "gaussian", 10050, 3)
    assert lines[1] == "t,y1,y2"
    for t, (line, values) in enumerate(zip(lines[2:], data.values.T.tolist(), strict=True)):
        assert line == ",".join(format_number(cell) for cell in [t] + values)
    assert lines[-1].startswith("10049,")


def test_simulate_writes_more_than_eight_channels(tmp_path):
    # the path is written as the transpose of a (channels, N) array: a
    # column-major table, here wider than eight columns
    config = parse_config({"model": {"kind": "white", "channels": 9}, "num_samples": 40, "seed": 3})
    lines = run_simulate(config, tmp_path).read_text().splitlines()
    data = sample_model(config.model, "gaussian", 40, 3)
    for t, (line, values) in enumerate(zip(lines[2:], data.values.T.tolist(), strict=True)):
        assert line == ",".join(format_number(cell) for cell in [t] + values)


def test_verify_concentration_trial_floor(tmp_path):
    result = run_cli("verify-concentration", "--trials", "10", "--out", str(tmp_path))
    assert result.returncode == 2
    assert "trials" in result.stderr


@pytest.mark.parametrize(
    "document, meta",
    [({"seed": 5}, "seed=5 trials=100000"), ({"trials": 10000}, "seed=987654321 trials=10000")],
    ids=["seed-only", "trials-only"],
)
def test_verify_concentration_config_sets_only_what_it_names(tmp_path, document, meta):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert cli.main(["verify-concentration", "--config", str(path), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "concentration_check.csv").read_text().splitlines()[0]
    assert header.startswith(f"# {meta} ")


def test_verify_concentration_exits_one_and_counts_flagged_suites(tmp_path, capsys, monkeypatch):
    # a gaussian tail of zero is exceeded at the small deviations of both gaussian suites
    monkeypatch.setattr(experiments, "GAUSSIAN_QUADFORM", dataclasses.replace(experiments.GAUSSIAN_QUADFORM, multiplier=0.0))
    assert cli.main(["verify-concentration", "--trials", "10000", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "2 suite(s) flagged: tail bound violated\n"


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"model\": ,\n}")
    result = run_cli("estimate", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert ":2:" in result.stderr


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    result = run_cli("estimate", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "bogus" in result.stderr


WHITE = {"model": {"kind": "white"}, "num_samples": 8}
CONTEXT_ONLY = {"num_samples": 8, "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 1}}

# case -> (command, config, message): a misspelled key inside ``model`` or
# ``estimator``, or a JSON boolean where an integer is required
STRICT_CASES = {
    "estimator-key": (
        "certify",
        dict(CONTEXT_ONLY, estimator={"kind": "welch", "segment_length": 4, "hop": 2, "tapr": "rectangular"}),
        "unknown estimator key 'tapr'",
    ),
    "model-key": ("simulate", dict(WHITE, model={"kind": "white", "channel": 3}), "unknown model key 'channel'"),
    "geometric-key": (
        "simulate", dict(WHITE, model={"kind": "geometric", "rho": 0.3, "channels": 2}), "unknown model key 'channels'"
    ),
    "num_samples": ("simulate", dict(WHITE, num_samples=True), "num_samples must be a positive integer"),
    "grid_points": ("simulate", dict(WHITE, grid_points=True), "grid_points must be a positive integer"),
    "trials": ("simulate", dict(WHITE, trials=True), "trials must be a positive integer"),
    "seed": ("simulate", dict(WHITE, seed=True), "seed must be a nonnegative integer"),
    "channels": ("simulate", dict(WHITE, model={"kind": "white", "channels": True}), "model: model.channels has the wrong type"),
    "block_length": (
        "certify",
        dict(CONTEXT_ONLY, estimator={"kind": "bartlett", "block_length": True}),
        "estimator: estimator.block_length has the wrong type",
    ),
    "hop": (
        "certify",
        dict(CONTEXT_ONLY, estimator={"kind": "welch", "segment_length": 2, "hop": False}),
        "estimator: estimator.hop has the wrong type",
    ),
}


@pytest.mark.parametrize("case", list(STRICT_CASES))
def test_unknown_nested_keys_and_boolean_integers_are_rejected(tmp_path, capsys, case):
    command, config, message = STRICT_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


BARTLETT = {"kind": "bartlett", "block_length": 4}
CONTEXT = CONTEXT_ONLY["context"]

# case -> (config, message): a ``context`` or ``epsilon`` that ``certify`` must not run on
CONTEXT_CASES = {
    "unknown-key": (dict(WHITE, context={"phi_ifn": 9.0}), "unknown context key 'phi_ifn'"),
    "bool-number": (dict(CONTEXT_ONLY, context=dict(CONTEXT, phi_inf=True)), "context.phi_inf has the wrong type"),
    "string-number": (dict(WHITE, context={"r1": "3"}), "context.r1 has the wrong type"),
    "bool-decay": (dict(WHITE, context={"gamma": 2.0, "rho": False}), "context.rho has the wrong type"),
    "float-channels": (dict(WHITE, context={"channels": 2.7}), "context.channels has the wrong type"),
    "bool-channels": (dict(CONTEXT_ONLY, context=dict(CONTEXT, channels=True)), "context.channels has the wrong type"),
    "bool-epsilon": (dict(CONTEXT_ONLY, epsilon=True), "epsilon must be positive when given"),
    "lone-gamma": (dict(CONTEXT_ONLY, context=dict(CONTEXT, gamma=1.2)), "context needs gamma and rho together"),
    "lone-rho": (dict(CONTEXT_ONLY, context=dict(CONTEXT, rho=0.4)), "context needs gamma and rho together"),
    # the cover term grows with the channel count: one channel on a three-channel
    # white model shrank Welch 32/16's worst-case bound at N = 2064 from 11.928
    # to 5.978, a bound nothing proved
    "model-channels": (
        dict(WHITE, model={"kind": "white", "channels": 3}, context={"channels": 1}),
        "context.channels must equal the model's channel count 3",
    ),
    # a phi_inf below the model's shrinks every concentration bound, and an r1
    # below it lowers the bias floor 1 - eps / (2 r1)
    "low-phi_inf": (dict(WHITE, context={"phi_inf": 0.5}), "context.phi_inf is below the model's proven value 1.0"),
    "low-r1": (dict(WHITE, context={"r1": 0.5}), "context.r1 is below the model's proven value 1.0"),
    # holds over lags 0..64, fails from lag 94 on
    "decay-below-model-rate": (
        dict(WHITE, model={"kind": "geometric", "rho": 0.9}, context={"gamma": 210.0, "rho": 0.85}),
        "context: decay envelope falls below the model's certified envelope (1.0, 0.9) at large lags: "
        "rho must be at least the certified rate 0.9",
    ),
    # no forcing (b and d zero): the decay pair's gamma is 0, the spectrum is
    # zero and no positive phi_inf exists
    "zero-forcing": (
        dict(WHITE, model={"kind": "state_space", "a": [[0.5]], "b": [[0.0]], "c": [[1.0]], "d": [[0.0]]}),
        "context: phi_inf must be positive and finite",
    ),
}


@pytest.mark.parametrize("case", list(CONTEXT_CASES))
def test_malformed_context_and_epsilon_are_rejected(tmp_path, capsys, case):
    config, message = CONTEXT_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, estimator=BARTLETT)))
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate", "certify"])
@pytest.mark.parametrize(
    "context, message",
    [({"phi_ifn": 9.0}, "unknown context key 'phi_ifn'"), ({"phi_inf": "3"}, "context.phi_inf has the wrong type")],
    ids=["unknown-key", "string-number"],
)
def test_every_command_rejects_a_malformed_context(tmp_path, capsys, command, context, message):
    # estimate and simulate never read the context, yet they must not run on a malformed one
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(WHITE, estimator=BARTLETT, num_samples=16, context=context)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_context_values_override_the_model_values():
    # a channel count equal to the model's is accepted
    config = parse_config({"model": {"kind": "geometric", "rho": 0.3}, "context": {"r1": 3, "gamma": 1.5, "channels": 1}})
    expected = dataclasses.replace(
        BoundContext.from_model(config.model, GAUSSIAN), r1_norm=3.0, decay=(1.5, 0.3)
    )
    assert make_context(config) == expected


def test_estimator_size_mismatch_is_config_error(tmp_path):
    config = {
        "model": {"kind": "white"},
        "estimator": {"kind": "bartlett", "block_length": 3},
        "num_samples": 10,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli("certify", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "multiple" in result.stderr


def test_state_space_rejects_uniform_noise(tmp_path):
    config = {
        "model": {
            "kind": "state_space",
            "a": [[0.3, 0.0], [1.0, 0.3]],
            "b": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "d": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
        "noise": "uniform",
        "num_samples": 32,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli("simulate", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "state-space sampling supports gaussian noise only" in result.stderr


def test_number_formatting_rules():
    assert format_number(0.0) == "0"
    assert format_number(0.001) == "0.001"
    assert format_number(1234.5) == "1234.5"
    assert "e" in format_number(1e4)
    assert "e" in format_number(5e-4)
    assert format_number(True) == "true"
    assert format_number(7) == "7"


def test_csv_cells_are_formatted_like_format_number(tmp_path):
    floats = [
        0.0, -0.0, 1e-3, float(np.nextafter(1e-3, 0.0)), 9999.999999999999, 1e4, -1e4,
        5e-324, sys.float_info.max, float("nan"), float("inf"), float("-inf"),
    ]
    numbers = floats + [np.float64(x) for x in floats] + [7, -3, np.int64(12), True, np.bool_(False)]
    expected = [format_number(cell) for cell in numbers] + ["", "text"]
    path = write_csv(tmp_path / "cells.csv", ["cell"], [[cell] for cell in numbers + [None, "text"]], {"k": 1})
    assert path.read_text().splitlines()[2:] == expected
    # a float and the numpy float of equal value write the same cell
    assert expected[: len(floats)] == expected[len(floats) : 2 * len(floats)]
    one_row = write_csv(tmp_path / "row.csv", ["cells"], [numbers + [None, "text"]], {})
    assert one_row.read_text().splitlines()[2] == ",".join(expected)


def test_reproduce_small_run(tmp_path):
    options = ReproduceOptions(trials=3, blocks=(4, 8), grid_points=21)
    paths = run_reproduce(1, tmp_path, options)
    names = sorted(p.name for p in paths)
    assert names == [
        "example1_gaussian.csv",
        "example1_gaussian.svg",
        "example1_subgaussian.csv",
        "example1_subgaussian.svg",
    ]
    lines = (tmp_path / "example1_gaussian.csv").read_text().splitlines()
    assert lines[1].startswith("blocks,num_samples,empirical_mean")
    assert len(lines) == 2 + 2
    svg = (tmp_path / "example1_gaussian.svg").read_text()
    assert svg.startswith("<svg") and "total certificate" in svg
    for line in lines[2:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[4] >= cells[3]  # certificate above the worst observed error


def test_reproduce_computes_the_exact_bias_once_per_block_count(tmp_path, monkeypatch):
    calls = []
    original = experiments.exact_bias_sup

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "exact_bias_sup", counted)
    options = ReproduceOptions(trials=2, grid_points=5)
    run_reproduce(1, tmp_path, options)
    assert len(options.blocks) == 5 and len(calls) == 5


def test_reproduce_cli_roundtrip(tmp_path):
    result = run_cli(
        "reproduce", "--example", "2", "--out", str(tmp_path), "--trials", "2", "--grid", "11",
    )
    assert result.returncode == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["example2.csv", "example2.svg"]


@pytest.mark.parametrize("delta", ["1.5", "1.0"])
def test_reproduce_rejects_a_failure_probability_of_one_or_more(tmp_path, capsys, delta):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--example", "1", "--delta", delta, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: failure probability must lie in (0, 1)\n"
    assert not out.exists()


def test_reproduce_example_1_rejects_rho_target(tmp_path, capsys):
    # example 1's model is scalar geometric; only example 2 reads the state-space rate
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--example", "1", "--rho-target", "0.7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: --rho-target applies to example 2 only: example 1 has no state-space model\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("noise, stem", [("gaussian", "example1_gaussian"), ("uniform", "example1_subgaussian")])
def test_reproduce_certificate_cells_are_certify_values(tmp_path, noise, stem):
    # example 1's first row is Welch 32/16 hann at N = 144 on the geometric model with rho 0.3
    out = tmp_path / "reproduce"
    assert cli.main(["reproduce", "--example", "1", "--trials", "2", "--grid", "9", "--out", str(out)]) == 0
    lines = (out / f"{stem}.csv").read_text().splitlines()
    columns = lines[1].split(",")
    row = dict(zip(columns, lines[2].split(",")))
    assert row["num_samples"] == "144"
    config = {
        "model": {"kind": "geometric", "rho": experiments.EXAMPLE1_RHO},
        "noise": noise,
        "estimator": {"kind": "welch", "segment_length": 32, "hop": 16, "taper": "hann"},
        "num_samples": 144,
        "delta": ReproduceOptions().delta,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "certify")]) == 0
    lines = (tmp_path / "certify" / "certificates.csv").read_text().splitlines()[2:]
    values = {cells[0]: cells[3] for cells in (line.split(",") for line in lines)}
    assert row["certificate"] == values["total_worst_bound"]
    assert row["concentration_bound"] == values["worst_case_bound"]
    assert row["bias_bound"] == values["bias_bound_geometric"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_finite_literals(tmp_path, capsys, literal):
    context = {"phi_inf": 2.0, "r1": 2.5, "channels": 1}
    config = {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16, "context": context}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config)[:-1] + f', "epsilon": {literal}}}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: non-finite literal {literal}; config numbers must be finite"
    # certify used to print every condition row as holding at epsilon=inf
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {err.value}\n"
    assert not out.exists()


def _required_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]


def test_families_keep_the_config_kinds_in_order():
    assert list(estimators.FAMILIES) == [
        "biased_periodogram", "unbiased_periodogram", "blackman_tukey", "bartlett", "welch",
    ]
    for kind, cls in estimators.FAMILIES.items():
        assert cls.kind == kind


@pytest.mark.parametrize("kind", list(estimators.FAMILIES))
def test_estimator_config_with_required_fields_only_uses_class_defaults(kind):
    cls = estimators.FAMILIES[kind]
    required = {name: 4 for name in _required_fields(cls)}
    config = parse_config({"estimator": {"kind": kind, **required}})
    assert config.estimator == cls(**required)


@pytest.mark.parametrize("kind", list(estimators.FAMILIES))
def test_estimator_config_missing_required_field_is_named(kind):
    cls = estimators.FAMILIES[kind]
    required = {name: 4 for name in _required_fields(cls)}
    for name in required:
        partial = {key: value for key, value in required.items() if key != name}
        with pytest.raises(ConfigError) as err:
            parse_config({"estimator": {"kind": kind, **partial}})
        assert str(err.value) == f"estimator: estimator.{name} is required"


@pytest.mark.parametrize("kind", list(estimators.FAMILIES))
def test_unknown_estimator_kind_lists_every_kind(kind):
    with pytest.raises(ConfigError) as err:
        parse_config({"estimator": {"kind": kind + "_x"}})
    assert str(err.value) == (
        f"estimator.kind {kind + '_x'!r} is not one of biased_periodogram, unbiased_periodogram, "
        "blackman_tukey, bartlett, welch"
    )


# a valid JSON value for each annotation a required model field carries
REQUIRED_VALUES = {"float": 0.5, "np.ndarray": [[0.5]]}


def _required_model_values(cls):
    return {f.name: REQUIRED_VALUES[f.type] for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}


def test_models_keep_the_config_kinds_in_order():
    assert list(signals.MODELS) == ["geometric", "white", "state_space", "ar1"]
    for kind, cls in signals.MODELS.items():
        assert cls.kind == kind or (kind, cls) == ("ar1", signals.GeometricScalar)


@pytest.mark.parametrize("kind", list(signals.MODELS))
def test_model_config_with_required_fields_only_uses_class_defaults(kind):
    cls = signals.MODELS[kind]
    required = _required_model_values(cls)
    model = parse_config({"model": {"kind": kind, **required}}).model
    expected = cls(**required)
    assert type(model) is cls
    for f in dataclasses.fields(cls):
        np.testing.assert_array_equal(getattr(model, f.name), getattr(expected, f.name))


@pytest.mark.parametrize("kind", list(signals.MODELS))
def test_model_config_missing_required_field_is_named(kind):
    required = _required_model_values(signals.MODELS[kind])
    for name in required:
        partial = {key: value for key, value in required.items() if key != name}
        with pytest.raises(ConfigError) as err:
            parse_config({"model": {"kind": kind, **partial}})
        assert str(err.value) == f"model: model.{name} is required"


@pytest.mark.parametrize("kind", list(signals.MODELS))
def test_unknown_model_kind_lists_every_kind_once(kind):
    with pytest.raises(ConfigError) as err:
        parse_config({"model": {"kind": kind + "_x"}})
    assert str(err.value) == f"model.kind {kind + '_x'!r} is not one of geometric, white, state_space"


@pytest.mark.parametrize("kind", list(signals.MODELS))
def test_context_without_overrides_is_the_model_context(kind):
    config = parse_config({"model": {"kind": kind, **_required_model_values(signals.MODELS[kind])}})
    assert make_context(config) == BoundContext.from_model(config.model, GAUSSIAN)


def test_zero_taper_is_a_config_error(tmp_path):
    # a length-two hann taper is identically zero
    config = {
        "estimator": {"kind": "welch", "segment_length": 2, "hop": 1, "taper": "hann"},
        "num_samples": 8,
        "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli("certify", "--config", str(path), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "taper must be finite and non-zero" in result.stderr
    assert not (tmp_path / "certificates.csv").exists()


def test_zero_lag_window_is_a_config_error(tmp_path, capsys):
    # every weight zero: rejected when the spec is built, before the norm
    # envelope (zero) or the truncation width (zero) is reached
    config = {
        "estimator": {"kind": "blackman_tukey", "half_width": 3, "window": [0, 0, 0, 0, 0]},
        "num_samples": 16,
        "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: estimator: lag window must have a nonzero weight\n"
    assert not out.exists()


def test_config_error_type_is_value_error():
    with pytest.raises(ConfigError):
        parse_config({"noise": "pink"})


# (model, noise): the three model families, one of them on both noises
ENGINE_MODELS = [
    (signals.GeometricScalar(0.3), "uniform"),
    (signals.WhiteNoise(2), "gaussian"),
    (example_state_space(0.5), "gaussian"),
]


@pytest.mark.parametrize("model, noise", ENGINE_MODELS, ids=["geometric", "white", "state_space"])
def test_trial_errors_rows_equal_one_trial_calls(model, noise):
    grid = experiments.frequency_grid(17)
    spec = estimators.Welch(16, 8, "hann")
    batch = experiments.trial_errors(model, noise, spec, 72, grid, 5, 2**32 + 5, 3)
    assert batch.shape == (5, 17)
    for t, row in enumerate(batch):
        assert row.tobytes() == experiments.trial_errors(model, noise, spec, 72, grid, 1, 2**32 + 5, 3 + t)[0].tobytes()


@pytest.mark.parametrize("example", [1, 2])
def test_sweep_cells_are_the_trial_error_reductions(example):
    options = ReproduceOptions(trials=3, seed=9, grid_points=9, blocks=(2, 5))
    make_model, stems, _, _ = experiments._STUDIES[example]
    model, noises = make_model(options), tuple(stems)
    rows = experiments._sweep_rows(model, noises, options)
    grid = experiments.frequency_grid(options.grid_points)
    spec = estimators.Welch(options.segment_length, options.hop, experiments.REPRODUCE_TAPER)
    for noise_index, noise in enumerate(noises):
        for sweep_index, (row, blocks) in enumerate(zip(rows[noise_index], options.blocks, strict=True)):
            first = (noise_index * len(options.blocks) + sweep_index) * options.trials
            errors = experiments.trial_errors(model, noise, spec, row[1], grid, options.trials, options.seed, first)
            worst = errors.max(axis=1)
            assert row[:2] == [blocks, (blocks - 1) * options.hop + options.segment_length]
            assert np.float64(row[2]).tobytes() == worst.mean().tobytes()
            assert np.float64(row[3]).tobytes() == worst.max().tobytes()


def test_an_unexpected_error_exits_one_with_its_traceback(tmp_path, capsys, monkeypatch, welch_config):
    def broken(*args, **kwargs):
        raise ValueError("a fault inside the estimator")

    monkeypatch.setattr(estimators, "evaluate_fast", broken)
    assert cli.main(["estimate", "--config", str(welch_config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("ValueError: a fault inside the estimator\n")
    assert "config error" not in err


SCALAR_STATE_SPACE = {"kind": "state_space", "a": [[0.5]], "b": [[1.0]], "c": [[1.0]], "d": [[0.0]]}

# case -> (command, config, message): rejected before any path is sampled
PRE_SAMPLING = {
    "blackman_tukey_too_wide": (
        "certify",
        {"model": {"kind": "white"}, "estimator": {"kind": "blackman_tukey", "half_width": 9}, "num_samples": 8},
        "lag cutoff cannot exceed the sample count",
    ),
    "bartlett_not_a_multiple": (
        "certify",
        {"model": {"kind": "white"}, "estimator": {"kind": "bartlett", "block_length": 3}, "num_samples": 10},
        "sample count must be a positive multiple of the block length",
    ),
    "welch_bad_size": (
        "estimate",
        {"model": {"kind": "white"}, "estimator": {"kind": "welch", "segment_length": 8, "hop": 4}, "num_samples": 13},
        "sample count must equal (segments - 1) * hop + segment_length",
    ),
    "state_space_uniform_simulate": (
        "simulate",
        {"model": SCALAR_STATE_SPACE, "noise": "uniform", "num_samples": 8},
        "state-space sampling supports gaussian noise only",
    ),
    "state_space_uniform_estimate": (
        "estimate",
        {"model": SCALAR_STATE_SPACE, "noise": "uniform", "estimator": {"kind": "biased_periodogram"}, "num_samples": 8},
        "state-space sampling supports gaussian noise only",
    ),
    "state_space_uniform_certify": (
        "certify",
        {"model": SCALAR_STATE_SPACE, "noise": "uniform", "estimator": {"kind": "biased_periodogram"}, "num_samples": 8},
        "state-space sampling supports gaussian noise only",
    ),
    # the budget takes the channel count as a float
    "context_channels_past_the_largest_double": (
        "certify",
        {
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 10 ** 400},
        },
        "context: channel count passes the largest double",
    ),
    "accuracy_target_without_a_tail": (
        "certify",
        {
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "epsilon": 0.5,
            "context": {"phi_inf": 2, "r1": 2.5, "channels": 1},
        },
        "context carries neither a model tail nor a decay envelope",
    ),
    "accuracy_target_past_the_lag_budget": (
        "certify",
        {
            "model": dict(SCALAR_STATE_SPACE, a=[[0.999999]], d=[[1.0]], rho_target=0.9999999),
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "epsilon": 1e-3,
        },
        "covariance tail does not reach eps / 2 within the lag budget",
    ),
}


def _no_sampling(monkeypatch):
    """Make every model's sampler fail the test when it is called."""

    def sampled(*args, **kwargs):
        raise AssertionError("a path was sampled")

    for cls in (signals.GeometricScalar, signals.WhiteNoise, signals.StateSpace):
        monkeypatch.setattr(cls, "sample_paths", sampled)


@pytest.mark.parametrize("case", list(PRE_SAMPLING))
def test_configs_the_library_rejects_are_config_errors_before_sampling(tmp_path, capsys, monkeypatch, case):
    command, config, message = PRE_SAMPLING[case]
    _no_sampling(monkeypatch)
    runner = {"certify": run_certify, "estimate": run_estimate, "simulate": run_simulate}[command]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        runner(parse_config(config), tmp_path / "direct")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def _certificate_values(path):
    """The value cell of each available bound row of a certificates.csv, by statement."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return {cells[0]: float(cells[3]) for cells in rows if cells[1] == "true" and cells[3]}


# the budget's channel cover is a log, so no channel count a float holds overflows it
@pytest.mark.parametrize("channels", [154, 100000])
def test_context_only_certify_is_finite_at_many_channels(tmp_path, channels):
    context = {"phi_inf": 2.0, "r1": 2.5, "channels": channels, "gamma": 1.2, "rho": 0.4}
    config = {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16, "epsilon": 0.5, "context": context}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    values = _certificate_values(tmp_path / "out" / "certificates.csv")
    assert {"pointwise_bound", "worst_case_bound", "total_worst_bound"} <= set(values)
    assert all(np.isfinite(list(values.values())))


# nothing squares the accuracy target, so a tiny one certifies, and no condition holds
def test_a_tiny_accuracy_target_certifies_and_no_condition_holds(tmp_path):
    config = {
        "model": {"kind": "geometric", "rho": 0.3},
        "estimator": {"kind": "bartlett", "block_length": 4},
        "num_samples": 16,
        "epsilon": 1e-300,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "certificates.csv").read_text().splitlines()[2:]]
    conditions = {cells[0]: cells[1:3] for cells in rows if cells[0].endswith("_condition")}
    assert sorted(conditions) == sorted(f"bartlett.{part}_condition" for part in CONDITION_PARTS)
    assert all(cells == ["true", "false"] for cells in conditions.values())


# a channel cover past the largest double certifies nothing, so --require-feasible exits 3
def test_a_budget_past_the_largest_double_is_infeasible(tmp_path, capsys):
    context = {"phi_inf": 2.0, "r1": 2.5, "channels": 10 ** 307, "gamma": 1.2, "rho": 0.4}
    config = {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16, "epsilon": 0.5, "context": context}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(path), "--out", str(out), "--require-feasible"]) == 3
    assert capsys.readouterr().err == "infeasible certificate in the requested table\n"
    rows = {line.split(",")[0]: line.split(",") for line in (out / "certificates.csv").read_text().splitlines()[2:]}
    unavailable = {name for name, cells in rows.items() if cells[1] == "false"}
    assert {"pointwise_bound", "worst_case_bound", "total_worst_bound"} <= unavailable
    assert {"bartlett.pointwise_condition", "bartlett.worst_case_condition"} <= unavailable
    assert all(rows[name][-1] == "log budget passes the largest double" for name in unavailable)
    assert rows["bias_bound_geometric"][1] == "true"


# the uniform budget halves delta as a log: half the smallest subnormal rounds to zero
def test_the_smallest_subnormal_delta_certifies(tmp_path, welch_config):
    config = dict(json.loads(welch_config.read_text()), epsilon=0.5, delta=5e-324)
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(config))
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "certify")]) == 0
    values = _certificate_values(tmp_path / "certify" / "certificates.csv")
    assert {"pointwise_bound", "worst_case_bound", "total_worst_bound"} <= set(values)
    assert all(np.isfinite(list(values.values())))
    out = tmp_path / "reproduce"
    argv = ["reproduce", "--example", "1", "--trials", "2", "--grid", "9", "--delta", "5e-324", "--out", str(out)]
    assert cli.main(argv) == 0
    for stem in ("example1_gaussian", "example1_subgaussian"):
        lines = (out / f"{stem}.csv").read_text().splitlines()
        certificates = [float(dict(zip(lines[1].split(","), line.split(",")))["certificate"]) for line in lines[2:]]
        assert len(certificates) == 5 and all(np.isfinite(certificates))


# gains whose products overflow: the state-space paths, or the oracle's coefficient matrix, are not finite
OVERFLOWING_MODEL = {"model": dict(SCALAR_STATE_SPACE, d=[[1e308]]), "num_samples": 16}
OVERFLOWING_TAPER = {"kind": "welch", "segment_length": 4, "hop": 2, "taper": [1e300] * 4}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate"], OVERFLOWING_MODEL, "data contains non-finite entries"),
        (["estimate"], dict(OVERFLOWING_MODEL, estimator={"kind": "biased_periodogram"}), "data contains non-finite entries"),
        (["certify"], dict(OVERFLOWING_MODEL, estimator={"kind": "biased_periodogram"}), None),
        (
            ["estimate", "--oracle"],
            {"model": {"kind": "white"}, "estimator": OVERFLOWING_TAPER, "num_samples": 16},
            "coefficient matrix contains non-finite entries",
        ),
    ],
    ids=["simulate", "estimate", "certify", "oracle"],
)
def test_values_that_overflow_are_config_errors(tmp_path, capsys, argv, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message is None or err == f"config error: {message}\n"
    assert not out.exists()


BAD_RHO_TARGET = "rho_target must lie strictly between the spectral radius and one"


# the messages the parent printed; with two bad options, the one the sweep met first
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--example", "1", "--trials", "0"], "num_samples and trials must be positive"),
        (["--example", "2", "--seed", "-1"], "expected non-negative integer"),
        (["--example", "1", "--grid", "0"], "frequency grid needs at least one point"),
        (["--example", "2", "--delta", "0"], "failure probability must lie in (0, 1)"),
        (["--example", "2", "--rho-target", "0.2"], BAD_RHO_TARGET),
        (["--example", "2", "--rho-target", "0.2", "--trials", "0"], BAD_RHO_TARGET),
        (["--example", "1", "--delta", "1.5", "--trials", "0"], "failure probability must lie in (0, 1)"),
    ],
)
def test_bad_reproduce_options_are_config_errors_before_sampling(tmp_path, capsys, monkeypatch, argv, message):
    _no_sampling(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["reproduce", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_verify_concentration_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify-concentration", "--trials", "10000", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed must be a nonnegative integer\n"
    assert not out.exists()
