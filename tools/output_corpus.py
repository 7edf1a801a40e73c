"""Write a corpus of specbound command-line outputs into a directory.

Usage: python tools/output_corpus.py OUT [THREADS]

Runs ``specbound.cli.main`` from the ``src`` tree next to this script over a
fixed set of commands: ``estimate`` (fast and ``--oracle``), ``certify
--estimate`` with ``epsilon``, and ``simulate`` for every model and estimator
family at N = 528 and N = 2064, Welch with a positive and with a signed
custom taper among them; an ``--oracle`` estimate of the three-channel
state-space model at N = 528 on a 1025-point full-range grid, which spans
several frequency slabs; an ``estimate`` and a ``certify --estimate`` of
one config, both with ``--grid 17 --full-range``; ``simulate`` and
``estimate`` at N = 2064 for a state-space model with one output and five
noise inputs;
``simulate`` at N = 65536 for the three-channel chain model and for a
lightly damped resonant model, whose paths cross the chunk boundaries of
all three levels of the sampler's scan (1599 chunks of 41 samples, their
starts in 39 chunks, and those in one); ``simulate`` and a Welch ``estimate`` at
N = 65536 for the chain model at a high gain (d = 1e5 I), whose cells
straddle 1e4 or are scientific, and at a low gain (c and d scaled by 1e-3),
whose cells straddle 1e-3 or are scientific;
biased-periodogram, Bartlett (block length 32768) and Welch (segment length
16384, hop 8192) ``estimate`` runs at N = 65536 for a one-channel and a
three-channel model, each with the default grid, 17 and 257 points and the
full range; an unbiased-periodogram ``estimate`` at N = 16384; a
three-channel Blackman-Tukey (hann, half width 300) ``estimate`` at
N = 2064, whose lag window reaches past 256 lags; a three-channel Welch
(segment length 32, hop 16) ``estimate`` at N = 65536; one-channel
Blackman-Tukey (hann, half widths 32 and 300) ``estimate`` runs at
N = 16384, whose lag products take several FFT blocks, and a three-channel
Blackman-Tukey (hann, half width 300) ``estimate`` at N = 65536, over many
blocks; Blackman-Tukey (hann, half width 32) ``estimate`` runs on one and
three channels at N = 2017 and 2018, the last record that fits one lag
product block and the first that takes two;
a biased-periodogram ``certify`` at N = 16384 on a slowly decaying model; a
context-only ``certify`` per family; ``certify`` with ``context`` values
overriding a model's; a ``certify`` of a lightly damped resonant model;
context-only ``certify`` runs at 154 and 100000 channels, where the cover
size 10^(2 channels), or that size times the tail multiplier over ``delta``,
passes the largest double, though the log-space budget does not, and at
10^307 channels, where the budget does too and the concentration rows read
unavailable; a ``certify`` at the smallest subnormal ``delta``, whose half
rounds to zero; a ``certify`` at an ``epsilon`` of 1e-300, whose condition
rows read false; a set of rejected configs, among them two ``certify``
configs: a context with 10^400 channels, a count past the largest double,
and a state-space model with uniform noise; ``certify --estimate`` of malformed estimate files,
made from a good one; configs that only strict parsing rejects; a
periodogram ``certify --require-feasible``; ``reproduce --example 1`` and
``--example 2`` with their defaults and with every option set,
``--example 1`` at the smallest subnormal failure probability, and
``--example 1`` at a failure probability above one and with
``--rho-target``, which it never reads, both rejected; a config whose
``epsilon`` is JSON's ``Infinity`` literal, also rejected; and
``verify-concentration`` at its smallest trial count and with a config that
sets only the seed; ``certify`` of a state-space model with no forcing,
rejected; and ``simulate`` of every model and small ``reproduce --example 1``
and ``--example 2`` runs at the seeds 2^32 + 5 and 2^64 + 5, which take two
and three uint32 words.  Each command gets a directory holding the
files it wrote and a ``console.txt`` with its exit code (or the uncaught
exception), stdout and stderr (the OUT prefix replaced by ``OUT``).  An
option that the parser does not know exits with argparse's code 2, which
is recorded like any other, so the script runs on a checkout whose
command line lacks an option it uses.

A refactor that promises unchanged outputs runs this script against the
parent checkout's ``src`` and against the change's (a copy of the script
placed in the parent's ``tools`` directory reads the parent's ``src``) and
compares the two directories with ``diff -r``.  The ``--oracle`` dense
product and the two-stage segment transforms change their last bits with
the BLAS thread count, so the script pins OpenBLAS, OpenMP and MKL to
THREADS threads (default 1) before numpy is imported, whatever the
environment says; both runs of a comparison therefore use the same count.
A corpus built at two threads differs from the one-thread corpus only in
the files that ``tools/thread_dependent_outputs.txt`` lists.  Needs only
the standard library and numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

# the BLAS thread count, set before numpy is imported
_THREADS = sys.argv[2] if len(sys.argv) > 2 else "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specbound import cli  # noqa: E402

STATE_SPACE = {
    "kind": "state_space",
    "a": [[0.3, 0.0], [1.0, 0.3]],
    "b": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "c": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "d": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "rho_target": 0.5,
}

# dense b, c and d, one output channel and five noise inputs: each output
# sample is a dot product whose summation order depends on operand strides
DENSE_STATE_SPACE = {
    "kind": "state_space",
    "a": [[0.5, 0.2, -0.1], [-0.3, 0.4, 0.25], [0.1, -0.2, 0.6]],
    "b": [[0.7, -1.1, 0.3, 0.9, -0.4], [1.3, 0.2, -0.8, 0.5, 0.6], [-0.6, 0.9, 1.2, -0.3, 0.8]],
    "c": [[0.9, -1.4, 0.7]],
    "d": [[0.3, -0.7, 1.1, 0.4, -0.2]],
}

# name -> (model, noise)
MODELS = {
    "geometric_gaussian": ({"kind": "geometric", "rho": 0.3}, "gaussian"),
    "geometric_uniform": ({"kind": "ar1", "rho": 0.7}, "uniform"),
    "white": ({"kind": "white", "channels": 2}, "gaussian"),
    "state_space": (STATE_SPACE, "gaussian"),
}

# every family, the named windows, one positive custom taper and one signed
# custom taper on overlapping segments; each divides both sizes
ESTIMATORS = {
    "biased_periodogram": {"kind": "biased_periodogram"},
    "unbiased_periodogram": {"kind": "unbiased_periodogram"},
    "blackman_tukey_rectangular": {"kind": "blackman_tukey", "half_width": 24},
    "blackman_tukey_hann": {"kind": "blackman_tukey", "half_width": 32, "window": "hann"},
    "bartlett": {"kind": "bartlett", "block_length": 48},
    "welch_hann": {"kind": "welch", "segment_length": 32, "hop": 16},
    "welch_custom": {"kind": "welch", "segment_length": 48, "hop": 24, "taper": [1.0 + (k % 5) for k in range(48)]},
    "welch_signed": {"kind": "welch", "segment_length": 48, "hop": 16, "taper": [(k % 7) - 3.0 for k in range(48)]},
}

SIZES = (528, 2064)

# estimators of the N = 65536 estimates, whose segments are transformed in two stages
LONG_ESTIMATORS = {
    "biased_periodogram": ESTIMATORS["biased_periodogram"],
    "bartlett_32768": {"kind": "bartlett", "block_length": 32768},
    "welch_16384": {"kind": "welch", "segment_length": 16384, "hop": 8192},
}

# directory suffix -> grid options of the long estimates
LONG_GRIDS = {"": [], "_grid17": ["--grid", "17"], "_grid257": ["--grid", "257"], "_full_range": ["--full-range"]}

# a lightly damped resonance: its spectral peak of 40000 at s = 1/4 falls
# between the points of the phi_inf grid
RESONANT = {"kind": "state_space", "a": [[0.0, -0.995], [1.0, 0.0]], "b": [[1.0], [0.0]], "c": [[1.0, 0.0]], "d": [[0.0]]}

CONTEXT = {"phi_inf": 2.0, "r1": 2.5, "channels": 2, "gamma": 1.2, "rho": 0.4}

# gains far from one: the high one's cells straddle 1e4 in ``simulate`` and
# are nearly all scientific in ``estimate``, the low one's straddle 1e-3 and
# are all scientific
GAINS = {
    "high_gain": dict(STATE_SPACE, d=[[1e5, 0.0, 0.0], [0.0, 1e5, 0.0], [0.0, 0.0, 1e5]]),
    "low_gain": dict(STATE_SPACE, c=[[0.0, 0.0], [1e-3, 0.0], [0.0, 1e-3]], d=[[1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3]]),
}

# name -> (model, context): ``context`` values that override the model's own
OVERRIDES = {
    "geometric_gamma": ({"kind": "geometric", "rho": 0.3}, {"gamma": 1.5}),
    "state_space_all": (STATE_SPACE, {"phi_inf": 12.0, "r1": 15.0, "gamma": 25.0, "rho": 0.55}),
}

# name -> context-only certify config at a channel count whose cover size
# 10^(2 channels), or that size times the tail multiplier over delta, passes
# the largest double; at 10^307 channels the log budget passes it too
MANY_CHANNELS = {
    "channels_100000": {
        "estimator": {"kind": "bartlett", "block_length": 4},
        "num_samples": 16,
        "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 100000},
    },
    "channels_154": {
        "estimator": {"kind": "bartlett", "block_length": 4},
        "num_samples": 16,
        "epsilon": 0.5,
        "delta": 0.05,
        "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 154, "gamma": 1.2, "rho": 0.4},
    },
    "channels_1e307": {
        "estimator": {"kind": "bartlett", "block_length": 4},
        "num_samples": 16,
        "epsilon": 0.5,
        "delta": 0.05,
        "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 10**307, "gamma": 1.2, "rho": 0.4},
    },
}

# name -> (command, config): every one of these is rejected with exit code 2.
# Window and taper errors, the all-zero length-two hann taper and the
# all-zero lag window included, are caught when the spec is constructed,
# before the missing context is noticed.
REJECTED = {
    "unknown_key": ("estimate", {"bogus": 1}),
    "unknown_noise": ("simulate", {"model": {"kind": "white"}, "noise": "pink", "num_samples": 8}),
    "unknown_model": ("simulate", {"model": {"kind": "arma"}, "num_samples": 8}),
    "model_missing_rho": ("simulate", {"model": {"kind": "geometric"}, "num_samples": 8}),
    "model_bad_rho": ("simulate", {"model": {"kind": "geometric", "rho": 1.5}, "num_samples": 8}),
    "state_space_uniform": ("simulate", {"model": STATE_SPACE, "noise": "uniform", "num_samples": 8}),
    "state_space_bad_target": ("simulate", {"model": dict(STATE_SPACE, rho_target=0.1), "num_samples": 8}),
    "estimator_missing_kind": ("certify", {"estimator": {"half_width": 3}, "num_samples": 8}),
    "estimator_unknown_kind": ("certify", {"estimator": {"kind": "multitaper"}, "num_samples": 8}),
    "blackman_tukey_missing_half_width": ("certify", {"estimator": {"kind": "blackman_tukey"}, "num_samples": 8}),
    "blackman_tukey_string_half_width": (
        "certify", {"estimator": {"kind": "blackman_tukey", "half_width": "3"}, "num_samples": 8}
    ),
    "blackman_tukey_zero_half_width": (
        "certify", {"estimator": {"kind": "blackman_tukey", "half_width": 0}, "num_samples": 8}
    ),
    "blackman_tukey_unknown_window": (
        "certify", {"estimator": {"kind": "blackman_tukey", "half_width": 3, "window": "kaiser"}, "num_samples": 8}
    ),
    "blackman_tukey_too_wide": (
        "certify", {"model": {"kind": "white"}, "estimator": {"kind": "blackman_tukey", "half_width": 9}, "num_samples": 8}
    ),
    "bartlett_missing_block_length": ("certify", {"estimator": {"kind": "bartlett"}, "num_samples": 8}),
    "bartlett_zero_block_length": ("certify", {"estimator": {"kind": "bartlett", "block_length": 0}, "num_samples": 8}),
    "bartlett_not_a_multiple": (
        "certify", {"model": {"kind": "white"}, "estimator": {"kind": "bartlett", "block_length": 3}, "num_samples": 10}
    ),
    "welch_missing_segment_length": ("certify", {"estimator": {"kind": "welch", "hop": 2}, "num_samples": 8}),
    "welch_missing_hop": ("certify", {"estimator": {"kind": "welch", "segment_length": 4}, "num_samples": 8}),
    "welch_zero_hop": ("certify", {"estimator": {"kind": "welch", "segment_length": 4, "hop": 0}, "num_samples": 8}),
    "welch_unknown_taper": (
        "certify", {"estimator": {"kind": "welch", "segment_length": 4, "hop": 2, "taper": "kaiser"}, "num_samples": 8}
    ),
    "welch_taper_wrong_length": (
        "certify", {"estimator": {"kind": "welch", "segment_length": 4, "hop": 2, "taper": [1.0, 1.0]}, "num_samples": 8}
    ),
    "welch_zero_taper": (
        "certify",
        {
            "estimator": {"kind": "welch", "segment_length": 2, "hop": 1},
            "num_samples": 8,
            "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 2},
        },
    ),
    "blackman_tukey_zero_window": (
        "certify",
        {"estimator": {"kind": "blackman_tukey", "half_width": 3, "window": [0, 0, 0, 0, 0]}, "num_samples": 16, "context": CONTEXT},
    ),
    "blackman_tukey_asymmetric_window": (
        "certify",
        {"estimator": {"kind": "blackman_tukey", "half_width": 2, "window": [0.1, 1.0, 0.2]}, "num_samples": 8},
    ),
    "welch_bad_size": (
        "estimate", {"model": {"kind": "white"}, "estimator": {"kind": "welch", "segment_length": 8, "hop": 4}, "num_samples": 13}
    ),
    "estimate_without_estimator": ("estimate", {"model": {"kind": "white"}, "num_samples": 8}),
    "simulate_without_samples": ("simulate", {"model": {"kind": "white"}}),
    "context_missing_fields": ("certify", {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16}),
    "context_bad_phi_inf": (
        "certify",
        {"estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16, "context": dict(CONTEXT, phi_inf=-1.0)},
    ),
    # decay overrides below the model's covariance norms, first at lag 1 and at lag 4
    "context_decay_below_geometric": (
        "certify",
        {
            "model": {"kind": "geometric", "rho": 0.5},
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "context": {"gamma": 1.0, "rho": 0.2},
        },
    ),
    "context_decay_below_state_space": (
        "certify",
        {
            "model": STATE_SPACE,
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "context": {"gamma": 30.0, "rho": 0.3},
        },
    ),
    "certify_channels_past_the_largest_double": (
        "certify",
        {
            "estimator": {"kind": "bartlett", "block_length": 4},
            "num_samples": 16,
            "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 10**400},
        },
    ),
    "certify_state_space_uniform": (
        "certify",
        {"model": STATE_SPACE, "noise": "uniform", "estimator": {"kind": "bartlett", "block_length": 4}, "num_samples": 16},
    ),
}


def _with_cell(lines: list[str], number: int, cell: str) -> list[str]:
    """The lines with the second cell of line ``number`` (counted from one) replaced by ``cell``."""
    cells = lines[number - 1].split(",")
    cells[1] = cell
    return lines[: number - 1] + [",".join(cells)] + lines[number:]


# name -> the lines of a malformed estimate file, made from those of a good
# one-channel estimate, or None for a file that does not exist; ``certify``
# rejects each with exit code 2
MALFORMED_ESTIMATES = {
    "unreadable": None,
    "no_header": lambda lines: lines[:1],
    "no_rows": lambda lines: lines[:2],
    "not_an_estimate_header": lambda lines: [lines[0], "frequency,re_1_1"] + lines[2:],
    "ragged_row": lambda lines: lines[:2] + [lines[2].rpartition(",")[0]] + lines[3:],
    "non_numeric_cell": lambda lines: _with_cell(lines, 4, "abc"),
    "non_finite_cell": lambda lines: _with_cell(lines, 4, "nan"),
}

# name -> (command, config): accepted by a parser that ignores unknown keys
# inside ``model``, ``estimator`` and ``context``, reads JSON booleans as
# numbers and coerces ``context`` values, and rejected with exit code 2 by a
# strict one.
BARTLETT = {"kind": "bartlett", "block_length": 4}
STRICT = {
    "estimator_unknown_key": (
        "certify",
        {
            "estimator": {"kind": "welch", "segment_length": 4, "hop": 2, "tapr": "rectangular"},
            "num_samples": 8,
            "context": CONTEXT,
        },
    ),
    "model_unknown_key": ("simulate", {"model": {"kind": "white", "channel": 3}, "num_samples": 8}),
    "geometric_unknown_key": ("simulate", {"model": {"kind": "geometric", "rho": 0.3, "channels": 2}, "num_samples": 8}),
    "state_space_unknown_key": ("simulate", {"model": dict(STATE_SPACE, rho=0.5), "num_samples": 8}),
    "bool_num_samples": ("simulate", {"model": {"kind": "white"}, "num_samples": True}),
    "bool_grid_points": (
        "estimate", {"model": {"kind": "white"}, "estimator": {"kind": "biased_periodogram"}, "num_samples": 8, "grid_points": True}
    ),
    "bool_trials": ("simulate", {"model": {"kind": "white"}, "num_samples": 8, "trials": True}),
    "bool_seed": ("simulate", {"model": {"kind": "white"}, "num_samples": 8, "seed": True}),
    "bool_channels": ("simulate", {"model": {"kind": "white", "channels": True}, "num_samples": 8}),
    "bool_block_length": (
        "certify", {"estimator": {"kind": "bartlett", "block_length": True}, "num_samples": 8, "context": CONTEXT}
    ),
    "bool_half_width": (
        "certify", {"estimator": {"kind": "blackman_tukey", "half_width": True}, "num_samples": 8, "context": CONTEXT}
    ),
    "bool_hop": (
        "certify", {"estimator": {"kind": "welch", "segment_length": 2, "hop": True, "taper": "rectangular"}, "num_samples": 8, "context": CONTEXT}
    ),
    "context_unknown_key": (
        "certify", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"phi_ifn": 9.0}}
    ),
    "context_bool_phi_inf": ("certify", {"estimator": BARTLETT, "num_samples": 16, "context": dict(CONTEXT, phi_inf=True)}),
    "context_string_phi_inf": (
        "certify", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"phi_inf": "3"}}
    ),
    "context_float_channels": (
        "certify", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"channels": 2.7}}
    ),
    "context_bool_channels": ("certify", {"estimator": BARTLETT, "num_samples": 16, "context": dict(CONTEXT, channels=True)}),
    "context_lone_gamma": (
        "certify", {"estimator": BARTLETT, "num_samples": 16, "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 1, "gamma": 1.2}}
    ),
    "context_lone_rho": (
        "certify", {"estimator": BARTLETT, "num_samples": 16, "context": {"phi_inf": 2.0, "r1": 2.5, "channels": 1, "rho": 0.4}}
    ),
    "bool_epsilon": ("certify", {"estimator": BARTLETT, "num_samples": 16, "epsilon": True, "context": CONTEXT}),
    "estimate_context_unknown_key": (
        "estimate", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"phi_ifn": 9.0}}
    ),
    "estimate_context_string_phi_inf": (
        "estimate", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"phi_inf": "3"}}
    ),
    "simulate_context_unknown_key": (
        "simulate", {"model": {"kind": "white"}, "estimator": BARTLETT, "num_samples": 16, "context": {"phi_ifn": 9.0}}
    ),
    "simulate_context_bool_channels": ("simulate", {"model": {"kind": "white"}, "num_samples": 16, "context": {"channels": True}}),
}

# seeds of two and three uint32 words, through the one-trial streams of
# ``simulate`` and the batch key pass of ``reproduce``, which hashes every seed word
WIDE_SEEDS = {"seed_2p32_5": 2**32 + 5, "seed_2p64_5": 2**64 + 5}

# every option of ``reproduce`` set once, next to the defaults
REPRODUCE = {
    "1": ["--example", "1"],
    "2": ["--example", "2"],
    "1_options": ["--example", "1", "--trials", "3", "--seed", "5", "--delta", "0.2", "--grid", "11"],
    "2_options": ["--example", "2", "--trials", "2", "--rho-target", "0.6"],
    "1_delta_1.5": ["--example", "1", "--delta", "1.5"],
    "1_rho_target": ["--example", "1", "--rho-target", "0.7"],
    # the smallest subnormal failure probability, whose half rounds to zero
    "1_delta_5e-324": ["--example", "1", "--trials", "3", "--grid", "9", "--delta", "5e-324"],
}


def run(out: Path, name: str, argv: list[str]) -> None:
    """Run one command into OUT/name and record its console output there."""
    case = out / name
    case.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--out", str(case)])
        except SystemExit as stop:  # argparse rejected the command line
            code = stop.code
        except Exception as err:  # an uncaught error is an outcome to compare too
            code = f"{type(err).__name__}: {err}"
    text = f"exit={code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    (case / "console.txt").write_text(text.replace(str(out), "OUT"), encoding="utf-8")


def write_config(out: Path, name: str, config: dict) -> str:
    path = out / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return str(path)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2) or not _THREADS.isdigit() or int(_THREADS) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    for model_name, (model, noise) in MODELS.items():
        for n in SIZES:
            base = {"model": model, "noise": noise, "num_samples": n, "seed": 11, "delta": 0.1}
            config = write_config(out, f"{model_name}_{n}", base)
            run(out, f"simulate/{model_name}_{n}", ["simulate", "--config", config])
            for est_name, estimator in ESTIMATORS.items():
                name = f"{model_name}_{est_name}_{n}"
                config = write_config(out, name, dict(base, estimator=estimator, epsilon=0.5))
                run(out, f"estimate/{name}", ["estimate", "--config", config])
                run(out, f"oracle/{name}", ["estimate", "--config", config, "--oracle"])
                estimate = str(out / "estimate" / name / "estimate.csv")
                run(out, f"certify/{name}", ["certify", "--config", config, "--estimate", estimate])
    # the dense oracle over several frequency slabs
    config = str(out / "configs" / "state_space_welch_hann_528.json")
    argv = ["estimate", "--config", config, "--oracle", "--grid", "1025", "--full-range"]
    run(out, "oracle/state_space_welch_hann_528_grid1025_full_range", argv)
    # certify takes the grid overrides that changed its estimate's config hash
    name = "geometric_gaussian_welch_hann_528_grid17_full_range"
    config = str(out / "configs" / "geometric_gaussian_welch_hann_528.json")
    overrides = ["--grid", "17", "--full-range"]
    run(out, f"estimate/{name}", ["estimate", "--config", config] + overrides)
    estimate = str(out / "estimate" / name / "estimate.csv")
    run(out, f"certify/{name}", ["certify", "--config", config, "--estimate", estimate] + overrides)
    base = {"model": DENSE_STATE_SPACE, "num_samples": 2064, "seed": 11}
    run(out, "simulate/dense_state_space_2064", ["simulate", "--config", write_config(out, "dense_state_space_2064", base)])
    for est_name, estimator in ESTIMATORS.items():
        name = f"dense_state_space_{est_name}_2064"
        run(out, f"estimate/{name}", ["estimate", "--config", write_config(out, name, dict(base, estimator=estimator))])
    # long paths through the sampler's chunked scan, one of them lightly damped
    for model_name, model in (("state_space", STATE_SPACE), ("resonant", RESONANT)):
        name = f"{model_name}_65536"
        body = {"model": model, "num_samples": 65536, "seed": 11}
        run(out, f"simulate/{name}", ["simulate", "--config", write_config(out, name, body)])
    # tables of mostly scientific cells and of cells next to the ends of the plain range
    for model_name, model in GAINS.items():
        name = f"{model_name}_65536"
        body = {"model": model, "estimator": ESTIMATORS["welch_hann"], "num_samples": 65536, "seed": 11}
        config = write_config(out, name, body)
        run(out, f"simulate/{name}", ["simulate", "--config", config])
        run(out, f"estimate/{name}", ["estimate", "--config", config])
    # segments of 16384 to 65536 samples, transformed in two stages
    for model_name in ("geometric_gaussian", "state_space"):
        model, noise = MODELS[model_name]
        for est_name, estimator in LONG_ESTIMATORS.items():
            name = f"{model_name}_{est_name}_65536"
            body = {"model": model, "noise": noise, "estimator": estimator, "num_samples": 65536, "seed": 11}
            config = write_config(out, name, body)
            for suffix, options in LONG_GRIDS.items():
                run(out, f"estimate/{name}{suffix}", ["estimate", "--config", config] + options)
    # the two-stage lag sums of the unbiased periodogram and of a lag window
    # over 256 lags, a many-segment Welch transform that spans several slabs,
    # lag products of long records in FFT blocks, short and long windows,
    # and a short window on both sides of the one-block edge (2017 samples
    # and 31 lags fill one block of 2048 points, 2018 take two)
    hann_300 = {"kind": "blackman_tukey", "half_width": 300, "window": "hann"}
    hann_32 = ESTIMATORS["blackman_tukey_hann"]
    for model_name, est_name, estimator, n in (
        ("geometric_gaussian", "unbiased_periodogram", ESTIMATORS["unbiased_periodogram"], 16384),
        ("state_space", "blackman_tukey_hann_300", hann_300, 2064),
        ("state_space", "welch_hann", ESTIMATORS["welch_hann"], 65536),
        ("geometric_gaussian", "blackman_tukey_hann", hann_32, 16384),
        ("geometric_gaussian", "blackman_tukey_hann_300", hann_300, 16384),
        ("state_space", "blackman_tukey_hann_300", hann_300, 65536),
        ("geometric_gaussian", "blackman_tukey_hann", hann_32, 2017),
        ("geometric_gaussian", "blackman_tukey_hann", hann_32, 2018),
        ("state_space", "blackman_tukey_hann", hann_32, 2017),
        ("state_space", "blackman_tukey_hann", hann_32, 2018),
    ):
        model, noise = MODELS[model_name]
        name = f"{model_name}_{est_name}_{n}"
        body = {"model": model, "noise": noise, "estimator": estimator, "num_samples": n, "seed": 11}
        run(out, f"estimate/{name}", ["estimate", "--config", write_config(out, name, body)])
    # a long, slowly decaying bias sum
    body = {"model": {"kind": "geometric", "rho": 0.95}, "estimator": ESTIMATORS["biased_periodogram"], "num_samples": 16384, "epsilon": 0.5}
    run(out, "certify/long_periodogram_16384", ["certify", "--config", write_config(out, "long_periodogram_16384", body)])
    for est_name, estimator in ESTIMATORS.items():
        name = f"context_{est_name}"
        config = write_config(
            out, name, {"estimator": estimator, "num_samples": 2064, "epsilon": 5.0, "context": CONTEXT}
        )
        run(out, f"certify/{name}", ["certify", "--config", config])
    for name, (model, context) in OVERRIDES.items():
        body = {"model": model, "estimator": ESTIMATORS["welch_hann"], "num_samples": 2064, "epsilon": 0.5, "context": context}
        run(out, f"certify/override_{name}", ["certify", "--config", write_config(out, f"override_{name}", body)])
    body = {"model": RESONANT, "estimator": ESTIMATORS["welch_hann"], "num_samples": 2064, "epsilon": 0.5}
    run(out, "certify/resonant_welch_hann_2064", ["certify", "--config", write_config(out, "resonant_welch_hann_2064", body)])
    for name, body in MANY_CHANNELS.items():
        run(out, f"certify/{name}", ["certify", "--config", write_config(out, name, body)])
    # the smallest subnormal failure probability, whose half rounds to zero
    body = {"model": {"kind": "geometric", "rho": 0.3}, "estimator": ESTIMATORS["welch_hann"], "num_samples": 528}
    body.update(epsilon=0.5, delta=5e-324)
    run(out, "certify/delta_5e-324", ["certify", "--config", write_config(out, "delta_5e-324", body)])
    # an accuracy target far below every bound, which no condition meets
    body = {"model": {"kind": "geometric", "rho": 0.3}, "estimator": BARTLETT, "num_samples": 16, "epsilon": 1e-300}
    run(out, "certify/tiny_epsilon", ["certify", "--config", write_config(out, "tiny_epsilon", body)])
    for name, (command, body) in REJECTED.items():
        run(out, f"rejected/{name}", [command, "--config", write_config(out, f"rejected_{name}", body)])
    config = str(out / "configs" / "geometric_gaussian_welch_hann_528.json")
    good = (out / "estimate" / "geometric_gaussian_welch_hann_528" / "estimate.csv").read_text().splitlines()
    for name, edit in MALFORMED_ESTIMATES.items():
        path = out / "malformed_estimates" / f"{name}.csv"
        if edit is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(edit(good)) + "\n", encoding="utf-8")
        run(out, f"rejected/estimate_{name}", ["certify", "--config", config, "--estimate", str(path)])
    for name, (command, body) in STRICT.items():
        run(out, f"strict/{name}", [command, "--config", write_config(out, f"strict_{name}", body)])
    # JSON's non-finite literals, which ``json.dumps`` writes for an infinite float
    body = {"estimator": BARTLETT, "num_samples": 16, "epsilon": float("inf"), "context": CONTEXT}
    run(out, "strict/epsilon_infinity", ["certify", "--config", write_config(out, "strict_epsilon_infinity", body)])
    # no forcing: the spectrum is zero, so no positive phi_inf exists
    unforced = {"kind": "state_space", "a": [[0.5]], "b": [[0.0]], "c": [[1.0]], "d": [[0.0]]}
    body = {"model": unforced, "estimator": BARTLETT, "num_samples": 16}
    run(out, "strict/state_space_zero_forcing", ["certify", "--config", write_config(out, "strict_state_space_zero_forcing", body)])
    # a periodogram has no concentration certificate, so this exits with 3
    config = write_config(out, "feasible_periodogram", {"estimator": ESTIMATORS["biased_periodogram"], "num_samples": 2064, "context": CONTEXT})
    run(out, "certify/require_feasible_periodogram", ["certify", "--config", config, "--require-feasible"])
    for name, argv in REPRODUCE.items():
        run(out, f"reproduce/{name}", ["reproduce"] + argv)
    for seed_name, seed in WIDE_SEEDS.items():
        for model_name in MODELS:
            config = str(out / "configs" / f"{model_name}_528.json")
            run(out, f"simulate/{model_name}_528_{seed_name}", ["simulate", "--config", config, "--seed", str(seed)])
        for example in ("1", "2"):
            argv = ["reproduce", "--example", example, "--trials", "3", "--grid", "9", "--seed", str(seed)]
            run(out, f"reproduce/{example}_{seed_name}", argv)
    run(out, "verify_concentration", ["verify-concentration", "--trials", "10000", "--seed", "5"])
    # the trial count comes from the command's own default
    config = write_config(out, "verify_seed_only", {"seed": 5})
    run(out, "verify_concentration_seed_only", ["verify-concentration", "--config", config])
    return 0


if __name__ == "__main__":
    sys.exit(main())
