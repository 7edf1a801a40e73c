"""Run-time tracer for specbound's public functions, installed from outside the library.

Every target function is replaced at each module attribute that binds it
(``from ... import`` sites included) and, for methods, on its class.  Each
call records a span (group, name, start, end, parent) in memory; the summary
turns spans into per-group self time, outermost-call counts and work counts.
Nothing under ``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size(result) -> int:
    """Element count of a returned sample block (ndarray or DataMatrix)."""
    values = getattr(result, "values", result)
    return int(values.size)


def _grid_points(result) -> int:
    return int(result.shape[0]) if getattr(result, "ndim", 0) == 3 else 1


def _file_bytes(result) -> int:
    return int(Path(result).stat().st_size)


# group -> [(owner, attribute, work extractor or None)].  The owner is a module
# path or "module:Class".  Work is counted once per outermost span that has an
# extractor, so nested calls inside the same group are not counted twice.
LAYERS = {
    "cli.self": [("specbound.cli", "main", None)],
    "experiments.parse": [
        ("specbound.experiments", name, None)
        for name in ("load_config", "parse_config", "apply_overrides", "make_context")
    ],
    "experiments.io": [
        ("specbound.experiments", "write_csv", _file_bytes),
        ("specbound.experiments", "read_estimate_csv", None),
        ("specbound.svgplot", "line_plot", _file_bytes),
    ],
    "experiments.self": [
        ("specbound.experiments", name, None)
        for name in (
            "run_estimate", "run_certify", "run_simulate", "run_reproduce",
            "run_verify_concentration", "sample_model", "_sweep_rows", "_sweep_report",
        )
    ],
    "signals.sample": [
        ("specbound.signals", name, _size)
        for name in (
            "sample_geometric", "sample_geometric_paths", "sample_white",
            "sample_white_paths", "sample_state_space", "sample_state_space_paths",
        )
    ],
    "signals.psd": [
        ("specbound.signals", "psd", None),
        ("specbound.signals", "grid_phi_inf", None),
    ]
    + [
        (f"specbound.signals:{cls}", name, _grid_points)
        for cls in ("GeometricScalar", "WhiteNoise", "StateSpace")
        for name in ("psd", "psd_grid")
    ],
    "signals.decay": [
        ("specbound.signals", name, None)
        for name in ("certify_decay", "solve_discrete_lyapunov", "r1_norm_bound")
    ],
    "streams.rng": [("specbound.streams", "rng_stream", None)],
    "estimators.evaluate_fast": [
        ("specbound.estimators", "evaluate_fast", lambda result: int(result.matrices.size)),
    ],
    "estimators.closed_form": [
        ("specbound.estimators", name, None)
        for name in ("closed_form_bias", "certificate_params", "taper_window", "lag_window")
    ],
    "estimators.build_matrix": [("specbound.estimators", "build_matrix", None)],
    "quadform.spectral_norms": [("specbound.quadform", "hermitian_spectral_norms", None)],
    "quadform.exact_bias_sup": [("specbound.quadform", "exact_bias_sup", None)],
    "quadform.evaluate_generic": [
        ("specbound.quadform", "evaluate_generic", None),
        ("specbound.quadform", "evaluate_generic_grid", None),
    ],
    "quadform.dense_norms": [
        ("specbound.quadform:QuadraticForm", name, None)
        for name in ("spectral_norm", "frobenius_norm", "truncation_width")
    ]
    + [
        ("specbound.quadform", "diagonal_profile", None),
        ("specbound.quadform", "bias_coefficients", None),
    ],
    "bounds.context": [
        ("specbound.bounds:BoundContext", "__post_init__", None),
        ("specbound.bounds:BoundContext", "from_model", None),
    ],
    "bounds.certificate": [
        ("specbound.bounds", name, None)
        for name in (
            "pointwise_error_bound", "worst_case_error_bound", "geometric_bias_bound",
            "data_driven_factor", "data_driven_error_bound",
        )
    ],
    "bounds.conditions": [
        ("specbound.bounds", name, None)
        for name in ("check_conditions", "check_estimator_conditions", "tail_cutoff_lag")
    ],
    "bounds.dense_envelope": [("specbound.bounds", "envelope_from_form", None)],
    "bounds.optimize": [("specbound.bounds", "optimize_bartlett_m", None)],
    "concentration.tail_check": [
        ("specbound.concentration", "monte_carlo_tail_check", lambda report: int(report.trials)),
    ],
}

class Tracer:
    """In-memory span recorder; one instance per traced pass set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counting: dict[str, int] = defaultdict(int)
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []

    def wrap(self, group: str, name: str, func, work=None):
        stack, counting = self._stack, self._counting
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            counted = work is not None and counting[group] == 0
            # [group, name, start, end, parent, work, outermost-counting span]
            span = [group, name, 0.0, 0.0, stack[-1] if stack else -1, 0, counted]
            spans.append(span)
            stack.append(index)
            if counted:
                counting[group] += 1
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if counted:
                    counting[group] -= 1
            if counted:
                span[5] = work(result)
            return result

        return traced

    def span(self, group: str, name: str, func):
        """Call ``func()`` inside a root span of its own."""
        return self.wrap(group, name, func)()

    def install(self) -> None:
        """Replace every target at each module attribute and class slot that binds it."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "specbound" or key.startswith("specbound."))
        ]
        for group, targets in LAYERS.items():
            for owner, attr, work in targets:
                module_name, _, cls_name = owner.partition(":")
                module = sys.modules[module_name]
                if cls_name:
                    self._install_method(getattr(module, cls_name), attr, group, work)
                    continue
                original = getattr(module, attr)
                traced = self.wrap(group, attr, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, original))

    def _install_method(self, cls, attr: str, group: str, work) -> None:
        slot = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(slot, classmethod):
            setattr(cls, attr, classmethod(self.wrap(group, name, slot.__func__, work)))
            self._restore.append((cls, attr, slot))
        elif isinstance(slot, functools.cached_property):
            original = slot.func
            slot.func = self.wrap(group, name, original, work)
            self._restore.append((slot, "func", original))
        else:
            setattr(cls, attr, self.wrap(group, name, slot, work))
            self._restore.append((cls, attr, slot))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)

    def dump(self, path: Path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (group, name, start, end, parent, work, _) in enumerate(self.spans):
                handle.write(json.dumps([index, group, name, start, end, parent, work]) + "\n")


class TraceSummary:
    """Self time, outermost-call counts and work counts per group and per function."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for group, name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_s: dict[str, float] = defaultdict(float)
        self.function_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.function_calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        for index, (group, name, start, end, parent, work, counted) in enumerate(spans):
            own = end - start - child_time[index]
            self.self_s[group] += own
            self.function_self_s[f"{group}:{name}"] += own
            self.function_calls[f"{group}:{name}"] += 1
            if parent < 0 or spans[parent][0] != group:
                self.calls[group] += 1
            if counted:
                self.work[group] += work
            if parent < 0:
                self.wall_s += end - start

    def counts(self) -> dict:
        """Every count that must repeat exactly between passes over the same ops."""
        out = {f"calls:{key}": value for key, value in self.function_calls.items()}
        out.update({f"work:{key}": value for key, value in self.work.items()})
        return out
