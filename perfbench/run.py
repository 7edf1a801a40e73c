"""specbound benchmark: entry point and measurement loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the traced
passes that give the per-layer metrics.  ``--workload all`` runs every
workload in its own process and prints one table.  The last line of standard
output is always a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: a single-client closed loop on a small shared
# machine, and one thread makes dense eigensolves far steadier.  Set before
# numpy is imported, here and in every child process through the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # scratch work directories and span dumps
PROCESSES = 3  # measuring processes per --trace 0 run
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_ref": "1/ref",
    "paths_per_ref": "1/ref",
    "op_ref.p50": "ref",
    "op_ref.p90": "ref",
}
# the same quantities in wall-clock seconds, printed and recorded beside them
WALL_CLOCK = {"ops_per_s": "1/s", "paths_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s", "ref_s": "s"}
REFERENCE_EVERY_S = 0.25


# --------------------------------------------------------------------------- environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _caches() -> dict:
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return caches


def environment() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": _caches(),
    }


# --------------------------------------------------------------------------- ops


class Reference:
    """Fixed reference work, timed between ops for about 6% of the measured time.

    An interpreter loop, small dense LAPACK calls and a streaming numpy pass:
    the kinds of work the workloads mix.  On a shared host the machine's speed
    drifts by 10-30% between runs; dividing op times by the mean reference
    time of the same process cancels most of that drift.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((48, 48))
        self.stream = rng.standard_normal(100_000)
        self.times: list[float] = []
        self.due = time.perf_counter()

    def run_once(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(50_000):
            total += i * 0.5
        for _ in range(20):
            np.linalg.eigvalsh(self.matrix @ self.matrix.T)
        np.exp(1j * self.stream).sum()
        return time.perf_counter() - start

    def catch_up(self) -> None:
        """One run per REFERENCE_EVERY_S of time since the last call, so samples track run time."""
        while time.perf_counter() >= self.due:
            self.times.append(self.run_once())
            self.due += REFERENCE_EVERY_S


class Runner:
    """Executes ops, times ``run`` only, checks outputs and the repeat digests."""

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.times: list[float] = []
        self.paths = 0
        self.attempted = 0
        self.failed = 0

    def run_op(self, op) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = op.run()
            else:
                result = self.tracer.span("bench", op.key, op.run)
            elapsed = time.perf_counter() - start
            blob = op.check(result)
        except Exception as err:  # a failing op is counted and reported, never fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"FAILED {op.key}: {type(err).__name__}: {err}", file=sys.stderr)
        else:
            digest = sha256(blob).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                self.failed += 1
                print(f"FAILED {op.key}: repeated op wrote different bytes", file=sys.stderr)
        self.times.append(elapsed)
        self.paths += op.paths
        if self.reference is not None:
            self.reference.catch_up()
        return elapsed

    def cycle(self) -> float:
        return sum(self.run_op(op) for op in self.workload.ops)


def workload_digest(digests: dict) -> str:
    """One digest over every op's output digest."""
    lines = "".join(f"{key} {value}\n" for key, value in sorted(digests.items()))
    return sha256(lines.encode()).hexdigest()


def _warm_up(name: str, seed: int, work: Path, runner: Runner) -> None:
    """One untimed cycle at smoke size: first calls, lazy state and BLAS start-up."""
    from perfbench import workloads

    warm = workloads.build(name, seed, work / "warm", smoke=True)
    warm_runner = Runner(warm)
    warm_runner.cycle()
    runner.attempted += warm_runner.attempted
    runner.failed += warm_runner.failed


def _import_tree(stderr: str) -> list[tuple[str, int, str | None]]:
    """(name, cumulative us, parent name) for every ``-X importtime`` entry."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        entries.append((name_field.strip(), int(cumulative), depth))
    out, ancestors = [], {}
    for name, cumulative, depth in reversed(entries):  # post-order reversed: parents first
        out.append((name, cumulative, ancestors.get(depth - 1) if depth else None))
        ancestors[depth] = name
    return out


def _subtree_s(tree, package: str) -> float:
    """Cumulative import time of the outermost imports of ``package`` and its submodules."""
    def inside(name):
        return name is not None and (name == package or name.startswith(package + "."))

    return sum(cumulative for name, cumulative, parent in tree if inside(name) and not inside(parent)) / 1e6


def import_times(repeats: int) -> dict:
    samples = {"setup.import_s": [], "setup.import_scipy_s": [], "setup.import_numpy_s": []}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import specbound.cli"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
        )
        tree = _import_tree(proc.stderr)
        top = sum(cumulative for name, cumulative, parent in tree if parent is None and name.startswith("specbound"))
        samples["setup.import_s"].append(top / 1e6)
        samples["setup.import_scipy_s"].append(_subtree_s(tree, "scipy"))
        samples["setup.import_numpy_s"].append(_subtree_s(tree, "numpy"))
    return {key: statistics.median(values) for key, values in samples.items()}


# --------------------------------------------------------------------------- modes


@dataclass
class Outcome:
    """What one benchmark run measured, in either mode."""

    metrics: dict
    units: dict
    attempted: int
    failed: int
    digests: dict
    largest_array: list
    report: dict


def measure_process(name: str, seed: int, seconds: float, work: Path, smoke: bool, launch: float) -> dict:
    """One measuring process: set-up timed from its launch, warm-up, then whole cycles for ``seconds``."""
    from perfbench import workloads  # imports specbound and specbound.cli

    workload = workloads.build(name, seed, work / "run", smoke)
    setup_s = time.time() - launch
    reference = Reference()
    runner = Runner(workload, reference=reference)
    _warm_up(name, seed, work, runner)
    reference.run_once()  # first calls
    reference.due = time.perf_counter()
    # whole cycles, stopping at the cycle boundary nearest to ``seconds``
    start = time.perf_counter()
    cycles, last = 0, 0.0
    while cycles == 0 or time.perf_counter() - start + last / 2.0 < seconds:
        cycle_start = time.perf_counter()
        runner.cycle()
        last = time.perf_counter() - cycle_start
        cycles += 1
    return {
        "setup_s": setup_s,
        "times": runner.times,
        "paths": runner.paths,
        "ref_s": statistics.mean(reference.times),
        "refs": len(reference.times),
        "cycles": cycles,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "digests": runner.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "largest_array": workload.largest_array,
    }


def process_main() -> None:
    """Entry point of a measuring process; prints its measurements as one JSON line."""
    name, seed, seconds, work, smoke, launch = sys.argv[1:]
    print(json.dumps(measure_process(name, int(seed), float(seconds), Path(work), smoke == "1", float(launch))))


def measure(name: str, seed: int, seconds: float, work: Path, smoke: bool) -> Outcome:
    """End-to-end metrics with tracing off.

    The run is split over PROCESSES fresh processes run one after another,
    each measuring an equal share of ``seconds``: a process's set-up is the
    set-up sample, and splitting averages out per-process effects such as
    memory layout, which the reference cannot cancel.
    """
    count = 1 if smoke else PROCESSES
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; from perfbench import run; run.process_main()"
    parts = []
    for index in range(count):
        argv = [sys.executable, "-c", code, name, str(seed), str(seconds / count), str(work / f"process{index}"), str(int(smoke))]
        proc = subprocess.run(argv + [repr(time.time())], capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process {index} exited with status {proc.returncode}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    digests: dict[str, str] = {}
    for part in parts:
        for key, digest in part["digests"].items():
            if digests.setdefault(key, digest) != digest:
                failed += 1
                print(f"FAILED {key}: another process wrote different bytes", file=sys.stderr)
    times = [t for part in parts for t in part["times"]]
    scaled = [t / part["ref_s"] for part in parts for t in part["times"]]
    paths = sum(part["paths"] for part in parts)
    wall = {
        "ops_per_s": len(times) / sum(times),
        "paths_per_s": paths / sum(times),
        "op_s.p50": float(np.percentile(times, 50)),
        "op_s.p90": float(np.percentile(times, 90)),
        "ref_s": statistics.mean(part["ref_s"] for part in parts),
    }
    metrics = {
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "ops_per_ref": len(scaled) / sum(scaled),
        "paths_per_ref": paths / sum(scaled),
        "op_ref.p50": float(np.percentile(scaled, 50)),
        "op_ref.p90": float(np.percentile(scaled, 90)),
    }
    ops = len(times)
    samples = {
        "setup_s": count,
        "ops_per_ref": ops, "paths_per_ref": paths, "op_ref.p50": ops, "op_ref.p90": ops,
        "ops_per_s": ops, "paths_per_s": paths, "op_s.p50": ops, "op_s.p90": ops,
        "ref_s": sum(part["refs"] for part in parts),
    }
    report = {
        "processes": count,
        "cycles": [part["cycles"] for part in parts],
        "samples": samples,
        "wall_clock": {key: {"value": value, "unit": WALL_CLOCK[key]} for key, value in wall.items()},
    }
    return Outcome(metrics, dict(END_TO_END), attempted, failed, digests, parts[0]["largest_array"], report)


def traced(name: str, seed: int, work: Path, smoke: bool):
    """Per-layer metrics: one untraced cycle, then two traced cycles of the same ops."""
    from perfbench import workloads
    from perfbench.tracer import LAYERS, Tracer

    workload = workloads.build(name, seed, work / "run", smoke)
    runner = Runner(workload)
    _warm_up(name, seed, work, runner)
    untraced_s = runner.cycle()
    tracer = Tracer()
    runner.tracer = tracer
    summaries = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            runner.cycle()
            summaries.append(tracer.summary())
    finally:
        tracer.uninstall()
    tracer.dump(STATE / "spans" / f"{name}-seed{seed}.jsonl")
    first, second = summaries
    counts, recounts = first.counts(), second.counts()
    problems = [f"{key} is {counts.get(key)} then {recounts.get(key)}" for key in sorted(set(counts) | set(recounts)) if counts.get(key) != recounts.get(key)]
    for check in workload.trace_checks:
        problems += check(counts)
    for problem in problems:
        print(f"FAILED tracer self-check: {problem}", file=sys.stderr)
    # the self-check counts as one more op, so a failed check makes the run incorrect
    runner.attempted += 1
    runner.failed += 1 if problems else 0

    def mean(attr, group):
        return (getattr(first, attr).get(group, 0.0) + getattr(second, attr).get(group, 0.0)) / 2.0

    def rate(work_group, time_group):
        busy = mean("self_s", time_group)
        return first.work.get(work_group, 0) / busy if busy > 0.0 else 0.0

    metrics, units = {}, {}
    for key, value in import_times(1 if smoke else IMPORTTIME_REPEATS).items():
        metrics[key], units[key] = value, "s"
    for group in LAYERS:
        metrics[f"{group}_s"], units[f"{group}_s"] = mean("self_s", group), "s"
    counts = {
        "experiments.bytes_written": ("B", first.work.get("experiments.io", 0)),
        "signals.sample_calls": ("count", first.calls.get("signals.sample", 0)),
        "signals.samples_per_s": ("1/s", rate("signals.sample", "signals.sample")),
        "signals.psd_points": ("count", first.work.get("signals.psd", 0)),
        "streams.rng_calls": ("count", first.calls.get("streams.rng", 0)),
        "estimators.evaluate_fast_calls": ("count", first.calls.get("estimators.evaluate_fast", 0)),
        "estimators.points_per_s": ("1/s", rate("estimators.evaluate_fast", "estimators.evaluate_fast")),
        "bounds.cert_over_emp.min": ("ratio", min(workload.sweep_ratios, default=0.0)),
        "concentration.draws_per_s": ("1/s", rate("concentration.tail_check", "concentration.tail_check")),
        "trace.overhead": ("ratio", (first.wall_s + second.wall_s) / 2.0 / untraced_s),
    }
    for key, (unit, value) in counts.items():
        metrics[key], units[key] = value, unit
    shares = {group: mean("self_s", group) / untraced_s for group in sorted(first.self_s)}
    functions = sorted(first.function_self_s.items(), key=lambda item: -item[1])[:15]
    report = {
        "untraced_cycle_s": untraced_s,
        "traced_cycle_s": [first.wall_s, second.wall_s],
        "spans": len(tracer.spans),
        "self_share_of_untraced_cycle": shares,
        "top_functions_self_s": dict(functions),
    }
    return Outcome(metrics, units, runner.attempted, runner.failed, runner.digests, list(workload.largest_array), report)


def run_one(args) -> int:
    work = STATE / f"work-{os.getpid()}"
    try:
        if args.trace:
            outcome = traced(args.workload, args.seed, work, args.smoke)
        else:
            outcome = measure(args.workload, args.seed, args.seconds, work, args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    record = {
        "workload": args.workload,
        "why": next((w["why"] for w in declared if w["name"] == args.workload), "not a declared workload"),
        "seed": args.seed,
        "smoke": args.smoke,
        "closed_loop_clients": 1,
        "environment": environment(),
        "largest_array_computed": {"what": outcome.largest_array[0], "bytes": outcome.largest_array[1]},
        "output_digest": workload_digest(outcome.digests),
        "fail_ratio": outcome.failed / outcome.attempted,
        **outcome.report,
    }
    print(json.dumps(record, sort_keys=True))
    samples = outcome.report.get("samples", {})
    table = [(key, value, outcome.units[key]) for key, value in outcome.metrics.items()]
    table += [(key, item["value"], item["unit"]) for key, item in outcome.report.get("wall_clock", {}).items()]
    for key, value, unit in table:
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"{args.workload:18s} {key:32s} {value:14.6g} {unit}{count}")
    print(f"{args.workload:18s} {'fail_ratio':32s} {record['fail_ratio']:14.6g} (failed {outcome.failed} of {outcome.attempted})")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": outcome.units[key]} for key, value in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one table, one JSON line."""
    from perfbench import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[1:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "specbound" / "__init__.py").is_file():
        print(f"specbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
