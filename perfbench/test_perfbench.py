"""Smoke tests of the benchmark: every workload at tiny sizes, traced and untraced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_cycle_passes_its_checks_and_repeats_bytes(tmp_path, name):
    workload = workloads.build(name, 5, tmp_path, smoke=True)
    runner = run.Runner(workload)
    runner.cycle()
    first = dict(runner.digests)
    runner.cycle()
    assert runner.failed == 0
    assert runner.attempted == 2 * len(workload.ops)
    assert runner.digests == first


def test_inputs_follow_the_seed(tmp_path):
    def digest(seed, where):
        runner = run.Runner(workloads.build("validation", seed, tmp_path / where, smoke=True))
        runner.cycle()
        return run.workload_digest(runner.digests)

    assert digest(3, "a") == digest(3, "b")
    assert digest(3, "a") != digest(4, "c")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracer_counts_repeat_and_cover_every_import_site(tmp_path, name):
    workload = workloads.build(name, 5, tmp_path, smoke=True)
    tracer = Tracer()
    runner = run.Runner(workload, tracer)
    counts = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            runner.cycle()
            counts.append(tracer.summary().counts())
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["calls:cli.self:main"] >= 1
    for check in workload.trace_checks:
        assert check(counts[0]) == []


def test_uninstall_restores_every_binding():
    from specbound import experiments, quadform, signals

    before = (experiments.hermitian_spectral_norms, signals.StateSpace.psd, quadform.QuadraticForm.spectral_norm.func)
    tracer = Tracer()
    tracer.install()
    assert experiments.hermitian_spectral_norms is not before[0]
    assert experiments.hermitian_spectral_norms is quadform.hermitian_spectral_norms
    tracer.uninstall()
    after = (experiments.hermitian_spectral_norms, signals.StateSpace.psd, quadform.QuadraticForm.spectral_norm.func)
    assert after == before


def test_import_tree_attributes_nested_imports():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     numpy.core",
            "import time:        20 |         30 |   numpy",
            "import time:         5 |          5 |     scipy._lib",
            "import time:        40 |         45 |   scipy",
            "import time:         7 |          7 |   json",
            "import time:        50 |        132 | specbound",
        ]
    )
    tree = run._import_tree(stderr)
    assert run._subtree_s(tree, "numpy") == pytest.approx(30e-6)
    assert run._subtree_s(tree, "scipy") == pytest.approx(45e-6)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validation", "--seed", "2",
         "--seconds", "0", "--trace", trace, "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
