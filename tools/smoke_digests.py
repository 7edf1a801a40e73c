"""Print the perfbench ``--smoke`` output digest of every workload BENCHMARK.json declares.

Usage: python tools/smoke_digests.py [ROOT]

Runs ``perfbench/run.py --workload W --seed 911 --seconds 1 --trace 0
--smoke`` in ROOT (default: the checkout holding this script), so ROOT's
``perfbench`` and ``src`` run, for each workload that this checkout's
``BENCHMARK.json`` declares.  The digest hashes what every op of the smoke
cycle returned, so a change that keeps every output byte keeps every
digest.  Prints one line per workload, its name and digest, or ``failed``
and the exit status; exits 1 when any run failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 911


def smoke_digest(root: Path, workload: str) -> str:
    """The ``output_digest`` of one smoke run, or ``failed (exit N)``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", "1", "--trace", "0", "--smoke"]
    result = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if result.returncode == 0:
        for line in result.stdout.splitlines():
            if line.startswith("{") and '"output_digest"' in line:
                return json.loads(line)["output_digest"]
    return f"failed (exit {result.returncode})"


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else HERE
    workloads = [entry["name"] for entry in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    failed = False
    for workload in workloads:
        digest = smoke_digest(root, workload)
        failed |= digest.startswith("failed")
        print(workload, digest, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
