"""Fast self-check of the benchmark: every workload at a reduced size, untraced and traced.

    python3 perfbench/selfcheck.py

Each run must end with a JSON line that is correct, has no failed
operation, and names every metric of BENCHMARK.json with its unit and a
finite value. Nothing here looks at how long anything took. Exits 1 if
any run falls short.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def problems(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fails = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
        found.append(f"correct={result['correct']} failed={result['failed']} {fails}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        found.append(f"metrics missing {sorted(set(wanted) - set(metrics))}, "
                     f"unexpected {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            found.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            found.append(f"{name}: value {m.get('value')!r}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    for workload in names:
        for trace in (0, 1):
            found = problems(spec, workload, trace)
            print(f"{'ok  ' if not found else 'FAIL'} {workload} trace={trace}")
            for line in found:
                print(f"     {line}")
            bad += bool(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
