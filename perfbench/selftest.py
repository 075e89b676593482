"""Self-test of the benchmark, at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
- an untraced run prints exactly the end-to-end metrics, each nonzero;
- a traced run prints exactly the per-layer metrics, and the layers the
  workload is built to exercise have nonzero call counts;
- a run whose outputs are damaged before their checks (a row pushed off
  the unit sphere, a negative Z, an NMI above 1) reports every operation
  as failed and ``correct`` as false.
It also checks that a directory holding only BENCHMARK.json and the
benchmark's own files makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer call counts that must be positive on each workload.
EXERCISED = {
    "fit-walk-100k": ["matstore.apply.calls", "optimizer.fit.calls", "mixture.kmeans_label.calls", "znorm.zeta_matrix.calls"],
    "estimate-z-20k": ["mixture.kmeans_label.calls", "mixture.class_moments.calls", "znorm.zeta_matrix.calls"],
    "dcsbm-grid-5k": ["graphs.dcsbm_sample.calls", "matstore.apply.calls", "optimizer.sphere_step.calls"],
    "temporal-supra": ["matstore.apply.calls", "optimizer.fit.calls", "optimizer.sphere_step.calls"],
}
# Layers a workload is built to bypass.
BYPASSED = {"estimate-z-20k": ["matstore.apply.calls", "optimizer.fit.calls"]}


def run(workload, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.5", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def check_result(errors, where, code, result, names, stderr):
    if code != 0 or result is None:
        errors.append(f"{where}: exit {code}, no result\n{stderr[-1500:]}")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(names):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(result['metrics']))}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted = {result['attempted']!r}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)) or not metric.get("unit"):
            errors.append(f"{where}: metric {name} is malformed: {metric}")
    return True


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    errors = []
    for w in (wl["name"] for wl in spec["workloads"]):
        code, result, err = run(w, "--trace", "0", "--scale", "tiny")
        if check_result(errors, f"{w} untraced", code, result, e2e, err):
            if not result["correct"] or result["failed"]:
                errors.append(f"{w} untraced: {result['failed']} failed operations\n{err[-1500:]}")
            zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
            if zero:
                errors.append(f"{w} untraced: end-to-end metrics read 0: {zero}")

        code, result, err = run(w, "--trace", "1", "--scale", "tiny")
        if check_result(errors, f"{w} traced", code, result, layers, err):
            m = result["metrics"]
            for name in EXERCISED.get(w, []):
                if not m[name]["value"] > 0:
                    errors.append(f"{w} traced: {name} is {m[name]['value']}")
            for name in BYPASSED.get(w, []):
                if m[name]["value"] != 0:
                    errors.append(f"{w} traced: {name} should be 0, is {m[name]['value']}")

        code, result, err = run(w, "--trace", "0", "--scale", "tiny", "--corrupt")
        if check_result(errors, f"{w} corrupted", code, result, e2e, err):
            if result["correct"] or result["failed"] != result["attempted"]:
                errors.append(
                    f"{w} corrupted: correct={result['correct']}, failed {result['failed']} of {result['attempted']}"
                )

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    w = spec["workloads"][0]["name"]
    code, result, _ = run(w, "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        errors.append(f"bare directory: exit {code}, result {result}")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
