"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fit-walk-100k --seed 1 --seconds 10 --trace 0

Steps, each in a fresh interpreter with the BLAS pools capped at the
number of usable cores:

1. generate the workload's inputs from the seed and write them through
   ``edrep.io`` (never timed);
2. with ``--trace 0``, time the set-up three times in fresh processes
   (import, load, build and validate the operator) and keep the median;
3. run the workload: a closed loop of operations for ``--seconds``
   seconds, at least one full cycle over its instances, each output
   checked; with ``--trace 1`` one untraced and one traced cycle, plus a
   traced cycle with BLAS capped at one thread (``st1.`` metrics).

The last line of standard output is the result object; the full record
(environment, per-operation times, quality details, failures) goes to
``.perfbench_out/`` in the checkout.  Exits non-zero, without a result,
when the library sources are missing or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# Library layers whose single-thread self time is reported as st1.<layer>.s.
ST1_LAYERS = (
    "matstore.apply",
    "matstore.apply_transpose",
    "mixture.kmeans_label",
    "mixture.class_moments",
    "znorm.zeta_matrix",
    "optimizer.fit",
    "optimizer.sphere_step",
)
# Quality numbers of single layers, reported with the per-layer metrics.
QUALITY_LAYERS = {
    "fit_loss": "optimizer.fit.final_loss",
    "nmi_mean": "evaluate.nmi.mean",
    "performer_rel_err_p50": "znorm.kernel_z.performer.rel_err_p50",
    "rfa_rel_err_p50": "znorm.kernel_z.rfa.rel_err_p50",
}


class BenchError(Exception):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def worker(args: list[str], threads: int, deadline: float) -> dict:
    """Run ``worker.py`` to completion and parse its last output line."""
    started = time.monotonic()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(threads),
            stdout=subprocess.PIPE,
            text=True,
            timeout=min(remaining, CHILD_TIMEOUT_S),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args[:2])} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["process_s"] = time.monotonic() - started
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(spec, setup_times, run) -> dict:
    quality = run.get("quality", {})
    values = {"setup_s": statistics.median(setup_times), "wall_s": run["wall_s"], "peak_rss_mb": run["peak_rss_mb"]}
    values.update({k: v for k, v in quality.items() if isinstance(v, (int, float))})
    metrics = {}
    for m in spec["end_to_end"]:
        if m["name"] not in values:
            raise BenchError(f"the run did not produce end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def per_layer(spec, gen, run, st1) -> tuple[dict, list]:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    values = dict(gen.get("layers", {}))
    for key, value in run["layers"].items():
        values[key] = values.get(key, 0) + value
    quality = run.get("quality", {})
    for key, layer_metric in QUALITY_LAYERS.items():
        if key in quality:
            values[layer_metric] = quality[key]
    for layer in ST1_LAYERS:
        if f"{layer}.s" in st1["layers"]:
            values[f"st1.{layer}.s"] = st1["layers"][f"{layer}.s"]
    values["st1.wall_s"] = st1["layers"]["trace.wall_s"]
    metrics, absent = {}, []
    for m in spec["per_layer"]:
        if m["name"] not in values:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return metrics, absent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    p.add_argument("--corrupt", action="store_true", help="self-test: damage every output before its check")
    args = p.parse_args(argv)

    if not (SRC / "edrep" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 175
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = [args.workload, "--scale", args.scale, "--dir", str(work)]
    try:
        spec = load_spec()
        work.mkdir(parents=True, exist_ok=True)
        gen = worker(["gen", *common, "--seed", str(args.seed)] + (["--trace"] if args.trace else []), threads, deadline)
        run_args = ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        run_args += ["--corrupt"] if args.corrupt else []
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "scale": args.scale}
        if args.trace:
            run = worker(run_args + ["--trace"], threads, deadline)
            st1 = worker(run_args + ["--trace", "--skip-plain"], 1, deadline)
            metrics, absent = per_layer(spec, gen, run, st1)
            record.update(run=run, single_thread=st1, not_exercised=absent)
        else:
            setup_times = [worker(["setup", *common], threads, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
            run = worker(run_args, threads, deadline)
            metrics = end_to_end(spec, setup_times, run)
            record.update(setup_times_s=setup_times, run=run)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=float) + "\n")
    for failure in run["failures"]:
        print(f"perfbench: failed check: {failure}", file=sys.stderr)
    print(f"env: {json.dumps(run['env'])}")
    if args.trace:
        layers = run["layers"]
        print(
            f"trace: traced op {layers['trace.wall_s']:.3f} s, untraced {run['wall_s']:.3f} s, "
            f"overhead {layers['trace.overhead_s']:+.3f} s; library layers hold "
            f"{100 * layers['trace.layer_share']:.2f}% of the traced op time"
        )
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
