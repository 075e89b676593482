"""One benchmark process: input generation, one set-up, or the workload run.

    python3 perfbench/worker.py gen   WORKLOAD --seed N --scale S --dir D [--trace]
    python3 perfbench/worker.py setup WORKLOAD --scale S --dir D
    python3 perfbench/worker.py run   WORKLOAD --seed N --scale S --dir D --seconds T [--trace] [--corrupt]

``run.py`` starts these in fresh interpreters with the BLAS thread caps
already in the environment, and reads the JSON object each prints as its
last line.  ``src`` and this directory must be on ``PYTHONPATH``.
"""

import time

# Set-up time counts from here: importing the library is part of it.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(workload, state):
    """Machine, library and thread-cap record stored with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = {"size": _read(f"{base}/size"), "shared_cpu_list": _read(f"{base}/shared_cpu_list")}
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: os.environ.get(var) for var in _THREAD_VARS},
        "caches": caches,
        "working_set": workload.working_set(state),
    }


def _print(obj):
    print(json.dumps(obj, default=float), flush=True)


def cmd_gen(workload, args):
    tracer = Tracer()
    with tracer.installed() if args.trace else nullcontext():
        workload.generate(args.seed, Path(args.dir))
    _print({"layers": tracer.summary()})


def cmd_setup(workload, args):
    workload.setup(Path(args.dir))
    _print({"setup_s": time.perf_counter() - T0})


class Loop:
    """Closed loop: one caller runs one operation at a time; each output is
    checked outside the timed region, and a raise or a failed check counts
    as a failed operation."""

    def __init__(self, workload, state, corrupt):
        self.workload, self.state, self.corrupt = workload, state, corrupt
        self.attempted = self.failed = 0
        self.failures = []

    def run_op(self, k, tracer=None):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.op(self.state, k)
            else:
                with tracer.span("bench.op"):
                    out = self.workload.op(self.state, k)
        except Exception:  # a failed operation is counted, and the loop goes on
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return None, elapsed
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if self.corrupt:
            self.workload.corrupt(out)
        problems = self.workload.check(self.state, out)
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return out, elapsed

    def cycle(self, tracer=None):
        outs, times = [], []
        for k in range(self.workload.instances):
            out, elapsed = self.run_op(k, tracer)
            times.append(elapsed)
            if out is not None:
                outs.append(out)
        return outs, times


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_coverage(tracer):
    """Share of traced operation time spent inside library layers."""
    total = sum(end - start for name, start, end, parent in tracer.spans if name == "bench.op")
    return 1.0 - tracer.self_time["bench.op"] / total if total else 0.0


def timed_loop(loop, seconds):
    """At least one cycle, then operations until ``seconds`` have passed."""
    start = time.perf_counter()
    outs, times = loop.cycle()
    # Peak memory of the first cycle, so it does not depend on how many
    # further operations fit in the run.
    peak = _peak_rss_mb()
    k = loop.workload.instances
    while time.perf_counter() - start < seconds:
        times.append(loop.run_op(k)[1])
        k += 1
    return outs, times, {"peak_rss_mb": peak}


def traced_cycles(loop, tracer, skip_plain):
    """A warm-up operation, an untraced cycle (unless skipped), then a
    traced one.  The first operation in a process pays one-off costs (at
    n = 100k its large temporaries are fresh pages, about 15% of its time),
    so neither timed cycle may include it."""
    loop.run_op(0)
    outs, plain = ([], []) if skip_plain else loop.cycle()
    with tracer.installed():
        outs, traced = loop.cycle(tracer)
    layers = tracer.summary()
    layers["trace.wall_s"] = statistics.median(traced)
    if plain:
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers["trace.layer_share"] = _op_coverage(tracer)
    t0 = tracer.spans[0][1]
    spans = [[name, start - t0, end - t0, parent] for name, start, end, parent in tracer.spans]
    return outs, plain or traced, {"layers": layers, "spans": spans}


def cmd_run(workload, args):
    root = Path(args.dir)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        state = workload.setup(root)
    loop = Loop(workload, state, args.corrupt)
    if tracer:
        outs, times, result = traced_cycles(loop, tracer, args.skip_plain)
    else:
        outs, times, result = timed_loop(loop, args.seconds)
    result["wall_s"] = statistics.median(times)
    result["op_times_s"] = times
    if outs and not args.skip_plain:
        result["quality"] = workload.quality(state, outs, args.seed, root)
    result.update(attempted=loop.attempted, failed=loop.failed, failures=loop.failures[:20])
    result["env"] = environment(workload, state)
    _print(result)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("gen", "setup", "run"))
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--skip-plain", action="store_true", help="with --trace: run the traced cycle only")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.scale)
    {"gen": cmd_gen, "setup": cmd_setup, "run": cmd_run}[args.mode](workload, args)


if __name__ == "__main__":
    main()
