"""Repository benchmark: one workload per process, BLAS pinned to one thread.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload vertex_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # each in its own process
    python3 perfbench/run.py --workload quench_ensemble --seed 1 --seconds 5 --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a second, traced run.  Every run prints the environment
fingerprint, the correctness-check outcome, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
process exits 0 when the run completed (``correct`` says whether the
outputs passed their checks) and non-zero when it could not run at all.
See README.md for the workloads, the metrics and how they relate.
"""

T_START = __import__("time").perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import blas_env  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("vertex_batch", "quench_ensemble", "thermal_quench")

#: printed with --trace 0: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("vertex_steps_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: printed with --trace 1: (name, unit); layers a workload does not
#: reach read 0
PER_LAYER = (
    ("operator.fields_ms", "ms"),
    ("operator.assembly_ms", "ms"),
    ("band.factor_ms", "ms"),
    ("band.solve_ms", "ms"),
    ("band.factorizations_per_step", "count"),
    ("band.half_bandwidth", "count"),
    ("batch.step_ms", "ms"),
    ("batch.self_ms", "ms"),
    ("batch.sweeps_per_step", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("plan_cache.misses", "count"),
    ("serve.retried_jobs", "count"),
    ("ensemble.sample_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("ensemble.statistics_ms", "ms"),
    ("ensemble.self_ms", "ms"),
    ("operator.jacobian_ms", "ms"),
    ("linear.factor_ms", "ms"),
    ("linear.solve_ms", "ms"),
    ("guard.check_ms", "ms"),
    ("solver.self_ms", "ms"),
    ("solver.newton_iterations", "count"),
    ("solver.step_rejections", "count"),
    ("solver.dt_backoffs", "count"),
    ("setup.pair_tables_ms", "ms"),
    ("setup.plan_build_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: the spans whose self times make up one batched vertex step
STEP_LAYERS = ("batch.step", "operator.fields", "operator.assembly", "band.factor", "band.solve")

SETUP_REPS = 5


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


#: the imports ``main`` makes before the first build, timed again in a
#: fresh interpreter by :func:`_import_seconds`
_IMPORT_PROBE = """import sys, time
t0 = time.perf_counter()
import argparse, gc, json, os, resource, statistics, subprocess
sys.path[:0] = {paths!r}
import blas_env
blas_env.pin_blas()
import numpy, checks, tracing, workloads
print(time.perf_counter() - t0)
"""


def _import_seconds(reps: int) -> list[float]:
    """Import time of the library and the benchmark, in ``reps`` fresh
    interpreters run one after the other."""
    code = _IMPORT_PROBE.format(paths=[HERE, os.path.join(ROOT, "src")])
    return [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout)
        for _ in range(reps)
    ]


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    dropped = blas_env.pin_blas()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np

    import checks
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    traced = bool(args.trace)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    tracer = tracing.Tracer() if traced else None

    # set-up, repeated: each repetition builds every fixture afresh
    setup_s, setup_layers = [], []
    for _ in range(SETUP_REPS):
        if tracer is not None:
            workloads.install_setup(tracer)
            before = tracer.snapshot()
        t0 = time.perf_counter()
        wl.build()
        wl.warm()
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            d = tracer.delta(tracer.snapshot(), before)
            tracer.uninstall()
            setup_layers.append(
                (
                    1e3 * d["total_s"].get("setup.pair_tables", 0.0),
                    1e3 * d["total_s"].get("setup.plan_build", 0.0),
                )
            )
    gc.collect()

    span_cost = tracing.span_cost_s() if tracer is not None else 0.0
    before = tracer.snapshot() if tracer is not None else None
    wl.timed(tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    delta = tracer.delta(tracer.snapshot(), before) if tracer is not None else None

    failures = wl.check()
    if traced and wl.name == "vertex_batch":
        # the layers' self times must add up to the step time measured
        # around each step call, up to the spans' own cost and 0.1 % for
        # the timer calls and scheduling around each step
        parts = {k: delta["self_s"].get(k, 0.0) for k in STEP_LAYERS}
        tol = delta["spans"] * span_cost + 1e-3 * wl.busy_s
        failures += checks.layer_sum(parts, wl.busy_s, tol)
    wl.close()

    if traced:
        values = wl.layers(delta)
        values["trace.overhead_pct"] = 100.0 * delta["spans"] * span_cost / max(wl.busy_s, 1e-9)
        values["setup.pair_tables_ms"] = statistics.median(p for p, _ in setup_layers)
        values["setup.plan_build_ms"] = statistics.median(b for _, b in setup_layers)
        spec = PER_LAYER
    else:
        values = wl.end_to_end()
        # imports as the median of this process's and fresh ones
        imports = [import_s] + _import_seconds(SETUP_REPS - 1)
        values["setup_s"] = statistics.median(imports) + statistics.median(setup_s)
        values["peak_rss_mb"] = rss_mb
        spec = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in spec}

    print("fingerprint " + json.dumps(blas_env.fingerprint(ROOT, dropped)))
    print(
        f"workload {wl.name}: {wl.ops} operations, {len(failures)} check failures"
        + ("".join(f"\n  FAIL {f}" for f in failures))
    )
    result = {
        "correct": not failures and bool(np.isfinite([m["value"] for m in metrics.values()]).all()),
        "attempted": int(wl.attempted),
        "failed": int(wl.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
