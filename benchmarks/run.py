"""effectaudit benchmark: one command, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1        # every workload

Inputs are generated from ``--seed`` into ``.bench_work/`` of the checkout;
the program sees only those files and the argv.  The workload is served by
``serve.py`` in a child process (one closed-loop client, in-process calls to
``effectaudit.cli.main``).  With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics from a traced run.  Lines before it print
each metric by name with its unit, then one JSON line with the details
(environment, output digest, latency tail, failures).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

E2E_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "pipeline.load_csv_s": "s",
    "pipeline.csv_cells": "count",
    "pipeline.csv_mcells_per_s": "Mcell/s",
    "pipeline.load_joint_json_s": "s",
    "pipeline.joint_atoms": "count",
    "pipeline.audit_dataset_self_s": "s",
    "pipeline.audit_claims_s": "s",
    "matrix_core.validate_correlation_s": "s",
    "matrix_core.second_moment_s": "s",
    "linalg.eig_calls_per_audit": "calls/audit",
    "linear_bounds.vdc_check_s": "s",
    "linear_bounds.eigen_bound_check_s": "s",
    "linear_bounds.fit_least_squares_s": "s",
    "finite_sample.mc_s": "s",
    "finite_sample.mc_trials": "count",
    "finite_sample.mc_us_per_trial": "us/trial",
    "finite_sample.ks_s": "s",
    "finite_sample.svd_s": "s",
    "finite_sample.standardize_s": "s",
    "finite_sample.standardize_calls": "count",
    "info_bounds.joint_build_s": "s",
    "info_bounds.mi_check_s": "s",
    "effect_models.s": "s",
    "report.render_s": "s",
    "report.bytes_out": "count",
    "trace_overhead_frac": "ratio",
}
SETUP_REPEATS = 5
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 150

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import effectaudit.cli; print(time.perf_counter() - t)"
)


def setup_seconds(src: str) -> list[float]:
    """Wall time of ``import effectaudit.cli`` in fresh interpreters.

    The median of the repeats leaves out the one that compiles the bytecode
    in a fresh checkout.
    """
    return [
        float(subprocess.run([sys.executable, "-c", _IMPORT_TIMER, src], check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def latency_tail(latencies: list[float]) -> tuple[float, float] | None:
    """(level, value) of the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    for level in TAIL_LEVELS:
        if len(ordered) * (1.0 - level / 100.0) >= 10:
            return level, statistics.quantiles(ordered, n=1000)[round(level * 10) - 1]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """Generate, serve and measure one workload; returns metrics and details."""
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        start = time.perf_counter()
        plan = workloads.GENERATORS[name](work, seed, tiny)
        generate_s = time.perf_counter() - start
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup = [] if trace else setup_seconds(os.path.join(ROOT, "src"))
        out_path = os.path.join(work, "result.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "serve.py"), "--root", ROOT, "--plan", plan_path,
             "--seconds", str(seconds), "--trace", str(trace), "--out", out_path],
            check=True, timeout=CHILD_TIMEOUT_S,
        )
        with open(out_path, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = res["failures"]
    details = {
        "workload": name,
        "requests_per_pass": res["requests_per_pass"],
        "pass_times_s": res["pass_times"],
        "attempted": res["attempted"],
        "failed_frac": len(failures) / res["attempted"],
        "failures": failures[:20],
        "digest": res["digest"],
        "pass_digests": res["pass_digests"],
        "generate_s": generate_s,
    }
    if trace:
        metrics = res["layers"]
        details.update(traced_pass_times_s=res["traced_pass_times"],
                       traced_digests=res["traced_digests"], spans=res["spans"],
                       span_parents=res["span_parents"],
                       absent=sorted(set(LAYER_UNITS) - set(metrics)))
    else:
        lat = res["latencies"]
        metrics = {
            "wall_s": statistics.median(res["pass_times"]),
            "req_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup),
        }
        tail = latency_tail(lat)
        details.update(requests_timed=len(lat), setup_samples=setup,
                       req_tail=None if tail is None else
                       {"level": tail[0], "ms": tail[1] * 1e3, "samples": len(lat),
                        "beyond": round(len(lat) * (1 - tail[0] / 100))})
    return {"metrics": metrics, "details": details, "failed": len(failures),
            "attempted": res["attempted"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="effectaudit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "effectaudit", "cli.py")):
        print(f"run.py: no effectaudit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    env = environment(args.seed)
    start = time.perf_counter()
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        except (subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
            print(f"run.py: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        r = results[name]
        for metric, value in r["metrics"].items():
            print(f"{name:9s} {metric:36s} {value:14.6g} {units[metric]}")
        if not args.trace:
            tail = r["details"]["req_tail"]
            print(f"{name:9s} {'req_tail_ms':36s} " + (
                f"{tail['ms']:14.6g} ms (p{tail['level']:g}, {tail['samples']} samples)"
                if tail else "  (too few requests for a tail with 10 samples beyond it)"))
        print(f"{name:9s} {'failed_frac':36s} {r['details']['failed_frac']:14.6g} "
              f"({r['failed']}/{r['attempted']})")
        for reason in r["details"]["failures"]:
            print(f"{name:9s} FAILED {reason}")

    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    env["elapsed_s"] = time.perf_counter() - start
    print(json.dumps({"environment": env,
                      "details": {n: r["details"] for n, r in results.items()}}))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split(".", 1)[1] if len(names) > 1 else m]}
                    for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
