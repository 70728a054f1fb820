"""ellsel benchmark: measure one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload integrals --seed 0 --seconds 20 --trace 0

Workloads: algebraic, integrals, integrals-pool, convergence (see
workloads.py for what each one runs and why).

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it measures the per-layer metrics from a
traced pass of the same cases, alongside an untraced pass for the
overhead.  Every pass checks its outputs: each case's status against
expected.json, reports identical (minus ``runtime_ms``) across passes,
between the traced and untraced passes, and between the case pool and
the serial run.

Each measurement runs in fresh interpreters that import ``ellsel`` from
``src/`` with ``ELLSEL_THREADS`` removed and BLAS pinned to one thread:
several set-up-only interpreters give the median set-up time, and one
more runs the workload.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment.  Exit code 0 when every output check
passes, 1 when one fails, 2 on usage errors or a missing source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_RUNS = 8  # set-up-only interpreters; the measuring one adds a ninth sample
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_ms_p50": "ms",
    "pass_frac": "ratio",
    "tol_margin_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", ".max_condition")):
        return "ratio"
    if name.endswith(".max_residual"):
        return "rel"
    return "count"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env() -> dict:
    env = {key: val for key, val in os.environ.items() if key != "ELLSEL_THREADS"}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ChildError(RuntimeError):
    pass


def run_child(args, env, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("time limit reached before the child started")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildError(f"child {args[0]} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ellsel", "__init__.py")):
        print(f"error: no ellsel source tree under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env()
    threads = min(2, nproc())
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                result = run_child(["setup"], env, deadline)
                if result["problems"]:
                    raise ChildError("; ".join(result["problems"]))
                setup_samples.append(result["setup_s"])
        result = run_child(
            ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), str(threads)],
            env,
            deadline,
        )
    except (ChildError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_samples + [result["setup_s"]])
    metrics = {
        name: {"value": val, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
        for name, val in values.items()
    }
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": result["pass_wall_s"],
        "pool_threads": threads,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **result["environment"],
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "ELLSEL_THREADS": "removed" if "ELLSEL_THREADS" in os.environ else "unset",
    }
    print(json.dumps({"environment": record}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
