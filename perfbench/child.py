"""Benchmark worker: one fresh interpreter per call, started by run.py.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run WORKLOAD SEED SECONDS TRACE THREADS

``setup`` imports ``ellsel.cli`` and runs the warm-up case, then prints
the set-up time.  ``run`` does the same, then measures the workload and
prints one JSON object with its metrics, output checks and environment.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WARM_UP = ("beta_k1", 0)


def set_up() -> tuple[float, list[str]]:
    """Import the CLI's modules and run one small case; numpy is first
    imported here, so its import counts as set-up too."""
    start = time.perf_counter()
    import ellsel.cli  # noqa: F401  -- pulls in every layer the CLI uses
    from ellsel import harness

    warm = harness.run_case(harness.sample_case(*WARM_UP))
    elapsed = time.perf_counter() - start
    problems = []
    if not os.path.abspath(ellsel.cli.__file__).startswith(SRC + os.sep):
        problems.append(f"ellsel imported from {ellsel.cli.__file__}, not from {SRC}")
    if warm.status != "pass":
        problems.append(f"warm-up case {warm.id}: {warm.status}")
    return elapsed, problems


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _measure(workload, rng, threads, seconds, traced_too, tracer):
    """Untraced passes (each followed by a traced one when ``traced_too``)
    until ``seconds`` have been measured; at least one round."""
    import workloads

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(workloads.run_pass(workload, rng, threads))
        if traced_too:
            tracer.install()
            try:
                traced.append(workloads.run_pass(workload, rng, threads))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            return untraced, traced


def _write_spans(recorded, path):
    """One JSON array per span: id, parent id, name, start, end, request
    (the case id) and attributes."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span in recorded:
            fh.write(json.dumps(list(span)) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    setup_s, problems = set_up()
    import metrics
    import spans
    import workloads

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[workload]
    rng = random.Random(seed)
    tracer = spans.Tracer() if trace else None
    untraced, traced = _measure(workload, rng, threads, seconds, trace, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if workload == "integrals-pool":
        # untimed: the serial reports the pool must reproduce bit for bit,
        # and the case latencies a pool pass cannot observe
        reference = workloads.serial_pass("integrals", list(range(len(workloads.case_list(workload)))))

    everything = untraced + traced + ([reference] if reference else [])
    attempted = failed = 0
    for result in everything:
        n_failed, found = workloads.status_problems(result, expected)
        attempted += len(result.outcomes)
        failed += n_failed
        problems += found
    first = untraced[0].output
    for label, group in (("untraced", untraced), ("traced", traced)):
        if any(result.output != first for result in group):
            problems.append(f"{label} reports differ from the first pass")
    if reference is not None and reference.output != first:
        problems.append("pool reports differ from the serial reports")

    timed = [reference] if reference else untraced
    latencies = [lat for result in timed for lat in result.latencies_ms]
    if trace:
        _write_spans(tracer.spans(), os.path.join(HERE, "out", f"spans-{workload}-s{seed}.jsonl"))
        values = spans.layer_metrics(tracer.spans(), passes=len(traced))
        values["trace.overhead_ratio"] = sum(p.wall_s for p in traced) / sum(
            p.wall_s for p in untraced
        )
        values["harness.case_ms_p90"] = metrics.p90(latencies) or 0.0
        values["harness.case_samples"] = len(latencies)
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "case_ms_p50": statistics.median(statistics.median(r.latencies_ms) for r in timed),
            "pass_frac": 1.0 - metrics.failed_frac(untraced[0].outcomes),
            "tol_margin_digits": metrics.tol_margin_digits(
                metrics.worst_tol_ratio(untraced[0].outcomes)
            ),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "setup_s": setup_s,
        "pass_wall_s": {
            "untraced": [p.wall_s for p in untraced],
            "traced": [p.wall_s for p in traced],
        },
        "problems": problems[:50],
        "environment": environment(),
    }


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        setup_s, problems = set_up()
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0
    if len(argv) != 6 or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, seconds, trace, threads = argv[1:]
    result = run(workload, int(seed), float(seconds), trace == "1", int(threads))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
