"""One repeat of one workload, run in a fresh process by the harness.

Usage (the harness builds the spec; see :func:`benchmarks.suite.harness.run_repeat`)::

    python -m benchmarks.suite.repeat '{"workload": "fig3_paper", "seed": 1,
        "repeat": 0, "workdir": "...", "trace": false, "spans_out": null}'

The process times its own set-up — importing numpy and ``repro`` plus the
workload's warm-up call — then the unit of work, then runs the output checks
outside both timers, and prints one JSON object as its last line of output.
Only the standard library is imported before the set-up timer starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def peak_rss_mib() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def digest(values) -> str:
    """Content hash of a unit's outputs, compared across repeats."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    spec = json.loads(argv[1])
    from pathlib import Path

    from benchmarks.suite import workloads
    from repro.obs import metrics

    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], Path(spec["workdir"])
    )
    workload.setup()
    setup_s = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        from benchmarks.suite.tracing import ROOT_SPAN, Tracer

        tracer = Tracer(f"{spec['workload']}-{spec['seed']}-{spec['repeat']}")
        tracer.install()
    with metrics.capture() as registry:
        begin = time.perf_counter()
        if tracer is None:
            output = workload.run()
        else:
            with tracer.span(ROOT_SPAN):
                output = workload.run()
        unit_s = time.perf_counter() - begin
    unit_spans = len(tracer.spans) if tracer is not None else 0
    rss = peak_rss_mib()
    checks = workload.check(output)

    from repro.backend import resolve_backend_name
    from repro.obs.manifest import environment_info

    info = environment_info()
    snapshot = registry.snapshot()
    result = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "items": output.items,
        "unit": workload.unit,
        "throughput": output.items / (output.seconds or unit_s),
        "peak_rss_mib": rss,
        "checks": checks,
        "digest": digest(output.values),
        "counters": {**snapshot["counters"], **snapshot["gauges"]},
        "extras": output.extras,
        "env": {
            "git_sha": info["git_sha"],
            "python": info["python_version"],
            "numpy": info["numpy_version"],
            "backend": resolve_backend_name(),
            "nproc": os.cpu_count(),
        },
    }
    if tracer is not None:
        from benchmarks.suite.tracing import layer_times

        # The wrappers stay installed during the checks; those calls are
        # not part of the unit.
        del tracer.spans[unit_spans:]
        result["layers"] = layer_times(tracer.spans)
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.to_dict(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
