"""One step of a benchmark run, in a fresh process.

``python3 perfbench/child.py '<json>'`` where the JSON object names a
``mode``:

- ``prepare``: warm the native kernel cache for the workload's classes
  and run the positive control;
- ``rep``: set up the workload once, then make ``calls`` timed calls
  (zero for a set-up-only sample); ``trace`` true installs the span
  wrappers and adds each call's per-layer numbers;
- ``cold``: build the workload's kernels from an empty cache directory
  (``REPRO_NATIVE_CACHE`` is set by the caller) and time the builds.

The last line of standard output is the step's result as JSON.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def _merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"self_s": {}, "calls": {}, "counts": {},
                              "kernels": []}
    for summary in summaries:
        for key in ("self_s", "calls", "counts"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["kernels"] += summary["kernels"]
    return merged


def layer_metrics(out: Dict[str, Any], main: Dict[str, Any],
                  everything: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``main`` is the benchmark process's span summary (its root spans
    give ``unattributed_share``); ``everything`` merges it with the
    service workers' summaries.
    """
    self_s = everything["self_s"]
    calls = everything["calls"]
    counts = everything["counts"]
    store = out.get("store_counters") or {}
    por = out.get("por_counters") or {}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        f"{name}.s": self_s.get(name, 0.0)
        for name in (
            "checker.batch.expand_level", "checker.batch.unique_first",
            "checker.batch.probe_sorted", "checker.batch.violations",
            "checker.batch.por_c0c1", "checker.symmetry.canonical_many",
            "checker.symmetry.orbit_sizes", "checker.por.select",
            "store.contains_many", "store.add_many",
            "store.checkpoint.write", "checker.parallel.process_round",
            "service.protocol.send", "service.protocol.recv",
            "service.coordinator.request",
            "checker.symmetry.canonicalizer_init",
            "checker.native.kernel_init",
        )
    }
    metrics.update({
        "checker.batch.expand_level.calls":
            calls.get("checker.batch.expand_level", 0),
        "checker.batch.expand_level.successors":
            counts.get("checker.batch.expand_level.successors", 0),
        "checker.batch.unique_first.keys":
            counts.get("checker.batch.unique_first.keys", 0),
        "checker.batch.probe_sorted.keys":
            counts.get("checker.batch.probe_sorted.keys", 0),
        "checker.symmetry.canonical_many.states":
            counts.get("checker.symmetry.canonical_many.states", 0),
        "checker.por.ample_share": ratio(
            por.get("ample_states", 0),
            por.get("ample_states", 0) + por.get("fully_expanded_states", 0),
        ),
        "store.contains_many.keys": counts.get("store.contains_many.keys", 0),
        "store.add_many.keys": counts.get("store.add_many.keys", 0),
        "store.hit_share": ratio(
            counts.get("store.contains_many.hits", 0),
            counts.get("store.contains_many.keys", 0),
        ),
        "store.spills": store.get("spills", 0),
        "store.merges": store.get("merges", 0),
        "store.merge_ms": store.get("merge_wall_ms", 0),
        "store.disk_probes": store.get("disk_probes", 0),
        "store.bloom_skip_share": ratio(
            store.get("bloom_skips", 0),
            counts.get("store.contains_many.all_keys", 0),
        ),
        "store.checkpoint.write.count":
            counts.get("store.checkpoint.write.count", 0),
        "store.checkpoint.write.bytes":
            counts.get("store.checkpoint.write.bytes", 0),
        "checker.parallel.process_round.rounds":
            counts.get("checker.parallel.process_round.rounds", 0),
        "service.protocol.send.bytes":
            counts.get("service.protocol.send.bytes", 0),
        "service.protocol.recv.bytes":
            counts.get("service.protocol.recv.bytes", 0),
        "service.worker.busy_share": ratio(
            sum(out.get("busy_ms", {}).values()) / 1000.0,
            len(out.get("busy_ms", {})) * out["wall_s"],
        ),
        "unattributed_share": 1.0 - main["roots_s"] / out["wall_s"],
    })
    return {name: float(value) for name, value in metrics.items()}


def run_rep(config: Dict[str, Any]) -> Dict[str, Any]:
    workload = config["workload"]
    work = Path(config["work"])
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(timed=bool(config["trace"]))
    install(tracer)
    labels = workloads.labels_for(workload, config["labels"])
    try:
        out = workloads.RUNNERS[workload](
            labels, work, tracer, int(config["calls"])
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reports = out.pop("workers", [])
    worker_summaries = [report["summary"] for report in reports]
    kernels = sum((s["kernels"] for s in worker_summaries), [])
    for call in out["calls"]:
        main = call.pop("summary")
        kernels += main["kernels"]
        if tracer.timed:
            # Traced repetitions make one call, so the workers' spans
            # all belong to it.
            call["layers"] = layer_metrics(
                call, main, _merge([main] + worker_summaries)
            )
        call.pop("busy_ms", None)
    out["kernels"] = kernels
    out["peak_rss_mb"] = workloads.peak_rss_mb() + sum(
        report["peak_rss_mb"] for report in reports
    )
    return out


def main() -> None:
    config = json.loads(sys.argv[1])
    mode = config["mode"]
    workload = config["workload"]
    if mode == "rep":
        out = run_rep(config)
    elif mode == "prepare":
        labels = workloads.labels_for(workload, config["labels"])
        _, kernels = workloads.build_kernels(
            labels, workloads.classes_for(workload)
        )
        out = {
            "kernels": kernels,
            "control_errors": workloads.positive_control(config["labels"]),
        }
    elif mode == "cold":
        labels = workloads.labels_for(workload, config["labels"])
        build_s, kernels = workloads.build_kernels(
            labels, workloads.classes_for(workload)
        )
        out = {"build_cold_s": build_s, "kernels": kernels}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
