"""The benchmark's three workloads, each driven through public entry points.

Every workload function runs inside one fresh child process (see
``child.py``): it measures ``setup_s`` once, then makes ``calls`` timed
calls, and returns ``{"setup_s", "calls"}`` where each call records its
wall and calibration seconds, admitted ``states``, the verdicts it
checked (None or an error each), the bytes it left on disk and the
counters the run exposes.

- ``sweep-sym``: claim A's sweep over all ten N=3 wiring classes via
  :func:`~repro.checker.parallel.check_snapshot_classes` (symmetry,
  batch engine, auto kernel, RAM store, no POR).
- ``class-memcap``: the identity class via
  :meth:`~repro.checker.fast_snapshot.FastSnapshotSpec.explore` with
  symmetry, POR, a capped spill store and a run checkpointer.
- ``service-sweep``: the same sweep as one job submitted through
  :class:`~repro.service.transport.ServiceClient` to an in-process
  :class:`~repro.service.coordinator.CoordinatorHandle` with two socket
  workers spawned through :func:`worker_main`.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracing import Tracer, dir_bytes, install

N = 3
#: Representatives admitted per class in ``sweep-sym``.
SWEEP_BUDGET = 200_000
#: ``class-memcap``: representatives, spill-store RAM cap, and the
#: admitted-state cadence of the run checkpointer.
MEMCAP_BUDGET = 120_000
MEMCAP_CAP = 1 << 20
MEMCAP_EVERY = 25_000
#: Budget per class of the service job, and its worker count (the
#: host's two cores: never more worker processes than ``nproc``).
SERVICE_BUDGET = 30_000
SERVICE_WORKERS = 2
#: The service's coordinator fixes its inputs to ``1..N``.
SERVICE_LABELS = tuple(range(1, N + 1))

#: Seconds :func:`calibrate` takes on the reference host (two-vCPU
#: x86_64 VM, Python 3.11, numpy 2.4, idle neighbours).  Timings are
#: reported in reference-host seconds; see ``run.py``.
CALIBRATION_REF_S = 0.2
_calibration_data: List[Any] = []
_MASK64 = (1 << 64) - 1


def _quiet(line: str) -> None:
    pass


def peak_rss_mb() -> float:
    """This process's high-water RSS (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    Shared hosts change speed by a third over minutes, as neighbours
    come and go.  This loop uses no ``repro`` code, so no change to
    the program can move it; it runs right before and right after
    every timed call (see :func:`bracketed`), and the run scales its
    timings by how fast the host ran it.  Half of it is interpreter
    work shaped like the spill store (splitmix64 Bloom probes, set
    membership, ``sorted`` and ``bisect``), half array work shaped like
    the batch engine (numpy sort, unique, searchsorted).
    """
    import numpy as np

    if not _calibration_data:
        keys = np.random.default_rng(0).integers(
            0, 1 << 63, 300_000, dtype=np.uint64
        )
        _calibration_data.extend([keys, [int(k) for k in keys[:40_000]]])
    keys, ints = _calibration_data
    start = time.perf_counter()
    bloom = bytearray(1 << 17)
    bits = len(bloom) * 8
    for key in ints[:20_000]:
        mixed = _splitmix64(key)
        for _ in range(3):
            position = mixed % bits
            bloom[position >> 3] |= 1 << (position & 7)
            mixed = _splitmix64(mixed)
    seen = set(ints[:20_000])
    sum(1 for key in ints if key in seen)
    ordered_ints = sorted(ints)
    for key in ints[:15_000]:
        bisect.bisect_left(ordered_ints, key)
    ordered = np.sort(keys)
    np.unique(keys[:100_000])
    np.searchsorted(ordered, keys[:100_000])
    return time.perf_counter() - start


def bracketed(call: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(result, wall seconds, calibration seconds)`` of ``call()``.

    The calibration figure is the mean of one :func:`calibrate` right
    before and one right after, so it sees the host as the call did.
    """
    before = calibrate()
    start = time.perf_counter()
    result = call()
    wall_s = time.perf_counter() - start
    return result, wall_s, (before + calibrate()) / 2


def classes_for(workload: str) -> List[Tuple[Tuple[int, ...], ...]]:
    """The canonical wiring classes ``workload`` explores."""
    from repro.checker.fast_snapshot import canonical_wiring_classes

    classes = canonical_wiring_classes(N, N)
    if workload == "class-memcap":
        identity = tuple(range(N))
        chosen = [w for w in classes if all(p == identity for p in w)]
        assert len(chosen) == 1, "no identity wiring class"
        return chosen
    return classes


def labels_for(workload: str, labels: Sequence[int]) -> Tuple[int, ...]:
    return SERVICE_LABELS if workload == "service-sweep" else tuple(labels)


def build_kernels(
    labels: Sequence[int], wirings: Sequence[Any]
) -> Tuple[float, List[str]]:
    """Build spec, canonicalizer and ``auto`` kernel for every class.

    Returns the seconds spent in ``make_kernel`` alone (the native
    build or cache load) and the kernel name that served each class.
    """
    import repro.checker.batch as batch
    from repro.checker.fast_snapshot import FastSnapshotSpec
    from repro.checker.symmetry import FastCanonicalizer

    kernel_s = 0.0
    names = []
    for wiring in wirings:
        spec = FastSnapshotSpec(tuple(labels), wiring)
        canonicalizer = FastCanonicalizer(spec)
        start = time.perf_counter()
        kernel = batch.make_kernel(spec, "auto", canonicalizer)
        kernel_s += time.perf_counter() - start
        names.append(kernel.kernel_name)
    return kernel_s, names


def timed_setup(labels: Sequence[int], wirings: Sequence[Any]) -> float:
    start = time.perf_counter()
    build_kernels(labels, wirings)
    return time.perf_counter() - start


def positive_control(labels: Sequence[int]) -> List[Optional[str]]:
    """Violations of the first three classes at ``level_target=0``.

    With too few levels the snapshot algorithm returns incomparable
    views; each class must find that within 3,000 representatives.
    Returns one error string (or None) per class.
    """
    from repro.checker.fast_snapshot import (
        FastSnapshotSpec,
        canonical_wiring_classes,
    )

    errors: List[Optional[str]] = []
    for wiring in canonical_wiring_classes(N, N)[:3]:
        result = FastSnapshotSpec(tuple(labels), wiring, level_target=0).explore(
            max_states=3000, symmetry=True, engine="batch", kernel="auto"
        )
        violation = result.violation or ""
        errors.append(
            None if violation.startswith("incomparable outputs")
            else f"class {wiring}: expected incomparable outputs,"
                 f" got {result.violation!r} after {result.states}"
        )
    return errors


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

def sweep_sym(
    labels: Sequence[int], work: Path, tracer: Tracer, calls: int
) -> Dict[str, Any]:
    from repro.checker.parallel import check_snapshot_classes

    setup_s = timed_setup(labels, classes_for("sweep-sym"))
    outs = []
    for _ in range(calls):
        tracer.reset()
        results, wall_s, calibration_s = bracketed(
            lambda: check_snapshot_classes(
                N, budget=SWEEP_BUDGET, symmetry=True, engine="batch",
                kernel="auto", jobs=1, inputs=tuple(labels),
            )
        )
        outs.append({
            "wall_s": wall_s,
            "calibration_s": calibration_s,
            "states": sum(result.states for _, result in results),
            "errors": [
                None if result.ok and result.states == SWEEP_BUDGET
                else f"class {wiring}: violation={result.violation!r}"
                     f" states={result.states} (expected ok,"
                     f" {SWEEP_BUDGET})"
                for wiring, result in results
            ],
            "disk_bytes": 0,
            "summary": tracer.summary(),
        })
    return {"setup_s": setup_s, "calls": outs}


def class_memcap(
    labels: Sequence[int], work: Path, tracer: Tracer, calls: int
) -> Dict[str, Any]:
    import shutil

    from repro.checker.fast_snapshot import FastSnapshotSpec
    from repro.store.base import StoreConfig
    from repro.store.checkpoint import RunCheckpointer

    (wiring,) = classes_for("class-memcap")
    setup_s = timed_setup(labels, [wiring])
    spec = FastSnapshotSpec(tuple(labels), wiring)
    outs = []
    for index in range(calls):
        store_dir = work / f"store-{index}"
        checkpoint_dir = work / f"checkpoint-{index}"
        store = StoreConfig(
            backend="spill", directory=str(store_dir), mem_cap=MEMCAP_CAP
        )
        checkpointer = RunCheckpointer(
            checkpoint_dir,
            meta={"workload": "class-memcap", "labels": list(labels),
                  "budget": MEMCAP_BUDGET},
            every=MEMCAP_EVERY,
        )
        tracer.reset()
        result, wall_s, calibration_s = bracketed(
            lambda: spec.explore(
                max_states=MEMCAP_BUDGET, symmetry=True, por=True,
                engine="batch", kernel="auto", store=store,
                checkpointer=checkpointer,
            )
        )
        summary = tracer.summary()
        store_counters = dict(result.store_counters or {})
        writes = int(summary["counts"].get("store.checkpoint.write.count", 0))
        # The workload's shape is part of what it measures: a cap that
        # no longer forces spills and merges, or a cadence that no
        # longer commits twice, would measure a different campaign.
        shape = (
            store_counters.get("spills", 0) >= 2
            and store_counters.get("merges", 0) >= 1
            and writes >= 2
        )
        outs.append({
            "wall_s": wall_s,
            "calibration_s": calibration_s,
            "states": result.states,
            "errors": [
                None if result.ok and result.states == MEMCAP_BUDGET
                else f"violation={result.violation!r}"
                     f" states={result.states} (expected ok,"
                     f" {MEMCAP_BUDGET})",
                None if shape
                else f"workload shape lost: {store_counters},"
                     f" {writes} checkpoints",
            ],
            "disk_bytes": dir_bytes(store_dir, checkpoint_dir),
            "store_counters": store_counters,
            "por_counters": dict(result.por_counters or {}),
            "checkpoint_writes": writes,
            "summary": summary,
        })
        # Delete before the next call so no write-back of this call's
        # files competes with it.
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return {"setup_s": setup_s, "calls": outs}


def worker_main(
    host: str, port: int, name: str, traced: bool, report: str
) -> None:
    """Service worker entry: install spans, serve, report on exit.

    The report (JSON at ``report``) carries this worker's peak RSS, the
    kernels that served it and, when traced, its span summary.
    """
    from repro.service.worker import run_worker

    tracer = Tracer(timed=traced)
    install(tracer)
    code = run_worker(host, port, name, emit=_quiet)
    Path(report).write_text(json.dumps({
        "name": name,
        "exit": code,
        "peak_rss_mb": peak_rss_mb(),
        "summary": tracer.summary(),
    }))


def _fresh_busy_ms(client: Any, done_at: float, timeout: float = 5.0):
    """Per-worker ``busy_ms`` from a ping answered after the job ended.

    Worker stats travel on the coordinator's periodic pings; after the
    last round a worker's reply age grows until the next ping, so an
    age below the time since ``done_at`` proves the stats are final.
    """
    deadline = time.monotonic() + timeout
    while True:
        workers = client.workers()
        since = time.monotonic() - done_at
        if all(w.get("last_seen_age_s", 1e9) < since for w in workers) or (
            time.monotonic() > deadline
        ):
            return {w["name"]: float(w.get("busy_ms", 0.0)) for w in workers}
        time.sleep(0.1)


def _service_errors(record: Any) -> List[Optional[str]]:
    if record.state != "done" or len(record.rows) != 10:
        return [f"job {record.state}: {record.error}"] * 10
    return [
        None if row["result"]["violation"] is None
        and row["result"]["states"] >= SERVICE_BUDGET
        else f"class {row['class']}: violation="
             f"{row['result']['violation']!r} states={row['result']['states']}"
        for row in record.rows
    ]


def service_sweep(
    labels: Sequence[int], work: Path, tracer: Tracer, calls: int
) -> Dict[str, Any]:
    from repro.service.coordinator import CoordinatorHandle
    from repro.service.jobs import JobSpec
    from repro.service.transport import ServiceClient

    state_dir = work / "state"
    reports = work / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    processes: List[Any] = []
    handle: Optional[CoordinatorHandle] = None
    client: Optional[ServiceClient] = None
    outs = []
    try:
        start = time.perf_counter()
        handle = CoordinatorHandle(state_dir, log=_quiet)
        assert handle.endpoint is not None
        host, port = handle.endpoint
        for index in range(SERVICE_WORKERS):
            process = ctx.Process(
                target=worker_main,
                args=(host, port, f"w{index}", tracer.timed,
                      str(reports / f"w{index}.json")),
                daemon=True,
            )
            process.start()
            processes.append(process)
        client = ServiceClient(host, port)
        deadline = time.monotonic() + 60.0
        # Submitting before every worker registered hands the early one
        # most of the first class; wait for the whole fleet.
        while sum(1 for w in client.workers() if w.get("alive")) < len(
            processes
        ):
            if time.monotonic() > deadline:
                raise RuntimeError("workers did not register within 60 s")
            time.sleep(0.01)
        setup_s = time.perf_counter() - start

        for _ in range(calls):
            before = dir_bytes(state_dir)
            tracer.reset()
            record, wall_s, calibration_s = bracketed(
                lambda: client.wait(
                    client.submit(JobSpec(
                        n=N, budget=SERVICE_BUDGET, symmetry=True,
                        engine="batch",
                    )),
                    timeout=150.0, poll_s=0.05,
                )
            )
            done_at = time.monotonic()
            summary = tracer.summary()
            outs.append({
                "wall_s": wall_s,
                "calibration_s": calibration_s,
                "states": sum(row["result"]["states"] for row in record.rows),
                "errors": _service_errors(record),
                "disk_bytes": dir_bytes(state_dir) - before,
                "signature": [
                    [row["class"], row["result"]["states"],
                     row["result"]["transitions"]]
                    for row in record.rows
                ],
                "busy_ms": (
                    _fresh_busy_ms(client, done_at) if tracer.timed else {}
                ),
                "summary": summary,
            })
    finally:
        if client is not None:
            client.close()
        if handle is not None:
            handle.stop()
        for process in processes:
            process.join(timeout=20)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)

    worker_reports = []
    for index, process in enumerate(processes):
        path = reports / f"w{index}.json"
        if process.exitcode != 0 or not path.exists():
            raise RuntimeError(
                f"worker w{index} exited {process.exitcode} without a report"
            )
        worker_reports.append(json.loads(path.read_text()))
    return {"setup_s": setup_s, "calls": outs, "workers": worker_reports}


RUNNERS = {
    "sweep-sym": sweep_sym,
    "class-memcap": class_memcap,
    "service-sweep": service_sweep,
}


def expected_verdicts(workload: str) -> int:
    """Verdicts one call checks (charged as failed if it crashes)."""
    return {"sweep-sym": 10, "class-memcap": 2, "service-sweep": 10}[workload]
