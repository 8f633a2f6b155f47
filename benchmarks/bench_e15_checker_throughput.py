"""E15 — checker throughput: the perf trajectory of the TLC stand-in.

Not a paper experiment: this benchmark tracks the *checker itself* —
the engine every mechanically-checked claim (E4/E5) rides on — so that
performance changes across PRs are measured, not guessed.  Fixed
workloads, four axes:

- **throughput**: the E4-style N=3 sweep (all 10 canonical wiring
  classes, fixed per-class state budget) serial vs ``jobs=2`` and
  ``jobs=4`` class-parallel, plus the frontier-sharded engine on a
  single class; on a single-CPU host the multi-job variants are
  skipped (``{"skipped": "single-cpu host"}`` stubs) — capped workers
  are pure fork/IPC overhead and time nothing real;
- **memory**: peak-RSS deltas of the object-encoded explorer vs the
  64-bit fingerprint modes on the N=3 reference workload (each run in
  a fresh subprocess so high-water marks don't bleed between
  workloads);
- **symmetry**: the quotient construction on the flagship wiring
  classes and the whole sweep — reduction ratio (concrete states
  covered per state explored) and *net* speedup (effective covered
  states/s, canonicalization cost included, vs the unreduced twin);
- **store**: the reference workload against every fingerprint-store
  backend (RAM set, mmap open-addressing table, spill-to-disk sorted
  runs) — states/s, peak RSS, and bytes on disk per backend, plus a
  ``spill_memcap`` entry that runs the spill backend under a hard 200
  MB ``mem_cap`` (``--spill-states``, default 5M standalone) and
  records whether the workload's RSS delta stayed under the cap;
- **por**: ample-set partial-order reduction on the exhaustive N=2
  class sweep in all four ``por x symmetry`` combinations — verdict/
  violation-set identity and the transitions cut (the acceptance bar:
  >= 2x with ``por+symmetry``);
- **batch**: the level-batched loop on the numpy kernel
  (``--kernel numpy``) on the identity class in four modes (plain,
  fingerprint, symmetry, symmetry+fingerprint) — per-mode states/s
  plus in-section conformance (the plain run equals the generic
  Explorer at the same budget, the fingerprint modes equal their
  twins, or the numbers are garbage); standalone ``--only-batch``
  remeasures just this section;
- **native**: the generated-C level kernel (``--kernel native``) vs its
  numpy twin, same identity-class modes, each pair measured
  adjacently — per-mode ``speedup_vs_numpy`` plus field-level
  conformance; without a compiler the section records ``available:
  false`` and the reason.  Standalone ``--only-native`` remeasures
  just this section;
- **batch_por**: the two biggest reductions composed — unreduced vs
  POR on the identity class under symmetry, measured adjacently —
  reporting the transition cut.  Conformance here is verdict-level
  (the selector prunes transitions, so state counts legitimately
  differ); standalone ``--only-batch-por`` remeasures just this
  section;
- **service**: the distributed checking service (``repro serve``) — a
  coordinator plus ``k`` localhost socket workers running the
  exhaustive N=2 sweep as one submitted job, against the serial
  engine measured adjacently; records states/s, per-round protocol
  overhead, and per-worker utilization (busy_ms over wall clock, via
  ``aggregate_service_statistics``).  Verdict/count conformance with
  serial is asserted in-section (the non-POR exhaustive configuration
  is partition-invariant, so counts must match bit-for-bit).  The N=2
  state space is small, so this section measures protocol overhead
  honestly rather than showcasing speedup; standalone
  ``--only-service`` remeasures just this section;
- **conformance**: parallel and serial must report identical verdicts
  (and identical states/transitions for the class sweep), and all
  three store backends must report identical states/transitions/
  verdicts — a benchmark that got a different answer fails instead of
  timing garbage.

Every parallel workload records ``jobs_requested`` next to
``jobs_effective`` (requests above ``os.cpu_count()`` are capped).
Results land in ``BENCH_checker.json`` at the repo root (see
``_bench_utils.write_checker_bench``; sections merge across runs, each
stamped with its git SHA).  Standalone use::

    PYTHONPATH=src python benchmarks/bench_e15_checker_throughput.py \
        [--budget N] [--jobs 1 2 4] [--out PATH]

The CI smoke run uses a small ``--budget`` to finish in ~30 seconds.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import (  # noqa: E402 (needs the sys.path line above)
    E15_BUDGET,
    emit,
    peak_rss_bytes,
    write_checker_bench,
)

#: The wiring class used for single-class (sharded/memory) workloads —
#: class 1 of ``canonical_wiring_classes(3, 3)``, a rotation class with
#: a large reachable graph.
_REFERENCE_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))


# ----------------------------------------------------------------------
# Workload runners (executed in fresh subprocesses for clean RSS)
# ----------------------------------------------------------------------

def _run_workload(config: dict) -> dict:
    """Execute one workload in-process and report stats."""
    import warnings

    from repro.checker import Explorer, SystemSpec
    from repro.checker.parallel import (
        check_snapshot_classes,
        effective_jobs,
        explore_sharded,
    )
    from repro.checker.properties import SNAPSHOT_SAFETY
    from repro.core import SnapshotMachine
    from repro.memory.wiring import WiringAssignment

    symmetry = config.get("symmetry", False)
    por = config.get("por", False)
    kernel = config.get("kernel", "auto")

    store_config = None
    if config.get("store"):
        from repro.store import DEFAULT_MEM_CAP, StoreConfig

        store_config = StoreConfig(
            backend=config["store"],
            mem_cap=config.get("mem_cap", DEFAULT_MEM_CAP),
        )

    def _store_detail(results) -> dict:
        if store_config is None:
            return {}
        from repro.analysis.statistics import aggregate_store_statistics

        stats = aggregate_store_statistics(results)
        return {"store": {
            "backend": store_config.backend,
            "entries": stats.entries,
            "file_bytes": stats.file_bytes,
            "spills": stats.spills,
            "merges": stats.merges,
            "merge_wall_ms": stats.merge_wall_ms,
            "disk_probes": stats.disk_probes,
            "bloom_skips": stats.bloom_skips,
        }}

    def _por_detail(results) -> dict:
        if not por:
            return {}
        from repro.analysis.statistics import aggregate_por_statistics

        stats = aggregate_por_statistics(results)
        return {"por_counters": {
            "transitions_pruned": stats.transitions_pruned,
            "ample_states": stats.ample_states,
            "fully_expanded_states": stats.fully_expanded_states,
            "cycle_proviso_expansions": stats.cycle_proviso_expansions,
        }}

    def _collision_detail(states: int) -> dict:
        if not config.get("fingerprint"):
            return {}
        from repro.checker.fingerprint import collision_probability

        return {"collision_probability": collision_probability(states)}

    def _jobs_detail(requested: int) -> dict:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return {
                "jobs_requested": requested,
                "jobs_effective": effective_jobs(requested),
            }

    def _symmetry_detail(results) -> dict:
        if not symmetry:
            return {}
        covered = sum(r.covered_states or r.states for r in results)
        explored = sum(r.states for r in results)
        return {
            "covered_states": covered,
            "symmetry_group_orders": [
                r.symmetry_group_order for r in results
            ],
            "reduction_ratio": round(covered / max(1, explored), 3),
        }

    rss_before = peak_rss_bytes()
    start = time.perf_counter()
    kind = config["kind"]
    if kind == "fast_classes":
        rows = check_snapshot_classes(
            config.get("n", 3),
            budget=config["budget"],
            jobs=config["jobs"],
            fingerprint=config.get("fingerprint", False),
            symmetry=symmetry,
            store=store_config,
            por=por,
            kernel=kernel,
        )
        states = sum(result.states for _, result in rows)
        transitions = sum(result.transitions for _, result in rows)
        ok = all(result.ok for _, result in rows)
        detail = {"classes": len(rows), **_jobs_detail(config["jobs"]),
                  **_symmetry_detail([result for _, result in rows]),
                  **_store_detail([result for _, result in rows]),
                  **_por_detail([result for _, result in rows]),
                  "violations": sorted(
                      result.violation for _, result in rows
                      if result.violation is not None
                  )}
    elif kind == "fast_sharded":
        result = explore_sharded(
            [1, 2, 3],
            _REFERENCE_CLASS,
            jobs=config["jobs"],
            max_states=config["budget"],
            fingerprint=config.get("fingerprint", False),
            symmetry=symmetry,
            por=por,
            kernel=kernel,
        )
        states, transitions, ok = result.states, result.transitions, result.ok
        detail = {"class": list(map(list, _REFERENCE_CLASS)),
                  **_jobs_detail(config["jobs"]),
                  **_symmetry_detail([result]),
                  **_por_detail([result])}
    elif kind == "fast_single":
        from repro.checker.fast_snapshot import FastSnapshotSpec

        wiring = tuple(map(tuple, config.get("class", _REFERENCE_CLASS)))
        result = FastSnapshotSpec([1, 2, 3], wiring).explore(
            max_states=config["budget"],
            fingerprint=config.get("fingerprint", False),
            symmetry=symmetry,
            store=store_config,
            por=por,
            kernel=kernel,
        )
        states, transitions, ok = result.states, result.transitions, result.ok
        detail = {"class": list(map(list, wiring)),
                  **_symmetry_detail([result]),
                  **_store_detail([result]),
                  **_por_detail([result])}
    elif kind == "generic":
        spec = SystemSpec(
            SnapshotMachine(3), [1, 2, 3], WiringAssignment.identity(3, 3)
        )
        result = Explorer(
            spec,
            SNAPSHOT_SAFETY,
            max_states=config["budget"],
            fingerprint=config.get("fingerprint", False),
        ).run()
        states, transitions, ok = result.states, result.transitions, result.ok
        detail = {}
    else:  # pragma: no cover - configs are fixed below
        raise ValueError(f"unknown workload kind {kind!r}")
    elapsed = time.perf_counter() - start
    peak = peak_rss_bytes()
    children_peak = peak_rss_bytes(children=True)
    stats = {
        "states": states,
        "transitions": transitions,
        "ok": ok,
        "elapsed_s": round(elapsed, 3),
        "states_per_s": int(states / elapsed) if elapsed > 0 else None,
        "peak_rss_bytes": max(peak, children_peak),
        "workload_rss_bytes": max(peak, children_peak) - rss_before,
        **detail,
        **_collision_detail(states),
    }
    if "covered_states" in stats and elapsed > 0:
        # Effective throughput: concrete states *certified* per second —
        # the number symmetry reduction is supposed to raise.
        stats["covered_states_per_s"] = int(stats["covered_states"] / elapsed)
    return stats


def _subprocess_entry(conn, config: dict) -> None:
    try:
        conn.send(("ok", _run_workload(config)))
    except Exception as exc:  # pragma: no cover - surfaced by driver
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def measure(config: dict) -> dict:
    """Run one workload in a fresh subprocess (clean RSS high-water).

    Falls back to in-process measurement where processes cannot be
    spawned; the JSON marks which one happened.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = multiprocessing.get_context()
    try:
        parent_conn, child_conn = ctx.Pipe()
        # Not a daemon: parallel workloads spawn their own worker pools.
        process = ctx.Process(
            target=_subprocess_entry, args=(child_conn, config)
        )
        process.start()
    except OSError:  # pragma: no cover - process-less environments
        return {**_run_workload(config), "isolated_process": False}
    child_conn.close()
    status, payload = parent_conn.recv()
    process.join()
    parent_conn.close()
    if status != "ok":
        raise RuntimeError(f"workload {config} failed: {payload}")
    return {**payload, "isolated_process": True}


# ----------------------------------------------------------------------
# The batch-engine axis (standalone-runnable: --only-batch)
# ----------------------------------------------------------------------

def run_batch_section(budget: int) -> dict:
    """The numpy level kernel on the identity class, four modes.

    Each mode's states/s is the numpy kernel's trend line (the
    generated-C kernel has its own section, ``native``).  Conformance is
    asserted inside the section, or the numbers are timing garbage: the
    plain run must report the generic Explorer's states/transitions/
    verdict at the same budget (the Explorer is the loop's independent
    oracle), and the fingerprint modes must report exactly what their
    unfingerprinted twins do.
    """
    identity_class = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    section: dict = {"budget": budget}
    modes = (
        ("plain", {}),
        ("fingerprint", {"fingerprint": True}),
        ("symmetry", {"symmetry": True}),
        ("symmetry_fingerprint", {"symmetry": True, "fingerprint": True}),
    )
    runs = {}
    for label, flags in modes:
        runs[label] = measure({"kind": "fast_single", "budget": budget,
                               "class": identity_class, "kernel": "numpy",
                               **flags})
        section[label] = {"batch": runs[label]}
    oracle = measure({"kind": "generic", "budget": budget})

    def counts(run: dict) -> tuple:
        return run["states"], run["transitions"], run["ok"]

    section["conformant"] = (
        counts(runs["plain"]) == counts(oracle) == counts(runs["fingerprint"])
        and counts(runs["symmetry"]) == counts(runs["symmetry_fingerprint"])
    )
    section["oracle"] = oracle
    section["note"] = (
        "numpy kernel states/s per mode; conformance = plain run equal"
        " to the generic Explorer at the same budget, fingerprint modes"
        " equal to their unfingerprinted twins. Small budgets understate"
        " the batch loop (fixed numpy/table setup amortizes over ~100k+"
        " states)."
    )
    return section


# ----------------------------------------------------------------------
# The composed-reduction axis (standalone-runnable: --only-batch-por)
# ----------------------------------------------------------------------

def run_batch_por_section(budget: int) -> dict:
    """Unreduced vs POR on the identity class, both under symmetry.

    The two biggest reductions composed, measured adjacently.
    ``transitions_cut_batch`` is unreduced transitions over POR
    transitions; CI holds it to an absolute floor.  Conformance is
    verdict-level: both runs must agree on ``ok``; state/transition
    counts legitimately differ.
    """
    identity_class = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    section: dict = {"budget": budget}
    base = {"kind": "fast_single", "budget": budget,
            "class": identity_class, "symmetry": True, "kernel": "numpy"}
    unreduced = measure(base)
    batch_por = measure({**base, "por": True})
    section.update({
        "unreduced": unreduced,
        "batch_por": batch_por,
        "conformant": unreduced["ok"] == batch_por["ok"],
        "transitions_cut_batch": round(
            unreduced["transitions"] / max(1, batch_por["transitions"]), 2
        ),
        "note": (
            "verdict-level conformance by design: the level-synchronous"
            " selector prunes transitions, so state/transition counts"
            " differ from the unreduced run's while the verdict must not."
        ),
    })
    return section


# ----------------------------------------------------------------------
# The native-kernel axis (standalone-runnable: --only-native)
# ----------------------------------------------------------------------

def run_native_section(budget: int) -> dict:
    """Generated-C kernel vs its numpy twin per mode.

    Same identity-class workload and four modes as the ``batch``
    section, with the numpy twin measured *adjacently* to each native
    run — the per-mode ``speedup_vs_numpy`` is the native kernel's
    honest headline.  Conformance is field-level inside the section:
    per mode both runs must report identical states/transitions/verdict
    (kernels are bit-identical by contract) or the numbers are garbage.

    The native kernel needs a C compiler: without one (or with
    ``REPRO_NATIVE_DISABLE=1``) the section records ``available:
    false`` plus the reason and nothing else.
    """
    identity_class = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    section: dict = {"available": False, "budget": budget}
    from repro.checker.native import find_compiler, native_available

    if not native_available():
        section["reason"] = (
            "no C compiler found (or REPRO_NATIVE_DISABLE=1)"
        )
        return section
    section["available"] = True
    section["compiler"] = find_compiler()
    # Warm the on-disk kernel cache (one source per canonicalizer
    # baking, so both the plain and the symmetry-specialized libraries)
    # before timing: compilation is a first-use-only cost (~2 s) and
    # billing it to the first timed mode would skew small budgets.
    for flags in ({}, {"symmetry": True}):
        measure({"kind": "fast_single", "budget": 1000,
                 "class": identity_class, "kernel": "native", **flags})
    modes = (
        ("plain", {}),
        ("fingerprint", {"fingerprint": True}),
        ("symmetry", {"symmetry": True}),
        ("symmetry_fingerprint", {"symmetry": True, "fingerprint": True}),
    )
    speedups = {}
    conformant = True
    for label, flags in modes:
        base = {"kind": "fast_single", "budget": budget,
                "class": identity_class, **flags}
        numpy_run = measure({**base, "kernel": "numpy"})
        native_run = measure({**base, "kernel": "native"})
        same = (
            (numpy_run["states"], numpy_run["transitions"], numpy_run["ok"])
            == (native_run["states"], native_run["transitions"],
                native_run["ok"])
        )
        conformant = conformant and same
        speedup = (
            round(native_run["states_per_s"] / numpy_run["states_per_s"], 2)
            if numpy_run["states_per_s"]
            else None
        )
        speedups[label] = speedup
        section[label] = {
            "numpy": numpy_run,
            "native": native_run,
            "conformant": same,
            "speedup_vs_numpy": speedup,
        }
    section["conformant"] = conformant
    section["speedups_vs_numpy"] = speedups
    real = [s for s in speedups.values() if s is not None]
    section["best_speedup_vs_numpy"] = max(real) if real else None
    section["note"] = (
        "speedup_vs_numpy = native states/s over the numpy batch kernel"
        " on the same workload measured adjacently (the kernels are"
        " field-identical, so this is pure per-state cost); the"
        " generated library is disk-cached, so compile time is excluded"
        " by a warm-up run. Small budgets understate the native kernel"
        " (per-level call overhead amortizes over large frontiers)."
    )
    return section


# ----------------------------------------------------------------------
# The service axis (standalone-runnable: --only-service)
# ----------------------------------------------------------------------

def _service_quiet(line: str) -> None:
    """Spawn-picklable no-op log sink for service workers (a lambda
    would fail to pickle under the spawn start method)."""


def run_service_section(workers: int = 2) -> dict:
    """Coordinator + ``workers`` localhost socket workers vs serial.

    One exhaustive N=2 job (the partition-invariant configuration, so
    the service verdicts and per-class state/transition counts must
    equal the serial engine's bit-for-bit — asserted in-section as
    ``conformant``).  The serial twin is measured adjacently.  Workers
    are separate ``spawn`` processes talking the real wire protocol
    over 127.0.0.1, so ``states_per_s`` here prices the full
    frame-encode/socket/merge round-trip; at N=2 scale that overhead
    dominates and the honest headline is per-worker ``utilization``
    (busy_ms over wall clock), not speedup.
    """
    import tempfile

    from repro.analysis import aggregate_service_statistics

    section: dict = {"workers": workers}
    serial_run = measure(
        {"kind": "fast_classes", "n": 2, "budget": None, "jobs": 1}
    )
    section["serial"] = serial_run

    from repro.service.coordinator import CoordinatorHandle
    from repro.service.jobs import JobSpec
    from repro.service.transport import ServiceClient
    from repro.service.worker import run_worker

    ctx = multiprocessing.get_context("spawn")
    procs = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as state_dir:
        handle = CoordinatorHandle(
            Path(state_dir), log=_service_quiet, ping_every_s=0.2
        )
        try:
            host, port = handle.endpoint
            for index in range(workers):
                proc = ctx.Process(
                    target=run_worker,
                    kwargs=dict(host=host, port=port,
                                name=f"bench-w{index}",
                                emit=_service_quiet),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            spec = JobSpec(n=2, budget=0, shards=2 * workers)
            start = time.perf_counter()
            with ServiceClient.for_state_dir(Path(state_dir)) as client:
                # Submitting before the whole fleet has joined would
                # hand every shard to the first worker (correct, but it
                # would time a 1-worker run under a k-worker label).
                deadline = time.perf_counter() + 30
                while (len(client.workers()) < workers
                       and time.perf_counter() < deadline):
                    time.sleep(0.05)
                job_id = client.submit(spec)
                record = client.wait(job_id, timeout=600)
                elapsed = time.perf_counter() - start
                # Worker stats reach the coordinator via periodic pings
                # that skip busy workers; right after completion the
                # last pong usually predates the job, so wait for a
                # fresh one before snapshotting utilization.
                deadline = time.perf_counter() + 5
                worker_stats = client.workers()
                while (not any(w.get("rounds") for w in worker_stats)
                       and time.perf_counter() < deadline):
                    time.sleep(0.1)
                    worker_stats = client.workers()
        finally:
            handle.stop()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - shutdown raced
                    proc.kill()
                    proc.join()

    rows = [(row["class"], row["result"]) for row in record.rows]
    states = sum(result["states"] for _, result in rows)
    transitions = sum(result["transitions"] for _, result in rows)
    ok = record.state == "done" and all(
        result["violation"] is None for _, result in rows
    )
    stats = aggregate_service_statistics(worker_stats, elapsed)
    conformant = (
        record.state == "done"
        and (states, transitions, ok) == (
            serial_run["states"], serial_run["transitions"],
            serial_run["ok"],
        )
    )
    section["service"] = {
        "states": states,
        "transitions": transitions,
        "ok": ok,
        "classes": len(rows),
        "shards": spec.shards,
        "elapsed_s": round(elapsed, 3),
        "states_per_s": int(states / elapsed) if elapsed > 0 else None,
        "per_worker": [
            {"name": worker.name, "busy_ms": round(worker.busy_ms, 1),
             "rounds": worker.rounds,
             "utilization": round(worker.utilization(elapsed), 3)}
            for worker in stats.workers
        ],
        "mean_utilization": round(stats.mean_utilization, 3),
    }
    section["conformant"] = conformant
    section["overhead_vs_serial"] = (
        round(serial_run["elapsed_s"] / elapsed, 3) if elapsed > 0 else None
    )
    section["note"] = (
        "exhaustive N=2 job: verdicts and counts must equal serial"
        " bit-for-bit (partition-invariant configuration); the state"
        " space is tiny, so elapsed_s prices protocol round-trips, not"
        " exploration — utilization is the honest headline here"
    )
    return section


# ----------------------------------------------------------------------
# The full measurement suite
# ----------------------------------------------------------------------

def run_suite(budget: int, jobs_axis=(1, 2, 4), spill_states=None) -> dict:
    """Measure every fixed workload; returns the BENCH_checker payload.

    ``spill_states`` sizes the ``store.spill_memcap`` workload (default:
    5x the budget; the acceptance run uses 5M states, where the 200 MB
    cap is actually load-bearing).
    """
    single_cpu = os.cpu_count() == 1
    sweep = {}
    for jobs in jobs_axis:
        label = "serial" if jobs == 1 else f"jobs{jobs}"
        if jobs > 1 and single_cpu:
            # Workers get capped to one core anyway; timing the fork/IPC
            # overhead would only pollute the cross-PR trend lines.
            sweep[label] = {"skipped": "single-cpu host",
                           "jobs_requested": jobs}
            continue
        sweep[label] = measure(
            {"kind": "fast_classes", "budget": budget, "jobs": jobs}
        )
    sweep["serial_fingerprint"] = measure(
        {"kind": "fast_classes", "budget": budget, "jobs": 1,
         "fingerprint": True}
    )
    sharded_jobs = max(jobs_axis)
    sweep["sharded"] = measure(
        {"kind": "fast_sharded", "budget": budget * 2, "jobs": sharded_jobs}
    )
    sweep["sharded"]["jobs"] = sharded_jobs

    # Memory axis: the object-encoded explorer at budget B vs the
    # fingerprint engines at 5B — the "5x more states in the same
    # envelope" check rides on workload_rss_bytes.
    memory = {
        "generic_full": measure({"kind": "generic", "budget": budget}),
        "generic_fingerprint_5x": measure(
            {"kind": "generic", "budget": budget * 5, "fingerprint": True}
        ),
        "fast_full": measure({"kind": "fast_single", "budget": budget * 5}),
        "fast_fingerprint_5x": measure(
            {"kind": "fast_single", "budget": budget * 5, "fingerprint": True}
        ),
    }

    # Symmetry axis: the quotient construction (PR 2) on the two
    # flagship single-class workloads plus the serial sweep, each at the
    # same state budget as its unreduced twin.  ``reduction_ratio`` is
    # concrete-states-covered per state explored; ``net_speedup`` is
    # *effective* throughput (covered states per second, i.e. including
    # the canonicalization cost) vs the unreduced run's states/s.
    identity_class = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    symmetry = {}
    for label, wiring in (
        ("identity_class", identity_class),
        ("reference_class", _REFERENCE_CLASS),
    ):
        base = measure(
            {"kind": "fast_single", "budget": budget, "class": wiring}
        )
        reduced = measure(
            {"kind": "fast_single", "budget": budget, "class": wiring,
             "symmetry": True}
        )
        symmetry[label] = {
            "unreduced": base,
            "reduced": reduced,
            "reduction_ratio": reduced["reduction_ratio"],
            "net_speedup": (
                round(reduced["covered_states_per_s"] / base["states_per_s"], 3)
                if base["states_per_s"]
                else None
            ),
        }
    sweep_reduced = measure(
        {"kind": "fast_classes", "budget": budget, "jobs": 1,
         "symmetry": True}
    )
    symmetry["sweep_serial"] = {
        "reduced": sweep_reduced,
        "reduction_ratio": sweep_reduced["reduction_ratio"],
        "net_speedup": (
            round(
                sweep_reduced["covered_states_per_s"]
                / sweep["serial"]["states_per_s"], 3
            )
            if sweep["serial"]["states_per_s"]
            else None
        ),
        "note": (
            "per-class stabilizers complete the configuration-level"
            " symmetry group |S_3 x S_3| = 36: the sweep already"
            " explores 10 canonical classes instead of 216 concrete"
            " wirings, and each class's multiplicity is exactly"
            " 36 / |stabilizer| (sum over the 10 classes = 216), so the"
            " class quotient and the per-class state quotient are the"
            " two factors of one 36-fold reduction"
        ),
    }

    # Store axis: the reference class against every visited-set backend
    # at the same budget — identical exploration, different residence.
    # ``spill_memcap`` then runs the spill backend under a hard 200 MB
    # cap; ``rss_under_cap`` is the disk-backed promise (only meaningful
    # once the run is big enough that a RAM set would blow the cap —
    # the acceptance run uses --spill-states 5000000).
    store = {}
    for backend in ("ram", "mmap", "spill"):
        store[backend] = measure(
            {"kind": "fast_single", "budget": budget, "store": backend}
        )
    store_conformant = (
        len({
            (store[b]["states"], store[b]["transitions"], store[b]["ok"])
            for b in ("ram", "mmap", "spill")
        }) == 1
    )
    memcap = 200 * 1024 * 1024
    spill_target = spill_states if spill_states is not None else budget * 5
    spill_entry = measure(
        {"kind": "fast_single", "budget": spill_target, "store": "spill",
         "mem_cap": memcap, "fingerprint": True}
    )
    spill_entry["mem_cap_bytes"] = memcap
    spill_entry["rss_under_cap"] = (
        spill_entry["workload_rss_bytes"] <= memcap
    )
    store["spill_memcap"] = spill_entry
    store["conformant"] = store_conformant

    # POR axis: the exhaustive N=2 class sweep in all four
    # por x symmetry combinations.  The acceptance bar: identical
    # verdicts and violation sets, >= 2x fewer transitions with
    # --por --symmetry than unreduced.
    por = {}
    for label, flags in (
        ("baseline", {}),
        ("symmetry", {"symmetry": True}),
        ("por", {"por": True}),
        ("por_symmetry", {"por": True, "symmetry": True}),
    ):
        por[label] = measure(
            {"kind": "fast_classes", "n": 2, "budget": None, "jobs": 1,
             **flags}
        )
    por_labels = ("baseline", "symmetry", "por", "por_symmetry")
    por["verdicts_identical"] = (
        len({por[label]["ok"] for label in por_labels}) == 1
        and len({
            tuple(por[label]["violations"]) for label in por_labels
        }) == 1
    )
    por["transitions_cut_por_symmetry_vs_baseline"] = round(
        por["baseline"]["transitions"]
        / max(1, por["por_symmetry"]["transitions"]), 2
    )
    por["transitions_cut_por_vs_baseline"] = round(
        por["baseline"]["transitions"] / max(1, por["por"]["transitions"]), 2
    )

    serial = sweep["serial"]
    best_label = max(
        (label for label in sweep
         if label.startswith("jobs") and "skipped" not in sweep[label]),
        key=lambda label: sweep[label]["states_per_s"] or 0,
        default=None,
    )
    derived = {
        "sweep_budget_per_class": budget,
        "speedup_best_parallel_vs_serial": (
            round(
                sweep[best_label]["states_per_s"] / serial["states_per_s"], 3
            )
            if best_label and serial["states_per_s"]
            else None
        ),
        "fingerprint_states_in_generic_envelope": {
            "generic_states": memory["generic_full"]["states"],
            "fingerprint_states": memory["fast_fingerprint_5x"]["states"],
            "ratio": round(
                memory["fast_fingerprint_5x"]["states"]
                / max(1, memory["generic_full"]["states"]), 2
            ),
            "generic_workload_rss_bytes":
                memory["generic_full"]["workload_rss_bytes"],
            "fingerprint_workload_rss_bytes":
                memory["fast_fingerprint_5x"]["workload_rss_bytes"],
        },
    }
    return {
        "sweep": sweep, "memory": memory, "symmetry": symmetry,
        "store": store, "por": por, "batch": run_batch_section(budget),
        "batch_por": run_batch_por_section(budget),
        "native": run_native_section(budget),
        "derived": derived,
    }


# ----------------------------------------------------------------------
# Pytest entry points
# ----------------------------------------------------------------------

def test_e15_serial_sweep_throughput(benchmark):
    from repro.checker.parallel import check_snapshot_classes

    rows = benchmark.pedantic(
        lambda: check_snapshot_classes(3, budget=E15_BUDGET, jobs=1),
        rounds=1, iterations=1,
    )
    assert all(result.ok for _, result in rows)
    total = sum(result.states for _, result in rows)
    benchmark.extra_info["total_states"] = total
    emit("", f"E15a — serial N=3 sweep: {total} states"
             f" at budget {E15_BUDGET}/class")


def test_e15_parallel_sweep_matches_serial(benchmark):
    from repro.checker.parallel import check_snapshot_classes

    serial = check_snapshot_classes(3, budget=E15_BUDGET, jobs=1)
    rows = benchmark.pedantic(
        lambda: check_snapshot_classes(3, budget=E15_BUDGET, jobs=2),
        rounds=1, iterations=1,
    )
    assert [
        (wiring, result.states, result.transitions, result.ok)
        for wiring, result in serial
    ] == [
        (wiring, result.states, result.transitions, result.ok)
        for wiring, result in rows
    ]
    emit("", "E15b — jobs=2 sweep identical to serial"
             f" ({len(rows)} classes)")


def test_e15_write_bench_json(benchmark):
    """Measure the full suite and write BENCH_checker.json."""
    budget = min(E15_BUDGET, 20_000)  # keep the pytest path quick
    payload = benchmark.pedantic(
        lambda: run_suite(budget), rounds=1, iterations=1
    )
    assert all(
        entry["ok"]
        for entry in payload["sweep"].values()
        if "skipped" not in entry
    )
    assert all(entry["ok"] for entry in payload["memory"].values())
    envelope = payload["derived"]["fingerprint_states_in_generic_envelope"]
    assert envelope["ratio"] >= 5.0
    assert (
        envelope["fingerprint_workload_rss_bytes"]
        <= max(envelope["generic_workload_rss_bytes"], 1)
    )
    identity = payload["symmetry"]["identity_class"]
    assert identity["reduced"]["ok"] and identity["unreduced"]["ok"]
    # The acceptance bar: the flagship config explores >= 3x fewer
    # states for the same concrete coverage.
    assert identity["reduction_ratio"] >= 3.0
    # All three store backends must have reported identical exploration.
    store = payload["store"]
    assert store["conformant"], {
        backend: (store[backend]["states"], store[backend]["transitions"])
        for backend in ("ram", "mmap", "spill")
    }
    spill_entry = store["spill_memcap"]
    assert spill_entry["ok"]
    # The disk-backed promise is only load-bearing at acceptance scale
    # (>= 5M states, where a RAM set would dwarf the 200 MB cap).
    if spill_entry["states"] >= 5_000_000:
        assert spill_entry["rss_under_cap"], spill_entry
    # POR acceptance: identical verdicts across all four por x symmetry
    # combinations, and the composed reduction cuts transitions >= 2x.
    por = payload["por"]
    assert por["verdicts_identical"], por
    assert por["transitions_cut_por_symmetry_vs_baseline"] >= 2.0, por
    # Batch loop: agrees with the Explorer oracle at every budget.
    batch = payload["batch"]
    assert batch["conformant"], batch
    # Composed reduction: verdict conformance is unconditional.
    batch_por = payload["batch_por"]
    assert batch_por["conformant"], batch_por
    # Native kernel: field-level conformance wherever a compiler exists;
    # the >= 2x-over-numpy bar is an acceptance-scale assertion.
    native = payload["native"]
    if native["available"]:
        assert native["conformant"], native
        if budget >= 200_000:
            assert native["best_speedup_vs_numpy"] >= 2.0, (
                native["speedups_vs_numpy"]
            )
    path = write_checker_bench(payload)
    emit("", f"E15c — BENCH_checker.json written: {path}",
         f"  best parallel speedup vs serial:"
         f" {payload['derived']['speedup_best_parallel_vs_serial']}x",
         f"  fingerprint envelope ratio: {envelope['ratio']}x states",
         f"  symmetry identity-class reduction:"
         f" {identity['reduction_ratio']}x"
         f" (net {identity['net_speedup']}x effective throughput)",
         f"  store backends conformant: {store['conformant']};"
         f" spill_memcap rss delta"
         f" {spill_entry['workload_rss_bytes'] // (1024 * 1024)} MiB"
         f" / cap {spill_entry['mem_cap_bytes'] // (1024 * 1024)} MiB")


# ----------------------------------------------------------------------
# Standalone: python benchmarks/bench_e15_checker_throughput.py
# ----------------------------------------------------------------------

def _print_batch_section(batch: dict) -> None:
    for label in ("plain", "fingerprint", "symmetry", "symmetry_fingerprint"):
        print(f"  batch/{label}:"
              f" {batch[label]['batch']['states_per_s']} st/s")
    print(f"  batch: Explorer oracle {batch['oracle']['states_per_s']}"
          f" st/s; conformant: {batch['conformant']}")


def _print_batch_por_section(section: dict) -> None:
    print(f"  batch_por: unreduced"
          f" {section['unreduced']['states_per_s']} st/s, por"
          f" {section['batch_por']['states_per_s']} st/s; transition cut"
          f" {section['transitions_cut_batch']}x;"
          f" verdicts conformant: {section['conformant']}")


def _print_native_section(section: dict) -> None:
    if not section.get("available"):
        print(f"  native: unavailable ({section.get('reason', '?')});"
              f" nothing measured")
        return
    for label in ("plain", "fingerprint", "symmetry", "symmetry_fingerprint"):
        entry = section[label]
        print(f"  native/{label}: numpy"
              f" {entry['numpy']['states_per_s']} st/s vs native"
              f" {entry['native']['states_per_s']} st/s ="
              f" {entry['speedup_vs_numpy']}x"
              f" (conformant: {entry['conformant']})")
    print(f"  native: compiler {section['compiler']},"
          f" best {section['best_speedup_vs_numpy']}x vs numpy,"
          f" all modes conformant: {section['conformant']}")


def _print_service_section(section: dict) -> None:
    service = section["service"]
    print(f"  service: {section['workers']} worker(s),"
          f" {service['classes']} classes / {service['shards']} shards,"
          f" {service['states']} states in {service['elapsed_s']} s"
          f" ({service['states_per_s']} st/s; serial twin"
          f" {section['serial']['elapsed_s']} s);"
          f" conformant: {section['conformant']}")
    for worker in service["per_worker"]:
        print(f"    {worker['name']}: {worker['rounds']} rounds,"
              f" busy {worker['busy_ms']} ms,"
              f" utilization {worker['utilization']}")
    print(f"  service mean utilization: {service['mean_utilization']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=E15_BUDGET,
                        help="states per wiring class (sweep axis)")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4],
                        help="parallelism axis, e.g. --jobs 1 2 4")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: repo BENCH_checker.json)")
    parser.add_argument("--spill-states", type=int, default=5_000_000,
                        help="states for the store.spill_memcap workload"
                             " (acceptance scale: 5M under a 200 MB cap)")
    parser.add_argument("--only-batch", action="store_true",
                        help="measure only the numpy batch-kernel"
                             " section and merge it into the existing"
                             " BENCH_checker.json (other sections are"
                             " left untouched)")
    parser.add_argument("--only-native", action="store_true",
                        help="measure only the native-kernel section"
                             " (generated-C vs numpy batch kernel,"
                             " adjacent per mode) and merge it"
                             " into the existing BENCH_checker.json")
    parser.add_argument("--only-batch-por", action="store_true",
                        help="measure only the composed batch+POR"
                             " section (unreduced vs por, both with"
                             " symmetry) and merge it into the"
                             " existing BENCH_checker.json")
    parser.add_argument("--only-service", action="store_true",
                        help="measure only the distributed-service"
                             " section (coordinator + local socket"
                             " workers vs serial on the exhaustive N=2"
                             " sweep) and merge it into the existing"
                             " BENCH_checker.json")
    parser.add_argument("--service-workers", type=int, default=2,
                        help="worker processes for the --only-service"
                             " section")
    args = parser.parse_args(argv)

    if args.only_service:
        section = run_service_section(workers=args.service_workers)
        path = write_checker_bench({"service": section}, path=args.out)
        print(f"wrote {path}")
        _print_service_section(section)
        return 0 if section["conformant"] else 1

    if args.only_native:
        section = run_native_section(args.budget)
        path = write_checker_bench({"native": section}, path=args.out)
        print(f"wrote {path}")
        _print_native_section(section)
        if not section["available"]:
            return 0
        return 0 if section["conformant"] else 1

    if args.only_batch:
        batch = run_batch_section(args.budget)
        path = write_checker_bench({"batch": batch}, path=args.out)
        print(f"wrote {path}")
        _print_batch_section(batch)
        return 0 if batch["conformant"] else 1

    if args.only_batch_por:
        section = run_batch_por_section(args.budget)
        path = write_checker_bench({"batch_por": section}, path=args.out)
        print(f"wrote {path}")
        _print_batch_por_section(section)
        return 0 if section["conformant"] else 1

    payload = run_suite(args.budget, jobs_axis=tuple(args.jobs),
                        spill_states=args.spill_states)
    path = write_checker_bench(payload, path=args.out)
    print(f"wrote {path}")
    for label, entry in payload["sweep"].items():
        if "skipped" in entry:
            print(f"  sweep/{label}: skipped ({entry['skipped']})")
            continue
        print(f"  sweep/{label}: {entry['states']} states,"
              f" {entry['states_per_s']} states/s,"
              f" rss {entry['workload_rss_bytes'] // 1024} KiB,"
              f" ok={entry['ok']}")
    for label, entry in payload["memory"].items():
        print(f"  memory/{label}: {entry['states']} states,"
              f" rss {entry['workload_rss_bytes'] // 1024} KiB")
    for label, entry in payload["symmetry"].items():
        reduced = entry["reduced"]
        print(f"  symmetry/{label}: {reduced['states']} representatives"
              f" cover {reduced['covered_states']} states"
              f" ({entry['reduction_ratio']}x reduction,"
              f" net {entry['net_speedup']}x effective throughput)")
    envelope = payload["derived"]["fingerprint_states_in_generic_envelope"]
    print(f"  fingerprint vs object-encoded envelope:"
          f" {envelope['ratio']}x states")
    store = payload["store"]
    for backend in ("ram", "mmap", "spill"):
        entry = store[backend]
        print(f"  store/{backend}: {entry['states']} states,"
              f" {entry['states_per_s']} states/s,"
              f" rss {entry['workload_rss_bytes'] // 1024} KiB,"
              f" disk {entry['store']['file_bytes'] // 1024} KiB")
    spill_entry = store["spill_memcap"]
    print(f"  store/spill_memcap: {spill_entry['states']} states,"
          f" rss delta {spill_entry['workload_rss_bytes'] // (1024 * 1024)}"
          f" MiB / cap {spill_entry['mem_cap_bytes'] // (1024 * 1024)} MiB"
          f" (under cap: {spill_entry['rss_under_cap']}),"
          f" disk {spill_entry['store']['file_bytes'] // (1024 * 1024)} MiB")
    print(f"  store backends conformant: {store['conformant']}")
    por = payload["por"]
    print(f"  por: N=2 exhaustive sweep, verdicts identical across"
          f" por x symmetry: {por['verdicts_identical']};"
          f" transitions cut {por['transitions_cut_por_vs_baseline']}x"
          f" (por) / {por['transitions_cut_por_symmetry_vs_baseline']}x"
          f" (por+symmetry)")
    _print_batch_section(payload["batch"])
    _print_batch_por_section(payload["batch_por"])
    _print_native_section(payload["native"])
    ok = all(
        e["ok"] for e in payload["sweep"].values() if "skipped" not in e
    )
    ok = ok and por["verdicts_identical"]
    ok = ok and por["transitions_cut_por_symmetry_vs_baseline"] >= 2.0
    ok = ok and store["conformant"] and spill_entry["ok"]
    ok = ok and payload["batch"]["conformant"]
    ok = ok and payload["batch_por"]["conformant"]
    if payload["native"]["available"]:
        ok = ok and payload["native"]["conformant"]
    if spill_entry["states"] >= 5_000_000:
        ok = ok and spill_entry["rss_under_cap"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
