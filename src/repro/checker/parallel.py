"""Multi-core exploration: the reproduction's parallel TLC engine.

TLC is a *parallel* fingerprint-set explorer; this module gives the
reproduction the same architecture on top of ``multiprocessing``, at
two grains:

**Across wiring classes** (:func:`check_snapshot_classes`) — experiment
E4's natural unit of work.  Each canonical wiring class (from
:func:`~repro.checker.fast_snapshot.canonical_wiring_classes`) is an
independent exhaustive/budgeted exploration, so a pool of workers
sweeps classes with zero coordination; results come back in class order
regardless of completion order, so the merged report is deterministic.

**Within one class** (:func:`explore_sharded`) — frontier-sharded BFS
for the day one class outgrows a single core.  Every state is owned by
the shard ``fingerprint_int(state) % jobs`` (the deterministic packed
-integer fingerprint, *not* Python's randomized object hash, so all
workers — even spawn-started ones — agree on ownership).  Workers hold
the visited set of their own shard only and expand one BFS layer per
round; everything between rounds is decided by
:class:`~repro.checker.rounds.RoundDriver`, the state machine the
service coordinator drives too, so two runs with the same ``jobs``
produce identical results over pipes or sockets.

Exhaustive runs are partition-invariant: the sharded engine reports
exactly the serial engine's ``(states, transitions, ok)`` because both
count each distinct state once and each generated successor once.
Budgeted runs stop at a BFS-layer boundary (the first round whose
admissions reach the budget), which is deterministic for a fixed
``jobs`` but may admit slightly more than ``max_states``.

Everything degrades gracefully: ``jobs=1`` (or an environment without
usable ``multiprocessing``) runs the serial loop in-process with
identical semantics.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checker import batch as batch_mod
from repro.checker.fast_snapshot import (
    FastExplorationResult,
    FastSnapshotSpec,
    canonical_wiring_classes,
    require_batch_engine,
)
from repro.checker.rounds import (
    Finish,
    RoundDriver,
    ShardReply,
    WorkerDied,
    WriteCheckpoint,
)
from repro.store.base import StoreConfig
from repro.store.checkpoint import (
    RunCheckpointer,
    SweepCheckpoint,
    load_result,
    read_u64_file,
    write_u64_chunks,
)

if TYPE_CHECKING:
    from repro.store.base import U64Array

WiringClass = Tuple[Tuple[int, ...], ...]


def class_key(wiring: WiringClass) -> str:
    """Stable identifier of a canonical wiring class (sweep checkpoints)."""
    return ";".join(",".join(str(r) for r in perm) for perm in wiring)


def kernel_label(kernel: str = "auto") -> str:
    """Heartbeat/progress tag naming the effective level kernel.

    The ``auto``/``native`` request is resolved to what will actually
    run on this host so progress lines are truthful even after a silent
    numpy fallback.
    """
    try:
        from repro.checker.native.loader import resolve_kernel

        effective = resolve_kernel(kernel)
    except Exception:  # pragma: no cover - defensive; label only
        effective = kernel
    return f"kernel={effective}"


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------

def _mp_context():
    """Prefer fork (cheap, inherits the interpreter) when available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def effective_jobs(requested: int) -> int:
    """Cap a worker count at the host's usable core count, warning once.

    Oversubscription is a measured regression, not a no-op: the PR 1
    bench on a 1-CPU host recorded ``jobs=2``/``jobs=4`` sweeps *slower*
    than serial, because extra workers add fork + IPC cost without any
    added parallelism.  Both parallel entry points route through this
    cap; benchmarks record the capped value next to the requested one.
    """
    available = os.cpu_count() or 1
    if requested > available:
        warnings.warn(
            f"jobs={requested} exceeds the {available} usable core(s);"
            f" capping to {available} — oversubscribed workers are pure"
            " fork/IPC overhead (see BENCH_checker.json jobs regression)",
            RuntimeWarning,
            stacklevel=2,
        )
        return available
    return max(1, requested)


def ordered_parallel_map(func, items: Sequence, jobs: int) -> List:
    """``[func(x) for x in items]`` fanned over ``jobs`` processes.

    Results keep the input order (determinism), one item per task
    (exploration tasks are coarse and uneven).  Falls back to the
    serial comprehension when ``jobs <= 1``, for single-item inputs,
    or when worker processes cannot be created in this environment.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    ctx = _mp_context()
    try:
        pool = ctx.Pool(processes=min(jobs, len(items)))
    except OSError:  # pragma: no cover - sandboxed/fork-less hosts
        return [func(item) for item in items]
    with pool:
        return pool.map(func, items, chunksize=1)


# ----------------------------------------------------------------------
# Grain 1: one worker per canonical wiring class
# ----------------------------------------------------------------------

def _class_store(
    store: Optional[StoreConfig], index: int
) -> Optional[StoreConfig]:
    """Per-class namespace of a shared store configuration.

    Classes explore concurrently, so disk-backed classes must not share
    table/run files; an explicit directory gets a per-class
    subdirectory, and a temp-backed config stays as-is (every create()
    mints a fresh temp directory anyway).
    """
    if store is None or store.backend == "ram" or store.directory is None:
        return store
    return replace(
        store, directory=str(Path(store.directory) / f"class-{index:03d}")
    )


def _explore_class_task(
    task: Tuple[
        int, Tuple[int, ...], WiringClass, Optional[int], int, bool, bool,
        bool, Optional[StoreConfig], bool, str, Optional[float],
    ],
) -> Tuple[int, FastExplorationResult]:
    (index, inputs, wiring, level_target, max_states, check_safety,
     fingerprint, symmetry, store, por, kernel, heartbeat_every) = task
    heartbeat = None
    if heartbeat_every is not None:
        from repro.service.heartbeat import Heartbeat

        # Per-class heartbeats are labelled so interleaved lines from a
        # parallel sweep stay attributable (floats cross the task tuple;
        # Heartbeat itself holds an unpicklable emit callable).  The
        # label names the effective kernel so long campaign logs are
        # self-describing.
        heartbeat = Heartbeat(
            heartbeat_every,
            label=f"class-{index:03d} {kernel_label(kernel)}",
        )
    spec = FastSnapshotSpec(inputs, wiring, level_target=level_target)
    result = spec.explore(
        max_states=max_states,
        check_safety=check_safety,
        fingerprint=fingerprint,
        symmetry=symmetry,
        store=_class_store(store, index),
        por=por,
        kernel=kernel,
        heartbeat=heartbeat,
    )
    return index, result


def check_snapshot_classes(
    n_processors: int,
    n_registers: Optional[int] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
    check_safety: bool = True,
    fingerprint: bool = False,
    level_target: Optional[int] = None,
    inputs: Optional[Sequence[int]] = None,
    symmetry: bool = False,
    store: Optional[StoreConfig] = None,
    sweep_dir: Optional[str] = None,
    sweep_meta: Optional[Dict] = None,
    por: bool = False,
    engine: str = "batch",
    kernel: str = "auto",
    heartbeat_every: Optional[float] = None,
) -> List[Tuple[WiringClass, FastExplorationResult]]:
    """Sweep every canonical wiring class, ``jobs`` classes at a time.

    The parallel entry point behind experiment E4's N=3 sweep and
    ``python -m repro check --jobs N``.  Returns ``(wiring, result)``
    pairs in canonical class order whatever the completion order, so
    reports and verdicts are byte-identical across ``jobs`` settings.
    ``jobs`` is capped at the host's core count (:func:`effective_jobs`);
    with ``symmetry`` each class explores orbit representatives under
    its wiring-stabilizer group and reports ``covered_states``.

    ``por`` turns on ample-set partial-order reduction inside every
    class exploration (:mod:`repro.checker.por`); verdicts are
    unchanged, per-class ``por_counters`` report the pruning.

    ``kernel`` selects each class's level kernel
    (``auto``/``numpy``/``native``; bit-identical results).  ``engine``
    accepts only ``"batch"``, the default; any other value raises
    :class:`ValueError` naming the removed scalar loop.

    ``store`` selects each class's visited-set backend (disk-backed
    classes are namespaced per class under the store directory).  With
    ``sweep_dir`` the sweep is checkpointed at class granularity: each
    finished class's result is recorded in ``classes.json`` as it
    lands, and a re-run over the same directory replays recorded
    classes and explores only the remainder; ``sweep_meta`` (the run's
    semantic configuration) is validated against the directory's
    ``meta.json`` so incomparable sweeps cannot be mixed.
    """
    require_batch_engine(engine)
    registers = n_registers if n_registers is not None else n_processors
    classes = canonical_wiring_classes(n_processors, registers)
    chosen_inputs = (
        tuple(inputs)
        if inputs is not None
        else tuple(range(1, n_processors + 1))
    )
    max_states = budget if budget is not None else 10 ** 9
    sweep = (
        SweepCheckpoint(Path(sweep_dir), meta=sweep_meta)
        if sweep_dir is not None
        else None
    )
    results: List[Optional[FastExplorationResult]] = [None] * len(classes)
    pending: List[int] = []
    for index, wiring in enumerate(classes):
        recorded = sweep.get(class_key(wiring)) if sweep is not None else None
        if recorded is not None:
            results[index] = load_result(FastExplorationResult, recorded)
        else:
            pending.append(index)
    tasks = [
        (index, chosen_inputs, classes[index], level_target, max_states,
         check_safety, fingerprint, symmetry, store, por, kernel,
         heartbeat_every)
        for index in pending
    ]
    for index, result in _run_class_tasks(tasks, effective_jobs(jobs)):
        results[index] = result
        if sweep is not None:
            sweep.record(class_key(classes[index]), asdict(result))
    assert all(result is not None for result in results)
    return list(zip(classes, results))


def _run_class_tasks(tasks: List, jobs: int):
    """Yield ``(index, result)`` per task as soon as each completes.

    Incremental completion (``imap_unordered``) is what lets the sweep
    checkpoint record every finished class even if the process dies
    before the sweep ends; order is restored by the caller's index.
    """
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _explore_class_task(task)
        return
    ctx = _mp_context()
    try:
        pool = ctx.Pool(processes=min(jobs, len(tasks)))
    except OSError:  # pragma: no cover - sandboxed/fork-less hosts
        for task in tasks:
            yield _explore_class_task(task)
        return
    with pool:
        yield from pool.imap_unordered(_explore_class_task, tasks, chunksize=1)


# ----------------------------------------------------------------------
# Grain 2: frontier-sharded BFS within one wiring class
# ----------------------------------------------------------------------

class ShardEngine:
    """One frontier shard's exploration state, transport-agnostic.

    Owns states with ``fp(state) % n_shards == shard``.  This class is
    the *engine* half of a shard worker: it holds the shard's visited
    set, canonicalizer, level kernel, and ample selector, and processes
    one BFS round at a time.  The *transport* half — how rounds arrive
    and layer replies leave — is supplied by the caller: the pipe-based
    :func:`_shard_worker` (multiprocessing, same host) and the
    socket-based service worker (:mod:`repro.service.worker`, any host)
    both drive the same engine, so the two transports cannot diverge
    semantically.

    :meth:`process_round` admits a round's new entries into the visited
    set, expands that BFS layer, and returns a
    :class:`~repro.checker.rounds.ShardReply`: ``outboxes`` maps each
    shard id to the u64 array of successor entries it owns and ``por``
    is the shard's *cumulative* reduction statistics (``None`` without
    ``por``).  For checkpointing, :meth:`dump_to` writes the visited
    keys to a u64 file and :meth:`load_from` bulk-loads a previous
    dump; :meth:`visited_keys` / :meth:`load_keys` do the same through
    memory for transports that move dumps over the wire instead of a
    shared filesystem.

    The visited set lives in the configured :mod:`repro.store` backend,
    namespaced per shard (``shard-NNN/`` by default;
    ``store_namespace`` overrides it so a service worker re-assigned a
    shard at a new epoch never collides with stale on-disk files).

    Each round runs as numpy u64 arrays end to end — admission dedup,
    safety mask, successor expansion, canonicalization, ownership
    fingerprints, and the outboxes themselves — on the level kernel
    :func:`repro.checker.batch.make_kernel` builds (``kernel``).

    Wire format: every boundary state travels as ``(state << 1) |
    canonical_bit``.  The bit asserts the sender already put the state
    in canonical form, letting the receiver skip re-canonicalizing it
    — ``skipped`` counts those skips (0 outside symmetry runs).  States
    without the bit are canonicalized on receipt, so the protocol stays
    correct for any mix.

    With ``symmetry`` every successor is canonicalized *before* the
    ownership fingerprint, so each orbit has exactly one owning shard
    and the union of shard visited-sets is the quotient graph; the
    driver canonicalizes the initial state with the same group.
    ``covered`` then sums the orbit sizes of this layer's admissions
    (``None`` otherwise).

    With ``por`` the shard runs the level-synchronous
    :class:`~repro.checker.batch.BatchAmpleSelector` over each round's
    admissions; the per-round masks drive the masked ``expand_level``,
    so shards never re-expand pruned transitions.  The cycle proviso
    (C3) only trusts *locally decidable* novelty: a successor counts as
    certainly-new exactly when this shard owns it (canonical-form
    fingerprint mod ``n_shards``), it is absent from this shard's
    visited set, and it is its key's first occurrence in the round's
    candidate pool; foreign-owned successors are pessimistically
    treated as possibly-visited, which can only force extra full
    expansions, never unsound pruning.
    """

    def __init__(
        self,
        inputs: Sequence[int],
        wiring: WiringClass,
        level_target: Optional[int],
        shard: int,
        n_shards: int,
        check_safety: bool,
        fingerprint: bool,
        symmetry: bool = False,
        store_config: Optional[StoreConfig] = None,
        por: bool = False,
        kernel: str = "auto",
        store_namespace: Optional[str] = None,
    ) -> None:
        self.shard = shard
        self.n_shards = n_shards
        self.check_safety = check_safety
        self.fingerprint = fingerprint
        self.symmetry = symmetry
        spec = FastSnapshotSpec(
            tuple(inputs), wiring, level_target=level_target
        )
        self.spec = spec
        canonicalizer = None
        if symmetry:
            from repro.checker.symmetry import FastCanonicalizer

            canonicalizer = FastCanonicalizer(spec)
            if canonicalizer.trivial:
                canonicalizer = None
        self.canonicalizer = canonicalizer
        self.seen = (store_config or StoreConfig()).create(
            shard=store_namespace or f"shard-{shard:03d}"
        )
        self.kernel = batch_mod.make_kernel(spec, kernel, canonicalizer)
        self.batch_canon = self.kernel.make_canonicalizer(canonicalizer)
        self.batch_selector = (
            batch_mod.BatchAmpleSelector(
                self.kernel, check_safety=check_safety
            )
            if por
            else None
        )

    # -- POR helpers ---------------------------------------------------

    def _batch_key_of(self, states):
        if self.batch_canon is not None:
            states = self.batch_canon.canonical_many(states)
        return (
            self.kernel.fingerprint_many(states)
            if self.fingerprint
            else states
        )

    def _batch_in_visited(self, keys):
        # Sharded C3, vectorized: certainly new means locally owned
        # AND absent from this shard's visited set, so "possibly
        # visited" is foreign-owned OR present.  In fingerprint mode
        # the key already is the ownership digest; otherwise it is the
        # canonical state and the digest is recomputed.
        fps = (
            keys
            if self.fingerprint
            else self.kernel.fingerprint_many(keys)
        )
        foreign = (fps % np.uint64(self.n_shards)) != np.uint64(self.shard)
        present = np.asarray(self.seen.contains_many(keys), dtype=bool)
        return foreign | present

    # -- checkpoint plumbing -------------------------------------------

    def dump_to(self, path: Path) -> int:
        """Stream the shard's visited keys to ``path`` as a u64 array."""
        return write_u64_chunks(Path(path), self.seen.chunks())

    def load_from(self, path: Path) -> int:
        """Bulk-load a previous :meth:`dump_to` file (resume)."""
        return self.seen.load(read_u64_file(Path(path)))

    def visited_keys(self) -> "U64Array":
        """The visited keys as one u64 array (wire-transported
        checkpoints), in :meth:`dump_to` order."""
        return np.concatenate([np.zeros(0, dtype=np.uint64)] + [
            np.asarray(chunk, dtype=np.uint64) for chunk in self.seen.chunks()
        ])

    def load_keys(self, keys: Sequence[int]) -> int:
        """Bulk-load visited keys received over a transport."""
        return self.seen.load(keys)

    def close(self) -> None:
        self.seen.close()

    # -- one BFS round -------------------------------------------------

    def process_round(self, batch):
        """Admit + expand one round; see the class docstring for fields."""
        kernel = self.kernel
        batch_canon = self.batch_canon
        entries = np.asarray(batch, dtype=np.uint64)
        states = entries >> np.uint64(1)
        skipped = 0
        if self.canonicalizer is not None:
            certified = (entries & np.uint64(1)) == 1
            skipped = int(certified.sum())
            if batch_canon is not None and not bool(certified.all()):
                states = states.copy()
                states[~certified] = batch_canon.canonical_many(
                    states[~certified]
                )
        keys = (
            kernel.fingerprint_many(states)
            if self.fingerprint
            else states
        )
        unique_keys, first_occ = kernel.unique_first(keys)
        present = np.asarray(
            self.seen.contains_many(unique_keys), dtype=bool
        )
        admit_pos = np.sort(first_occ[~present])
        admitted_arr = states[admit_pos]
        self.seen.add_many(keys[admit_pos])
        n_admitted = int(admitted_arr.size)
        covered = None
        if self.symmetry:
            covered = (
                int(batch_canon.orbit_sizes(admitted_arr).sum())
                if batch_canon is not None
                else n_admitted
            )
        violation = None
        if self.check_safety and n_admitted:
            _, violation = batch_mod._first_violation(
                self.spec, kernel, admitted_arr
            )
        transitions = 0
        outboxes = {}
        if violation is None and n_admitted:
            if self.batch_selector is not None:
                ample = self.batch_selector.select(
                    admitted_arr, self._batch_key_of, self._batch_in_visited
                )
                successors, _counts = kernel.expand_level(admitted_arr, ample)
            else:
                successors, _counts = kernel.expand_level(admitted_arr)
            transitions = int(successors.size)
            if batch_canon is not None:
                successors = batch_canon.canonical_many(successors)
            canonical_bit = (
                np.uint64(1) if batch_canon is not None else np.uint64(0)
            )
            owners = kernel.fingerprint_many(successors) % np.uint64(
                self.n_shards
            )
            wire = (successors << np.uint64(1)) | canonical_bit
            for owner in range(self.n_shards):
                part = wire[owners == np.uint64(owner)]
                if part.size:
                    outboxes[owner] = part
        return ShardReply(
            admitted=n_admitted,
            transitions=transitions,
            violation=violation,
            outboxes=outboxes,
            covered=covered,
            skipped=skipped,
            por=self.batch_selector.counters.as_dict()
            if self.batch_selector is not None
            else None,
        )


def _shard_worker(conn, *engine_args, **engine_kwargs) -> None:
    """Pipe transport around one ``ShardEngine(*engine_args,
    **engine_kwargs)``.

    Protocol: the driver sends ``("round", entries)`` and the worker
    replies ``("layer", ShardReply)``.  ``("dump", path)`` writes the
    shard's visited keys to ``path`` as a u64 array and replies
    ``("dumped", count)``; ``("load", path)`` bulk-loads a previous
    dump (resume) and replies ``("loaded", count)``.  ``("stop",)``
    terminates; a failure replies ``("error", message)``.  All
    exploration semantics live in :class:`ShardEngine`.
    """
    shard_engine = None
    try:
        shard_engine = ShardEngine(*engine_args, **engine_kwargs)
        handlers = {
            "round": ("layer", shard_engine.process_round),
            "dump": ("dumped", shard_engine.dump_to),
            "load": ("loaded", shard_engine.load_from),
        }
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            kind, handler = handlers[message[0]]
            conn.send((kind, handler(message[1])))
    except EOFError:  # driver went away mid-run
        pass
    except Exception as exc:  # surface worker crashes to the driver
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
    finally:
        if shard_engine is not None:
            shard_engine.close()
        conn.close()


class _PipeShards:
    """The pipe transport of :func:`explore_sharded`: one forked
    :func:`_shard_worker` per shard, driven request/response."""

    def __init__(self, worker_args: Sequence[Tuple], hint: str) -> None:
        self.hint = hint
        self.connections: List = []
        self.processes: List = []
        ctx = _mp_context()
        try:
            for args in worker_args:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker, args=(child_conn,) + args,
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.connections.append(parent_conn)
                self.processes.append(process)
        except BaseException:
            self.close()
            raise

    def exchange(self, messages: Sequence[Tuple], expect: str) -> List:
        """Send ``messages[s]`` to shard ``s``, then collect every
        shard's reply value; a dead or failing shard raises
        :class:`WorkerDied`."""
        for shard, message in enumerate(messages):
            try:
                self.connections[shard].send(message)
            except (OSError, BrokenPipeError):
                raise self._died(shard, "pipe closed") from None
        replies = []
        for shard, conn in enumerate(self.connections):
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                # A SIGKILLed worker surfaces as EOF or ECONNRESET
                # depending on where the pipe read was when it died.
                raise self._died(shard, "pipe closed") from None
            if kind != expect:
                raise self._died(shard, f"{kind}: {value}")
            replies.append(value)
        return replies

    def _died(self, shard: int, reason: str) -> WorkerDied:
        return WorkerDied(f"shard {shard} worker died mid-run ({reason}){self.hint}")

    def close(self) -> None:
        for conn in self.connections:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for process in self.processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()


def explore_sharded(
    inputs: Sequence[int],
    wiring: WiringClass,
    jobs: int = 2,
    max_states: int = 200_000_000,
    check_safety: bool = True,
    level_target: Optional[int] = None,
    fingerprint: bool = False,
    symmetry: bool = False,
    store: Optional[StoreConfig] = None,
    checkpointer: Optional[RunCheckpointer] = None,
    _after_checkpoint: Optional[Callable[[], None]] = None,
    por: bool = False,
    kernel: str = "auto",
    heartbeat=None,
) -> FastExplorationResult:
    """Frontier-sharded BFS over one wiring class across ``jobs`` cores.

    One forked :class:`ShardEngine` per shard expands one BFS layer per
    round; the round logic — merge in shard order, budget at layer
    boundaries, POR totals, checkpoints — is the
    :class:`~repro.checker.rounds.RoundDriver` the service coordinator
    runs too, and this function is its pipe transport.  The result is
    deterministic for a fixed ``jobs`` and equal to the serial engine's
    on any exhaustive (non-truncated) run.  ``jobs`` is capped at the
    host's core count (:func:`effective_jobs`); ``jobs=1``, or a host
    where worker processes cannot start, runs the serial engine
    in-process instead.

    ``symmetry``, ``por``, ``fingerprint``, ``kernel`` and ``store``
    configure every shard's engine (see :class:`ShardEngine`; stores
    are namespaced ``shard-NNN/``).  With ``symmetry`` the result also
    reports ``recanonicalizations_skipped``; with ``por`` its
    ``por_counters`` depend on the shard partition, its verdict does
    not.  State encodings above 63 bits are rejected (wire entries are
    ``(state << 1) | canonical_bit`` in a u64 word).  Wait-freedom
    (lasso) analysis needs the cross-shard edge list and is not offered
    here; run the serial engine with ``check_wait_freedom=True``.

    ``checkpointer`` persists the run at BFS-layer boundaries; a killed
    run resumes from the last committed checkpoint with an identical
    final result.  A worker that dies mid-run raises
    :class:`~repro.checker.rounds.WorkerDied`.  ``_after_checkpoint``
    is a test seam invoked after every committed checkpoint;
    ``heartbeat`` ticks before every round.
    """
    spec = FastSnapshotSpec(inputs, wiring, level_target=level_target)
    jobs = effective_jobs(jobs)
    driver = RoundDriver(
        spec, jobs, max_states, symmetry=symmetry, por=por,
        checkpointer=checkpointer,
    )
    shards = None
    if jobs > 1:
        action = driver.start()
        if isinstance(action, Finish):
            return action.result
        hint = (
            " — resume from the checkpoint directory (repro check --resume)"
            if checkpointer is not None
            else ""
        )
        try:
            shards = _PipeShards(
                [
                    (tuple(inputs), wiring, level_target, shard, jobs,
                     check_safety, fingerprint, symmetry, store, por, kernel)
                    for shard in range(jobs)
                ],
                hint,
            )
        except OSError:  # pragma: no cover - process-less environments
            pass
    if shards is None:
        return spec.explore(
            max_states=max_states,
            check_safety=check_safety,
            fingerprint=fingerprint,
            symmetry=symmetry,
            store=store,
            checkpointer=checkpointer,
            por=por,
            kernel=kernel,
            heartbeat=heartbeat,
        )
    try:
        if driver.resume_dumps:
            shards.exchange(
                [("load", path) for path in driver.resume_dumps],
                "loaded",
            )
        while not isinstance(action, Finish):
            if isinstance(action, WriteCheckpoint):
                shards.exchange(
                    [("dump", path) for path in action.dumps], "dumped"
                )
                action = driver.commit(action)
                if _after_checkpoint is not None:
                    _after_checkpoint()
                continue
            if heartbeat is not None:
                heartbeat.tick(
                    driver.states, action.frontier, driver.transitions
                )
            replies = shards.exchange(
                [("round", action.inbox(shard)) for shard in range(jobs)],
                "layer",
            )
            action = driver.merge(dict(enumerate(replies)))
        return action.result
    finally:
        shards.close()
