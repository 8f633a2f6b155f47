"""Layer-boundary spans for the checker, recorded from outside ``src/``.

:func:`install` wraps the public methods at each layer boundary of the
``repro`` package — the batch kernel seam, the batched canonicalizer,
the ample selector, the store, the run checkpointer, the shard engine
and the service frame I/O — so that every wrapped call becomes a span
``(name, start, end, parent)``.  Spans stay in memory, one list per
thread; :meth:`Tracer.summary` derives each name's self time (span
minus its child spans), call count and the counters the wrappers bump.

Private glue (``_insert_sorted``, the body of ``explore_batch``) is not
wrapped; its time shows up as ``unattributed_share``.

Light mode (``timed=False``) records no spans: it only notes which
kernel served each ``make_kernel`` call and how many checkpoints were
written — a few calls per run, cheap enough to leave on in the
untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# A span is [name, start, end, parent index in the same thread's list].
Span = List[Any]


class Tracer:
    """In-memory span recorder with one span list and stack per thread."""

    def __init__(self, timed: bool = True) -> None:
        self.timed = timed
        self.counts: Dict[str, float] = defaultdict(float)
        self.kernels: List[str] = []
        self._local = threading.local()
        self._lists: List[List[Span]] = []
        self._lock = threading.Lock()

    def _thread(self) -> Tuple[List[Span], List[int]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._lists.append(spans)
        return spans, local.stack

    def reset(self) -> None:
        """Drop every span and counter (e.g. those of the set-up phase)."""
        with self._lock:
            for spans in self._lists:
                spans.clear()
        self.counts.clear()
        self.kernels.clear()

    def begin(self, name: str, push: bool = True) -> Span:
        spans, stack = self._thread()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        spans.append(span)
        if push:
            stack.append(len(spans) - 1)
        return span

    def end(self, span: Span, pushed: bool = True) -> None:
        span[2] = time.perf_counter()
        if pushed:
            self._thread()[1].pop()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Self time and call count per span name, plus root coverage.

        ``roots_s`` is the length of the union of all root-span intervals
        (parent -1) across threads: the part of the wall the spans
        explain.  Overlapping roots (concurrent coordinator requests)
        are counted once.
        """
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        intervals: List[Tuple[float, float]] = []
        with self._lock:
            lists = [list(spans) for spans in self._lists]
        for spans in lists:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child_time[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                duration = span[2] - span[1]
                self_s[span[0]] += duration - child_time[index]
                calls[span[0]] += 1
                if span[3] < 0:
                    intervals.append((span[1], span[2]))
        covered = 0.0
        cursor = float("-inf")
        for start, end in sorted(intervals):
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "roots_s": covered,
            "kernels": list(self.kernels),
        }


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Callable[[tuple, Any], None]] = None,
) -> Callable[..., Any]:
    """``fn`` recorded as a span ``name``; ``after(args, result)`` runs
    once the span has closed, to bump counters outside the timing."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _size(value: Any) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


def dir_bytes(*paths: Path) -> int:
    """Bytes of the files under ``paths`` (missing paths count 0)."""
    return sum(
        entry.stat().st_size
        for path in paths
        if path.exists()
        for entry in path.rglob("*")
        if entry.is_file()
    )


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries of the imported ``repro`` modules.

    Instance-level wrapping (kernels, canonicalizers, stores) catches
    each outside call exactly once even when a subclass delegates to
    its base through ``super()``.
    """
    import repro.checker.batch as batch
    import repro.checker.parallel as parallel
    import repro.checker.symmetry as symmetry
    import repro.service.coordinator as coordinator
    import repro.service.protocol as protocol
    import repro.store.base as store_base
    import repro.store.checkpoint as checkpoint

    counts = tracer.counts
    original_make_kernel = batch.make_kernel
    original_write = checkpoint.RunCheckpointer.write

    if not tracer.timed:
        def make_kernel_light(*args: Any, **kwargs: Any) -> Any:
            kernel = original_make_kernel(*args, **kwargs)
            tracer.kernels.append(kernel.kernel_name)
            return kernel

        def write_light(self: Any, *args: Any, **kwargs: Any) -> Any:
            counts["store.checkpoint.write.count"] += 1
            return original_write(self, *args, **kwargs)

        batch.make_kernel = make_kernel_light
        checkpoint.RunCheckpointer.write = write_light
        return

    def bump(key: str, measure: Callable[[tuple, Any], float]):
        def after(args: tuple, result: Any) -> None:
            counts[key] += measure(args, result)
        return after

    # -- kernel seam and batched canonicalizer --------------------------
    def wrap_canonicalizer(canon: Any) -> Any:
        if canon is None:
            return canon
        canon.canonical_many = _wrap(
            tracer, "checker.symmetry.canonical_many", canon.canonical_many,
            bump("checker.symmetry.canonical_many.states",
                 lambda a, r: _size(a[0])),
        )
        canon.orbit_sizes = _wrap(
            tracer, "checker.symmetry.orbit_sizes", canon.orbit_sizes
        )
        return canon

    def make_kernel(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin("checker.native.kernel_init")
        try:
            kernel = original_make_kernel(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.kernels.append(kernel.kernel_name)
        kernel.expand_level = _wrap(
            tracer, "checker.batch.expand_level", kernel.expand_level,
            bump("checker.batch.expand_level.successors",
                 lambda a, r: _size(r[0])),
        )
        kernel.unique_first = _wrap(
            tracer, "checker.batch.unique_first", kernel.unique_first,
            bump("checker.batch.unique_first.keys", lambda a, r: _size(a[0])),
        )
        kernel.probe_sorted = _wrap(
            tracer, "checker.batch.probe_sorted", kernel.probe_sorted,
            bump("checker.batch.probe_sorted.keys", lambda a, r: _size(a[1])),
        )
        kernel.violations = _wrap(
            tracer, "checker.batch.violations", kernel.violations
        )
        kernel.por_c0c1 = _wrap(
            tracer, "checker.batch.por_c0c1", kernel.por_c0c1
        )
        original_canon = kernel.make_canonicalizer
        kernel.make_canonicalizer = (
            lambda *a, **k: wrap_canonicalizer(original_canon(*a, **k))
        )
        return kernel

    batch.make_kernel = make_kernel

    init = symmetry.FastCanonicalizer.__init__
    symmetry.FastCanonicalizer.__init__ = _wrap(
        tracer, "checker.symmetry.canonicalizer_init", init
    )
    batch.BatchAmpleSelector.select = _wrap(
        tracer, "checker.por.select", batch.BatchAmpleSelector.select
    )

    # -- store ----------------------------------------------------------
    # ``keys`` and hits count only the calls made from outside the store
    # (the spill store's add_many re-probes through contains_many);
    # nested calls still get their own spans, so time lands where the
    # work happens, and ``all_keys`` counts every probed key.
    def store_method(field: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = f"store.{field}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            outer = not getattr(local, "in_store", False)
            span = tracer.begin(name)
            local.in_store = True
            try:
                result = fn(*args, **kwargs)
            finally:
                local.in_store = not outer
                tracer.end(span)
            keys = len(args[0])
            counts[f"{name}.all_keys"] += keys
            if outer:
                counts[f"{name}.keys"] += keys
                if field == "contains_many":
                    counts["store.contains_many.hits"] += sum(result)
            return result

        return wrapper

    original_create = store_base.StoreConfig.create

    def create(self: Any, *args: Any, **kwargs: Any) -> Any:
        store = original_create(self, *args, **kwargs)
        for field in ("contains_many", "add_many"):
            setattr(store, field, store_method(field, getattr(store, field)))
        return store

    store_base.StoreConfig.create = create

    def checkpoint_write(self: Any, *args: Any, **kwargs: Any) -> Any:
        span = tracer.begin("store.checkpoint.write")
        try:
            written = original_write(self, *args, **kwargs)
        finally:
            tracer.end(span)
        counts["store.checkpoint.write.count"] += 1
        counts["store.checkpoint.write.bytes"] += dir_bytes(written.directory)
        return written

    checkpoint.RunCheckpointer.write = checkpoint_write

    # -- shard engine and service frame I/O -----------------------------
    parallel.ShardEngine.process_round = _wrap(
        tracer, "checker.parallel.process_round",
        parallel.ShardEngine.process_round,
        bump("checker.parallel.process_round.rounds", lambda a, r: 1),
    )

    original_encode = protocol.encode_frame
    original_decode = protocol.decode_header

    def encode_frame(*args: Any, **kwargs: Any) -> bytes:
        frame = original_encode(*args, **kwargs)
        tracer._local.frame_bytes = len(frame)
        return frame

    def decode_header(encoded: bytes) -> Any:
        header, word_counts = original_decode(encoded)
        tracer._local.frame_bytes = 4 + len(encoded) + 8 * sum(word_counts)
        return header, word_counts

    protocol.encode_frame = encode_frame
    protocol.decode_header = decode_header

    def frame_bytes(key: str):
        def after(args: tuple, result: Any) -> None:
            counts[key] += getattr(tracer._local, "frame_bytes", 0)
        return after

    protocol.SyncFrameIO.send = _wrap(
        tracer, "service.protocol.send", protocol.SyncFrameIO.send,
        frame_bytes("service.protocol.send.bytes"),
    )
    protocol.SyncFrameIO.recv = _wrap(
        tracer, "service.protocol.recv", protocol.SyncFrameIO.recv,
        frame_bytes("service.protocol.recv.bytes"),
    )

    original_request = coordinator.WorkerHandle.request

    async def request(self: Any, *args: Any, **kwargs: Any) -> Any:
        # Requests to different workers run concurrently on one event
        # loop, so they are leaf spans: never pushed as a parent.
        span = tracer.begin("service.coordinator.request", push=False)
        try:
            return await original_request(self, *args, **kwargs)
        finally:
            tracer.end(span, pushed=False)

    coordinator.WorkerHandle.request = request
