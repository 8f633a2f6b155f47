"""Append-only spill store: TLC's disk trade for unbounded state sets.

Keys live in a bounded in-RAM buffer; when the buffer fills it is
sorted and *spilled* to an on-disk run file, and once enough runs
accumulate they are merged into one (a classic sorted-run / LSM
scheme, the design TLC's ``DiskFPSet`` uses).  Because every key is
membership-checked before entering the buffer, runs are pairwise
disjoint and no key is ever stored twice.  A run file is the raw
native-endian u64 words of its keys in ascending order.

Every bulk path works on numpy u64 arrays, one sorted pass per run per
call — the delayed duplicate detection of Stern & Dill's disk Murφ:

- **membership** (:meth:`SpillStore.contains_many`) screens the batch
  against the buffer, then the Bloom filter (positions from the
  vectorized splitmix64 the batch engine fingerprints with), sorts the
  survivors once and, run by run, ``searchsorted``\\ s the sparse index,
  gathers only the 512-key blocks the still-unresolved keys land in
  (through a transient ``np.memmap``) and ``searchsorted``\\ s those;
- **inserts** (:meth:`SpillStore.add_many`) write a large batch of
  fresh keys straight to disk as one sorted run with ``ndarray.tofile``;
- **merges and ordered iteration** (what checkpoints dump, via
  :meth:`SpillStore.chunks`) cut the runs at sparse-index quantiles and
  concatenate, sort and emit one key range at a time.

The scalar :meth:`SpillStore.add` and ``in`` (one call per key — the
generic explorer's fingerprint mode, where per-call numpy overhead
would dominate) probe the same Bloom bits and run files on Python ints
instead.

RAM usage is bounded by construction whatever the number of visited
states: the buffer holds at most ``buffer_limit`` keys, the Bloom
filter (which short-circuits lookups of never-spilled keys — the
overwhelmingly common case on BFS frontiers) is a fixed byte array,
the per-run sparse indexes keep one key per 512-entry block (8 bytes
of index per 4 KiB of run), and a probe, merge or dump holds one
bounded gather or key range of run data, never a whole run.

Membership stays *exact*: the Bloom filter only proves absence; any
"maybe" is resolved against the run files themselves.
"""

from __future__ import annotations

import os
import time
from array import array
from bisect import bisect_left
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.checker.fingerprint import splitmix64, splitmix64_many
from repro.store.base import FingerprintStore, KeyBatch, require_u64

if TYPE_CHECKING:
    from numpy.typing import NDArray

    U64Array = NDArray[np.uint64]
    BoolArray = NDArray[np.bool_]
    I64Array = NDArray[np.int64]

#: Keys per run block; one block (4 KiB) is the unit of disk lookup IO.
_BLOCK = 512
#: Merge all runs into one once this many have accumulated.
_MERGE_AT = 6
#: Bloom probes per key, and the salt that decorrelates them from the
#: fingerprints themselves (which are splitmix64 outputs too).
_BLOOM_PROBES = 3
_BLOOM_SALT = 0xA5A5A5A5A5A5A5A5
_MIN_BUFFER = 1024
#: Conservative bytes-per-entry estimate for a Python set of 64-bit
#: ints (set slot + int object, at worst-case load factor) — what the
#: scalar path buffers in; the bulk path's sorted array needs 8.
_ENTRY_COST = 120
#: Blocks one membership gather reads at most (4 MiB of run data).
_GATHER_BLOCKS = 1024
#: Keys hashed per Bloom pass.
_BLOOM_CHUNK = 1 << 16


def _as_u64(keys: KeyBatch) -> "U64Array":
    """``keys`` as a u64 array; an out-of-range key raises the
    :func:`~repro.store.base.require_u64` error, never ``OverflowError``."""
    if isinstance(keys, np.ndarray):
        if keys.dtype.kind == "i" and keys.size and int(keys.min()) < 0:
            require_u64(int(keys.min()))
        return keys.astype(np.uint64, copy=False)
    try:
        return np.asarray(keys, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        for key in keys:
            require_u64(int(key))
        raise


def _sorted_distinct(keys: "U64Array") -> "U64Array":
    """``keys`` sorted, repeats dropped (``np.unique``'s result, without
    its hash-table pass, which is far slower on large u64 batches)."""
    ordered = np.sort(keys)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct: "U64Array" = ordered[keep]
    return distinct


def in_sorted(sorted_keys: "U64Array", keys: "U64Array") -> "BoolArray":
    """Membership of ``keys`` in an ascending array."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    at = np.searchsorted(sorted_keys, keys)
    np.minimum(at, sorted_keys.size - 1, out=at)
    hits: "BoolArray" = sorted_keys[at] == keys
    return hits


class _Run:
    """One immutable sorted run file with its in-RAM sparse index."""

    def __init__(self, path: Path, index: "U64Array", count: int) -> None:
        self.path = path
        self.index = index
        self.count = count
        self._fd: Optional[int] = None

    def contains(self, key: int) -> bool:
        """Scalar lookup: one sparse-index search and one block read."""
        block = int(np.searchsorted(self.index, np.uint64(key), "right")) - 1
        if block < 0:
            return False
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDONLY)
        values = array("Q", os.pread(self._fd, _BLOCK * 8, block * _BLOCK * 8))
        at = bisect_left(values, key)
        return at < len(values) and values[at] == key

    def locate(
        self, keys: "U64Array"
    ) -> Tuple["I64Array", "BoolArray", int]:
        """``(ranks, hits, blocks read)`` for ascending ``keys``.

        ``ranks[i]`` is the number of run keys below ``keys[i]`` and
        ``hits[i]`` whether the run holds it.  Only the blocks the keys
        land in are read, ``_GATHER_BLOCKS`` at a time, from a mapping
        that is dropped on return.
        """
        ranks = np.zeros(keys.size, dtype=np.int64)
        hits = np.zeros(keys.size, dtype=bool)
        blocks = np.searchsorted(self.index, keys, side="right") - 1
        start = int(np.searchsorted(blocks, 0))  # keys below the run
        if start == keys.size:
            return ranks, hits, 0
        blocks = blocks[start:]
        probe = keys[start:]
        new_block = np.empty(blocks.size, dtype=bool)
        new_block[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=new_block[1:])
        starts = np.flatnonzero(new_block)
        touched = blocks[starts]
        # Row of each key's block among the touched ones.
        rows = np.cumsum(new_block) - 1
        data = np.memmap(self.path, dtype=np.uint64, mode="r")
        within = np.arange(_BLOCK)
        for lo in range(0, touched.size, _GATHER_BLOCKS):
            hi = min(lo + _GATHER_BLOCKS, touched.size)
            first = int(starts[lo])
            last = int(starts[hi]) if hi < touched.size else probe.size
            offsets = (touched[lo:hi, None] * _BLOCK + within).ravel()
            if offsets[-1] >= self.count:  # the run's last block is short
                offsets = offsets[offsets < self.count]
            values = np.asarray(data[offsets])
            part = probe[first:last]
            at = np.searchsorted(values, part)
            ranks[start + first:start + last] = (
                blocks[first:last] * _BLOCK
                + at - (rows[first:last] - lo) * _BLOCK
            )
            np.minimum(at, values.size - 1, out=at)
            hits[start + first:start + last] = values[at] == part
        return ranks, hits, int(touched.size)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def unlink(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)


class SpillStore(FingerprintStore):
    """Bounded-RAM exact set backed by sorted on-disk runs."""

    backend = "spill"

    def __init__(self, directory: Path, mem_cap: int) -> None:
        self.directory = Path(directory)
        self.mem_cap = mem_cap
        # RAM envelope: roughly half the cap for the buffer, a fixed
        # sixteenth for the Bloom filter, the rest headroom for run
        # indexes and interpreter slack.
        self.buffer_limit = max(_MIN_BUFFER, (mem_cap // 2) // _ENTRY_COST)
        bloom_bytes = max(4096, mem_cap // 16)
        # A bytearray for the scalar probes, viewed as a numpy array
        # for the bulk ones.
        self._bloom = bytearray(bloom_bytes)
        self._bloom_view = np.frombuffer(self._bloom, dtype=np.uint8)
        self._bloom_bits = bloom_bytes * 8
        # The buffer: a sorted array that bulk calls screen and grow,
        # plus a set of the keys scalar ``add`` calls put in since the
        # last bulk call (folded into the array on the next one).
        self._buffer_keys = np.empty(0, dtype=np.uint64)
        self._buffer: Set[int] = set()
        self._runs: List[_Run] = []
        self._spilled = 0
        self._next_run = 0
        self._spills = 0
        self._merges = 0
        self._merge_wall_ms = 0
        self._disk_probes = 0
        self._bloom_skips = 0

    # ------------------------------------------------------------------
    def _bloom_probes(
        self, keys: "U64Array"
    ) -> Iterator[Tuple[slice, "U64Array"]]:
        """``(key slice, bit positions)`` per probe, ``_BLOOM_CHUNK``
        keys at a time so the temporaries stay small."""
        bits = np.uint64(self._bloom_bits)
        for start in range(0, keys.size, _BLOOM_CHUNK):
            part = slice(start, start + _BLOOM_CHUNK)
            mixed = splitmix64_many(keys[part] ^ np.uint64(_BLOOM_SALT))
            for probe in range(_BLOOM_PROBES):
                if probe:
                    mixed = splitmix64_many(mixed)
                yield part, mixed % bits

    def _bloom_add(self, keys: "U64Array") -> None:
        for _, position in self._bloom_probes(keys):
            bits = np.left_shift(1, position & 7).astype(np.uint8)
            np.bitwise_or.at(self._bloom_view, position >> 3, bits)

    def _bloom_maybe(self, keys: "U64Array") -> "BoolArray":
        bloom = self._bloom_view
        maybe = np.ones(keys.size, dtype=bool)
        for part, position in self._bloom_probes(keys):
            maybe[part] &= (bloom[position >> 3] >> (position & 7)) & 1 == 1
        return maybe

    def _bloom_maybe_one(self, key: int) -> bool:
        """:meth:`_bloom_maybe` for one key, on Python ints."""
        mixed = splitmix64(key ^ _BLOOM_SALT)
        for probe in range(_BLOOM_PROBES):
            if probe:
                mixed = splitmix64(mixed)
            position = mixed % self._bloom_bits
            if not self._bloom[position >> 3] >> (position & 7) & 1:
                return False
        return True

    def _buffered(self) -> int:
        return len(self._buffer) + int(self._buffer_keys.size)

    def _buffer_array(self) -> "U64Array":
        """Every buffered key, sorted (folds in the scalar-added set)."""
        if self._buffer:
            added = np.fromiter(
                self._buffer, dtype=np.uint64, count=len(self._buffer)
            )
            self._buffer.clear()
            if self._buffer_keys.size:
                added = np.concatenate((self._buffer_keys, added))
            added.sort()
            self._buffer_keys = added
        return self._buffer_keys

    def _in_buffer(self, key: int) -> bool:
        if key in self._buffer:
            return True
        keys = self._buffer_keys
        if not keys.size:
            return False
        at = int(np.searchsorted(keys, np.uint64(key)))
        return at < keys.size and int(keys[at]) == key

    def _on_runs(self, keys: "U64Array") -> "BoolArray":
        """Which ``keys`` (any order, repeats allowed) a run holds.

        The Bloom filter screens first; the survivors are sorted once
        and resolved run by run, each run seeing only the keys no
        earlier run held.  ``disk_probes`` counts the distinct blocks
        those still-unresolved keys touch, run by run.
        """
        found = np.zeros(keys.size, dtype=bool)
        if not self._runs or not keys.size:
            return found
        maybe = self._bloom_maybe(keys)
        pending = np.flatnonzero(maybe)
        self._bloom_skips += keys.size - pending.size
        if not pending.size:
            return found
        pending = pending[np.argsort(keys[pending], kind="stable")]
        probe = keys[pending]
        live = np.arange(probe.size)
        for run in self._runs:
            if not live.size:
                break
            _, hits, blocks = run.locate(probe[live])
            self._disk_probes += blocks
            found[pending[live[hits]]] = True
            live = live[~hits]
        return found

    # ------------------------------------------------------------------
    def _on_disk(self, key: int) -> bool:
        """Scalar twin of :meth:`_on_runs` for callers that ``add`` one
        key at a time, where per-call numpy overhead would dominate;
        ``disk_probes`` counts one per run consulted."""
        if not self._runs:
            return False
        if not self._bloom_maybe_one(key):
            self._bloom_skips += 1
            return False
        for run in self._runs:
            self._disk_probes += 1
            if run.contains(key):
                return True
        return False

    def add(self, key: int) -> bool:
        require_u64(key)
        if self._in_buffer(key) or self._on_disk(key):
            return False
        self._buffer.add(key)
        if self._buffered() >= self.buffer_limit:
            self._spill()
        return True

    def __contains__(self, key: int) -> bool:
        require_u64(key)
        return self._in_buffer(key) or self._on_disk(key)

    def contains_many(self, keys: KeyBatch) -> List[bool]:
        """Bulk membership: buffer, Bloom filter, then one sorted pass
        per run (see :meth:`_on_runs`)."""
        batch = _as_u64(keys)
        found = in_sorted(self._buffer_array(), batch)
        missing = np.flatnonzero(~found)
        found[missing] = self._on_runs(batch[missing])
        result: List[bool] = found.tolist()
        return result

    def add_many(self, keys: KeyBatch) -> int:
        """Bulk insert; a large batch of new keys becomes a run directly.

        Membership for the whole batch is resolved by
        :meth:`contains_many` (one sorted pass per run), and when the
        fresh keys alone would overflow the RAM buffer they are written
        straight to disk as one sorted run file — the natively-sorted
        path the run format is built around — instead of churning
        through repeated buffer spills.  Fresh keys are by construction
        absent from the buffer and every run, so runs stay pairwise
        disjoint.
        """
        distinct = _sorted_distinct(_as_u64(keys))
        if not distinct.size:
            return 0
        present = np.asarray(self.contains_many(distinct), dtype=bool)
        fresh = distinct[~present]
        if not fresh.size:
            return 0
        buffered = self._buffered()
        if buffered + fresh.size >= self.buffer_limit and fresh.size >= _BLOCK:
            self._write_sorted_run(fresh)
        else:
            # Both sides are sorted: the stable sort merges two runs.
            self._buffer_keys = np.sort(
                np.concatenate((self._buffer_array(), fresh)), kind="stable"
            )
            if self._buffered() >= self.buffer_limit:
                self._spill()
        return int(fresh.size)

    def load(self, keys: Iterable[int]) -> int:
        """Bulk-insert a key stream (resume) in buffer-sized batches."""
        added = 0
        iterator = iter(keys)
        while True:
            batch = list(islice(iterator, self.buffer_limit))
            if not batch:
                return added
            added += self.add_many(batch)

    def __len__(self) -> int:
        return self._buffered() + self._spilled

    def __iter__(self) -> Iterator[int]:
        """Stream all keys in ascending order (runs are disjoint)."""
        for chunk in self.chunks():
            yield from chunk.tolist()

    def chunks(self) -> Iterator["U64Array"]:
        """All keys, buffer included, as ascending u64 array chunks."""
        return self._ordered(self._buffer_array())

    def _ordered(self, extra: "U64Array") -> Iterator["U64Array"]:
        """The runs' keys and the sorted ``extra`` keys, ascending.

        The key space is cut at quantiles of the runs' sparse indexes —
        every index entry starts a 512-key block, so a range between
        two cuts holds about ``buffer_limit`` run keys, plus at most
        one partial block per run — and each range is read from every
        run, concatenated, sorted and yielded.  RAM holds one range.
        """
        runs = self._runs
        pivots = np.sort(
            np.concatenate([run.index for run in runs] + [extra[:0]])
        )
        step = max(1, self.buffer_limit // _BLOCK)
        cuts = pivots[step::step]
        # Keys per range: run by run, then for ``extra``.
        sizes = [
            np.diff(run.locate(cuts)[0], prepend=0, append=run.count)
            for run in runs
        ]
        extra_stops = np.append(np.searchsorted(extra, cuts), extra.size)
        files = [open(run.path, "rb") for run in runs]
        try:
            extra_start = 0
            for cut in range(cuts.size + 1):
                parts = [
                    np.frombuffer(
                        handle.read(int(counts[cut]) * 8), dtype=np.uint64
                    )
                    for handle, counts in zip(files, sizes)
                ]
                extra_stop = int(extra_stops[cut])
                parts.append(extra[extra_start:extra_stop])
                extra_start = extra_stop
                chunk = np.concatenate(parts)
                if chunk.size:
                    chunk.sort(kind="stable")
                    yield chunk
        finally:
            for handle in files:
                handle.close()

    # ------------------------------------------------------------------
    def _next_path(self) -> Path:
        path = self.directory / f"run-{self._next_run:06d}.u64"
        self._next_run += 1
        return path

    def _spill(self) -> None:
        keys = self._buffer_array()
        self._buffer_keys = np.empty(0, dtype=np.uint64)
        self._write_sorted_run(keys)

    def _write_sorted_run(self, keys: "U64Array") -> None:
        """Persist sorted, store-disjoint ``keys`` as one new run."""
        path = self._next_path()
        keys.tofile(path)
        self._bloom_add(keys)
        self._runs.append(_Run(path, keys[::_BLOCK].copy(), int(keys.size)))
        self._spilled += int(keys.size)
        self._spills += 1
        if len(self._runs) >= _MERGE_AT:
            self._merge()

    def _merge(self) -> None:
        """Consolidate all runs into one (disjoint keys: an interleave),
        streaming one key range at a time."""
        start = time.monotonic()
        path = self._next_path()
        index: List["U64Array"] = []
        count = 0
        with open(path, "wb") as handle:
            for chunk in self._ordered(np.empty(0, dtype=np.uint64)):
                chunk.tofile(handle)
                index.append(chunk[-count % _BLOCK::_BLOCK].copy())
                count += int(chunk.size)
        for run in self._runs:
            run.unlink()
        self._runs = [_Run(path, np.concatenate(index), count)]
        self._merges += 1
        self._merge_wall_ms += int((time.monotonic() - start) * 1000)

    # ------------------------------------------------------------------
    def file_bytes(self) -> int:
        return sum(run.count * 8 for run in self._runs)

    def counters(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "runs": len(self._runs),
            "spills": self._spills,
            "merges": self._merges,
            "merge_wall_ms": self._merge_wall_ms,
            "disk_probes": self._disk_probes,
            "bloom_skips": self._bloom_skips,
        }

    def close(self) -> None:
        for run in self._runs:
            run.close()
