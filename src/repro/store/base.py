"""The fingerprint-store interface and its picklable configuration.

A :class:`FingerprintStore` is an exact set of unsigned integers — the
64-bit fingerprints (or ≤64-bit packed states) the exploration engines
deduplicate on.  The contract every backend honours:

- :meth:`FingerprintStore.add` inserts and reports newness in one call
  (the hot-path operation: one call per generated transition);
- membership is *exact* — a backend may use probabilistic structures
  only to short-circuit misses, never to answer "present";
- :meth:`FingerprintStore.__iter__` streams every stored key, and
  :meth:`FingerprintStore.chunks` streams the same keys as u64 arrays,
  which is what checkpointing dumps and resume reloads;
- the bulk methods take a plain sequence of ints or a u64 ndarray
  (:data:`KeyBatch`), so the batch engine hands its level arrays over
  as they are;
- behaviour is deterministic: two identical runs against the same
  backend produce identical results, and all backends produce identical
  exploration counts (tested exhaustively for N=2).

:class:`StoreConfig` is the frozen, picklable description engines and
worker processes share; :meth:`StoreConfig.create` builds the actual
backend (optionally namespaced per shard / per wiring class).
"""

from __future__ import annotations

import tempfile
from abc import ABC, abstractmethod
from array import array
from collections import abc
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

    U64Array = NDArray[np.uint64]

#: What the bulk store methods accept: plain ints or a u64 ndarray.
KeyBatch = Union[Sequence[int], "U64Array"]
#: One piece of an ordered key stream: anything with ``tofile`` that
#: holds raw native-endian u64 words.
U64Chunk = Union["array[int]", "U64Array"]

#: Maximum key width the disk-backed stores accept: one table slot /
#: run entry is a raw unsigned 64-bit word.
KEY_BITS = 64
KEY_LIMIT = 1 << KEY_BITS

#: Default total memory budget for the capped backends (bytes).
DEFAULT_MEM_CAP = 64 * 1024 * 1024

#: The recognised backend names, in CLI order.
BACKENDS: Tuple[str, ...] = ("ram", "mmap", "spill")
#: Keys per chunk when a per-key stream is cut into u64 arrays.
CHUNK_KEYS = 4096


class StoreError(ValueError):
    """A store was misused (bad key, bad configuration, bad backend)."""


class StoreFullError(StoreError):
    """A fixed-capacity store ran out of room.

    Raised by :class:`~repro.store.mmap_table.MmapStore` when the open
    -addressing table exceeds its load limit: the mmap backend trades
    unbounded growth for a hard byte cap, and the spill backend is the
    escape hatch for sets that outgrow it.
    """


def require_u64(key: int) -> int:
    """Validate a key for the disk-backed stores (raw 64-bit slots)."""
    if key < 0 or key >= KEY_LIMIT:
        raise StoreError(
            f"disk-backed stores hold raw 64-bit words; key has"
            f" {key.bit_length()} bits — fingerprint the state first"
            f" (--fingerprint) for state encodings wider than 64 bits"
        )
    return key


def as_int_sequence(keys: KeyBatch) -> Sequence[int]:
    """``keys`` as Python ints: an ndarray is converted once, in C."""
    if isinstance(keys, abc.Sequence):
        return keys
    converted: List[int] = keys.tolist()
    return converted


def u64_chunks(keys: Iterable[int]) -> Iterator["array[int]"]:
    """Cut a stream of keys into consecutive ``array('Q')`` chunks."""
    iterator = iter(keys)
    while True:
        chunk = array("Q", islice(iterator, CHUNK_KEYS))
        if not chunk:
            return
        yield chunk


def require_cross_process_stable(fingerprint_fn: Callable[..., int]) -> None:
    """Refuse per-interpreter fingerprints for cross-process storage.

    ``fingerprint_state`` builds on ``hash()``, which Python randomizes
    per interpreter: digests from one process are meaningless in
    another, so sharding by them across workers or persisting them for
    resume would silently mis-shard / mis-deduplicate.  Everything that
    moves fingerprints across process boundaries calls this first and
    fails loudly instead.
    """
    # Imported lazily: repro.checker's package __init__ pulls in the
    # engines, which import this module — a top-level import here would
    # close the cycle.
    from repro.checker.fingerprint import is_cross_process_stable

    if not is_cross_process_stable(fingerprint_fn):
        name = getattr(fingerprint_fn, "__name__", repr(fingerprint_fn))
        raise StoreError(
            f"{name} digests are randomized per interpreter (PYTHONHASHSEED),"
            " so they cannot be sharded across worker processes or persisted"
            " for resume — use the deterministic fingerprint_int (the packed"
            "-integer engines) for cross-process runs"
        )


class FingerprintStore(ABC):
    """An exact, deterministic set of unsigned-integer state keys."""

    #: Backend name, matching :data:`BACKENDS`.
    backend: str = "abstract"

    @abstractmethod
    def add(self, key: int) -> bool:
        """Insert ``key``; return True iff it was not already present."""

    @abstractmethod
    def __contains__(self, key: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Stream every stored key (order unspecified but deterministic)."""

    def chunks(self) -> Iterator[U64Chunk]:
        """Stream every stored key, in :meth:`__iter__` order, as chunks.

        Checkpoints dump the visited set through this; the default cuts
        the per-key iteration into ``array('Q')`` chunks, and the spill
        store overrides it with ascending numpy chunks read run by run.
        """
        return u64_chunks(self)

    def load(self, keys: Iterable[int]) -> int:
        """Bulk-insert (checkpoint resume); returns the number added."""
        added = 0
        for key in keys:
            if self.add(key):
                added += 1
        return added

    def contains_many(self, keys: KeyBatch) -> List[bool]:
        """Membership for a whole batch: ``[key in self for key in keys]``.

        The level-batched engine (:mod:`repro.checker.batch`) probes a
        whole BFS level in one call.  This default just loops the
        scalar ``__contains__``, so every backend supports the batch
        engine from day one; backends with a cheaper bulk structure
        (the spill store's sorted runs) override it.
        """
        return [key in self for key in as_int_sequence(keys)]

    def add_many(self, keys: KeyBatch) -> int:
        """Insert a whole batch; returns the number newly added.

        Same contract as calling :meth:`add` per key, in order — the
        default does exactly that.  Callers that pre-deduplicate (the
        batch engine admits only keys its level dedup proved new) still
        get exact semantics from backends that re-check membership.
        """
        added = 0
        add = self.add
        for key in as_int_sequence(keys):
            if add(key):
                added += 1
        return added

    def file_bytes(self) -> int:
        """Bytes this store currently occupies on disk (0 for RAM)."""
        return 0

    def counters(self) -> Dict[str, int]:
        """Backend-specific operation counters for reports/benchmarks."""
        return {}

    def flush(self) -> None:
        """Push any buffered state toward its backing file (no-op in RAM)."""

    def close(self) -> None:
        """Release files/maps; the store must not be used afterwards."""


@dataclass(frozen=True)
class StoreConfig:
    """Picklable description of a fingerprint-store backend.

    ``directory`` is required by the disk-backed backends; when omitted
    they fall back to a fresh temporary directory (fine for one-shot
    runs, useless for resume — checkpointing requires an explicit
    directory).  ``mem_cap`` is the backend's total memory budget in
    bytes: the mmap table's file size, the spill store's RAM envelope
    (buffer + Bloom filter + run indexes).
    """

    backend: str = "ram"
    directory: Optional[str] = None
    mem_cap: int = DEFAULT_MEM_CAP

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise StoreError(
                f"unknown store backend {self.backend!r};"
                f" choose one of {', '.join(BACKENDS)}"
            )
        if self.mem_cap <= 0:
            raise StoreError("mem_cap must be a positive byte count")

    def resolve_directory(self, shard: Optional[str] = None) -> Optional[Path]:
        """The directory a store instance should use (created if needed)."""
        if self.backend == "ram":
            return None
        if self.directory is None:
            base = Path(tempfile.mkdtemp(prefix="repro-store-"))
        else:
            base = Path(self.directory)
        if shard is not None:
            base = base / shard
        base.mkdir(parents=True, exist_ok=True)
        return base

    def create(self, shard: Optional[str] = None) -> FingerprintStore:
        """Build the configured backend (namespaced under ``shard``)."""
        from repro.store.mmap_table import MmapStore
        from repro.store.ram import RamStore

        directory = self.resolve_directory(shard)
        if self.backend == "ram":
            return RamStore()
        assert directory is not None
        if self.backend == "mmap":
            return MmapStore(directory, mem_cap=self.mem_cap)
        # Imported here: the spill store is the one backend that needs
        # numpy.
        from repro.store.spill import SpillStore

        return SpillStore(directory, mem_cap=self.mem_cap)
