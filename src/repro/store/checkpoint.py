"""Checkpoint/resume for long exploration runs.

A checkpoint is a *full dump* of the run at a BFS layer / cadence
boundary: the pending frontier, every visited key (streamed out of the
fingerprint store), and a counters snapshot — plus, once per run
directory, a ``meta.json`` recording the configuration the run was
started with (git SHA, wiring class, symmetry mode, budget, backend).
Dumping visited keys uniformly, rather than trusting each backend's
own files, keeps the on-disk format identical across backends and
makes a checkpoint valid even if the process dies halfway through the
*next* one.

Atomicity: a checkpoint is assembled in a ``ckpt-NNNNNN.tmp``
directory, renamed into place, and only then stamped with a ``COMMIT``
marker file; resume considers exclusively stamped directories, so a
SIGKILL at any instant leaves either the previous checkpoint or the
new one — never a torn mix.

Resume refuses incompatible configurations: every semantic ``meta``
field must match the resuming invocation (a run checkpointed with
symmetry reduction cannot be continued without it — the visited set
means something different).  A git-SHA mismatch is reported as a
warning only, since rebuilding state spaces across unrelated commits
is legitimate when the model itself did not change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import warnings
from array import array
from itertools import chain
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Type,
    TypeVar,
    Union,
    cast,
)

from repro.store.base import FingerprintStore, U64Chunk, u64_chunks

if TYPE_CHECKING:
    from repro.store.base import U64Array

_COMMIT = "COMMIT"
_META = "meta.json"
_RESULT = "result.json"
#: Meta fields that may differ between checkpoint and resume without
#: invalidating the visited set (reported, not enforced).
ADVISORY_META_FIELDS = frozenset({"git_sha"})


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable (missing, torn, unreadable)."""


class CheckpointIncompatible(CheckpointError):
    """Resume was attempted with a configuration the checkpoint's
    visited set is not valid for."""


# ----------------------------------------------------------------------
# u64 array files — the frontier / visited wire format.


def write_u64_file(
    path: Path, keys: Union["U64Array", Iterable[int]]
) -> int:
    """Write unsigned 64-bit ``keys`` to ``path``; return the count.

    A u64 ndarray or an ``array('Q')`` goes out in one ``tofile`` call;
    any other iterable of ints is streamed in ``array('Q')`` chunks.
    All write the same raw native-endian words.
    """
    if isinstance(keys, array) and keys.typecode == "Q":
        return write_u64_chunks(path, [keys])
    dtype = getattr(keys, "dtype", None)
    if dtype is None:
        return write_u64_chunks(path, u64_chunks(keys))
    if dtype != "uint64":
        raise TypeError(f"write_u64_file needs a uint64 array, got {dtype}")
    return write_u64_chunks(path, [cast("U64Array", keys)])


def write_u64_chunks(path: Path, chunks: Iterable[U64Chunk]) -> int:
    """Write consecutive u64 ``chunks`` (arrays) to ``path``; return
    the key count."""
    count = 0
    with open(path, "wb") as handle:
        for chunk in chunks:
            chunk.tofile(handle)
            count += len(chunk)
    return count


def read_u64_file(path: Path) -> "array[int]":
    """Read a u64 array file written by :func:`write_u64_file`."""
    values: "array[int]" = array("Q")
    size = Path(path).stat().st_size
    if size % 8:
        raise CheckpointError(f"{path} is torn: {size} bytes is not a u64 array")
    with open(path, "rb") as handle:
        values.fromfile(handle, size // 8)
    return values


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Run metadata.


def git_sha() -> Optional[str]:
    """The current commit, stamped into run metadata (None outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def load_meta(directory: Path) -> Optional[Dict[str, Any]]:
    """The ``meta.json`` of a checkpoint directory, or None if absent."""
    path = Path(directory) / _META
    if not path.exists():
        return None
    loaded = json.loads(path.read_text())
    if not isinstance(loaded, dict):
        raise CheckpointError(f"{path} does not hold a JSON object")
    return loaded


def check_meta_compatible(
    existing: Dict[str, Any], requested: Dict[str, Any]
) -> None:
    """Refuse resume when any semantic configuration field differs.

    The refusal message distinguishes the three ways metas diverge, so
    a cross-version resume reads as exactly that instead of a generic
    mismatch (or, before this existed, a raw ``KeyError``): keys only
    the checkpoint knows (written by a newer schema), keys only this
    invocation knows (the checkpoint predates them), and keys both know
    with different values.
    """
    unknown = sorted(
        field for field in existing
        if field not in requested and field not in ADVISORY_META_FIELDS
    )
    missing = sorted(
        field for field in requested
        if field not in existing and field not in ADVISORY_META_FIELDS
    )
    differing = sorted(
        field
        for field in set(existing) & set(requested)
        if field not in ADVISORY_META_FIELDS
        and existing[field] != requested[field]
    )
    if unknown or missing or differing:
        parts = []
        if unknown:
            parts.append(
                f"unknown keys recorded by the checkpoint (a newer config"
                f" schema?): {', '.join(unknown)}"
            )
        if missing:
            parts.append(
                f"keys this invocation requires that the checkpoint never"
                f" recorded: {', '.join(missing)}"
            )
        if differing:
            parts.append(
                "differing values: " + ", ".join(
                    f"{field}: checkpoint={existing.get(field)!r}"
                    f" requested={requested.get(field)!r}"
                    for field in differing
                )
            )
        raise CheckpointIncompatible(
            f"checkpoint configuration mismatch ({'; '.join(parts)}) — the"
            " stored visited set is only valid for the configuration that"
            " wrote it; start a fresh run directory instead"
        )
    for field in ADVISORY_META_FIELDS:
        if existing.get(field) != requested.get(field):
            warnings.warn(
                f"resuming a checkpoint written at {field}="
                f"{existing.get(field)!r} from {requested.get(field)!r};"
                " results are only comparable if the model is unchanged",
                stacklevel=2,
            )


_ResultT = TypeVar("_ResultT")


def load_result(cls: Type[_ResultT], payload: Dict[str, Any]) -> _ResultT:
    """Rebuild a result dataclass from a recorded dict, refusing drift.

    Recorded results (``result.json``, sweep ``classes.json``) written
    by a *newer* schema may carry fields this version has never heard
    of, and ones written by an *older* schema may lack fields this
    version requires; naively splatting the dict into the dataclass
    turns both into a bare ``TypeError``/``KeyError``.  Validate first
    and raise the documented config-compat refusal instead.  Fields the
    dataclass declares with defaults are optional, so resuming records
    from older (strictly smaller) schemas keeps working.
    """
    declared = {field.name: field for field in dataclasses.fields(cls)}  # type: ignore[arg-type]
    unknown = sorted(key for key in payload if key not in declared)
    missing = sorted(
        name
        for name, field in declared.items()
        if name not in payload
        and field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )
    if unknown or missing:
        parts = []
        if unknown:
            parts.append(
                f"unknown fields recorded by the checkpoint (a newer"
                f" config schema?): {', '.join(unknown)}"
            )
        if missing:
            parts.append(
                f"required fields the record lacks: {', '.join(missing)}"
            )
        raise CheckpointIncompatible(
            f"recorded {cls.__name__} does not match this version's"
            f" schema ({'; '.join(parts)}) — re-run from a fresh"
            " checkpoint directory (or a matching version) instead"
        )
    return cls(**payload)


# ----------------------------------------------------------------------
# Committed checkpoints.


class Checkpoint:
    """One committed checkpoint directory."""

    def __init__(self, directory: Path, seq: int) -> None:
        self.directory = Path(directory)
        self.seq = seq
        counters_path = self.directory / "counters.json"
        try:
            loaded = json.loads(counters_path.read_text())
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {self.directory} has no readable counters.json"
            ) from exc
        self.counters: Dict[str, Any] = dict(loaded)

    def counter(self, key: str, default: Optional[int] = None) -> int:
        """One counters.json entry, with the config-compat refusal.

        Resuming a checkpoint whose counters were written under a
        different (newer) schema used to die with a raw ``KeyError``
        deep in the engine; going through this accessor turns the
        missing key into the documented :class:`CheckpointIncompatible`
        message naming the key and the keys actually recorded.
        """
        if key in self.counters:
            return int(self.counters[key])
        if default is not None:
            return default
        recorded = ", ".join(sorted(self.counters)) or "none"
        raise CheckpointIncompatible(
            f"checkpoint {self.directory} records no {key!r} counter"
            f" (recorded: {recorded}) — it was written by an"
            " incompatible (newer?) config schema; start a fresh run"
            " directory instead"
        )

    def frontier(self, shard: Optional[int] = None) -> "array[int]":
        name = "frontier.u64" if shard is None else f"frontier-{shard:03d}.u64"
        return read_u64_file(self.directory / name)

    def visited_paths(self) -> List[Path]:
        return sorted(self.directory.glob("visited*.u64"))

    def visited(self) -> Iterator[int]:
        """Every visited key, streamed across all shard dump files."""
        return chain.from_iterable(
            read_u64_file(path) for path in self.visited_paths()
        )


class RunCheckpointer:
    """Writes and locates checkpoints for one exploration run.

    ``meta`` is the semantic configuration of the run; on an existing
    directory it is validated against the stored ``meta.json`` (see
    :func:`check_meta_compatible`) before anything else happens.
    """

    def __init__(
        self,
        directory: Path,
        meta: Dict[str, Any],
        every: int = 1_000_000,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = max(1, int(every))
        self.meta = dict(meta)
        self._last_admitted = 0
        existing = load_meta(self.directory)
        if existing is None:
            _write_json(self.directory / _META, self.meta)
        else:
            check_meta_compatible(existing, self.meta)

    # -- discovery -----------------------------------------------------
    def _committed_seqs(self) -> List[int]:
        seqs = []
        for entry in self.directory.glob("ckpt-*"):
            if not entry.is_dir() or entry.suffix == ".tmp":
                continue
            if not (entry / _COMMIT).exists():
                continue
            try:
                seqs.append(int(entry.name.split("-", 1)[1]))
            except ValueError:
                continue
        return sorted(seqs)

    def latest(self) -> Optional[Checkpoint]:
        """The newest committed checkpoint, or None for a fresh run."""
        seqs = self._committed_seqs()
        if not seqs:
            return None
        seq = seqs[-1]
        checkpoint = Checkpoint(self.directory / f"ckpt-{seq:06d}", seq)
        self._last_admitted = int(checkpoint.counters.get("admitted", 0))
        return checkpoint

    def completed_result(self) -> Optional[Dict[str, Any]]:
        """The final result of a run that already finished, if any."""
        path = self.directory / _RESULT
        if not path.exists():
            return None
        loaded = json.loads(path.read_text())
        return dict(loaded)

    # -- cadence -------------------------------------------------------
    def due(self, admitted: int) -> bool:
        """True once ``every`` new states were admitted since the last
        checkpoint (or since the run/resume started)."""
        return admitted - self._last_admitted >= self.every

    # -- writing -------------------------------------------------------
    def begin(self) -> Path:
        """Open a staging directory for the next checkpoint's files."""
        seqs = self._committed_seqs()
        seq = (seqs[-1] + 1) if seqs else 0
        tmp = self.directory / f"ckpt-{seq:06d}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        return tmp

    def commit(self, staging: Path, counters: Dict[str, Any]) -> Checkpoint:
        """Seal ``staging``: counters, rename, COMMIT stamp, prune old."""
        _write_json(staging / "counters.json", dict(counters))
        final = staging.with_suffix("")
        seq = int(final.name.split("-", 1)[1])
        if final.exists():  # pragma: no cover - only after manual tampering
            shutil.rmtree(final)
        os.replace(staging, final)
        (final / _COMMIT).touch()
        for old_seq in self._committed_seqs():
            if old_seq < seq:
                shutil.rmtree(
                    self.directory / f"ckpt-{old_seq:06d}", ignore_errors=True
                )
        self._last_admitted = int(counters.get("admitted", 0))
        return Checkpoint(final, seq)

    def write(
        self,
        frontier: Union["U64Array", Iterable[int]],
        counters: Dict[str, Any],
        visited: Union[FingerprintStore, Iterable[int]],
    ) -> Checkpoint:
        """One-call checkpoint for the serial engines.

        ``visited`` is the run's store, dumped through its
        :meth:`~repro.store.base.FingerprintStore.chunks` stream, or
        any iterable of keys.
        """
        staging = self.begin()
        write_u64_file(staging / "frontier.u64", frontier)
        if isinstance(visited, FingerprintStore):
            write_u64_chunks(staging / "visited.u64", visited.chunks())
        else:
            write_u64_file(staging / "visited.u64", visited)
        return self.commit(staging, counters)

    def mark_complete(self, result: Dict[str, Any]) -> None:
        """Record the finished run's verdict; resume then short-circuits."""
        _write_json(self.directory / _RESULT, dict(result))


class SweepCheckpoint:
    """Per-class progress of a multi-class sweep (``classes.json``).

    The class-parallel pool records each wiring class's finished result
    as it lands; a resumed sweep replays recorded classes from disk and
    explores only the remainder.  ``meta`` (when given) is validated
    against the directory's ``meta.json`` exactly like
    :class:`RunCheckpointer` — replaying class results recorded under a
    different budget/symmetry/fingerprint configuration would silently
    mix incomparable runs.
    """

    def __init__(
        self, directory: Path, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if meta is not None:
            existing = load_meta(self.directory)
            if existing is None:
                _write_json(self.directory / _META, dict(meta))
            else:
                check_meta_compatible(existing, dict(meta))
        self.path = self.directory / "classes.json"
        self._results: Dict[str, Dict[str, Any]] = {}
        if self.path.exists():
            loaded = json.loads(self.path.read_text())
            self._results = {str(k): dict(v) for k, v in loaded.items()}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._results.get(key)

    def record(self, key: str, result: Dict[str, Any]) -> None:
        self._results[key] = dict(result)
        _write_json(self.path, self._results)

    @property
    def results(self) -> Dict[str, Dict[str, Any]]:
        return dict(self._results)
