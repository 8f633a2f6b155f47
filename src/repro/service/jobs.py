"""Campaign jobs: the unit of work the checking service queues.

A :class:`JobSpec` is the machine + configuration of one checking
campaign, expressed as plain JSON-able values (never pickle — specs
cross the network).  A :class:`JobRecord` is one submitted job's
lifecycle: spec, state, timestamps, progress, per-class result rows,
and error text.  A :class:`JobQueue` persists records as one JSON file
per job under the coordinator's state directory, written atomically, so
a coordinator restart recovers the queue — jobs found ``running`` are
requeued (their per-class checkpoints under ``jobs/<id>/`` make the
re-run resume rather than restart).

Spec validation is strict both ways: unknown keys in a submitted spec
are refused (a newer client talking to an older coordinator must fail
loudly, mirroring the checkpoint meta.json contract), and semantic
invariants (``por`` needs an exhaustive run, kernel/store names must
exist) are checked at submission time so a job can never be accepted
and then die on a worker with a config error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_KERNELS = ("auto", "numpy", "native")
_STORES = ("ram", "mmap", "spill")
_MACHINES = ("snapshot",)


class JobError(ValueError):
    """An invalid job spec or an operation on a job that refuses it."""


@dataclass(frozen=True)
class JobSpec:
    """One campaign: the paper's snapshot machine plus checker config.

    ``budget=0`` means exhaustive.  ``shards`` is the *logical* shard
    count — fixed for the life of the job so results are partition
    -deterministic however many workers come and go (workers are
    assigned shard subsets; see :mod:`repro.service.coordinator`).
    ``checkpoint_every`` is the admitted-state cadence of the job's
    checkpoints and therefore the elasticity guarantee: a killed worker
    loses at most one interval.  ``round_delay_ms`` is a test seam
    (workers sleep that long per round, making mid-run kills
    deterministic in tests); it is clamped to 10 s and defaults to 0.
    ``engine`` accepts only ``"batch"``, the default: the scalar loop
    it once selected was removed, and a spec naming it — submitted, or
    reloaded from a record persisted before the removal — is refused
    with a :class:`JobError`.
    """

    n: int = 2
    budget: int = 0
    fingerprint: bool = False
    symmetry: bool = False
    por: bool = False
    engine: str = "batch"
    kernel: str = "auto"
    store: str = "ram"
    mem_cap: int = 0
    shards: int = 4
    checkpoint_every: int = 2000
    machine: str = "snapshot"
    round_delay_ms: int = 0

    def validate(self) -> None:
        if self.machine not in _MACHINES:
            raise JobError(
                f"unknown machine {self.machine!r};"
                f" choose one of {', '.join(_MACHINES)}"
            )
        if not 1 <= self.n <= 6:
            raise JobError(f"n={self.n} outside the supported range 1..6")
        if self.budget < 0:
            raise JobError(f"budget must be >= 0 (0 = exhaustive): {self.budget}")
        if self.engine != "batch":
            raise JobError(
                f"engine {self.engine!r} is not available: the scalar"
                " exploration loop was removed and 'batch' is the only"
                " engine — resubmit without engine or with 'batch'"
            )
        if self.kernel not in _KERNELS:
            raise JobError(
                f"unknown kernel {self.kernel!r};"
                f" choose one of {', '.join(_KERNELS)}"
            )
        if self.store not in _STORES:
            raise JobError(
                f"unknown store backend {self.store!r};"
                f" choose one of {', '.join(_STORES)}"
            )
        if self.mem_cap < 0:
            raise JobError(f"mem_cap must be >= 0: {self.mem_cap}")
        if not 1 <= self.shards <= 256:
            raise JobError(
                f"shards={self.shards} outside the supported range 1..256"
            )
        if self.checkpoint_every < 1:
            raise JobError(
                f"checkpoint_every must be >= 1: {self.checkpoint_every}"
            )
        if not 0 <= self.round_delay_ms <= 10_000:
            raise JobError(
                f"round_delay_ms={self.round_delay_ms} outside 0..10000"
            )
        if self.por and self.budget:
            # Mirrors the CLI gate: a truncated POR run certifies
            # neither the reduced nor the unreduced state space.
            raise JobError(
                "por requires an exhaustive run (budget=0); a budget"
                " -truncated reduction certifies nothing"
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        declared = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(key for key in payload if key not in declared)
        if unknown:
            raise JobError(
                f"unknown job spec keys {', '.join(unknown)} —"
                " submitted by a newer client? (this coordinator knows:"
                f" {', '.join(sorted(declared))})"
            )
        try:
            spec = cls(**payload)
        except TypeError as exc:
            raise JobError(f"malformed job spec: {exc}") from None
        spec.validate()
        return spec

    def meta(self) -> Dict[str, Any]:
        """The *semantic* configuration, for checkpoint meta validation.

        Store backend, memory cap, checkpoint cadence, the batch kernel,
        and the test delay are operational knobs that do not change
        results, so they are excluded — a job may resume under a
        different store, cadence, or kernel (kernels are bit-identical
        by the native conformance contract).  ``shards`` is semantic:
        budgeted truncation points depend on the logical partition.
        """
        return {
            "machine": self.machine,
            "n": self.n,
            "budget": self.budget,
            "fingerprint": self.fingerprint,
            "symmetry": self.symmetry,
            "por": self.por,
            "engine": self.engine,
            "shards": self.shards,
        }


@dataclass
class JobRecord:
    """One submitted job's persisted lifecycle."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Live counters while running: states, transitions, frontier,
    #: classes_done, classes_total, workers — whatever the coordinator
    #: last published.
    progress: Dict[str, Any] = field(default_factory=dict)
    #: Finished per-class rows: {"class": key, "wiring": [...],
    #: "result": asdict(FastExplorationResult)}.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    cancel_requested: bool = False

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["spec"] = self.spec.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        data = dict(payload)
        spec = JobSpec.from_dict(dict(data.pop("spec", {})))
        declared = {f.name for f in dataclasses.fields(cls)} - {"spec"}
        unknown = sorted(key for key in data if key not in declared)
        if unknown:
            raise JobError(
                f"unknown job record keys: {', '.join(unknown)}"
            )
        if data.get("state") not in JOB_STATES:
            raise JobError(f"unknown job state {data.get('state')!r}")
        return cls(spec=spec, **data)

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


class JobQueue:
    """FIFO of persisted jobs under ``state_dir/jobs`` (one JSON each).

    Writes are atomic (tmp + rename) so a crash mid-save never leaves a
    half-written record.  Job ids are monotonically numbered from what
    the directory already holds, so ids survive restarts without a
    separate counter file.
    """

    def __init__(self, state_dir: Path) -> None:
        self.directory = Path(state_dir) / "jobs"
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        if not job_id.startswith("job-") or "/" in job_id or ".." in job_id:
            raise JobError(f"malformed job id {job_id!r}")
        return self.directory / f"{job_id}.json"

    def _ids(self) -> List[str]:
        ids = [
            entry.stem
            for entry in self.directory.glob("job-*.json")
        ]
        return sorted(ids)

    def submit(self, spec: JobSpec) -> JobRecord:
        spec.validate()
        numbers = [
            int(job_id.split("-", 1)[1])
            for job_id in self._ids()
            if job_id.split("-", 1)[1].isdigit()
        ]
        job_id = f"job-{(max(numbers) + 1) if numbers else 1:06d}"
        record = JobRecord(
            job_id=job_id, spec=spec, created_at=time.time()
        )
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        path = self._path(record.job_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        os.replace(tmp, path)

    def get(self, job_id: str) -> JobRecord:
        path = self._path(job_id)
        if not path.exists():
            raise JobError(f"no such job: {job_id}")
        loaded = json.loads(path.read_text())
        try:
            return JobRecord.from_dict(dict(loaded))
        except JobError as exc:
            raise JobError(f"{job_id}: {exc}") from None

    def list(self) -> List[JobRecord]:
        return [self.get(job_id) for job_id in self._ids()]

    def _loadable(self) -> Iterator[JobRecord]:
        """Every record :meth:`get` accepts.  One it refuses (a spec
        persisted before a removal, say) can never run; skipping it
        keeps the runner alive, and :meth:`get` keeps reporting its
        :class:`JobError` to clients."""
        for job_id in self._ids():
            try:
                yield self.get(job_id)
            except JobError:
                continue

    def next_queued(self) -> Optional[JobRecord]:
        for record in self._loadable():
            if record.state == "queued":
                return record
        return None

    def requeue_interrupted(self) -> List[str]:
        """Running jobs found at startup crashed with the coordinator;
        put them back in the queue (their checkpoints make this a
        resume, not a restart)."""
        requeued = []
        for record in self._loadable():
            if record.state == "running":
                record.state = "queued"
                record.started_at = None
                self.save(record)
                requeued.append(record.job_id)
        return requeued

    def request_cancel(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if record.done:
            return record
        if record.state == "queued":
            record.state = "cancelled"
            record.finished_at = time.time()
        else:
            record.cancel_requested = True
        self.save(record)
        return record

    def job_dir(self, job_id: str) -> Path:
        """Scratch/checkpoint directory of one job (created on demand)."""
        path = self.directory / self._path(job_id).stem
        path.mkdir(parents=True, exist_ok=True)
        return path
