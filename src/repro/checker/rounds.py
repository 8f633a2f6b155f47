"""The shard round driver: one sans-I/O loop behind every sharded run.

Frontier-sharded BFS is level-synchronous: each round every logical
shard admits its inbox, expands one BFS layer and answers with a
:class:`ShardReply`.  :class:`RoundDriver` decides everything between
rounds — the start (recorded result, resume from the last checkpoint,
or the canonical initial state), the merge in ascending logical-shard
order (the lowest reporting shard's violation wins; inboxes concatenate
in sender-shard order), the budget trip at a layer boundary, the POR
totals, the checkpoint cadence and files, and ``mark_complete``.

It never talks to a shard (https://sans-io.readthedocs.io/): it is fed
replies and returns the next action — :class:`SendRound`,
:class:`WriteCheckpoint` or :class:`Finish`.  The transports only move
inboxes, replies and visited dumps: multiprocessing pipes in
:func:`repro.checker.parallel.explore_sharded`, asyncio sockets in
:class:`repro.service.coordinator.Coordinator`.  Pipe and socket runs
of one partition therefore agree by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.checker.batch import fingerprint_many
from repro.checker.fast_snapshot import FastExplorationResult, FastSnapshotSpec
from repro.store.checkpoint import RunCheckpointer, load_result, write_u64_file

if TYPE_CHECKING:
    from repro.store.base import U64Array

#: The POR counters a checkpoint persists (``counters.json`` keys).
POR_KEYS = (
    "transitions_pruned", "ample_states", "fully_expanded_states",
    "cycle_proviso_expansions",
)

_EMPTY = np.zeros(0, dtype=np.uint64)


class WorkerDied(RuntimeError):
    """A shard worker failed mid-run (closed connection or error reply)."""


@dataclass(frozen=True)
class ShardReply:
    """One shard's answer to one round; both transports carry it.

    ``outboxes`` maps each owning shard to the u64 wire entries
    ``(state << 1) | canonical_bit`` it receives next round.  ``por``
    is the shard's *cumulative* POR counters (``None`` without POR).
    """

    admitted: int
    transitions: int
    violation: Optional[str]
    outboxes: Dict[int, "U64Array"]
    covered: Optional[int]
    skipped: int
    por: Optional[Dict[str, int]]

    def to_layer(self, shard: int, payloads: List[object]) -> Dict[str, Any]:
        """This reply as one ``results`` entry of a service ``layer``
        frame; the outboxes are appended to ``payloads``."""
        refs = []
        for dest in sorted(self.outboxes):
            refs.append([dest, len(payloads)])
            payloads.append(self.outboxes[dest])
        return {
            "shard": shard,
            "admitted": self.admitted,
            "transitions": self.transitions,
            "violation": self.violation,
            "covered": self.covered,
            "skipped": self.skipped,
            "por": self.por,
            "outboxes": refs,
        }

    @classmethod
    def from_layer(
        cls, entry: Mapping[str, Any], payloads: List[Any]
    ) -> "ShardReply":
        """Inverse of :meth:`to_layer` over a received frame."""
        return cls(
            admitted=int(entry["admitted"]),
            transitions=int(entry["transitions"]),
            violation=entry.get("violation") or None,
            outboxes={
                int(dest): np.frombuffer(payloads[int(index)], dtype=np.uint64)
                for dest, index in entry.get("outboxes", [])
            },
            covered=entry.get("covered"),
            skipped=int(entry.get("skipped") or 0),
            por=entry.get("por"),
        )


@dataclass(frozen=True)
class SendRound:
    """Send every shard its inbox and feed the replies to
    :meth:`RoundDriver.merge`."""

    seq: int
    inboxes: Dict[int, "U64Array"]
    frontier: int

    def inbox(self, shard: int) -> "U64Array":
        return self.inboxes.get(shard, _EMPTY)


@dataclass(frozen=True)
class WriteCheckpoint:
    """Dump shard ``s``'s visited set to ``dumps[s]``, then call
    :meth:`RoundDriver.commit`, which returns ``pending``."""

    staging: Path
    dumps: Tuple[Path, ...]
    pending: SendRound


@dataclass(frozen=True)
class Finish:
    """The run is over; ``result`` is its verdict."""

    result: FastExplorationResult


Action = Union[SendRound, WriteCheckpoint, Finish]


def _dump_paths(directory: Path, n_shards: int) -> Tuple[Path, ...]:
    return tuple(
        directory / f"visited-{shard:03d}.u64" for shard in range(n_shards)
    )


class RoundDriver:
    """The state machine of one sharded exploration (module docstring).

    Call :meth:`start` once; when it returns a :class:`SendRound` and
    :attr:`resume_dumps` is non-empty, load ``resume_dumps[s]`` into
    shard ``s`` before sending the round.  Then answer each action
    until :class:`Finish`.
    """

    def __init__(
        self,
        spec: FastSnapshotSpec,
        n_shards: int,
        max_states: int,
        symmetry: bool = False,
        por: bool = False,
        checkpointer: Optional[RunCheckpointer] = None,
    ) -> None:
        if spec.state_bits > 63:
            raise ValueError(
                f"sharded wire entries are (state << 1) | canonical_bit in a"
                f" u64 word; this configuration packs states into"
                f" {spec.state_bits} bits"
            )
        self.spec = spec
        self.n_shards = n_shards
        self.max_states = max_states
        self.symmetry = symmetry
        self.por = por
        self.checkpointer = checkpointer
        self.group_order: Optional[int] = None
        self.states = 0
        self.transitions = 0
        self.covered: Optional[int] = 0 if symmetry else None
        self.skipped: Optional[int] = 0 if symmetry else None
        self.por_base: Dict[str, int] = {}
        self.shard_por: List[Optional[Dict[str, int]]] = [None] * n_shards
        self.resume_dumps: Tuple[Path, ...] = ()
        self._seq = 0

    # -- start ---------------------------------------------------------

    def start(self) -> Union[SendRound, Finish]:
        """The first action: a recorded result, or the first round."""
        checkpointer = self.checkpointer
        if checkpointer is not None:
            recorded = checkpointer.completed_result()
            if recorded is not None:
                return Finish(load_result(FastExplorationResult, recorded))
        canonicalizer = None
        if self.symmetry:
            from repro.checker.symmetry import FastCanonicalizer

            canonicalizer = FastCanonicalizer(self.spec)
            self.group_order = canonicalizer.order
        resumed = checkpointer.latest() if checkpointer is not None else None
        if resumed is None:
            initial = self.spec.initial_state()
            canonical_bit = 0
            if canonicalizer is not None:
                initial = canonicalizer.canonical(initial)
                canonical_bit = 0 if canonicalizer.trivial else 1
            entries = np.array(
                [(initial << 1) | canonical_bit], dtype=np.uint64
            )
            return self._round(self._route(entries))
        self.states = resumed.counter("admitted")
        self.transitions = resumed.counter("transitions")
        if self.covered is not None:
            self.covered = resumed.counter("covered")
        if self.skipped is not None:
            self.skipped = resumed.counter("skipped")
        if self.por:
            self.por_base = {
                key: int(resumed.counters.get(key, 0)) for key in POR_KEYS
            }
        self.resume_dumps = _dump_paths(resumed.directory, self.n_shards)
        frontier = np.frombuffer(resumed.frontier(), dtype=np.uint64)
        return self._round(self._route(frontier))

    def _route(self, entries: "U64Array") -> Dict[int, "U64Array"]:
        """Wire entries grouped by owning shard, order kept.

        The owner is ``fingerprint_int(entry >> 1) % n_shards``;
        :func:`~repro.checker.batch.fingerprint_many` computes it for
        the whole array (the states fit in 63 bits).
        """
        owners = fingerprint_many(entries >> np.uint64(1)) % np.uint64(
            self.n_shards
        )
        inboxes = {}
        for shard in range(self.n_shards):
            part = entries[owners == np.uint64(shard)]
            if part.size:
                inboxes[shard] = part
        return inboxes

    def _round(self, inboxes: Dict[int, "U64Array"]) -> SendRound:
        self._seq += 1
        return SendRound(
            self._seq, inboxes, sum(int(b.size) for b in inboxes.values())
        )

    # -- rounds --------------------------------------------------------

    def merge(self, replies: Mapping[int, ShardReply]) -> Action:
        """Fold one round's replies (keyed by logical shard) and decide
        what comes next."""
        violation: Optional[str] = None
        parts: Dict[int, List["U64Array"]] = {}
        for shard in range(self.n_shards):
            reply = replies.get(shard)
            if reply is None:
                raise WorkerDied(
                    f"no worker reported shard {shard} in round {self._seq}"
                )
            self.states += reply.admitted
            self.transitions += reply.transitions
            if self.covered is not None and reply.covered is not None:
                self.covered += reply.covered
            if self.skipped is not None:
                self.skipped += reply.skipped
            if reply.por is not None:
                self.shard_por[shard] = reply.por
            if reply.violation is not None and violation is None:
                violation = reply.violation
            for owner, boundary in reply.outboxes.items():
                parts.setdefault(owner, []).append(boundary)
        if violation is not None:
            return self._finish(complete=True, violation=violation)
        inboxes = {}
        for owner, chunks in parts.items():
            merged = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            if merged.size:
                inboxes[owner] = merged
        if not inboxes:
            return self._finish(complete=True)
        pending = self._round(inboxes)
        if self.states >= self.max_states:
            return self._finish(complete=False, truncated=pending.frontier)
        checkpointer = self.checkpointer
        if checkpointer is not None and checkpointer.due(self.states):
            staging = checkpointer.begin()
            return WriteCheckpoint(
                staging, _dump_paths(staging, self.n_shards), pending
            )
        return pending

    # -- checkpoints ---------------------------------------------------

    def commit(self, action: WriteCheckpoint) -> SendRound:
        """Seal a checkpoint whose visited dumps are written: add the
        pending frontier and the counters, then resume the rounds."""
        assert self.checkpointer is not None
        inboxes = action.pending.inboxes
        write_u64_file(
            action.staging / "frontier.u64",
            np.concatenate([_EMPTY] + [inboxes[o] for o in sorted(inboxes)]),
        )
        counters = {
            "admitted": self.states,
            "transitions": self.transitions,
            "covered": self.covered if self.covered is not None else 0,
            "skipped": self.skipped if self.skipped is not None else 0,
        }
        por_totals = self._por_totals()
        if por_totals is not None:
            counters.update(por_totals)
        self.checkpointer.commit(action.staging, counters)
        return action.pending

    # -- results -------------------------------------------------------

    def _por_totals(self) -> Optional[Dict[str, int]]:
        if not self.por:
            return None
        totals = {key: self.por_base.get(key, 0) for key in POR_KEYS}
        for snapshot in self.shard_por:
            if snapshot:
                for key, value in snapshot.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def _finish(
        self,
        complete: bool,
        violation: Optional[str] = None,
        truncated: int = 0,
    ) -> Finish:
        result = FastExplorationResult(
            states=self.states,
            transitions=self.transitions,
            complete=complete,
            violation=violation,
            truncated_transitions=truncated,
            covered_states=self.covered,
            symmetry_group_order=self.group_order,
            recanonicalizations_skipped=self.skipped,
            por_counters=self._por_totals(),
        )
        if self.checkpointer is not None:
            self.checkpointer.mark_complete(asdict(result))
        return Finish(result)
