"""Bitmask-encoded exploration of the snapshot algorithm.

Exhaustively exploring the 3-processor snapshot algorithm (the paper's
TLC claim A) needs tens of millions of states; the generic
object-encoded explorer of :mod:`repro.checker.explorer` is too slow for
that in pure Python.  This module provides a specialized, semantically
identical transition system in which one global state is a single
Python ``int``:

- register ``r`` holds ``view_mask | (level << K)``;
- processor ``p`` holds packed fields ``(view, level, unwritten, phase,
  scan_pos, all_match, min_level, acc)``;

with ``K`` the number of distinct inputs.  The transition rules mirror
:class:`repro.core.snapshot.SnapshotMachine` line for line; conformance
tests (``tests/test_fast_snapshot.py``) check that the fast system and
the generic system produce identical reachable-state graphs for ``N=2``
and identical random-walk behaviours for ``N=3``, and
``tests/test_batch_engine.py`` checks the exploration loop's counts
against the generic :class:`~repro.checker.explorer.Explorer`, so
whatever the fast explorer certifies transfers to the real
implementation.

Beyond speed, the module implements the *configuration symmetry
reduction* used by experiment E4: wiring assignments are enumerated up
to (a) relabelling of physical registers and (b) simultaneous
permutation of processors and their (distinct) inputs — both are
isomorphisms of the induced state graph, because processors are
anonymous (identical code) and the checked properties are invariant
under renaming inputs.  For ``N = M = 3`` this cuts the 216 raw wiring
assignments to a handful of canonical classes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.store.base import StoreConfig
from repro.store.checkpoint import RunCheckpointer, load_result

# Phase encoding.
_PHASE_WRITE = 0
_PHASE_SCAN = 1
_PHASE_DONE = 2

#: The one exploration loop.  ``engine`` survives as a keyword of the
#: public entry points so callers that spell it out keep working.
ENGINE = "batch"


def require_batch_engine(engine: str) -> None:
    """Refuse any ``engine`` but ``"batch"``, naming the removal."""
    if engine != ENGINE:
        raise ValueError(
            f"engine {engine!r} is not available: the scalar exploration"
            f" loop was removed and {ENGINE!r} is the only engine — drop"
            f" the engine argument or pass {ENGINE!r}"
        )


@dataclass
class FastExplorationResult:
    """Outcome of one fast exhaustive exploration."""

    states: int
    transitions: int
    complete: bool
    violation: Optional[str] = None
    #: (pid, schedule) witnessing a wait-freedom violation, if checked.
    bad_lasso_pid: Optional[int] = None
    #: Transitions whose (new) target was dropped at the state budget.
    truncated_transitions: int = 0
    #: Symmetry runs only: concrete states covered by the explored
    #: orbit representatives (sum of orbit sizes); ``covered / states``
    #: is the reduction ratio achieved by the quotient.
    covered_states: Optional[int] = None
    #: Symmetry runs only: order of the wiring-stabilizer group.
    symmetry_group_order: Optional[int] = None
    #: Sharded symmetry runs only: boundary states received already in
    #: canonical form (certified by the wire format's canonical bit),
    #: whose re-canonicalization was therefore skipped.
    recanonicalizations_skipped: Optional[int] = None
    #: Runs with an explicit store configuration: the backend's
    #: operation counters plus ``file_bytes`` (disk footprint).
    store_counters: Optional[Dict[str, int]] = None
    #: POR runs only: ample-set selector counters (transitions pruned,
    #: ample vs fully-expanded states, cycle-proviso expansions).
    por_counters: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None and self.bad_lasso_pid is None


class FastSnapshotSpec:
    """The Figure 3 algorithm over packed-integer global states.

    Parameters mirror :class:`~repro.core.snapshot.SnapshotMachine`;
    ``wiring`` is a tuple of permutations (local -> physical), one per
    processor.
    """

    def __init__(
        self,
        inputs: Sequence[int],
        wiring: Sequence[Sequence[int]],
        n_registers: Optional[int] = None,
        level_target: Optional[int] = None,
    ) -> None:
        self.n = len(inputs)
        self.m = n_registers if n_registers is not None else len(wiring[0])
        if any(len(perm) != self.m for perm in wiring):
            raise ValueError("wiring width does not match register count")
        self.level_target = self.n if level_target is None else level_target
        self.wiring = tuple(tuple(perm) for perm in wiring)
        self.inputs = tuple(inputs)

        # Input values -> bit positions (duplicates share a bit: groups).
        distinct = sorted(set(inputs), key=repr)
        self.value_bits = {value: index for index, value in enumerate(distinct)}
        self.bit_values = distinct
        self.k = len(distinct)
        self.input_masks = tuple(1 << self.value_bits[value] for value in inputs)

        # Field widths.
        self.lv_bits = max(1, self.level_target.bit_length())
        if self.level_target >= (1 << self.lv_bits):
            self.lv_bits += 1
        self.ml_sentinel = self.level_target + 1  # "no level read yet"
        self.ml_bits = max(1, self.ml_sentinel.bit_length())
        self.sp_bits = max(1, (self.m - 1).bit_length()) if self.m > 1 else 1
        self.reg_bits = self.k + self.lv_bits
        # Local layout: view | level | unwritten | phase | scan_pos |
        #               all_match | min_level.  (The scan accumulator is
        # folded into the view, mirroring SnapshotState's quotient.)
        self.o_level = self.k
        self.o_unwritten = self.o_level + self.lv_bits
        self.o_phase = self.o_unwritten + self.m
        self.o_scanpos = self.o_phase + 2
        self.o_allmatch = self.o_scanpos + self.sp_bits
        self.o_minlevel = self.o_allmatch + 1
        self.local_bits = self.o_minlevel + self.ml_bits

        # Global layout: registers first, then locals.
        self.reg_offsets = tuple(r * self.reg_bits for r in range(self.m))
        base = self.m * self.reg_bits
        self.local_offsets = tuple(
            base + p * self.local_bits for p in range(self.n)
        )

        self.k_mask = (1 << self.k) - 1
        self.lv_mask = (1 << self.lv_bits) - 1
        self.ml_mask = (1 << self.ml_bits) - 1
        self.sp_mask = (1 << self.sp_bits) - 1
        self.m_mask = (1 << self.m) - 1
        self.reg_mask = (1 << self.reg_bits) - 1
        self.local_mask = (1 << self.local_bits) - 1
        self.state_bits = self.local_offsets[-1] + self.local_bits

        # ------------------------------------------------------------------
        # Hot-path tables (see `successors`; the batch kernel converts
        # them to u64 masks):
        # everything a transition needs that depends only on (pid, reg)
        # is precomputed, and pack_local is replaced by OR-ing field
        # templates onto bits that are already in position (o_level ==
        # k, so a local's view+level bits *are* the register record).
        # ------------------------------------------------------------------
        #: In-place field masks.
        self._level_field = self.lv_mask << self.o_level
        self._unwritten_field = self.m_mask << self.o_unwritten
        self._record_field = self.k_mask | self._level_field
        #: Shift of the physical register written/read via local index.
        self._phys_offset = tuple(
            tuple(self.reg_offsets[self.wiring[pid][reg]] for reg in range(self.m))
            for pid in range(self.n)
        )
        #: Clears pid's local; ANDed into the state on every step.
        self._local_clear = tuple(
            ~(self.local_mask << offset) for offset in self.local_offsets
        )
        #: Clears pid's local *and* the register behind (pid, reg).
        self._write_clear = tuple(
            tuple(
                self._local_clear[pid]
                & ~(self.reg_mask << self._phys_offset[pid][reg])
                for reg in range(self.m)
            )
            for pid in range(self.n)
        )
        #: Constant template bits of a freshly packed local, per phase:
        #: scan_pos=0, all_match=1, min_level=sentinel (+ the phase).
        self._scan_reset = (
            (_PHASE_SCAN << self.o_phase)
            | (1 << self.o_allmatch)
            | (self.ml_sentinel << self.o_minlevel)
        )
        self._write_reset = (
            (1 << self.o_allmatch) | (self.ml_sentinel << self.o_minlevel)
        )
        self._done_reset = (
            (_PHASE_DONE << self.o_phase)
            | (1 << self.o_allmatch)
            | (self.ml_sentinel << self.o_minlevel)
        )

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def pack_local(
        self,
        view: int,
        level: int,
        unwritten: int,
        phase: int,
        scan_pos: int,
        all_match: int,
        min_level: int,
    ) -> int:
        return (
            view
            | (level << self.o_level)
            | (unwritten << self.o_unwritten)
            | (phase << self.o_phase)
            | (scan_pos << self.o_scanpos)
            | (all_match << self.o_allmatch)
            | (min_level << self.o_minlevel)
        )

    def initial_state(self) -> int:
        state = 0
        for pid in range(self.n):
            local = self.pack_local(
                view=self.input_masks[pid],
                level=0,
                unwritten=self.m_mask,
                phase=_PHASE_WRITE,
                scan_pos=0,
                all_match=1,
                min_level=self.ml_sentinel,
            )
            state |= local << self.local_offsets[pid]
        return state

    def local_of(self, state: int, pid: int) -> int:
        return (state >> self.local_offsets[pid]) & self.local_mask

    def register_of(self, state: int, physical: int) -> int:
        return (state >> self.reg_offsets[physical]) & self.reg_mask

    def view_of(self, state: int, pid: int) -> int:
        return self.local_of(state, pid) & self.k_mask

    def phase_of(self, state: int, pid: int) -> int:
        return (self.local_of(state, pid) >> self.o_phase) & 3

    def done(self, state: int, pid: int) -> bool:
        return self.phase_of(state, pid) == _PHASE_DONE

    def output_views(self, state: int) -> Dict[int, frozenset]:
        """pid -> output view (as a frozenset of input values)."""
        outputs = {}
        for pid in range(self.n):
            if self.done(state, pid):
                mask = self.view_of(state, pid)
                outputs[pid] = frozenset(
                    self.bit_values[b] for b in range(self.k) if mask >> b & 1
                )
        return outputs

    # ------------------------------------------------------------------
    # Transition relation
    # ------------------------------------------------------------------
    def successors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(pid, next_state)`` one-step successors.

        Enumeration order (pid ascending, then local register
        ascending) is part of the conformance contract with the generic
        :class:`~repro.checker.system.SystemSpec` and must not change.
        """
        result: List[Tuple[int, int]] = []
        local_mask = self.local_mask
        record_field = self._record_field
        scan_reset = self._scan_reset
        unwritten_shift = self.o_unwritten
        m = self.m
        m_mask = self.m_mask
        for pid in range(self.n):
            offset = self.local_offsets[pid]
            local = (state >> offset) & local_mask
            phase = (local >> self.o_phase) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                record = local & record_field
                unwritten = (local >> unwritten_shift) & m_mask
                phys_offset = self._phys_offset[pid]
                write_clear = self._write_clear[pid]
                for reg in range(m):
                    if not (unwritten >> reg) & 1:
                        continue
                    remaining = unwritten & ~(1 << reg)
                    if remaining == 0:
                        remaining = m_mask
                    new_local = (
                        record | (remaining << unwritten_shift) | scan_reset
                    )
                    result.append((
                        pid,
                        (state & write_clear[reg])
                        | (record << phys_offset[reg])
                        | (new_local << offset),
                    ))
            else:  # scanning
                result.append((pid, self._apply_read(state, pid, local, offset)))
        return result

    def _apply_read(self, state: int, pid: int, local: int, offset: int) -> int:
        k_mask = self.k_mask
        view = local & k_mask
        scan_pos = (local >> self.o_scanpos) & self.sp_mask
        all_match = (local >> self.o_allmatch) & 1
        min_level = (local >> self.o_minlevel) & self.ml_mask

        record = (state >> self._phys_offset[pid][scan_pos]) & self.reg_mask
        read_view = record & k_mask
        if all_match and read_view == view:
            read_level = record >> self.k
            if read_level < min_level:
                min_level = read_level
        else:
            # Mirror SnapshotState's quotient: once the scan stopped
            # matching, fold reads into the view immediately and drop
            # the level bookkeeping.
            all_match = 0
            view |= read_view
            min_level = self.ml_sentinel

        if scan_pos + 1 < self.m:
            new_local = (
                view
                | (local & self._level_field)
                | (local & self._unwritten_field)
                | (_PHASE_SCAN << self.o_phase)
                | ((scan_pos + 1) << self.o_scanpos)
                | (all_match << self.o_allmatch)
                | (min_level << self.o_minlevel)
            )
        else:
            new_level = (min_level + 1) if all_match else 0
            if new_level >= self.level_target:
                new_local = (
                    view
                    | (min(new_level, self.lv_mask) << self.o_level)
                    | self._done_reset
                )
            else:
                new_local = (
                    view
                    | (new_level << self.o_level)
                    | (local & self._unwritten_field)
                    | self._write_reset
                )
        return (state & self._local_clear[pid]) | (new_local << offset)

    # ------------------------------------------------------------------
    # Safety: outputs must be pairwise containment-related and valid
    # ------------------------------------------------------------------
    def check_outputs(self, state: int) -> Optional[str]:
        views: List[Tuple[int, int]] = []  # (pid, view mask)
        for pid in range(self.n):
            if self.done(state, pid):
                views.append((pid, self.view_of(state, pid)))
        for index, (pid, mask) in enumerate(views):
            if not mask & self.input_masks[pid]:
                return f"processor {pid} output misses its own input"
            for other_pid, other_mask in views[index + 1 :]:
                meet = mask & other_mask
                if meet != mask and meet != other_mask:
                    return (
                        f"incomparable outputs: p{pid}={self._fmt(mask)}"
                        f" vs p{other_pid}={self._fmt(other_mask)}"
                    )
        return None

    def _fmt(self, mask: int) -> str:
        values = [str(self.bit_values[b]) for b in range(self.k) if mask >> b & 1]
        return "{" + ",".join(values) + "}"

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def explore(
        self,
        max_states: int = 200_000_000,
        check_safety: bool = True,
        check_wait_freedom: bool = False,
        progress_every: int = 0,
        fingerprint: bool = False,
        symmetry: bool = False,
        store: Optional[StoreConfig] = None,
        checkpointer: Optional[RunCheckpointer] = None,
        por: bool = False,
        por_cycle_proviso: bool = True,
        engine: str = ENGINE,
        kernel: str = "auto",
        heartbeat=None,
    ) -> FastExplorationResult:
        """BFS over all reachable states (for this wiring).

        Safety runs go through the level-batched loop
        (:func:`repro.checker.batch.explore_batch`), which holds whole
        BFS levels as numpy u64 arrays and therefore needs states that
        pack into 64 bits (every ``N <= 3`` configuration does).  Its
        results are field-identical to the generic
        :class:`~repro.checker.explorer.Explorer` on the unreduced
        graph, the independent oracle ``tests/test_batch_engine.py``
        compares it against.

        With ``check_wait_freedom`` the full edge list is retained and
        analysed for bad lassos (cycles where some processor steps but
        never terminates); see :mod:`repro.checker.liveness` for the
        argument.  That path keeps every state and edge in Python RAM,
        so it combines with none of the reductions or stores below.

        With ``fingerprint`` the visited set stores 64-bit state
        fingerprints instead of the packed states themselves (TLC's
        memory model, with a ~n²/2⁶⁵ collision probability).  The
        states this loop accepts are 64 bits or fewer, so the key is
        eight bytes either way: the flag saves no memory here and adds
        a hashing pass per level.

        With ``symmetry`` the visited set keys on orbit
        representatives under the wiring-stabilizer group
        (:mod:`repro.checker.symmetry`), exploring up to ``N!`` times
        fewer states; the result reports ``covered_states`` (sum of
        orbit sizes — the concrete states the run certifies) next to
        the representative count.  The safety verdict is unchanged
        (output comparability/validity is permutation-invariant); a
        violation *message*, checked on the representative, may name a
        permuted pid.

        ``store`` selects the visited-set backend (:mod:`repro.store`):
        None / the default RamStore keeps the in-memory set; the mmap
        and spill backends bound memory for runs whose visited set
        outgrows RAM.  All backends produce identical results.

        ``checkpointer`` persists the run (frontier + visited dump +
        counters) every ``checkpointer.every`` admitted states; calling
        ``explore`` again with a checkpointer over the same directory
        resumes from the last committed checkpoint, or returns the
        recorded result directly if the run already finished.

        With ``por`` an ample-set partial-order reduction prunes
        commuting interleavings, selecting ample sets for a whole BFS
        level at once (:class:`~repro.checker.batch.BatchAmpleSelector`,
        conditions in :mod:`repro.checker.por`).  Verdicts equal the
        unreduced run's; state and transition counts are the
        selector's own.  ``por_cycle_proviso`` is a test seam
        (disables C3); leave it on.

        ``kernel`` picks the level kernel: ``"auto"`` (default) uses
        the generated native C kernel (:mod:`repro.checker.native`)
        when a C compiler is present and the numpy kernel otherwise;
        ``"numpy"`` and ``"native"`` force a choice (an unavailable
        ``"native"`` silently degrades to numpy — results are
        bit-identical either way).

        ``engine`` accepts only ``"batch"``, the default: the scalar
        loop it once selected was removed, and naming it raises
        :class:`ValueError`.
        """
        require_batch_engine(engine)
        if kernel not in ("auto", "numpy", "native"):
            raise ValueError(
                f"unknown kernel {kernel!r}; choose 'auto', 'numpy' or"
                f" 'native'"
            )
        if por and check_wait_freedom:
            raise ValueError(
                "partial-order reduction prunes interleavings, but"
                " wait-freedom (lasso) analysis needs the full"
                " unreduced transition graph — drop por"
            )
        if fingerprint and check_wait_freedom:
            raise ValueError(
                "fingerprint mode keeps no state table; wait-freedom"
                " (lasso) analysis requires a full indexed exploration"
            )
        if symmetry and check_wait_freedom:
            raise ValueError(
                "symmetry reduction relabels processors per state, so"
                " pid edge labels are not orbit-stable; wait-freedom"
                " (lasso) analysis needs the unreduced graph"
            )
        if check_wait_freedom and store is not None and store.backend != "ram":
            raise ValueError(
                "wait-freedom (lasso) analysis keeps a full in-RAM indexed"
                " state table; disk-backed stores apply to the lean safety"
                " loop only"
            )
        if check_wait_freedom and checkpointer is not None:
            raise ValueError(
                "checkpoint/resume covers the lean safety loop;"
                " wait-freedom analysis keeps its whole edge list"
                " in RAM and cannot be resumed"
            )
        if check_wait_freedom:
            return self._explore_with_edges(
                max_states, check_safety, progress_every
            )
        if checkpointer is not None:
            recorded = checkpointer.completed_result()
            if recorded is not None:
                return load_result(FastExplorationResult, recorded)
        from repro.checker.batch import explore_batch

        result = explore_batch(
            self, max_states, check_safety, progress_every,
            fingerprint, symmetry, store, checkpointer,
            por, por_cycle_proviso, heartbeat=heartbeat,
            kernel=kernel,
        )
        if checkpointer is not None:
            checkpointer.mark_complete(asdict(result))
        return result

    def _explore_with_edges(
        self, max_states: int, check_safety: bool, progress_every: int
    ) -> FastExplorationResult:
        initial = self.initial_state()
        index_of: Dict[int, int] = {initial: 0}
        frontier: deque = deque([initial])
        transitions = 0
        truncated = 0
        complete = True
        edges: List[Tuple[int, int, int]] = []
        order: List[int] = [initial]

        if check_safety:
            violation = self.check_outputs(initial)
            if violation:
                return FastExplorationResult(1, 0, True, violation)

        while frontier:
            state = frontier.popleft()
            state_index = index_of[state]
            for pid, successor in self.successors(state):
                transitions += 1
                successor_index = index_of.get(successor)
                if successor_index is None:
                    if len(index_of) >= max_states:
                        complete = False
                        truncated += 1
                        continue
                    successor_index = len(index_of)
                    index_of[successor] = successor_index
                    order.append(successor)
                    frontier.append(successor)
                    if check_safety:
                        violation = self.check_outputs(successor)
                        if violation:
                            return FastExplorationResult(
                                len(index_of), transitions, complete, violation,
                                truncated_transitions=truncated,
                            )
                    if progress_every and len(index_of) % progress_every == 0:
                        print(
                            f"  ... {len(index_of)} states,"
                            f" {transitions} transitions", flush=True
                        )
                edges.append((state_index, pid, successor_index))
            if not complete:
                break

        bad_pid = None
        if complete:
            bad_pid = self._find_bad_lasso(order, edges)
        return FastExplorationResult(
            states=len(index_of),
            transitions=transitions,
            complete=complete,
            bad_lasso_pid=bad_pid,
            truncated_transitions=truncated,
        )

    def _find_bad_lasso(
        self, order: List[int], edges: List[Tuple[int, int, int]]
    ) -> Optional[int]:
        from repro.checker.liveness import _scc_ids

        n_states = len(order)
        alive_cache: List[int] = [0] * n_states
        for index, state in enumerate(order):
            mask = 0
            for pid in range(self.n):
                if not self.done(state, pid):
                    mask |= 1 << pid
            alive_cache[index] = mask
        for pid in range(self.n):
            bit = 1 << pid
            adjacency: Dict[int, List[int]] = {}
            pid_edges: List[Tuple[int, int]] = []
            for src, actor, dst in edges:
                if alive_cache[src] & bit and alive_cache[dst] & bit:
                    adjacency.setdefault(src, []).append(dst)
                    if actor == pid:
                        pid_edges.append((src, dst))
            if not pid_edges:
                continue
            component = _scc_ids(adjacency, n_states)
            for src, dst in pid_edges:
                if src == dst or (
                    component[src] == component[dst] and component[src] != -1
                ):
                    return pid
        return None


#: ``check_outputs`` as defined by the class body above, captured before
#: any monkeypatch can run (patching requires importing this module
#: first).  The batch engine compares the live class attribute against
#: this to decide whether its vectorized safety mask is faithful or an
#: override (tests seed violations through ``check_outputs``) requires
#: per-state calls.
_STOCK_CHECK_OUTPUTS = FastSnapshotSpec.check_outputs


# ----------------------------------------------------------------------
# Claim-B search on the packed representation
# ----------------------------------------------------------------------

@dataclass
class FastAtomicityHit:
    """A claim-B counterexample found by the fast search.

    ``schedule`` is a list of ``(pid, local_register_or_None)`` steps:
    a local register index for a write step, ``None`` for the (unique)
    scan read.  :meth:`to_ops` lifts it to replayable simulator ops.
    """

    pid: int
    output: frozenset
    schedule: List[Tuple[int, Optional[int]]]

    def to_ops(self, machine) -> List[Tuple[int, object]]:
        """Translate into (pid, Op) pairs against ``machine`` states.

        Replays the schedule symbolically: for a write step the recorded
        local register selects among the machine's enabled writes; for a
        read step the machine's single enabled read is taken.
        """
        from repro.sim.ops import Read, Write

        ops: List[Tuple[int, object]] = []
        for pid, reg in self.schedule:
            if reg is None:
                ops.append((pid, None))  # resolved during replay
            else:
                ops.append((pid, reg))
        return ops


class FastAtomicitySearch:
    """DFS/BFS hunt for outputs the memory never contained.

    Augments each packed state with a bitmask over the (at most
    ``2^K``) possible memory unions seen along the path; a processor
    terminating with a view whose union-bit is unset witnesses the
    paper's Section 8 claim.  The DFS keeps the current path on its
    frame stack, so hits come with a full replayable schedule.
    """

    def __init__(self, spec: FastSnapshotSpec) -> None:
        if spec.k > 16:
            raise ValueError("union bitmask supports at most 16 distinct inputs")
        self.spec = spec
        self._state_bits = (
            spec.local_offsets[-1] + spec.local_bits
        )

    # -- helpers ---------------------------------------------------------
    def memory_union_mask(self, state: int) -> int:
        spec = self.spec
        union = 0
        for offset in spec.reg_offsets:
            union |= (state >> offset) & spec.k_mask
        return union

    def successors_with_actions(
        self, state: int
    ) -> List[Tuple[int, Optional[int], int]]:
        """Like ``successors`` but tagging each step with the local
        register written (or None for a read)."""
        spec = self.spec
        result: List[Tuple[int, Optional[int], int]] = []
        for pid in range(spec.n):
            offset = spec.local_offsets[pid]
            local = (state >> offset) & spec.local_mask
            phase = (local >> spec.o_phase) & 3
            if phase == _PHASE_DONE:
                continue
            if phase == _PHASE_WRITE:
                view = local & spec.k_mask
                level = (local >> spec.o_level) & spec.lv_mask
                unwritten = (local >> spec.o_unwritten) & spec.m_mask
                record = view | (level << spec.k)
                for reg in range(spec.m):
                    if not (unwritten >> reg) & 1:
                        continue
                    remaining = unwritten & ~(1 << reg)
                    if remaining == 0:
                        remaining = spec.m_mask
                    new_local = spec.pack_local(
                        view, level, remaining, _PHASE_SCAN, 0, 1,
                        spec.ml_sentinel,
                    )
                    physical = spec.wiring[pid][reg]
                    reg_offset = spec.reg_offsets[physical]
                    new_state = (
                        state
                        & ~(spec.reg_mask << reg_offset)
                        & ~(spec.local_mask << offset)
                    ) | (record << reg_offset) | (new_local << offset)
                    result.append((pid, reg, new_state))
            else:
                result.append(
                    (pid, None, spec._apply_read(state, pid, local, offset))
                )
        return result

    # -- the search -------------------------------------------------------
    def dfs(
        self, max_visited: int = 5_000_000, shuffle_seed: Optional[int] = None
    ) -> Tuple[Optional[FastAtomicityHit], int]:
        """Depth-first hunt; returns ``(hit_or_None, states_visited)``."""
        import random as random_module

        spec = self.spec
        rng = (
            random_module.Random(shuffle_seed)
            if shuffle_seed is not None
            else None
        )
        shift = self._state_bits
        initial = spec.initial_state()
        start = initial | (
            (1 << self.memory_union_mask(initial)) << shift
        )
        state_mask = (1 << shift) - 1
        visited = {start}
        # Frame: (augmented state, successor list, next index); the
        # schedule stack mirrors the path.
        frames: List[List] = [[start, None, 0]]
        path: List[Tuple[int, Optional[int]]] = []

        while frames:
            frame = frames[-1]
            aug, successors, cursor = frame
            state = aug & state_mask
            seen_mask = aug >> shift
            if successors is None:
                successors = self.successors_with_actions(state)
                if rng is not None:
                    rng.shuffle(successors)
                frame[1] = successors
            if cursor >= len(successors):
                frames.pop()
                if path:
                    path.pop()
                continue
            frame[2] = cursor + 1
            pid, action, new_state = successors[cursor]
            union_bit = 1 << self.memory_union_mask(new_state)
            new_seen = seen_mask | union_bit
            # Termination check: did pid just finish?
            if spec.done(new_state, pid) and not spec.done(state, pid):
                view = spec.view_of(new_state, pid)
                if not (new_seen >> view) & 1:
                    output = frozenset(
                        spec.bit_values[b]
                        for b in range(spec.k)
                        if (view >> b) & 1
                    )
                    return (
                        FastAtomicityHit(
                            pid=pid,
                            output=output,
                            schedule=path + [(pid, action)],
                        ),
                        len(visited),
                    )
            new_aug = new_state | (new_seen << shift)
            if new_aug in visited:
                continue
            if len(visited) >= max_visited:
                return None, len(visited)
            visited.add(new_aug)
            frames.append([new_aug, None, 0])
            path.append((pid, action))
        return None, len(visited)


def replay_fast_hit(machine, inputs, wiring_perms, hit) -> Tuple[dict, bool]:
    """Independently replay a :class:`FastAtomicityHit` on the generic
    machine; returns ``(outputs, union_never_matched)``."""
    from repro.checker.atomicity import memory_union
    from repro.checker.system import SystemSpec
    from repro.memory.wiring import WiringAssignment
    from repro.sim.ops import Read, Write

    wiring = WiringAssignment.from_permutations(wiring_perms)
    spec = SystemSpec(machine, inputs, wiring)
    state = spec.initial_state()
    unions = {memory_union(state)}
    for pid, reg in hit.schedule:
        local = state.locals[pid]
        ops = machine.enabled_ops(local)
        if reg is None:
            (op,) = [o for o in ops if isinstance(o, Read)]
        else:
            (op,) = [o for o in ops if isinstance(o, Write) and o.reg == reg]
        _, state = spec.apply(state, pid, op)
        unions.add(memory_union(state))
    outputs = spec.outputs(state)
    return outputs, hit.output not in unions


# ----------------------------------------------------------------------
# Wiring enumeration with configuration symmetry reduction
# ----------------------------------------------------------------------

def canonical_wiring_classes(
    n_processors: int, n_registers: int
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Wiring assignments up to register relabelling and processor
    permutation.

    Two assignments are equivalent when one is obtained from the other
    by (a) composing every wiring with a common physical relabelling
    and/or (b) permuting the processors.  Both operations induce
    isomorphisms of the reachable state graph (processors are anonymous
    and the checked properties are invariant under renaming their
    inputs), so exploring one representative per class is exhaustive.
    """
    perms = [tuple(perm) for perm in itertools.permutations(range(n_registers))]
    inverse = {
        perm: tuple(sorted(range(n_registers), key=lambda i: perm[i]))
        for perm in perms
    }

    def compose(outer: Tuple[int, ...], inner: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(outer[inner[i]] for i in range(n_registers))

    seen: Set[Tuple[Tuple[int, ...], ...]] = set()
    classes: List[Tuple[Tuple[int, ...], ...]] = []
    for assignment in itertools.product(perms, repeat=n_processors):
        candidates = []
        for processor_order in itertools.permutations(range(n_processors)):
            reordered = tuple(assignment[p] for p in processor_order)
            relabel = inverse[reordered[0]]
            candidates.append(
                tuple(compose(relabel, wiring) for wiring in reordered)
            )
        canonical = min(candidates)
        if canonical not in seen:
            seen.add(canonical)
            classes.append(canonical)
    return classes
