"""The level-batched exploration loop vs the generic Explorer oracle.

:func:`repro.checker.batch.explore_batch` is the one safety loop behind
``FastSnapshotSpec.explore``, the class sweep, the sharded engine and
the service.  Its oracle is the generic, object-encoded
:class:`~repro.checker.explorer.Explorer`, which shares no code with
it.  The contract, checked for the numpy kernel and for the generated
native kernel (native cells skip without a C compiler):

- **field-identical** on the unreduced graph: ``states``,
  ``transitions``, ``truncated_transitions``, ``covered_states``,
  ``complete`` and ``ok``, exhaustively at N=2 and budget-clipped on
  every N=3 wiring class;
- **pinned values** for budget-clipped symmetric runs: a budget trip
  depends on which orbit representatives were admitted, and the
  Explorer's ``StateCanonicalizer`` breaks ties in an order that
  follows the interpreter's hash seed, so it cannot serve as the
  oracle there (exhaustive symmetric runs do not depend on the
  choice and stay field-identical);
- **verdict-level** under POR: the same ok/violation/complete as the
  unreduced run and as ``Explorer(por=True)``, whose selector picks its
  own ample sets.
"""

import functools
import random
from dataclasses import asdict

import numpy as np
import pytest

import repro.checker.batch as batch_mod
from repro.checker import Explorer, SystemSpec
from repro.checker import parallel
from repro.checker.fast_snapshot import FastSnapshotSpec, canonical_wiring_classes
from repro.checker.fingerprint import fingerprint_int, splitmix64
from repro.checker.parallel import check_snapshot_classes, explore_sharded
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment
from repro.store import StoreConfig

try:
    from repro.checker.native.loader import native_available

    _native_ok = native_available()
except Exception:  # pragma: no cover - import error == unavailable
    _native_ok = False

requires_native = pytest.mark.skipif(
    not _native_ok, reason="native kernel unavailable (no C compiler)"
)

#: Every oracle cell runs on both level kernels.
KERNELS = pytest.mark.parametrize(
    "kernel", ["numpy", pytest.param("native", marks=requires_native)]
)

#: Both N=2 wiring classes (canonical representatives).
N2_CLASSES = [((0, 1), (0, 1)), ((0, 1), (1, 0))]

#: One N=3 class for budgeted multi-level coverage.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))

#: All ten N=3 wiring classes.
N3_CLASSES = canonical_wiring_classes(3, 3)

#: The fields the Explorer oracle and the batch loop must agree on.
FIELDS = (
    "states", "transitions", "truncated_transitions", "covered_states",
    "complete", "ok",
)

#: Budget-clipped symmetric runs, pinned as ``(transitions,
#: truncated_transitions, covered_states)`` per budget; each such run
#: admits exactly its budget and ends incomplete and ok.  A budget trip
#: depends on which orbit representatives were admitted, and the
#: Explorer's ``StateCanonicalizer`` breaks ties in an order that
#: follows the interpreter's hash seed, so its budget-clipped symmetric
#: counts change from run to run.  These values come from the packed
#: explorer, on which the batch loop and the per-state loop it replaced
#: agreed in every cell.
N3_SYMMETRIC_BUDGETS = (1, 7, 333, 2000)
PINNED_N3_SYMMETRIC = {
    ((0, 1, 2), (0, 1, 2), (0, 1, 2)): (
        (9, 9, 1), (16, 2, 25), (578, 1, 1906), (3620, 2, 11797)),
    ((0, 1, 2), (0, 1, 2), (0, 2, 1)): (
        (9, 9, 1), (16, 7, 10), (555, 2, 646), (3428, 3, 3959)),
    ((0, 1, 2), (0, 1, 2), (1, 0, 2)): (
        (9, 9, 1), (16, 7, 10), (555, 2, 646), (3421, 1, 3959)),
    ((0, 1, 2), (0, 1, 2), (1, 2, 0)): (
        (9, 9, 1), (16, 7, 10), (555, 2, 646), (3450, 1, 3959)),
    ((0, 1, 2), (0, 1, 2), (2, 0, 1)): (
        (9, 9, 1), (16, 7, 10), (555, 2, 646), (3450, 1, 3959)),
    ((0, 1, 2), (0, 1, 2), (2, 1, 0)): (
        (9, 9, 1), (16, 7, 10), (555, 2, 646), (3467, 1, 3959)),
    ((0, 1, 2), (0, 2, 1), (1, 0, 2)): (
        (9, 9, 1), (9, 3, 7), (503, 1, 333), (3298, 1, 2000)),
    ((0, 1, 2), (0, 2, 1), (1, 2, 0)): (
        (9, 9, 1), (9, 3, 7), (503, 1, 333), (3299, 1, 2000)),
    ((0, 1, 2), (1, 0, 2), (2, 0, 1)): (
        (9, 9, 1), (9, 3, 7), (503, 1, 333), (3314, 3, 2000)),
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)): (
        (9, 9, 1), (16, 3, 19), (544, 2, 991), (3453, 2, 5986)),
}
N2_BUDGETS = (1, 2, 7, 50, 500)
#: The same, for ``N2_CLASSES[1]``.
PINNED_N2_SYMMETRIC = (
    (4, 4, 1), (4, 2, 3), (10, 2, 12), (69, 1, 95), (812, 1, 987),
)


def _pinned(budget, counts):
    return (budget,) + tuple(counts) + (False, True)


#: The engine name whose loop was removed; every entry point refuses it.
REMOVED_ENGINE = "scalar"


_SEEDED_MESSAGE = "seeded violation: a processor terminated"


def _fields(result):
    return tuple(getattr(result, name) for name in FIELDS)


@functools.lru_cache(maxsize=None)
def _oracle(wiring, level_target=None, **kwargs):
    """The generic Explorer's FIELDS for one configuration."""
    n = len(wiring)
    spec = SystemSpec(
        SnapshotMachine(n, level_target=level_target),
        list(range(1, n + 1)),
        WiringAssignment.from_permutations(wiring),
    )
    return _fields(Explorer(spec, SNAPSHOT_SAFETY, **kwargs).run())


def _batch(wiring, kernel="numpy", level_target=None, **kwargs):
    n = len(wiring)
    return FastSnapshotSpec(
        list(range(1, n + 1)), wiring, level_target=level_target
    ).explore(kernel=kernel, **kwargs)


def _verdict(result):
    """The POR-conformance projection: verdict fields only."""
    if not isinstance(result, dict):
        result = asdict(result)
    return (
        result["violation"] is None,
        result["violation"],
        result["complete"],
    )


def _assert_por_accounting(result):
    """Every expanded state is either ample or fully expanded."""
    counters = result.por_counters
    assert counters is not None
    assert (
        counters["ample_states"] + counters["fully_expanded_states"]
        == result.states
    )


def _seed_violation(monkeypatch):
    """Flag any state with a DONE processor (snapshot is actually safe).

    Patching the *class* exercises the stock-check identity guard: the
    batch loop must notice ``check_outputs`` was overridden and fall
    back to per-state calls, or the seeded fault would be invisible to
    its vectorized mask.
    """
    original = FastSnapshotSpec.check_outputs

    def seeded(self, state):
        for pid in range(self.n):
            local = (state >> self.local_offsets[pid]) & self.local_mask
            if (local >> self.o_phase) & 3 == 2:  # DONE
                return _SEEDED_MESSAGE
        return original(self, state)

    monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)


def _seeded_generic(spec, state):
    """The same seeded fault on the generic machine."""
    for local in state.locals:
        if spec.machine.output(local) is not None:
            return _SEEDED_MESSAGE
    return None


# ----------------------------------------------------------------------
# Batched splitmix64 === per-int splitmix64 (shared constants)
# ----------------------------------------------------------------------


class TestFingerprintParity:
    def test_splitmix_agrees_on_random_u64s_and_edges(self):
        rng = random.Random(0xE15)
        samples = [rng.getrandbits(64) for _ in range(10_000)]
        samples += [0, 2**64 - 1, 1, 2**63, 2**63 - 1]
        arr = np.array(samples, dtype=np.uint64)
        batched = batch_mod.splitmix64_many(arr)
        for value, out in zip(samples, batched.tolist()):
            assert out == splitmix64(value)

    def test_fingerprint_many_matches_fingerprint_int(self):
        rng = random.Random(0x51A7)
        samples = [rng.getrandbits(64) for _ in range(10_000)]
        samples += [0, 2**64 - 1]
        arr = np.array(samples, dtype=np.uint64)
        batched = batch_mod.fingerprint_many(arr)
        for value, out in zip(samples, batched.tolist()):
            assert out == fingerprint_int(value)

    def test_engines_share_one_constants_module(self):
        import repro.checker.constants as constants
        import repro.checker.fingerprint as fingerprint

        # Not merely equal values: the per-int module must re-export the
        # shared constants, so a future edit cannot desynchronize them.
        assert fingerprint.SPLITMIX_GAMMA is constants.SPLITMIX_GAMMA
        assert fingerprint.MASK64 is constants.MASK64


# ----------------------------------------------------------------------
# Field identity with the Explorer oracle
# ----------------------------------------------------------------------


class TestExplorerOracle:
    @KERNELS
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("level_target", [None, 1])
    def test_exhaustive_n2(self, wiring, symmetry, level_target, kernel):
        result = _batch(
            wiring, kernel, level_target=level_target, symmetry=symmetry
        )
        assert result.complete and result.ok
        assert _fields(result) == _oracle(
            wiring, level_target=level_target, symmetry=symmetry
        )

    @KERNELS
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2_fingerprint(self, symmetry, kernel):
        result = _batch(
            N2_CLASSES[1], kernel, fingerprint=True, symmetry=symmetry
        )
        assert _fields(result) == _oracle(N2_CLASSES[1], symmetry=symmetry)

    @KERNELS
    @pytest.mark.parametrize("budget", N2_BUDGETS)
    def test_budget_clipped_n2(self, budget, kernel):
        # Mid-level budget trips are where a level loop most easily
        # diverges from a FIFO BFS: the truncated-transition count
        # depends on *where* inside a level the (B+1)-th fresh state
        # appeared.
        result = _batch(N2_CLASSES[1], kernel, max_states=budget)
        assert _fields(result) == _oracle(N2_CLASSES[1], max_states=budget)

    @KERNELS
    @pytest.mark.parametrize(
        "budget, counts", zip(N2_BUDGETS, PINNED_N2_SYMMETRIC)
    )
    def test_budget_clipped_n2_symmetric(self, budget, counts, kernel):
        result = _batch(
            N2_CLASSES[1], kernel, max_states=budget, symmetry=True
        )
        assert _fields(result) == _pinned(budget, counts)

    @KERNELS
    @pytest.mark.parametrize("budget", [1, 7, 333, 2000])
    @pytest.mark.parametrize("wiring", N3_CLASSES, ids=str)
    def test_budgeted_n3(self, wiring, budget, kernel):
        result = _batch(wiring, kernel, max_states=budget)
        assert not result.complete
        assert _fields(result) == _oracle(wiring, max_states=budget)

    @KERNELS
    @pytest.mark.parametrize("index", range(len(N3_SYMMETRIC_BUDGETS)))
    @pytest.mark.parametrize("wiring", N3_CLASSES, ids=str)
    def test_budgeted_n3_symmetric_pinned(self, wiring, index, kernel):
        budget = N3_SYMMETRIC_BUDGETS[index]
        result = _batch(wiring, kernel, max_states=budget, symmetry=True)
        assert _fields(result) == _pinned(
            budget, PINNED_N3_SYMMETRIC[wiring][index]
        )

    def test_budgeted_n3_fingerprint_multi_level(self):
        result = _batch(N3_CLASS, max_states=3_000, fingerprint=True)
        assert _fields(result) == _oracle(N3_CLASS, max_states=3_000)

    def test_class_sweep_matches_per_class(self):
        rows = check_snapshot_classes(2, jobs=2)
        assert [wiring for wiring, _ in rows] == N2_CLASSES
        for wiring, result in rows:
            assert _fields(result) == _oracle(wiring)

    def test_seeded_violation_defeats_vectorized_mask(self, monkeypatch):
        _seed_violation(monkeypatch)
        result = _batch(N2_CLASSES[1])
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2],
            WiringAssignment.from_permutations(N2_CLASSES[1]),
        )
        oracle = Explorer(spec, (_seeded_generic,)).run()
        assert result.violation == oracle.violation.message == _SEEDED_MESSAGE
        # The Explorer stops mid-buffer; the level loop counts the
        # violating parent's whole buffer, so transitions may differ.
        assert (result.states, result.complete) == (
            oracle.states, oracle.complete
        )

    def test_seeded_violation_under_symmetry(self, monkeypatch):
        # Patch order must not matter: importing batch first, then
        # patching, then exploring still sees the seeded fault.
        _seed_violation(monkeypatch)
        result = _batch(N2_CLASSES[0], symmetry=True)
        assert result.violation == _SEEDED_MESSAGE

    def test_removed_engine_rejected(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(ValueError, match="scalar exploration loop was removed"):
            spec.explore(engine=REMOVED_ENGINE)
        assert _fields(spec.explore(engine="batch")) == _fields(spec.explore())

    def test_removed_engine_rejected_by_class_sweep(self):
        with pytest.raises(ValueError, match="loop was removed"):
            check_snapshot_classes(2, engine=REMOVED_ENGINE)

    def test_wide_states_refused(self):
        spec = FastSnapshotSpec([1, 2, 3, 4], [(0, 1, 2, 3)] * 4)
        assert spec.state_bits > 64
        with pytest.raises(ValueError, match="u64"):
            spec.explore(max_states=10)


# ----------------------------------------------------------------------
# POR: verdict-level against the unreduced run and Explorer(por=True)
# ----------------------------------------------------------------------


class TestPorVerdicts:
    @KERNELS
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2(self, wiring, symmetry, kernel):
        reduced = _batch(wiring, kernel, por=True, symmetry=symmetry)
        unreduced = _batch(wiring, kernel, symmetry=symmetry)
        oracle = _oracle(wiring, por=True, symmetry=symmetry)
        assert _verdict(reduced) == _verdict(unreduced)
        assert (reduced.ok, reduced.complete) == (oracle[-1], oracle[-2])
        _assert_por_accounting(reduced)
        assert reduced.por_counters["transitions_pruned"] > 0
        assert reduced.transitions < unreduced.transitions

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_fingerprint_composes(self, symmetry):
        reduced = _batch(
            N2_CLASSES[1], por=True, fingerprint=True, symmetry=symmetry
        )
        plain = _batch(N2_CLASSES[1], por=True, symmetry=symmetry)
        assert asdict(reduced) == asdict(plain)


# ----------------------------------------------------------------------
# Passes: a BFS level larger than _LEVEL_CHUNK runs in several passes
# ----------------------------------------------------------------------


class TestChunkedPasses:
    @pytest.fixture(autouse=True)
    def tiny_passes(self, monkeypatch):
        # Every level of these runs spans several passes.
        monkeypatch.setattr(batch_mod, "_LEVEL_CHUNK", 5)

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2_matches_explorer(
        self, symmetry, chunk, monkeypatch
    ):
        # One-state passes also hit passes whose states are all
        # terminal, which must not end the run.
        monkeypatch.setattr(batch_mod, "_LEVEL_CHUNK", chunk)
        result = _batch(N2_CLASSES[1], symmetry=symmetry)
        assert _fields(result) == _oracle(N2_CLASSES[1], symmetry=symmetry)

    @pytest.mark.parametrize("index", range(len(N3_SYMMETRIC_BUDGETS)))
    def test_budget_trips_unchanged(self, index):
        wiring = N3_CLASSES[0]
        budget = N3_SYMMETRIC_BUDGETS[index]
        assert _fields(_batch(wiring, max_states=budget)) == _oracle(
            wiring, max_states=budget
        )
        assert _fields(
            _batch(wiring, max_states=budget, symmetry=True)
        ) == _pinned(budget, PINNED_N3_SYMMETRIC[wiring][index])

    def test_seeded_violation_unchanged(self, monkeypatch):
        _seed_violation(monkeypatch)
        chunked = asdict(_batch(N2_CLASSES[1]))
        monkeypatch.setattr(batch_mod, "_LEVEL_CHUNK", 1 << 18)
        assert chunked == asdict(_batch(N2_CLASSES[1]))

    def test_spill_store_and_checkpoints_unchanged(self, tmp_path):
        from repro.store.checkpoint import RunCheckpointer

        result = _batch(
            N3_CLASS, max_states=3_000, fingerprint=True,
            store=StoreConfig(backend="spill", directory=str(tmp_path)),
            checkpointer=RunCheckpointer(tmp_path / "ckpt", {}, every=500),
        )
        assert _fields(result) == _oracle(N3_CLASS, max_states=3_000)

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_por_verdict_conformant(self, symmetry):
        reduced = _batch(N2_CLASSES[1], por=True, symmetry=symmetry)
        assert _verdict(reduced) == _verdict(
            _batch(N2_CLASSES[1], symmetry=symmetry)
        )
        _assert_por_accounting(reduced)
        assert reduced.por_counters["transitions_pruned"] > 0


# ----------------------------------------------------------------------
# Store backends: every backend reports the RAM run's results
# ----------------------------------------------------------------------


class TestStoreConformance:
    @pytest.mark.parametrize("backend", ["ram", "mmap", "spill"])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_backends_match_default(self, backend, symmetry, por, tmp_path):
        kwargs = dict(fingerprint=True, symmetry=symmetry, por=por)
        stored = asdict(_batch(
            N2_CLASSES[1],
            store=StoreConfig(backend=backend, directory=str(tmp_path)),
            **kwargs,
        ))
        default = asdict(_batch(N2_CLASSES[1], **kwargs))
        # Only the explicit backend reports operation counters.
        assert stored.pop("store_counters") is not None
        assert default.pop("store_counters") is None
        assert stored == default


# ----------------------------------------------------------------------
# Sharded conformance (whole levels across the wire)
# ----------------------------------------------------------------------


#: ``explore_sharded([1, 2, 3], N3_CLASS, jobs=2, max_states=2_000)``:
#: the budget truncates at a BFS-layer boundary of the 2-shard
#: partition, so its counts are the sharded engine's own.
PINNED_SHARDED_N3 = {
    "states": 3577, "transitions": 13599, "complete": False,
    "violation": None, "bad_lasso_pid": None,
    "truncated_transitions": 7509, "covered_states": None,
    "symmetry_group_order": None, "recanonicalizations_skipped": None,
    "store_counters": None, "por_counters": None,
}


class TestShardedConformance:
    @pytest.fixture(autouse=True)
    def force_two_workers(self, monkeypatch):
        # A single-core host would collapse jobs to 1 (serial fallback)
        # and never exercise the array wire format.
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("fingerprint", [False, True])
    def test_exhaustive_n2_matches_explorer(self, symmetry, fingerprint):
        result = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, symmetry=symmetry,
            fingerprint=fingerprint,
        )
        assert _fields(result) == _oracle(N2_CLASSES[1], symmetry=symmetry)

    def test_budgeted_n3_pinned(self):
        result = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000
        )
        assert asdict(result) == PINNED_SHARDED_N3

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_por_verdict_conformant(self, symmetry):
        sharded = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, por=True, symmetry=symmetry,
        )
        unreduced = _batch(N2_CLASSES[1], symmetry=symmetry)
        # Workers certify novelty only for locally owned keys: verdicts
        # must agree with the unreduced run, counts may not.
        assert _verdict(sharded) == _verdict(unreduced)
        assert sharded.por_counters["transitions_pruned"] > 0
        _assert_por_accounting(sharded)

    def test_checkpoint_interrupt_resume_roundtrip(self, tmp_path):
        from repro.store.checkpoint import RunCheckpointer

        meta = {"n": 3, "engine_test": "batch"}
        kwargs = dict(jobs=2, max_states=3_000)
        uninterrupted = explore_sharded([1, 2, 3], N3_CLASS, **kwargs)
        fired = []

        def interrupt_once():
            fired.append(True)
            if len(fired) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            explore_sharded(
                [1, 2, 3], N3_CLASS, **kwargs,
                checkpointer=RunCheckpointer(tmp_path, meta, every=500),
                _after_checkpoint=interrupt_once,
            )
        resumed = explore_sharded(
            [1, 2, 3], N3_CLASS, **kwargs,
            checkpointer=RunCheckpointer(tmp_path, meta, every=500),
        )
        assert asdict(resumed) == asdict(uninterrupted)


# ----------------------------------------------------------------------
# Budget-trip accounting
# ----------------------------------------------------------------------


def _replay_trip(buffers, key_of, visited, budget):
    """A FIFO BFS's admission rule over one level (the Explorer's).

    Returns the truncated-transition count: every generated transition
    whose fresh target the budget turned away, through the end of the
    tripping parent's buffer.
    """
    seen = set(visited)
    admitted = truncated = 0
    for buffer in buffers:
        for raw in buffer:
            key = key_of(raw)
            if key in seen:
                continue
            if admitted >= budget:
                truncated += 1
                continue
            seen.add(key)
            admitted += 1
        if admitted >= budget and truncated:
            break
    return truncated


class TestTripAccounting:
    def test_window_counts_every_dropped_transition(self):
        # Three parents; key = raw // 10 stands in for canonicalization
        # (10 and 11 share an orbit).  Key 2 is already visited and the
        # budget admits two fresh keys (1, then 3), so the trip is at
        # raw 40 and the window is the rest of parent 1's buffer:
        # [40, 30, 50, 40].  Raw 40 repeats inside the window and
        # counts twice; raw 30 was admitted before the trip.
        buffers = [[10, 20, 11], [30, 40, 30, 50, 40], [60, 21, 70]]
        visited = {2}
        budget = 2

        successors = np.array(
            [raw for buffer in buffers for raw in buffer], dtype=np.uint64
        )
        keys = successors // np.uint64(10)
        unique_keys, first = batch_mod._unique_first(keys)
        fresh = ~np.isin(unique_keys, list(visited))
        ordered_first = np.sort(first[fresh])
        trip = int(ordered_first[budget])
        ends = np.cumsum([len(buffer) for buffer in buffers])
        buffer_end = int(ends[np.searchsorted(ends, trip, side="right")])
        assert (trip, buffer_end) == (4, 8)
        unadmitted = fresh & (first >= trip)

        expected = _replay_trip(buffers, lambda raw: raw // 10, visited, budget)
        assert expected == 3
        assert batch_mod._trip_truncations(
            keys, unique_keys, unadmitted, trip, buffer_end
        ) == expected


# ----------------------------------------------------------------------
# CLI: one exploration loop, no engine choice
# ----------------------------------------------------------------------


class TestCli:
    def test_engine_flag_is_gone(self, capsys):
        from repro.cli import main

        for command in ("check", "submit"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            assert "--engine" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["check", "--n", "2", "--engine", "batch"])


# ----------------------------------------------------------------------
# _unique_first's sorted fast path (spill merges hand back whole levels
# in key order; re-sorting them was measurable pure waste)
# ----------------------------------------------------------------------


class TestUniqueFirstSortedPath:
    def test_sorted_input_skips_the_sort_and_matches_the_oracle(
        self, monkeypatch
    ):
        rng = np.random.default_rng(7)
        keys = np.sort(rng.integers(0, 50, size=4096, dtype=np.uint64))
        oracle_uniq, oracle_first = np.unique(keys, return_index=True)
        argsorts = []
        real_argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort",
            lambda *args, **kw: (
                argsorts.append(1), real_argsort(*args, **kw)
            )[1],
        )
        uniq, first = batch_mod._unique_first(keys)
        assert argsorts == []  # the fast path must not sort again
        assert np.array_equal(uniq, oracle_uniq)
        assert np.array_equal(first, oracle_first)

    @pytest.mark.parametrize("size", [0, 1, 2, 257])
    def test_edge_shapes_sorted_and_unsorted(self, size):
        rng = np.random.default_rng(size)
        raw = rng.integers(0, max(1, size // 3), size=size, dtype=np.uint64)
        for keys in (raw, np.sort(raw)):
            uniq, first = batch_mod._unique_first(keys)
            oracle_uniq, oracle_first = np.unique(keys, return_index=True)
            assert np.array_equal(uniq, oracle_uniq)
            assert np.array_equal(first, oracle_first)

    def test_unsorted_input_still_reports_minimal_positions(self):
        keys = np.array([9, 3, 9, 3, 1, 1, 9], dtype=np.uint64)
        uniq, first = batch_mod._unique_first(keys)
        assert uniq.tolist() == [1, 3, 9]
        assert first.tolist() == [4, 1, 0]

    def test_spill_level_dedup_accounting_unchanged(self, tmp_path):
        # The spill store's merge path is what feeds already-sorted key
        # arrays back into the level dedup; the fast path must leave
        # every admitted/transition count identical to the RAM run.
        def run(backend, sub):
            return asdict(FastSnapshotSpec([1, 2, 3], N3_CLASS).explore(
                fingerprint=True, max_states=3_000,
                store=StoreConfig(
                    backend=backend, directory=str(tmp_path / sub)
                ),
            ))

        ram = run("ram", "ram")
        spill = run("spill", "spill")
        ram.pop("store_counters")
        spill.pop("store_counters")
        assert ram == spill
