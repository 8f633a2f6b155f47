"""The fingerprint-store subsystem: backends, guards, conformance.

Three layers of coverage:

- **unit**: each backend honours the :class:`FingerprintStore`
  contract (add-reports-newness, exact membership, deterministic
  iteration, bulk load), including the mmap table's zero-key slot and
  load limit and the spill store's spill/merge/Bloom machinery — the
  spill store also against a Python-set model under random operation
  sequences, and pinned to exact counters on the benchmark's
  mem-capped class;
- **guards**: >64-bit keys are rejected loudly, and engine/store
  combinations that cannot work (object tables on disk, wait-freedom on
  a digest store) raise up front;
- **conformance**: the exhaustive N=2 exploration reports identical
  states/transitions/verdicts whatever the backend, with and without
  fingerprinting and symmetry reduction — the property the disk
  backends are allowed to exist under.
"""

import random

import numpy as np
import pytest

from repro.analysis.statistics import aggregate_store_statistics
from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.properties import SNAPSHOT_SAFETY
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment
from repro.store import (
    BACKENDS,
    RunCheckpointer,
    StoreConfig,
    StoreError,
    StoreFullError,
)

WIRING = ((0, 1), (0, 1))
#: Runs the spill store accumulates before it merges them.
_MERGE_AT = 6


def _keys(count, seed=7):
    rng = random.Random(seed)
    return list({rng.getrandbits(64) for _ in range(count)})


def _make(backend, tmp_path, mem_cap=None):
    config = StoreConfig(
        backend=backend,
        directory=str(tmp_path / backend),
        **({"mem_cap": mem_cap} if mem_cap is not None else {}),
    )
    return config.create()


# ----------------------------------------------------------------------
# The backend contract, uniformly
# ----------------------------------------------------------------------


class TestBackendContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_contains_len_iter(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = _keys(2000)
        try:
            for key in keys:
                assert store.add(key)
            for key in keys:
                assert not store.add(key)  # re-add reports "already there"
                assert key in store
            assert len(store) == len(keys)
            missing = next(k for k in range(1, 100) if k not in set(keys))
            assert missing not in store
            assert sorted(store) == sorted(keys)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_bulk_inserts_and_counts(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = _keys(500)
        try:
            assert store.load(keys) == len(keys)
            assert store.load(keys) == 0  # idempotent
            assert len(store) == len(keys)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_report_entries(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            store.load(_keys(100))
            assert store.counters()["entries"] == 100
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["mmap", "spill"])
    def test_wide_keys_are_rejected(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            with pytest.raises(StoreError, match="64-bit"):
                store.add(1 << 64)
        finally:
            store.close()


class TestBulkContract:
    """``contains_many``/``add_many`` — the batch engine's probe unit.

    The base class defaults loop the scalar methods, so the contract
    (exactly ``[key in store for ...]`` / per-key ``add`` in order)
    must hold identically on backends with bespoke bulk paths (ram's
    set ops, spill's per-run streaming pass).
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_matches_scalar_loop(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        keys = sorted(_keys(800))
        present, absent = keys[::2], keys[1::2]
        try:
            assert store.add_many(present) == len(present)
            probe = sorted(present[:100] + absent[:100])
            assert store.contains_many(probe) == [k in store for k in probe]
            # re-adding a mixed batch counts only the genuinely new keys
            mixed = sorted(present[:50] + absent[:50])
            assert store.add_many(mixed) == 50
            assert len(store) == len(present) + 50
        finally:
            store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batches_are_noops(self, backend, tmp_path):
        store = _make(backend, tmp_path)
        try:
            assert store.add_many([]) == 0
            assert store.contains_many([]) == []
        finally:
            store.close()

    def test_spill_bulk_writes_sorted_runs_natively(self, tmp_path):
        # A level-sized batch of fresh keys must land as one sorted run
        # file instead of churning through repeated buffer spills.
        store = _make("spill", tmp_path, mem_cap=64 * 1024)
        keys = sorted(_keys(20_000))
        try:
            spills_before = store.counters()["spills"]
            assert store.add_many(keys) == len(keys)
            assert store.counters()["spills"] == spills_before + 1
            assert store.contains_many(keys) == [True] * len(keys)
            assert list(store) == keys  # runs stream in ascending order
        finally:
            store.close()

    def test_spill_bulk_membership_survives_merge(self, tmp_path):
        store = _make("spill", tmp_path, mem_cap=64 * 1024)
        first, second = sorted(_keys(12_000, seed=1)), sorted(_keys(12_000, seed=2))
        overlap = sorted(set(first) & set(second))
        try:
            store.add_many(first)
            added = store.add_many(second)
            assert added == len(set(second) - set(first))
            everything = sorted(set(first) | set(second))
            assert store.contains_many(everything) == [True] * len(everything)
            assert len(store) == len(everything)
            assert store.contains_many(overlap) == [True] * len(overlap)
        finally:
            store.close()


class TestMmapStore:
    def test_zero_key_roundtrip(self, tmp_path):
        store = _make("mmap", tmp_path)
        try:
            assert 0 not in store
            assert store.add(0)
            assert not store.add(0)
            assert 0 in store
            assert 0 in list(store)
        finally:
            store.close()

    def test_full_table_suggests_spill(self, tmp_path):
        # 8 KiB -> the 1024-slot minimum table; the 7/8 load limit
        # trips before slot exhaustion.
        store = _make("mmap", tmp_path, mem_cap=8192)
        try:
            with pytest.raises(StoreFullError, match="spill"):
                for key in _keys(1000):
                    store.add(key)
        finally:
            store.close()

    def test_file_bytes_is_table_size(self, tmp_path):
        store = _make("mmap", tmp_path, mem_cap=8192)
        try:
            assert store.file_bytes() == 1024 * 8
        finally:
            store.close()


class TestSpillStore:
    def test_spills_and_merges_preserve_membership(self, tmp_path):
        # The minimum buffer is 1024 keys; 7k keys force 6 spills, which
        # trips the merge-all consolidation.
        store = _make("spill", tmp_path, mem_cap=4096)
        keys = _keys(7000)
        try:
            for key in keys:
                assert store.add(key)
            counters = store.counters()
            assert counters["spills"] >= 6
            assert counters["merges"] >= 1
            for key in keys:
                assert key in store
            assert sorted(store) == sorted(keys)
            assert store.file_bytes() > 0
        finally:
            store.close()

    def test_bloom_short_circuits_misses(self, tmp_path):
        store = _make("spill", tmp_path, mem_cap=4096)
        try:
            store.load(_keys(3000, seed=1))
            hits = sum(1 for key in _keys(3000, seed=2) if key in store)
            counters = store.counters()
            assert hits == 0
            assert counters["bloom_skips"] > 0
        finally:
            store.close()


class TestSpillModel:
    """The spill store against a Python set, under random operation
    sequences that cross every path: buffer spills, direct sorted runs,
    merges, scalar and bulk calls, list and ndarray inputs."""

    @staticmethod
    def _batch(rng, pool, size):
        keys = [rng.choice(pool) for _ in range(size)]
        return np.array(keys, dtype=np.uint64) if rng.random() < 0.5 else keys

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_model(self, tmp_path, monkeypatch, seed):
        from repro.store import spill as spill_module

        if seed % 2:
            # Gather two blocks at a time, so probes and merge cuts
            # cross many gather groups.
            monkeypatch.setattr(spill_module, "_GATHER_BLOCKS", 2)
        rng = random.Random(seed)
        # A finite pool makes repeats (hits) common; the extremes of
        # the u64 range ride along.
        pool = _keys(30_000, seed=100 + seed) + [0, 2**64 - 1]
        store = _make("spill", tmp_path, mem_cap=4096)
        model = set()
        try:
            for _ in range(120):
                op = rng.random()
                if op < 0.25:
                    for key in rng.sample(pool, 40):
                        assert store.add(key) == (key not in model)
                        model.add(key)
                elif op < 0.55:
                    # Up to 2x the 1024-key buffer: small batches go to
                    # the buffer, large fresh ones become runs directly.
                    batch = self._batch(rng, pool, rng.randrange(1, 2048))
                    fresh = {int(key) for key in batch} - model
                    assert store.add_many(batch) == len(fresh)
                    model |= fresh
                elif op < 0.85:
                    batch = self._batch(rng, pool, rng.randrange(0, 3000))
                    assert store.contains_many(batch) == [
                        int(key) in model for key in batch
                    ]
                else:
                    for key in rng.sample(pool, 40):
                        assert (key in store) == (key in model)
                assert len(store) == len(model)
            counters = store.counters()
            assert counters["spills"] >= _MERGE_AT
            assert counters["merges"] >= 1
            assert counters["entries"] == len(model)
            assert list(store) == sorted(model)
            chunks = list(store.chunks())
            assert all(chunk.dtype == np.uint64 for chunk in chunks)
            assert np.concatenate(chunks).tolist() == sorted(model)
            assert store.file_bytes() == 8 * (counters["entries"] - store._buffered())
        finally:
            store.close()

    def test_disk_probes_count_blocks_of_unresolved_keys(self, tmp_path):
        # Two direct runs of 2048 keys (4 blocks each).  Keys held by
        # the first run touch one of its blocks and are then resolved,
        # so the second run is never read for them.
        first, second = sorted(_keys(4096))[::2], sorted(_keys(4096))[1::2]
        store = _make("spill", tmp_path, mem_cap=4096)
        try:
            store.add_many(first)
            store.add_many(second)
            assert store.counters()["runs"] == 2
            before = store.counters()["disk_probes"]
            assert store.contains_many(first[-10:]) == [True] * 10
            assert store.counters()["disk_probes"] == before + 1
        finally:
            store.close()

    @pytest.mark.parametrize("bad", [1 << 64, -1])
    def test_out_of_range_keys_raise_store_error(self, tmp_path, bad):
        store = _make("spill", tmp_path, mem_cap=4096)
        try:
            store.add_many(_keys(3000))
            for call in (store.add_many, store.contains_many):
                with pytest.raises(StoreError, match="64-bit"):
                    call([5, bad, 7])
            with pytest.raises(StoreError, match="64-bit"):
                store.add_many(np.array([5, bad % 2**63 - 2**62, -3]))
            assert len(store) == 3000  # nothing of a rejected batch landed
        finally:
            store.close()

    def test_resume_load_streams_in_batches(self, tmp_path):
        keys = _keys(5000)
        store = _make("spill", tmp_path, mem_cap=4096)
        try:
            assert store.load(iter(keys)) == len(keys)
            assert store.load(iter(keys)) == 0
            assert list(store) == sorted(keys)
        finally:
            store.close()


class TestClassMemcapPinned:
    """The benchmark's ``class-memcap`` call, pinned to exact counters.

    N=3 identity class, labels (18, 73, 98), symmetry + POR, batch
    engine, a spill store capped at 1 MiB and a checkpoint every 25,000
    admitted states, stopped at 120,000 representatives.  Every store
    and POR counter below is part of the workload's shape: a change in
    any of them means the store took a different path, not just a
    faster one.
    """

    def test_counters(self, tmp_path, monkeypatch):
        from repro.checker.fast_snapshot import canonical_wiring_classes
        from repro.store import checkpoint as checkpoint_module

        identity = (0, 1, 2)
        (wiring,) = [
            wiring for wiring in canonical_wiring_classes(3, 3)
            if all(row == identity for row in wiring)
        ]
        writes = []
        write = checkpoint_module.RunCheckpointer.write

        def counting_write(self, *args, **kwargs):
            writes.append(1)
            return write(self, *args, **kwargs)

        monkeypatch.setattr(
            checkpoint_module.RunCheckpointer, "write", counting_write
        )
        result = FastSnapshotSpec((18, 73, 98), wiring).explore(
            max_states=120_000, symmetry=True, por=True, engine="batch",
            kernel="numpy",
            store=StoreConfig(
                backend="spill", directory=str(tmp_path / "store"),
                mem_cap=1 << 20,
            ),
            checkpointer=RunCheckpointer(
                tmp_path / "checkpoint", {"workload": "class-memcap"},
                every=25_000,
            ),
        )
        assert result.ok and result.states == 120_000
        store = dict(result.store_counters)
        store.pop("merge_wall_ms")
        assert store == {
            "entries": 120_000, "spills": 7, "merges": 1, "runs": 2,
            "disk_probes": 1039, "bloom_skips": 294_710,
            "file_bytes": 930_160,
        }
        assert result.por_counters == {
            "transitions_pruned": 96_166, "ample_states": 48_083,
            "fully_expanded_states": 49_466, "cycle_proviso_expansions": 4,
        }
        assert len(writes) == 2


# ----------------------------------------------------------------------
# Configuration and guards
# ----------------------------------------------------------------------


class TestGuards:
    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError, match="unknown store backend"):
            StoreConfig(backend="redis")

    def test_nonpositive_mem_cap_rejected(self):
        with pytest.raises(StoreError, match="mem_cap"):
            StoreConfig(backend="spill", mem_cap=0)

    def test_wait_freedom_requires_ram_store(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        config = StoreConfig(backend="spill", directory=str(tmp_path))
        with pytest.raises(ValueError, match="wait"):
            spec.explore(check_wait_freedom=True, store=config)

    def test_generic_explorer_requires_fingerprint_for_disk(self, tmp_path):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        config = StoreConfig(backend="mmap", directory=str(tmp_path))
        with pytest.raises(ValueError, match="fingerprint"):
            Explorer(spec, SNAPSHOT_SAFETY, store=config)


# ----------------------------------------------------------------------
# Exploration conformance across backends
# ----------------------------------------------------------------------


def _signature(result):
    return (
        result.states, result.transitions, result.ok, result.complete,
        result.covered_states,
    )


class TestExplorationConformance:
    @pytest.mark.parametrize("fingerprint", [False, True])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_exhaustive_n2_identical_across_backends(
        self, tmp_path, fingerprint, symmetry
    ):
        spec = FastSnapshotSpec([1, 2], WIRING)
        signatures = {}
        for backend in BACKENDS:
            config = StoreConfig(
                backend=backend, directory=str(tmp_path / backend)
            )
            result = spec.explore(
                fingerprint=fingerprint, symmetry=symmetry, store=config
            )
            signatures[backend] = _signature(result)
            assert result.store_counters is not None
            assert result.store_counters["entries"] == result.states
        assert len(set(signatures.values())) == 1, signatures

    def test_generic_fingerprint_explorer_matches_on_disk(self, tmp_path):
        spec = SystemSpec(
            SnapshotMachine(2), [1, 2], WiringAssignment.identity(2, 2)
        )
        baseline = Explorer(spec, SNAPSHOT_SAFETY, fingerprint=True).run()
        config = StoreConfig(backend="spill", directory=str(tmp_path))
        on_disk = Explorer(
            spec, SNAPSHOT_SAFETY, fingerprint=True, store=config
        ).run()
        assert (baseline.states, baseline.transitions, baseline.ok) == (
            on_disk.states, on_disk.transitions, on_disk.ok,
        )
        assert on_disk.store_counters["entries"] == on_disk.states

    def test_default_store_reports_no_counters(self):
        result = FastSnapshotSpec([1, 2], WIRING).explore()
        assert result.store_counters is None

    def test_store_statistics_aggregate(self, tmp_path):
        spec = FastSnapshotSpec([1, 2], WIRING)
        config = StoreConfig(backend="ram")
        results = [spec.explore(store=config) for _ in range(2)]
        stats = aggregate_store_statistics(results + [spec.explore()])
        assert stats.entries == sum(r.states for r in results)
        assert stats.file_bytes == 0
        assert "stored keys" in stats.summary()

    def test_store_statistics_fold_merge_wall_time(self):
        from repro.analysis import StoreStatistics

        stats = StoreStatistics(
            entries=10, file_bytes=4096, merges=2, merge_wall_ms=34
        )
        assert "2 merges in 34 ms" in stats.summary()
