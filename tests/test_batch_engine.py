"""The level-batched (numpy) exploration kernel vs the scalar oracle.

The batch engine's whole value proposition is "same verdicts, much
faster", so the load-bearing contract here is *byte-identical
results*: for every unreduced configuration both engines support,
``asdict`` of the two :class:`FastExplorationResult` objects must be
equal — same verdict and violation message, same
admitted/transition/truncated counts even mid-budget, same
covered-state totals under symmetry.  Backend-specific counters
(``store_counters``) are the one documented exception: the engines
issue different probe patterns against the same visited set.

POR is the other documented carve-out: the batch engine's
level-synchronous cycle proviso (C3 against ``visited ∪
earlier-in-level``) legitimately picks different — equally sound —
ample sets than the scalar selector's mid-level one, so batch+POR
conformance is *verdict-level* (same ok/violation/complete, plus the
``PORCounters`` accounting invariant), not count-identical.

numpy is a soft dependency.  The conformance matrix skips cleanly
without it; the degradation tests below run regardless (they simulate
absence by flipping ``HAVE_NUMPY``) and prove every batch entry point
fails with a clear :class:`BatchEngineUnavailable` instead of a
traceback.
"""

import functools
import random
from dataclasses import asdict

import pytest

import repro.checker.batch as batch_mod
from repro.checker import parallel
from repro.checker.batch import BatchEngineUnavailable
from repro.checker.fast_snapshot import FastSnapshotSpec, canonical_wiring_classes
from repro.checker.fingerprint import fingerprint_int, splitmix64
from repro.checker.parallel import check_snapshot_classes, explore_sharded
from repro.store import StoreConfig

requires_numpy = pytest.mark.skipif(
    not batch_mod.HAVE_NUMPY, reason="numpy not installed"
)

if batch_mod.HAVE_NUMPY:
    import numpy as np

#: Both N=2 wiring classes (canonical representatives).
N2_CLASSES = [((0, 1), (0, 1)), ((0, 1), (1, 0))]

#: One N=3 class for budgeted multi-level coverage.
N3_CLASS = ((0, 1, 2), (0, 1, 2), (1, 2, 0))

_SEEDED_MESSAGE = "seeded violation: a processor terminated"


def _seed_violation(monkeypatch):
    """Flag any state with a DONE processor (snapshot is actually safe).

    Patching the *class* before the batch module's vectorized check
    runs exercises the stock-check identity guard: the batch engine
    must notice ``check_outputs`` was overridden and fall back to the
    per-state scalar call, or the seeded fault would be invisible to
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


def _both(wiring, inputs=(1, 2), **kwargs):
    """(scalar result, batch result) as dicts, for equality asserts."""
    scalar = FastSnapshotSpec(list(inputs), wiring).explore(
        engine="scalar", **kwargs
    )
    batch = FastSnapshotSpec(list(inputs), wiring).explore(
        engine="batch", **kwargs
    )
    return asdict(scalar), asdict(batch)


def _verdict(result):
    """The POR-conformance projection: verdict fields only.

    Works on results and their ``asdict`` forms alike.  Under POR the
    two engines' C3 oracles legitimately pick different ample sets, so
    state/transition counts are not comparable — only verdicts are.
    """
    if not isinstance(result, dict):
        result = asdict(result)
    return (
        result["violation"] is None,
        result["violation"],
        result["complete"],
    )


def _assert_por_accounting(batch_dict):
    """The batch selector must keep the scalar counters' invariant."""
    counters = batch_dict["por_counters"]
    assert counters is not None
    assert (
        counters["ample_states"] + counters["fully_expanded_states"]
        == batch_dict["states"]
    )


# ----------------------------------------------------------------------
# Satellite: batched splitmix64 === scalar splitmix64 (shared constants)
# ----------------------------------------------------------------------


@requires_numpy
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

        # Not merely equal values: the scalar module must re-export the
        # shared constants, so a future edit cannot desynchronize them.
        assert fingerprint.SPLITMIX_GAMMA is constants.SPLITMIX_GAMMA
        assert fingerprint.MASK64 is constants.MASK64


# ----------------------------------------------------------------------
# Tentpole: serial conformance — the scalar engine is the oracle
# ----------------------------------------------------------------------


@requires_numpy
class TestSerialConformance:
    @pytest.mark.parametrize("wiring", N2_CLASSES)
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_exhaustive_n2_matrix(self, wiring, symmetry, por):
        scalar, batch = _both(wiring, symmetry=symmetry, por=por)
        if por:
            # Verdict-level conformance: the level-synchronous C3
            # oracle legitimately picks different ample sets (see
            # module docstring); both reductions must stay sound.
            unreduced, _ = _both(wiring, symmetry=symmetry)
            assert _verdict(scalar) == _verdict(batch) == _verdict(unreduced)
            _assert_por_accounting(batch)
            assert batch["por_counters"]["transitions_pruned"] > 0
            assert batch["transitions"] < unreduced["transitions"]
        else:
            assert scalar == batch

    @pytest.mark.parametrize("fingerprint", [False, True])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_exhaustive_n2_fingerprint(self, fingerprint, symmetry, por):
        scalar, batch = _both(
            N2_CLASSES[1], fingerprint=fingerprint, symmetry=symmetry,
            por=por,
        )
        if por:
            assert _verdict(scalar) == _verdict(batch)
            _assert_por_accounting(batch)
        else:
            assert scalar == batch

    def test_batch_por_cycle_proviso_seam(self):
        # The snapshot machine's reachable graph is a DAG, so disabling
        # C3 must not change the verdict — it only removes proviso
        # blocks (the livelock regression that *needs* C3 lives in
        # tests/test_por.py on the generic engine).
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[1])
        guarded = spec.explore(engine="batch", por=True)
        unguarded = spec.explore(
            engine="batch", por=True, por_cycle_proviso=False
        )
        assert _verdict(guarded) == _verdict(unguarded)
        assert unguarded.por_counters["cycle_proviso_expansions"] == 0

    @pytest.mark.parametrize("budget", [1, 2, 7, 50, 500])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_budget_clipped_counts_match_exactly(self, budget, symmetry):
        # Mid-level budget trips are where the two loops most easily
        # diverge: the truncated-transition count depends on *where*
        # inside a level the (B+1)-th fresh state appeared.
        scalar, batch = _both(
            N2_CLASSES[1], max_states=budget, symmetry=symmetry
        )
        assert scalar == batch

    def test_budgeted_n3_multi_level(self):
        scalar, batch = _both(
            N3_CLASS, inputs=(1, 2, 3), max_states=3_000, fingerprint=True
        )
        assert scalar == batch

    def test_seeded_violation_matches_and_defeats_vectorized_mask(
        self, monkeypatch
    ):
        _seed_violation(monkeypatch)
        scalar, batch = _both(N2_CLASSES[1])
        assert scalar == batch
        assert batch["violation"] == _SEEDED_MESSAGE
        assert not batch["complete"] or batch["violation"] is not None

    def test_seeded_violation_after_batch_import(self, monkeypatch):
        # Patch order must not matter: importing batch first, then
        # patching, then exploring still sees the seeded fault.
        import repro.checker.batch  # noqa: F401  (already imported)

        _seed_violation(monkeypatch)
        scalar, batch = _both(N2_CLASSES[0], symmetry=True)
        assert scalar == batch
        assert batch["violation"] == _SEEDED_MESSAGE

    def test_unknown_engine_rejected(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(ValueError, match="unknown engine"):
            spec.explore(engine="simd")

    def test_wait_freedom_refused_on_batch(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(ValueError, match="edge"):
            spec.explore(engine="batch", check_wait_freedom=True)


@requires_numpy
class TestStoreConformance:
    @pytest.mark.parametrize("backend", ["ram", "mmap", "spill"])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("por", [False, True])
    def test_backends_match_scalar(self, backend, symmetry, por, tmp_path):
        def run(engine, sub):
            return FastSnapshotSpec([1, 2], N2_CLASSES[1]).explore(
                engine=engine, fingerprint=True, symmetry=symmetry,
                por=por,
                store=StoreConfig(
                    backend=backend, directory=str(tmp_path / sub)
                ),
            )

        scalar = asdict(run("scalar", "scalar"))
        batch = asdict(run("batch", "batch"))
        if por:
            assert _verdict(scalar) == _verdict(batch)
            _assert_por_accounting(batch)
            return
        # The engines probe the same visited set with different call
        # patterns (scalar add/contains vs one bulk call per level), so
        # operation counters legitimately differ; everything else must
        # not.
        scalar.pop("store_counters")
        batch.pop("store_counters")
        assert scalar == batch


# ----------------------------------------------------------------------
# Tentpole: sharded conformance (whole levels across the wire)
# ----------------------------------------------------------------------


@requires_numpy
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
    def test_exhaustive_n2_matches_scalar_workers(self, symmetry, fingerprint):
        kwargs = dict(jobs=2, symmetry=symmetry, fingerprint=fingerprint)
        scalar = explore_sharded(
            [1, 2], N2_CLASSES[1], engine="scalar", **kwargs
        )
        batch = explore_sharded([1, 2], N2_CLASSES[1], engine="batch", **kwargs)
        assert asdict(scalar) == asdict(batch)

    def test_budgeted_n3_matches_scalar_workers(self):
        scalar = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000, engine="scalar"
        )
        batch = explore_sharded(
            [1, 2, 3], N3_CLASS, jobs=2, max_states=2_000, engine="batch"
        )
        assert asdict(scalar) == asdict(batch)

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_por_batch_workers_verdict_conformant(self, symmetry):
        scalar = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, por=True, symmetry=symmetry,
            engine="scalar",
        )
        batch = explore_sharded(
            [1, 2], N2_CLASSES[1], jobs=2, por=True, symmetry=symmetry,
            engine="batch",
        )
        # Workers run the level-synchronous selector, which certifies
        # novelty against a smaller snapshot than the scalar selector's
        # mid-level visited set: verdicts must agree, counts may not.
        assert _verdict(scalar) == _verdict(batch)
        assert batch.por_counters is not None
        assert batch.por_counters["transitions_pruned"] > 0
        _assert_por_accounting(asdict(batch))

    def test_class_sweep_matches_scalar(self):
        scalar = check_snapshot_classes(2, jobs=2, engine="scalar")
        batch = check_snapshot_classes(2, jobs=2, engine="batch")
        assert len(scalar) == len(batch)
        for (w_scalar, r_scalar), (w_batch, r_batch) in zip(scalar, batch):
            assert w_scalar == w_batch
            assert asdict(r_scalar) == asdict(r_batch)

    def test_checkpoint_interrupt_resume_roundtrip(self, tmp_path):
        from repro.store.checkpoint import RunCheckpointer

        meta = {"n": 3, "engine_test": "batch"}
        kwargs = dict(jobs=2, max_states=3_000, engine="batch")
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
# Budget-trip accounting on the symmetric path.  The batch engine keeps
# no raw-successor memo; the scalar symmetric loop's cache only shows
# in how a trip window counts a repeated raw successor.
# ----------------------------------------------------------------------

#: All ten N=3 wiring classes.
N3_CLASSES = canonical_wiring_classes(3, 3)

try:
    from repro.checker.native.loader import native_available

    _native_ok = batch_mod.HAVE_NUMPY and native_available()
except Exception:  # pragma: no cover - import error == unavailable
    _native_ok = False

requires_native = pytest.mark.skipif(
    not _native_ok, reason="native kernel unavailable (no numpy/compiler)"
)


@functools.lru_cache(maxsize=None)
def _scalar_symmetric(wiring, budget):
    return asdict(FastSnapshotSpec([1, 2, 3], wiring).explore(
        engine="scalar", symmetry=True, max_states=budget
    ))


def _replay_trip(buffers, key_of, visited, budget, raw_cache):
    """The scalar symmetric loop's admission rule over one level.

    Returns the truncated-transition count; ``raw_cache`` skips a raw
    successor met before, as the scalar loop's cache does.
    """
    seen = set(visited)
    raw_seen = set()
    admitted = truncated = 0
    for buffer in buffers:
        for raw in buffer:
            if raw_cache:
                if raw in raw_seen:
                    continue
                raw_seen.add(raw)
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


@requires_numpy
class TestSymmetricTripAccounting:
    def test_window_duplicate_counts_once(self):
        # Three parents; key = raw // 10 stands in for canonicalization
        # (10 and 11 share an orbit).  Key 2 is already visited and the
        # budget admits two fresh keys (1, then 3), so the trip is at
        # raw 40 and the window is the rest of parent 1's buffer:
        # [40, 30, 50, 40].  Raw 40 repeats inside the window; raw 30
        # was met before the trip and its key was admitted.
        buffers = [[10, 20, 11], [30, 40, 30, 50, 40], [60, 21, 70]]
        visited = {2}
        budget = 2

        def key_of(raw):
            return raw // 10

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

        def count(distinct_raw):
            return batch_mod._trip_truncations(
                successors, keys, unique_keys, unadmitted,
                trip, buffer_end, distinct_raw,
            )

        with_cache = _replay_trip(buffers, key_of, visited, budget, True)
        without_cache = _replay_trip(buffers, key_of, visited, budget, False)
        assert (with_cache, without_cache) == (2, 3)
        assert count(distinct_raw=True) == with_cache
        assert count(distinct_raw=False) == without_cache

    @pytest.mark.parametrize(
        "symmetry, fingerprint, backend, distinct_raw",
        [
            (True, False, None, True),
            (True, False, "ram", True),
            (True, False, "spill", False),
            (True, True, None, False),
            (False, False, None, False),
        ],
    )
    def test_window_dedup_only_where_the_scalar_loop_caches(
        self, monkeypatch, tmp_path, symmetry, fingerprint, backend,
        distinct_raw,
    ):
        # The scalar loop's raw-successor cache exists only in
        # symmetric, RAM-backed, non-fingerprint runs.
        seen = []
        real = batch_mod._trip_truncations

        def spy(*args):
            seen.append(args[-1])
            return real(*args)

        monkeypatch.setattr(batch_mod, "_trip_truncations", spy)
        store = None
        if backend is not None:
            store = StoreConfig(backend=backend, directory=str(tmp_path))
        FastSnapshotSpec([1, 2, 3], N3_CLASS).explore(
            engine="batch", symmetry=symmetry, fingerprint=fingerprint,
            store=store, max_states=333,
        )
        assert seen == [distinct_raw]

    @pytest.mark.parametrize(
        "kernel", ["numpy", pytest.param("native", marks=requires_native)]
    )
    @pytest.mark.parametrize("budget", [1, 7, 333, 2000])
    @pytest.mark.parametrize("wiring", N3_CLASSES, ids=str)
    def test_n3_symmetric_trips_match_scalar(self, wiring, budget, kernel):
        batch = asdict(FastSnapshotSpec([1, 2, 3], wiring).explore(
            engine="batch", kernel=kernel, symmetry=True, max_states=budget
        ))
        assert batch == _scalar_symmetric(wiring, budget)
        assert not batch["complete"]


# ----------------------------------------------------------------------
# Graceful degradation without numpy (runs with numpy installed too —
# absence is simulated by flipping HAVE_NUMPY)
# ----------------------------------------------------------------------


class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)

    def test_require_numpy_raises_with_guidance(self):
        with pytest.raises(BatchEngineUnavailable, match="--engine scalar"):
            batch_mod.require_numpy()

    def test_explore_batch_refused(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASSES[0])
        with pytest.raises(BatchEngineUnavailable):
            spec.explore(engine="batch")

    def test_explore_sharded_batch_refused(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "effective_jobs", lambda requested: requested
        )
        with pytest.raises(BatchEngineUnavailable):
            explore_sharded([1, 2], N2_CLASSES[0], jobs=2, engine="batch")

    def test_scalar_engine_unaffected(self):
        result = FastSnapshotSpec([1, 2], N2_CLASSES[0]).explore()
        assert result.ok and result.states == 7235

    def test_cli_exits_2_with_message(self, capsys):
        from repro.cli import main

        assert main(["check", "--n", "2", "--engine", "batch"]) == 2
        out = capsys.readouterr().out
        assert "numpy is not installed" in out


# ----------------------------------------------------------------------
# CLI happy path
# ----------------------------------------------------------------------


@requires_numpy
class TestCliBatchEngine:
    def test_check_n2_engine_batch_runs_class_sweep(self, capsys):
        from repro.cli import main

        assert main(["check", "--n", "2", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        # the batch engine triggers the fast class sweep on top of the
        # full-edge liveness pass
        assert "class sweep" in out
        assert out.count("7235 states") >= 2

    def test_unknown_engine_rejected_by_argparse(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "--n", "2", "--engine", "simd"])


# ----------------------------------------------------------------------
# _unique_first's sorted fast path (spill merges hand back whole levels
# in key order; re-sorting them was measurable pure waste)
# ----------------------------------------------------------------------


@requires_numpy
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
                engine="batch", fingerprint=True, max_states=3_000,
                store=StoreConfig(
                    backend=backend, directory=str(tmp_path / sub)
                ),
            ))

        ram = run("ram", "ram")
        spill = run("spill", "spill")
        ram.pop("store_counters")
        spill.pop("store_counters")
        assert ram == spill
