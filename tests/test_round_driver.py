"""The shard round driver, fed synthetic shard replies (no processes).

:class:`~repro.checker.rounds.RoundDriver` decides everything between
the rounds of a sharded run, for the pipe transport and the service
alike, so its rules are pinned here directly: merge order and the
lowest-shard violation, the budget trip and its truncated count, POR
totals across a resume, checkpoint cadence and the counters written,
and the routing of a resumed frontier.
"""

import json

import numpy as np
import pytest

from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.fingerprint import fingerprint_int
from repro.checker.rounds import (
    POR_KEYS,
    Finish,
    RoundDriver,
    SendRound,
    ShardReply,
    WorkerDied,
    WriteCheckpoint,
)
from repro.service.protocol import bytes_to_payload, payload_to_bytes
from repro.store.checkpoint import RunCheckpointer, read_u64_file, write_u64_file

SPEC = FastSnapshotSpec([1, 2], ((0, 1), (0, 1)))
META = {"test": "round-driver"}


def _reply(admitted=1, transitions=0, violation=None, outboxes=None,
           covered=None, skipped=0, por=None):
    return ShardReply(
        admitted=admitted,
        transitions=transitions,
        violation=violation,
        outboxes={
            owner: np.array(entries, dtype=np.uint64)
            for owner, entries in (outboxes or {}).items()
        },
        covered=covered,
        skipped=skipped,
        por=por,
    )


def _por(pruned):
    return {key: pruned * (index + 1) for index, key in enumerate(POR_KEYS)}


def _started(n_shards=3, max_states=10 ** 9, **kwargs):
    driver = RoundDriver(SPEC, n_shards, max_states, **kwargs)
    first = driver.start()
    assert isinstance(first, SendRound) and first.frontier == 1
    return driver


class TestMerge:
    def test_inboxes_concatenate_in_sender_shard_order(self):
        driver = _started()
        # Replies arrive keyed in reverse; the merge still walks shards
        # 0, 1, 2, so shard 0's contribution comes first.
        action = driver.merge({
            2: _reply(outboxes={0: [30]}),
            1: _reply(outboxes={0: [20, 21], 2: [22]}),
            0: _reply(outboxes={0: [10], 1: [11]}),
        })
        assert isinstance(action, SendRound) and action.seq == 2
        assert action.inbox(0).tolist() == [10, 20, 21, 30]
        assert action.inbox(1).tolist() == [11]
        assert action.inbox(2).tolist() == [22]
        assert action.frontier == 6
        assert driver.states == 3

    def test_violation_comes_from_the_lowest_reporting_shard(self):
        driver = _started()
        action = driver.merge({
            0: _reply(admitted=2, transitions=5, outboxes={1: [4]}),
            1: _reply(admitted=3, transitions=7, violation="shard one"),
            2: _reply(admitted=4, transitions=9, violation="shard two"),
        })
        assert isinstance(action, Finish)
        result = action.result
        assert result.violation == "shard one"
        assert result.complete
        assert (result.states, result.transitions) == (9, 21)

    def test_empty_outboxes_finish_the_run(self):
        driver = _started(n_shards=2, symmetry=True)
        action = driver.merge({
            0: _reply(admitted=2, covered=3, skipped=1),
            1: _reply(admitted=1, covered=2, skipped=1),
        })
        assert isinstance(action, Finish)
        result = action.result
        assert result.complete and result.ok
        assert result.covered_states == 5
        assert result.recanonicalizations_skipped == 2
        assert result.symmetry_group_order == 2

    def test_missing_shard_is_a_dead_worker(self):
        driver = _started()
        with pytest.raises(WorkerDied, match="shard 1"):
            driver.merge({0: _reply(), 2: _reply()})
        assert issubclass(WorkerDied, RuntimeError)


class TestBudget:
    def test_trip_reports_the_pending_frontier_as_truncated(self):
        driver = _started(n_shards=2, max_states=5)
        action = driver.merge({
            0: _reply(admitted=3, outboxes={0: [1, 2], 1: [3]}),
            1: _reply(admitted=2, outboxes={0: [4]}),
        })
        assert isinstance(action, Finish)
        result = action.result
        assert not result.complete
        assert result.states == 5
        assert result.truncated_transitions == 4

    def test_no_trip_below_the_budget(self):
        driver = _started(n_shards=2, max_states=6)
        action = driver.merge({
            0: _reply(admitted=3, outboxes={1: [3]}),
            1: _reply(admitted=2),
        })
        assert isinstance(action, SendRound)


def _write_dumps(action, n_shards):
    for shard in range(n_shards):
        write_u64_file(action.dumps[shard], [shard])


class TestCheckpoints:
    def test_cadence_counters_and_frontier_file(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, META, every=4)
        driver = _started(n_shards=2, por=True, checkpointer=checkpointer)
        # 3 admitted: below the cadence, no checkpoint.
        action = driver.merge({
            0: _reply(admitted=2, transitions=2, outboxes={1: [6]},
                      por=_por(1)),
            1: _reply(admitted=1, transitions=1, outboxes={0: [5]},
                      por=_por(2)),
        })
        assert isinstance(action, SendRound)
        # 5 admitted in total: due.
        action = driver.merge({
            0: _reply(admitted=1, transitions=3, outboxes={1: [9], 0: [7]},
                      por=_por(3)),
            1: _reply(admitted=1, transitions=4, outboxes={0: [8]}),
        })
        assert isinstance(action, WriteCheckpoint)
        assert [path.name for path in action.dumps] == [
            "visited-000.u64", "visited-001.u64",
        ]
        _write_dumps(action, 2)
        pending = driver.commit(action)
        assert pending is action.pending
        assert pending.inbox(0).tolist() == [7, 8]
        latest = checkpointer.latest()
        assert latest is not None
        counters = json.loads((latest.directory / "counters.json").read_text())
        expected_por = dict(_por(3))
        for key, value in _por(2).items():
            expected_por[key] += value
        assert counters == {
            "admitted": 5, "transitions": 10, "covered": 0, "skipped": 0,
            **expected_por,
        }
        # The frontier is the pending inboxes in ascending owner order.
        assert latest.frontier().tolist() == [7, 8, 9]
        # The next checkpoint waits for `every` more admissions.
        action = driver.merge({
            0: _reply(admitted=2, outboxes={0: [1]}),
            1: _reply(admitted=1),
        })
        assert isinstance(action, SendRound)

    def test_por_totals_add_the_checkpointed_base(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, META, every=1)
        driver = _started(n_shards=2, por=True, checkpointer=checkpointer)
        action = driver.merge({
            0: _reply(outboxes={1: [6]}, por=_por(1)),
            1: _reply(outboxes={0: [5]}, por=_por(10)),
        })
        assert isinstance(action, WriteCheckpoint)
        _write_dumps(action, 2)
        driver.commit(action)

        resumed = RoundDriver(
            SPEC, 2, 10 ** 9, por=True,
            checkpointer=RunCheckpointer(tmp_path, META, every=1000),
        )
        first = resumed.start()
        assert isinstance(first, SendRound)
        assert resumed.states == 2
        # Workers restart their cumulative counters after a resume; the
        # latest snapshot per shard is added to the checkpointed base.
        resumed.merge({0: _reply(outboxes={1: [3]}, por=_por(5)), 1: _reply()})
        action = resumed.merge({0: _reply(por=_por(7)), 1: _reply()})
        assert isinstance(action, Finish)
        expected = {key: _por(11)[key] + _por(7)[key] for key in POR_KEYS}
        assert action.result.por_counters == expected
        assert action.result.states == 6

    def test_finish_is_recorded_and_replayed(self, tmp_path):
        checkpointer = RunCheckpointer(tmp_path, META, every=1000)
        driver = _started(n_shards=2, checkpointer=checkpointer)
        finished = driver.merge({0: _reply(admitted=4), 1: _reply()})
        assert isinstance(finished, Finish)
        replay = RoundDriver(SPEC, 2, 10 ** 9, checkpointer=checkpointer)
        again = replay.start()
        assert isinstance(again, Finish)
        assert again.result == finished.result


class TestResumeRouting:
    def test_frontier_routes_to_fingerprint_owners(self, tmp_path):
        n_shards = 3
        rng = np.random.default_rng(7)
        frontier = rng.integers(0, 1 << 62, size=500, dtype=np.uint64)
        frontier = (frontier << np.uint64(1)) | np.uint64(1)
        checkpointer = RunCheckpointer(tmp_path, META, every=1)
        staging = checkpointer.begin()
        write_u64_file(staging / "frontier.u64", frontier)
        for shard in range(n_shards):
            write_u64_file(staging / f"visited-{shard:03d}.u64", [shard])
        checkpointer.commit(staging, {
            "admitted": 17, "transitions": 40, "covered": 0, "skipped": 0,
        })

        driver = RoundDriver(SPEC, n_shards, 10 ** 9, checkpointer=checkpointer)
        action = driver.start()
        assert isinstance(action, SendRound)
        assert (driver.states, driver.transitions) == (17, 40)
        for shard in range(n_shards):
            expected = [
                entry for entry in frontier.tolist()
                if fingerprint_int(entry >> 1) % n_shards == shard
            ]
            assert action.inbox(shard).tolist() == expected
            assert read_u64_file(driver.resume_dumps[shard]).tolist() == [shard]
        assert action.frontier == frontier.size


class TestLayerEncoding:
    def test_layer_entry_round_trips(self):
        reply = _reply(
            admitted=4, transitions=9, outboxes={2: [5, 6], 0: [7]},
            covered=8, skipped=3, por=_por(2),
        )
        payloads = []
        entry = reply.to_layer(1, payloads)
        assert entry["shard"] == 1
        assert entry["outboxes"] == [[0, 0], [2, 1]]
        # Through the wire: JSON header, u64 payloads back as array('Q').
        received = [bytes_to_payload(payload_to_bytes(p)) for p in payloads]
        decoded = ShardReply.from_layer(json.loads(json.dumps(entry)), received)
        assert decoded.outboxes.keys() == reply.outboxes.keys()
        for owner, entries in reply.outboxes.items():
            assert decoded.outboxes[owner].tolist() == entries.tolist()
        assert (
            decoded.admitted, decoded.transitions, decoded.violation,
            decoded.covered, decoded.skipped, decoded.por,
        ) == (4, 9, None, 8, 3, _por(2))
