"""Job records and the JobQueue behind `repro serve`: round-trippable
records, an enforced state machine with immutable terminal states,
atomic persistence of creation, transitions and cancel requests that
survives a process restart (the live progress snapshot stays in
memory), the revision long-poll, and recovery of jobs interrupted
mid-run."""

import json
import os
import sys
import threading
import time

import pytest

from repro.service import (
    JOB_STATES,
    TERMINAL_STATES,
    JobError,
    JobQueue,
    JobRecord,
    JobStateError,
)
from repro.service.jobs import _TRANSITIONS, QueueClosedError, new_job_id


def make_queue(tmp_path):
    return JobQueue(str(tmp_path / "store"))


class TestJobRecord:
    def test_round_trips_through_dict(self):
        record = JobRecord(
            job_id="abc123",
            suite="tiny",
            spec={"name": "tiny", "blocks": []},
            options={"workers": 2},
            progress={"completed": 1, "total": 3},
            result_keys=["deadbeef"],
        )
        clone = JobRecord.from_dict(record.to_dict())
        assert clone == record
        # and the dict itself is plain JSON
        json.dumps(record.to_dict())

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown job state"):
            JobRecord(job_id="x", suite="s", spec={}, state="paused")

    def test_created_at_stamped(self):
        assert JobRecord(job_id="x", suite="s", spec={}).created_at > 0

    def test_finished_property_matches_terminal_states(self):
        for state in JOB_STATES:
            record = JobRecord(job_id="x", suite="s", spec={}, state=state)
            assert record.finished == (state in TERMINAL_STATES)

    def test_job_ids_are_unique(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64


class TestStateMachine:
    def test_happy_path(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="tiny", spec={})
        assert record.state == "queued"
        running = queue.transition(record.job_id, "running")
        assert running.started_at is not None
        done = queue.transition(record.job_id, "done", report={"x": 1})
        assert done.finished_at is not None
        assert done.report == {"x": 1}

    def test_every_illegal_transition_raises(self, tmp_path):
        queue = make_queue(tmp_path)
        for state in JOB_STATES:
            record = queue.create(suite="s", spec={}, job_id=f"j-{state}")
            if state != "queued":  # force the starting state
                queue._jobs[record.job_id].state = state
            for target in JOB_STATES:
                if target in _TRANSITIONS[state]:
                    continue
                with pytest.raises(JobStateError):
                    queue.transition(record.job_id, target)

    def test_terminal_records_are_immutable(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        queue.transition(record.job_id, "running")
        queue.transition(record.job_id, "error", error="boom")
        with pytest.raises(JobStateError, match="already error"):
            queue.update(record.job_id, progress={"completed": 1})

    def test_update_rejects_state_and_unknown_fields(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        with pytest.raises(ValueError, match="unknown job field"):
            queue.update(record.job_id, state="done")
        with pytest.raises(ValueError, match="unknown job field"):
            queue.update(record.job_id, nonsense=1)
        with pytest.raises(ValueError, match="unknown job state"):
            queue.transition(record.job_id, "paused")

    def test_unknown_job_raises_joberror(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(JobError, match="unknown job"):
            queue.get("nope")

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.create(suite="s", spec={}, job_id="same")
        with pytest.raises(JobError, match="duplicate"):
            queue.create(suite="s", spec={}, job_id="same")

    def test_get_returns_a_defensive_copy(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        queue.get(record.job_id).progress["completed"] = 99
        assert queue.get(record.job_id).progress == {}


class TestPersistence:
    def test_table_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        queue = JobQueue(root)
        record = queue.create(suite="tiny", spec={"name": "tiny"})
        queue.transition(record.job_id, "running")
        queue.transition(
            record.job_id, "done", result_keys=["k1", "k2"]
        )

        reopened = JobQueue(root)
        clone = reopened.get(record.job_id)
        assert clone.state == "done"
        assert clone.result_keys == ["k1", "k2"]
        assert clone.spec == {"name": "tiny"}

    def test_unparsable_record_files_are_skipped(self, tmp_path):
        root = str(tmp_path / "store")
        queue = JobQueue(root)
        good = queue.create(suite="s", spec={})
        with open(os.path.join(queue.root, "broken.json"), "w") as handle:
            handle.write("{half a rec")
        with open(os.path.join(queue.root, "hollow.json"), "w") as handle:
            handle.write("{}")
        reopened = JobQueue(root)
        assert [r.job_id for r in reopened.list()] == [good.job_id]

    def test_progress_stays_in_memory_until_a_transition(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        queue.transition(record.job_id, "running")
        path = queue._path(record.job_id)
        with open(path) as handle:
            before = handle.read()
        queue.update(record.job_id, progress={"completed": 1, "total": 2})
        assert queue.get(record.job_id).progress["completed"] == 1
        with open(path) as handle:
            assert handle.read() == before
        # the terminal write carries the last snapshot
        queue.transition(record.job_id, "done")
        with open(path) as handle:
            assert json.load(handle)["progress"]["completed"] == 1

    def test_a_cancel_request_is_written_once(self, tmp_path, monkeypatch):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        queue.transition(record.job_id, "running")
        writes = []
        persist = JobQueue._persist
        monkeypatch.setattr(
            JobQueue,
            "_persist",
            lambda self, rec: writes.append(rec.job_id) or persist(self, rec),
        )
        cancel = {"completed": 1, "total": 3, "cancel_requested": True}
        queue.update(record.job_id, progress=cancel)
        queue.update(record.job_id, progress=dict(cancel, completed=2))
        assert writes == [record.job_id]
        reopened = JobQueue(str(tmp_path / "store"))
        assert reopened.get(record.job_id).progress == cancel

    def test_record_files_are_compact_sorted_json(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={"b": 1, "a": 2})
        with open(queue._path(record.job_id)) as handle:
            text = handle.read()
        payload = json.loads(text)
        assert text == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_list_sorted_and_filtered(self, tmp_path):
        queue = make_queue(tmp_path)
        first = queue.create(suite="a", spec={}, job_id="a1")
        second = queue.create(suite="b", spec={}, job_id="b2")
        queue.transition(second.job_id, "running")
        assert [r.job_id for r in queue.list()] == ["a1", "b2"]
        assert [r.job_id for r in queue.list(state="queued")] == ["a1"]
        counts = queue.counts()
        assert counts["queued"] == 1 and counts["running"] == 1
        assert first.state == "queued"


class TestRecover:
    def test_running_jobs_are_requeued(self, tmp_path):
        root = str(tmp_path / "store")
        queue = JobQueue(root)
        interrupted = queue.create(suite="s", spec={}, job_id="mid")
        queue.transition(interrupted.job_id, "running")
        finished = queue.create(suite="s", spec={}, job_id="fin")
        queue.transition(finished.job_id, "running")
        queue.transition(finished.job_id, "done")

        # a new process opens the same table: the in-flight job comes
        # back queued (store-backed resume makes re-running idempotent)
        reopened = JobQueue(root)
        assert reopened.recover() == (["mid"], [])
        record = reopened.get("mid")
        assert record.state == "queued"
        assert record.recovered
        assert record.started_at is None
        assert reopened.get("fin").state == "done"

    def test_recover_is_idempotent(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.recover() == ([], [])

    def test_running_job_with_a_cancel_request_is_cancelled(self, tmp_path):
        root = str(tmp_path / "store")
        queue = JobQueue(root)
        record = queue.create(suite="s", spec={}, job_id="cxl")
        queue.transition(record.job_id, "running")
        queue.update(record.job_id, progress={"cancel_requested": True})

        reopened = JobQueue(root)
        assert reopened.recover() == ([], ["cxl"])
        survivor = reopened.get("cxl")
        assert survivor.state == "cancelled"
        assert "restarted" in survivor.error
        assert survivor.finished_at is not None
        # and the verdict is on disk for the next restart
        assert JobQueue(root).get("cxl").state == "cancelled"


class TestLongPoll:
    """``JobQueue.wait``: revisions bump on every mutation, and a
    parked wait returns on the change, on a terminal state, on its
    timeout, or (with QueueClosedError) on close."""

    def park(self, queue, job_id, timeout, after=None):
        """Run ``wait`` on a thread -> (thread, result box)."""
        box = {}

        def target():
            start = time.monotonic()
            try:
                box["result"] = queue.wait(job_id, timeout, after)
            except Exception as exc:
                box["error"] = exc
            box["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=target)
        thread.start()
        return thread, box

    def test_revisions_start_at_one_and_bump_per_mutation(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        assert queue.wait(record.job_id, 0)[1] == 1
        queue.transition(record.job_id, "running")
        queue.update(record.job_id, progress={"completed": 1})
        copy, revision = queue.wait(record.job_id, 0)
        assert revision == 3
        assert copy.progress == {"completed": 1}
        # a reopened table starts every job afresh at 1
        assert JobQueue(str(tmp_path / "store")).wait(
            record.job_id, 0
        )[1] == 1

    def test_wait_returns_on_the_next_change(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        thread, box = self.park(queue, record.job_id, 10, after=1)
        time.sleep(0.05)
        assert thread.is_alive()
        queue.transition(record.job_id, "running")
        thread.join(timeout=5)
        assert not thread.is_alive()
        copy, revision = box["result"]
        assert (copy.state, revision) == ("running", 2)
        assert box["elapsed"] < 5

    def test_wait_without_after_parks_until_terminal(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        thread, box = self.park(queue, record.job_id, 10)
        queue.transition(record.job_id, "running")
        queue.update(record.job_id, progress={"completed": 1})
        time.sleep(0.05)
        assert thread.is_alive()
        queue.transition(record.job_id, "done")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert box["result"][0].state == "done"

    def test_wait_times_out_with_the_current_record(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        start = time.monotonic()
        copy, revision = queue.wait(record.job_id, 0.1, after=1)
        assert 0.09 <= time.monotonic() - start < 5
        assert (copy.state, revision) == ("queued", 1)

    def test_unknown_job_raises_at_once(self, tmp_path):
        queue = make_queue(tmp_path)
        start = time.monotonic()
        with pytest.raises(JobError, match="unknown job"):
            queue.wait("nope", 10)
        assert time.monotonic() - start < 1

    def test_close_wakes_parked_waiters(self, tmp_path):
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        thread, box = self.park(queue, record.job_id, 10)
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box["error"], QueueClosedError)
        assert box["elapsed"] < 1
        # a wait that need not park still answers after close
        assert queue.wait(record.job_id, 0)[0].state == "queued"
        with pytest.raises(QueueClosedError):
            queue.wait(record.job_id, 1)

    def test_concurrent_updates_lose_no_revision(self, tmp_path):
        # more threads than cores, a tiny switch interval: every update
        # must bump the revision exactly once, and every parked waiter
        # must see revisions that only ever grow
        queue = make_queue(tmp_path)
        record = queue.create(suite="s", spec={})
        queue.transition(record.job_id, "running")
        writers, updates = 8, 150
        final = 2 + writers * updates
        seen = [[] for _ in range(3)]

        def write(index):
            for step in range(updates):
                queue.update(record.job_id, progress={"w": index, "i": step})

        def watch(log):
            revision = 0
            deadline = time.monotonic() + 60
            while revision < final and time.monotonic() < deadline:
                _, revision = queue.wait(record.job_id, 1.0, revision)
                log.append(revision)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watchers = [
                threading.Thread(target=watch, args=(log,)) for log in seen
            ]
            threads = [
                threading.Thread(target=write, args=(i,))
                for i in range(writers)
            ]
            for thread in watchers + threads:
                thread.start()
            for thread in threads + watchers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in watchers + threads)
        assert queue.wait(record.job_id, 0)[1] == final
        for log in seen:
            assert log == sorted(log)
            assert log[-1] == final
