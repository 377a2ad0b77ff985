"""CampaignService — async suite jobs over one shared store, tested
through :class:`InProcessClient` (the real client API routed through
the real Router, no sockets).

Acceptance properties from the 1.6 service layer:

* a submitted suite runs to ``done`` with live ``[i/N]`` progress and
  per-cell result keys, every one fetchable and hash-verified;
* re-submitting an identical suite is served as verified store hits —
  the simulator is never invoked;
* cancellation is immediate for queued jobs and cooperative (next cell
  boundary) for running ones;
* the job table survives a service restart, and ``running`` jobs
  interrupted by a crash are recovered back to ``queued`` — unless a
  cancel request was recorded, which the restart honours;
* a job writes its file on creation, ``running`` and its terminal
  state (plus once per cancel request), whatever its cell count, and
  ``ServiceAPI.wait`` long-polls: a resumed job costs the submit plus
  one request.
"""

import json
import threading
import time

import pytest

import repro.suite.runner as runner_module
from repro.service import (
    CampaignService,
    InProcessClient,
    JobQueue,
    JobStateError,
    ServiceAPI,
    ServiceError,
)
from repro.suite.builtin import builtin_suite

from test_suite import tiny_suite


def make_service(tmp_path, **kwargs):
    return CampaignService(str(tmp_path / "store"), **kwargs)


class Gate:
    """Block execute_cell until released — deterministic cancel tests."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self._real = runner_module.execute_cell

    def __call__(self, cell_dict, store_root, cache=True):
        self.started.set()
        assert self.release.wait(timeout=30), "gate never released"
        return self._real(cell_dict, store_root, cache)


class StepGate:
    """Let execute_cell run one cell per :meth:`step` — the test
    decides when each cell may finish."""

    def __init__(self):
        self.permits = threading.Semaphore(0)
        self._real = runner_module.execute_cell

    def step(self):
        self.permits.release()

    def __call__(self, cell_dict, store_root, cache=True):
        assert self.permits.acquire(timeout=30), "gate never stepped"
        return self._real(cell_dict, store_root, cache)


class RecordingClient(InProcessClient):
    """InProcessClient that logs every (method, path) it sends."""

    def __init__(self, service):
        super().__init__(service)
        self.requests = []

    def _request(self, method, path, payload=None):
        self.requests.append((method, path))
        return super()._request(method, path, payload)


def track_job_writes(monkeypatch):
    """Record the job id of every job-file write."""
    writes = []
    persist = JobQueue._persist

    def counting(self, record):
        writes.append(record.job_id)
        persist(self, record)

    monkeypatch.setattr(JobQueue, "_persist", counting)
    return writes


class TestSubmitAndRun:
    def test_submit_runs_to_done_with_progress_and_keys(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            snapshots = []
            job = client.submit(tiny_suite())
            assert job["state"] == "queued"
            job = client.wait(
                job["job_id"],
                progress=lambda j: snapshots.append(dict(j["progress"])),
            )
            assert job["state"] == "done"
            assert job["progress"]["completed"] == 3
            assert job["progress"]["total"] == 3
            assert job["report"]["execution"]["errors"] == 0
            assert len(job["result_keys"]) == 3
            # the snapshot advanced monotonically as cells completed
            completed = [s["completed"] for s in snapshots if s]
            assert completed == sorted(completed)

            for key in job["result_keys"]:
                meta = client.result(key)
                assert meta["kind"] == "campaign"
                assert meta["sha256"]
                records = client.records(key)
                assert all(
                    json.loads(line)
                    for line in records.splitlines()
                    if line
                )

    def test_identical_resubmit_is_served_from_the_store(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            suite = tiny_suite()
            first = client.wait(client.submit(suite)["job_id"])
            assert first["report"]["execution"]["simulated"] == 3

            again = client.wait(client.submit(suite)["job_id"])
            execution = again["report"]["execution"]
            assert execution["simulated"] == 0
            assert execution["hits"] == 3
            assert execution["verified_hits"] == 3
            assert again["result_keys"] == first["result_keys"]

    def test_two_clients_submitting_concurrently_both_complete(
        self, tmp_path
    ):
        # the ISSUE acceptance scenario: one service, one store, two
        # clients racing distinct suites — both must land `done` with
        # verified artifacts
        with make_service(tmp_path, workers=2) as service:
            clients = [InProcessClient(service) for _ in range(2)]
            suites = [tiny_suite(cycles=64), tiny_suite(cycles=96)]
            done, errors = {}, []

            def run(client, suite, tag):
                try:
                    job = client.submit(suite)
                    done[tag] = client.wait(job["job_id"], timeout=120)
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(c, s, i))
                for i, (c, s) in enumerate(zip(clients, suites))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert {job["state"] for job in done.values()} == {"done"}
            for job in done.values():
                for key in job["result_keys"]:
                    assert clients[0].result(key)["sha256"]

    def test_job_that_raises_lands_in_error(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            # `only` filtering to a family the suite lacks raises inside
            # SuiteRunner.run — the job must capture it, not vanish
            job = client.submit(tiny_suite(), only="design")
            job = client.wait(job["job_id"])
            assert job["state"] == "error"
            assert "design" in job["error"]

    def test_health_counts_jobs(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            health = client.health()
            assert health["status"] == "ok"
            assert health["jobs"]["done"] == 1
            assert health["store"] == service.store_root
            assert job["state"] == "done"


class TestValidation:
    def test_unknown_option_rejected(self, tmp_path):
        with make_service(tmp_path) as service:
            with pytest.raises(ValueError, match="unknown job options"):
                service.submit(tiny_suite(), options={"retries": 3})

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"workers": 0}, "workers"),
            ({"engine": "quantum"}, "engine"),
            ({"only": "nope"}, "only"),
            ({"cache": "yes"}, "cache"),
        ],
    )
    def test_bad_option_values_rejected(self, tmp_path, options, match):
        with make_service(tmp_path) as service:
            with pytest.raises(ValueError, match=match):
                service.submit(tiny_suite(), options=options)

    def test_bad_suite_type_rejected(self, tmp_path):
        with make_service(tmp_path) as service:
            with pytest.raises(ValueError, match="suite must be"):
                service.submit(42)

    def test_submit_after_close_rejected(self, tmp_path):
        service = make_service(tmp_path)
        service.close()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(tiny_suite())


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, tmp_path, monkeypatch):
        gate = Gate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        with make_service(tmp_path, workers=1) as service:
            client = InProcessClient(service)
            blocker = client.submit(tiny_suite())
            queued = client.submit(tiny_suite(cycles=96))
            assert gate.started.wait(timeout=30)

            cancelled = client.cancel(queued["job_id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["error"] == "cancelled before start"

            gate.release.set()
            assert client.wait(blocker["job_id"])["state"] == "done"
            # the pool skips the cancelled job instead of reviving it
            assert client.job(queued["job_id"])["state"] == "cancelled"

    def test_cancel_running_job_stops_at_the_cell_boundary(
        self, tmp_path, monkeypatch
    ):
        gate = Gate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        with make_service(tmp_path, workers=1) as service:
            client = InProcessClient(service)
            job = client.submit(tiny_suite())
            assert gate.started.wait(timeout=30)

            requested = client.cancel(job["job_id"])
            assert requested["state"] == "running"
            assert requested["progress"]["cancel_requested"]

            gate.release.set()
            job = client.wait(job["job_id"])
            assert job["state"] == "cancelled"
            # the in-flight cell finished; the remaining two never ran
            assert job["report"]["execution"]["cells"] == 1

    def test_cancel_request_outlives_later_progress_snapshots(
        self, tmp_path, monkeypatch
    ):
        gate = Gate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        with make_service(tmp_path, workers=1) as service:
            client = InProcessClient(service)
            job = client.submit(tiny_suite())
            assert gate.started.wait(timeout=30)
            client.cancel(job["job_id"])

            gate.release.set()
            job = client.wait(job["job_id"])
            assert job["state"] == "cancelled"
            # the cell in flight at the request replaced the snapshot
            # when it finished; the request must still show in it
            assert job["progress"]["completed"] == 1
            assert job["progress"]["cancel_requested"] is True

    def test_cancel_terminal_job_conflicts(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            with pytest.raises(ServiceError) as err:
                client.cancel(job["job_id"])
            assert err.value.status == 409
            with pytest.raises(JobStateError):
                service.cancel(job["job_id"])


class TestRestart:
    def test_job_table_survives_a_service_restart(self, tmp_path):
        root = str(tmp_path / "store")
        with CampaignService(root) as service:
            client = InProcessClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            assert job["state"] == "done"

        with CampaignService(root) as reborn:
            client = InProcessClient(reborn)
            survivor = client.job(job["job_id"])
            assert survivor["state"] == "done"
            assert survivor["result_keys"] == job["result_keys"]
            # and its artifacts are still fetchable
            assert client.records(job["result_keys"][0])

    def test_interrupted_running_job_is_recovered(self, tmp_path):
        root = str(tmp_path / "store")
        # simulate a server death mid-job: a `running` record on disk
        queue = JobQueue(root)
        spec = tiny_suite().to_dict()
        record = queue.create(suite="tiny", spec=spec)
        queue.transition(record.job_id, "running")

        with CampaignService(root) as service:  # resume=False: inspect
            assert service.recovered == [record.job_id]
            survivor = service.job(record.job_id)
            assert survivor.state == "queued"
            assert survivor.recovered

        with CampaignService(root, resume=True) as service:
            client = InProcessClient(service)
            job = client.wait(record.job_id)
            assert job["state"] == "done"
            assert job["recovered"]
            assert len(job["result_keys"]) == 3

    def test_cancel_request_is_honoured_across_a_restart(self, tmp_path):
        # the server died after writing the cancel request but before
        # the job reached a cell boundary: the restart must not re-run
        # the job
        root = str(tmp_path / "store")
        queue = JobQueue(root)
        record = queue.create(suite="tiny", spec=tiny_suite().to_dict())
        queue.transition(record.job_id, "running")
        queue.update(
            record.job_id,
            progress={"completed": 1, "total": 3, "cancel_requested": True},
        )

        with CampaignService(root, resume=True) as service:
            assert service.recovered == []
            job = InProcessClient(service).wait(record.job_id, timeout=60)
        assert job["state"] == "cancelled"
        assert "restarted" in job["error"]
        assert job["report"] is None and job["result_keys"] == []


class TestJobFileWrites:
    """A job's file is written on creation, on ``running`` and on its
    terminal state — plus once per cancel request — whatever its cell
    count; the per-cell progress snapshot stays in memory."""

    def run_job(self, tmp_path, suite):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            cold = client.wait(client.submit(suite)["job_id"], timeout=120)
            resumed = client.wait(
                client.submit(suite)["job_id"], timeout=120
            )
        return cold, resumed

    def test_writes_per_job_do_not_grow_with_the_cell_count(
        self, tmp_path, monkeypatch
    ):
        writes = track_job_writes(monkeypatch)
        counts = {}
        for name, suite in (
            ("tiny", tiny_suite()),
            ("smoke", builtin_suite("smoke")),
        ):
            for job in self.run_job(tmp_path / name, suite):
                assert job["state"] == "done"
                cells = job["report"]["execution"]["cells"]
                counts.setdefault(cells, set()).add(
                    writes.count(job["job_id"])
                )
        assert sorted(counts) == [3, 8]
        assert counts == {3: {3}, 8: {3}}

    def test_a_cancel_request_costs_one_more_write(
        self, tmp_path, monkeypatch
    ):
        writes = track_job_writes(monkeypatch)
        gate = Gate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        with make_service(tmp_path, workers=1) as service:
            client = InProcessClient(service)
            job = client.submit(tiny_suite())
            assert gate.started.wait(timeout=30)
            client.cancel(job["job_id"])
            gate.release.set()
            job = client.wait(job["job_id"])
        assert job["state"] == "cancelled"
        assert writes.count(job["job_id"]) == 4


class TestLongPoll:
    """``GET /jobs/{id}?wait=S[&after=R]`` through the real router and
    ``ServiceAPI.wait`` on top of it."""

    def test_resumed_job_costs_the_submit_and_one_long_poll(
        self, tmp_path, monkeypatch
    ):
        # each cell takes at least 50 ms, so the job outlasts any short
        # poll interval
        real = runner_module.execute_cell

        def slow_cell(cell_dict, store_root, cache=True):
            time.sleep(0.05)
            return real(cell_dict, store_root, cache)

        monkeypatch.setattr(runner_module, "execute_cell", slow_cell)
        with make_service(tmp_path) as service:
            client = RecordingClient(service)
            suite = tiny_suite()
            client.wait(client.submit(suite)["job_id"])

            client.requests.clear()
            job = client.wait(client.submit(suite)["job_id"])
        assert job["report"]["execution"]["verified_hits"] == 3
        polls = [
            path
            for _, path in client.requests
            if path.startswith(f"/jobs/{job['job_id']}")
        ]
        assert 1 <= len(polls) <= 2
        assert client.requests[0] == ("POST", "/suites")
        assert len(client.requests) == 1 + len(polls)

    def test_progress_wakes_on_each_change(self, tmp_path, monkeypatch):
        # each cell may finish only once the client has reported the
        # one before: a wait that did not wake on every change would
        # stall the job (and hit the gate's timeout)
        gate = StepGate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        seen = []

        def progress(job):
            completed = (job.get("progress") or {}).get("completed")
            if completed is not None and completed not in seen:
                seen.append(completed)
                gate.step()

        with make_service(tmp_path, workers=1) as service:
            client = InProcessClient(service)
            job = client.submit(tiny_suite())
            gate.step()
            job = client.wait(job["job_id"], timeout=60, progress=progress)
        assert job["state"] == "done"
        assert seen == [1, 2, 3]

    def test_wait_never_calls_job(self, tmp_path):
        # subclasses that count or wrap ``job(self, job_id)`` keep
        # working: wait sends its own requests
        class NoJobClient(InProcessClient):
            def job(self, job_id):
                raise AssertionError("wait called job()")

        with make_service(tmp_path) as service:
            client = NoJobClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            assert job["state"] == "done"
            job = client.wait(
                client.submit(tiny_suite())["job_id"], progress=lambda j: 0
            )
            assert job["state"] == "done"

    @pytest.mark.parametrize(
        "query, match",
        [
            ("wait=abc", "wait must be"),
            ("wait=-1", "wait must be"),
            ("wait=nan", "wait must be"),
            ("wait=inf", "wait must be"),
            ("wait=", "wait must be"),
            ("wait=1&after=1.5", "after must be"),
            ("wait=1&after=x", "after must be"),
        ],
    )
    def test_bad_wait_or_after_is_400(self, tmp_path, query, match):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            with pytest.raises(ServiceError) as err:
                client._json("GET", f"/jobs/{job['job_id']}?{query}")
            assert err.value.status == 400
            assert match in err.value.message
            assert "\n" not in err.value.message

    def test_unknown_job_is_404_at_once(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client._json("GET", "/jobs/nope?wait=5")
            assert err.value.status == 404
            assert time.monotonic() - start < 1

    def test_finished_job_answers_at_once_with_its_revision(self, tmp_path):
        with make_service(tmp_path) as service:
            client = InProcessClient(service)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            start = time.monotonic()
            again = client._json("GET", f"/jobs/{job['job_id']}?wait=5")
            assert time.monotonic() - start < 1
            assert again["state"] == "done"
            assert again["revision"] == job["revision"] >= 3

    def test_close_wakes_parked_long_polls(self, tmp_path, monkeypatch):
        gate = Gate()
        monkeypatch.setattr(runner_module, "execute_cell", gate)
        service = make_service(tmp_path, workers=1)
        client = InProcessClient(service)
        job = client.submit(tiny_suite())
        assert gate.started.wait(timeout=30)
        box = {}

        def park():
            box["response"] = client._request(
                "GET", f"/jobs/{job['job_id']}?wait=10"
            )
            box["returned"] = time.monotonic()

        waiter = threading.Thread(target=park)
        waiter.start()
        time.sleep(0.1)
        # close drains the pool, which blocks on the gated cell: the
        # parked long-poll must not wait for that
        closer = threading.Thread(target=service.close)
        closing = time.monotonic()
        closer.start()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert box["returned"] - closing < 1
        status, _, body = box["response"]
        assert status == 503
        assert "shut down" in json.loads(body)["error"]

        gate.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert service.job(job["job_id"]).state == "done"


class OlderServer(ServiceAPI):
    """A stub ``_request`` answering each GET at once from a script of
    job dicts, the way a 2.2 ``repro serve`` ignores ``?wait``."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.paths = []

    def _request(self, method, path, payload=None):
        self.paths.append(path)
        return 200, "application/json", json.dumps(
            self.answers.pop(0)
        ).encode()


class TestWaitAgainstAnOlderServer:
    RUNNING = {"job_id": "j", "state": "running", "progress": {}}
    DONE = {
        "job_id": "j",
        "state": "done",
        "progress": {"completed": 1, "total": 1},
    }

    def test_sleeps_poll_between_requests_without_a_revision(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        api = OlderServer([self.RUNNING, self.RUNNING, self.DONE])
        job = api.wait("j", poll=0.25)
        assert job["state"] == "done"
        assert sleeps == [0.25, 0.25]
        assert len(api.paths) == 3

    def test_never_sleeps_when_the_server_long_polls(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        api = OlderServer(
            [
                dict(self.RUNNING, revision=2),
                dict(self.RUNNING, revision=4),
                dict(self.DONE, revision=5),
            ]
        )
        snapshots = []
        job = api.wait("j", poll=0.25, progress=snapshots.append)
        assert job["state"] == "done"
        assert sleeps == []
        assert [path.rsplit("&", 1)[1] for path in api.paths] == [
            "after=0",
            "after=2",
            "after=4",
        ]
        # the unchanged snapshot of the second answer is not re-reported
        assert [s["progress"] for s in snapshots] == [{}, self.DONE["progress"]]
