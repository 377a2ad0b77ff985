"""The wire layer: Router dispatch/error mapping and the stdlib HTTP
server + ServiceClient over a real socket.

`InProcessClient` proves the API; these tests prove the transport —
status codes, content types, malformed bodies, the long-poll, the
acceptance scenario of two `ServiceClient`s racing suites against one
live server, and a `repro serve` process killed mid-suite and
restarted on its store."""

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse

import pytest

import repro
from repro.service import (
    CampaignService,
    Router,
    ServiceClient,
    ServiceError,
    serving,
)
from repro.service import handlers
from repro.service.handlers import MAX_BODY_BYTES, MAX_WAIT_S
from repro.suite.spec import MatrixBlock, SuiteSpec

from test_suite import tiny_suite


@pytest.fixture
def service(tmp_path):
    with CampaignService(str(tmp_path / "store"), workers=2) as svc:
        yield svc


class TestRouter:
    """Edge paths exercised without a socket — same code the server
    runs."""

    def route(self, service, method, path, body=None):
        status, content_type, payload = Router(service).route(
            method, path, body
        )
        return status, content_type, payload

    def test_unknown_route_is_404(self, service):
        status, _, body = self.route(service, "GET", "/nope")
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_malformed_body_is_400(self, service):
        status, _, body = self.route(service, "POST", "/suites", b"{nope")
        assert status == 400
        assert "error" in json.loads(body)

    def test_empty_and_non_object_bodies_are_400(self, service):
        assert self.route(service, "POST", "/suites")[0] == 400
        assert self.route(service, "POST", "/suites", b"[1]")[0] == 400

    def test_submission_without_suite_is_400(self, service):
        status, _, body = self.route(
            service, "POST", "/suites", json.dumps({"options": {}}).encode()
        )
        assert status == 400
        assert "suite" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, service):
        assert self.route(service, "GET", "/jobs/nope")[0] == 404

    def test_unknown_result_key_is_404(self, service):
        assert self.route(service, "GET", "/results/ffff")[0] == 404

    def test_query_strings_are_stripped(self, service):
        status, _, _ = self.route(service, "GET", "/healthz?probe=1")
        assert status == 200

    def test_job_responses_carry_the_revision(self, service):
        record = service.jobs.create(suite="s", spec={})
        status, _, body = self.route(service, "GET", f"/jobs/{record.job_id}")
        assert status == 200
        assert json.loads(body)["revision"] == 1
        # a wait far over the cap is accepted (and capped); after=1
        # answers at once, as the update moved the job to revision 2
        service.jobs.update(record.job_id, progress={"completed": 0})
        status, _, body = self.route(
            service, "GET", f"/jobs/{record.job_id}?wait=1e9&after=1"
        )
        assert (status, json.loads(body)["revision"]) == (200, 2)
        assert handlers._wait_query({"wait": ["1e9"]}) == (MAX_WAIT_S, None)
        assert MAX_WAIT_S < handlers.REQUEST_TIMEOUT_S
        assert MAX_WAIT_S < ServiceClient("http://x").timeout

    def test_router_keeps_no_per_request_state(self, service):
        # one router serves every handler thread: a parked long-poll and
        # a bad query racing it through the same router each get their
        # own answer
        router = Router(service)
        record = service.jobs.create(suite="s", spec={})
        box = {}

        def park():
            box["parked"] = router.route(
                "GET", f"/jobs/{record.job_id}?wait=10&after=1"
            )

        thread = threading.Thread(target=park)
        thread.start()
        time.sleep(0.05)
        status, _, body = router.route("GET", "/jobs/nope?wait=abc")
        assert status == 400 and "wait must be" in json.loads(body)["error"]
        assert thread.is_alive()  # still parked on its own query
        service.jobs.transition(record.job_id, "running")
        thread.join(timeout=5)
        assert not thread.is_alive()
        status, _, body = box["parked"]
        assert status == 200 and json.loads(body)["state"] == "running"
        assert vars(router) == {"service": service}


class TestOverTheWire:
    def test_health_and_submit_over_a_real_socket(self, service):
        with serving(service) as url:
            assert url.startswith("http://127.0.0.1:")
            client = ServiceClient(url)
            assert client.health()["status"] == "ok"

            job = client.submit(tiny_suite())
            job = client.wait(job["job_id"], timeout=120)
            assert job["state"] == "done"
            assert len(job["result_keys"]) == 3
            assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]

            key = job["result_keys"][0]
            assert client.result(key)["kind"] == "campaign"
            lines = client.records(key).splitlines()
            assert lines and all(json.loads(line) for line in lines)

    def test_records_content_type_is_jsonl(self, service):
        with serving(service) as url:
            client = ServiceClient(url)
            job = client.wait(
                client.submit(tiny_suite())["job_id"], timeout=120
            )
            status, content_type, _ = client._request(
                "GET", f"/results/{job['result_keys'][0]}/records"
            )
            assert status == 200
            assert content_type == "application/x-ndjson"

    def test_error_statuses_cross_the_wire(self, service):
        with serving(service) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceError) as err:
                client.job("nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit(tiny_suite(), engine="quantum")
            assert err.value.status == 400

            job = client.wait(
                client.submit(tiny_suite())["job_id"], timeout=120
            )
            with pytest.raises(ServiceError) as err:
                client.cancel(job["job_id"])
            assert err.value.status == 409

    def test_long_poll_over_a_real_socket(self, service):
        with serving(service) as url:
            client = ServiceClient(url)
            job = client.wait(client.submit(tiny_suite())["job_id"])
            assert job["state"] == "done"

            start = time.monotonic()
            again = client._json("GET", f"/jobs/{job['job_id']}?wait=5")
            assert time.monotonic() - start < 2.5
            assert again["state"] == "done"

            for path, status in (
                (f"/jobs/{job['job_id']}?wait=abc", 400),
                (f"/jobs/{job['job_id']}?wait=1&after=2.5", 400),
                ("/jobs/nope?wait=5", 404),
            ):
                start = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    client._json("GET", path)
                assert err.value.status == status
                assert "\n" not in err.value.message
                assert time.monotonic() - start < 2.5

    def test_close_wakes_a_long_poll_parked_on_the_socket(self, tmp_path):
        service = CampaignService(str(tmp_path / "store"))
        record = service.jobs.create(suite="s", spec={})
        box = {}
        with serving(service) as url:
            client = ServiceClient(url)

            def park():
                try:
                    client._json("GET", f"/jobs/{record.job_id}?wait=10")
                except ServiceError as exc:
                    box["error"] = exc
                box["returned"] = time.monotonic()

            waiter = threading.Thread(target=park)
            waiter.start()
            time.sleep(0.2)
            closing = time.monotonic()
            service.close()
            waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert box["returned"] - closing < 1
        assert box["error"].status == 503

    def test_unreachable_server_raises_status_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0

    def test_wire_bodies_are_compact_in_payload_key_order(self, service):
        record = service.jobs.create(suite="s", spec={"name": "s"})
        with serving(service) as url:
            status, content_type, body = ServiceClient(url)._request(
                "GET", f"/jobs/{record.job_id}"
            )
        assert (status, content_type) == (200, handlers.JSON_TYPE)
        job = json.loads(body)
        assert body == (json.dumps(job, separators=(",", ":")) + "\n").encode()
        expected = {**service.job(record.job_id).to_dict(), "revision": 1}
        assert list(job) == list(expected)

    def test_two_service_clients_racing_one_server(self, service):
        # ISSUE acceptance: two ServiceClients submitting concurrently
        # against one server + one store both complete with verified
        # results
        with serving(service) as url:
            suites = [tiny_suite(cycles=64), tiny_suite(cycles=96)]
            done, errors = {}, []

            def run(tag, suite):
                try:
                    client = ServiceClient(url)
                    job = client.submit(suite)
                    done[tag] = client.wait(job["job_id"], timeout=120)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i, suite))
                for i, suite in enumerate(suites)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert {j["state"] for j in done.values()} == {"done"}
            checker = ServiceClient(url)
            for job in done.values():
                for key in job["result_keys"]:
                    assert checker.result(key)["sha256"]

    def test_job_table_survives_server_restart_over_http(self, tmp_path):
        root = str(tmp_path / "store")
        with CampaignService(root) as first:
            with serving(first) as url:
                client = ServiceClient(url)
                job = client.wait(
                    client.submit(tiny_suite())["job_id"], timeout=120
                )
                assert job["state"] == "done"

        with CampaignService(root) as second:
            with serving(second) as url:
                client = ServiceClient(url)
                survivor = client.job(job["job_id"])
                assert survivor["state"] == "done"
                assert client.records(job["result_keys"][0])


@contextlib.contextmanager
def raw_listener(handle):
    """A bare TCP listener on an ephemeral port whose one accepted
    connection is given to ``handle(conn, release)``; yields its URL.
    ``release`` is set when the test leaves the block."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(10)
    release = threading.Event()

    def accept_one():
        try:
            conn, _ = server.accept()
        except OSError:
            return
        with conn:
            handle(conn, release)

    thread = threading.Thread(target=accept_one, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}"
    finally:
        release.set()
        thread.join(timeout=10)
        server.close()


class TestNoHttpAnswer:
    """A server that takes the connection but sends no HTTP answer is a
    ``ServiceError`` with status 0, as an unreachable one is: never a
    raw ``TimeoutError`` a caller would mistake for ``wait``'s own
    deadline, nor an ``http.client`` exception."""

    def test_a_server_that_never_answers(self):
        with raw_listener(lambda conn, release: release.wait(10)) as url:
            with pytest.raises(ServiceError) as err:
                ServiceClient(url, timeout=0.5).health()
        assert err.value.status == 0
        assert "cannot reach" in str(err.value)
        assert "timed out" in str(err.value)

    def test_a_server_that_hangs_up_without_answering(self):
        def hang_up(conn, release):
            conn.recv(65536)  # the whole request, so the close is a FIN

        with raw_listener(hang_up) as url:
            with pytest.raises(ServiceError) as err:
                ServiceClient(url, timeout=5).health()
        assert err.value.status == 0
        assert "cannot reach" in str(err.value)


class TestRequestBodies:
    """``Content-Length`` is checked before the body is read: a
    malformed or negative length is a 400 and an oversized one a 413,
    each a JSON error, instead of a dropped connection or a handler
    blocked on bytes that never come."""

    def post(self, url, length, body=b""):
        """(status, Connection header, JSON payload) of one raw POST."""
        parts = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/suites")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            return (
                response.status,
                response.getheader("Connection"),
                json.loads(response.read()),
            )
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", "1_000", "0x10"])
    def test_malformed_length_is_400(self, service, length):
        with serving(service) as url:
            status, connection, payload = self.post(url, length)
            assert status == 400
            assert "Content-Length" in payload["error"]
            assert connection == "close"
            # the server is still up for the next client
            assert ServiceClient(url).health()["status"] == "ok"

    @pytest.mark.parametrize(
        "length", [str(MAX_BODY_BYTES + 1), "1000000000"]
    )
    def test_oversized_length_is_413(self, service, length):
        with serving(service) as url:
            status, connection, payload = self.post(url, length)
            assert status == 413
            assert f"{MAX_BODY_BYTES}-byte limit" in payload["error"]
            assert connection == "close"
            assert ServiceClient(url).health()["status"] == "ok"

    def test_body_at_the_limit_reaches_the_router(self, service):
        # exactly MAX_BODY_BYTES is read and parsed: the router, not
        # the size check, answers (the padding is not JSON)
        with serving(service) as url:
            status, _, payload = self.post(
                url, str(MAX_BODY_BYTES), b" " * MAX_BODY_BYTES
            )
            assert status == 400
            assert "malformed JSON" in payload["error"]

    def test_stalled_body_is_dropped_after_the_timeout(
        self, service, monkeypatch
    ):
        # a client declares 100 bytes and sends 10: the handler gives up
        # on the rest after the read timeout and closes the connection
        monkeypatch.setattr(handlers, "REQUEST_TIMEOUT_S", 0.5)
        with serving(service) as url:
            parts = urllib.parse.urlsplit(url)
            with socket.create_connection(
                (parts.hostname, parts.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /suites HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n" + b"{" * 10
                )
                assert sock.recv(1024) == b""  # closed, no response
            assert ServiceClient(url).health()["status"] == "ok"


def kill_test_suite():
    """One fast cell, then two serial-engine decoder cells of about a
    second each: time enough to kill the server between cells."""
    fast = MatrixBlock(
        family="transient",
        label="fast",
        targets=({"words": 16, "bits": 8, "column_mux": 4},),
        workloads=({"family": "uniform", "cycles": 64, "seed": 1},),
        scenarios={"population": "upset-stride", "stride": 4, "cycle": 4},
    )
    slow = MatrixBlock(
        family="decoder",
        label="slow",
        targets=({"words": 512, "bits": 8, "c": 10, "pndc": 1e-9},),
        workloads=(
            {"family": "uniform", "cycles": 64, "seed": 3},
            {"family": "uniform", "cycles": 96, "seed": 3},
        ),
        scenarios={"population": "decoder-stuck-ats"},
        policies=({"engine": "serial"},),
    )
    return SuiteSpec(name="kill", blocks=(fast, slow))


class TestKillAndRestart:
    """A real ``repro serve`` process SIGKILLed mid-suite: the restarted
    server on the same store re-queues the job, and the cells completed
    before the kill come back as verified store hits."""

    def serve(self, store):
        """Start ``repro serve`` on an ephemeral port -> (process, url)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--store", store,
                "--port", "0", "--quiet",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = process.stderr.readline()
        assert banner.startswith("repro service on http://"), banner
        return process, banner.split()[3]

    def test_sigkill_mid_suite_then_restart_finishes_done(self, tmp_path):
        store = str(tmp_path / "store")
        process, url = self.serve(store)
        try:
            client = ServiceClient(url)
            job = client.submit(kill_test_suite())
            before = {}

            class Killed(Exception):
                pass

            def on_progress(snapshot):
                if (snapshot.get("progress") or {}).get("completed"):
                    before.update(snapshot["progress"])
                    process.kill()  # SIGKILL: no shutdown path runs
                    raise Killed

            with pytest.raises(Killed):
                client.wait(job["job_id"], timeout=120, progress=on_progress)
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stderr.close()
        assert process.returncode == -signal.SIGKILL
        completed = before["completed"]
        assert 1 <= completed < before["total"] == 3

        process, url = self.serve(store)
        try:
            assert f"recovered 1 interrupted job(s): {job['job_id']}" in (
                process.stderr.readline()
            )
            job = ServiceClient(url).wait(job["job_id"], timeout=120)
        finally:
            process.send_signal(signal.SIGINT)
            process.wait(timeout=30)
            process.stderr.close()
        assert job["state"] == "done"
        assert job["recovered"]
        execution = job["report"]["execution"]
        assert execution["cells"] == 3 and execution["errors"] == 0
        assert execution["verified_hits"] >= completed
        first = [cell["execution"] for cell in job["report"]["cells"]]
        first = first[:completed]
        assert [cell["status"] for cell in first] == ["hit"] * completed
        assert all(cell["verified"] for cell in first)
