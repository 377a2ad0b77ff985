"""The wire layer: Router dispatch/error mapping and the stdlib HTTP
server + ServiceClient over a real socket.

`InProcessClient` proves the API; these tests prove the transport —
status codes, content types, malformed bodies, and the acceptance
scenario of two `ServiceClient`s racing suites against one live
server."""

import http.client
import json
import socket
import threading
import urllib.parse

import pytest

from repro.service import (
    CampaignService,
    Router,
    ServiceClient,
    ServiceError,
    serving,
)
from repro.service import handlers
from repro.service.handlers import MAX_BODY_BYTES

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

    def test_unreachable_server_raises_status_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0

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
