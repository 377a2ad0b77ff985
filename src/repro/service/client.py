"""`ServiceClient` — the stdlib client for ``repro serve``.

All endpoint methods live on :class:`ServiceAPI` in terms of one
abstract ``_request``; :class:`ServiceClient` implements it with
``urllib`` over a real socket, and the in-process double in
:mod:`repro.service.fakes` implements it by calling the router
directly — the same API object either way, so tests written against
the fake hold against the wire.

Quick path::

    client = ServiceClient("http://127.0.0.1:8032")
    job = client.submit("paper_grid", workers=2)
    job = client.wait(job["job_id"], progress=print)
    records = client.records(job["result_keys"][0])   # JSONL
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, List, Optional, Tuple, Union

from repro.service.jobs import TERMINAL_STATES

__all__ = ["ServiceError", "ServiceAPI", "ServiceClient"]


class ServiceError(RuntimeError):
    """An error response (or an unreachable server: ``status == 0``)."""

    def __init__(self, status: int, message: str):
        super().__init__(
            f"{message} (HTTP {status})" if status else message
        )
        self.status = status
        self.message = message


class ServiceAPI:
    """Endpoint methods shared by the real client and the fake."""

    #: socket timeout of one request (seconds; ``None``: no socket)
    timeout: Optional[float] = None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> Tuple[int, str, bytes]:
        raise NotImplementedError

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ):
        status, _content_type, body = self._request(method, path, payload)
        data = json.loads(body) if body else None
        if status >= 400:
            message = f"HTTP {status}"
            if isinstance(data, dict) and data.get("error"):
                message = str(data["error"])
            raise ServiceError(status, message)
        return data

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def submit(self, suite: Union[str, dict], **options) -> dict:
        """Submit a suite (built-in name or SuiteSpec dict/value);
        returns the queued job record.  Options: ``workers``, ``only``,
        ``engine``, ``cache`` (``None`` values are dropped)."""
        to_dict = getattr(suite, "to_dict", None)
        if callable(to_dict):
            suite = to_dict()
        payload: dict = {"suite": suite}
        options = {
            name: value
            for name, value in options.items()
            if value is not None
        }
        if options:
            payload["options"] = options
        return self._json("POST", "/suites", payload)

    def jobs(self) -> List[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def result(self, key: str) -> dict:
        return self._json("GET", f"/results/{key}")

    def records(self, key: str) -> str:
        """The artifact's raw JSONL records (hash-verified server-side)."""
        status, _content_type, body = self._request(
            "GET", f"/results/{key}/records"
        )
        if status >= 400:
            message = f"HTTP {status}"
            try:
                data = json.loads(body)
                if isinstance(data, dict) and data.get("error"):
                    message = str(data["error"])
            except (json.JSONDecodeError, ValueError):
                pass
            raise ServiceError(status, message)
        return body.decode("utf-8")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.05,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Block until the job reaches a terminal state; returns its
        dict.

        Long-polls ``GET /jobs/{id}?wait=S``: the server answers when
        the job ends or its wait cap passes, so without ``progress``
        a job that ends within the cap costs one request.  With
        ``progress``, each request also returns as soon as the job
        changes (``&after=R``, the revision last seen), and
        ``progress`` is called with the job dict whenever the progress
        snapshot changed; changes between two requests are coalesced.
        ``poll`` is the pause between requests only against an older
        server, which answers at once with no ``revision``.
        A request never asks to park longer than half the socket
        ``timeout``.  :class:`TimeoutError` after ``timeout``
        seconds."""
        deadline = time.monotonic() + timeout
        last_snapshot: Optional[dict] = None
        revision = 0  # revisions start at 1: the first answer is at once
        while True:
            wait_s = max(0.0, deadline - time.monotonic())
            if self.timeout is not None:
                wait_s = min(wait_s, self.timeout / 2)
            path = f"/jobs/{job_id}?wait={wait_s:.3f}"
            if progress is not None:
                path += f"&after={revision}"
            job = self._json("GET", path)
            snapshot = job.get("progress") or {}
            if progress is not None and snapshot != last_snapshot:
                progress(job)
                last_snapshot = dict(snapshot)
            if job.get("state") in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.get('state')!r} after "
                    f"{timeout:g}s"
                )
            if "revision" in job:
                revision = job["revision"]
            else:  # an older server ignored the wait and answered at once
                time.sleep(poll)


class ServiceClient(ServiceAPI):
    """The over-the-wire client (stdlib ``urllib``, JSON in/out)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> Tuple[int, str, bytes]:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return (
                    response.status,
                    response.headers.get("Content-Type", ""),
                    response.read(),
                )
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers.get("Content-Type", ""), exc.read()
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
