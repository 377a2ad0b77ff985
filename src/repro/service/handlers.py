"""HTTP routing for ``repro serve`` — thin translation, no logic.

:class:`Router` is the whole API surface as a pure function:
``(method, path, body) -> (status, content-type, payload bytes)``.  It
only translates HTTP to :class:`~repro.service.service.CampaignService`
calls and service exceptions to status codes — which is what makes the
in-process double in :mod:`repro.service.fakes` exact: handler tests
exercise this very router without opening a socket.

Routes::

    GET  /healthz                  service status + job counts
    POST /suites                   submit {"suite": ..., "options": ...}
    GET  /jobs                     the job table
    GET  /jobs/{id}                one job (live progress snapshot) and
                                   its "revision"
    GET  /jobs/{id}?wait=S         ... once it is terminal, or after S s
    GET  /jobs/{id}?wait=S&after=R ... once its revision passes R, it is
                                   terminal, or S s have passed
    POST /jobs/{id}/cancel         cancel (409 once terminal)
    GET  /results/{key}            artifact metadata (prefix accepted)
    GET  /results/{key}/records    the raw JSONL records

A long-poll parks its handler thread on the job queue's condition (no
polling loop); ``S`` is capped at :data:`MAX_WAIT_S`.  A ``wait`` that
is not a finite number >= 0, or an ``after`` that is not an integer,
is a 400; an unknown job is a 404 at once; a long-poll that would park
on a shut-down service is a 503.

:func:`make_server` binds the router into a stdlib
:class:`~http.server.ThreadingHTTPServer`; :func:`serving` runs one on
a background thread for tests, examples and benches.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional, Tuple

from repro.results.store import ResultStoreError
from repro.service.jobs import JobError, JobStateError, QueueClosedError
from repro.service.service import CampaignService

__all__ = ["Router", "make_server", "serving"]

JSON_TYPE = "application/json"
JSONL_TYPE = "application/x-ndjson"

#: largest request body the server reads (bytes); submitting the whole
#: built-in paper_grid SuiteSpec takes about 16 KB of indented JSON
MAX_BODY_BYTES = 1 << 20

#: seconds a connection may sit idle in one socket read (request line,
#: headers or body) before the server drops it, so a client that sends
#: less body than its ``Content-Length`` cannot pin a handler thread
REQUEST_TIMEOUT_S = 30.0

#: longest a ``GET /jobs/{id}?wait=S`` parks (seconds): below
#: :data:`REQUEST_TIMEOUT_S` and ``ServiceClient``'s default 30 s socket
#: timeout, so neither side gives up on a long-poll that runs its length
MAX_WAIT_S = 20.0

Response = Tuple[int, str, bytes]


def _json_response(status: int, payload: object) -> Response:
    body = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    return status, JSON_TYPE, body.encode("utf-8")


def _body_length(header: Optional[str]) -> Tuple[int, Optional[Response]]:
    """(body length, None) from a ``Content-Length`` header, or (0, the
    error response) when it is not a non-negative integer (400) or is
    over :data:`MAX_BODY_BYTES` (413).  Checked before any read, so a
    bad length can neither crash the handler nor block it on a body
    that never comes."""
    text = (header or "0").strip()
    if not (text.isascii() and text.isdigit()):
        return 0, _json_response(
            400,
            {
                "error": "Content-Length must be a non-negative integer, "
                f"got {header!r}"
            },
        )
    length = int(text)
    if length > MAX_BODY_BYTES:
        return 0, _json_response(
            413,
            {
                "error": f"request body of {length} bytes is over the "
                f"{MAX_BODY_BYTES}-byte limit"
            },
        )
    return length, None


def _wait_query(query: Dict[str, List[str]]) -> Tuple[float, Optional[int]]:
    """(seconds to park, revision to wait past) from ``?wait=S&after=R``
    — ``(0.0, None)`` when both are absent; ``S`` is capped at
    :data:`MAX_WAIT_S`.  Raises ValueError (400) on a bad value."""
    wait = 0.0
    if "wait" in query:
        text = query["wait"][-1]
        try:
            wait = float(text)
        except ValueError:
            wait = math.nan
        if not (math.isfinite(wait) and wait >= 0):
            raise ValueError(
                f"wait must be a finite number of seconds >= 0, "
                f"got {text!r}"
            )
    after = None
    if "after" in query:
        text = query["after"][-1]
        try:
            after = int(text)
        except ValueError:
            raise ValueError(
                f"after must be an integer revision, got {text!r}"
            ) from None
    return min(wait, MAX_WAIT_S), after


class Router:
    """Dispatch one request against a service; never raises — every
    failure is a JSON error response with the matching status code.

    One router serves every handler thread, so it keeps no
    per-request state: the query string is parsed inside each call."""

    def __init__(self, service: CampaignService):
        self.service = service

    def route(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Response:
        try:
            path, _, query = path.partition("?")
            return self._dispatch(
                method,
                path,
                urllib.parse.parse_qs(query, keep_blank_values=True),
                body,
            )
        except JobStateError as exc:
            return _json_response(409, {"error": str(exc)})
        except (JobError, LookupError) as exc:
            return _json_response(404, {"error": str(exc)})
        except ValueError as exc:
            return _json_response(400, {"error": str(exc)})
        except QueueClosedError as exc:
            return _json_response(503, {"error": str(exc)})
        except ResultStoreError as exc:
            return _json_response(500, {"error": str(exc)})

    def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, List[str]],
        body: Optional[bytes],
    ) -> Response:
        service = self.service
        segments = [part for part in path.split("/") if part]
        if method == "GET" and segments == ["healthz"]:
            return _json_response(200, service.health())
        if method == "POST" and segments == ["suites"]:
            payload = self._parse_body(body)
            if "suite" not in payload:
                raise ValueError(
                    "the submission body needs a 'suite': a built-in "
                    "name or a full SuiteSpec object"
                )
            record = service.submit(
                payload["suite"], payload.get("options")
            )
            return _json_response(202, record.to_dict())
        if segments and segments[0] == "jobs":
            if method == "GET" and len(segments) == 1:
                return _json_response(
                    200,
                    {
                        "jobs": [
                            record.to_dict()
                            for record in service.list_jobs()
                        ],
                        "counts": service.jobs.counts(),
                    },
                )
            if method == "GET" and len(segments) == 2:
                wait, after = _wait_query(query)
                record, revision = service.jobs.wait(
                    segments[1], wait, after
                )
                return _json_response(
                    200, {**record.to_dict(), "revision": revision}
                )
            if (
                method == "POST"
                and len(segments) == 3
                and segments[2] == "cancel"
            ):
                return _json_response(
                    200, service.cancel(segments[1]).to_dict()
                )
        if segments and segments[0] == "results" and method == "GET":
            if len(segments) == 2:
                return _json_response(200, service.result(segments[1]))
            if len(segments) == 3 and segments[2] == "records":
                payload = service.records(segments[1])
                return 200, JSONL_TYPE, payload.encode("utf-8")
        return _json_response(
            404, {"error": f"no route for {method} {path}"}
        )

    @staticmethod
    def _parse_body(body: Optional[bytes]) -> dict:
        if not body:
            raise ValueError("a JSON request body is required")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("the request body must be a JSON object")
        return payload


def make_server(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` threading HTTP server over the
    router (``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``).  A POST whose ``Content-Length`` is not
    a non-negative integer gets a 400, one over
    :data:`MAX_BODY_BYTES` a 413; neither body is read.  A connection
    idle for :data:`REQUEST_TIMEOUT_S` in one read is dropped."""
    from repro import __version__

    router = Router(service)

    class Handler(BaseHTTPRequestHandler):
        server_version = f"repro-serve/{__version__}"
        protocol_version = "HTTP/1.1"
        # the stdlib handler applies it to the socket and closes the
        # connection when a read times out
        timeout = REQUEST_TIMEOUT_S

        def log_message(self, format: str, *args) -> None:
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, format, *args)

        def _respond(self, response: Response, close: bool = False) -> None:
            status, content_type, payload = response
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if close:  # also makes the stdlib handler drop the connection
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
            self._respond(router.route("GET", self.path))

        def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
            length, error = _body_length(self.headers.get("Content-Length"))
            if error is not None:
                # the body stays unread, so the connection cannot carry
                # another request
                self._respond(error, close=True)
                return
            body = self.rfile.read(length) if length else b""
            self._respond(router.route("POST", self.path, body))

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server


@contextlib.contextmanager
def serving(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> Iterator[str]:
    """Serve on a background thread; yields the base URL and shuts the
    server down on exit (tests, the example, the bench)."""
    server = make_server(service, host=host, port=port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    try:
        yield f"http://{bound_host}:{bound_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
