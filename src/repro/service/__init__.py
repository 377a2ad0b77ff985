"""`repro.service` — the campaign service layer (1.6).

The traffic-shaped front over the batch stack: a long-running HTTP/JSON
job service through which many concurrent clients submit
:class:`~repro.suite.spec.SuiteSpec` campaigns against one shared
:class:`~repro.results.store.ResultStore`.  Zero dependencies beyond
the standard library.

* :class:`CampaignService` — the injectable core: a :class:`JobQueue`
  (``queued -> running -> done|error|cancelled``; creation, transitions
  and cancel requests are persisted, so records survive server
  restarts), a bounded job worker pool decoupled from request lifetime,
  live per-job ``[i/N]`` progress snapshots in memory fed by the
  runner's per-cell callbacks, cooperative cancellation, and
  hash-verified artifact reads;
* :mod:`~repro.service.handlers` — a socket-free :class:`Router`
  (``POST /suites``, ``GET /jobs[/{id}]`` with the ``?wait=S[&after=R]``
  long-poll, ``POST /jobs/{id}/cancel``, ``GET /results/{key}[/records]``,
  ``GET /healthz``) plus the :func:`make_server`/:func:`serving` stdlib
  HTTP bindings;
* :class:`ServiceClient` — the ``urllib`` client
  (submit/wait/fetch; ``wait`` long-polls), with
  :class:`~repro.service.fakes.InProcessClient` as the exact
  socket-free double for tests.

Because jobs execute through :class:`~repro.suite.runner.SuiteRunner`
over the shared store, the batch layer's resume property carries over
the wire: re-submitting an identical suite completes as verified store
hits without invoking the simulator.

Quick path::

    from repro.service import CampaignService, ServiceClient, serving

    with CampaignService(store=".repro-store", workers=2) as service:
        with serving(service) as url:           # or: repro serve
            client = ServiceClient(url)
            job = client.submit("paper_grid")
            job = client.wait(job["job_id"])
            print(job["report"]["totals"])

CLI: ``repro serve`` / ``repro submit`` / ``repro jobs`` /
``repro fetch``.
"""

from repro.service.client import ServiceAPI, ServiceClient, ServiceError
from repro.service.fakes import InProcessClient
from repro.service.handlers import Router, make_server, serving
from repro.service.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobError,
    JobQueue,
    JobRecord,
    JobStateError,
    QueueClosedError,
)
from repro.service.service import JOB_OPTIONS, CampaignService

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JOB_OPTIONS",
    "JobError",
    "JobStateError",
    "QueueClosedError",
    "JobRecord",
    "JobQueue",
    "CampaignService",
    "Router",
    "make_server",
    "serving",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "InProcessClient",
]
