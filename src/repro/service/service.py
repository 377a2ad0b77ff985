""":class:`CampaignService` — async suite execution over one shared
store.

The service owns three things:

* a :class:`~repro.service.jobs.JobQueue` persisted under the store
  root (the job table survives restarts);
* a bounded :class:`~concurrent.futures.ThreadPoolExecutor` of job
  workers, decoupled from request lifetime — ``submit`` returns
  immediately with a ``queued`` record and the pool drains jobs in
  submission order;
* read access to the :class:`~repro.results.store.ResultStore` the
  suites write into (every read request opens a fresh store handle, so
  request threads never share mutable counter state).

Execution reuses the whole batch stack: each job runs a
:class:`~repro.suite.runner.SuiteRunner` against the shared store, so
per-cell store lookups make a re-submitted identical suite complete as
verified hits without invoking the simulator, and the runner's
per-cell progress callbacks maintain the live ``[i/N]`` snapshot that
``GET /jobs/{id}`` serves (held in memory; each one wakes the
long-polls parked on the job).  Cancellation is cooperative: the
runner polls the job's cancel flag between cells.
"""

from __future__ import annotations

import threading
from concurrent import futures
from typing import Dict, List, Optional, Union

from repro.circuits.engines import check_engine
from repro.results import ResultStore
from repro.service.jobs import (
    JobQueue,
    JobRecord,
    JobStateError,
    QueueClosedError,
)
from repro.suite.runner import SuiteRunner
from repro.suite.spec import FAMILIES, SuiteSpec

__all__ = ["JOB_OPTIONS", "CampaignService"]

#: execution options a submission may carry (anything else is a 400)
JOB_OPTIONS = ("workers", "only", "engine", "cache")


def _validate_options(options: dict) -> dict:
    unknown = set(options) - set(JOB_OPTIONS)
    if unknown:
        raise ValueError(
            f"unknown job options {sorted(unknown)}; known: {JOB_OPTIONS}"
        )
    workers = options.get("workers")
    if workers is not None and (
        not isinstance(workers, int) or workers < 1
    ):
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    if options.get("engine") is not None:
        check_engine(options["engine"])
    only = options.get("only")
    if only is not None and only not in FAMILIES:
        raise ValueError(
            f"only must be one of {FAMILIES}, got {only!r}"
        )
    cache = options.get("cache")
    if cache is not None and not isinstance(cache, bool):
        raise ValueError(f"cache must be a bool, got {cache!r}")
    return dict(options)


class CampaignService:
    """Suite submissions as async jobs over one shared result store.

    ``workers`` bounds the job pool (jobs beyond it queue).  With
    ``resume=True`` (the server's mode) jobs found ``queued`` in the
    recovered table — including ``running`` jobs re-queued by
    :meth:`JobQueue.recover` — are re-scheduled on startup; the default
    leaves them queued for inspection.
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        workers: int = 2,
        cache: bool = True,
        resume: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        store = ResultStore.coerce(store)
        if store is None:
            raise ValueError(
                "the service needs a result store — its job table and "
                "every artifact live there"
            )
        self.store_root = store.root
        self.cache = cache
        self.workers = workers
        self.jobs = JobQueue(self.store_root)
        #: ids of the interrupted jobs recovery re-queued, and of those
        #: it ended ``cancelled`` (see :meth:`JobQueue.recover`)
        self.recovered, self.cancelled_on_recovery = self.jobs.recover()
        self._flags: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._pool = futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._closed = False
        if resume:
            for record in self.jobs.list(state="queued"):
                self._schedule(record.job_id)

    # -- lifecycle -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Wake every parked long-poll, then drain (or abandon) the
        worker pool; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.jobs.close()
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    @staticmethod
    def _resolve_suite(suite: Union[str, dict, SuiteSpec]) -> SuiteSpec:
        from repro.suite.builtin import builtin_suite

        if isinstance(suite, SuiteSpec):
            return suite
        if isinstance(suite, str):
            return builtin_suite(suite)
        if isinstance(suite, dict):
            return SuiteSpec.from_dict(suite)
        raise ValueError(
            f"suite must be a built-in name, a SuiteSpec or its dict, "
            f"got {type(suite).__name__}"
        )

    def submit(
        self,
        suite: Union[str, dict, SuiteSpec],
        options: Optional[dict] = None,
    ) -> JobRecord:
        """Queue a suite for execution; returns the ``queued`` record
        immediately (poll :meth:`job` or ``ServiceClient.wait``)."""
        if self._closed:
            raise QueueClosedError("the service is shut down")
        spec = self._resolve_suite(suite)
        options = _validate_options(options or {})
        record = self.jobs.create(
            suite=spec.name, spec=spec.to_dict(), options=options
        )
        self._schedule(record.job_id)
        return record

    def _schedule(self, job_id: str) -> None:
        with self._lock:
            self._flags.setdefault(job_id, threading.Event())
        self._pool.submit(self._execute, job_id)

    # -- execution (job worker threads) --------------------------------------

    def _execute(self, job_id: str) -> None:
        flag = self._flags[job_id]
        try:
            record = self.jobs.transition(job_id, "running")
        except JobStateError:
            return  # cancelled while still queued
        spec = SuiteSpec.from_dict(record.spec)
        options = record.options

        def progress(event: dict) -> None:
            if event.get("event") != "done":
                return
            snapshot = {
                "completed": event["index"] + 1,
                "total": event["total"],
                "cell": event["cell"],
                "status": event.get("status"),
            }
            if flag.is_set():  # a cancel request outlives the snapshot
                snapshot["cancel_requested"] = True
            try:
                self.jobs.update(job_id, progress=snapshot)
            except JobStateError:
                pass  # terminal already (late pooled event)

        runner = SuiteRunner(
            store=self.store_root,
            cache=options.get("cache", self.cache),
            workers=options.get("workers"),
            progress=progress,
            should_stop=flag.is_set,
        )
        try:
            report = runner.run(
                spec,
                only=options.get("only"),
                engine=options.get("engine"),
            )
        except Exception as exc:
            message = " ".join(str(exc).split()) or type(exc).__name__
            self._finish(
                job_id, "error", error=f"{type(exc).__name__}: {message}"
            )
            return
        state = "cancelled" if flag.is_set() else "done"
        self._finish(
            job_id,
            state,
            report=report.to_dict(),
            result_keys=[
                cell.store_key for cell in report.cells if cell.store_key
            ],
        )

    def _finish(self, job_id: str, state: str, **fields) -> None:
        try:
            self.jobs.transition(job_id, state, **fields)
        except JobStateError:
            pass  # lost a race against an external transition

    # -- job API -------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        return self.jobs.get(job_id)

    def list_jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        return self.jobs.list(state=state)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job immediately; request cooperative
        cancellation of a running one (the runner stops at the next
        cell boundary).  Terminal jobs raise :class:`JobStateError`."""
        record = self.jobs.get(job_id)
        if record.finished:
            raise JobStateError(
                f"job {job_id} is already {record.state}"
            )
        with self._lock:
            flag = self._flags.setdefault(job_id, threading.Event())
        flag.set()
        if record.state == "queued":
            try:
                return self.jobs.transition(
                    job_id, "cancelled", error="cancelled before start"
                )
            except JobStateError:
                pass  # the pool started it in the meantime
        return self.jobs.update(
            job_id,
            progress=dict(
                self.jobs.get(job_id).progress, cancel_requested=True
            ),
        )

    # -- result access (request threads) -------------------------------------

    def _store(self) -> ResultStore:
        # a fresh handle per read: request threads never share the
        # mutable stats counters
        return ResultStore(self.store_root)

    @staticmethod
    def _resolve_any(store: ResultStore, key: str):
        """(full key, kind): campaign payload keys first, then the
        design-report side table — a job's ``result_keys`` mixes both."""
        try:
            return store.resolve(key), "campaign"
        except LookupError:
            matches = [
                full
                for full in store.report_keys()
                if full.startswith(key)
            ]
            if len(matches) == 1:
                return matches[0], "report"
            if len(matches) > 1:
                raise LookupError(
                    f"{key!r} is ambiguous among report entries"
                ) from None
            raise

    def result(self, key: str) -> dict:
        """Metadata + summary of one stored artifact — a campaign
        result set or a design report (prefix accepted;
        ``LookupError`` -> 404)."""
        store = self._store()
        full, kind = self._resolve_any(store, key)
        if kind == "report":
            return {
                "key": full,
                "kind": kind,
                "report": store.get_report(full),  # hash-verified
            }
        meta = store.meta(full) or {}
        return {
            "key": full,
            "kind": kind,
            "campaign": meta.get("campaign"),
            "summary": meta.get("summary"),
            "sha256": meta.get("sha256"),
            "created_at": meta.get("created_at"),
            "repro_version": meta.get("repro_version"),
        }

    def records(self, key: str) -> str:
        """The raw, hash-verified JSONL payload of one campaign
        artifact."""
        store = self._store()
        full, kind = self._resolve_any(store, key)
        if kind == "report":
            raise ValueError(
                f"{full[:12]}… is a design-report entry with no JSONL "
                f"records; GET /results/{full[:12]} instead"
            )
        payload = store.payload(full)
        if payload is None:
            raise LookupError(
                f"store entry {key!r} vanished between resolve and read"
            )
        return payload

    # -- health --------------------------------------------------------------

    def health(self) -> dict:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "store": self.store_root,
            "workers": self.workers,
            "jobs": self.jobs.counts(),
        }
