"""Job records and the thread-safe :class:`JobQueue` behind ``repro
serve``.

A **job** is one submitted suite run: the full :class:`~repro.suite.
spec.SuiteSpec` dict, the execution options, and everything the run
produced.  Records are plain JSON — they round-trip losslessly through
``to_dict``/``from_dict``.  The queue writes a record to
``<store>/jobs/<job_id>.json`` (atomically) on creation, on every state
transition and on a cancel request, so a restarted server recovers its
whole job table from the store directory it serves.  The live per-cell
``progress`` snapshot is kept in memory only: a job file holds the
job's state, not its live progress, so a job costs the same three
writes whatever its cell count.

Every mutation bumps the job's in-memory **revision** and wakes
:meth:`JobQueue.wait`, the long-poll behind ``GET /jobs/{id}?wait=S``.

State machine (enforced — an illegal transition raises
:class:`JobStateError`, which the HTTP layer maps to 409)::

    queued ──> running ──> done
       │          ├──────> error
       └──────────┴──────> cancelled

Terminal states are immutable.  :meth:`JobQueue.recover` re-queues
jobs that were ``running`` when the previous server died — the store-
backed resume property makes re-executing them idempotent (completed
cells are served as verified hits), so losing the in-flight progress
snapshot costs nothing.  A ``running`` job whose cancel request was
persisted is recovered as ``cancelled`` instead.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobError",
    "JobStateError",
    "QueueClosedError",
    "JobRecord",
    "JobQueue",
    "Recovery",
]

#: every state a job can be in, in lifecycle order
JOB_STATES = ("queued", "running", "done", "error", "cancelled")

#: states a job never leaves
TERMINAL_STATES = ("done", "error", "cancelled")

_TRANSITIONS = {
    "queued": ("running", "cancelled"),
    "running": ("done", "error", "cancelled"),
    "done": (),
    "error": (),
    "cancelled": (),
}


class JobError(RuntimeError):
    """Unknown job id (the HTTP layer maps this to 404)."""


class JobStateError(JobError):
    """Illegal state transition (the HTTP layer maps this to 409)."""


class QueueClosedError(RuntimeError):
    """The queue (the service) is shut down: no new job, and no
    long-poll that would have to park (the HTTP layer maps this to
    503)."""


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class JobRecord:
    """One submitted suite run, JSON-round-trippable.

    ``progress`` is the live ``[completed/total]`` snapshot the runner's
    per-cell callbacks maintain (in memory: a job file holds the
    snapshot of its last persisted write); ``report`` is the full
    ``SuiteReport.to_dict()`` once the job reaches a terminal state;
    ``result_keys`` are the store keys of every cell artifact, in cell
    order, for ``GET /results/{key}`` fetches.
    """

    job_id: str
    suite: str
    #: the full SuiteSpec dict — a recovered server can re-run the job
    spec: dict
    #: execution options: workers / only / engine / cache
    options: dict = field(default_factory=dict)
    state: str = "queued"
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: live snapshot: {"completed": i, "total": N, "cell": ..., ...}
    progress: dict = field(default_factory=dict)
    report: Optional[dict] = None
    result_keys: List[str] = field(default_factory=list)
    error: Optional[str] = None
    #: set when recover() re-queued this job after a server restart
    recovered: bool = False

    def __post_init__(self):
        if self.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {self.state!r}; known: {JOB_STATES}"
            )
        if not self.created_at:
            self.created_at = time.time()

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "suite": self.suite,
            "spec": self.spec,
            "options": dict(self.options),
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "report": self.report,
            "result_keys": list(self.result_keys),
            "error": self.error,
            "recovered": self.recovered,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            job_id=data["job_id"],
            suite=data.get("suite", ""),
            spec=dict(data.get("spec") or {}),
            options=dict(data.get("options") or {}),
            state=data.get("state", "queued"),
            created_at=float(data.get("created_at") or 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            progress=dict(data.get("progress") or {}),
            report=data.get("report"),
            result_keys=list(data.get("result_keys") or ()),
            error=data.get("error"),
            recovered=bool(data.get("recovered", False)),
        )


class Recovery(NamedTuple):
    """What :meth:`JobQueue.recover` did to the jobs it found
    ``running``."""

    #: ids put back to ``queued``
    requeued: List[str]
    #: ids ended ``cancelled``: their cancel request had been persisted
    cancelled: List[str]


class JobQueue:
    """The thread-safe job table, persisted under ``<root>/jobs/``.

    Every mutation goes through one lock.  Creation, state transitions
    and cancel requests are written atomically (pid-unique temp file +
    ``os.replace``), so a concurrent reader of the directory always sees
    complete records; the live progress snapshot stays in memory.  A
    half-written or unparsable record file is skipped on load — it can
    never poison the table.

    Every mutation also bumps the job's revision (1 on creation or
    load) and wakes the threads parked in :meth:`wait`.
    """

    def __init__(self, root: str):
        self.root = os.path.join(os.fspath(root), "jobs")
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._revisions: Dict[str, int] = {}
        self._closed = False
        self._load()

    # -- persistence ---------------------------------------------------------

    def _path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def _load(self) -> None:
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as handle:
                    record = JobRecord.from_dict(json.load(handle))
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                continue
            self._jobs[record.job_id] = record
            self._revisions[record.job_id] = 1

    def _persist(self, record: JobRecord) -> None:
        path = self._path(record.job_id)
        tmp = f"{path}.{os.getpid()}.tmp"
        # one json.dumps without indent runs the C encoder; json.dump
        # and indent= fall back to the pure-Python one
        text = json.dumps(
            record.to_dict(), sort_keys=True, separators=(",", ":")
        )
        with open(tmp, "w") as handle:
            handle.write(text + "\n")
        os.replace(tmp, path)

    def _changed_locked(self, job_id: str) -> None:
        """Bump the job's revision and wake every parked :meth:`wait`
        (caller holds the lock)."""
        self._revisions[job_id] += 1
        self._changed.notify_all()

    # -- access --------------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        return record

    def get(self, job_id: str) -> JobRecord:
        """A defensive copy — mutate through :meth:`update` /
        :meth:`transition`, never on the returned record."""
        with self._lock:
            return JobRecord.from_dict(self._record(job_id).to_dict())

    def wait(
        self, job_id: str, timeout: float, after: Optional[int] = None
    ) -> Tuple[JobRecord, int]:
        """Long-poll one job -> (a copy of its record, its revision).

        Parks for up to ``timeout`` seconds until the job is terminal
        or, when ``after`` is given, until its revision passes
        ``after``; ``timeout=0`` answers at once.  An unknown job raises
        :class:`JobError` at once.  Once :meth:`close` is called, a
        wait that would have to park raises :class:`QueueClosedError`,
        and so do the ones parked at that moment.
        """
        deadline = time.monotonic() + timeout
        with self._changed:
            while True:
                record = self._record(job_id)
                revision = self._revisions[job_id]
                if record.finished or (after is not None and revision > after):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if self._closed:
                    raise QueueClosedError("the service is shut down")
                self._changed.wait(remaining)
            return JobRecord.from_dict(record.to_dict()), revision

    def list(self, state: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = [
                JobRecord.from_dict(record.to_dict())
                for record in self._jobs.values()
                if state is None or record.state == state
            ]
        return sorted(records, key=lambda r: (r.created_at, r.job_id))

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for record in self._jobs.values():
                out[record.state] += 1
            return out

    # -- mutation ------------------------------------------------------------

    def create(
        self,
        suite: str,
        spec: dict,
        options: Optional[dict] = None,
        job_id: Optional[str] = None,
    ) -> JobRecord:
        record = JobRecord(
            job_id=job_id or new_job_id(),
            suite=suite,
            spec=spec,
            options=dict(options or {}),
        )
        with self._lock:
            if record.job_id in self._jobs:
                raise JobError(f"duplicate job id {record.job_id!r}")
            self._jobs[record.job_id] = record
            self._revisions[record.job_id] = 1
            self._persist(record)
            return JobRecord.from_dict(record.to_dict())

    def update(self, job_id: str, **fields) -> JobRecord:
        """Update non-state fields (progress snapshots, mostly) on a
        live job; a terminal job is immutable.

        The change is kept in memory — the next transition writes it —
        except a ``progress`` that newly carries ``cancel_requested``:
        that cancel request is written at once, so a restarted server
        honours it (see :meth:`recover`)."""
        with self._lock:
            record = self._record(job_id)
            if record.finished:
                raise JobStateError(
                    f"job {job_id} is already {record.state}"
                )
            cancel = bool(
                (fields.get("progress") or {}).get("cancel_requested")
            ) and not record.progress.get("cancel_requested")
            for name, value in fields.items():
                if not hasattr(record, name) or name == "state":
                    raise ValueError(f"unknown job field {name!r}")
                setattr(record, name, value)
            if cancel:
                self._persist(record)
            self._changed_locked(job_id)
            return JobRecord.from_dict(record.to_dict())

    def transition(self, job_id: str, state: str, **fields) -> JobRecord:
        """Move a job along the state machine, stamping
        ``started_at``/``finished_at``; illegal moves raise
        :class:`JobStateError`."""
        if state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r}; known: {JOB_STATES}"
            )
        with self._lock:
            record = self._record(job_id)
            if state not in _TRANSITIONS[record.state]:
                raise JobStateError(
                    f"job {job_id} cannot go {record.state} -> {state}"
                )
            record.state = state
            now = time.time()
            if state == "running":
                record.started_at = now
            if state in TERMINAL_STATES:
                record.finished_at = now
            for name, value in fields.items():
                if not hasattr(record, name) or name == "state":
                    raise ValueError(f"unknown job field {name!r}")
                setattr(record, name, value)
            self._persist(record)
            self._changed_locked(job_id)
            return JobRecord.from_dict(record.to_dict())

    def recover(self) -> Recovery:
        """Re-queue jobs interrupted mid-run by a server death.

        ``running`` records on disk mean the previous process died with
        the job in flight; the store makes re-execution idempotent, so
        they go back to ``queued`` (flagged ``recovered``).  One whose
        cancel request was persisted is ``cancelled`` instead — the
        request must not be lost to the restart.  Returns both id
        lists, sorted.
        """
        requeued = []
        cancelled = []
        with self._lock:
            for record in self._jobs.values():
                if record.state != "running":
                    continue
                if record.progress.get("cancel_requested"):
                    self.transition(
                        record.job_id,
                        "cancelled",
                        error="cancelled: the server restarted before "
                        "the job reached a cell boundary",
                    )
                    cancelled.append(record.job_id)
                    continue
                record.state = "queued"
                record.started_at = None
                record.recovered = True
                self._persist(record)
                self._changed_locked(record.job_id)
                requeued.append(record.job_id)
        return Recovery(sorted(requeued), sorted(cancelled))

    def close(self) -> None:
        """Refuse long-polls from now on and wake the parked ones
        (they raise :class:`QueueClosedError`); idempotent."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()
