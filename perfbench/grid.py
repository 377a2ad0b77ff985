"""The ``paper_grid`` workload: the paper's full grid through
``repro.service``.

Each sample starts an in-thread ``CampaignService(workers=1)`` behind
``serving()`` on a fresh store, then one ``ServiceClient`` (one
connection at a time, closed loop, the CLI's default poll rate)
submits ``paper_grid`` cold, then a fixed number of resumed submits,
and last one ``repro submit paper_grid --wait --url URL`` process runs.
The suite keeps its own cell policies: no engine override, so the
default engine is what is measured.  The built-in suite is fixed, so
the seed changes no input here.

End-to-end metrics:

* ``setup_s``     service and server start on a fresh store, until the
  first health check answers;
* ``campaign_s``  the cold submit until the client sees ``done``;
* ``resumed_s``   a resumed submit until the client sees ``done``;
* ``cli_s``       the ``repro submit --wait`` process, start to exit
  (resumed);
* ``peak_rss_mb`` this process's peak resident memory.
"""

from __future__ import annotations

import json
import tempfile
import time
from typing import Dict, List, Tuple

import spans
from measure import (
    Outcome,
    Samples,
    cli_import,
    digest,
    load_reference,
    metric_values,
    python_process,
    timed,
    until,
)

SUITE = "paper_grid"
#: resumed submits per sample: a job table that grows makes later
#: resumed jobs slower, so every sample does the same number
RESUMED_PER_SAMPLE = 3
#: health round trips per sample
HEALTH_REPEATS = 5
FAMILIES = ("design", "decoder", "transient", "march")


def stable_lines(report: dict) -> List[str]:
    """One canonical line per cell: id, family and summary.  The engine
    label is dropped: engines are record-identical by contract."""
    lines = []
    for cell in report["cells"]:
        summary = {
            key: value
            for key, value in (cell.get("summary") or {}).items()
            if key != "engine"
        }
        lines.append(
            json.dumps(
                [cell["cell"], cell["family"], summary],
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return lines


def _client_class():
    from repro.service import ServiceClient

    class CountingClient(ServiceClient):
        """Counts the job polls ``wait`` makes."""

        polls = 0

        def job(self, job_id: str) -> dict:
            self.polls += 1
            return super().job(job_id)

    return CountingClient


def _submit(client, samples: Samples, prefix: str) -> Tuple[dict, float]:
    """Submit and wait -> (final job, seconds); records the client-side
    service timings."""
    start = time.perf_counter()
    job, rtt = timed(client.submit, SUITE)
    client.polls = 0
    job = client.wait(job["job_id"])
    seen = time.time()
    elapsed = time.perf_counter() - start
    samples.add(f"{prefix}_s", elapsed)
    execution = (job.get("report") or {}).get("execution") or {}
    samples.add("job_errors", execution.get("errors", 0))
    if prefix == "resumed":
        samples.add("service.submit_rtt_ms", rtt * 1e3)
        samples.add("service.polls", client.polls)
        if job.get("started_at") and job.get("finished_at"):
            samples.add(
                "service.queue_wait_s", job["started_at"] - job["created_at"]
            )
            samples.add(
                "service.run_s", job["finished_at"] - job["started_at"]
            )
            samples.add("service.notify_lag_s", seen - job["finished_at"])
    return job, elapsed


def _suite_layers(report: dict, prefix: str) -> Dict[str, float]:
    execution = report["execution"]
    cells = {family: 0.0 for family in FAMILIES}
    for cell in report["cells"]:
        wall = (cell.get("execution") or {}).get("wall_time_s", 0.0)
        cells[cell["family"]] = cells.get(cell["family"], 0.0) + wall
    run_s = execution["wall_time_s"]
    out = {
        f"suite.{prefix}.run_s": run_s,
        f"suite.{prefix}.self_s": run_s - sum(cells.values()),
    }
    for family in FAMILIES:
        out[f"suite.{prefix}.{family}_cells_s"] = cells[family]
    return out


def _store_counts(report: dict) -> Dict[str, float]:
    """Hits and verified reads of the cells' own ``ResultStore`` counters."""
    stats = [
        (cell.get("execution") or {}).get("store") or {}
        for cell in report["cells"]
    ]
    return {
        "store.hits": sum(s.get("hits", 0) for s in stats),
        "store.verified": sum(s.get("verified", 0) for s in stats),
    }


def _check_job(job: dict, outcome: Outcome, what: str, keys=None) -> bool:
    execution = ((job.get("report") or {}).get("execution")) or {}
    ok = job.get("state") == "done" and execution.get("errors") == 0
    if keys is not None:
        ok = ok and (
            job.get("result_keys") == keys
            and execution.get("simulated") == 0
            and execution.get("verified_hits") == execution.get("cells")
        )
    return outcome.check(
        ok,
        f"{what}: state {job.get('state')!r}, execution {execution}, "
        f"error {job.get('error')!r}",
    )


def _sample(index, work, samples, outcome, tracer, reference) -> None:
    from repro.service import CampaignService, serving

    traced = tracer is not None and index % 2 == 1
    store = tempfile.mkdtemp(prefix="grid-", dir=work)
    start = time.perf_counter()
    with CampaignService(store=store, workers=1) as service:
        with serving(service) as url:
            client = _client_class()(url)
            client.health()
            samples.add("setup_s", time.perf_counter() - start)
            for _ in range(HEALTH_REPEATS):
                _, rtt = timed(client.health)
                samples.add("service.health_rtt_ms", rtt * 1e3)

            patches = spans.install(tracer) if traced else None
            try:
                mark = tracer.mark() if traced else 0
                if tracer is None:
                    prefix = "campaign"
                else:
                    prefix = "traced" if traced else "untraced"
                cold, elapsed = _submit(client, samples, prefix)
                if traced:
                    window = tracer.since(mark)
                    samples.extend(spans.cold_layers(window))
                    samples.add(
                        "design.build_s", spans.total_s(window, "design")
                    )
                    samples.add(
                        "trace.coverage",
                        spans.total_s(window, "suite") / elapsed,
                    )
                if _check_job(cold, outcome, "cold job"):
                    report = cold["report"]
                    outcome.check(
                        digest(stable_lines(report)) == reference
                        and report["execution"]["simulated"]
                        == report["execution"]["cells"],
                        "cold job: cell summaries differ from the "
                        "committed reference",
                    )
                    samples.add(
                        "suite.simulated", report["execution"]["simulated"]
                    )
                    samples.extend(_suite_layers(report, "cold"))
                keys = cold.get("result_keys")
                for _ in range(RESUMED_PER_SAMPLE):
                    mark = tracer.mark() if traced else 0
                    job, _ = _submit(client, samples, "resumed")
                    if traced:
                        samples.extend(
                            spans.resumed_layers(tracer.since(mark))
                        )
                    if _check_job(job, outcome, "resumed job", keys):
                        samples.extend(
                            _suite_layers(job["report"], "resumed")
                        )
                        samples.extend(_store_counts(job["report"]))
            finally:
                if patches is not None:
                    patches.undo()

            if tracer is None:
                done, elapsed = python_process(
                    [
                        "-m", "repro", "submit", SUITE, "--wait",
                        "--url", url, "--json", "--quiet",
                    ]
                )
                samples.add("cli_s", elapsed)
                job = {}
                if done.returncode == 0:
                    try:
                        job = json.loads(done.stdout)
                    except json.JSONDecodeError:
                        pass
                job.setdefault("error", done.stderr.strip()[-200:])
                _check_job(job, outcome, "repro submit process", keys)


def run(name: str, seed: int, seconds: float, trace: bool, work: str):
    """One benchmark run -> (metric values, Outcome, tracer, Samples)."""
    outcome = Outcome()
    samples = Samples()
    tracer = spans.Tracer() if trace else None
    reference = load_reference()[SUITE]["digest"]
    # warm-up sample: imports and lazy caches, not counted
    _sample(0, work, Samples(), outcome, None, reference)
    for index in until(seconds):
        _sample(index, work, samples, outcome, tracer, reference)
    samples.add("suite.errors", sum(samples.values.pop("job_errors", [])))
    if tracer is not None:
        cli_import(samples, outcome)
    return metric_values(samples, trace), outcome, tracer, samples
