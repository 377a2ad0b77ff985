"""`repro.results` — the unified results & artifact API (1.4).

Every campaign returns a :class:`ResultSet` (the one result type since
2.1):

* :class:`ResultSet` — provenance-stamped records, the coverage and
  detection-latency statistics, lossless streaming JSONL round-trips
  and ``merge`` / ``filter`` / ``group_by`` / ``diff`` algebra
  (:class:`ResultSetWriter` streams producer-side);
* :class:`Provenance` — what produced the records: design spec,
  scenario population, workload, engine policy, repro version;
* :class:`ResultStore` — content-addressed, hash-verified campaign
  cache keyed by :func:`campaign_key` over canonical
  ``(spec, scenarios, workload, collapse policy)`` material, with
  per-shard checkpoints for resumable ``workers=N`` campaigns.
"""

from repro.results.resultset import (
    Provenance,
    ResultDiff,
    ResultRecord,
    ResultSet,
    ResultSetWriter,
    fault_id,
)
from repro.results.store import (
    ResultStore,
    ResultStoreError,
    StoreEntry,
    StoreStats,
    campaign_key,
    canonical_json,
    content_digest,
    describe_target,
    scenario_material,
    workload_material,
)

__all__ = [
    "Provenance",
    "ResultRecord",
    "ResultSet",
    "ResultSetWriter",
    "ResultDiff",
    "fault_id",
    "ResultStore",
    "ResultStoreError",
    "StoreEntry",
    "StoreStats",
    "campaign_key",
    "canonical_json",
    "content_digest",
    "describe_target",
    "scenario_material",
    "workload_material",
]
