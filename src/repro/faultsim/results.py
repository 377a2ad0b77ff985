"""Result containers and statistics for fault-injection campaigns.

Since 1.4 the statistics live once in
:class:`repro.results.stats.RecordStatistics`, shared with the
serialisable :class:`repro.results.ResultSet`; :class:`CampaignResult`
is the thin in-memory compatibility view (live fault objects, mutable
``add``) the pre-1.4 API exposed — convert with
:meth:`CampaignResult.to_result_set` / ``ResultSet.to_campaign()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.results.stats import RecordStatistics

__all__ = ["FaultRecord", "CampaignResult"]


@dataclass
class FaultRecord:
    """Outcome of simulating one fault against one address stream."""

    #: printable fault identity (a live fault/scenario object on fresh
    #: runs; its printable string on results served from a ResultStore)
    fault: object
    #: 'sa0' | 'sa1' | 'address' | 'memory' | 'rom' | 'transient' | ...
    kind: str
    #: cycle (0-based) of first detection; None = never detected
    first_detection: Optional[int]
    #: cycle of the first *error* at the observed outputs; None = never excited
    first_error: Optional[int] = None
    #: analytic per-cycle escape probability, when available
    analytic_escape: Optional[float] = None

    @property
    def detected(self) -> bool:
        return self.first_detection is not None

    @property
    def latency(self) -> Optional[int]:
        """Cycles from first error to detection (0 = caught immediately)."""
        if self.first_detection is None or self.first_error is None:
            return None
        return self.first_detection - self.first_error


@dataclass
class CampaignResult(RecordStatistics):
    """Aggregate over a fault list (statistics from ``RecordStatistics``)."""

    records: List[FaultRecord] = field(default_factory=list)
    cycles_simulated: int = 0
    #: which engine produced the records ('vector' | 'serial');
    #: None for hand-assembled results
    engine: Optional[str] = None
    #: stamped by CampaignEngine runs (1.4+): what produced the records
    provenance: Optional[object] = None
    #: content-addressed store key, when the campaign was keyed
    store_key: Optional[str] = None
    #: True when the records were served from a ResultStore (fault
    #: identities are strings on that path, not live objects)
    from_store: bool = False

    def add(self, record: FaultRecord) -> None:
        self.records.append(record)

    def _spawn(self) -> "CampaignResult":
        return CampaignResult(
            cycles_simulated=self.cycles_simulated,
            engine=self.engine,
            provenance=self.provenance,
            store_key=self.store_key,
            from_store=self.from_store,
        )

    def to_result_set(self, provenance=None):
        """The serialisable, provenance-stamped 1.4 artifact view."""
        from repro.results import ResultSet

        return ResultSet.from_campaign(
            self, provenance=provenance or self.provenance
        )
