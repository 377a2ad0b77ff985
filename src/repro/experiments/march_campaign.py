"""X7 — march-algorithm coverage matrix over the behavioural fault classes.

Every classical march test against every behavioural fault family of
:mod:`repro.memory.faults`, through the unified campaign engine: cell
and data-line stuck-ats (covered by all algorithms), mux-way stuck-ats,
and the idempotent coupling fault in both its read-state and
write-triggered (textbook CFid) models.  The matrix reproduces the
classical guarantees — March C- (10N) detects every class including
write-triggered coupling in both address orders, while MATS+ (5N)
provably misses the aggressor-above-victim CFid.

Campaigns run through :meth:`repro.scenarios.CampaignEngine.march`
(``engine="vector"`` compiles the march to per-address event lists
and first-read lookups; ``engine="serial"`` replays per operation).

Run: ``python -m repro.experiments.march_campaign``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    format_table,
    open_store,
    record_campaign_stats,
)
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MemoryFault,
    MuxLineStuckAt,
)
from repro.memory.march import (
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS_PLUS,
    MarchTest,
)
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import CampaignEngine, MemoryScenario

__all__ = [
    "MarchCoverageRow",
    "fault_classes",
    "run_march_experiment",
    "generate_march_rows",
    "main",
]

WORDS = 64
BITS = 8


@dataclass
class MarchCoverageRow:
    """One march algorithm's detection record over the fault classes."""

    test: str
    complexity: int
    faults: int
    detected: int
    coverage: float
    #: fault-class labels with at least one missed fault
    missed_classes: Tuple[str, ...]


def _ram() -> BehavioralRAM:
    return BehavioralRAM(
        MemoryOrganization(words=WORDS, bits=BITS, column_mux=4)
    )


def fault_classes() -> Dict[str, List[MemoryFault]]:
    """The behavioural fault population, labelled by class."""
    return {
        "cell stuck-at": [
            CellStuckAt(address, bit, value)
            for address in (0, 13, WORDS - 1)
            for bit in (0, BITS - 1)
            for value in (0, 1)
        ],
        "data line stuck-at": [
            DataLineStuckAt(bit, value)
            for bit in (1, 6)
            for value in (0, 1)
        ],
        "mux line stuck-at": [
            MuxLineStuckAt(column, bit, value)
            for column in (0, 3)
            for bit in (2,)
            for value in (0, 1)
        ],
        "coupling (read state)": [
            CouplingFault(3, 0, 9, 0),
            CouplingFault(40, 2, 11, 2),
        ],
        "coupling (write CFid)": [
            # both address orders, both transition directions
            CouplingFault(3, 0, 9, 0, write_triggered=True),
            CouplingFault(40, 2, 11, 2, write_triggered=True),
            CouplingFault(
                40, 1, 11, 1, trigger=0, forced=0, write_triggered=True
            ),
        ],
    }


MARCH_SUITE: Tuple[MarchTest, ...] = (
    MATS_PLUS,
    MARCH_X,
    MARCH_Y,
    MARCH_C_MINUS,
)


def run_march_experiment(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> List[MarchCoverageRow]:
    driver = CampaignEngine(
        engine=engine, workers=workers, store=open_store(store), cache=cache
    )
    classes = fault_classes()
    scenarios: List[MemoryScenario] = []
    labels: List[str] = []
    for label, faults in classes.items():
        for fault in faults:
            scenarios.append(MemoryScenario(faults=(fault,)))
            labels.append(label)
    rows: List[MarchCoverageRow] = []
    for test in MARCH_SUITE:
        result = driver.march(_ram(), scenarios, test)
        missed = sorted(
            {
                label
                for label, record in zip(labels, result.records)
                if not record.detected
            }
        )
        rows.append(
            MarchCoverageRow(
                test=test.name,
                complexity=test.complexity,
                faults=result.total,
                detected=result.detected,
                coverage=result.coverage,
                missed_classes=tuple(missed),
            )
        )
    return rows


#: stats of the most recent main() run, surfaced by the CLI's --json
LAST_CAMPAIGN_STATS: Dict[str, object] = {}


def generate_march_rows(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> List[MarchCoverageRow]:
    """Structured rows for the CLI's ``--json`` (same engine selection
    as the printed run)."""
    return run_march_experiment(
        engine=engine, workers=workers, store=store, cache=cache
    )


def main(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> None:
    store = open_store(store)
    start = time.perf_counter()
    rows = run_march_experiment(
        engine=engine, workers=workers, store=store, cache=cache
    )
    extra = {}
    if store is not None:
        extra["store"] = store.stats.to_dict()
    record_campaign_stats(
        LAST_CAMPAIGN_STATS,
        engine,
        sum(row.faults for row in rows),
        time.perf_counter() - start,
        **extra,
    )
    print(
        f"X7 — march coverage matrix ({WORDS}x{BITS} RAM, "
        f"{engine} engine)"
    )
    table_rows = [
        [
            row.test,
            f"{row.complexity}N",
            row.faults,
            row.detected,
            f"{row.coverage:.3f}",
            ", ".join(row.missed_classes) or "-",
        ]
        for row in rows
    ]
    print(
        format_table(
            ["algorithm", "ops", "faults", "detected", "coverage",
             "classes with misses"],
            table_rows,
        )
    )
    print(
        "\nthe textbook picture: every algorithm covers stuck-ats; only "
        "March C-'s paired\nascending/descending read-write elements "
        "catch the write-triggered coupling\nfault in both address "
        "orders."
    )


if __name__ == "__main__":
    main()
