"""X6 — transient-upset detection latency across workload families.

The on-line claim, measured: single-event upsets strike a
parity-protected RAM under live traffic, and detection latency is set by
the *workload*, not the code — uniform traffic gives a geometric
time-to-next-read, sequential and scrubbed traffic bound it hard, and
bursty traffic fattens the tail.  A final row shows a double upset in
one word escaping the single parity bit entirely (error observed, never
detected) — the known limit SEC-DED exists for.

Campaigns run through :class:`repro.scenarios.CampaignEngine`
(``engine="vector"`` default: a walk over each victim word's upsets
and writes; ``engine="serial"`` is the per-cycle oracle).

Run: ``python -m repro.experiments.transient_campaign``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.common import (
    format_table,
    open_store,
    record_campaign_stats,
)
from repro.faultsim.transient import TransientUpset
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import (
    CampaignEngine,
    TransientScenario,
    Workload,
)

__all__ = [
    "TransientWorkloadRow",
    "run_transient_experiment",
    "generate_transient_rows",
    "main",
]

WORDS = 256
BITS = 8
CYCLES = 2048
SEED = 5


@dataclass
class TransientWorkloadRow:
    """Detection summary of one workload family against one upset set."""

    workload: str
    upsets: int
    detected: int
    #: mean / worst cycles from strike to the parity flag
    mean_latency: Optional[float]
    worst_latency: Optional[int]
    undetected: int


def _ram() -> BehavioralRAM:
    return BehavioralRAM(
        MemoryOrganization(words=WORDS, bits=BITS, column_mux=8)
    )


def _workloads(cycles: int, seed: int) -> Dict[str, Workload]:
    return {
        "uniform": Workload.uniform(WORDS, cycles, seed=seed),
        "sequential": Workload.sequential(WORDS, cycles),
        "bursty": Workload.bursty(WORDS, cycles, locality=16, seed=seed),
        "scrubbed 1/8": Workload.scrubbed(
            WORDS, cycles, scrub_period=8, seed=seed
        ),
        "scrubbed 1/2": Workload.scrubbed(
            WORDS, cycles, scrub_period=2, seed=seed
        ),
    }


def _scenarios() -> List[TransientScenario]:
    return [
        TransientScenario.single(address, bit=address % BITS, cycle=16)
        for address in range(0, WORDS, 5)
    ]


def run_transient_experiment(
    cycles: int = CYCLES,
    seed: int = SEED,
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> List[TransientWorkloadRow]:
    """One upset population, every workload family, one engine."""
    driver = CampaignEngine(
        engine=engine, workers=workers, store=open_store(store), cache=cache
    )
    scenarios = _scenarios()
    rows: List[TransientWorkloadRow] = []
    for label, workload in _workloads(cycles, seed).items():
        result = driver.transient(_ram(), scenarios, workload)
        # strike cycles come from the scenario list (zip by position):
        # records carry the printable fault identity, not the scenario
        latencies = [
            record.first_detection - scenario.cycle
            for scenario, record in zip(scenarios, result.records)
            if record.first_detection is not None
        ]
        rows.append(
            TransientWorkloadRow(
                workload=label,
                upsets=result.total,
                detected=result.detected,
                mean_latency=(
                    sum(latencies) / len(latencies) if latencies else None
                ),
                worst_latency=max(latencies) if latencies else None,
                undetected=result.total - result.detected,
            )
        )
    # the parity escape: two flips in one word restore the code word
    double = TransientScenario(
        upsets=(
            TransientUpset(address=7, bit=1, cycle=16),
            TransientUpset(address=7, bit=4, cycle=16),
        )
    )
    result = driver.transient(
        _ram(), [double], Workload.uniform(WORDS, cycles, seed=seed)
    )
    record = result.records[0]
    rows.append(
        TransientWorkloadRow(
            workload="uniform, double upset",
            upsets=1,
            detected=result.detected,
            mean_latency=None,
            worst_latency=None,
            undetected=(
                1 if record.first_error is not None and not record.detected
                else 0
            ),
        )
    )
    return rows


#: stats of the most recent main() run, surfaced by the CLI's --json
LAST_CAMPAIGN_STATS: Dict[str, object] = {}


def generate_transient_rows(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> List[TransientWorkloadRow]:
    """Structured rows for the CLI's ``--json`` (same engine selection
    as the printed run)."""
    return run_transient_experiment(
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
    rows = run_transient_experiment(
        engine=engine, workers=workers, store=store, cache=cache
    )
    extra = {"cycles": CYCLES}
    if store is not None:
        extra["store"] = store.stats.to_dict()
    record_campaign_stats(
        LAST_CAMPAIGN_STATS,
        engine,
        sum(row.upsets for row in rows),
        time.perf_counter() - start,
        **extra,
    )
    print(
        f"X6 — transient upsets under live traffic "
        f"({WORDS}x{BITS} parity RAM, {CYCLES} cycles, {engine} engine)"
    )
    table_rows = [
        [
            row.workload,
            row.upsets,
            row.detected,
            "-" if row.mean_latency is None else f"{row.mean_latency:.1f}",
            "-" if row.worst_latency is None else row.worst_latency,
            row.undetected,
        ]
        for row in rows
    ]
    print(
        format_table(
            ["workload", "upsets", "detected", "mean lat", "worst lat",
             "missed"],
            table_rows,
        )
    )
    print(
        "\nscrubbing converts the heavy uniform tail into a hard bound; "
        "the double-upset row\nis the single-parity-bit escape "
        "(error observed, never detected)."
    )


if __name__ == "__main__":
    main()
