"""X1/X2 — empirical detection-latency distribution vs the analytic model.

The paper reports only the closed-form ``Pndc = (⌈2^i/a⌉/2^i)^c``; this
experiment validates it by brute force: build a checked decoder, inject
*every* stuck-at fault in the tree, drive random addresses, and compare
the measured survival function (fraction of faults still undetected after
``c`` cycles) against the analytic per-site predictions.

The campaign runs on the vector engine by default (``engine="serial"``
selects the reference oracle, ``workers=N`` shards the fault list);
wall time and faults/sec are recorded on the result and surfaced by the
CLI's ``--json``.

Run: ``python -m repro.experiments.latency_empirical``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.decoder.analysis import analyze_decoder
from repro.experiments.common import (
    format_table,
    open_store,
    record_campaign_stats,
)
from repro.faultsim.injector import decoder_fault_list
from repro.scenarios import CampaignEngine, Workload
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "LatencyExperiment",
    "run_latency_experiment",
    "survival_curve",
    "main",
]


@dataclass
class LatencyExperiment:
    n_bits: int
    code: MOutOfNCode
    cycles: int
    #: survival curve: c -> (measured escape fraction, analytic mean)
    curve: Dict[int, Tuple[float, float]]
    measured_worst_latency: Optional[int]
    analytic_worst_escape: float
    coverage: float
    zero_latency_sa0: bool
    #: campaign engine ('vector' | 'serial') and its throughput
    engine: str = "vector"
    faults: int = 0
    wall_time_s: float = 0.0
    faults_per_sec: float = 0.0


def survival_curve(
    result, analysis, checkpoints: List[int]
) -> Dict[int, Tuple[float, float]]:
    """(measured, analytic-mean) escape fraction after c cycles.

    The analytic curve averages each stuck-at-1 site's ``escape^c`` and
    each stuck-at-0 site's non-excitation probability, i.e. the expected
    fraction of the fault list still silent — directly comparable to the
    measured fraction.
    """
    sites = [
        s
        for s in analysis.sites
        if s.kind in ("sa0", "sa1") and s.escape_per_cycle is not None
    ]
    curve: Dict[int, Tuple[float, float]] = {}
    for c in checkpoints:
        measured = result.escape_fraction_at(c)
        analytic = sum(float(s.escape_per_cycle) ** c for s in sites) / len(
            sites
        )
        curve[c] = (measured, analytic)
    return curve


def run_latency_experiment(
    n_bits: int = 6,
    code: MOutOfNCode = None,
    cycles: int = 400,
    seed: int = 7,
    checkpoints: List[int] = None,
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> LatencyExperiment:
    code = code or MOutOfNCode(3, 5)
    checkpoints = checkpoints or [1, 2, 5, 10, 20, 50, 100, 200]
    mapping = mapping_for_code(code, n_bits)
    checked = CheckedDecoder(mapping)
    checker = MOutOfNChecker(code.m, code.n, structural=False)
    faults = decoder_fault_list(checked)
    addresses = Workload.uniform(1 << n_bits, cycles, seed=seed)
    driver = CampaignEngine(
        engine=engine, workers=workers, store=open_store(store), cache=cache
    )
    start = time.perf_counter()
    result = driver.decoder(checked, checker, faults, addresses)
    wall = time.perf_counter() - start
    analysis = analyze_decoder(checked.tree, mapping)

    # zero-latency check for s-a-0: latency (detection - first error) == 0
    sa0_records = [r for r in result.records if r.kind == "sa0" and r.detected]
    zero_latency = all(r.latency == 0 for r in sa0_records)

    detected_cycles = result.detection_cycles()
    return LatencyExperiment(
        n_bits=n_bits,
        code=code,
        cycles=cycles,
        curve=survival_curve(result, analysis, checkpoints),
        measured_worst_latency=max(detected_cycles) if detected_cycles else None,
        analytic_worst_escape=float(analysis.worst_escape()),
        coverage=result.coverage,
        zero_latency_sa0=zero_latency,
        engine=engine,
        faults=len(faults),
        wall_time_s=wall,
        faults_per_sec=len(faults) / wall if wall > 0 else 0.0,
    )


#: stats of the most recent main() run, surfaced by the CLI's --json
LAST_CAMPAIGN_STATS: Dict[str, object] = {}


def main(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> None:
    store = open_store(store)
    exp = run_latency_experiment(
        engine=engine, workers=workers, store=store, cache=cache
    )
    extra = {"cycles": exp.cycles}
    if store is not None:
        extra["store"] = store.stats.to_dict()
    record_campaign_stats(
        LAST_CAMPAIGN_STATS, exp.engine, exp.faults, exp.wall_time_s,
        **extra,
    )
    print(
        f"Empirical latency validation: n={exp.n_bits} decoder, "
        f"{exp.code.name} code, {exp.cycles} random cycles"
    )
    rows = [
        [c, f"{measured:.4f}", f"{analytic:.4f}"]
        for c, (measured, analytic) in sorted(exp.curve.items())
    ]
    print(
        format_table(
            ["c (cycles)", "measured escape", "analytic escape"], rows
        )
    )
    print(f"fault coverage within horizon: {exp.coverage:.3f}")
    print(f"worst analytic per-cycle escape: {exp.analytic_worst_escape:.4f}")
    print(
        "stuck-at-0 zero-latency claim: "
        + ("holds" if exp.zero_latency_sa0 else "VIOLATED")
    )
    print(
        f"campaign engine: {exp.engine}, {exp.faults} faults in "
        f"{exp.wall_time_s * 1e3:.1f} ms "
        f"({exp.faults_per_sec:.0f} faults/s)"
    )


if __name__ == "__main__":
    main()
