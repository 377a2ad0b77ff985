"""Deterministic guarantees — scrubbing, March workloads, hard bounds.

The paper's latency model is probabilistic (uniform random traffic).
This example shows what a deployed system layered on top of it usually
wants: *hard* bounds — now phrased entirely in the 1.3 scenario
vocabulary (`Workload` stimuli + `FaultScenario` values driven through
one `CampaignEngine`).

1. A background scrubber (``Workload.scrubbed``) converts the parity
   path's "detected on next read" into a bounded soft-error detection
   latency; a double upset shows the single-parity-bit escape.
2. A periodic address sweep gives every decoder fault a hard worst-case
   detection bound (computed exactly, then confirmed by simulation).
3. The same March algorithms double as the off-line test: the march
   campaign shows March C- catching the coupling-fault classes the
   cheaper algorithms (and the concurrent scheme) miss.

Run: ``python examples/scrubbing_and_march.py``
"""

from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.deterministic import scan_guarantee
from repro.core.mapping import mapping_for_code
from repro.faultsim.transient import TransientUpset
from repro.memory.faults import CellStuckAt, CouplingFault
from repro.memory.march import MARCH_C_MINUS, MATS_PLUS
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    TransientScenario,
    Workload,
)

ENGINE = CampaignEngine()  # vector fast path; engine="serial" = oracle


def soft_error_scrubbing() -> None:
    print("=== soft errors: scrubbing bounds parity-detection latency ===")
    org = MemoryOrganization(words=64, bits=8, column_mux=4)
    scenarios = [
        TransientScenario.single(address=a, bit=3, cycle=5)
        for a in range(0, 64, 7)
    ]
    for period in (0, 8, 2):
        workload = Workload.scrubbed(
            64, 2000, scrub_period=period, seed=11
        )
        result = ENGINE.transient(BehavioralRAM(org), scenarios, workload)
        # records come back in scenario order
        latencies = [
            r.first_detection - scenario.cycle
            for scenario, r in zip(scenarios, result.records)
            if r.detected
        ]
        missed = result.total - result.detected
        label = "no scrub" if period == 0 else f"scrub 1/{period} cycles"
        print(
            f"  {label:>18}: worst latency "
            f"{max(latencies) if latencies else 'n/a'} cycles, "
            f"{missed} upsets unseen"
        )

    # the known limit: a double flip in one word restores parity
    double = TransientScenario(
        upsets=(
            TransientUpset(address=9, bit=1, cycle=5),
            TransientUpset(address=9, bit=6, cycle=5),
        )
    )
    record = ENGINE.transient(
        BehavioralRAM(org),
        [double],
        Workload.scrubbed(64, 2000, scrub_period=2, seed=11),
    ).records[0]
    print(
        f"  double upset in one word: error read at cycle "
        f"{record.first_error}, parity detection "
        f"{'at ' + str(record.first_detection) if record.detected else 'never (escape)'}\n"
    )


def decoder_scan_guarantee() -> None:
    print("=== decoder faults: a periodic sweep buys a hard bound ===")
    mapping = mapping_for_code(MOutOfNCode(3, 5), 6)
    checked = CheckedDecoder(mapping)
    bound = scan_guarantee(checked.tree, mapping)
    print(
        f"  64-line decoder, 3-out-of-5 ROM: every stuck-at detected "
        f"within {bound} scan cycles (exact bound)\n"
    )


def offline_march() -> None:
    print("=== off-line test: march campaigns on the behavioural RAM ===")
    ram = BehavioralRAM(MemoryOrganization(words=128, bits=8, column_mux=4))
    scenarios = [
        MemoryScenario(faults=(CellStuckAt(address=77, bit=1, value=1),)),
        MemoryScenario(
            faults=(
                CouplingFault(
                    aggressor_address=10, aggressor_bit=0,
                    victim_address=90, victim_bit=2,
                ),
            )
        ),
        MemoryScenario(
            faults=(
                CouplingFault(
                    aggressor_address=90, aggressor_bit=0,
                    victim_address=10, victim_bit=2,
                    write_triggered=True,
                ),
            )
        ),
    ]
    for test in (MATS_PLUS, MARCH_C_MINUS):
        result = ENGINE.march(ram, scenarios, test)
        # record.fault is the scenario's printable identity
        caught = [r.fault for r in result.records if r.detected]
        print(f"  {test}")
        print(
            f"    detects {result.detected}/{result.total} scenarios: "
            f"{caught if caught else 'none'}"
        )
    print(
        "  (March C-'s descending read-write pair is what catches the "
        "write-triggered\n   coupling fault MATS+ misses)"
    )


def main() -> None:
    soft_error_scrubbing()
    decoder_scan_guarantee()
    offline_march()


if __name__ == "__main__":
    main()
