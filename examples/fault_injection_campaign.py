"""Fault-injection campaign — measure detection latency, don't just trust it.

Builds a checked decoder (6 address bits, 3-out-of-5 code), enumerates
every stuck-at fault in the gate-level tree, replays a seeded
`Workload` against each through the unified `CampaignEngine`, and
prints:

* the measured first-detection-cycle histogram ("the latency figure" the
  paper's model predicts);
* measured vs analytic escape fraction at several latencies c;
* the zero-latency verdicts for stuck-at-0 faults;
* a bursty-traffic ablation (same faults, a different workload value).

Run: ``python examples/fault_injection_campaign.py``
"""

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.decoder.analysis import analyze_decoder
from repro.experiments.common import format_table
from repro.experiments.latency_empirical import survival_curve
from repro.faultsim.injector import decoder_fault_list, rom_fault_list
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import CampaignEngine, Workload


def main() -> None:
    n_bits, cycles = 6, 500
    code = MOutOfNCode(3, 5)
    mapping = mapping_for_code(code, n_bits)
    checked = CheckedDecoder(mapping)
    checker = MOutOfNChecker(code.m, code.n, structural=False)
    engine = CampaignEngine()  # vector fast path, collapsing on

    faults = decoder_fault_list(checked) + rom_fault_list(checked)
    print(
        f"decoder: {checked.tree.circuit.num_gates - len(checked.rom_nets)}"
        f" tree gates + {len(checked.rom_nets)} ROM columns, "
        f"{len(faults)} stuck-at faults"
    )

    workload = Workload.uniform(1 << n_bits, cycles, seed=42)
    result = engine.decoder(checked, checker, faults, workload)
    print(f"coverage within {cycles} random cycles: {result.coverage:.3f}")

    print("\nfirst-detection-cycle histogram:")
    for rng, count in result.latency_histogram([1, 2, 5, 10, 20, 50]).items():
        bar = "#" * min(60, count)
        print(f"  {rng:>10}: {count:4d} {bar}")

    analysis = analyze_decoder(checked.tree, mapping)
    curve = survival_curve(result, analysis, [1, 2, 5, 10, 20, 50, 100])
    rows = [
        [c, f"{m:.4f}", f"{a:.4f}"] for c, (m, a) in sorted(curve.items())
    ]
    print("\nescape fraction (tree faults), measured vs analytic:")
    print(format_table(["c", "measured", "analytic"], rows))

    sa0 = [r for r in result.records if r.kind == "sa0" and r.detected]
    zero = sum(1 for r in sa0 if r.latency == 0)
    print(
        f"\nstuck-at-0 zero-latency: {zero}/{len(sa0)} detected on the "
        f"first erroneous cycle (paper claims all)"
    )

    # The model assumes uniform traffic; bursty traffic detects slower.
    bursty = Workload.bursty(1 << n_bits, cycles, locality=4, seed=42)
    bursty_result = engine.decoder(
        checked, checker, decoder_fault_list(checked), bursty,
        attach_analytic=False,
    )
    print(
        f"\nbursty traffic ablation: escape at c=10 is "
        f"{bursty_result.escape_fraction_at(10):.3f} vs "
        f"{result.escape_fraction_at(10):.3f} under uniform traffic"
    )


if __name__ == "__main__":
    main()
