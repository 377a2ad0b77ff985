"""X7 — deterministic latency guarantees under scanning address streams.

Extension of the paper's probabilistic model: under a periodic sweep
(March-style scrub) every decoder fault has a hard worst-case detection
bound.  The bench computes the bound for a full decoder, checks it
dominates a measured sweep campaign, and shows the §III.1 ablation
mapping has *no* finite guarantee.
"""

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.deterministic import deterministic_bounds, scan_guarantee
from repro.core.mapping import TruncatedBergerMapping, mapping_for_code
from repro.faultsim.campaign import decoder_campaign
from repro.faultsim.injector import decoder_fault_list
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload

N_BITS = 5


def test_bench_scan_guarantee(benchmark):
    mapping = mapping_for_code(MOutOfNCode(3, 5), N_BITS)
    checked = CheckedDecoder(mapping)
    guarantee = benchmark(scan_guarantee, checked.tree, mapping)
    assert guarantee is not None


def test_guarantee_dominates_measurement():
    mapping = mapping_for_code(MOutOfNCode(3, 5), N_BITS)
    checked = CheckedDecoder(mapping)
    guarantee = scan_guarantee(checked.tree, mapping)
    print(f"\nscan guarantee: every decoder fault within {guarantee} cycles")
    assert guarantee == 1 << N_BITS  # slowest: s-a-0 excited once/sweep

    stream = Workload.sequential(1 << N_BITS, 2 << N_BITS)
    result = decoder_campaign(
        checked,
        MOutOfNChecker(3, 5, structural=False),
        decoder_fault_list(checked),
        stream,
        attach_analytic=False,
    )
    assert result.coverage == 1.0
    assert max(result.detection_cycles()) <= guarantee


def test_sa1_bounds_are_much_tighter_than_sa0():
    mapping = mapping_for_code(MOutOfNCode(3, 5), N_BITS)
    checked = CheckedDecoder(mapping)
    bounds = deterministic_bounds(checked.tree, mapping)
    sa1 = [b.latency for b in bounds if b.site.kind == "sa1"]
    sa0 = [b.latency for b in bounds if b.site.kind == "sa0"]
    assert max(sa1) < max(sa0)
    print(
        f"\nworst s-a-1 bound {max(sa1)} cycles vs worst s-a-0 bound "
        f"{max(sa0)} cycles (excitation-limited)"
    )


def test_ablation_mapping_has_no_guarantee():
    mapping = TruncatedBergerMapping(N_BITS, k=2)
    checked = CheckedDecoder(mapping)
    assert scan_guarantee(checked.tree, mapping) is None
