"""X3 — the zero-latency claims of §III, verified exhaustively.

* every stuck-at-0 in the decoder tree: first erroneous cycle detected
  (all-1s out of the NOR matrix);
* every stuck-at-1 in a block with 2^i <= a: first erroneous cycle
  detected (m1 != m2 implies different residues);
* the [NIC 94] identity-mapping endpoint: *every* fault zero-latency.
"""

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import IdentityMapping, mapping_for_code
from repro.decoder.analysis import analyze_decoder
from repro.faultsim.campaign import decoder_campaign
from repro.faultsim.injector import decoder_fault_list
from repro.results import fault_id
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import Workload

N_BITS = 5


def exhaustive_zero_latency_run(mapping, code):
    checked = CheckedDecoder(mapping)
    checker = MOutOfNChecker(code.m, code.n, structural=False)
    faults = decoder_fault_list(checked)
    # sweep every address twice: every fault is excited at least once
    addresses = Workload.sequential(1 << N_BITS, 2 << N_BITS)
    result = decoder_campaign(checked, checker, faults, addresses)
    return checked, result


def test_bench_exhaustive_sweep(benchmark):
    code = MOutOfNCode(3, 5)
    mapping = mapping_for_code(code, N_BITS)
    _, result = benchmark.pedantic(
        exhaustive_zero_latency_run,
        args=(mapping, code),
        iterations=1,
        rounds=3,
    )
    assert result.total > 0


def test_sa0_always_zero_latency():
    code = MOutOfNCode(3, 5)
    checked, result = exhaustive_zero_latency_run(
        mapping_for_code(code, N_BITS), code
    )
    sa0 = [r for r in result.records if r.kind == "sa0"]
    assert sa0
    for record in sa0:
        assert record.first_error is not None  # sweep excites everything
        assert record.detected and record.latency == 0

    print(f"\n{len(sa0)} stuck-at-0 faults, all detected on first error")


def test_small_block_sa1_zero_latency():
    code = MOutOfNCode(3, 5)
    mapping = mapping_for_code(code, N_BITS)
    checked, result = exhaustive_zero_latency_run(mapping, code)
    analysis = analyze_decoder(checked.tree, mapping)
    # records carry the printable fault identity
    zero_sites = {
        fault_id(s.fault) for s in analysis.sa1_sites if s.zero_latency
    }
    checked_count = 0
    for record in result.records:
        if record.kind == "sa1" and record.fault in zero_sites:
            if record.first_error is not None:
                assert record.detected and record.latency == 0
                checked_count += 1
    assert checked_count > 0
    print(f"\n{checked_count} small-block stuck-at-1 faults, latency 0")


def test_identity_endpoint_everything_zero_latency():
    code = MOutOfNCode(4, 8)  # C = 70 >= 2^5
    mapping = IdentityMapping(code, N_BITS)
    checked, result = exhaustive_zero_latency_run(mapping, code)
    excited = [r for r in result.records if r.first_error is not None]
    assert excited
    for record in excited:
        assert record.detected and record.latency == 0
    print(f"\nidentity endpoint: {len(excited)} excited faults, all latency 0")
