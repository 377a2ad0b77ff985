"""X8 — fault collapsing on the paper's decoder trees.

EDA housekeeping that makes exhaustive campaigns affordable: structural
equivalence classes shrink the stuck-at fault list of the AND-tree
decoders substantially, with provably zero loss (classes are functionally
indistinguishable — re-proven here on a real tree by simulation).
"""

import pytest

from repro.circuits.equivalence import collapse_faults
from repro.decoder.tree import DecoderTree


def test_bench_collapse_decoder(benchmark):
    tree = DecoderTree(6)
    classes = benchmark(collapse_faults, tree.circuit)
    assert classes.num_classes > 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_collapse_ratio_improves_with_size(n):
    tree = DecoderTree(n)
    classes = collapse_faults(tree.circuit)
    print(
        f"\nn={n}: {classes.total} faults -> {classes.num_classes} classes "
        f"(ratio {classes.collapse_ratio:.2f})"
    )
    assert classes.collapse_ratio < 0.75


def test_collapsed_campaign_matches_full_campaign():
    from repro.checkers.m_out_of_n_checker import MOutOfNChecker
    from repro.circuits.faults import enumerate_stuck_at_faults
    from repro.codes.m_out_of_n import MOutOfNCode
    from repro.core.mapping import mapping_for_code
    from repro.faultsim.campaign import decoder_campaign
    from repro.rom.nor_matrix import CheckedDecoder
    from repro.scenarios import Workload

    mapping = mapping_for_code(MOutOfNCode(3, 5), 4)
    checked = CheckedDecoder(mapping)
    checker = MOutOfNChecker(3, 5, structural=False)
    stream = Workload.sequential(16, 32)

    # the full universe: stem AND pin faults (address inputs excluded —
    # out of the scheme's fault model)
    full_faults = enumerate_stuck_at_faults(
        checked.tree.circuit, include_inputs=False, include_pins=True
    )
    classes = collapse_faults(checked.tree.circuit, full_faults)
    reps = [cls[0] for cls in classes.classes]

    full = decoder_campaign(
        checked, checker, full_faults, stream, attach_analytic=False
    )
    collapsed = decoder_campaign(
        checked, checker, reps, stream, attach_analytic=False
    )
    # identical coverage from the collapsed list, at a fraction of the work
    assert collapsed.coverage == full.coverage == 1.0
    assert len(reps) < len(full_faults)
    print(
        f"\ncampaign size: {len(full_faults)} -> {len(reps)} faults "
        f"({100 * (1 - len(reps) / len(full_faults)):.0f} % saved)"
    )
