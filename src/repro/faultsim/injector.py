"""Fault-list construction for campaigns.

Stimuli are :class:`repro.scenarios.Workload` values (``uniform``,
``sequential``, ``bursty``, ``scrubbed``, ``march``, ...).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.circuits.faults import FaultBase, NetStuckAt
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "decoder_fault_list",
    "rom_fault_list",
    "sample_faults",
]


def decoder_fault_list(
    checked: CheckedDecoder, include_inputs: bool = False
) -> List[FaultBase]:
    """Stuck-at faults on every gate output of the decoder *tree* only.

    ROM faults are enumerated separately (:func:`rom_fault_list`) since
    the paper's analysis targets decoder faults; address-input stems are
    excluded by default (out of the scheme's fault model — see
    :mod:`repro.decoder.analysis`).
    """
    faults: List[FaultBase] = []
    if include_inputs:
        for net in checked.tree.circuit.input_nets:
            for value in (0, 1):
                faults.append(NetStuckAt(net, value))
    for gate in checked.tree.circuit.gates:
        for value in (0, 1):
            faults.append(NetStuckAt(gate.output, value))
    return faults


def rom_fault_list(checked: CheckedDecoder) -> List[FaultBase]:
    """Stuck-at faults on the NOR-matrix output nets.

    A ROM output stuck-at flips one bit of every emitted word — caught by
    the m-out-of-n checker whenever the programmed bit differs (the word
    weight goes off-m), which the X3 bench quantifies.
    """
    faults: List[FaultBase] = []
    for net in checked.rom_nets:
        for value in (0, 1):
            faults.append(NetStuckAt(net, value))
    return faults


def sample_faults(
    faults: Sequence[FaultBase], count: Optional[int], seed: int = 0
) -> List[FaultBase]:
    """Deterministic sub-sample for time-boxed campaigns (None = all)."""
    if count is None or count >= len(faults):
        return list(faults)
    rng = random.Random(seed)
    return rng.sample(list(faults), count)
