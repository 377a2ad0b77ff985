"""Self-checking parity checker — the data-path checker of figure 3.

Classic construction: split the observed word (data + parity bit) into
two non-empty groups, XOR-reduce each, and emit the two group parities as
the error-indication rails.  For an even-parity code word the group
parities are equal, so one rail is inverted to produce a valid two-rail
pair; any odd error flips exactly one group parity and lands the
indication on 00/11.  Faults inside either XOR tree flip one rail only,
so the checker is self-testing under normal (code-word) traffic.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.checkers.base import Checker
from repro.circuits.builders import xor_tree
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit

__all__ = ["ParityChecker"]


class ParityChecker(Checker):
    """Two-rail parity checker over ``width`` observed bits.

    ``even=True`` accepts words with an even number of 1s (the default
    matches :class:`repro.codes.parity.ParityCode`).

    >>> chk = ParityChecker(4)
    >>> chk.accepts((1, 0, 1, 0))
    True
    >>> chk.accepts((1, 0, 0, 0))
    False
    """

    def __init__(self, width: int, even: bool = True):
        if width < 2:
            raise ValueError(
                f"parity checker needs >= 2 observed bits, got {width}"
            )
        self.input_width = width
        self.even = even
        self.circuit = Circuit(f"parity_checker_{width}")
        nets = self.circuit.add_inputs([f"d{i}" for i in range(width)])
        half = width // 2
        group_a = xor_tree(self.circuit, nets[:half], name="pa")
        group_b = xor_tree(self.circuit, nets[half:], name="pb")
        if even:
            # Code words have equal group parities: invert one rail.
            group_b = self.circuit.add_gate(
                GateType.NOT, (group_b,), name="pb_n"
            )
        self.circuit.mark_output(group_a, "z1")
        self.circuit.mark_output(group_b, "z2")

    def indication(self, word: Sequence[int]) -> Tuple[int, int]:
        if len(word) != self.input_width:
            raise ValueError(
                f"expected {self.input_width} bits, got {len(word)}"
            )
        z1, z2 = self.circuit.evaluate(list(word))
        return z1, z2

    def __repr__(self) -> str:
        parity = "even" if self.even else "odd"
        return f"ParityChecker({self.input_width} bits, {parity})"

    def accepts_lanes(self, columns, mask):
        """Lanes with the accepted total parity, via one XOR fold.

        The two-group construction accepts exactly the words of even
        (resp. odd) total parity, so the lane form is a lane-wise
        parity of all observed columns.
        """
        self._check_lane_columns(columns)
        fold = np.zeros(columns[0].shape, dtype=np.uint64)
        for word in columns:
            fold = fold ^ word
        fold = fold & mask
        return ~fold & mask if self.even else fold
