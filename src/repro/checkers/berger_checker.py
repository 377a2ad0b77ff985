"""Berger code checker — recount the zeros and compare.

Structural sketch: a sorting network counts the 1s in the information part
(after sorting, bit ``i`` of the descending order is ``[weight > i]``, so
the zero count is readable as a thermometer code), and a comparator checks
it against the stored check field.  We implement the behavioural function
plus a gate-count estimate; the Berger checker only appears in this
library as the zero-latency endpoint's checker ([NIC 94] variant) and in
the §III.1 ablation, where its function — not its internal TSC structure —
is what the experiments exercise.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.checkers.base import Checker
from repro.circuits.parallel import popcount_slices
from repro.codes.berger import BergerCode

__all__ = ["BergerChecker"]


class BergerChecker(Checker):
    """Behavioural checker for :class:`repro.codes.berger.BergerCode`.

    >>> chk = BergerChecker(3)
    >>> chk.accepts((0, 1, 0, 1, 0))   # two zeros, check field = 10
    True
    >>> chk.accepts((0, 1, 0, 0, 0))
    False
    """

    def __init__(self, info_bits: int):
        self.code = BergerCode(info_bits)
        self.input_width = self.code.length

    def indication(self, word: Sequence[int]) -> Tuple[int, int]:
        if len(word) != self.input_width:
            raise ValueError(
                f"expected {self.input_width} bits, got {len(word)}"
            )
        ok = self.code.is_codeword(tuple(word))
        return (1, 0) if ok else (1, 1)

    def __repr__(self) -> str:
        return f"BergerChecker({self.code.info_bits} info bits)"

    def accepts_lanes(self, columns, mask):
        """Lanes where the check field equals the information zero count.

        Carry-save popcount of the complemented information columns
        gives the zero count bit-sliced; the stored check field *is*
        already bit-sliced (MSB-first columns), so acceptance is a
        lane-wise equality of the two without unpacking.
        """
        self._check_lane_columns(columns)
        shape = columns[0].shape
        info = columns[: self.code.info_bits]
        check = columns[self.code.info_bits :]
        zeros = popcount_slices([~word & mask for word in info], mask)
        width = len(check)
        acc = np.array(np.broadcast_to(mask, shape))
        for j in range(width):  # zero count always fits in the field
            counted = zeros[j] if j < len(zeros) else np.uint64(0)
            stored = check[width - 1 - j]  # check field is MSB-first
            acc = acc & (~(counted ^ stored) & mask)
        return acc

    def gate_count_estimate(self) -> int:
        """Rough structural cost: ones-counter (adder tree) + comparator.

        A population counter over ``k`` bits costs about ``k`` full adders
        (~5 gates each); the equality comparator over ``ceil(log2(k+1))``
        bits costs one XNOR per bit plus an AND tree.
        """
        k = self.code.info_bits
        chk = self.code.check_bits
        return 5 * k + 2 * chk
