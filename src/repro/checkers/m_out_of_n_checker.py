"""m-out-of-n checker — verifies the decoder-check ROM outputs (fig. 3).

Structural realisation: a **sorting network** over the r observed bits
using AND/OR comparators (max/min of two bits), descending order.  After
sorting, ``sorted[m-1] = [weight >= m]`` and ``sorted[m] = [weight >= m+1]``,
so the pair ``(sorted[m-1], sorted[m])`` is

* ``(1, 0)`` — valid two-rail pair — iff the weight is exactly ``m``,
* ``(0, 0)`` when the weight is below ``m``,
* ``(1, 1)`` when it is above.

The network is code-disjoint by construction (it computes exact weight
thresholds); :mod:`repro.checkers.properties` verifies code-disjointness
and self-testing exhaustively for the sizes used by the paper's tables.
A behavioural fast path (popcount) backs the fault-injection campaigns,
where the checker is assumed fault-free and only its *function* matters.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.checkers.base import Checker
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel import lanes_equal_const, popcount_slices

__all__ = ["MOutOfNChecker", "build_sorting_network", "build_bitonic_sorter"]


def _compare_exchange(
    circuit: Circuit, hi_net: int, lo_net: int, name: str
) -> Tuple[int, int]:
    """(max, min) of two bits: OR gives the larger, AND the smaller."""
    mx = circuit.add_gate(GateType.OR, (hi_net, lo_net), name=f"{name}_mx")
    mn = circuit.add_gate(GateType.AND, (hi_net, lo_net), name=f"{name}_mn")
    return mx, mn


def build_sorting_network(
    circuit: Circuit, nets: Sequence[int], name: str = "sort"
) -> List[int]:
    """Sort bit nets into descending order (index 0 = largest).

    Odd-even transposition network: ``n`` rounds of adjacent
    compare-exchanges, ``O(n^2)`` comparators of 2 gates each.  For the
    paper's widest code (r = 18) that is ~300 comparators — negligible
    next to the ROM, matching the paper's "checker area is insignificant".
    """
    bits = list(nets)
    n = len(bits)
    if n == 0:
        raise ValueError("cannot sort zero nets")
    for rnd in range(n):
        start = rnd % 2
        for i in range(start, n - 1, 2):
            mx, mn = _compare_exchange(
                circuit, bits[i], bits[i + 1], name=f"{name}_r{rnd}_{i}"
            )
            bits[i], bits[i + 1] = mx, mn
    return bits


#: Backwards-compatible alias (the first release used a Batcher sorter).
build_bitonic_sorter = build_sorting_network


class MOutOfNChecker(Checker):
    """Checker for the m-out-of-n code.

    >>> chk = MOutOfNChecker(2, 4)
    >>> chk.accepts((1, 0, 1, 0))
    True
    >>> chk.accepts((1, 1, 1, 0))
    False
    >>> chk.accepts((0, 0, 0, 0))
    False
    """

    def __init__(self, m: int, n: int, structural: bool = True):
        if not 0 < m < n:
            raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.input_width = n
        self.structural = structural
        self.circuit = None
        if structural:
            self.circuit = Circuit(f"checker_{m}_of_{n}")
            nets = self.circuit.add_inputs([f"x{i}" for i in range(n)])
            sorted_nets = build_sorting_network(self.circuit, nets)
            # sorted[m-1] == [weight >= m]; sorted[m] == [weight >= m+1]
            self.circuit.mark_output(sorted_nets[m - 1], "z1")
            self.circuit.mark_output(sorted_nets[m], "z2")

    def __repr__(self) -> str:
        mode = "structural" if self.structural else "behavioural"
        return f"MOutOfNChecker({self.m}-out-of-{self.n}, {mode})"

    def indication(self, word: Sequence[int]) -> Tuple[int, int]:
        if len(word) != self.input_width:
            raise ValueError(
                f"expected {self.input_width} bits, got {len(word)}"
            )
        if self.structural:
            z1, z2 = self.circuit.evaluate(list(word))
            return z1, z2
        weight = sum(word)
        return (1 if weight >= self.m else 0, 1 if weight >= self.m + 1 else 0)

    def accepts_lanes(self, columns, mask):
        """Lanes with weight exactly ``m``, via carry-save popcount.

        The sorting network computes exact weight thresholds, so this
        matches the structural realisation on *every* input word, not
        just code words (verified exhaustively by the test suite).
        """
        self._check_lane_columns(columns)
        slices = popcount_slices(columns, mask)
        return lanes_equal_const(slices, self.m, mask, columns[0].shape)

    def gate_count(self) -> int:
        """Gates in the structural realisation (feeds the area model)."""
        if self.circuit is None:
            checker = MOutOfNChecker(self.m, self.n, structural=True)
            return checker.circuit.num_gates
        return self.circuit.num_gates
