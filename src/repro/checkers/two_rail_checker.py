"""Totally self-checking two-rail checker (TRC) modules and trees.

The classical TRC cell compresses two rail pairs into one::

    f = a1·a2 + b1·b2        g = a1·b2 + a2·b1

For valid inputs (``bi = ~ai``) this yields ``f = XNOR(a1, a2)`` and
``g = XOR(a1, a2)`` — a valid pair.  Any non-complementary input pair, and
any single internal stuck-at under some valid input, drives the output
off the 1-out-of-2 code.  A balanced tree of cells reduces ``k`` pairs to
the final error indication; it is the last stage of every checker in the
paper's figure 3.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.checkers.base import Checker
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit

__all__ = ["two_rail_cell", "build_two_rail_tree", "TwoRailChecker"]


def two_rail_cell(
    circuit: Circuit,
    pair_a: Tuple[int, int],
    pair_b: Tuple[int, int],
    name: str = "trc",
) -> Tuple[int, int]:
    """Add one TRC cell (4 AND + 2 OR) to ``circuit``; returns (f, g) nets."""
    a1, b1 = pair_a
    a2, b2 = pair_b
    t1 = circuit.add_gate(GateType.AND, (a1, a2), name=f"{name}_a1a2")
    t2 = circuit.add_gate(GateType.AND, (b1, b2), name=f"{name}_b1b2")
    t3 = circuit.add_gate(GateType.AND, (a1, b2), name=f"{name}_a1b2")
    t4 = circuit.add_gate(GateType.AND, (a2, b1), name=f"{name}_a2b1")
    f = circuit.add_gate(GateType.OR, (t1, t2), name=f"{name}_f")
    g = circuit.add_gate(GateType.OR, (t3, t4), name=f"{name}_g")
    return f, g


def build_two_rail_tree(
    circuit: Circuit,
    pairs: Sequence[Tuple[int, int]],
    name: str = "trtree",
) -> Tuple[int, int]:
    """Reduce rail pairs to a single pair with a balanced tree of TRC cells."""
    layer: List[Tuple[int, int]] = list(pairs)
    if not layer:
        raise ValueError("two-rail tree needs at least one input pair")
    level = 0
    while len(layer) > 1:
        nxt: List[Tuple[int, int]] = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(
                two_rail_cell(
                    circuit,
                    layer[i],
                    layer[i + 1],
                    name=f"{name}_l{level}_{i // 2}",
                )
            )
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        level += 1
    return layer[0]


class TwoRailChecker(Checker):
    """Gate-level checker for the two-rail code of ``pairs`` rail pairs.

    >>> chk = TwoRailChecker(3)
    >>> chk.accepts((0, 1, 1, 0, 0, 1))
    True
    >>> chk.accepts((0, 1, 1, 1, 0, 1))
    False
    """

    def __init__(self, pairs: int):
        if pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {pairs}")
        self.pairs = pairs
        self.input_width = 2 * pairs
        self.circuit = Circuit(f"two_rail_checker_{pairs}")
        nets = self.circuit.add_inputs(
            [f"p{i}_{rail}" for i in range(pairs) for rail in ("a", "b")]
        )
        pair_nets = [(nets[2 * i], nets[2 * i + 1]) for i in range(pairs)]
        f, g = build_two_rail_tree(self.circuit, pair_nets)
        self.circuit.mark_output(f, "z1")
        self.circuit.mark_output(g, "z2")

    def indication(self, word: Sequence[int]) -> Tuple[int, int]:
        if len(word) != self.input_width:
            raise ValueError(
                f"expected {self.input_width} bits, got {len(word)}"
            )
        z1, z2 = self.circuit.evaluate(list(word))
        return z1, z2

    def __repr__(self) -> str:
        return f"TwoRailChecker({self.pairs}-pair)"

    def accepts_lanes(self, columns, mask):
        """Lanes where every rail pair is complementary.

        The TRC cell is code-disjoint, so the tree accepts exactly the
        words whose pairs are all complementary: a lane-wise AND over
        per-pair XORs, no unpacking.
        """
        self._check_lane_columns(columns)
        acc = np.array(np.broadcast_to(mask, columns[0].shape))
        for i in range(self.pairs):
            acc = acc & (columns[2 * i] ^ columns[2 * i + 1])
        return acc & mask
