"""Bit-parallel circuit evaluation (parallel-pattern single-fault style).

Classic logic-simulation acceleration: pack W stimuli into one machine
word per net (lane k of a net's word is the net's value under stimulus
k), and evaluate each gate once per *pass* with bitwise operators instead
of once per stimulus.  Python integers are arbitrary-width, so W is
limited only by memory; campaigns here use W = the whole address stream.

Supports the same stuck-at fault injection as the serial evaluator (a
stuck net/pin is stuck in every lane).  The test suite proves lane-exact
equivalence with :meth:`repro.circuits.netlist.Circuit.evaluate`, and the
bench measures the speedup on decoder-campaign workloads (an order of
magnitude in pure Python).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.faults import FaultBase
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit

__all__ = [
    "pack_stimuli",
    "unpack_outputs",
    "packed_gate_word",
    "evaluate_packed",
    "packed_rom_words",
    "popcount_lanes",
    "lanes_equal_const",
    "xor_fold_lanes",
    "first_set_lane",
]


def packed_gate_word(
    gate_type: GateType, ins: Sequence[int], mask: int
) -> int:
    """One gate's output lane-word from its input lane-words.

    The per-lane gate semantics of :func:`evaluate_packed` (the vector
    engine's ``_VectorCircuit`` mirrors them over NumPy lanes); per lane
    it matches :func:`repro.circuits.gates.evaluate_gate`.
    """
    if gate_type is GateType.AND:
        acc = mask
        for word in ins:
            acc &= word
    elif gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = 0
        for word in ins:
            acc |= word
        if gate_type is GateType.NOR:
            acc = ~acc & mask
    elif gate_type is GateType.NAND:
        acc = mask
        for word in ins:
            acc &= word
        acc = ~acc & mask
    elif gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = 0
        for word in ins:
            acc ^= word
        if gate_type is GateType.XNOR:
            acc = ~acc & mask
    elif gate_type is GateType.NOT:
        acc = ~ins[0] & mask
    elif gate_type is GateType.BUF:
        acc = ins[0]
    elif gate_type is GateType.CONST0:
        acc = 0
    else:  # CONST1
        acc = mask
    return acc


def pack_stimuli(stimuli: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Pack per-stimulus input vectors into one lane-word per input.

    Returns ``(packed_inputs, num_lanes)`` where
    ``packed_inputs[i] >> k & 1`` is input ``i``'s value under stimulus
    ``k``.

    >>> pack_stimuli([(1, 0), (0, 0), (1, 1)])
    ([5, 4], 3)
    """
    if not stimuli:
        raise ValueError("need at least one stimulus")
    width = len(stimuli[0])
    packed = [0] * width
    for lane, vector in enumerate(stimuli):
        if len(vector) != width:
            raise ValueError("all stimuli must have the same width")
        for i, bit in enumerate(vector):
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0/1, got {bit!r}")
            packed[i] |= bit << lane
    return packed, len(stimuli)


def unpack_outputs(
    packed_outputs: Sequence[int], num_lanes: int
) -> List[Tuple[int, ...]]:
    """Inverse of :func:`pack_stimuli` for the output side."""
    return [
        tuple((word >> lane) & 1 for word in packed_outputs)
        for lane in range(num_lanes)
    ]


def evaluate_packed(
    circuit: Circuit,
    packed_inputs: Sequence[int],
    num_lanes: int,
    faults: Sequence[FaultBase] = (),
) -> List[int]:
    """Evaluate all lanes at once; returns one lane-word per output.

    Semantics per lane are identical to ``circuit.evaluate``; stuck-at
    faults force their net/pin in every lane.
    """
    if len(packed_inputs) != len(circuit.input_nets):
        raise ValueError(
            f"expected {len(circuit.input_nets)} packed inputs, "
            f"got {len(packed_inputs)}"
        )
    mask = (1 << num_lanes) - 1

    net_faults: Dict[int, int] = {}
    pin_faults: Dict[Tuple[int, int], int] = {}
    for fault in faults:
        fault.register(net_faults, pin_faults)

    def forced_word(value: int) -> int:
        return mask if value else 0

    values: List[int] = [0] * circuit.num_nets
    for net, word in zip(circuit.input_nets, packed_inputs):
        if word < 0 or word > mask:
            raise ValueError("packed input exceeds the lane mask")
        forced = net_faults.get(net)
        values[net] = word if forced is None else forced_word(forced)

    for gate in circuit.gates:
        ins: List[int] = []
        for pin, src in enumerate(gate.inputs):
            forced = pin_faults.get((gate.index, pin))
            ins.append(
                values[src] if forced is None else forced_word(forced)
            )
        acc = packed_gate_word(gate.gate_type, ins, mask)
        forced = net_faults.get(gate.output)
        values[gate.output] = acc if forced is None else forced_word(forced)

    return [values[net] for net in circuit.output_nets]


def popcount_lanes(words: Sequence[int], mask: int) -> List[int]:
    """Lane-wise population count over a column of lane-words.

    Carry-save (bit-sliced counter) addition: the result is a list of
    count-slice words, LSB slice first — lane ``k``'s count is
    ``sum(((s >> k) & 1) << i for i, s in enumerate(slices))``.  One
    ripple pass per input word, ``O(len(words) * log len(words))`` word
    operations in total, no unpacking.

    >>> popcount_lanes([0b11, 0b01, 0b01], 0b11)   # lane0: 3 ones, lane1: 1
    [3, 1]
    """
    slices: List[int] = []
    for word in words:
        carry = word & mask
        for i in range(len(slices)):
            if not carry:
                break
            slices[i], carry = slices[i] ^ carry, slices[i] & carry
        if carry:
            slices.append(carry)
    return slices


def lanes_equal_const(
    slices: Sequence[int], value: int, mask: int
) -> int:
    """Lanes whose bit-sliced count equals ``value``; returns a lane-word.

    ``slices`` is the LSB-first output of :func:`popcount_lanes`.

    >>> bin(lanes_equal_const([3, 1], 3, 0b11))   # lane counts are (3, 1)
    '0b1'
    """
    if value < 0 or (value >> len(slices)):
        return 0
    acc = mask
    for i, word in enumerate(slices):
        acc &= word if (value >> i) & 1 else ~word & mask
        if not acc:
            break
    return acc


def xor_fold_lanes(words: Sequence[int]) -> int:
    """Lane-wise parity of a column of lane-words (XOR reduction)."""
    fold = 0
    for word in words:
        fold ^= word
    return fold


def first_set_lane(word: int) -> Optional[int]:
    """Index of the lowest set bit, or None for 0 — the packed
    counterpart of 'first cycle where something happened'."""
    if word <= 0:
        return None
    return (word & -word).bit_length() - 1


def packed_rom_words(
    checked,
    addresses: Sequence[int],
    faults: Sequence[FaultBase] = (),
) -> List[Tuple[int, ...]]:
    """All ROM words of a :class:`~repro.rom.nor_matrix.CheckedDecoder`
    for an address stream, in one packed pass.

    Returns one ROM word per address (stream order) — the fast path for
    long campaigns: one netlist traversal instead of ``len(addresses)``.
    """
    n = checked.n
    stimuli = [
        [(address >> bit) & 1 for bit in range(n)] for address in addresses
    ]
    packed, lanes = pack_stimuli(stimuli)
    outputs = evaluate_packed(
        checked.circuit, packed, lanes, faults=faults
    )
    rom_packed = outputs[1 << n :]
    return unpack_outputs(rom_packed, lanes)
