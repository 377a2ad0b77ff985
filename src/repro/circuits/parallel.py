"""Bit-parallel circuit evaluation over NumPy lane words.

The one lane representation of the library.  A *lane* is one cycle (or
stimulus) of a stream: lane ``64*j + k`` is bit ``k`` of ``uint64``
word ``j``, so a net's value over ``L`` cycles is a ``(W,)`` word row
with ``W = ceil(L/64)``, and under a batch of ``F`` faults an ``(F, W)``
matrix whose row ``f`` is fault ``f``.  Every gate is evaluated once
per batch with NumPy bitwise ops instead of once per cycle and fault
(parallel-pattern, parallel-fault simulation).

:class:`VectorCircuit` is the evaluator, with the same stuck-at
semantics as :meth:`repro.circuits.netlist.Circuit.evaluate` (a stuck
net or pin is stuck in every lane); the packing helpers and the
bit-sliced reductions the checkers' ``accepts_lanes`` are built from
live next to it.  The serial evaluator stays the reference: the test
suite proves lane-exact equality on random netlists.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.faults import FaultBase, NetStuckAt
from repro.circuits.gates import GateType

__all__ = [
    "LIVE_WORDS",
    "FOLDS",
    "VectorCircuit",
    "apply",
    "first_set_lanes",
    "gate_word",
    "judge_lanes",
    "lane_mask",
    "lanes_equal_const",
    "low_pressure_order",
    "or_counts",
    "pack_bool",
    "popcount_slices",
    "unpack_lanes",
]

#: live lane budget (uint64 words) of one fault batch: faults are
#: evaluated in batches whose simultaneously live nets hold about this
#: many words, so peak memory stays bounded however many faults run;
#: results are invariant in the batch size
LIVE_WORDS = 1 << 17


# -- lane packing ------------------------------------------------------------


def lane_mask(num_lanes: int):
    """(W,) uint64 word array with the low ``num_lanes`` lane bits set."""
    words = (num_lanes + 63) // 64
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = num_lanes % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def pack_bool(bits):
    """Pack a (..., L) 0/1 array into (..., ceil(L/64)) uint64 lanes.

    Lane ``k`` of word ``j`` is element ``64*j + k``.  Any memory layout
    is accepted (a transposed stimulus matrix, for one).
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    length = bits.shape[-1]
    pad = (length + 63) // 64 * 64 - length
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def unpack_lanes(words, num_lanes: int):
    """(..., W) uint64 lane words -> (..., num_lanes) bool, the inverse
    of :func:`pack_bool`."""
    bits = np.unpackbits(
        np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
        axis=-1,
        bitorder="little",
    )
    return bits[..., :num_lanes].astype(bool)


def first_set_lanes(words):
    """Per-row index of the lowest set lane bit of (F, W) words; -1
    where a row is all zero.

    First nonzero word via ``argmax`` over the word axis, then the
    trailing-zero count of its isolated lowest bit (``w & -w``).
    """
    nonzero = words != 0
    has = nonzero.any(axis=1)
    first_word = np.argmax(nonzero, axis=1)
    rows = np.arange(words.shape[0])
    picked = words[rows, first_word]
    isolated = picked & (~picked + np.uint64(1))
    if hasattr(np, "bitwise_count"):
        trailing = np.bitwise_count(isolated - np.uint64(1))
    else:  # pragma: no cover - NumPy < 2 fallback
        # isolated is 0 or a power of two: float64 log2 is exact
        trailing = np.log2(
            np.maximum(isolated, np.uint64(1)).astype(np.float64)
        )
    out = first_word.astype(np.int64) * 64 + trailing.astype(np.int64)
    out[~has] = -1
    return out


# -- lane reductions ---------------------------------------------------------


def popcount_slices(columns, mask):
    """Carry-save lane popcount over bit columns, LSB slice first.

    Lane ``k``'s count is ``sum(slice_i[k] << i)``: one ripple pass per
    input column, ``O(len(columns) * log len(columns))`` word ops, no
    unpacking.
    """
    slices: List = []
    for word in columns:
        carry = word & mask
        for i in range(len(slices)):
            if not carry.any():
                break
            slices[i], carry = slices[i] ^ carry, slices[i] & carry
        if carry.any():
            slices.append(carry)
    return slices


def or_counts(rows):
    """``(ones, twos)`` over axis 0 of a (K, ...) word stack, K >= 1:
    the bits set in at least one row, and in at least two.

    The OR of every row but row ``x`` is then ``twos | (ones &
    ~rows[x])``, for all ``x`` at once.  A bit is in ``twos`` when some
    row has it and so does a row before it: one running OR (the only
    temporary, no larger than the stack) turned in place into those
    overlaps, then reduced.
    """
    seen = np.bitwise_or.accumulate(rows, axis=0)
    overlap = seen[:-1]
    np.bitwise_and(overlap, rows[1:], out=overlap)
    return seen[-1], np.bitwise_or.reduce(overlap, axis=0)


def lanes_equal_const(slices, value: int, mask, shape):
    """Lane words of ``shape`` set where the bit-sliced count
    ``slices`` (from :func:`popcount_slices`) equals ``value``."""
    if value < 0 or (value >> len(slices) if slices else value):
        return np.zeros(shape, dtype=np.uint64)
    acc = np.array(np.broadcast_to(mask, shape))
    for i, word in enumerate(slices):
        acc = acc & (word if (value >> i) & 1 else ~word & mask)
    return acc


def judge_lanes(columns, mask, accepts: Callable[[Tuple[int, ...]], bool]):
    """Lane words set where ``accepts`` holds for the lane's word.

    ``columns[b]`` carries bit ``b`` of the observed words, each (W,) or
    (F, W).  The lanes of ``mask`` are unpacked and every distinct word
    is judged once, so an arbitrary predicate costs one call per word
    value, not one per lane.
    """
    columns = np.broadcast_arrays(*columns)
    lanes = int(unpack_lanes(mask, 64 * mask.shape[0]).sum())
    bits = np.stack(
        [unpack_lanes(column, lanes) for column in columns], axis=-1
    ).astype(np.uint8)
    distinct, inverse = np.unique(
        bits.reshape(-1, len(columns)), axis=0, return_inverse=True
    )
    verdict = np.array(
        [bool(accepts(tuple(word))) for word in distinct.tolist()],
        dtype=bool,
    )
    accepted = verdict[inverse.reshape(-1)].reshape(bits.shape[:-1])
    return pack_bool(accepted) & mask


# -- gate evaluation ---------------------------------------------------------


#: fan-in from which an associative gate folds each input in as soon as
#: it is produced (the ROM columns read hundreds of word lines)
_WIDE_FANIN = 3

#: the NumPy fold of each associative gate type; the inverting types
#: negate the folded word once, at the end
FOLDS = {
    GateType.AND: np.bitwise_and,
    GateType.NAND: np.bitwise_and,
    GateType.OR: np.bitwise_or,
    GateType.NOR: np.bitwise_or,
    GateType.XOR: np.bitwise_xor,
    GateType.XNOR: np.bitwise_xor,
}
_INVERTING = (GateType.NAND, GateType.NOR, GateType.XNOR)


def gate_word(gate_type, ins, mask):
    """Lane words of a gate with no NumPy fold: NOT, BUF, the constants
    and input-less associative gates (their identity)."""
    if gate_type is GateType.NOT:
        return ~ins[0] & mask
    if gate_type is GateType.BUF:
        return ins[0]
    ones = gate_type in (GateType.CONST1, GateType.AND, GateType.NAND)
    word = mask.copy() if ones else np.zeros_like(mask)
    return ~word & mask if gate_type in _INVERTING else word


def apply(step, ins, mask):
    """One gate's lane words from its input lane words; per lane this is
    :func:`repro.circuits.gates.evaluate_gate`."""
    gate, fold, invert, _ = step
    if fold is None:
        return gate_word(gate.gate_type, ins, mask)
    word = ins[0]
    for other in ins[1:]:
        word = fold(word, other)
    return ~word & mask if invert else word


def low_pressure_order(circuit, wide: Sequence[bool]) -> List[int]:
    """Gate indices in a topological order that keeps few nets live.

    Greedy list scheduling: of the gates whose inputs are all produced,
    run the one that frees the most nets (it is their last reader),
    less one if its own output must be held, the most recently readied
    first; this never reorders any gate before its inputs.  A decoder
    tree then finishes the readers of each low-range line before it
    builds the next one, instead of holding a whole level.  ``wide``
    gates fold their inputs as they come, so they hold no net and run
    as soon as they are ready.
    """
    gates = circuit.gates
    inputs = [tuple(set(gate.inputs)) for gate in gates]
    readers: List[List[int]] = [[] for _ in range(circuit.num_nets)]
    # unscheduled narrow readers per net: the live-width currency
    left = [0] * circuit.num_nets
    for index, nets in enumerate(inputs):
        for src in nets:
            readers[src].append(index)
            left[src] += not wide[index]
    creates = [left[gate.output] > 0 for gate in gates]
    waiting = [len(nets) for nets in inputs]
    done = [False] * len(gates)
    heap: List[Tuple[int, int, int]] = []
    stamp = itertools.count()

    def push(index: int) -> None:
        if wide[index]:
            score = len(gates)
        else:
            score = -creates[index]
            for src in inputs[index]:
                score += left[src] == 1
        heapq.heappush(heap, (-score, -next(stamp), index))

    def produced(net: int) -> None:
        for index in readers[net]:
            waiting[index] -= 1
            if not waiting[index]:
                push(index)

    for index, nets in enumerate(inputs):
        if not nets:
            push(index)
    for net in circuit.input_nets:
        produced(net)
    order: List[int] = []
    while heap:
        index = heapq.heappop(heap)[2]
        if done[index]:
            continue  # an earlier, higher-scored copy already ran
        done[index] = True
        order.append(index)
        if not wide[index]:
            for src in inputs[index]:
                left[src] -= 1
                if left[src] == 1:  # its last reader now frees it
                    for other in readers[src]:
                        if not (done[other] or waiting[other] or wide[other]):
                            push(other)
        produced(gates[index].output)
    return order


class VectorCircuit:
    """One circuit over (faults x cycle-words) uint64 lane matrices.

    Built once per campaign.  :meth:`golden` runs the fault-free pass of
    one cycle window on (W,) rows; :meth:`evaluate` applies per-fault
    forcing masks from ``fault.register`` and evaluates every gate once
    for a whole batch of faults with NumPy bitwise ops.  A net no fault
    of the batch reaches keeps its (W,) golden row, which costs nothing
    to compute and broadcasts on use, and its gate is not visited: a
    batch of late survivors, a few faults near the outputs, runs only
    their fan-out cones.

    Peak memory follows the circuit's live width, not its size: gates
    run in an order that keeps that width small
    (:func:`low_pressure_order`), every net is freed after its last
    reader, outputs go to a callback as soon as they are final instead
    of being held, wide associative gates (the ROM columns) fold each
    faulted input in as it is produced and their golden inputs in one
    reduction at the end, and faults run in batches sized so the live
    nets and open folds hold about :data:`LIVE_WORDS` words.  The
    narrower the circuit, the more faults share one traversal.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        wide = [
            len(gate.inputs) >= _WIDE_FANIN and gate.gate_type in FOLDS
            for gate in circuit.gates
        ]
        #: (gate, NumPy fold or None, inverting, wide) per gate, in an
        #: evaluation order that keeps the live width small
        self.steps = [
            (
                gate,
                FOLDS.get(gate.gate_type) if gate.inputs else None,
                gate.gate_type in _INVERTING,
                wide[gate.index],
            )
            for gate in (
                circuit.gates[index]
                for index in low_pressure_order(circuit, wide)
            )
        ]
        #: NumPy fold of each wide gate, by gate index
        self.fold_of = {
            gate.index: fold for gate, fold, _, wide in self.steps if wide
        }
        #: per net: the (wide gate, pin) pairs it folds into, and how
        #: many other gate inputs read it
        self.folds: List[List[Tuple[int, int]]] = [
            [] for _ in range(circuit.num_nets)
        ]
        self.reads = [0] * circuit.num_nets
        for gate, _, _, wide in self.steps:
            for pin, src in enumerate(gate.inputs):
                if wide:
                    self.folds[src].append((gate.index, pin))
                else:
                    self.reads[src] += 1
        #: per net: bitmask over ``steps`` of the gates whose output a
        #: fault on the net, or on a pin it feeds, can change — the gate
        #: that drives it and its fan-out cone
        self.reach = [0] * circuit.num_nets
        for pos in range(len(self.steps) - 1, -1, -1):
            gate = self.steps[pos][0]
            cone = 1 << pos | self.reach[gate.output]
            for src in gate.inputs:
                self.reach[src] |= cone
        for pos, step in enumerate(self.steps):
            self.reach[step[0].output] |= 1 << pos
        self.outputs = set(circuit.output_nets)
        #: most nets held at once by :meth:`evaluate` (sizes batches)
        self.live = self._live_width()
        #: wide gates whose output nothing reads, by gate index
        self.sinks = {
            gate.index
            for gate, _, _, wide in self.steps
            if wide and not self.reads[gate.output]
            and not self.folds[gate.output]
        }
        #: per net: the output nets of the wide gates it folds into when
        #: the net is *terminal* — no narrow gate reads it, and each of
        #: those gates reads it at one pin and is a sink — else None.
        #: Forcing a terminal net changes only the net and those gates'
        #: folds (:meth:`terminal_words`).
        self.terminal: List = [None] * circuit.num_nets
        gates = circuit.gates
        for net, folds in enumerate(self.folds):
            readers = {index for index, _ in folds}
            if (
                not self.reads[net]
                and len(readers) == len(folds)
                and readers <= self.sinks
            ):
                self.terminal[net] = tuple(
                    gates[index].output for index, _ in folds
                )

    def _live_width(self) -> int:
        """Most fault-batch matrices :meth:`evaluate` holds at once: the
        nets still to be read plus the open folds of wide gates."""
        reads = self.reads[:]
        folding = set()  # wide gates with a fold in progress
        held = 0
        for net in self.circuit.input_nets:
            folding.update(index for index, _ in self.folds[net])
            held += bool(reads[net])
        peak = held + len(folding)
        for gate, _, _, wide in self.steps:
            if wide:
                folding.discard(gate.index)
            else:
                for src in gate.inputs:
                    reads[src] -= 1
                    held -= not reads[src]
            folding.update(index for index, _ in self.folds[gate.output])
            held += bool(reads[gate.output])
            peak = max(peak, held + len(folding))
        return max(peak, 1)

    def golden(self, packed_inputs, mask):
        """Fault-free lane words of every net for one window: a (nets, W)
        table whose row ``net`` is that net's (W,) lanes, so a window
        costs one allocation.  A wide gate reduces its input rows in one
        NumPy call."""
        table = np.empty(
            (self.circuit.num_nets,) + mask.shape, dtype=np.uint64
        )
        values = list(table)
        for net, word in zip(self.circuit.input_nets, packed_inputs):
            values[net][...] = word
        for step in self.steps:
            gate, fold, invert, wide = step
            if wide:
                word = fold.reduce(table[list(gate.inputs)], axis=0)
                values[gate.output][...] = ~word & mask if invert else word
            else:
                values[gate.output][...] = apply(
                    step, [values[src] for src in gate.inputs], mask
                )
        return table

    def terminal_forces(self, reps: Sequence[FaultBase], lines=frozenset()):
        """``(nets, values)`` int64 arrays over ``reps``: the net and value
        a terminal fault forces, and net -1 for a fault :meth:`evaluate`
        must run gate by gate.

        A fault is terminal when its ``register`` forces exactly one
        net, no pin, and that net is terminal (:attr:`terminal`).  One
        whose wide gates drive a net of ``lines`` is not: callers take
        those nets' faulted words only from a fault forcing them.
        """
        forces = np.full((2, len(reps)), -1, dtype=np.int64)
        num_nets = self.circuit.num_nets
        for pos, fault in enumerate(reps):
            if type(fault) is NetStuckAt:
                net, value = fault.net, fault.value
            else:
                nets: Dict[int, int] = {}
                pins: Dict[Tuple[int, int], int] = {}
                fault.register(nets, pins)
                if pins or len(nets) != 1:
                    continue
                (net, value), = nets.items()
            if (
                0 <= net < num_nets
                and value in (0, 1)
                and self.terminal[net] is not None
                and lines.isdisjoint(self.terminal[net])
            ):
                forces[:, pos] = net, value
        return forces[0], forces[1]

    def terminal_words(self, golden, mask, outputs):
        """``words(nets, values)``: the lane words of each net of
        ``outputs`` under a batch of terminal faults (fault ``f`` forces
        ``nets[f]`` to ``values[f]``), for the window of the
        :meth:`golden` table ``golden``, as one (outputs, F, W) array.

        A fault changes an output it forces, and the output of each wide
        gate reading its net: that gate's word is the fold of its golden
        inputs with the faulted pin's word replaced by the forced one.
        The OR of every other pin is ``twos | (ones & ~pinned)`` with
        :func:`or_counts` over the gate's golden inputs, computed once
        per window; an AND fold is that OR over the complements,
        inverted (De Morgan), and an XOR fold removes the pin's word
        from the XOR of all of them.  Every output of a batch is
        computed in the same few array operations.
        """
        gates = self.circuit.gates
        drivers = {gates[index].output: gates[index] for index in self.sinks}
        outs = np.asarray(outputs, dtype=np.int64)
        shape = (len(outs),) + mask.shape
        member = np.zeros((len(outs), self.circuit.num_nets), dtype=bool)
        ones = np.zeros(shape, dtype=np.uint64)
        twos = np.zeros(shape, dtype=np.uint64)
        # per output: mask where the fold works on complements (AND) and
        # where its result is inverted; an XOR row keeps the XOR of all
        # its inputs in ``ones``
        flip_in = np.zeros(shape, dtype=np.uint64)
        flip_out = np.zeros(shape, dtype=np.uint64)
        xor = []
        for row, net in enumerate(outputs):
            gate = drivers.get(net)
            if gate is None:
                continue
            inputs = list(gate.inputs)
            member[row, inputs] = True
            fold = FOLDS[gate.gate_type]
            if fold is np.bitwise_xor:
                ones[row] = np.bitwise_xor.reduce(golden[inputs], axis=0)
                xor.append(row)
            elif fold is np.bitwise_and:
                ones[row], twos[row] = or_counts(~golden[inputs] & mask)
                flip_in[row] = mask
            else:
                ones[row], twos[row] = or_counts(golden[inputs])
            if (gate.gate_type in _INVERTING) != (fold is np.bitwise_and):
                flip_out[row] = mask

        def words(nets, values):
            forced = np.where(values.astype(bool)[:, None], mask, np.uint64(0))
            pinned = golden[nets]
            flip = flip_in[:, None]
            word = (
                twos[:, None]
                | (ones[:, None] & ~(pinned ^ flip))
                | (forced ^ flip)
            )
            if xor:
                word[xor] = ones[xor][:, None] ^ pinned ^ forced
            word ^= flip_out[:, None]
            word = np.where(
                member[:, nets][..., None], word, golden[outs][:, None]
            )
            own = outs[:, None] == nets
            return np.where(own[..., None], forced, word)

        return words

    def batches(self, count: int, words: int) -> List[slice]:
        """Slices of a ``count``-fault list whose batches keep about
        :data:`LIVE_WORDS` words live in :meth:`evaluate`."""
        step = max(1, LIVE_WORDS // (self.live * words))
        return [slice(start, start + step) for start in range(0, count, step)]

    def evaluate(self, golden, reps: Sequence[FaultBase], mask, consume):
        """Run every fault of ``reps`` at once over one window
        (``golden``: its :meth:`golden` table);
        ``consume(net, rows)`` receives each output net's lane words
        once they are final: an (F, W) matrix (row ``f`` = fault
        ``reps[f]``), or the (W,) golden row when no fault reaches the
        net."""
        shape = (len(reps),) + mask.shape
        # fault rows forced per net / (gate, pin): ([to 0], [to 1])
        net_forces: Dict[int, Tuple[List[int], List[int]]] = {}
        pin_forces: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}
        for index, fault in enumerate(reps):
            nets: Dict[int, int] = {}
            pins: Dict[Tuple[int, int], int] = {}
            fault.register(nets, pins)
            for net, forced in nets.items():
                net_forces.setdefault(net, ([], []))[forced].append(index)
            for key, forced in pins.items():
                pin_forces.setdefault(key, ([], []))[forced].append(index)
        pinned_gates = {gate for gate, _ in pin_forces}

        def force(word, forces):
            if forces is None:
                return word
            rows = np.empty(shape, dtype=np.uint64)
            rows[...] = word
            rows[forces[0]] = 0
            rows[forces[1]] = mask
            return rows

        # the nets the faults act on (a pin fault acts where its source
        # net is produced) and the gates they reach: only those gates
        # run, every other net keeps its golden row
        gates = self.circuit.gates
        sources = set(net_forces)
        sources.update(gates[gate].inputs[pin] for gate, pin in pin_forces)
        reached = 0
        for net in sources:
            reached |= self.reach[net]
        rows = list(golden)  # each net's (W,) golden row, one view each
        values = rows[:]
        reads = self.reads[:]
        consumed: set = set()
        # wide gate -> (pins a fault reaches, fold of those pins' words);
        # its golden inputs are folded in at the gate, in one reduction
        partial: Dict[int, tuple] = {}
        folds = self.folds
        fold_of = self.fold_of
        outputs = self.outputs

        def produce(net, word):
            if net in net_forces:
                word = force(word, net_forces[net])
            for gate_index, pin in folds[net]:
                pinned = word
                if pin_forces:
                    pinned = force(word, pin_forces.get((gate_index, pin)))
                if pinned.ndim == 1:  # a golden row
                    continue
                slot = partial.get(gate_index)
                if slot is None:
                    partial[gate_index] = ({pin}, pinned.copy())
                else:
                    slot[0].add(pin)
                    fold_of[gate_index](slot[1], pinned, out=slot[1])
            if net in outputs:
                consume(net, word)
                consumed.add(net)
            if reads[net]:
                values[net] = word

        for net in self.circuit.input_nets:
            if net in sources:
                produce(net, rows[net])
        steps = self.steps
        while reached:  # the reached steps, in order
            low = reached & -reached
            reached ^= low
            step = steps[low.bit_length() - 1]
            gate, fold, invert, wide = step
            if wide:
                slot = partial.pop(gate.index, None)
                if slot is None:  # no fault of the batch reaches it
                    word = rows[gate.output]
                else:
                    faulted, word = slot
                    clean = [
                        src
                        for pin, src in enumerate(gate.inputs)
                        if pin not in faulted
                    ]
                    if clean:
                        fold(
                            word, fold.reduce(golden[clean], axis=0), out=word
                        )
                    if invert:
                        word = ~word & mask
            else:
                if gate.index in pinned_gates:
                    word = apply(
                        step,
                        [
                            force(
                                values[src],
                                pin_forces.get((gate.index, pin)),
                            )
                            for pin, src in enumerate(gate.inputs)
                        ],
                        mask,
                    )
                else:
                    ins = [values[src] for src in gate.inputs]
                    if any(
                        value is not rows[src]
                        for value, src in zip(ins, gate.inputs)
                    ):
                        word = apply(step, ins, mask)
                    else:  # no fault of the batch reaches this gate
                        word = rows[gate.output]
                for src in gate.inputs:
                    reads[src] -= 1
                    if not reads[src]:
                        values[src] = None
            produce(gate.output, word)
        for net in self.circuit.output_nets:
            if net not in consumed:  # no fault of the batch reaches it
                consume(net, rows[net])
                consumed.add(net)
