"""NumPy lane-array campaign engine — the one fast path.

Every net carries a ``(faults, cycle_words)`` ``uint64`` lane matrix:
lane ``k`` of a row is cycle ``k`` and row ``f`` is fault ``f``.  Each
gate is evaluated once per fault batch as NumPy bitwise ops broadcast
over the fault axis (golden row + per-fault forcing masks from the
collapsed fault list), and the checkers become array reductions —
carry-save popcount for m-out-of-n/Berger, XOR folds for
parity/two-rail.  ``first_error`` / ``first_detection`` are recovered
per fault with vectorized trailing-bit arithmetic; there is no
per-fault Python in the hot path.

Memory is bounded on both axes.  Campaigns run in cycle windows that
ramp up from one lane word (:func:`_windows`): the first window is 64
lanes and each later one doubles the trace covered so far, up to a cap
of ``chunk`` lanes (:data:`DEFAULT_WINDOW` when unset).  Faults detected
in a window drop out of later ones, mirroring the serial loop's
per-fault ``break``, so the many faults a checked decoder catches
within a few cycles cost one lane word each, not a whole capped window.
The ramp's extra windows stay cheap: the fault-free pass runs once per
cap-wide block (:func:`_block_words`), and the few late survivors run
only the gates they reach.  Within a window, faults run in batches
whose live lane matrices hold about :data:`LIVE_WORDS` words.  Results
are invariant in both sizes (property-tested).  The serial loops of
:mod:`repro.faultsim.campaign` are the bit-identity oracle;
record-by-record equality is part of the test suite.

Structural fault collapsing (:func:`_fault_groups`) and process-pool
sharding (:func:`_map_jobs`) live here too; the transient and march
backends of :class:`repro.scenarios.CampaignEngine` shard through the
same helper.
"""

from __future__ import annotations

import heapq
import itertools
from concurrent import futures
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.checkers.parity_checker import ParityChecker
from repro.checkers.two_rail_checker import TwoRailChecker
from repro.circuits.equivalence import collapse_faults
from repro.circuits.faults import FaultBase, NetStuckAt, PinStuckAt
from repro.circuits.gates import GateType
from repro.core.scheme import SelfCheckingMemory
from repro.results.resultset import ResultRecord, ResultSet, fault_id
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "CAMPAIGN_ENGINES",
    "DEFAULT_WINDOW",
    "check_engine",
    "decoder_campaign_vector",
    "scheme_campaign_vector",
]

#: engine policies accepted by the campaign layer: the fast path and
#: the serial oracle (the circuit-level drivers in
#: :mod:`repro.circuits.simulator` keep their own packed/serial pair)
CAMPAIGN_ENGINES = ("vector", "serial")

#: default cap (lanes) of the vector engine's cycle windows, the
#: bounded-memory width the ramp of :func:`_windows` grows to — per-net
#: lane matrices stay (faults x DEFAULT_WINDOW/64) words however long
#: the stream is; results are invariant in the cap
DEFAULT_WINDOW = 8192

#: width (lanes) of the first cycle window: one lane word
_FIRST_WINDOW = 64

#: live lane budget (uint64 words) of one fault batch: a window's
#: faults are evaluated in batches whose simultaneously live nets hold
#: about this many words, so peak memory stays bounded however many
#: faults a campaign has; results are invariant in the batch size
LIVE_WORDS = 1 << 17


def check_engine(engine: str) -> str:
    """Validate a campaign engine policy; returns it unchanged."""
    if engine not in CAMPAIGN_ENGINES:
        raise ValueError(
            f"engine must be one of {CAMPAIGN_ENGINES}, got {engine!r}"
        )
    return engine


# -- fault collapsing --------------------------------------------------------


def _fault_groups(
    circuit, faults: Sequence[FaultBase], collapse: bool
) -> Tuple[List[FaultBase], Dict[Tuple, int]]:
    """(representatives, fault key -> representative index).

    With ``collapse`` the stuck-at faults are partitioned into
    structural equivalence classes and only the class representative is
    simulated; faults the collapser does not model (custom
    :class:`FaultBase` subclasses) become singleton groups.
    """
    reps: List[FaultBase] = []
    key_to_group: Dict[Tuple, int] = {}
    if collapse and len(faults) > 1:
        known = [
            f for f in faults if isinstance(f, (NetStuckAt, PinStuckAt))
        ]
        if known:
            for cls in collapse_faults(circuit, known).classes:
                gid = len(reps)
                reps.append(cls[0])
                for member in cls:
                    key_to_group[member.key()] = gid
    for fault in faults:
        if fault.key() not in key_to_group:
            key_to_group[fault.key()] = len(reps)
            reps.append(fault)
    return reps, key_to_group


# -- process-pool sharding ---------------------------------------------------


def _chunk(items: List, parts: int) -> List[List]:
    parts = min(parts, len(items))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _map_jobs(worker, context, jobs: List, workers: Optional[int]) -> List:
    """``worker((context, chunk))`` over chunks of ``jobs``, in order.

    In-process by default; ``workers=N`` fans contiguous chunks out
    over a process pool (one pickled context per worker, mirroring the
    ``DesignEngine.sweep`` executor pattern).
    """
    if not jobs:
        return []
    if workers is None or workers <= 1 or len(jobs) == 1:
        return worker((context, jobs))
    chunks = _chunk(jobs, workers)
    with futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = pool.map(
            worker, [(context, chunk) for chunk in chunks]
        )
        out: List = []
        for part in parts:
            out.extend(part)
    return out


# -- cycle windows -----------------------------------------------------------


def _windows(total: int, cap: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` cycle windows covering ``[0, total)`` in order.

    The first window is one lane word (:data:`_FIRST_WINDOW` lanes, or
    ``cap`` if that is smaller).  Each later window doubles the prefix
    covered so far — 64, 64, 128, 256, ... lanes — until the windows
    reach ``cap``, and from there every window is ``cap`` wide.  The
    ramp fills exactly the first ``cap`` lanes, so full windows start at
    multiples of ``cap`` as they would without it, and faults detected
    early (most of them) drop out after 64 lanes instead of after
    ``cap``.
    """
    start, stop = 0, min(_FIRST_WINDOW, cap)
    while start < total:
        yield start, min(stop, total)
        start, stop = stop, min(2 * stop, cap) if stop < cap else stop + cap


def _block_words(start: int, stop: int, cap: int) -> slice:
    """Lane words of the :func:`_windows` window ``[start, stop)`` in
    the ``cap``-wide block of the trace that holds it.

    The fault-free pass runs once per block.  A ramp window starts on a
    lane word of the first block and ends on one or at the block's end,
    so its slice of the block's golden table is exactly its own.
    """
    first = start % cap // 64
    return slice(first, first + (stop - start + 63) // 64)


# -- lane packing helpers ----------------------------------------------------


def _lane_mask(num_lanes: int):
    """(W,) uint64 word array with the low ``num_lanes`` lane bits set."""
    words = (num_lanes + 63) // 64
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = num_lanes % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def _pack_bool(bits):
    """Pack a (..., L) 0/1 array into (..., ceil(L/64)) uint64 lanes.

    Lane ``k`` of word ``j`` is element ``64*j + k`` — the
    :mod:`repro.circuits.parallel` lane convention, word-sliced.
    """
    length = bits.shape[-1]
    words = (length + 63) // 64
    pad = words * 64 - length
    bits = np.asarray(bits, dtype=np.uint8)
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _unpack_lanes(row, num_lanes: int):
    """(W,) uint64 lane words -> (num_lanes,) bool (inverse of
    :func:`_pack_bool` for one row)."""
    bits = np.unpackbits(
        np.ascontiguousarray(row, dtype="<u8").view(np.uint8),
        bitorder="little",
    )
    return bits[:num_lanes].astype(bool)


def _row_to_int(row) -> int:
    """One (W,) uint64 lane row -> the equivalent Python bigint."""
    value = 0
    for j, word in enumerate(row.tolist()):
        value |= word << (64 * j)
    return value


def _int_to_row(value: int, words: int):
    """Python bigint -> (W,) uint64 lane row (inverse of _row_to_int)."""
    row = np.zeros(words, dtype=np.uint64)
    low = (1 << 64) - 1
    for j in range(words):
        row[j] = np.uint64((value >> (64 * j)) & low)
    return row


def _first_set_lanes(words):
    """Per-row index of the lowest set lane bit; -1 where all zero.

    The vectorized counterpart of
    :func:`repro.circuits.parallel.first_set_lane`: first nonzero word
    via ``argmax`` over the word axis, then trailing-zero count of the
    isolated lowest bit (``w & -w``).
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


def _mask_through_lane(words, lanes):
    """Keep only lane bits <= ``lanes[f]`` per row (-1 keeps all).

    The vector form of ``err &= (1 << (first_detection + 1)) - 1`` —
    the serial loop breaks after detection, so later errors are never
    observed.
    """
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    width = words.shape[1]
    word_of = lanes // 64
    bit_of = (lanes % 64).astype(np.uint64)
    index = np.arange(width)[None, :]
    partial = full >> (np.uint64(63) - bit_of)
    keep = np.where(
        index < word_of[:, None],
        full,
        np.where(index == word_of[:, None], partial[:, None], np.uint64(0)),
    )
    keep = np.where((lanes < 0)[:, None], full, keep)
    return words & keep


# -- vectorized circuit evaluation -------------------------------------------


#: fan-in from which an associative gate folds each input in as soon as
#: it is produced (the ROM columns read hundreds of word lines)
_WIDE_FANIN = 3

#: the NumPy fold of each associative gate type; the inverting types
#: negate the folded word once, at the end
_FOLDS = {
    GateType.AND: np.bitwise_and,
    GateType.NAND: np.bitwise_and,
    GateType.OR: np.bitwise_or,
    GateType.NOR: np.bitwise_or,
    GateType.XOR: np.bitwise_xor,
    GateType.XNOR: np.bitwise_xor,
}
_INVERTING = (GateType.NAND, GateType.NOR, GateType.XNOR)


def _gate_word(gate_type, ins, mask):
    """Lane words of a gate with no NumPy fold: NOT, BUF, the constants
    and input-less associative gates (their identity)."""
    if gate_type is GateType.NOT:
        return ~ins[0] & mask
    if gate_type is GateType.BUF:
        return ins[0]
    ones = gate_type in (GateType.CONST1, GateType.AND, GateType.NAND)
    word = mask.copy() if ones else np.zeros_like(mask)
    return ~word & mask if gate_type in _INVERTING else word


def _apply(step, ins, mask):
    """One gate's lane words from its input lane words (the per-lane
    semantics of :func:`repro.circuits.parallel.packed_gate_word`)."""
    gate, fold, invert, _ = step
    if fold is None:
        return _gate_word(gate.gate_type, ins, mask)
    word = ins[0]
    for other in ins[1:]:
        word = fold(word, other)
    return ~word & mask if invert else word


def _low_pressure_order(circuit, wide: Sequence[bool]) -> List[int]:
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


class _VectorCircuit:
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
    (:func:`_low_pressure_order`), every net is freed after its last
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
            len(gate.inputs) >= _WIDE_FANIN and gate.gate_type in _FOLDS
            for gate in circuit.gates
        ]
        #: (gate, NumPy fold or None, inverting, wide) per gate, in an
        #: evaluation order that keeps the live width small
        self.steps = [
            (
                gate,
                _FOLDS.get(gate.gate_type) if gate.inputs else None,
                gate.gate_type in _INVERTING,
                wide[gate.index],
            )
            for gate in (
                circuit.gates[index]
                for index in _low_pressure_order(circuit, wide)
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
                values[gate.output][...] = _apply(
                    step, [values[src] for src in gate.inputs], mask
                )
        return table

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
                    word = _apply(
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
                        word = _apply(step, ins, mask)
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


# -- vectorized checkers -----------------------------------------------------


def _popcount_slices(columns, mask):
    """Carry-save lane popcount over (F, W) bit columns (LSB first).

    Array form of :func:`repro.circuits.parallel.popcount_lanes`: one
    ripple pass per input column, no unpacking.
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


def _lanes_equal_const(slices, value, mask, shape):
    """Lanes whose bit-sliced count equals ``value`` (array form)."""
    if value < 0 or (value >> len(slices) if slices else value):
        return np.zeros(shape, dtype=np.uint64)
    acc = np.array(np.broadcast_to(mask, shape))
    for i, word in enumerate(slices):
        acc = acc & (word if (value >> i) & 1 else ~word & mask)
    return acc


def _accepts_lanes(checker: Checker, columns, mask, num_lanes: int):
    """(F, W) acceptance lanes of a checker over packed bit columns.

    The built-in checkers map to array reductions mirroring their
    ``accepts_packed`` bit tricks exactly; plugin checkers fall back to
    per-fault bigint conversion and defer to ``accepts_packed`` (the
    escape hatch :class:`~repro.checkers.base.Checker` gives every
    plugin code).
    """
    shape = columns[0].shape
    if isinstance(checker, MOutOfNChecker):
        slices = _popcount_slices(columns, mask)
        return _lanes_equal_const(slices, checker.m, mask, shape)
    if isinstance(checker, ParityChecker):
        fold = np.zeros(shape, dtype=np.uint64)
        for word in columns:
            fold = fold ^ word
        fold = fold & mask
        return ~fold & mask if checker.even else fold
    if isinstance(checker, BergerChecker):
        info = columns[: checker.code.info_bits]
        check = columns[checker.code.info_bits :]
        zeros = _popcount_slices([~word & mask for word in info], mask)
        width = len(check)
        acc = np.array(np.broadcast_to(mask, shape))
        for j in range(width):
            if j < len(zeros):
                counted = zeros[j]
            else:
                counted = np.zeros(shape, dtype=np.uint64)
            stored = check[width - 1 - j]  # check field is MSB-first
            acc = acc & (~(counted ^ stored) & mask)
        return acc
    if isinstance(checker, TwoRailChecker):
        acc = np.array(np.broadcast_to(mask, shape))
        for i in range(checker.pairs):
            acc = acc & (columns[2 * i] ^ columns[2 * i + 1])
        return acc & mask
    out = np.zeros(shape, dtype=np.uint64)
    words = shape[-1]
    for row in range(shape[0]):
        packed_word = [_row_to_int(column[row]) for column in columns]
        out[row] = _int_to_row(
            checker.accepts_packed(packed_word, num_lanes), words
        )
    return out


# -- decoder campaigns -------------------------------------------------------


def _pack_values(values, n_bits: int):
    """Pack an int stream into one (W,) lane row per LSB-first bit."""
    bits = (values[None, :] >> np.arange(n_bits)[:, None]) & 1
    return _pack_bool(bits)


def _decoder_window(
    checked: CheckedDecoder, sim: _VectorCircuit, checker: Checker,
    window, golden, reps,
):
    """(first_error, first_detection) int64 arrays for one lane window
    (``window``: its int64 addresses, ``golden``: its fault-free
    table).

    One vectorized traversal per fault batch: ``err`` ORs the per-line
    mismatch against the ideal one-hot words as each word line is
    produced, ``acc`` is the vector checker over the ROM columns, and
    the error word is truncated at the first detection exactly as the
    serial loop does.
    """
    lanes = len(window)
    mask = _lane_mask(lanes)
    num_lines = 1 << checked.n
    outputs = checked.circuit.output_nets
    line_of = {net: line for line, net in enumerate(outputs[:num_lines])}
    # ideal one-hot words: lane k of line a is set iff window[k] == a
    lane = np.arange(lanes)
    ideal = np.zeros((num_lines,) + mask.shape, dtype=np.uint64)
    np.bitwise_or.at(
        ideal,
        (window, lane // 64),
        np.left_shift(np.uint64(1), (lane % 64).astype(np.uint64)),
    )
    line_nets = np.asarray(outputs[:num_lines])
    errs, dets = [], []
    for part in sim.batches(len(reps), mask.shape[0]):
        shape = (len(reps[part]),) + mask.shape
        err = np.zeros(shape, dtype=np.uint64)
        rom: Dict[int, object] = {}
        golden_lines: List[int] = []

        def consume(net, rows):
            line = line_of.get(net)
            if line is None:
                rom[net] = np.broadcast_to(rows, shape)
            elif rows.ndim == 1:  # golden: folded in below, all at once
                golden_lines.append(line)
            else:
                np.bitwise_or(err, rows ^ ideal[line], out=err)

        sim.evaluate(golden, reps[part], mask, consume)
        if golden_lines:
            np.bitwise_or(
                err,
                np.bitwise_or.reduce(
                    golden[line_nets[golden_lines]] ^ ideal[golden_lines],
                    axis=0,
                ),
                out=err,
            )
        acc = _accepts_lanes(
            checker, [rom[net] for net in outputs[num_lines:]], mask, lanes
        )
        detection = _first_set_lanes(~acc & mask)
        errs.append(_first_set_lanes(_mask_through_lane(err, detection)))
        dets.append(detection)
    return np.concatenate(errs), np.concatenate(dets)


def _vector_decoder_worker(payload):
    """Windowed (first_error, first_detection) per representative fault.

    Windows ramp up to a cap of ``chunk`` lanes (:func:`_windows`;
    :data:`DEFAULT_WINDOW` when unset, so memory stays bounded however
    long the stream is).  Faults whose detection lands in a window drop
    out of later ones, and every surviving fault of a window is
    evaluated in one vectorized pass.
    """
    (checked, checker, stream, chunk), reps = payload
    sim = _VectorCircuit(checked.circuit)
    cap = DEFAULT_WINDOW if chunk is None else chunk
    outcomes: List[List[Optional[int]]] = [[None, None] for _ in reps]
    active = list(range(len(reps)))
    for start, stop in _windows(len(stream), cap):
        if start % cap == 0:  # a new block (:func:`_block_words`)
            block = stream[start : start + cap]
            golden = sim.golden(
                _pack_values(block, checked.n), _lane_mask(len(block))
            )
        errs, dets = _decoder_window(
            checked, sim, checker, stream[start:stop],
            golden[:, _block_words(start, stop, cap)],
            [reps[i] for i in active],
        )
        survivors = []
        for pos, index in enumerate(active):
            err, det = int(errs[pos]), int(dets[pos])
            if outcomes[index][0] is None and err >= 0:
                outcomes[index][0] = start + err
            if det >= 0:
                outcomes[index][1] = start + det
            else:
                survivors.append(index)
        active = survivors
        if not active:
            break
    return [tuple(outcome) for outcome in outcomes]


def decoder_campaign_vector(
    checked: CheckedDecoder,
    checker: Checker,
    faults: Sequence[FaultBase],
    addresses: Sequence[int],
    attach_analytic: bool = True,
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Vector counterpart of :func:`repro.faultsim.campaign.decoder_campaign`.

    Bit-identical records to the serial oracle; the whole
    collapsed fault list is evaluated per cycle window in one NumPy
    traversal.  ``workers=N`` shards representatives over a process
    pool; ``chunk=W`` caps the bounded-memory window width, which ramps
    up from one 64-lane word (:data:`DEFAULT_WINDOW` when unset; results
    invariant in W).
    """
    from repro.faultsim.campaign import (
        _driver_result,
        analytic_escapes,
        classify_structural_fault,
    )

    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

    analytic = analytic_escapes(checked) if attach_analytic else None

    faults = list(faults)
    reps, key_to_group = _fault_groups(checked.circuit, faults, collapse)
    outcomes = _map_jobs(
        _vector_decoder_worker,
        (checked, checker, np.asarray(addresses, dtype=np.int64), chunk),
        reps,
        workers,
    )

    records: List[ResultRecord] = []
    for fault in faults:
        key = fault.key()
        first_error, first_detection = outcomes[key_to_group[key]]
        escape = None
        if analytic is not None and isinstance(fault, NetStuckAt):
            escape = analytic.get(key)
        records.append(
            ResultRecord(
                fault_id(fault),
                classify_structural_fault(checked, fault),
                first_detection,
                first_error,
                escape,
            )
        )
    return _driver_result("decoder", "vector", records, len(addresses))


# -- scheme campaigns --------------------------------------------------------


class _VectorSchemeState:
    """Shared golden context for one vectorized scheme campaign.

    Structural axis faults never touch the behavioural model: each
    cap-wide block of the trace packs both decoders' golden passes once
    (each axis's golden doubles as the other axis's fault-free
    reference) and the raw array contents feed the vectorized data
    path.  Only behavioural memory faults read through the scheme,
    memoised per distinct address with the serial loop's early exit.
    """

    def __init__(
        self,
        memory: SelfCheckingMemory,
        addresses: Sequence[int],
        chunk: Optional[int],
    ):
        self.memory = memory
        self.addresses = list(addresses)
        self.chunk = DEFAULT_WINDOW if chunk is None else chunk
        org = memory.organization
        self.org = org
        stream = np.asarray(self.addresses, dtype=np.int64)
        self.addr_stream = stream
        self.row_stream = stream >> org.s
        self.col_stream = stream & (org.column_mux - 1)
        self.sims = {
            "row": _VectorCircuit(memory.row.circuit),
            "column": _VectorCircuit(memory.column.circuit),
        }
        self._stored = None
        self._stored_zero = None
        self._axis_rejects = None
        self._joined: Dict[str, "np.ndarray"] = {}

    def stored(self):
        """(words, word_width) uint8 snapshot of the raw array contents.

        Contents are static for the whole campaign (reads are pure and
        the writer fills once), so the data path is a pure function of
        the selected lines and this table.
        """
        if self._stored is None:
            ram = self.memory.ram
            self._stored = np.array(
                [ram.raw_word(a) for a in range(self.org.words)],
                dtype=np.uint8,
            )
        return self._stored

    def stored_zero(self):
        """Boolean zero-cell table: ``stored() == 0``, cached."""
        if self._stored_zero is None:
            self._stored_zero = self.stored() == 0
        return self._stored_zero

    # -- behavioural memory faults ------------------------------------------

    def _golden_axis_rejects(self):
        """(row, column) golden checker rejection, one bool per axis
        value.

        A behavioural memory fault leaves both decoders fault-free, so
        their checker verdict per cycle is a pure function of the axis
        value — one tiny vector pass over every axis value replaces the
        behavioural read path.  Non-trivial only for exotic plugin
        codes, but kept exact so vector == serial.
        """
        if self._axis_rejects is None:
            memory = self.memory
            luts = []
            for axis, checked, checker in (
                ("row", memory.row, memory.row_checker),
                ("column", memory.column, memory.column_checker),
            ):
                count = 1 << checked.n
                mask = _lane_mask(count)
                golden = self.sims[axis].golden(
                    _pack_values(
                        np.arange(count, dtype=np.int64), checked.n
                    ),
                    mask,
                )
                rom = [
                    golden[net][None, :]
                    for net in checked.circuit.output_nets[count:]
                ]
                acc = _accepts_lanes(checker, rom, mask, count)
                luts.append(_unpack_lanes((~acc & mask)[0], count))
            self._axis_rejects = tuple(luts)
        return self._axis_rejects

    def memory_fault_firsts(self, faults) -> List[Optional[int]]:
        """First detection per behavioural fault, all faults batched.

        Selection is fault-free and contents static, so a read of
        address ``a`` resolves to the faulted raw word at ``a`` behind
        golden decoders: the verdict is ``golden axis reject | parity
        reject of that word``, a pure function of the address.  Raw
        words are read once per distinct streamed address (in stream
        order, memoised per address), every fault's
        word table is judged as one address-indexed lane batch, and the
        verdict tables are gathered over the cycle stream in a single
        lookup each.
        """
        faults = list(faults)
        if not faults:
            return []
        memory = self.memory
        org = self.org
        ram = memory.ram
        width = ram.word_width
        row_rej, col_rej = self._golden_axis_rejects()
        distinct = list(dict.fromkeys(self.addresses))
        data = np.zeros((len(faults), org.words, width), dtype=bool)
        for idx, fault in enumerate(faults):
            memory.clear_faults()
            memory.inject_memory_fault(fault)
            data[idx, distinct] = [ram.read(a) for a in distinct]
        memory.clear_faults()

        mask = _lane_mask(org.words)
        columns = [_pack_bool(data[:, :, b]) for b in range(width)]
        acc = _accepts_lanes(
            memory.parity_checker, columns, mask, org.words
        )
        axis_rej = row_rej[self.row_stream] | col_rej[self.col_stream]
        firsts: List[Optional[int]] = []
        for idx in range(len(faults)):
            parity_rej = ~_unpack_lanes(acc[idx] & mask, org.words)
            rejected = parity_rej[self.addr_stream] | axis_rej
            firsts.append(
                int(rejected.argmax()) if rejected.any() else None
            )
        return firsts

    # -- structural axis faults ----------------------------------------------

    def axis_batches(
        self,
        row_reps: Sequence[FaultBase],
        col_reps: Sequence[FaultBase],
    ) -> Tuple[List[Optional[int]], List[Optional[int]]]:
        """First-detection cycle per representative fault, both axes.

        Window-major with survivor compaction: the windows ramp up to
        the ``chunk`` cap (:func:`_windows`), both decoders' golden
        passes run once per cap-wide block of the trace
        (:func:`_block_words`; an axis's golden run doubles as the other
        axis's fault-free reference), and a fault detected in a window
        never reaches later ones (the serial loop's ``break``).
        """
        memory = self.memory
        reps = {"row": list(row_reps), "column": list(col_reps)}
        outcomes: Dict[str, List[Optional[int]]] = {
            axis: [None] * len(reps[axis]) for axis in ("row", "column")
        }
        active = {
            axis: list(range(len(reps[axis])))
            for axis in ("row", "column")
        }
        cap, total = self.chunk, len(self.addresses)
        for start, stop in _windows(total, cap):
            if not active["row"] and not active["column"]:
                break
            if start % cap == 0:  # a new block
                end = min(start + cap, total)
                blocks = {
                    axis: self.sims[axis].golden(
                        _pack_values(stream[start:end], checked.n),
                        _lane_mask(end - start),
                    )
                    for axis, stream, checked in (
                        ("row", self.row_stream, memory.row),
                        ("column", self.col_stream, memory.column),
                    )
                }
            words = _block_words(start, stop, cap)
            goldens = {axis: table[:, words] for axis, table in blocks.items()}
            lanes = stop - start
            mask = _lane_mask(lanes)
            for axis in ("row", "column"):
                if not active[axis]:
                    continue
                other = "column" if axis == "row" else "row"
                firsts = self._axis_window(
                    axis,
                    [reps[axis][i] for i in active[axis]],
                    goldens[axis],
                    goldens[other],
                    mask,
                    lanes,
                )
                survivors = []
                for pos, index in enumerate(active[axis]):
                    first = int(firsts[pos])
                    if first >= 0:
                        outcomes[axis][index] = start + first
                    else:
                        survivors.append(index)
                active[axis] = survivors
        return outcomes["row"], outcomes["column"]

    def _axis_window(self, axis, reps, golden, other_golden, mask, lanes):
        """First detection lane (-1: none) per fault in one window.

        ``detection = axis-checker reject | other-axis fault-free
        reject | parity reject``.  The other-axis verdict is its own
        checker over its golden code output (no behavioural read), and
        the parity path is computed exactly for every lane: per stored
        bit, a lane violates iff some active faulted-axis line combines
        with an active fault-free other-axis line whose cell stores 0
        (bit lines are precharged high, reads AND) — so multi-hot and
        empty selections resolve without the behavioural model.
        """
        memory = self.memory
        org = self.org
        row_axis = axis == "row"
        checked = memory.row if row_axis else memory.column
        checker = memory.row_checker if row_axis else memory.column_checker
        other = memory.column if row_axis else memory.row
        other_checker = (
            memory.column_checker if row_axis else memory.row_checker
        )

        num_lines = 1 << checked.n
        outputs = checked.circuit.output_nets

        # other-axis fault-free rejection: its golden code output fails
        # its own checker (non-trivial only for exotic writers/codes,
        # but kept exact so vector == serial under *any*
        # memory preparation)
        other_outputs = other.circuit.output_nets
        other_rom = [
            other_golden[net][None, :]
            for net in other_outputs[1 << other.n :]
        ]
        other_acc = _accepts_lanes(other_checker, other_rom, mask, lanes)

        # fault-free other-axis line activity (golden vector pass)
        other_lines = [
            other_golden[net] for net in other_outputs[: 1 << other.n]
        ]

        # zero-cell masks: zmask[j, b] = lanes whose active other-axis
        # line, joined with faulted-axis line j, addresses a stored 0
        joined = self._joined.get(axis)
        if joined is None:
            # the organization's layout (split/join_address):
            # address = (row << s) | column
            lines = np.arange(num_lines, dtype=np.int64)
            others = np.arange(len(other_lines), dtype=np.int64)
            if row_axis:
                joined = (lines[:, None] << org.s) | others[None, :]
            else:
                joined = (others[None, :] << org.s) | lines[:, None]
            self._joined[axis] = joined
        zero = self.stored_zero()[joined]  # (J, O, width)
        other_arr = np.stack(other_lines)  # (O, W)
        width = memory.ram.word_width
        words = mask.shape[0]
        zmask = np.bitwise_or.reduce(
            np.where(
                zero[..., None],
                other_arr[None, :, None, :],
                np.uint64(0),
            ),
            axis=1,
        )  # (J, width, W)

        # the faulted axis, a fault batch at a time: each word line j
        # folds into the violations as it is produced, the ROM columns
        # are kept for the axis checker
        sim = self.sims[axis]
        line_of = {net: line for line, net in enumerate(outputs[:num_lines])}
        line_nets = np.asarray(outputs[:num_lines])
        firsts = []
        for part in sim.batches(len(reps), words):
            shape = (len(reps[part]),) + mask.shape
            violation = np.zeros(
                (shape[0], width, words), dtype=np.uint64
            )
            rom: Dict[int, object] = {}
            golden_lines: List[int] = []

            def consume(net, rows):
                line = line_of.get(net)
                if line is None:
                    rom[net] = np.broadcast_to(rows, shape)
                elif rows.ndim == 1:  # golden: folded in below, at once
                    golden_lines.append(line)
                else:
                    np.bitwise_or(
                        violation,
                        rows[..., None, :] & zmask[line],
                        out=violation,
                    )

            sim.evaluate(golden, reps[part], mask, consume)
            if golden_lines:
                np.bitwise_or(
                    violation,
                    np.bitwise_or.reduce(
                        golden[line_nets[golden_lines]][:, None, :]
                        & zmask[golden_lines],
                        axis=0,
                    ),
                    out=violation,
                )
            acc = _accepts_lanes(
                checker, [rom[net] for net in outputs[num_lines:]], mask,
                lanes,
            )
            parity_acc = _accepts_lanes(
                memory.parity_checker,
                [~violation[:, b, :] & mask for b in range(width)],
                mask,
                lanes,
            )
            firsts.append(
                _first_set_lanes(~(acc & other_acc & parity_acc) & mask)
            )
        return np.concatenate(firsts)


def _vector_scheme_worker(payload):
    """Detection outcomes for one chunk of (axis, fault) jobs.

    Jobs of the same axis are batched into one fault-parallel
    evaluation; behavioural memory faults use the memoised pure-read
    path.  Output order matches the job order (the
    :func:`_map_jobs` contract)."""
    (memory, addresses, chunk), jobs = payload
    state = _VectorSchemeState(memory, addresses, chunk)
    out: List[Optional[int]] = [None] * len(jobs)
    row_idx = [i for i, (a, _) in enumerate(jobs) if a == "row"]
    col_idx = [i for i, (a, _) in enumerate(jobs) if a == "column"]
    if row_idx or col_idx:
        row_first, col_first = state.axis_batches(
            [jobs[i][1] for i in row_idx],
            [jobs[i][1] for i in col_idx],
        )
        for i, first in zip(row_idx, row_first):
            out[i] = first
        for i, first in zip(col_idx, col_first):
            out[i] = first
    mem_idx = [i for i, (a, _) in enumerate(jobs) if a == "memory"]
    if mem_idx:
        firsts = state.memory_fault_firsts(
            [jobs[i][1] for i in mem_idx]
        )
        for i, first in zip(mem_idx, firsts):
            out[i] = first
    return out


def scheme_campaign_vector(
    memory: SelfCheckingMemory,
    addresses: Sequence[int],
    row_faults: Sequence[FaultBase] = (),
    column_faults: Sequence[FaultBase] = (),
    memory_faults: Sequence = (),
    writer=None,
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Vector counterpart of :func:`repro.faultsim.campaign.scheme_campaign`.

    Structural row/column faults are collapsed per axis and evaluated
    *together* — one vectorized traversal per cycle window for the whole
    fault list, with the parity data path resolved as array ops over
    the static array contents instead of per-fault behavioural reads.
    Bit-identical to the serial oracle.
    """
    from repro.faultsim.campaign import (
        _driver_result,
        classify_structural_fault,
        default_scheme_writer,
    )

    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

    fill = writer or default_scheme_writer
    fill(memory)

    row_faults = list(row_faults)
    column_faults = list(column_faults)
    memory_faults = list(memory_faults)
    row_reps, row_groups = _fault_groups(
        memory.row.circuit, row_faults, collapse
    )
    col_reps, col_groups = _fault_groups(
        memory.column.circuit, column_faults, collapse
    )

    jobs = (
        [("row", f) for f in row_reps]
        + [("column", f) for f in col_reps]
        + [("memory", f) for f in memory_faults]
    )
    memory.clear_faults()
    outcomes = _map_jobs(
        _vector_scheme_worker,
        (memory, list(addresses), chunk),
        jobs,
        workers,
    )
    row_out = outcomes[: len(row_reps)]
    col_out = outcomes[len(row_reps) : len(row_reps) + len(col_reps)]
    mem_out = outcomes[len(row_reps) + len(col_reps) :]

    records = [
        ResultRecord(
            fault_id(fault),
            classify_structural_fault(memory.row, fault),
            row_out[row_groups[fault.key()]],
        )
        for fault in row_faults
    ]
    records += [
        ResultRecord(
            fault_id(fault),
            classify_structural_fault(memory.column, fault),
            col_out[col_groups[fault.key()]],
        )
        for fault in column_faults
    ]
    records += [
        ResultRecord(fault_id(fault), "memory", first)
        for fault, first in zip(memory_faults, mem_out)
    ]
    return _driver_result("scheme", "vector", records, len(addresses))
