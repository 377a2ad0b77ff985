"""NumPy lane-array campaign engine — the one fast path.

Decoder and scheme campaigns on the lane evaluator of
:mod:`repro.circuits.parallel`: every net carries a
``(faults, cycle_words)`` ``uint64`` lane matrix, lane ``k`` of a row
is cycle ``k`` and row ``f`` is fault ``f``, and each gate is evaluated
once per fault batch (golden row + per-fault forcing masks from the
collapsed fault list).  Checkers judge the lanes through their
``accepts_lanes`` — array reductions for the built-in ones.
``first_error`` / ``first_detection`` are recovered per fault with
vectorized trailing-bit arithmetic; there is no per-fault Python in the
hot path.

Most of a checked decoder's faults never enter the gate-by-gate
traversal.  A *terminal* fault forces one net and no pin, and that net
is read only by wide gates whose output nothing reads, each at one pin
(:attr:`~repro.circuits.parallel.VectorCircuit.terminal`): a word-line
or ROM-column stem, 522 of the 634 stem faults of the paper's 2048x16
row decoder.  It changes only its own net and those gates' folds, so a
window computes all of them with a handful of NumPy ops: each ROM
column folds its golden inputs with the faulted pin's word replaced
(:meth:`~repro.circuits.parallel.VectorCircuit.terminal_words`), and
the word-line term (``err`` of a decoder campaign, the parity
violations of a scheme campaign) is the OR over every other line, from
one pass that counts the bits set in at least one line and in at least
two (:func:`~repro.circuits.parallel.or_counts`), plus the faulted
line's own term.  The checkers and first-lane arithmetic are shared
with the traversal, which still runs every other fault.

Scheme campaigns never read through the behavioural RAM either.  The
array contents are one (words, word_width) image: with the default
writer it is built columnar (:func:`default_scheme_image`) and
bulk-loaded into the RAM, otherwise snapshotted once after the writer
ran.  Structural faults resolve the parity data path against that
image, and each behavioural memory fault patches its read effect into
a copy of it
(:meth:`~repro.memory.faults.MemoryFault.apply_read_image`) and is
judged at every address in one lane batch.

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
whose live lane matrices hold about
:data:`~repro.circuits.parallel.LIVE_WORDS` words.  Results are
invariant in both sizes (property-tested).  The serial loops of
:mod:`repro.faultsim.campaign` are the bit-identity oracle;
record-by-record equality is part of the test suite.

Structural fault collapsing (:func:`_fault_groups`) and process-pool
sharding (:func:`_map_jobs`) live here too; the transient and march
backends of :class:`repro.scenarios.CampaignEngine` shard through the
same helper.
"""

from __future__ import annotations

from concurrent import futures
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkers.base import Checker
from repro.circuits.engines import ENGINES, check_engine
from repro.circuits.equivalence import collapse_faults
from repro.circuits.faults import FaultBase, NetStuckAt, PinStuckAt
from repro.circuits.parallel import (
    VectorCircuit,
    first_set_lanes,
    lane_mask,
    or_counts,
    pack_bool,
    unpack_lanes,
)
from repro.core.scheme import SelfCheckingMemory
from repro.results.resultset import ResultRecord, ResultSet, fault_id
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "CAMPAIGN_ENGINES",
    "DEFAULT_WINDOW",
    "check_engine",
    "decoder_campaign_vector",
    "default_scheme_image",
    "scheme_campaign_vector",
]

#: engine policies accepted by the campaign layer: the fast path and
#: the serial oracle — the :data:`repro.circuits.engines.ENGINES` the
#: circuit-level drivers accept, validated by the same ``check_engine``
CAMPAIGN_ENGINES = ENGINES

#: default cap (lanes) of the vector engine's cycle windows, the
#: bounded-memory width the ramp of :func:`_windows` grows to — per-net
#: lane matrices stay (faults x DEFAULT_WINDOW/64) words however long
#: the stream is; results are invariant in the cap
DEFAULT_WINDOW = 8192

#: width (lanes) of the first cycle window: one lane word
_FIRST_WINDOW = 64

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


# -- lane helpers ------------------------------------------------------------


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


def _terminal_rows(sim, golden, mask, line_of, rom_nets, terms, stuck_term):
    """``bulk_rows(nets, values)`` for one window: the (line term, ROM
    columns) of a batch of terminal faults.

    The line term is the OR over the word lines of their ``terms`` (one
    row per ``line_of`` entry, in its order), where the line a fault
    forces contributes ``stuck_term(rows, values)`` instead of its
    golden term.  The OR of every line but one is ``twos | (ones &
    ~terms[row])`` (:func:`or_counts`), so no per-fault table is built.
    The ROM columns come from :meth:`VectorCircuit.terminal_words`.
    """
    rom_words = sim.terminal_words(golden, mask, rom_nets)
    ones, twos = or_counts(terms)
    row_of = np.full(sim.circuit.num_nets, -1, dtype=np.int64)
    row_of[list(line_of)] = np.arange(len(line_of))

    def bulk_rows(nets, values):
        term = np.empty((len(nets),) + ones.shape, dtype=np.uint64)
        term[...] = ones
        rows = row_of[nets]
        on = rows >= 0
        if on.any():
            row = rows[on]
            term[on] = (
                twos | (ones & ~terms[row]) | stuck_term(row, values[on])
            )
        return term, list(rom_words(nets, values))

    return bulk_rows


def _window_batches(sim, reps, forced, words, dense_rows, bulk_rows):
    """``(positions, line term, ROM columns)`` per fault batch of one
    window: the :meth:`VectorCircuit.batches` of ``reps``, each joining
    the faults run gate by gate (``dense_rows(batch)``) and the
    terminal ones (``bulk_rows(nets, values)``, from ``forced``), so
    the checkers judge every batch once."""
    nets, values = forced
    for part in sim.batches(len(reps), words):
        positions = np.arange(len(reps))[part]
        bulk = nets[part] >= 0
        parts = []
        if not bulk.all():
            dense = positions[~bulk]
            parts.append((dense,) + dense_rows([reps[p] for p in dense]))
        if bulk.any():
            terminal = positions[bulk]
            parts.append(
                (terminal,) + bulk_rows(nets[terminal], values[terminal])
            )
        if len(parts) == 1:
            yield parts[0]
        else:
            (first, term, rom), (second, more, more_rom) = parts
            yield (
                np.concatenate([first, second]),
                np.concatenate([term, more]),
                [np.concatenate(pair) for pair in zip(rom, more_rom)],
            )


# -- decoder campaigns -------------------------------------------------------


def _pack_values(values, n_bits: int):
    """Pack an int stream into one (W,) lane row per LSB-first bit."""
    bits = (values[None, :] >> np.arange(n_bits)[:, None]) & 1
    return pack_bool(bits)


def _decoder_window(
    checked: CheckedDecoder, sim: VectorCircuit, checker: Checker,
    window, golden, reps, forced,
):
    """(first_error, first_detection) int64 arrays for one lane window
    (``window``: its int64 addresses, ``golden``: its fault-free
    table, ``forced``: :meth:`VectorCircuit.terminal_forces` of
    ``reps``).

    ``err`` ORs the per-line mismatch against the ideal one-hot words,
    ``acc`` is the vector checker over the ROM columns, and the error
    word is truncated at the first detection exactly as the serial loop
    does.  Faults that force one terminal net are computed in bulk: a
    word-line fault's ``err`` is the OR of every other line's golden
    mismatch and its forced line's own, and its ROM columns come from
    :meth:`VectorCircuit.terminal_words` (:func:`_terminal_rows`).
    Every other fault runs one vectorized traversal per batch, folding
    each word line in as it is produced.
    """
    lanes = len(window)
    mask = lane_mask(lanes)
    num_lines = 1 << checked.n
    outputs = checked.circuit.output_nets
    rom_nets = outputs[num_lines:]
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

    def dense_rows(batch):
        shape = (len(batch),) + mask.shape
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

        sim.evaluate(golden, batch, mask, consume)
        if golden_lines:
            np.bitwise_or(
                err,
                np.bitwise_or.reduce(
                    golden[line_nets[golden_lines]] ^ ideal[golden_lines],
                    axis=0,
                ),
                out=err,
            )
        return err, [rom[net] for net in rom_nets]

    bulk_rows = None
    if (forced[0] >= 0).any():
        lines = np.fromiter(line_of.values(), dtype=np.int64)
        bulk_rows = _terminal_rows(
            sim, golden, mask, line_of, rom_nets,
            golden[list(line_of)] ^ ideal[lines],
            lambda row, values: np.where(
                values.astype(bool)[:, None], mask, np.uint64(0)
            ) ^ ideal[lines[row]],
        )
    first_error = np.empty(len(reps), dtype=np.int64)
    first_detection = np.empty(len(reps), dtype=np.int64)
    for positions, err, rom in _window_batches(
        sim, reps, forced, mask.shape[0], dense_rows, bulk_rows
    ):
        acc = checker.accepts_lanes(rom, mask)
        detection = first_set_lanes(~acc & mask)
        first_error[positions] = first_set_lanes(
            _mask_through_lane(err, detection)
        )
        first_detection[positions] = detection
    return first_error, first_detection


def _vector_decoder_worker(payload):
    """Windowed (first_error, first_detection) per representative fault.

    Windows ramp up to a cap of ``chunk`` lanes (:func:`_windows`;
    :data:`DEFAULT_WINDOW` when unset, so memory stays bounded however
    long the stream is).  Faults whose detection lands in a window drop
    out of later ones, and every surviving fault of a window is
    evaluated in one vectorized pass.
    """
    (checked, checker, stream, chunk), reps = payload
    sim = VectorCircuit(checked.circuit)
    forced = sim.terminal_forces(
        reps, frozenset(checked.circuit.output_nets[: 1 << checked.n])
    )
    cap = DEFAULT_WINDOW if chunk is None else chunk
    outcomes: List[List[Optional[int]]] = [[None, None] for _ in reps]
    active = list(range(len(reps)))
    for start, stop in _windows(len(stream), cap):
        if start % cap == 0:  # a new block (:func:`_block_words`)
            block = stream[start : start + cap]
            golden = sim.golden(
                _pack_values(block, checked.n), lane_mask(len(block))
            )
        errs, dets = _decoder_window(
            checked, sim, checker, stream[start:stop],
            golden[:, _block_words(start, stop, cap)],
            [reps[i] for i in active],
            tuple(side[active] for side in forced),
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

    Bit-identical records to the serial oracle; per cycle window the
    collapsed fault list's terminal faults are computed in bulk and the
    rest run in one NumPy traversal.  ``workers=N`` shards
    representatives over a process pool; ``chunk=W`` caps the
    bounded-memory window width, which ramps up from one 64-lane word
    (:data:`DEFAULT_WINDOW` when unset; results invariant in W).
    """
    from repro.faultsim.campaign import (
        _driver_result,
        _structural_classifier,
        analytic_escapes,
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

    classify = _structural_classifier(checked)
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
                classify(fault),
                first_detection,
                first_error,
                escape,
            )
        )
    return _driver_result("decoder", "vector", records, len(addresses))


# -- scheme campaigns --------------------------------------------------------

#: multiplier of :func:`~repro.faultsim.campaign.default_scheme_writer`'s
#: address-mixing pattern
_MIX = 0x9E3779B1


def default_scheme_image(ram) -> Optional["np.ndarray"]:
    """What the default writer leaves stored in ``ram``, as one array.

    The (words, word_width) uint8 counterpart of
    :func:`~repro.faultsim.campaign.default_scheme_writer`, built
    without a write per address.

    Data bit ``i`` of address ``a`` is ``((a * 0x9E3779B1) >> i) & 1``,
    followed by the RAM's even or odd parity bit when it has one.  The
    products are exact in ``uint64`` for up to 2**32 words, and bits at
    64 and above of a product below 2**64 are 0.  A larger RAM gets
    ``None``, and the caller falls back to the writer.
    """
    org = ram.organization
    if (org.words - 1) * _MIX >= 1 << 64:
        return None
    product = np.arange(org.words, dtype=np.uint64) * np.uint64(_MIX)
    shifts = np.arange(min(org.bits, 64), dtype=np.uint64)
    image = np.zeros((org.words, ram.word_width), dtype=np.uint8)
    image[:, : len(shifts)] = (product[:, None] >> shifts) & np.uint64(1)
    if ram.with_parity:
        ones = np.bitwise_xor.reduce(image[:, : org.bits], axis=1)
        image[:, org.bits] = ones if ram.parity_code.even else ones ^ 1
    return image


class _VectorSchemeState:
    """Shared golden context for one vectorized scheme campaign.

    No read goes through the behavioural model.  ``stored`` is
    the (words, word_width) uint8 image of the array contents, static
    for the whole campaign (reads are pure and the fill runs once), so
    the data path is a pure function of the selected lines and this
    table.  Structural axis faults: each cap-wide block of the trace
    packs both decoders' golden passes once (each axis's golden doubles
    as the other axis's fault-free reference) and the image feeds the
    vectorized data path.  Behavioural memory faults patch a copy of
    the image (:meth:`~repro.memory.faults.MemoryFault.apply_read_image`)
    and are judged at every address at once.
    """

    def __init__(
        self,
        memory: SelfCheckingMemory,
        addresses: Sequence[int],
        chunk: Optional[int],
        stored,
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
            "row": VectorCircuit(memory.row.circuit),
            "column": VectorCircuit(memory.column.circuit),
        }
        self.stored = stored
        #: zero-cell table of ``stored``
        self.stored_zero = stored == 0
        self._axis_rejects = None
        self._joined: Dict[str, "np.ndarray"] = {}

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
                mask = lane_mask(count)
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
                acc = checker.accepts_lanes(rom, mask)
                luts.append(unpack_lanes((~acc & mask)[0], count))
            self._axis_rejects = tuple(luts)
        return self._axis_rejects

    def memory_fault_firsts(self, faults) -> List[Optional[int]]:
        """First detection per behavioural fault, all faults batched.

        Selection is fault-free and contents static, so a read of
        address ``a`` resolves to the faulted raw word at ``a`` behind
        golden decoders: the verdict is ``golden axis reject | parity
        reject of that word``, a pure function of the address.  Each
        fault patches its read effect into a copy of the stored image
        (:meth:`~repro.memory.faults.MemoryFault.apply_read_image`;
        the RAM holds the same contents, which coupling models read),
        every fault's image is judged as one address-indexed lane
        batch, and the verdict tables are gathered over the cycle
        stream in a single lookup each.
        """
        faults = list(faults)
        if not faults:
            return []
        memory = self.memory
        org = self.org
        ram = memory.ram
        width = ram.word_width
        row_rej, col_rej = self._golden_axis_rejects()
        data = np.empty((len(faults), org.words, width), dtype=bool)
        for idx, fault in enumerate(faults):
            image = self.stored.copy()
            fault.apply_read_image(image, ram)
            data[idx] = image

        mask = lane_mask(org.words)
        columns = [pack_bool(data[:, :, b]) for b in range(width)]
        acc = memory.parity_checker.accepts_lanes(columns, mask)
        axis_rej = row_rej[self.row_stream] | col_rej[self.col_stream]
        firsts: List[Optional[int]] = []
        for idx in range(len(faults)):
            parity_rej = ~unpack_lanes(acc[idx] & mask, org.words)
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
        forced = {
            axis: self.sims[axis].terminal_forces(
                reps[axis],
                frozenset(checked.circuit.output_nets[: 1 << checked.n]),
            )
            for axis, checked in (
                ("row", memory.row), ("column", memory.column)
            )
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
                        lane_mask(end - start),
                    )
                    for axis, stream, checked in (
                        ("row", self.row_stream, memory.row),
                        ("column", self.col_stream, memory.column),
                    )
                }
            words = _block_words(start, stop, cap)
            goldens = {axis: table[:, words] for axis, table in blocks.items()}
            mask = lane_mask(stop - start)
            for axis in ("row", "column"):
                if not active[axis]:
                    continue
                other = "column" if axis == "row" else "row"
                firsts = self._axis_window(
                    axis,
                    [reps[axis][i] for i in active[axis]],
                    tuple(side[active[axis]] for side in forced[axis]),
                    goldens[axis],
                    goldens[other],
                    mask,
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

    def _axis_window(self, axis, reps, forced, golden, other_golden, mask):
        """First detection lane (-1: none) per fault in one window
        (``forced``: :meth:`VectorCircuit.terminal_forces` of ``reps``).

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
        other_acc = other_checker.accepts_lanes(other_rom, mask)

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
        zero = self.stored_zero[joined]  # (J, O, width)
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

        # the faulted axis: terminal faults in bulk, every other fault
        # gate by gate, each word line j folding into the violations as
        # it is produced; the ROM columns are kept for the axis checker
        sim = self.sims[axis]
        line_of = {net: line for line, net in enumerate(outputs[:num_lines])}
        line_nets = np.asarray(outputs[:num_lines])
        rom_nets = outputs[num_lines:]

        def dense_rows(batch):
            shape = (len(batch),) + mask.shape
            violation = np.zeros((shape[0], width, words), dtype=np.uint64)
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

            sim.evaluate(golden, batch, mask, consume)
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
            return violation, [rom[net] for net in rom_nets]

        bulk_rows = None
        if (forced[0] >= 0).any():
            # a line's violations: its golden lanes on the zero cells it
            # joins, or all of them on a line stuck at 1
            lines = np.fromiter(line_of.values(), dtype=np.int64)
            terms = zmask[lines]
            terms &= golden[list(line_of)][:, None, :]
            bulk_rows = _terminal_rows(
                sim, golden, mask, line_of, rom_nets, terms,
                lambda row, values: np.where(
                    values.astype(bool)[:, None, None],
                    zmask[lines[row]],
                    np.uint64(0),
                ),
            )
        firsts = np.empty(len(reps), dtype=np.int64)
        for positions, violation, rom in _window_batches(
            sim, reps, forced, words, dense_rows, bulk_rows
        ):
            acc = checker.accepts_lanes(rom, mask)
            parity_acc = memory.parity_checker.accepts_lanes(
                [~violation[:, b, :] & mask for b in range(width)], mask
            )
            firsts[positions] = first_set_lanes(
                ~(acc & other_acc & parity_acc) & mask
            )
        return firsts


def _vector_scheme_worker(payload):
    """Detection outcomes for one chunk of (axis, fault) jobs.

    Jobs of the same axis are batched into one fault-parallel
    evaluation; behavioural memory faults patch the stored image.
    Output order matches the job order (the :func:`_map_jobs`
    contract)."""
    (memory, addresses, chunk, stored), jobs = payload
    state = _VectorSchemeState(memory, addresses, chunk, stored)
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

    With no ``writer`` and no behavioural fault registered on the RAM,
    the contents are built as one array (:func:`default_scheme_image`)
    and bulk-loaded into the RAM, which then holds what
    :func:`~repro.faultsim.campaign.default_scheme_writer` would have
    left.  A custom writer, or registered faults whose ``apply_write``
    must see the fill, keep the behavioural fill and a snapshot of it.
    """
    from repro.faultsim.campaign import (
        _driver_result,
        _structural_classifier,
        default_scheme_writer,
    )

    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")

    ram = memory.ram
    stored = None
    if writer is None and not ram.faults:
        stored = default_scheme_image(ram)
    if stored is None:
        (writer or default_scheme_writer)(memory)
        stored = np.array(
            [ram.raw_word(a) for a in range(ram.organization.words)],
            dtype=np.uint8,
        )
    else:
        ram.load(stored)

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
        (memory, list(addresses), chunk, stored),
        jobs,
        workers,
    )
    row_out = outcomes[: len(row_reps)]
    col_out = outcomes[len(row_reps) : len(row_reps) + len(col_reps)]
    mem_out = outcomes[len(row_reps) + len(col_reps) :]

    classify_row = _structural_classifier(memory.row)
    classify_column = _structural_classifier(memory.column)
    records = [
        ResultRecord(
            fault_id(fault),
            classify_row(fault),
            row_out[row_groups[fault.key()]],
        )
        for fault in row_faults
    ]
    records += [
        ResultRecord(
            fault_id(fault),
            classify_column(fault),
            col_out[col_groups[fault.key()]],
        )
        for fault in column_faults
    ]
    records += [
        ResultRecord(fault_id(fault), "memory", first)
        for fault, first in zip(memory_faults, mem_out)
    ]
    return _driver_result("scheme", "vector", records, len(addresses))
