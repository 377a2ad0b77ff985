"""Fault-injection campaigns: measure detection latency empirically.

Two levels of campaign:

* :func:`decoder_campaign` — the §III experiment: stuck-at faults in the
  decoder tree (and optionally the ROM), concurrent detection judged by
  the q-out-of-r checker on the ROM outputs, one address per cycle;
* :func:`scheme_campaign` — end-to-end on a
  :class:`~repro.core.scheme.SelfCheckingMemory`: any fault kind, all
  three checkers observed, reads drawn from an address stream.

Both return a :class:`~repro.results.ResultSet`, whose
``escape_fraction_at(c)`` is the empirical counterpart of the analytic
``Pndc`` — the X2 bench overlays the two.

Two engines drive each campaign, selected with ``engine=``:

* ``"vector"`` (default) — the NumPy lane-array engine of
  :mod:`repro.faultsim.vectorsim`: faults x cycles packed into lanes,
  so the whole campaign is evaluated in a handful of array ops per
  cycle window, collapsing on by default, optional ``workers=N``
  process pool;
* ``"serial"`` — the original per-cycle loops below, kept as the
  reference oracle the vector engine is proven bit-identical against.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.checkers.base import Checker
from repro.circuits.faults import FaultBase, NetStuckAt
from repro.core.scheme import SelfCheckingMemory
from repro.decoder.analysis import analyze_decoder
from repro.faultsim.vectorsim import (
    check_engine,
    decoder_campaign_vector,
    scheme_campaign_vector,
)
from repro.memory.faults import MemoryFault
from repro.results.resultset import (
    Provenance,
    ResultRecord,
    ResultSet,
    fault_id,
)
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "decoder_campaign",
    "scheme_campaign",
    "classify_structural_fault",
    "default_scheme_writer",
    "analytic_escapes",
]


def _address_stream(addresses) -> List[int]:
    """Materialise a stimulus: a 1.3 ``Workload`` or a bare sequence."""
    if hasattr(addresses, "address_list"):
        return addresses.address_list()
    return list(addresses)


def _driver_result(
    campaign: str, engine: str, records: List[ResultRecord], cycles: int
) -> ResultSet:
    """A driver's records, stamped with the campaign family and engine
    (:class:`repro.scenarios.CampaignEngine` restamps the full
    provenance)."""
    from repro import __version__

    provenance = Provenance(
        campaign=campaign, engine=engine, repro_version=__version__
    )
    return ResultSet(records, (provenance,), cycles)


def classify_structural_fault(
    checked: CheckedDecoder, fault: FaultBase
) -> str:
    """'sa0'/'sa1' for tree faults, 'rom' for NOR-matrix faults.

    Primary-input nets are checked first: the direct literal of a level-0
    block shares its net with the address input, and a *stem* fault there
    re-decodes a consistent wrong address — an out-of-model address fault,
    not a block fault.
    """
    return _classify(
        fault,
        checked.tree.circuit.input_nets,
        checked.rom_nets,
        checked.tree.site_of_net,
    )


def _structural_classifier(
    checked: CheckedDecoder,
) -> Callable[[FaultBase], str]:
    """:func:`classify_structural_fault` for one decoder, its input and
    ROM nets gathered into sets once (campaigns classify every record
    of a decoder)."""
    inputs = frozenset(checked.tree.circuit.input_nets)
    rom = frozenset(checked.rom_nets)
    site_of_net = checked.tree.site_of_net
    return lambda fault: _classify(fault, inputs, rom, site_of_net)


def _classify(fault, inputs, rom, site_of_net) -> str:
    if isinstance(fault, NetStuckAt):
        if fault.net in inputs:
            return "address"
        if fault.net in rom:
            return "rom"
        if site_of_net(fault.net) is None:
            return "address"
        return "sa0" if fault.value == 0 else "sa1"
    return "pin"


def analytic_escapes(checked: CheckedDecoder) -> dict:
    """fault key -> per-cycle escape from the §III.2 site analysis.

    The one attachment table both campaign engines draw from, so the
    serial oracle and the vector engine can never diverge on analytic
    data.
    """
    analysis = analyze_decoder(checked.tree, checked.mapping)
    return {
        site.fault.key(): float(site.escape_per_cycle)
        for site in analysis.sites
        if site.escape_per_cycle is not None
    }


def decoder_campaign(
    checked: CheckedDecoder,
    checker: Checker,
    faults: Sequence[FaultBase],
    addresses: Union[Sequence[int], "object"],
    attach_analytic: bool = True,
    engine: str = "vector",
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """Simulate each fault against the address stream.

    Per cycle: apply the address, read the ROM word, ask the checker.
    ``first_error`` is recorded at the **word lines** (the first cycle the
    selected-line vector is wrong), because that is when the memory
    delivers corrupt data — a merge of two lines carrying the *same* code
    word corrupts data while leaving the ROM word legal, which is exactly
    the escape the paper's model quantifies.  The latency (detection
    minus first error) then makes the paper's "zero detection latency"
    claims checkable as ``latency == 0``.

    ``addresses`` may be a bare address sequence or any
    :class:`repro.scenarios.Workload` (its address-per-cycle view is
    used).  ``engine="vector"`` (default) evaluates the whole collapsed
    fault list per cycle window in NumPy lanes, with collapsing
    (``collapse=False`` disables it), optional process-pool sharding
    (``workers=N``) and bounded-memory lane windows that ramp up from
    one 64-lane word to a cap of ``chunk=W`` lanes (8192 when unset;
    results invariant in W); ``engine="serial"`` runs the per-cycle
    reference loop.
    """
    engine = check_engine(engine)
    addresses = _address_stream(addresses)
    if engine == "vector":
        return decoder_campaign_vector(
            checked,
            checker,
            faults,
            addresses,
            attach_analytic=attach_analytic,
            collapse=collapse,
            workers=workers,
            chunk=chunk,
        )

    analytic = analytic_escapes(checked) if attach_analytic else None

    classify = _structural_classifier(checked)
    records: List[ResultRecord] = []
    for fault in faults:
        kind = classify(fault)
        first_error: Optional[int] = None
        first_detection: Optional[int] = None
        for cycle, address in enumerate(addresses):
            lines, rom_word = checked.evaluate(address, faults=(fault,))
            # correct selection = exactly the addressed line active
            if first_error is None and (
                lines[address] != 1 or sum(lines) != 1
            ):
                first_error = cycle
            if not checker.accepts(rom_word):
                first_detection = cycle
                break
        escape = None
        if analytic is not None and isinstance(fault, NetStuckAt):
            escape = analytic.get(fault.key())
        records.append(
            ResultRecord(
                fault_id(fault), kind, first_detection, first_error, escape
            )
        )
    return _driver_result("decoder", "serial", records, len(addresses))


def default_scheme_writer(memory: SelfCheckingMemory) -> None:
    """Address-dependent mixing pattern: distinct rows hold distinct
    words, so aliased reads disturb the data path observably."""
    bits = memory.organization.bits
    for address in range(memory.organization.words):
        pattern = tuple(
            ((address * 0x9E3779B1) >> i) & 1 for i in range(bits)
        )
        memory.write(address, pattern)


def scheme_campaign(
    memory: SelfCheckingMemory,
    addresses: Union[Sequence[int], "object"],
    row_faults: Iterable[FaultBase] = (),
    column_faults: Iterable[FaultBase] = (),
    memory_faults: Iterable[MemoryFault] = (),
    writer: Optional[Callable[[SelfCheckingMemory], None]] = None,
    engine: str = "vector",
    collapse: bool = True,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> ResultSet:
    """End-to-end campaign on the assembled scheme.

    ``writer`` initialises memory contents before each fault run (default:
    :func:`default_scheme_writer`, an address-dependent pattern so decoder
    aliasing is observable in the data path too).  The vector engine
    builds those default contents as one array and bulk-loads them
    (:func:`~repro.faultsim.vectorsim.default_scheme_image`) unless a
    behavioural fault registered on the RAM must see the writes.

    ``engine``/``collapse``/``workers``/``chunk`` act as in
    :func:`decoder_campaign`: ``"vector"`` evaluates the whole
    collapsed fault list per cycle window in one NumPy traversal;
    ``engine="serial"`` is the per-cycle reference oracle.
    ``addresses`` accepts a bare sequence or a
    :class:`repro.scenarios.Workload`.

    Both engines end the campaign with no fault injected on ``memory``,
    whether or not the fault lists are empty: a fault injected
    beforehand is cleared too.
    """
    engine = check_engine(engine)
    addresses = _address_stream(addresses)
    if engine == "vector":
        return scheme_campaign_vector(
            memory,
            addresses,
            row_faults=row_faults,
            column_faults=column_faults,
            memory_faults=memory_faults,
            writer=writer,
            collapse=collapse,
            workers=workers,
            chunk=chunk,
        )

    fill = writer or default_scheme_writer
    fill(memory)

    records: List[ResultRecord] = []

    def run_one(fault, kind: str, inject: Callable[[], None]) -> None:
        memory.clear_faults()
        inject()
        first_detection: Optional[int] = None
        for cycle, address in enumerate(addresses):
            if memory.read(address).error_detected:
                first_detection = cycle
                break
        records.append(ResultRecord(fault_id(fault), kind, first_detection))
        memory.clear_faults()

    classify = _structural_classifier(memory.row)
    for fault in row_faults:
        kind = classify(fault)
        run_one(fault, kind, lambda f=fault: memory.inject_row_fault(f))
    classify = _structural_classifier(memory.column)
    for fault in column_faults:
        kind = classify(fault)
        run_one(fault, kind, lambda f=fault: memory.inject_column_fault(f))
    for fault in memory_faults:
        run_one(fault, "memory", lambda f=fault: memory.inject_memory_fault(f))
    # run_one clears after each fault; this clears a pre-injected fault
    # when the lists are empty, as the vector engine does
    memory.clear_faults()
    return _driver_result("scheme", "serial", records, len(addresses))
