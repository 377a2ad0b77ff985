"""The assembled self-checking memory of figure 3.

Composition (one instance per memory):

* a behavioural :class:`~repro.memory.ram.BehavioralRAM` (cell array,
  MUX, data register) with one parity bit per word;
* a gate-level **row** decoder tree + NOR matrix + q2-out-of-r2 checker;
* a gate-level **column** decoder tree + NOR matrix + q1-out-of-r1
  checker;
* a parity checker on the data path;
* a two-rail tree merging the three indications into one pair
  (behaviourally merged here; gate counts available for the area model).

Every read returns a :class:`ReadResult` carrying the data and the three
error indications.  Faults are injected on any of the three structural
circuits (decoder/ROM stuck-ats) or behaviourally on the array
(:mod:`repro.memory.faults`), and the campaign driver in
:mod:`repro.faultsim` measures detection latency end to end.

The scheme can be built three ways:

* ``DesignEngine.build(DesignSpec(...))`` — the canonical front door
  (:mod:`repro.design`): give the tolerated detection latency ``c``
  and escape probability ``Pndc``, the code is selected per §III.2,
  and the column decoder can be sized independently;
* :meth:`SelfCheckingMemory.from_selection` — one selected code on
  both decoders (the tables' convention);
* direct construction with explicit codes, for table sweeps and
  ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.area.stdcell import StdCellAreaModel
from repro.checkers.base import indication_valid
from repro.checkers.parity_checker import ParityChecker
from repro.core.mapping import AddressMapping, mapping_for_code
from repro.core.selection import CodeSelection
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.rom.nor_matrix import CheckedDecoder

__all__ = ["ReadResult", "SelfCheckingMemory"]


@dataclass
class ReadResult:
    """Outcome of one self-checking read access."""

    address: int
    data: Tuple[int, ...]
    #: two-rail indications
    row_indication: Tuple[int, int]
    column_indication: Tuple[int, int]
    parity_indication: Tuple[int, int]

    @property
    def row_ok(self) -> bool:
        return indication_valid(self.row_indication)

    @property
    def column_ok(self) -> bool:
        return indication_valid(self.column_indication)

    @property
    def parity_ok(self) -> bool:
        return indication_valid(self.parity_indication)

    @property
    def error_detected(self) -> bool:
        """Any checker flags a non-code observation."""
        return not (self.row_ok and self.column_ok and self.parity_ok)


class SelfCheckingMemory:
    """Figure-3 self-checking RAM: parity data path + checked decoders."""

    def __init__(
        self,
        organization: MemoryOrganization,
        row_mapping: AddressMapping,
        column_mapping: AddressMapping,
        structural_checkers: bool = False,
        decoder_style: str = "tree",
    ):
        # Checkers and decoder styles resolve through the design
        # registries, so plugin codes work without edits here.  Imported
        # lazily: repro.design imports this module at package-load time.
        from repro.design.registry import checker_for, decoder_for

        if row_mapping.n_bits != organization.p:
            raise ValueError(
                f"row mapping covers {row_mapping.n_bits} bits, "
                f"organization needs p={organization.p}"
            )
        if column_mapping.n_bits != organization.s:
            raise ValueError(
                f"column mapping covers {column_mapping.n_bits} bits, "
                f"organization needs s={organization.s}"
            )
        self.organization = organization
        self.ram = BehavioralRAM(organization, with_parity=True)
        self.row = CheckedDecoder(
            row_mapping,
            name="row",
            decoder=decoder_for(decoder_style, row_mapping.n_bits, "row_tree"),
        )
        self.column = CheckedDecoder(
            column_mapping,
            name="col",
            decoder=decoder_for(
                decoder_style, column_mapping.n_bits, "col_tree"
            ),
        )
        self.row_checker = checker_for(
            row_mapping, structural=structural_checkers
        )
        self.column_checker = checker_for(
            column_mapping, structural=structural_checkers
        )
        self.parity_checker = ParityChecker(organization.bits + 1)
        #: the CodeSelection this memory was sized from, when built via
        #: from_selection / DesignEngine.build
        self.selection: Optional[CodeSelection] = None
        #: structural faults active on the row / column checked decoders
        self.row_faults: list = []
        self.column_faults: list = []

    @classmethod
    def from_selection(
        cls,
        organization: MemoryOrganization,
        selection: CodeSelection,
        structural_checkers: bool = False,
    ) -> "SelfCheckingMemory":
        """Build with one selected code on both decoders (table convention)."""
        row_mapping = mapping_for_code(selection.code, organization.p)
        column_mapping = mapping_for_code(selection.code, organization.s)
        memory = cls(
            organization,
            row_mapping,
            column_mapping,
            structural_checkers=structural_checkers,
        )
        memory.selection = selection
        return memory

    def __repr__(self) -> str:
        return (
            f"SelfCheckingMemory({self.organization.label()}, "
            f"row={self.row.mapping!r}, column={self.column.mapping!r})"
        )

    # -- fault injection -----------------------------------------------------

    def inject_row_fault(self, fault) -> None:
        """Structural stuck-at inside the row decoder tree or its ROM."""
        self.row_faults.append(fault)

    def inject_column_fault(self, fault) -> None:
        self.column_faults.append(fault)

    def inject_memory_fault(self, fault) -> None:
        """Behavioural fault on the array / MUX / data path."""
        self.ram.inject(fault)

    def clear_faults(self) -> None:
        self.row_faults.clear()
        self.column_faults.clear()
        self.ram.clear_faults()

    # -- accesses -------------------------------------------------------------

    def write(self, address: int, data: Sequence[int]) -> None:
        """Plain write: contents stored at the requested address.

        Decoder faults are modelled on the read path by default (writes
        go straight to the array).  Use :meth:`checked_write` to route a
        write through the faulty decoders as real hardware would.
        """
        self.ram.write(address, data)

    def checked_write(self, address: int, data: Sequence[int]) -> ReadResult:
        """Write *through* the (possibly faulty) decoders.

        A stuck-at-1 merge writes the data into **every** selected
        location (the word-line short drives both rows); a stuck-at-0
        drops the write entirely.  The returned :class:`ReadResult`
        carries the decoder-check indications for the write cycle (data
        and parity indication reflect the written word), so concurrent
        checking works for writes exactly as §III intends — the ROM
        observes the word lines regardless of the access type.
        """
        row_value, column_value = self.organization.split_address(address)
        row_lines, row_word = self.row.evaluate(
            row_value, faults=tuple(self.row_faults)
        )
        col_lines, col_word = self.column.evaluate(
            column_value, faults=tuple(self.column_faults)
        )
        for row in (i for i, bit in enumerate(row_lines) if bit):
            for col in (i for i, bit in enumerate(col_lines) if bit):
                self.ram.write(
                    self.organization.join_address(row, col), data
                )
        stored = tuple(data) + (
            self.ram.parity_code.parity_bit(tuple(data)),
        )
        return ReadResult(
            address=address,
            data=tuple(data),
            row_indication=self.row_checker.indication(row_word),
            column_indication=self.column_checker.indication(col_word),
            parity_indication=self.parity_checker.indication(stored),
        )

    def read(self, address: int) -> ReadResult:
        """One checked read: data + the three error indications.

        The word returned to the user follows the *faulty* decoders: if a
        decoder fault redirects or merges word lines, the data comes from
        the line(s) actually selected (merged reads OR... in a real array
        multiple active word lines short bit lines; we model the common
        CMOS behaviour as the bitwise AND of the selected words for
        precharged-high bit lines).
        """
        row_value, column_value = self.organization.split_address(address)

        row_lines, row_word = self.row.evaluate(
            row_value, faults=tuple(self.row_faults)
        )
        col_lines, col_word = self.column.evaluate(
            column_value, faults=tuple(self.column_faults)
        )

        data = self._read_through_lines(row_lines, col_lines, address)

        return ReadResult(
            address=address,
            data=data[: self.organization.bits],
            row_indication=self.row_checker.indication(row_word),
            column_indication=self.column_checker.indication(col_word),
            parity_indication=self.parity_checker.indication(data),
        )

    def _read_through_lines(
        self,
        row_lines: Sequence[int],
        col_lines: Sequence[int],
        requested: int,
    ) -> Tuple[int, ...]:
        """Resolve the (possibly multi-hot) selected lines to a data word."""
        active_rows = [i for i, bit in enumerate(row_lines) if bit]
        active_cols = [i for i, bit in enumerate(col_lines) if bit]
        width = self.ram.word_width
        if not active_rows or not active_cols:
            # Nothing selected: precharged-high bit lines read all-1s.
            return (1,) * width
        word = [1] * width
        for row in active_rows:
            for col in active_cols:
                stored = self.ram.read(
                    self.organization.join_address(row, col)
                )
                word = [w & s for w, s in zip(word, stored)]
        return tuple(word)

    # -- reporting ------------------------------------------------------------

    def area_overhead_percent(
        self, model: Optional[StdCellAreaModel] = None
    ) -> float:
        """Decoder-check overhead under the std-cell model (table metric)."""
        model = model or StdCellAreaModel()
        return model.overhead_percent(
            self.organization,
            r_row=self.row.mapping.rom_width,
            r_column=self.column.mapping.rom_width,
        )
