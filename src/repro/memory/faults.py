"""Behavioural memory fault models.

These act on the *behavioural* parts of the memory (cell array, MUX, data
register); decoder and ROM faults are structural
(:class:`repro.circuits.faults.NetStuckAt` injected into the gate-level
trees).  Read-path faults mutate only the value observed by a read — the
array contents are kept pristine so faults can be added and removed
freely during a campaign.  The one exception is the *write-triggered*
coupling model (:class:`CouplingFault` with ``write_triggered=True``),
whose whole point is that an aggressor write corrupts the victim's
stored state — campaigns re-initialise contents per fault anyway.

Each fault also applies its read effect to a whole stored image at once
(:meth:`MemoryFault.apply_read_image`), which is how the vector scheme
campaign judges a memory fault at every address without a behavioural
read.  The image is an array with NumPy-style 2-D indexing; this module
imports no NumPy itself, because the CLI parser loads it.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

__all__ = [
    "MemoryFault",
    "CellStuckAt",
    "DataLineStuckAt",
    "MuxLineStuckAt",
    "CouplingFault",
    "CompositeFault",
]


class MemoryFault(abc.ABC):
    """A fault observable on the read path of a behavioural memory."""

    @abc.abstractmethod
    def apply_read(self, address: int, word: list, memory) -> None:
        """Mutate ``word`` (list of bits) in place for a read of ``address``."""

    def apply_write(self, address: int, word: list, memory) -> None:
        """Hook for faults that corrupt writes; default: no effect."""

    def apply_read_image(self, image, memory) -> None:
        """Apply the read effect to every word of ``image`` in place.

        ``image`` is a (words, word_width) array of the stored contents
        of ``memory``, which must hold those same contents (coupling
        models read the aggressor through ``memory.raw_word``).  Row
        ``a`` then equals what a read of address ``a`` returns with
        this fault alone injected.  The default runs :meth:`apply_read`
        over every word, so a fault that defines only that stays exact;
        the built-in faults override it with slice assignments.
        """
        for address in range(len(image)):
            word = image[address].tolist()
            self.apply_read(address, word, memory)
            image[address] = word


class CellStuckAt(MemoryFault):
    """One cell of the array stuck at a value — flips at most one output
    bit, the single-parity-bit case of §II."""

    def __init__(self, address: int, bit: int, value: int):
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0/1, got {value!r}")
        self.address = address
        self.bit = bit
        self.value = value

    def apply_read(self, address: int, word: list, memory) -> None:
        if address == self.address:
            word[self.bit] = self.value

    def apply_read_image(self, image, memory) -> None:
        if 0 <= self.address < len(image):
            image[self.address, self.bit] = self.value

    def __repr__(self) -> str:
        return f"CellStuckAt(addr={self.address}, bit={self.bit}, sa{self.value})"


class DataLineStuckAt(MemoryFault):
    """A data-register/output line stuck — affects every address."""

    def __init__(self, bit: int, value: int):
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0/1, got {value!r}")
        self.bit = bit
        self.value = value

    def apply_read(self, address: int, word: list, memory) -> None:
        word[self.bit] = self.value

    def apply_read_image(self, image, memory) -> None:
        image[:, self.bit] = self.value

    def __repr__(self) -> str:
        return f"DataLineStuckAt(bit={self.bit}, sa{self.value})"


class MuxLineStuckAt(MemoryFault):
    """A column-mux way stuck: reads of one mux way return a stuck bit.

    Each MUX line connects to exactly one memory output (§II), so this
    also flips at most one output bit per read — parity-detectable.
    """

    def __init__(self, column: int, bit: int, value: int):
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0/1, got {value!r}")
        self.column = column
        self.bit = bit
        self.value = value

    def apply_read(self, address: int, word: list, memory) -> None:
        if memory.organization.split_address(address)[1] == self.column:
            word[self.bit] = self.value

    def apply_read_image(self, image, memory) -> None:
        # the low address bits select the mux way
        # (MemoryOrganization.split_address)
        mux = memory.organization.column_mux
        if 0 <= self.column < mux:
            image[self.column :: mux, self.bit] = self.value

    def __repr__(self) -> str:
        return (
            f"MuxLineStuckAt(column={self.column}, bit={self.bit}, "
            f"sa{self.value})"
        )


class CouplingFault(MemoryFault):
    """Idempotent coupling fault (CFid) between an aggressor and a victim.

    Two models, selected by ``write_triggered``:

    * ``False`` (default, the pre-1.3 behaviour) — *state coupling* on
      the read path: reading the victim sees ``forced`` in one bit
      whenever the aggressor cell currently holds ``trigger``;
    * ``True`` — the textbook CFid: a write that *transitions* the
      aggressor bit into ``trigger`` forces the victim's **stored** bit
      to ``forced``.  This exercises :meth:`MemoryFault.apply_write`
      and carries the classical march guarantees: March C- detects
      every ⟨aggressor, victim⟩ order, MATS+ provably misses the
      aggressor-above-victim case.

    Beyond the paper's single-stuck-at model; used by the extension tests
    to show what parity and each march algorithm do and do not catch.
    """

    def __init__(
        self,
        aggressor_address: int,
        aggressor_bit: int,
        victim_address: int,
        victim_bit: int,
        trigger: int = 1,
        forced: int = 1,
        write_triggered: bool = False,
    ):
        self.aggressor_address = aggressor_address
        self.aggressor_bit = aggressor_bit
        self.victim_address = victim_address
        self.victim_bit = victim_bit
        self.trigger = trigger
        self.forced = forced
        self.write_triggered = write_triggered
        if write_triggered and aggressor_address == victim_address:
            raise ValueError(
                "write-triggered coupling needs distinct aggressor and "
                "victim cells"
            )

    def apply_read(self, address: int, word: list, memory) -> None:
        if self.write_triggered or address != self.victim_address:
            return
        aggressor = memory.raw_word(self.aggressor_address)
        if aggressor[self.aggressor_bit] == self.trigger:
            word[self.victim_bit] = self.forced

    def apply_read_image(self, image, memory) -> None:
        victim = self.victim_address
        if self.write_triggered or not 0 <= victim < len(image):
            return
        aggressor = memory.raw_word(self.aggressor_address)
        if aggressor[self.aggressor_bit] == self.trigger:
            image[victim, self.victim_bit] = self.forced

    def apply_write(self, address: int, word: list, memory) -> None:
        """Write-triggered model: an aggressor-bit transition into
        ``trigger`` corrupts the victim's stored bit (called before the
        array update, so the pre-write value is still readable)."""
        if not self.write_triggered or address != self.aggressor_address:
            return
        old = memory.raw_word(address)[self.aggressor_bit]
        new = word[self.aggressor_bit]
        if new == self.trigger and old != self.trigger:
            memory.force_stored_bit(
                self.victim_address, self.victim_bit, self.forced
            )

    def __repr__(self) -> str:
        mode = "w" if self.write_triggered else "r"
        return (
            f"CouplingFault(aggr=({self.aggressor_address},"
            f"{self.aggressor_bit}), victim=({self.victim_address},"
            f"{self.victim_bit}), {mode}-triggered)"
        )


class CompositeFault(MemoryFault):
    """Several behavioural faults active together, applied in order —
    the multi-fault combination the scenario layer routes as one unit."""

    def __init__(self, faults: Sequence[MemoryFault]):
        self.faults: Tuple[MemoryFault, ...] = tuple(faults)
        if not self.faults:
            raise ValueError("a composite fault needs at least one part")

    def apply_read(self, address: int, word: list, memory) -> None:
        for fault in self.faults:
            fault.apply_read(address, word, memory)

    def apply_read_image(self, image, memory) -> None:
        for fault in self.faults:
            fault.apply_read_image(image, memory)

    def apply_write(self, address: int, word: list, memory) -> None:
        for fault in self.faults:
            fault.apply_write(address, word, memory)

    def __repr__(self) -> str:
        return f"CompositeFault({', '.join(repr(f) for f in self.faults)})"
