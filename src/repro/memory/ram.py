"""Behavioural RAM with the figure-2 structure.

Cell array + row decoder + column MUX + data register.  The array and MUX
are behavioural (cycle-level functional model); the decoders are
*optional* gate-level :class:`~repro.decoder.tree.DecoderTree` instances
when the RAM is wrapped by the self-checking scheme — here the plain RAM
resolves addresses arithmetically and applies behavioural faults, serving
as the substrate under both the protected and the unprotected baselines.

A read returns the stored word after every registered
:class:`~repro.memory.faults.MemoryFault` has had its say; an optional
parity bit (one per word, as in §II) is maintained transparently on
writes and returned alongside the data so the caller's checker can judge
it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.codes.parity import ParityCode
from repro.memory.faults import MemoryFault
from repro.memory.organization import MemoryOrganization

__all__ = ["BehavioralRAM"]


class BehavioralRAM:
    """Word-addressable RAM with parity and behavioural fault injection.

    >>> ram = BehavioralRAM(MemoryOrganization(64, 8, column_mux=4))
    >>> ram.write(5, (1, 0, 1, 1, 0, 0, 1, 0))
    >>> ram.read(5)[:8]
    (1, 0, 1, 1, 0, 0, 1, 0)
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        with_parity: bool = True,
        even_parity: bool = True,
    ):
        self.organization = organization
        self.with_parity = with_parity
        self.parity_code: Optional[ParityCode] = (
            ParityCode(organization.bits, even=even_parity)
            if with_parity
            else None
        )
        stored_bits = organization.bits + (1 if with_parity else 0)
        self._stored_bits = stored_bits
        self._array: List[List[int]] = [
            [0] * stored_bits for _ in range(organization.words)
        ]
        if with_parity:
            # All-zero data has parity bit 0 (even) / 1 (odd): initialise.
            init = self.parity_code.parity_bit((0,) * organization.bits)
            for word in self._array:
                word[-1] = init
        self.faults: List[MemoryFault] = []

    def __repr__(self) -> str:
        return (
            f"BehavioralRAM({self.organization.label()}, "
            f"parity={self.with_parity}, faults={len(self.faults)})"
        )

    @property
    def word_width(self) -> int:
        """Bits returned by a read (data + parity when enabled)."""
        return self._stored_bits

    # -- fault management ------------------------------------------------------

    def inject(self, fault: MemoryFault) -> None:
        """Register a behavioural fault for subsequent accesses."""
        self.faults.append(fault)

    def clear_faults(self) -> None:
        self.faults.clear()

    # -- accesses ----------------------------------------------------------------

    def write(self, address: int, data: Sequence[int]) -> None:
        """Store a data word (parity bit computed and stored alongside)."""
        self._check_address(address)
        data = tuple(data)
        if len(data) != self.organization.bits:
            raise ValueError(
                f"expected {self.organization.bits} data bits, "
                f"got {len(data)}"
            )
        stored = list(data)
        if self.with_parity:
            stored.append(self.parity_code.parity_bit(data))
        for fault in self.faults:
            fault.apply_write(address, stored, self)
        self._array[address] = stored

    def read(self, address: int) -> Tuple[int, ...]:
        """Read the stored word (data + parity), faults applied."""
        self._check_address(address)
        word = list(self._array[address])
        for fault in self.faults:
            fault.apply_read(address, word, self)
        return tuple(word)

    def read_data(self, address: int) -> Tuple[int, ...]:
        """Data bits only (parity stripped)."""
        word = self.read(address)
        return word[: self.organization.bits]

    def load(self, image) -> None:
        """Replace the whole stored contents, parity bits included.

        ``image`` is a (words, word_width) NumPy array: one stored
        word per address, data bits then the parity bit when enabled.
        It is stored as given: no parity bit is recomputed and no
        registered fault's ``apply_write`` sees it, so it matches a
        :meth:`write` per address only on a RAM with no faults.
        """
        if image.shape != (self.organization.words, self._stored_bits):
            raise ValueError(
                f"expected {self.organization.words} words of "
                f"{self._stored_bits} stored bits, got shape {image.shape}"
            )
        self._array = image.tolist()

    def raw_word(self, address: int) -> Tuple[int, ...]:
        """Fault-free stored contents (used by coupling-fault models)."""
        self._check_address(address)
        return tuple(self._array[address])

    def force_stored_bit(self, address: int, bit: int, value: int) -> None:
        """Overwrite one stored bit in place, bypassing parity.

        The write-triggered coupling model's corruption primitive: like
        :meth:`flip_stored_bit` the parity bit is *not* recomputed, since
        the corruption happens behind the write path's back.
        """
        self._check_address(address)
        if not 0 <= bit < self._stored_bits:
            raise ValueError(
                f"bit {bit} out of range [0, {self._stored_bits})"
            )
        if value not in (0, 1):
            raise ValueError(f"stored bit must be 0/1, got {value!r}")
        self._array[address][bit] = value

    def flip_stored_bit(self, address: int, bit: int) -> None:
        """Flip one stored bit in place — a single-event upset.

        Unlike :meth:`write` this does *not* recompute the parity bit:
        the whole point of an upset is that the stored word leaves the
        code.  Used by :mod:`repro.faultsim.transient`.
        """
        self._check_address(address)
        if not 0 <= bit < self._stored_bits:
            raise ValueError(
                f"bit {bit} out of range [0, {self._stored_bits})"
            )
        self._array[address][bit] ^= 1

    def parity_ok(self, address: int) -> bool:
        """Does the (possibly faulty) read satisfy the parity code?"""
        if not self.with_parity:
            raise RuntimeError("RAM built without parity")
        return self.parity_code.is_codeword(self.read(address))

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.organization.words:
            raise ValueError(
                f"address {address} out of range "
                f"[0, {self.organization.words})"
            )
