"""Address-to-code-word mappings (§III.1 and the final mapping of §III.2).

The decoder-check ROM assigns one code word of an unordered code to every
decoder output line.  The mapping determines which stuck-at-1 merges are
detectable: two simultaneously-selected lines escape iff they carry the
*same* code word.  The paper's constructions, all implemented here:

* :class:`ModAMapping` — the paper's final mapping ``B = A mod a`` onto a
  q-out-of-r code, with ``a`` odd (``C(r,q)`` if odd, else ``C(r,q) - 1``)
  and an optional *completion remap* that reassigns one address to the
  otherwise-unused code word so the downstream m-out-of-n checker is fully
  exercised;
* :class:`ParityMapping` — the 1-out-of-2 special case (even parity, odd
  parity of the decoder inputs), replacing mod-2 which would alias with
  the ``2^j`` block offsets;
* :class:`IdentityMapping` — ``a = 2^n`` zero-latency endpoint
  (Nicolaidis'94: one distinct code word per decoder output);
* :class:`TruncatedBergerMapping` — the *preliminary* §III.1 construction
  (Berger code over the low ``n-k`` address bits), kept as the ablation
  baseline: its effective ``a = 2^(n-k)`` is even, so faults in the
  sub-decoder of the high ``k`` bits are never detected.
"""

from __future__ import annotations

import abc
from typing import List

from repro.codes.base import BitVector
from repro.codes.berger import BergerCode
from repro.codes.m_out_of_n import MOutOfNCode
from repro.utils.bitops import parity_of

__all__ = [
    "AddressMapping",
    "ModAMapping",
    "ParityMapping",
    "IdentityMapping",
    "TruncatedBergerMapping",
    "mapping_for_code",
]


class AddressMapping(abc.ABC):
    """Assigns a code word (and a dense *index*) to every decoder output.

    Detection analysis only needs to compare indices: two merged lines are
    detected iff their indices differ (distinct indices denote distinct
    code words of an unordered code).
    """

    #: number of decoder address bits
    n_bits: int
    #: width of the ROM output (bits per code word)
    rom_width: int
    #: number of *distinct* code words actually used (the paper's ``a``
    #: for the mod mapping; 2 for parity; 2^n for identity)
    num_words_used: int

    @abc.abstractmethod
    def index(self, address: int) -> int:
        """Dense code-word index for a decoder output line."""

    @abc.abstractmethod
    def codeword(self, address: int) -> BitVector:
        """The ROM row programmed for a decoder output line."""

    def indices(self) -> List[int]:
        """Index of every address, in address order."""
        return [self.index(addr) for addr in range(1 << self.n_bits)]

    def table(self) -> List[BitVector]:
        """Full ROM programming (one row per decoder output)."""
        return [self.codeword(addr) for addr in range(1 << self.n_bits)]

    def _check_address(self, address: int) -> None:
        if not 0 <= address < (1 << self.n_bits):
            raise ValueError(
                f"address {address} out of range [0, {1 << self.n_bits})"
            )


class ModAMapping(AddressMapping):
    """The paper's ``B = A mod a`` mapping onto a q-out-of-r code.

    ``a`` defaults to ``C(r, q)`` when odd and ``C(r, q) - 1`` when even
    (§III.2: "a must be odd" so that ``gcd(2^j, a) = 1`` for every block
    offset j).  When ``a < C(r, q)`` and ``complete=True``, unused code
    words are assigned to the addresses ``a, a+1, ...`` (one address each,
    when the address space allows) so every code word reaches the checker
    — the paper's completion remap.

    >>> m = ModAMapping(MOutOfNCode(3, 5), n_bits=4)
    >>> m.a
    9
    >>> m.index(13)   # 13 mod 9
    4
    >>> m.index(9)    # completion remap: address 9 takes the unused word
    9
    """

    def __init__(
        self,
        code: MOutOfNCode,
        n_bits: int,
        a: int = None,
        complete: bool = True,
        allow_even_a: bool = False,
    ):
        cardinality = code.cardinality()
        if a is None:
            a = cardinality if cardinality % 2 else cardinality - 1
        if a < 1 or a > cardinality:
            raise ValueError(
                f"a must be within [1, C={cardinality}], got {a}"
            )
        if a % 2 == 0 and not allow_even_a:
            raise ValueError(
                f"a must be odd (got {a}); even a shares a factor with the "
                f"2^j block offsets and leaves sub-decoders unchecked "
                f"(§III.2). Pass allow_even_a=True for ablation studies."
            )
        self.code = code
        self.n_bits = n_bits
        self.a = a
        self.rom_width = code.n
        self.complete = complete
        # Completion remap: address (a + j) -> unused word index (a + j),
        # for each unused index that has a spare address available.
        self._remap = {}
        if complete:
            for unused_index in range(a, cardinality):
                if unused_index < (1 << n_bits):
                    self._remap[unused_index] = unused_index
        self.num_words_used = a + len(self._remap)

    def __repr__(self) -> str:
        return (
            f"ModAMapping(code={self.code.name}, n_bits={self.n_bits}, "
            f"a={self.a}, complete={self.complete})"
        )

    def index(self, address: int) -> int:
        self._check_address(address)
        remapped = self._remap.get(address)
        if remapped is not None:
            return remapped
        return address % self.a

    def codeword(self, address: int) -> BitVector:
        return self.code.word_at(self.index(address))

    def table(self) -> List[BitVector]:
        """Full ROM programming, each distinct code word unranked once
        (the base class unranks one per address)."""
        size = 1 << self.n_bits
        words = [self.code.word_at(i) for i in range(min(self.a, size))]
        table = [words[address % self.a] for address in range(size)]
        for address, index in self._remap.items():
            table[address] = self.code.word_at(index)
        return table

    def words_emitted(self) -> List[BitVector]:
        """Distinct code words reaching the checker (for self-testing checks)."""
        seen = sorted({self.index(addr) for addr in range(1 << self.n_bits)})
        return [self.code.word_at(i) for i in seen]


class ParityMapping(AddressMapping):
    """1-out-of-2 special case: (even parity, odd parity) of the inputs.

    Word layout: output 0 is the *even-parity* rail (1 iff the address has
    an even number of 1 bits), output 1 the odd rail.  Every address maps
    to one of two complementary 1-out-of-2 words, so ``a = 2``; the parity
    function avoids the gcd pathology a literal ``mod 2`` would have
    (mod 2 looks only at address bit 0; parity mixes all bits, giving
    every block a 1/2 per-cycle detection probability).

    >>> p = ParityMapping(4)
    >>> p.codeword(0)    # parity 0 -> even rail high
    (1, 0)
    >>> p.codeword(7)    # parity 1 -> odd rail high
    (0, 1)
    """

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        self.n_bits = n_bits
        self.rom_width = 2
        self.num_words_used = 2
        self.code = MOutOfNCode(1, 2)

    def __repr__(self) -> str:
        return f"ParityMapping(n_bits={self.n_bits})"

    def index(self, address: int) -> int:
        self._check_address(address)
        return parity_of(address)

    def codeword(self, address: int) -> BitVector:
        return (1, 0) if self.index(address) == 0 else (0, 1)


class IdentityMapping(AddressMapping):
    """Zero-latency endpoint: a distinct code word per decoder output.

    This is the scheme of [NIC 94]: the unordered code has at least as
    many words as the decoder has outputs, so *every* stuck-at-1 merge
    joins two distinct words and is detected on the first erroneous cycle.
    """

    def __init__(self, code: MOutOfNCode, n_bits: int):
        if code.cardinality() < (1 << n_bits):
            raise ValueError(
                f"{code.name} has {code.cardinality()} words; need at least "
                f"{1 << n_bits} for a zero-latency identity mapping"
            )
        self.code = code
        self.n_bits = n_bits
        self.rom_width = code.n
        self.num_words_used = 1 << n_bits

    def __repr__(self) -> str:
        return f"IdentityMapping(code={self.code.name}, n_bits={self.n_bits})"

    def index(self, address: int) -> int:
        self._check_address(address)
        return address

    def codeword(self, address: int) -> BitVector:
        return self.code.word_at(self.index(address))


class TruncatedBergerMapping(AddressMapping):
    """§III.1 preliminary construction (ablation baseline — deliberately flawed).

    The ROM generates the low ``n - k`` address bits plus their Berger
    check bits.  Faults confined to the sub-decoder of the high ``k`` bits
    merge two lines with identical low bits, hence identical code words:
    *infinite* detection latency.  The effective modulus is ``2^(n-k)``
    (even), which is exactly the pathology the final mod-a construction
    removes by requiring odd ``a``.
    """

    def __init__(self, n_bits: int, k: int):
        if not 0 < k < n_bits:
            raise ValueError(
                f"k must satisfy 0 < k < n_bits, got k={k}, n_bits={n_bits}"
            )
        self.n_bits = n_bits
        self.k = k
        self.info_bits = n_bits - k
        self.berger = BergerCode(self.info_bits)
        self.rom_width = self.berger.length
        self.num_words_used = 1 << self.info_bits

    def __repr__(self) -> str:
        return f"TruncatedBergerMapping(n_bits={self.n_bits}, k={self.k})"

    def index(self, address: int) -> int:
        self._check_address(address)
        return address & ((1 << self.info_bits) - 1)

    def codeword(self, address: int) -> BitVector:
        low = self.index(address)
        bits = tuple(
            (low >> (self.info_bits - 1 - i)) & 1
            for i in range(self.info_bits)
        )
        return self.berger.encode(bits)


def mapping_for_code(
    code: MOutOfNCode, n_bits: int, complete: bool = True
) -> AddressMapping:
    """The paper's mapping for a selected code.

    1-out-of-2 gets the parity mapping, other m-out-of-n codes the mod-a
    mapping, plugin codes whatever their registered kind names.  Kept
    here as the historical entry point; the dispatch itself lives in
    :mod:`repro.design.registry` (imported lazily — the design package
    imports this module at load time).
    """
    from repro.design.registry import mapping_for_code as registry_lookup

    return registry_lookup(code, n_bits, complete=complete)
