"""Error-detecting codes used by the self-checking memory scheme.

* :class:`ParityCode` — single parity bit protecting the data path (§II).
* :class:`MOutOfNCode` — q-out-of-r unordered codes for the decoder-check
  ROM (§III), with a canonical dense indexing used by the mod-a mapping.
* :class:`BergerCode` — systematic unordered code (cited variants of the
  zero-latency endpoint).
* :class:`TwoRailCode` — checker-internal code.
* :class:`HammingCode` — SEC / SEC-DED baseline for comparisons.
* :mod:`repro.codes.unordered` — predicates proving the covering
  properties the scheme relies on.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.codes.base": ("BitVector", "Code", "validate_bits"),
        "repro.codes.parity": ("ParityCode",),
        "repro.codes.berger": ("BergerCode", "berger_check_width"),
        "repro.codes.m_out_of_n": ("MOutOfNCode", "maximal_code_for_width"),
        "repro.codes.two_rail": ("TwoRailCode",),
        "repro.codes.hamming": (
            "HammingCode",
            "DecodeResult",
            "hamming_check_bits",
        ),
        "repro.codes.unordered": (
            "covers",
            "bitwise_and",
            "is_unordered_code",
            "violating_pairs",
            "and_of_distinct_words_is_noncode",
        ),
    },
)

if TYPE_CHECKING:
    from repro.codes.base import BitVector, Code, validate_bits  # noqa: F401
    from repro.codes.berger import BergerCode, berger_check_width  # noqa: F401
    from repro.codes.hamming import (  # noqa: F401
        DecodeResult,
        HammingCode,
        hamming_check_bits,
    )
    from repro.codes.m_out_of_n import MOutOfNCode, maximal_code_for_width  # noqa: F401
    from repro.codes.parity import ParityCode  # noqa: F401
    from repro.codes.two_rail import TwoRailCode  # noqa: F401
    from repro.codes.unordered import (  # noqa: F401
        and_of_distinct_words_is_noncode,
        bitwise_and,
        covers,
        is_unordered_code,
        violating_pairs,
    )
