"""Shared low-level utilities: combinatorics and bit manipulation."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.bitops": (
            "all_bit_vectors",
            "bit_slice",
            "bits_to_int",
            "hamming_distance",
            "int_to_bits",
            "parity_of",
            "popcount",
        ),
        "repro.utils.combinatorics": (
            "binomial",
            "central_binomial",
            "max_constant_weight_cardinality",
            "smallest_r_for_cardinality",
        ),
    },
)

if TYPE_CHECKING:
    from repro.utils.bitops import (  # noqa: F401
        all_bit_vectors,
        bit_slice,
        bits_to_int,
        hamming_distance,
        int_to_bits,
        parity_of,
        popcount,
    )
    from repro.utils.combinatorics import (  # noqa: F401
        binomial,
        central_binomial,
        max_constant_weight_cardinality,
        smallest_r_for_cardinality,
    )
