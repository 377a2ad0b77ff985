"""Checker interface and the shared error-indication convention.

Every checker in this library emits a **two-rail error indication**
``(z1, z2)``: the observed word is accepted iff ``z1 != z2``.  This is the
classical self-checking convention — a valid indication is a 1-out-of-2
code word, so single faults inside the checker itself cannot silently
produce "accept" for every input (the property the TSC literature calls
code-disjointness; :mod:`repro.checkers.properties` verifies it
exhaustively for our gate-level checkers).
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

from repro.circuits.parallel import judge_lanes

__all__ = ["Checker", "indication_valid"]


def indication_valid(indication: Sequence[int]) -> bool:
    """True iff a two-rail error indication signals 'code word accepted'.

    >>> indication_valid((0, 1))
    True
    >>> indication_valid((1, 1))
    False
    """
    if len(indication) != 2:
        raise ValueError(
            f"two-rail indication must have 2 rails, got {len(indication)}"
        )
    return indication[0] != indication[1]


class Checker(abc.ABC):
    """A concurrent checker for one code."""

    #: number of observed input bits
    input_width: int

    @abc.abstractmethod
    def indication(self, word: Sequence[int]) -> Tuple[int, int]:
        """Two-rail indication for an observed word."""

    def accepts(self, word: Sequence[int]) -> bool:
        """Convenience: True iff the indication is valid (word accepted)."""
        return indication_valid(self.indication(word))

    def _check_lane_columns(self, columns: Sequence) -> None:
        """Arity guard shared by every ``accepts_lanes`` implementation."""
        if len(columns) != self.input_width:
            raise ValueError(
                f"expected {self.input_width} lane columns, "
                f"got {len(columns)}"
            )

    def accepts_lanes(self, columns: Sequence, mask):
        """Lane-parallel acceptance over lane words.

        ``columns[b]`` is a (W,) or (F, W) ``uint64`` array carrying bit
        ``b`` of the observed words, one word per lane (the
        :mod:`repro.circuits.parallel` convention: lane ``k`` of word
        ``j`` is observation ``64*j + k``); ``mask`` is the (W,) word
        array of valid lanes.  Returns lane words set where that lane's
        word is accepted.  This generic implementation unpacks the
        lanes and judges each distinct word once with :meth:`accepts`,
        so every checker, plugins included, runs in lane campaigns; the
        built-in checkers override it with array reductions that never
        unpack.
        """
        self._check_lane_columns(columns)
        return judge_lanes(columns, mask, self.accepts)
