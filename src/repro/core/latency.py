"""Detection-latency arithmetic (§III.2) — the paper's probability model.

Model recap.  A stuck-at-1 in a decoding block that decodes ``i`` address
bits at offset ``j`` merges the faulty line (sub-value ``m1``) with the
line actually addressed (sub-value ``m2``).  Under the mod-a mapping the
merge escapes iff ``2^j·m1 ≡ 2^j·m2 (mod a)``; with ``a`` odd this reduces
to ``m1 ≡ m2 (mod a)``.  With one uniformly random address per clock
cycle, the per-cycle probability that the fault stays *undetected*
(counting cycles where no error occurs, i.e. ``m2 = m1``) is::

    P_nd(i, a, m1) = #{x in [0, 2^i) : x ≡ m1 (mod a)} / 2^i
                  <= ceil(2^i / a) / 2^i          (the paper's bound)

and the probability of surviving ``c`` cycles is ``P_nd^c`` — the paper's
``Pndc = (⌈2^i/a⌉/2^i)^c``.  For blocks with ``2^i <= a`` only ``x = m1``
collides, so the first *error* is detected (zero detection latency).

This module provides the exact counts, the paper's worst-case bound, its
supremum over block widths, and derived quantities (expected latency,
quantiles of the geometric detection law) used by the benches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

__all__ = [
    "collision_count",
    "escape_probability",
    "worst_escape_probability",
    "worst_escape_over_blocks",
    "pndc",
    "worst_pndc",
    "required_a_for",
    "cycles_to_reach",
    "expected_detection_cycles",
    "detection_quantile",
]


def collision_count(i: int, a: int, m1: int, modulus_gcd: int = 1) -> int:
    """#{x in [0, 2^i) : x ≡ m1 (mod a/gcd)} — exact escape count.

    ``modulus_gcd`` models the §III.2 pathology: when ``gcd(2^j, a) = f``,
    the effective modulus seen by a block at offset ``j`` is ``a/f``.  For
    the paper's odd ``a`` the gcd is always 1.
    """
    if i < 0:
        raise ValueError(f"block width must be >= 0, got {i}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if modulus_gcd < 1 or a % modulus_gcd:
        raise ValueError(f"gcd {modulus_gcd} must divide a={a}")
    eff = a // modulus_gcd
    total = 1 << i
    residue = m1 % eff
    if residue >= total:
        return 0
    return (total - 1 - residue) // eff + 1


def escape_probability(
    i: int, a: int, m1: Optional[int] = None, modulus_gcd: int = 1
) -> Fraction:
    """Exact per-cycle non-detection probability for one fault.

    With ``m1=None`` returns the worst case over the faulty line's
    sub-value, which is the paper's ``ceil(2^i/a) / 2^i``.

    >>> escape_probability(4, 9)      # ceil(16/9)/16
    Fraction(1, 8)
    >>> escape_probability(3, 9)      # 2^3 <= 9: only x = m1 collides
    Fraction(1, 8)
    """
    total = 1 << i
    if m1 is None:
        eff = (a // modulus_gcd) if modulus_gcd > 1 else a
        return Fraction(-(-total // eff), total)
    return Fraction(collision_count(i, a, m1, modulus_gcd), total)


def worst_escape_probability(i: int, a: int) -> Fraction:
    """The paper's bound ``ceil(2^i/a)/2^i`` (worst m1, odd a)."""
    return escape_probability(i, a, m1=None)


def worst_escape_over_blocks(a: int, max_width: int) -> Fraction:
    """Supremum of the per-cycle escape over block widths ``1..max_width``.

    The paper notes the bound is maximised by the smallest ``i`` with
    ``2^i > a``; for smaller blocks the "escape" is just the
    non-excitation probability ``1/2^i`` which can exceed it, so we take
    the honest maximum over *error-producing* regimes: for ``2^i <= a``
    the first error is detected (zero detection latency), and the paper's
    trade-off formula uses only the ``2^i > a`` regime.  If no width
    exceeds ``a`` (tiny decoders), every fault has zero latency and the
    escape is the non-excitation probability of the widest block.

    Closed form, in integers: with ``i0 = max(a.bit_length(), 1)``, the
    smallest width with ``2^i0 > a``, the supremum is
    ``ceil(2^i0/a) / 2^i0`` when ``i0 <= max_width``, else
    ``1/2^max_width``.  Proof: for every ``i >= i0``,
    ``ceil(2^i/a) <= 2^(i-i0) * ceil(2^i0/a)`` (the right side is an
    integer at least ``2^i/a``), so the bound never grows with ``i``.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    i0 = max(a.bit_length(), 1)
    if i0 > max_width:
        return Fraction(1, 1 << max_width)
    total = 1 << i0
    return Fraction(-(-total // a), total)


def pndc(i: int, a: int, c: int, m1: Optional[int] = None) -> Fraction:
    """Probability of escaping ``c`` consecutive cycles: ``P_nd^c``.

    >>> float(pndc(4, 9, 10))   # the paper's worked example: ~9.3e-10
    9.313225746154785e-10
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return escape_probability(i, a, m1) ** c


def worst_pndc(a: int, c: int, max_width: int) -> Fraction:
    """Worst-case ``Pndc`` over all block widths of a decoder."""
    return worst_escape_over_blocks(a, max_width) ** c


def required_a_for(c: int, pndc_target: float, max_width: int = 64) -> int:
    """Smallest odd ``a`` meeting ``worst_pndc(a, c) <= pndc_target``.

    This is the exact-search version of the paper's sizing rule (§III.2).
    The paper's shortcut ``a = ceil(Pndc^(-1/c))`` (bumped to odd) is
    implemented in :mod:`repro.core.selection`; the two agree except where
    the ceil-granularity of the exact bound bites (e.g. c=20, Pndc=1e-9
    needs a=5 although 1/3 < the per-cycle target — see DESIGN.md).

    >>> required_a_for(10, 1e-9)
    9
    """
    if not 0 < pndc_target < 1:
        raise ValueError(f"pndc_target must be in (0,1), got {pndc_target}")

    def satisfied(a: int) -> bool:
        worst = worst_escape_over_blocks(a, max_width)
        return float(worst) ** c <= pndc_target

    # Feasibility floor: even as a -> infinity the per-cycle escape never
    # drops below the non-excitation probability of the widest block,
    # 1/2^max_width.  Below that the requirement cannot be met by any
    # finite code under the uniform-traffic model.
    floor = math.log10(0.5) * max_width * c
    if floor > math.log10(pndc_target):
        raise ValueError(
            f"Pndc target {pndc_target:g} within c={c} cycles is below the "
            f"non-excitation floor 2^-{max_width * c} of a width-"
            f"{max_width} decoder block; no finite code satisfies it"
        )

    # The worst-case escape is non-increasing in a (larger modulus =>
    # fewer collisions at every block width), so the predicate is monotone
    # and we can bracket by doubling then binary-search over odd values.
    # Once a exceeds 2^max_width no block can produce a detectable-late
    # error at all (every block is in the zero-latency regime), so the
    # search always terminates by then; the +4 is slack for the doubling.
    limit = 1 << (max_width + 4)
    hi = 3
    while not satisfied(hi):
        hi = hi * 2 + 1  # stays odd
        if hi > limit:  # pragma: no cover - defensive
            raise RuntimeError("no odd a found (target unreachably small?)")
    # Invariant: lo is odd and unsatisfied (a=1 has escape 1), hi is odd
    # and satisfied; narrow to adjacent odd values.
    lo = 1
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if mid % 2 == 0:
            mid += 1
        if mid >= hi:
            mid = hi - 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cycles_to_reach(a: int, pndc_target: float, max_width: int = 64) -> int:
    """Smallest ``c`` such that the worst-case ``Pndc <= target`` for a given a."""
    if not 0 < pndc_target < 1:
        raise ValueError(f"pndc_target must be in (0,1), got {pndc_target}")
    worst = float(worst_escape_over_blocks(a, max_width))
    if worst >= 1.0:
        raise ValueError("per-cycle escape is 1; target unreachable")
    return max(1, math.ceil(math.log(pndc_target) / math.log(worst)))


def expected_detection_cycles(escape: Fraction) -> float:
    """Mean of the geometric detection law: ``1 / (1 - escape)``."""
    if escape >= 1:
        return math.inf
    return float(1 / (1 - escape))


def detection_quantile(escape: Fraction, quantile: float) -> int:
    """Cycles needed so that detection has happened with prob >= quantile.

    >>> detection_quantile(Fraction(1, 8), 0.999)   # 1/8 escape per cycle
    4
    """
    if not 0 < quantile < 1:
        raise ValueError(f"quantile must be in (0,1), got {quantile}")
    if escape == 0:
        return 1
    if escape >= 1:
        raise ValueError("escape probability 1: never detected")
    return max(1, math.ceil(math.log(1 - quantile) / math.log(float(escape))))
