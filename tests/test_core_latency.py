import math
from fractions import Fraction

import pytest

from repro.core.latency import (
    collision_count,
    cycles_to_reach,
    detection_quantile,
    escape_probability,
    expected_detection_cycles,
    pndc,
    required_a_for,
    worst_escape_over_blocks,
    worst_escape_probability,
    worst_pndc,
)


class TestCollisionCount:
    def test_direct_enumeration_agreement(self):
        for i in (1, 2, 3, 4, 5, 6):
            for a in (3, 5, 7, 9, 11):
                for m1 in range(min(1 << i, a + 2)):
                    expected = sum(
                        1 for x in range(1 << i) if x % a == m1 % a
                    )
                    assert collision_count(i, a, m1) == expected

    def test_worst_case_is_ceil(self):
        for i in (3, 4, 5, 6, 7):
            for a in (3, 5, 9, 11):
                worst = max(
                    collision_count(i, a, m1) for m1 in range(1 << i)
                )
                assert worst == math.ceil((1 << i) / a)

    def test_gcd_collapses_modulus(self):
        # §III.2: gcd(2^j, a) = f shrinks the effective modulus to a/f.
        assert collision_count(4, 6, 0, modulus_gcd=2) == collision_count(
            4, 3, 0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_count(-1, 3, 0)
        with pytest.raises(ValueError):
            collision_count(3, 0, 0)
        with pytest.raises(ValueError):
            collision_count(3, 9, 0, modulus_gcd=2)  # 2 does not divide 9


class TestEscapeProbability:
    def test_paper_worked_example(self):
        # c=10, Pndc=1e-9: a=9 gives escape 2/16 = 1/8 at i=4.
        assert worst_escape_probability(4, 9) == Fraction(1, 8)
        assert float(pndc(4, 9, 10)) == pytest.approx(2.0 ** -30)

    def test_small_block_escape_is_nonexcitation(self):
        # 2^i <= a: only x = m1 collides.
        assert escape_probability(3, 9) == Fraction(1, 8)
        assert escape_probability(2, 9) == Fraction(1, 4)

    def test_specific_m1(self):
        # i=4, a=9: residue 0 appears for x in {0, 9} -> 2/16;
        # residue 8 appears only for x=8 -> 1/16.
        assert escape_probability(4, 9, m1=0) == Fraction(2, 16)
        assert escape_probability(4, 9, m1=8) == Fraction(1, 16)

    def test_worst_over_blocks_supremum(self):
        # a=9: widths 4.. give 2/16, 4/32, 8/64... all 1/8.
        assert worst_escape_over_blocks(9, 10) == Fraction(1, 8)
        # a=5: width 3 gives 2/8 = 1/4.
        assert worst_escape_over_blocks(5, 10) == Fraction(1, 4)

    def test_worst_over_blocks_tiny_decoder(self):
        # no width exceeds a: only the non-excitation term remains.
        assert worst_escape_over_blocks(9, 3) == Fraction(1, 8)

    def test_worst_escape_non_increasing_in_a(self):
        previous = Fraction(1)
        for a in range(1, 400, 2):
            current = worst_escape_over_blocks(a, 40)
            assert current <= previous
            previous = current

    def test_validation(self):
        with pytest.raises(ValueError):
            pndc(3, 9, 0)
        with pytest.raises(ValueError):
            worst_escape_over_blocks(9, 0)
        for a in (0, -1, -9):
            with pytest.raises(ValueError, match="a must be >= 1"):
                worst_escape_over_blocks(a, 10)

    def test_worst_case_escape_is_integer_exact(self):
        # ceil(2^64 / 3) / 2^64 in integers: a float ceil lands 1.85e-17
        # below it, and so does every width from 54 up
        assert escape_probability(64, 3) == Fraction(-(-(2**64) // 3), 2**64)
        for i in range(1, 80):
            for a in (3, 7, 9, 2**40 + 1):
                assert escape_probability(i, a) == Fraction(
                    -(-(2**i) // a), 2**i
                )


def loop_escapes(a):
    """The block-width loop the closed form replaced, in integers, for
    every ``max_width`` 1..64 at once: the running maximum of
    ``ceil(2^i/a)/2^i`` over the widths with ``2^i > a``, else
    ``1/2^max_width``."""
    best, out = None, []
    for width in range(1, 65):
        total = 1 << width
        if total > a:
            value = Fraction(-(-total // a), total)
            best = value if best is None or value > best else best
        out.append(Fraction(1, total) if best is None else best)
    return out


class TestWorstEscapeClosedForm:
    def test_every_small_a_at_every_width(self):
        for a in range(1, 10_001):
            got = [
                worst_escape_over_blocks(a, width) for width in range(1, 65)
            ]
            assert got == loop_escapes(a), a

    def test_powers_of_two_and_neighbours(self):
        # the float ceil of the old loop got 2^k - 1 wrong for k = 54..62
        for k in range(1, 63):
            for a in (2**k - 1, 2**k, 2**k + 1):
                got = [
                    worst_escape_over_blocks(a, width)
                    for width in range(1, 65)
                ]
                assert got == loop_escapes(a), a


class TestRequiredA:
    def test_paper_worked_example(self):
        assert required_a_for(10, 1e-9) == 9

    def test_table1_c20_needs_a5(self):
        # The exact bound: a=3 fails (escape 1/2 at i=2), a=5 passes.
        assert required_a_for(20, 1e-9) == 5

    def test_table1_c2(self):
        assert required_a_for(2, 1e-9) == 32769

    def test_result_is_minimal_odd(self):
        for c, target in [(10, 1e-9), (5, 1e-9), (20, 1e-9), (10, 1e-5)]:
            a = required_a_for(c, target)
            assert a % 2 == 1
            assert float(worst_escape_over_blocks(a, 64)) ** c <= target
            if a > 1:
                prev = a - 2
                assert (
                    float(worst_escape_over_blocks(prev, 64)) ** c > target
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            required_a_for(10, 0.0)
        with pytest.raises(ValueError):
            required_a_for(10, 1.0)


class TestDerivedQuantities:
    def test_worst_pndc(self):
        assert worst_pndc(9, 10, 64) == Fraction(1, 8) ** 10

    def test_cycles_to_reach_inverts_pndc(self):
        c = cycles_to_reach(9, 1e-9)
        assert float(worst_escape_over_blocks(9, 64)) ** c <= 1e-9
        assert float(worst_escape_over_blocks(9, 64)) ** (c - 1) > 1e-9

    def test_expected_detection_cycles(self):
        assert expected_detection_cycles(Fraction(0)) == 1.0
        assert expected_detection_cycles(Fraction(1, 2)) == 2.0
        assert expected_detection_cycles(Fraction(1)) == math.inf

    def test_detection_quantile(self):
        assert detection_quantile(Fraction(1, 8), 0.999) == 4
        assert detection_quantile(Fraction(0), 0.999) == 1
        with pytest.raises(ValueError):
            detection_quantile(Fraction(1), 0.9)
        with pytest.raises(ValueError):
            detection_quantile(Fraction(1, 2), 1.5)
