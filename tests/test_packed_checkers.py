"""Property tests: each checker's lane acceptance (``accepts_lanes``)
accepts exactly the words its serial ``accepts`` accepts — on every
input word, not just code words."""

import itertools
import random

import numpy as np
import pytest

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.checkers.parity_checker import ParityChecker
from repro.checkers.two_rail_checker import TwoRailChecker
from repro.circuits.parallel import lane_mask, pack_bool, unpack_lanes


def lane_columns(words):
    """One (W,) lane row per observed bit: lane ``k`` carries
    ``words[k]``."""
    return list(pack_bool(np.asarray(words, dtype=np.uint8).T))


def packed_acceptance(checker, words):
    acc = checker.accepts_lanes(lane_columns(words), lane_mask(len(words)))
    return unpack_lanes(acc, len(words)).tolist()


def serial_acceptance(checker, words):
    return [checker.accepts(word) for word in words]


def all_words(width):
    return list(itertools.product((0, 1), repeat=width))


EXHAUSTIVE_CHECKERS = [
    MOutOfNChecker(3, 5, structural=False),
    MOutOfNChecker(3, 5, structural=True),
    MOutOfNChecker(2, 4, structural=False),
    MOutOfNChecker(2, 4, structural=True),
    MOutOfNChecker(1, 2, structural=False),
    BergerChecker(3),
    BergerChecker(4),
    ParityChecker(2),
    ParityChecker(4),
    ParityChecker(5, even=False),
    TwoRailChecker(1),
    TwoRailChecker(2),
    TwoRailChecker(3),
]


@pytest.mark.parametrize(
    "checker", EXHAUSTIVE_CHECKERS, ids=lambda c: repr(c)
)
def test_packed_equals_serial_exhaustively(checker):
    words = all_words(checker.input_width)
    assert packed_acceptance(checker, words) == serial_acceptance(
        checker, words
    )


@pytest.mark.parametrize(
    "checker",
    [
        MOutOfNChecker(9, 18, structural=False),
        BergerChecker(12),
        ParityChecker(16),
        TwoRailChecker(8),
    ],
    ids=lambda c: repr(c),
)
def test_packed_equals_serial_on_random_wide_words(checker):
    rng = random.Random(42)
    words = [
        tuple(rng.randint(0, 1) for _ in range(checker.input_width))
        for _ in range(512)
    ]
    assert packed_acceptance(checker, words) == serial_acceptance(
        checker, words
    )


class _EveryOtherChecker(Checker):
    """Plugin checker with no lane override — exercises the generic
    unpack-and-defer fallback of the base class."""

    def __init__(self, width):
        self.input_width = width

    def indication(self, word):
        return (1, 0) if sum(word) % 2 == 0 else (1, 1)


def test_base_fallback_matches_serial():
    checker = _EveryOtherChecker(5)
    words = all_words(5)
    assert packed_acceptance(checker, words) == serial_acceptance(
        checker, words
    )


@pytest.mark.parametrize(
    "checker",
    [
        MOutOfNChecker(3, 5, structural=False),
        BergerChecker(3),
        ParityChecker(4),
        TwoRailChecker(2),
        _EveryOtherChecker(4),
    ],
    ids=lambda c: type(c).__name__,
)
def test_packed_width_validated(checker):
    columns = [np.zeros(1, dtype=np.uint64)] * (checker.input_width + 1)
    with pytest.raises(ValueError, match="lane columns"):
        checker.accepts_lanes(columns, lane_mask(4))


def test_packed_single_lane_and_full_lane_masks():
    checker = MOutOfNChecker(3, 5, structural=False)
    word = (1, 1, 1, 0, 0)  # weight 3 -> accepted
    acc = checker.accepts_lanes(lane_columns([word]), lane_mask(1))
    assert acc.tolist() == [1]
    bad = (1, 1, 1, 1, 0)
    words = [word, bad, word]
    acc = checker.accepts_lanes(lane_columns(words), lane_mask(3))
    assert acc.tolist() == [0b101]
