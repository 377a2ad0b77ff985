"""X4/X5 — ablations of the two design choices DESIGN.md calls out.

X4 (odd ``a``): replace the odd modulus with an even one.  ``gcd(2^j, a)``
then exceeds 1 for every block at offset ``j >= 1``, collapsing the
effective modulus and — in the extreme ``a = 2^(n-k)`` of the §III.1
preliminary construction — leaving the high-bit sub-decoder entirely
unchecked (infinite latency).  We measure coverage with the truncated
Berger mapping versus the final mod-a mapping on the same decoder.

X5 (unordered code): program the ROM with a *systematic, ordered* code of
the same width (address low bits + pad).  Stuck-at-1 merges then produce
ANDs of code words that can themselves be code words, and stuck-at-0's
all-1s output can even be a code word — silent escapes the unordered
property rules out.  We count them.

Run: ``python -m repro.experiments.ablations``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.checkers.base import Checker
from repro.checkers.berger_checker import BergerChecker
from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.base import BitVector
from repro.codes.m_out_of_n import MOutOfNCode
from repro.codes.unordered import and_of_distinct_words_is_noncode
from repro.core.mapping import (
    AddressMapping,
    TruncatedBergerMapping,
    mapping_for_code,
)
from repro.decoder.analysis import analyze_decoder
from repro.experiments.common import open_store, record_campaign_stats
from repro.faultsim.injector import decoder_fault_list
from repro.scenarios import CampaignEngine, Workload
from repro.rom.nor_matrix import CheckedDecoder

__all__ = [
    "OddAAblation",
    "run_odd_a_ablation",
    "UnorderedAblation",
    "run_unordered_ablation",
    "main",
]


@dataclass
class OddAAblation:
    n_bits: int
    coverage_mod_a: float
    coverage_truncated_berger: float
    #: analytically-blind stuck-at-1 sites under the even-modulus mapping
    blind_sites_berger: int
    blind_sites_mod_a: int
    #: faults simulated across both campaigns
    faults: int = 0


def run_odd_a_ablation(
    n_bits: int = 6,
    k: int = 2,
    cycles: int = 300,
    seed: int = 3,
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> OddAAblation:
    """Same decoder, two ROM programmings: final mod-a vs §III.1 truncated."""
    code = MOutOfNCode(3, 5)
    good_mapping = mapping_for_code(code, n_bits)
    bad_mapping = TruncatedBergerMapping(n_bits, k=k)

    driver = CampaignEngine(
        engine=engine, workers=workers, store=open_store(store), cache=cache
    )
    addresses = Workload.uniform(1 << n_bits, cycles, seed=seed)
    coverages: List[float] = []
    blind_counts: List[int] = []
    total_faults = 0
    for mapping, checker in (
        (good_mapping, MOutOfNChecker(code.m, code.n, structural=False)),
        (bad_mapping, BergerChecker(bad_mapping.info_bits)),
    ):
        checked = CheckedDecoder(mapping)
        faults = decoder_fault_list(checked)
        result = driver.decoder(
            checked, checker, faults, addresses, attach_analytic=False
        )
        total_faults += len(faults)
        coverages.append(result.coverage)
        analysis = analyze_decoder(checked.tree, mapping)
        blind_counts.append(
            sum(
                1
                for s in analysis.sa1_sites
                if s.escape_per_cycle == 1
            )
        )
    return OddAAblation(
        n_bits=n_bits,
        coverage_mod_a=coverages[0],
        coverage_truncated_berger=coverages[1],
        blind_sites_mod_a=blind_counts[0],
        blind_sites_berger=blind_counts[1],
        faults=total_faults,
    )


class _OrderedCodeMapping(AddressMapping):
    """Deliberately bad: systematic 'code' = low bits + constant pad.

    Ordered (codewords cover each other), same ROM width as a reference
    q-out-of-r code.  Exists only for the X5 ablation.
    """

    def __init__(self, n_bits: int, width: int, used: int):
        self.n_bits = n_bits
        self.rom_width = width
        self.num_words_used = used
        self._bits = max(1, (used - 1)).bit_length()

    def index(self, address: int) -> int:
        self._check_address(address)
        return address % self.num_words_used

    def codeword(self, address: int) -> BitVector:
        value = self.index(address)
        bits = tuple(
            (value >> (self._bits - 1 - i)) & 1 for i in range(self._bits)
        )
        pad = (0,) * (self.rom_width - self._bits)
        return bits + pad


class _MembershipChecker(Checker):
    """Accepts exactly the words the ordered mapping can emit."""

    def __init__(self, mapping: AddressMapping):
        self.input_width = mapping.rom_width
        self._words = {
            mapping.codeword(a) for a in range(1 << mapping.n_bits)
        }

    def indication(self, word) -> Tuple[int, int]:
        return (1, 0) if tuple(word) in self._words else (1, 1)


@dataclass
class UnorderedAblation:
    n_bits: int
    unordered_is_and_closed: bool
    ordered_is_and_closed: bool
    coverage_unordered: float
    coverage_ordered: float
    silent_sa0_ordered: int
    #: faults simulated across both campaigns
    faults: int = 0


def run_unordered_ablation(
    n_bits: int = 5,
    cycles: int = 300,
    seed: int = 11,
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> UnorderedAblation:
    code = MOutOfNCode(3, 5)
    good_mapping = mapping_for_code(code, n_bits)
    bad_mapping = _OrderedCodeMapping(
        n_bits, width=code.n, used=good_mapping.a
    )
    driver = CampaignEngine(
        engine=engine, workers=workers, store=open_store(store), cache=cache
    )
    addresses = Workload.uniform(1 << n_bits, cycles, seed=seed)

    good = CheckedDecoder(good_mapping)
    good_result = driver.decoder(
        good,
        MOutOfNChecker(code.m, code.n, structural=False),
        decoder_fault_list(good),
        addresses,
        attach_analytic=False,
    )

    bad = CheckedDecoder(bad_mapping)
    bad_checker = _MembershipChecker(bad_mapping)
    bad_result = driver.decoder(
        bad,
        bad_checker,
        decoder_fault_list(bad),
        addresses,
        attach_analytic=False,
    )
    silent_sa0 = sum(
        1
        for r in bad_result.records
        if r.kind == "sa0" and r.first_error is not None and not r.detected
    )

    good_words = [good_mapping.codeword(a) for a in range(1 << n_bits)]
    bad_words = [bad_mapping.codeword(a) for a in range(1 << n_bits)]
    return UnorderedAblation(
        n_bits=n_bits,
        unordered_is_and_closed=and_of_distinct_words_is_noncode(good_words),
        ordered_is_and_closed=and_of_distinct_words_is_noncode(bad_words),
        coverage_unordered=good_result.coverage,
        coverage_ordered=bad_result.coverage,
        silent_sa0_ordered=silent_sa0,
        faults=good_result.total + bad_result.total,
    )


#: stats of the most recent main() run, surfaced by the CLI's --json
LAST_CAMPAIGN_STATS: dict = {}


def main(
    engine: str = "vector",
    workers: Optional[int] = None,
    store=None,
    cache: bool = True,
) -> None:
    store = open_store(store)
    start = time.perf_counter()
    odd = run_odd_a_ablation(
        engine=engine, workers=workers, store=store, cache=cache
    )
    print("X4 — odd modulus ablation (mod-a vs truncated-Berger ROM)")
    print(f"  coverage, final mod-a mapping      : {odd.coverage_mod_a:.3f}")
    print(
        f"  coverage, SIII.1 truncated Berger  : "
        f"{odd.coverage_truncated_berger:.3f}"
    )
    print(
        f"  analytically blind s-a-1 sites     : "
        f"{odd.blind_sites_mod_a} (mod-a) vs "
        f"{odd.blind_sites_berger} (Berger)"
    )
    uno = run_unordered_ablation(
        engine=engine, workers=workers, store=store, cache=cache
    )
    extra = {}
    if store is not None:
        extra["store"] = store.stats.to_dict()
    record_campaign_stats(
        LAST_CAMPAIGN_STATS, engine, odd.faults + uno.faults,
        time.perf_counter() - start, **extra,
    )
    print("X5 — unordered-code ablation (3-out-of-5 vs ordered systematic)")
    print(
        f"  AND of distinct words is non-code  : "
        f"{uno.unordered_is_and_closed} (unordered) vs "
        f"{uno.ordered_is_and_closed} (ordered)"
    )
    print(f"  coverage, unordered code           : {uno.coverage_unordered:.3f}")
    print(f"  coverage, ordered code             : {uno.coverage_ordered:.3f}")
    print(f"  silent excited s-a-0 faults (ordered): {uno.silent_sa0_ordered}")


if __name__ == "__main__":
    main()
