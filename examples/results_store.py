"""Results & artifact API — compute a campaign once, answer from disk.

The 1.4 workflow end to end:

* run a decoder campaign through a `CampaignEngine` with a `ResultStore`
  attached — the result is provenance-stamped and lands in the store
  under the canonical hash of (target, scenarios, workload, policy);
* re-run the identical campaign: a verified store *hit*, served from
  disk without invoking the simulator;
* round-trip the artifact through streaming JSONL bit-identically;
* compare two different runs (uniform vs bursty traffic) with one
  `ResultSet.diff` call instead of a bespoke experiment script.

Run: ``python examples/results_store.py``
"""

import tempfile
import time

from repro.checkers.m_out_of_n_checker import MOutOfNChecker
from repro.codes.m_out_of_n import MOutOfNCode
from repro.core.mapping import mapping_for_code
from repro.faultsim.injector import decoder_fault_list
from repro.results import ResultSet, ResultStore
from repro.rom.nor_matrix import CheckedDecoder
from repro.scenarios import CampaignEngine, Workload


def main() -> None:
    n_bits, cycles = 6, 400
    code = MOutOfNCode(3, 5)
    checked = CheckedDecoder(mapping_for_code(code, n_bits))
    checker = MOutOfNChecker(code.m, code.n, structural=False)
    faults = decoder_fault_list(checked)
    uniform = Workload.uniform(1 << n_bits, cycles, seed=42)

    store_root = tempfile.mkdtemp(prefix="repro-store-")
    store = ResultStore(store_root)
    engine = CampaignEngine(store=store)

    # -- first run: simulated, then stored under its content address
    start = time.perf_counter()
    first = engine.decoder(checked, checker, faults, uniform)
    cold = time.perf_counter() - start
    print(
        f"cold run : {first.total} faults, coverage {first.coverage:.3f}, "
        f"{cold * 1e3:.1f} ms (from_store={first.from_store})"
    )
    print(f"           store key {first.store_key[:16]}…")

    # -- identical re-run: a verified hit, the simulator never runs
    start = time.perf_counter()
    second = CampaignEngine(store=store).decoder(
        checked, checker, faults, uniform
    )
    warm = time.perf_counter() - start
    print(
        f"warm run : served from disk in {warm * 1e3:.1f} ms "
        f"(from_store={second.from_store}, "
        f"hits={store.stats.hits}, verified={store.stats.verified})"
    )
    assert second == first  # the served set equals the fresh one

    # -- the artifact round-trips through streaming JSONL losslessly
    text = first.to_jsonl()
    assert ResultSet.from_jsonl(text) == first
    provenance = first.provenance
    print(
        f"artifact : {len(text.splitlines())} JSONL lines; provenance "
        f"{provenance.campaign}/{provenance.engine}, "
        f"workload {provenance.workload}"
    )

    # -- cross-run diff: same faults, different traffic, one call
    bursty = Workload.bursty(1 << n_bits, cycles, locality=4, seed=42)
    bursty_result = engine.decoder(checked, checker, faults, bursty)
    diff = first.diff(bursty_result)
    print("\nuniform -> bursty traffic, record-matched diff:")
    print(diff.render())

    # -- the algebra: slice the stored artifact without re-simulating
    sa1 = first.filter(kind="sa1")
    late = first.filter(
        lambda r: r.detected and r.first_detection >= 10
    )
    print(
        f"filters  : {sa1.total} stuck-at-1 records "
        f"(coverage {sa1.coverage:.3f}), {late.total} detected at "
        f"cycle >= 10"
    )
    by_kind = {
        kind: group.total for kind, group in first.group_by("kind").items()
    }
    print(f"group_by : {by_kind}")


if __name__ == "__main__":
    main()
