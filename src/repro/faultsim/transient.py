"""Transient (soft-error) fault campaigns — the on-line-testing motivation.

The paper's introduction frames self-checking as *on-line* reliability:
faults appear during operation.  Beyond the permanent stuck-at model of
§III we add single-event upsets — a stored bit flips at some cycle — and
measure how long the parity path takes to observe them under a given
access pattern.  The detection latency here is governed by the *traffic*,
not the code: parity catches the flip on the first read of the victim
word, so latency = time-to-next-read, which the campaign quantifies for
uniform, sequential and scrubbed access streams.

Since 1.3 the canonical driver is
:meth:`repro.scenarios.CampaignEngine.transient` — seeded
:class:`~repro.scenarios.workload.Workload` stimuli,
:class:`~repro.scenarios.faults.TransientScenario` fault values
(including multi-upset combinations), a packed lane-mask backend proven
bit-identical to the serial oracle, and ``workers=N`` sharding.  The
helpers below are kept as thin shims with the pre-1.3 signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.memory.ram import BehavioralRAM

__all__ = [
    "TransientUpset",
    "TransientResult",
    "transient_campaign",
    "scrubbed_stream",
]


@dataclass(frozen=True)
class TransientUpset:
    """A single-event upset: bit ``bit`` of ``address`` flips at ``cycle``."""

    address: int
    bit: int
    cycle: int


@dataclass
class TransientResult:
    upset: TransientUpset
    #: cycle at which a read of the victim word flagged the parity error
    detected_at: Optional[int]

    @property
    def latency(self) -> Optional[int]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.upset.cycle


def scrubbed_stream(
    words: int,
    cycles: int,
    scrub_period: int,
    seed: int = 0,
) -> List[int]:
    """Random traffic with a background scrubber visiting one word every
    ``scrub_period`` cycles (round-robin) — bounding time-to-next-read.

    .. deprecated:: 1.4
        Shim over ``Workload.scrubbed`` (bit-identical trace);
        ``Workload`` has been canonical since 1.3 — construct it
        directly.
    """
    import warnings

    warnings.warn(
        "scrubbed_stream() is a 1.2-era shim; build "
        "Workload.scrubbed(words, cycles, scrub_period, seed=seed) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.scenarios.workload import Workload

    return Workload.scrubbed(
        words, cycles, scrub_period=scrub_period, seed=seed
    ).address_list()


def transient_campaign(
    ram: BehavioralRAM,
    upsets: Sequence[TransientUpset],
    addresses: Sequence[int],
    engine: str = "vector",
    workers: Optional[int] = None,
) -> List[TransientResult]:
    """Replay the address stream once per upset, flipping the victim bit
    at the upset cycle and recording the first parity-failing read.

    The RAM must have parity enabled; it is (re)initialised with zero
    words so every stored word is a parity code word.  Shim over
    :meth:`repro.scenarios.CampaignEngine.transient` (one single-upset
    scenario per entry); ``engine="serial"`` selects the per-cycle
    oracle the lane-mask default is proven bit-identical to.

    Behaviour change in 1.3: a RAM with pre-injected behavioural
    faults is refused (``ValueError``) — the lane-mask backend cannot
    honour them.  Clear the faults and model them as scenarios in a
    :meth:`~repro.scenarios.CampaignEngine.scheme` or
    :meth:`~repro.scenarios.CampaignEngine.march` campaign instead.
    """
    from repro.scenarios.engine import CampaignEngine
    from repro.scenarios.faults import TransientScenario
    from repro.scenarios.workload import as_workload

    scenarios = [TransientScenario(upsets=(upset,)) for upset in upsets]
    result = CampaignEngine(engine=engine, workers=workers).transient(
        ram, scenarios, as_workload(addresses)
    )
    return [
        TransientResult(upset=upset, detected_at=record.first_detection)
        for upset, record in zip(upsets, result.records)
    ]
